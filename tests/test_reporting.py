"""Tests for the CSV/SVG artifact writers."""
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from guidedog.guidance import GuidanceConfig, MissionResult, run_mission, \
    solve_reference
from guidedog.montecarlo import MonteCarloRecord, study_mesh, summarize
from guidedog.ocp import example_problem
from guidedog.reporting import (RECORD_HEADER, emit_scatter_svg, format_float,
                                write_mission_csv, write_records_csv,
                                write_summary_csv, write_trajectory_csv)
from guidedog.transcription import build_mesh, extract_solution, transcribe


def _record(run, method, epsilon, status="ok"):
    return MonteCarloRecord(run=run, alpha_tilde=2.0 + 0.001 * run,
                            method=method, epsilon=epsilon, status=status,
                            iterations=3)


def _no_temp_files(directory):
    return not [n for n in os.listdir(directory) if n.startswith(".tmp-")]


# ---------------------------------------------------------------------------
# float serialization


def test_format_float_round_trips_bit_exactly():
    for value in (1.0 / 3.0, 2.0, -0.1234567890123456789, 1e-300,
                  8.2526158e-04, float(np.nextafter(1.0, 2.0))):
        assert float(format_float(value)) == value


# ---------------------------------------------------------------------------
# records CSV


def test_single_record_gives_header_plus_one_row(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv([_record(0, "OC", 0.25)], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == RECORD_HEADER
    assert lines[1] == "0,2,OC,0.25,ok,3"
    assert _no_temp_files(tmp_path)


def test_records_round_trip_epsilon_bit_exactly(tmp_path):
    eps = [1.0 / 3.0, -2.993141e-06, 0.15871]
    rows = [_record(i, "DOG", e) for i, e in enumerate(eps)]
    path = tmp_path / "records.csv"
    write_records_csv(rows, str(path))
    parsed = [float(line.split(",")[3])
              for line in path.read_text().splitlines()[1:]]
    assert parsed == eps


def test_failed_record_has_empty_epsilon_field(tmp_path):
    rows = [_record(0, "OC", 0.1),
            _record(1, "OC", float("nan"), status="failed")]
    path = tmp_path / "records.csv"
    write_records_csv(rows, str(path))
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    assert fields[3] == "" and fields[4] == "failed"


def test_full_campaign_row_count(tmp_path):
    rows = [_record(run, method, 0.01 * run)
            for run in range(100) for method in ("OC", "DOC", "OG", "DOG")]
    path = tmp_path / "records.csv"
    write_records_csv(rows, str(path))
    assert len(path.read_text().splitlines()) == 401


def test_records_writer_rejects_empty_input(tmp_path):
    with pytest.raises(ValueError):
        write_records_csv([], str(tmp_path / "records.csv"))
    assert not (tmp_path / "records.csv").exists()


def test_records_bytes_deterministic(tmp_path):
    rows = [_record(i, m, 0.001 * i - 0.002)
            for i in range(5) for m in ("OC", "DOG")]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(rows, str(a))
    write_records_csv(rows, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_artifacts_get_the_mode_a_plain_open_gives(tmp_path):
    old = os.umask(0o022)
    try:
        path = tmp_path / "records.csv"
        write_records_csv([_record(0, "OC", 0.0)], str(path))
        assert os.stat(path).st_mode & 0o777 == 0o644
        os.umask(0o077)
        write_records_csv([_record(0, "OC", 0.0)], str(path))
        assert os.stat(path).st_mode & 0o777 == 0o600
    finally:
        os.umask(old)


# ---------------------------------------------------------------------------
# summary CSV


def test_summary_csv_keyed_by_method(tmp_path):
    rows = [_record(0, "OC", 0.2), _record(1, "OC", -0.2),
            _record(0, "DOG", float("nan"), status="failed")]
    path = tmp_path / "summary.csv"
    write_summary_csv(summarize(rows), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "method,total,failures,mean,median,std,max_abs"
    oc = lines[1].split(",")
    assert oc[0] == "OC" and oc[1] == "2" and oc[2] == "0"
    assert float(oc[5]) == pytest.approx(0.2)
    dog = lines[2].split(",")
    assert dog[0] == "DOG" and dog[2] == "1"
    assert dog[3] == dog[4] == dog[5] == dog[6] == ""


def test_summary_writer_rejects_empty_input(tmp_path):
    with pytest.raises(ValueError):
        write_summary_csv({}, str(tmp_path / "summary.csv"))


# ---------------------------------------------------------------------------
# trajectory CSVs


@pytest.fixture(scope="module")
def example():
    return example_problem()


@pytest.fixture(scope="module")
def plain_reference(example):
    ocp, _ = example
    cfg = GuidanceConfig(method="OC", mesh=build_mesh(0.0, 50.0, 4, 4))
    return solve_reference(ocp, None, cfg)[0]


def test_trajectory_csv_covers_grid_and_collocation_points(
        tmp_path, plain_reference):
    traj = plain_reference
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time,x1,u1"
    times = np.array([float(line.split(",")[0]) for line in lines[1:]])
    expected = np.union1d(np.linspace(0.0, 50.0, 501), traj.state_times)
    assert times.size == expected.size
    assert np.array_equal(times, expected)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.5, abs=1e-8)
    last = lines[-1].split(",")
    assert float(last[0]) == 50.0
    assert float(last[1]) == pytest.approx(1.0, abs=1e-8)


def test_trajectory_csv_on_mixed_orders(tmp_path, example):
    # intervals of different orders give support-time arrays of
    # different lengths
    ocp, _ = example
    mesh = build_mesh(0.0, 50.0, 2, (3, 4))
    nlp = transcribe(ocp, mesh)
    traj = extract_solution(nlp, np.linspace(0.0, 1.0, nlp.n_vars))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, str(path))
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in path.read_text().splitlines()[1:]])
    support = np.concatenate(traj.state_times)
    assert np.array_equal(rows[:, 0], np.union1d(
        np.linspace(0.0, 50.0, 501), support))
    assert np.isin(support, rows[:, 0]).all()
    assert np.array_equal(rows[:, 1:2], traj.state_at(rows[:, 0]))


def test_augmented_trajectory_csv_names_sensitivity_columns(
        tmp_path, example):
    ocp, make_spec = example
    cfg = GuidanceConfig(method="DOC", mesh=build_mesh(0.0, 50.0, 4, 4))
    traj = solve_reference(ocp, make_spec(beta=5.0, q=0.01), cfg)[0]
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "time,x1,s1,u1"


def test_mission_csv_writes_stitched_history(tmp_path, example):
    ocp, _ = example
    cfg = GuidanceConfig(method="OC", mesh=study_mesh())
    mission = run_mission(ocp, None, cfg, p_tilde=np.array([2.01]))
    assert not mission.failed
    path = tmp_path / "mission.csv"
    write_mission_csv(mission, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time,x1,u1"
    assert len(lines) == 1 + mission.times.size
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(50.0)
    assert float(last[1]) == pytest.approx(mission.terminal_state[0])


def test_mission_csv_rejects_failed_mission(tmp_path):
    mission = MissionResult(
        method="OC", trajectories=[], statuses=[], iterations=[],
        times=np.zeros(0), states=np.zeros((0, 1)), controls=np.zeros((0, 1)),
        terminal_state=None, epsilon=float("nan"), failed=True,
        failure_cycle=-1, message="reference diverged")
    with pytest.raises(ValueError):
        write_mission_csv(mission, str(tmp_path / "mission.csv"))


# ---------------------------------------------------------------------------
# scatter SVG


def _elements(root, name):
    return [e for e in root.iter() if e.tag.rsplit("}", 1)[-1] == name]


def _circles(root):
    return _elements(root, "circle")


def _zero_line_y(root):
    for line in _elements(root, "line"):
        if line.get("class") == "zero-line":
            return float(line.get("y1"))
    raise AssertionError("zero line missing")


def test_scatter_has_marker_per_ok_record_and_zero_line(tmp_path):
    rows = [_record(run, method, 0.01 * (run - 5) * (1 + hash(method) % 3))
            for run in range(10) for method in ("OC", "DOC", "OG", "DOG")]
    path = tmp_path / "scatter.svg"
    emit_scatter_svg(rows, str(path))
    root = ET.parse(path).getroot()
    assert len(_circles(root)) == 40
    _zero_line_y(root)   # raises if absent
    labels = {t.text for t in _elements(root, "text")}
    assert {"OC", "DOC", "OG", "DOG"} <= labels


def test_scatter_zero_deviations_sit_on_zero_line(tmp_path):
    rows = [_record(run, "OC", 0.0) for run in range(6)]
    path = tmp_path / "scatter.svg"
    emit_scatter_svg(rows, str(path))
    root = ET.parse(path).getroot()
    y_zero = _zero_line_y(root)
    for circle in _circles(root):
        assert float(circle.get("cy")) == y_zero


def test_scatter_marker_medians_track_record_medians(tmp_path):
    # the closed-loop desensitized cluster must sit visibly nearer the
    # zero line than the open-loop clusters
    rng = np.random.default_rng(8)
    rows = []
    for run in range(20):
        rows.append(_record(run, "DOC", -0.03 + 0.002 * rng.standard_normal()))
        rows.append(_record(run, "OG", 0.01 + 0.002 * rng.standard_normal()))
        rows.append(_record(run, "DOG", 0.001 + 0.0002 * rng.standard_normal()))
    path = tmp_path / "scatter.svg"
    emit_scatter_svg(rows, str(path))
    root = ET.parse(path).getroot()
    y_zero = _zero_line_y(root)
    offsets = {}
    for method in ("DOC", "OG", "DOG"):
        ys = [float(c.get("cy")) for c in _circles(root)
              if c.get("class") == f"marker m-{method}"]
        assert len(ys) == 20
        offsets[method] = abs(float(np.median(ys)) - y_zero)
    assert offsets["DOG"] < offsets["OG"]
    assert offsets["DOG"] < offsets["DOC"]


def test_scatter_skips_failed_records_but_keeps_category(tmp_path):
    rows = [_record(0, "OC", 0.1),
            _record(0, "DOG", float("nan"), status="failed")]
    path = tmp_path / "scatter.svg"
    emit_scatter_svg(rows, str(path))
    root = ET.parse(path).getroot()
    assert len(_circles(root)) == 1
    labels = {t.text for t in _elements(root, "text")}
    assert "DOG" in labels


def test_scatter_bytes_deterministic(tmp_path):
    rows = [_record(run, method, 0.005 * run - 0.01)
            for run in range(7) for method in ("OC", "DOG")]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_scatter_svg(rows, str(a))
    emit_scatter_svg(rows, str(b))
    assert a.read_bytes() == b.read_bytes()
    assert _no_temp_files(tmp_path)


def test_scatter_rejects_empty_records(tmp_path):
    with pytest.raises(ValueError):
        emit_scatter_svg([], str(tmp_path / "scatter.svg"))
