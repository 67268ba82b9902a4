"""Tests for config parsing and the command-line interface."""
import os

import numpy as np
import pytest

from guidedog.cli import (CampaignConfig, ValidationError, _load,
                          build_parser, main, parse_config)
from guidedog.guidance import METHODS


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_gives_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, ""))
    assert cfg.problem == "example"
    assert cfg.alpha == 2.0
    assert cfg.mesh_intervals is None
    assert cfg.runs == 100
    assert cfg.q == 0.01 and cfg.beta == 5.0
    assert cfg.seed == 1234
    assert cfg.methods == METHODS
    assert cfg.output_dir == "."


def test_config_values_applied(tmp_path):
    cfg = parse_config(_write(tmp_path, """
[problem]
alpha = 2.5

[mesh]
intervals = 8
order = 5

[solver]
max_iterations = 50
kkt_tolerance = 1e-9

[guidance]
period = 2.0
cycles = 20
method = OG

[mc]
runs = 10
q = 0.02
beta = 10.0
seed = 7
methods = OC, DOG

[output]
directory = out
"""))
    assert cfg.alpha == 2.5
    assert cfg.mesh_intervals == 8 and cfg.mesh_order == 5
    assert cfg.max_iterations == 50 and cfg.kkt_tolerance == 1e-9
    assert cfg.cycle_duration == 2.0 and cfg.cycle_count == 20
    assert cfg.method == "OG"
    assert cfg.runs == 10 and cfg.q == 0.02 and cfg.beta == 10.0
    assert cfg.seed == 7
    assert cfg.methods == ("OC", "DOG")
    assert cfg.output_dir == "out"


def test_config_preset_sets_weights(tmp_path):
    cfg = parse_config(_write(tmp_path, "[mc]\npreset = fig3a\n"))
    assert (cfg.q, cfg.beta) == (0.01, 5.0)
    assert cfg.preset == "fig3a"


def test_config_explicit_keys_override_preset(tmp_path):
    cfg = parse_config(_write(tmp_path,
                              "[mc]\npreset = fig3d\nq = 0.005\n"))
    assert cfg.q == 0.005          # explicit key wins
    assert cfg.beta == 10.0        # preset default survives


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ValidationError, match="unknown config section"):
        parse_config(_write(tmp_path, "[plotting]\ncolor = red\n"))


def test_unknown_key_rejected_with_context(tmp_path):
    with pytest.raises(ValidationError, match="runz.*\\[mc\\]"):
        parse_config(_write(tmp_path, "[mc]\nrunz = 10\n"))


def test_zero_runs_rejected(tmp_path):
    with pytest.raises(ValidationError):
        parse_config(_write(tmp_path, "[mc]\nruns = 0\n"))


def test_unparseable_value_names_the_key(tmp_path):
    with pytest.raises(ValidationError, match="mc.seed"):
        parse_config(_write(tmp_path, "[mc]\nseed = lots\n"))


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        parse_config(str(tmp_path / "absent.ini"))


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(ValidationError, match="unknown preset"):
        parse_config(_write(tmp_path, "[mc]\npreset = fig9\n"))


def test_campaign_config_validation():
    with pytest.raises(ValidationError):
        CampaignConfig(problem="rocket")
    with pytest.raises(ValidationError):
        CampaignConfig(alpha=-1.0)
    with pytest.raises(ValidationError):
        CampaignConfig(method="XYZ")
    with pytest.raises(ValidationError):
        CampaignConfig(mesh_intervals=0)
    with pytest.raises(ValidationError):
        CampaignConfig(preset="fig9")
    with pytest.raises(ValidationError):
        CampaignConfig(runs=-5)


# ---------------------------------------------------------------------------
# subcommands


def test_presets_lists_named_cases(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig3a", "fig3b", "fig3c", "fig3d"):
        assert name in out
    assert "2.0178" in out   # the mission case advertises its parameter


def test_usage_errors_exit_one(capsys):
    assert main(["explode"]) == 1
    assert main(["campaign", "--runs", "0"]) == 1
    assert main(["mission", "--method", "WAT"]) == 1
    capsys.readouterr()


def test_solve_writes_trajectory_and_objective(tmp_path, capsys):
    rc = main(["solve", "--beta", "0", "--mesh-intervals", "4",
               "--output", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "base objective J = " in out
    csv_path = tmp_path / "trajectory.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "time,x1,u1"


def test_solve_desensitized_adds_sensitivity_column(tmp_path, capsys):
    rc = main(["solve", "--beta", "10", "--q", "0.02",
               "--output", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "time,x1,s1,u1"


def test_mission_writes_method_tagged_csv(tmp_path, capsys):
    rc = main(["mission", "--method", "OC", "--preset", "fig3a",
               "--alpha-tilde", "2.01", "--output", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "epsilon = " in out
    assert (tmp_path / "mission_OC.csv").exists()


def test_mission_preset_supplies_flown_parameter(tmp_path, capsys):
    rc = main(["mission", "--method", "OC", "--preset", "fig4",
               "--output", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("mission OC"))
    value = float(line.split("alpha_tilde=")[1].split()[0])
    assert value == 2.0178


def test_failed_solve_exits_two(tmp_path, capsys):
    config = _write(tmp_path, "[solver]\nmax_iterations = 1\n")
    rc = main(["solve", "--beta", "0", "--config", config,
               "--output", str(tmp_path)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_campaign_writes_records_summary_and_scatter(tmp_path, capsys):
    config = _write(tmp_path, "[mc]\nmethods = OC\n")
    rc = main(["campaign", "--config", config, "--preset", "fig3a",
               "--runs", "2", "--seed", "5", "--output", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    records = (tmp_path / "records.csv").read_text().splitlines()
    assert len(records) == 3    # header + 2 runs x 1 method
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "scatter.svg").exists()


def test_campaign_rerun_reproduces_bytes(tmp_path, capsys):
    config = _write(tmp_path, "[mc]\nmethods = OC\n")
    outputs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        rc = main(["campaign", "--config", config, "--preset", "fig3c",
                   "--runs", "2", "--seed", "11", "--output", str(out_dir)])
        assert rc == 0
        outputs.append({name: (out_dir / name).read_bytes()
                        for name in ("records.csv", "summary.csv",
                                     "scatter.svg")})
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_campaign_all_failed_exits_two(tmp_path, capsys):
    config = _write(tmp_path,
                    "[solver]\nmax_iterations = 1\n[mc]\nmethods = OC\n")
    rc = main(["campaign", "--config", config, "--runs", "2",
               "--output", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()
    # artifacts still written for postmortem inspection
    assert (tmp_path / "records.csv").exists()



def test_unknown_preset_flag_exits_one(tmp_path, capsys):
    rc = main(["campaign", "--preset", "fig9", "--runs", "1",
               "--output", str(tmp_path)])
    assert rc == 1
    assert "unknown preset" in capsys.readouterr().err
    assert not (tmp_path / "records.csv").exists()


def test_guidance_cycles_beyond_the_horizon_rejected_before_any_solve(
        tmp_path, capsys):
    # 20 cycles x 4 s run past the example's 50 s horizon
    config = _write(tmp_path,
                    "[guidance]\ncycles = 20\n\n[mc]\nmethods = OG\n")
    for argv in (["mission"], ["campaign", "--runs", "1"]):
        rc = main(argv + ["--config", config, "--output", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: 20 cycles x 4.0 s exceed the 50.0 s horizon" in err
    assert sorted(os.listdir(tmp_path)) == ["config.ini"]
    # an open-loop method flies no cycles, so the schedule is no error
    rc = main(["mission", "--method", "OC", "--config", config,
               "--output", str(tmp_path)])
    assert rc == 0
    assert "flew 0 guidance cycles" in capsys.readouterr().out


@pytest.mark.parametrize("section, key, command", [
    ("guidance", "period", "mission"),
    ("solver", "kkt_tolerance", "solve"),
    ("mc", "q", "campaign"),
    ("mc", "beta", "campaign"),
])
def test_non_finite_settings_exit_one(tmp_path, capsys, section, key,
                                      command):
    for value in ("nan", "inf"):
        config = _write(tmp_path, f"[{section}]\n{key} = {value}\n")
        rc = main([command, "--config", config, "--output", str(tmp_path)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.ini"]


def test_non_finite_flown_parameter_exits_one(tmp_path, capsys):
    rc = main(["mission", "--method", "OG", "--alpha-tilde", "nan",
               "--output", str(tmp_path)])
    assert rc == 1
    assert "p_tilde must be finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_readme_config_example_parses(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as handle:
        text = handle.read()
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(_write(tmp_path, block))
    assert cfg.problem == "example" and cfg.alpha == 2.0
    assert cfg.mesh_intervals == 10 and cfg.mesh_order == 4
    assert cfg.method == "DOG" and cfg.preset == "fig3a"
    assert cfg.methods == METHODS
    assert cfg.output_dir == "out"


def test_mesh_order_without_intervals_exits_one(tmp_path, capsys):
    # only a uniform mesh takes an order, so an order alone is an error,
    # not a silently ignored setting
    config = _write(tmp_path, "[mesh]\norder = 6\n")
    for argv in (["solve", "--mesh-order", "6"], ["solve", "--config", config]):
        rc = main(argv + ["--output", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "mesh.order" in err and "mesh.intervals" in err
    assert sorted(os.listdir(tmp_path)) == ["config.ini"]
    # an interval count from the config file completes the flag's order
    intervals = _write(tmp_path, "[mesh]\nintervals = 4\n", "mesh.ini")
    for sub, argv in (("a", ["--config", intervals, "--mesh-order", "6"]),
                      ("b", ["--mesh-intervals", "4", "--mesh-order", "6"])):
        assert main(["solve", "--beta", "0", "--output", str(tmp_path / sub)]
                    + argv) == 0
    capsys.readouterr()
    assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
            == (tmp_path / "b" / "trajectory.csv").read_bytes())


def test_flags_override_config_and_preset_pins_weights(tmp_path):
    config = _write(tmp_path, "[mc]\nq = 0.005\nruns = 7\n")
    args = build_parser().parse_args(
        ["campaign", "--config", config, "--preset", "fig3d", "--seed", "3"])
    cfg = _load(args)
    # a preset flag pins q and beta over the file's q; other file keys stay
    assert (cfg.q, cfg.beta) == (0.02, 10.0)
    assert cfg.runs == 7 and cfg.seed == 3 and cfg.preset == "fig3d"
    cfg = _load(build_parser().parse_args(
        ["campaign", "--preset", "fig3d", "--q", "0.03"]))
    assert (cfg.q, cfg.beta) == (0.03, 10.0)
