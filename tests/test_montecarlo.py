"""Tests for the Monte Carlo campaign layer."""
import math
from dataclasses import replace

import numpy as np
import pytest

from guidedog import guidance, montecarlo
from guidedog.guidance import METHODS
from guidedog.guidance import (GuidanceConfig, run_mission, run_missions,
                               solve_reference)
from guidedog.montecarlo import (PRESETS, MethodSummary, MonteCarloConfig,
                                 MonteCarloRecord, run_campaign, sample_alpha,
                                 study_mesh, summarize)
from guidedog.ocp import example_problem
from guidedog.sqp import SolverOptions


# ---------------------------------------------------------------------------
# sampling


def test_zero_sigma_draws_equal_alpha():
    draws = sample_alpha(123, 50, 2.0, 0.0)
    assert draws.shape == (50,)
    assert np.all(draws == 2.0)


def test_sample_mean_and_spread_match_distribution():
    # law-of-large-numbers check: the sample mean of 1e5 draws stays
    # within 4 sigma / sqrt(n) of the nominal value
    n = 100_000
    sigma = 0.01 * 2.0
    draws = sample_alpha(2718, n, 2.0, sigma)
    assert abs(np.mean(draws) - 2.0) < 4.0 * sigma / math.sqrt(n)
    assert abs(np.std(draws) - sigma) < 0.05 * sigma


def test_draws_deterministic_given_seed():
    a = sample_alpha(77, 10, 2.0, 0.02)
    b = sample_alpha(77, 10, 2.0, 0.02)
    c = sample_alpha(78, 10, 2.0, 0.02)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_longer_campaign_preserves_draw_prefix():
    short = sample_alpha(5, 3, 2.0, 0.02)
    long = sample_alpha(5, 8, 2.0, 0.02)
    assert np.array_equal(long[:3], short)


def test_each_draw_keyed_by_seed_and_run_index():
    # run i consumes the first variate of the Philox stream keyed
    # (seed, i); the draw must not depend on the other runs
    draws = sample_alpha(99, 4, 2.0, 0.05)
    for i in range(4):
        gen = np.random.Generator(np.random.Philox(key=[99, i]))
        assert draws[i] == gen.normal(2.0, 0.05)


def test_sample_alpha_rejects_negative_sigma():
    with pytest.raises(ValueError):
        sample_alpha(1, 5, 2.0, -0.1)


@pytest.mark.parametrize("seed, run_count, alpha, sigma", [
    (1, 3, 2.0, float("nan")),
    (1, 3, 2.0, float("inf")),
    (1, 3, float("inf"), 0.1),
    (1, 3, float("nan"), 0.1),
    (-1, 2, 2.0, 0.1),
    (2**64, 2, 2.0, 0.1),
    (1.0, 2, 2.0, 0.1),
    (1, 2.5, 2.0, 0.1),
    (1, -1, 2.0, 0.1),
], ids=["nan-sigma", "inf-sigma", "inf-alpha", "nan-alpha", "negative-seed",
        "seed-2**64", "float-seed", "fractional-count", "negative-count"])
def test_sample_alpha_rejects_what_the_campaign_config_rejects(
        seed, run_count, alpha, sigma):
    # each used to return NaN or inf draws, draw from an undefined
    # Philox key, or raise OverflowError or TypeError
    with pytest.raises(ValueError):
        sample_alpha(seed, run_count, alpha, sigma)
    # valid neighbours keep their draws
    assert sample_alpha(2**63, 2, 2.0, 0.1).shape == (2,)
    assert sample_alpha(0, 0, 2.0, 0.0).shape == (0,)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        MonteCarloConfig(run_count=0)
    with pytest.raises(ValueError):
        MonteCarloConfig(q=-0.01)
    with pytest.raises(ValueError):
        MonteCarloConfig(beta=-5.0)
    with pytest.raises(ValueError):
        MonteCarloConfig(methods=())
    with pytest.raises(ValueError):
        MonteCarloConfig(methods=("OC", "XYZ"))
    with pytest.raises(ValueError):
        MonteCarloConfig(seed=-1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            MonteCarloConfig(q=bad)
        with pytest.raises(ValueError, match="finite"):
            MonteCarloConfig(beta=bad)


@pytest.mark.parametrize("make", [
    lambda n: SolverOptions(max_iterations=n),
    lambda n: GuidanceConfig(method="OG", cycle_count=n),
    lambda n: MonteCarloConfig(run_count=n),
    lambda n: MonteCarloConfig(seed=n),
])
def test_counts_must_be_integers(make):
    # a fractional count is rejected when the config is built, not in
    # the middle of a mission; numpy integers are counts too
    for bad in (2.5, 3.0, np.float64(2.0), "3"):
        with pytest.raises(ValueError, match="integer"):
            make(bad)
    make(np.int64(3))
    make(np.uint8(2))


def test_config_normalizes_methods():
    cfg = MonteCarloConfig(methods=("dog", "oc", "DOG"))
    assert cfg.methods == ("DOG", "OC")


def test_presets_cover_the_four_dispersion_cases():
    assert PRESETS["fig3a"] == (0.01, 5.0)
    assert PRESETS["fig3b"] == (0.01, 10.0)
    assert PRESETS["fig3c"] == (0.02, 5.0)
    assert PRESETS["fig3d"] == (0.02, 10.0)
    # the closed-loop comparison case shares fig3b's weights
    assert PRESETS["fig4"] == PRESETS["fig3b"]


def test_study_mesh_spans_domain_with_refined_tail():
    mesh = study_mesh()
    assert mesh.t0 == 0.0 and mesh.tf == 50.0
    times = mesh.interval_times()
    assert times[0] == 0.0 and times[-1] == 50.0
    widths = np.diff(times)
    assert widths[0] == pytest.approx(5.0)
    # capture tail refined: strictly narrowing final intervals
    assert widths[-3] > widths[-2] > widths[-1]
    remapped = study_mesh(10.0, 20.0)
    assert remapped.t0 == 10.0 and remapped.tf == 20.0


# ---------------------------------------------------------------------------
# campaigns


@pytest.fixture(scope="module")
def example():
    ocp, make_spec = example_problem()
    return ocp, make_spec


def test_zero_sigma_campaign_hits_reference(example):
    ocp, make_spec = example
    cfg = MonteCarloConfig(run_count=1, q=0.0, beta=5.0, seed=3)
    records = run_campaign(ocp, make_spec(beta=5.0, q=0.0), cfg)
    assert len(records) == 4
    for record in records:
        assert record.ok
        assert record.alpha_tilde == 2.0
        assert abs(record.epsilon) <= 1e-5
    stats = summarize(records)
    assert all(abs(stats[m].median) <= 1e-5 for m in stats)


def test_draw_sequence_shared_across_methods(example):
    ocp, make_spec = example
    spec = make_spec(beta=5.0, q=0.01)
    cfg = MonteCarloConfig(run_count=3, q=0.01, beta=5.0, seed=11,
                           methods=("OC", "DOC"))
    records = run_campaign(ocp, spec, cfg)
    oc = [r.alpha_tilde for r in records if r.method == "OC"]
    doc = [r.alpha_tilde for r in records if r.method == "DOC"]
    assert oc == doc
    assert oc == list(sample_alpha(11, 3, 2.0, 0.02))


def test_campaign_reproducible(example):
    ocp, _ = example
    cfg = MonteCarloConfig(run_count=3, q=0.01, beta=0.0, seed=21,
                           methods=("OC",))
    first = run_campaign(ocp, None, cfg)
    second = run_campaign(ocp, None, cfg)
    assert first == second


def test_plain_campaign_requires_no_spec(example):
    ocp, _ = example
    cfg = MonteCarloConfig(run_count=1, q=0.0, beta=0.0, seed=1,
                           methods=("OC", "OG"))
    records = run_campaign(ocp, None, cfg)
    assert [r.method for r in records] == ["OC", "OG"]
    assert all(r.ok for r in records)


def test_augmented_campaign_demands_spec(example):
    ocp, _ = example
    cfg = MonteCarloConfig(run_count=1, q=0.0, beta=5.0, seed=1,
                           methods=("DOC",))
    with pytest.raises(ValueError):
        run_campaign(ocp, None, cfg)


def test_schedule_past_the_horizon_raises_before_any_solve(example,
                                                          monkeypatch):
    ocp, _ = example
    calls = []

    def counted_reference(*args, **kwargs):
        calls.append(1)
        return solve_reference(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "solve_reference", counted_reference)
    cfg = MonteCarloConfig(run_count=1, q=0.0, beta=0.0, seed=1,
                           methods=("OC", "OG"))
    with pytest.raises(ValueError, match="13 cycles x 4.0 s exceed"):
        run_campaign(ocp, None, cfg,
                     guidance=GuidanceConfig(cycle_count=13))
    assert calls == []


def test_reference_failure_marks_records_and_continues(example):
    ocp, make_spec = example
    hopeless = GuidanceConfig(
        solver=SolverOptions(max_iterations=1, kkt_tolerance=1e-14))
    cfg = MonteCarloConfig(run_count=2, q=0.01, beta=5.0, seed=9,
                           methods=("OC", "DOC"))
    records = run_campaign(ocp, make_spec(beta=5.0, q=0.01), cfg,
                           guidance=hopeless)
    assert len(records) == 4
    assert all(r.status == "failed" for r in records)
    assert all(math.isnan(r.epsilon) for r in records)
    stats = summarize(records)
    for m in ("OC", "DOC"):
        assert stats[m].all_failed
        assert stats[m].mean is None and stats[m].std is None


def test_doc_spread_grows_with_uncertainty(example):
    # fixed beta, draws twice as wide -> terminal spread at least as wide
    ocp, make_spec = example
    stds = {}
    for q in (0.01, 0.02):
        cfg = MonteCarloConfig(run_count=100, q=q, beta=10.0, seed=1234,
                               methods=("DOC",))
        records = run_campaign(ocp, make_spec(beta=10.0, q=q), cfg)
        stds[q] = summarize(records)["DOC"].std
    assert stds[0.02] >= stds[0.01]


# ---------------------------------------------------------------------------
# the shared first re-solve of guided methods


def _fig3a_guided(run_count, **guidance_fields):
    ocp, make_spec = example_problem()
    q, beta = PRESETS["fig3a"]
    cfg = MonteCarloConfig(run_count=run_count, q=q, beta=beta, seed=7,
                           methods=("OG", "DOG"))
    return (ocp, make_spec(beta=beta, q=q), cfg,
            GuidanceConfig(mesh=study_mesh(), **guidance_fields))


def _spied_campaign(monkeypatch, ocp, spec, cfg, guidance_cfg):
    """Run a campaign, returning its records and a (kwargs, mission)
    pair for every mission that ``montecarlo.run_missions`` flew, in
    (draw, method) order; every patch of ``monkeypatch`` is undone
    afterwards."""
    flown = []

    def spy(ocp, spec, mission_cfg, p_tildes, **kwargs):
        missions = run_missions(ocp, spec, mission_cfg, p_tildes, **kwargs)
        rank = cfg.methods.index(mission_cfg.method)
        flown.extend(((i, rank), kwargs, mission)
                     for i, mission in enumerate(missions))
        return missions

    monkeypatch.setattr(montecarlo, "run_missions", spy)
    records = run_campaign(ocp, spec, cfg, guidance=guidance_cfg)
    monkeypatch.undo()
    flown.sort(key=lambda call: call[0])
    return records, [(kwargs, mission) for _, kwargs, mission in flown]


@pytest.fixture(scope="module")
def guided_campaign():
    """A 3-draw fig3a OG + DOG campaign on the study mesh."""
    ocp, spec, cfg, guidance_cfg = _fig3a_guided(3)
    with pytest.MonkeyPatch.context() as mp:
        records, calls = _spied_campaign(mp, ocp, spec, cfg, guidance_cfg)
    return ocp, spec, cfg, guidance_cfg, records, calls


def test_campaign_flies_one_mission_per_draw_and_method(guided_campaign):
    _, _, cfg, _, records, calls = guided_campaign
    assert len(calls) == cfg.run_count * len(cfg.methods) == len(records)
    assert all(kwargs["first_warm"] is not None for kwargs, _ in calls)


def test_shared_first_resolve_makes_each_first_resolve_a_polish(
        guided_campaign):
    # from the reference, the study mesh's first DOG re-solve takes
    # 77-88 iterations and OG's 15-18
    _, _, _, _, records, calls = guided_campaign
    for record, (_, mission) in zip(records, calls):
        assert record.ok
        assert mission.iterations[1] <= 5, (record.method, mission.iterations)


def test_campaign_matches_standalone_missions(guided_campaign):
    ocp, spec, _, guidance_cfg, records, _ = guided_campaign
    for record in records:
        standalone = run_mission(
            ocp, spec, replace(guidance_cfg, method=record.method),
            p_tilde=np.array([record.alpha_tilde]))
        assert not standalone.failed
        assert abs(record.epsilon - standalone.epsilon) <= 1e-9


def test_shorter_guided_campaign_is_a_prefix_of_a_longer_one(
        guided_campaign):
    ocp, spec, _, guidance_cfg, records, _ = guided_campaign
    _, _, cfg5, _ = _fig3a_guided(5)
    longer = run_campaign(ocp, spec, cfg5, guidance=guidance_cfg)
    assert longer[:len(records)] == records


def test_one_draw_campaign_is_a_prefix_of_a_three_draw_one():
    # one lane against three lanes per method: every method's first
    # draw flies alone or beside two others with the same bits
    ocp, make_spec = example_problem()
    q, beta = PRESETS["fig3a"]
    spec = make_spec(beta=beta, q=q)
    guidance_cfg = GuidanceConfig(mesh=study_mesh())
    one, three = (run_campaign(ocp, spec, MonteCarloConfig(
        run_count=n, q=q, beta=beta, seed=3), guidance=guidance_cfg)
        for n in (1, 3))
    assert len(one) == 4 and [r.method for r in one] == list(METHODS)
    assert three[:4] == one


def test_failed_shared_resolve_flies_every_draw_from_the_reference(
        monkeypatch):
    ocp, spec, cfg, guidance_cfg = _fig3a_guided(2, cycle_count=3)
    real_resolve = guidance._resolve_cycle
    shared_calls = []

    def failing_first(*args, **kwargs):
        # run_campaign makes the shared solves, one per guided method,
        # before it flies any draw
        if len(shared_calls) < len(cfg.methods):
            shared_calls.append(1)
            raise RuntimeError("guidance re-solve did not converge")
        return real_resolve(*args, **kwargs)

    monkeypatch.setattr(guidance, "_resolve_cycle", failing_first)
    records, calls = _spied_campaign(monkeypatch, ocp, spec, cfg,
                                     guidance_cfg)
    assert shared_calls == [1, 1]
    assert all(kwargs["first_warm"] is None for kwargs, _ in calls)
    for record in records:
        mission_cfg = replace(guidance_cfg, method=record.method)
        alone = run_mission(ocp, spec, mission_cfg,
                            p_tilde=np.array([record.alpha_tilde]),
                            reference=solve_reference(ocp, spec, mission_cfg))
        assert record.ok
        assert record.epsilon == alone.epsilon
        assert record.iterations == sum(alone.iterations[1:])


# ---------------------------------------------------------------------------
# summaries


def _record(run, method, epsilon, status="ok"):
    return MonteCarloRecord(run=run, alpha_tilde=2.0, method=method,
                            epsilon=epsilon, status=status, iterations=0)


def test_summary_single_record():
    stats = summarize([_record(0, "OC", 0.3)])
    s = stats["OC"]
    assert s.mean == pytest.approx(0.3)
    assert s.median == pytest.approx(0.3)
    assert s.std == 0.0
    assert s.max_abs == pytest.approx(0.3)
    assert s.total == 1 and s.failures == 0


def test_summary_symmetric_pair_population_std():
    stats = summarize([_record(0, "OC", 0.2), _record(1, "OC", -0.2)])
    s = stats["OC"]
    assert s.mean == pytest.approx(0.0)
    assert s.std == pytest.approx(0.2)   # population convention (ddof=0)


def test_summary_skips_failed_records_but_counts_them():
    rows = [_record(0, "OC", 0.1),
            _record(1, "OC", float("nan"), status="failed"),
            _record(2, "OC", 0.3)]
    s = summarize(rows)["OC"]
    assert s.total == 3 and s.failures == 1
    assert s.mean == pytest.approx(0.2)


def test_summary_preserves_method_order():
    rows = [_record(0, "DOG", 0.1), _record(0, "OC", 0.2)]
    assert list(summarize(rows).keys()) == ["DOG", "OC"]


def test_summary_rejects_empty_input():
    with pytest.raises(ValueError):
        summarize([])
