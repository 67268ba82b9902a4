"""Tests of the benchmark's own machinery: self-time arithmetic, hook
restoration, the tail rank, the repeat check and
the stored-value comparison."""
from __future__ import annotations

import pytest

import run
import tracer
import workloads


class ScriptedClock:
    """Returns the given instants in order, one per call."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_is_duration_minus_children():
    # root [0, 10] > a [1, 7] > b [2, 4]; leaf inside a [5, 6.5];
    # second child c of root [8, 9]
    rec = tracer.Recorder(clock=ScriptedClock(0, 1, 2, 4, 5, 6.5, 7, 8, 9, 10))
    root = rec.enter("root")
    a = rec.enter("a")
    b = rec.enter("b")
    rec.exit(b)
    rec.call_leaf("leaf", lambda: None, (), {})
    rec.exit(a)
    c = rec.enter("c")
    rec.exit(c)
    rec.exit(root)
    own = {s.name: s.self_s for s in rec.spans}
    assert own == {"b": 2.0, "a": 6.0 - 2.0 - 1.5, "c": 1.0,
                   "root": 10.0 - 6.0 - 1.0}
    assert rec.leaf_totals("leaf") == (1, 1.5)
    assert rec.leaf_totals("leaf", parent="a") == (1, 1.5)
    assert rec.leaf_totals("leaf", exclude_parent="a") == (0, 0.0)
    total = sum(own.values()) + rec.leaf_totals("leaf")[1]
    assert total == 10.0
    assert rec.child_count("b", "a") == 1
    assert rec.child_count("b", "root") == 0


def test_leaf_inside_leaf_is_counted_once():
    rec = tracer.Recorder(clock=ScriptedClock(0, 1, 3, 4))
    root = rec.enter("root")
    inner = lambda: rec.call_leaf("inner", lambda: None, (), {})  # noqa: E731
    rec.call_leaf("outer", inner, (), {})
    span = rec.exit(root)
    assert rec.leaf_totals("outer") == (1, 2.0)
    assert rec.leaf_totals("inner") == (0, 0.0)
    assert span.self_s == 2.0


def test_spans_must_close_in_order():
    rec = tracer.Recorder(clock=ScriptedClock(0, 1, 2))
    outer = rec.enter("outer")
    rec.enter("inner")
    with pytest.raises(RuntimeError):
        rec.exit(outer)


@pytest.fixture(scope="module")
def api():
    loaded, _ = run.load_api()
    return loaded


def _hooked(api):
    out = {}
    for module_name, attr, _ in tracer.SPAN_HOOKS:
        module = api.modules[module_name]
        out[(module_name, attr)] = vars(module).get(attr)
    cls = api.trajectory.Trajectory
    for attr in ("full_state_at", "control_at"):
        out[("Trajectory", attr)] = cls.__dict__[attr]
    return out


def test_uninstall_restores_every_original(api):
    before = _hooked(api)
    tr = tracer.Tracer(api.modules)
    tr.install()
    assert all(_hooked(api)[key] is not fn for key, fn in before.items()
               if fn is not None)
    tr.uninstall()
    after = _hooked(api)
    assert all(after[key] is fn for key, fn in before.items())
    assert tr.missing == []


def test_traced_solve_adds_up_and_restores_dynamics(api):
    ocp, _ = api.ocp.example_problem(alpha=2.0)
    dynamics = ocp.dynamics
    mesh = api.transcription.build_mesh(0.0, 50.0, 10, 4)
    cfg = api.guidance.GuidanceConfig(method="OG", mesh=mesh, cycle_count=1,
                                      cycle_duration=25.0)
    tr = tracer.Tracer(api.modules)
    tr.install()
    try:
        rec = tr.recorder
        root = rec.enter("bench")
        ref = api.guidance.solve_reference(ocp, None, cfg)
        mission = api.guidance.run_mission(ocp, None, cfg, reference=ref,
                                           p_tilde=[2.01])
        span = rec.exit(root)
    finally:
        tr.uninstall()
    assert not mission.failed
    assert ocp.dynamics is dynamics
    layers, gap = tracer.layer_metrics(tr, span.end - span.start)
    assert abs(gap) <= 1e-9 * layers["trace.wall_s"]
    assert layers["simulation.integrate.calls"] == 2
    assert layers["simulation.rhs.calls"] > 0
    assert layers["trajectory.eval_sim.calls"] > 0
    assert layers["guidance.resolves"] == 1
    assert layers["sqp.solve.calls"] == 2
    assert layers["sqp.iterations"] == sum(mission.iterations)
    assert layers["transcription.transcribe.calls"] == 2
    assert set(layers) | {"trace.overhead_frac"} == set(tracer.LAYER_UNITS)


def test_tail_rank_keeps_ten_samples_beyond():
    assert run.tail_rank(19) is None
    assert run.tail_rank(20) == 50.0
    assert run.tail_rank(39) == 50.0
    assert run.tail_rank(40) == 75.0
    assert run.tail_rank(100) == 90.0
    assert run.tail_rank(1000) == 99.0


def test_stored_values_catch_a_method_mix_up():
    stored = {"epsilon": [4.0797e-4, None], "objective": [0.78869323],
              "alpha_tilde": [2.0069]}
    drift = {"epsilon": [4.0797e-4 + 1e-10, -1.0],
             "objective": [0.78869323 * (1 + 1e-9)], "alpha_tilde": [2.0069]}
    assert workloads.compare_values(stored, drift, "x") == []
    swapped = dict(drift, epsilon=[4.0797e-4 - 6e-8, None])
    assert len(workloads.compare_values(stored, swapped, "x")) == 1
    desens = dict(drift, objective=[0.78869467])
    assert len(workloads.compare_values(stored, desens, "x")) == 1


def test_a_pass_that_changes_its_outputs_fails():
    def unit(eps, ok=1):
        return workloads.UnitResult(ok=ok, values={"epsilon": [eps]})
    same = [[unit(1e-4), unit(2e-4)], [unit(1e-4), unit(2e-4)]]
    assert run.check_repeatable(same) == []
    moved = same + [[unit(1e-4), unit(2e-4 + 1e-12)]]
    assert len(run.check_repeatable(moved)) == 1
    lost = same + [[unit(1e-4), unit(None, ok=0)]]
    assert len(run.check_repeatable(lost)) == 1
