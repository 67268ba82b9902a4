"""Closed-loop guidance engine tests on the shipped example problem."""
import numpy as np
import pytest

from guidedog import guidance
from guidedog.guidance import (
    GuidanceConfig,
    _resolve_cycle,
    check_schedule,
    cycle_bounds,
    nominal_first_resolve,
    restart_conditions,
    run_mission,
    run_missions,
    solve_reference,
)
from guidedog.montecarlo import PRESETS, study_mesh
from guidedog.ocp import example_problem
from guidedog.sensitivity import AugmentedOcp, augment
from guidedog.simulation import integrate
from guidedog.sqp import SolverOptions, solve as sqp_solve
from guidedog.transcription import (
    base_objective,
    build_mesh,
    example_mesh,
    transcribe,
)


@pytest.fixture(scope="module")
def problem():
    ocp, make_spec = example_problem()
    return ocp, make_spec(beta=10.0, q=0.01)


@pytest.fixture(scope="module")
def oc_mission(problem):
    ocp, _ = problem
    return run_mission(ocp, None, GuidanceConfig(method="OC"))


@pytest.fixture(scope="module")
def doc_mission(problem):
    ocp, spec = problem
    return run_mission(ocp, spec, GuidanceConfig(method="DOC"))


@pytest.fixture(scope="module")
def og_mission(problem):
    ocp, _ = problem
    return run_mission(ocp, None, GuidanceConfig(method="OG"))


@pytest.fixture(scope="module")
def dog_mission(problem):
    ocp, spec = problem
    return run_mission(ocp, spec, GuidanceConfig(method="DOG"))


def test_cycle_bounds_examples():
    assert cycle_bounds(0, 0.0, 4.0) == (0.0, 4.0)
    assert cycle_bounds(11, 0.0, 4.0) == (44.0, 48.0)


def test_cycle_bounds_length_invariant():
    for s in range(12):
        t_start, t_end = cycle_bounds(s, 5.0, 3.7)
        assert t_end - t_start == pytest.approx(3.7, rel=1e-12)
        assert t_start == pytest.approx(5.0 + 3.7 * s, rel=1e-12)


def test_cycle_bounds_errors():
    with pytest.raises(ValueError):
        cycle_bounds(-1, 0.0, 4.0)
    with pytest.raises(ValueError):
        cycle_bounds(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        cycle_bounds(0, 0.0, float("nan"))
    # the index must be an integer, as GuidanceConfig.cycle_count is
    for s in (1.5, float("nan")):
        with pytest.raises(ValueError, match="nonnegative integer"):
            cycle_bounds(s, 0.0, 4.0)
    assert cycle_bounds(np.int64(2), 0.0, 4.0) == (8.0, 12.0)


def test_config_validation_and_flags():
    cfg = GuidanceConfig(method="dog")
    assert cfg.method == "DOG" and cfg.guided and cfg.desensitized
    assert GuidanceConfig(method="OC").guided is False
    assert GuidanceConfig(method="OG").desensitized is False
    assert GuidanceConfig(method="DOC").desensitized is True
    with pytest.raises(ValueError):
        GuidanceConfig(method="XYZ")
    with pytest.raises(ValueError):
        GuidanceConfig(cycle_duration=0.0)
    with pytest.raises(ValueError):
        GuidanceConfig(cycle_count=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            GuidanceConfig(cycle_duration=bad)


def test_restart_conditions_sources(problem, oc_mission, doc_mission):
    ocp, _ = problem
    ref_plain = oc_mission.trajectories[0]
    ref_aug = doc_mission.trajectories[0]
    sim = integrate(ocp, ref_aug, ref_aug.state_at(0.0), (0.0, 4.0))

    x0, s0 = restart_conditions(ref_aug, sim, 4.0)
    # the exact simulated terminal vector is handed off, and the
    # sensitivity restart comes from the solved reference, not the sim
    assert np.array_equal(x0, sim.terminal_state)
    assert np.array_equal(s0, ref_aug.sensitivity_at(4.0))

    # only the simulation's end time can be handed off
    with pytest.raises(ValueError):
        restart_conditions(ref_aug, sim, 2.0)

    _, s_plain = restart_conditions(ref_plain, sim, 4.0)
    assert s_plain is None

    for t in (9.0, np.nan):
        with pytest.raises(ValueError):
            restart_conditions(ref_aug, sim, t)


def test_reference_sensitivity_starts_at_zero(doc_mission):
    ref = doc_mission.trajectories[0]
    assert abs(ref.sensitivity_at(0.0)[0, 0]) <= 1e-8


def test_remap_at_t0_reproduces_reference(problem, oc_mission):
    ocp, _ = problem
    ref = oc_mission.trajectories[0]
    cfg = GuidanceConfig(method="OG")
    again, _, _ = _resolve_cycle(ocp, None, cfg, example_mesh(),
                                 ref.state_at(0.0), None, 0.0, 50.0, ref)
    for t in np.linspace(0.0, 50.0, 101):
        assert again.state_at(t)[0] == pytest.approx(ref.state_at(t)[0],
                                                     abs=1e-9)


def test_remap_dp_consistency_plain(problem, oc_mission):
    ocp, _ = problem
    ref = oc_mission.trajectories[0]
    truth = integrate(ocp, ref, ref.state_at(0.0), (0.0, 4.0))
    cfg = GuidanceConfig(method="OG")
    tail, _, _ = _resolve_cycle(ocp, None, cfg, example_mesh(),
                                truth.terminal_state, None, 4.0, 50.0, ref)
    assert tail.t0 == 4.0 and tail.tf == 50.0
    assert tail.interval_times[0] == pytest.approx(4.0, abs=1e-12)
    assert tail.interval_times[-1] == pytest.approx(50.0, abs=1e-12)
    # the tail of an optimal solution is optimal for the tail problem
    for t in np.linspace(4.0, 50.0, 101):
        assert tail.state_at(t)[0] == pytest.approx(ref.state_at(t)[0],
                                                    abs=1e-5)


def test_remap_dp_consistency_desensitized(problem, doc_mission):
    ocp, spec = problem
    ref = doc_mission.trajectories[0]
    truth = integrate(ocp, ref, ref.state_at(0.0), (0.0, 4.0))
    cfg = GuidanceConfig(method="DOG")
    tail, _, _ = _resolve_cycle(ocp, spec, cfg, example_mesh(),
                                truth.terminal_state, ref.sensitivity_at(4.0),
                                4.0, 50.0, ref)
    for t in np.linspace(4.0, 50.0, 101):
        assert tail.state_at(t)[0] == pytest.approx(ref.state_at(t)[0],
                                                    abs=1e-5)


def test_remap_rejects_empty_horizon(problem, oc_mission):
    ocp, _ = problem
    ref = oc_mission.trajectories[0]
    with pytest.raises(ValueError, match="t0 < tf"):
        _resolve_cycle(ocp, None, GuidanceConfig(method="OG"), example_mesh(),
                       np.array([1.0]), None, 50.0, 50.0, ref)


def test_guided_mission_structure(dog_mission):
    mission = dog_mission
    assert not mission.failed
    assert len(mission.trajectories) == 13          # reference + 12 cycles
    assert all(s == "converged" for s in mission.statuses)
    # warm-started re-solves are Newton polishes at the nominal parameter
    assert all(it <= 2 for it in mission.iterations[1:])
    for s, traj in enumerate(mission.trajectories):
        assert traj.t0 == pytest.approx(4.0 * s, abs=1e-12)
        assert traj.tf == 50.0
    assert abs(mission.epsilon) <= 1e-5


def test_mission_truth_history_is_continuous(dog_mission):
    mission = dog_mission
    assert mission.times[0] == 0.0 and mission.times[-1] == 50.0
    assert np.all(np.diff(mission.times) > 0.0)
    assert np.array_equal(mission.states[-1], mission.terminal_state)
    assert mission.states[0, 0] == pytest.approx(1.5, abs=1e-9)
    assert np.isfinite(mission.states).all()
    assert mission.controls.shape[0] == mission.times.size


def test_mission_tail_controls_consistent(dog_mission):
    # with no perturbation each re-solve agrees with its predecessor on
    # the shared horizon
    trajectories = dog_mission.trajectories
    for prev, new in zip(trajectories[:-1], trajectories[1:]):
        for t in np.linspace(new.t0, 50.0, 25):
            assert new.control_at(t)[0] == pytest.approx(
                prev.control_at(t)[0], abs=1e-4)


def test_open_loop_missions(problem, oc_mission, doc_mission):
    ocp, _ = problem
    for mission in (oc_mission, doc_mission):
        assert not mission.failed
        assert len(mission.trajectories) == 1
        assert mission.times[0] == 0.0 and mission.times[-1] == 50.0
        assert abs(mission.epsilon) <= 1e-5
    assert oc_mission.trajectories[0].sens_shape is None
    assert doc_mission.trajectories[0].sens_shape == (1, 1)
    # the sensitivity penalty trades physical cost for robustness
    j_oc = base_objective(oc_mission.trajectories[0], ocp)
    j_doc = base_objective(doc_mission.trajectories[0], ocp)
    assert j_doc >= j_oc - 1e-12


def test_og_mission_runs_plain(og_mission):
    assert not og_mission.failed
    assert all(t.sens_shape is None for t in og_mission.trajectories)
    assert all(it <= 2 for it in og_mission.iterations[1:])
    assert abs(og_mission.epsilon) <= 1e-5


def test_perturbed_mission_converges(problem):
    ocp, spec = problem
    mission = run_mission(ocp, spec, GuidanceConfig(method="DOG"),
                          p_tilde=np.array([2.02]))
    assert not mission.failed
    assert all(s == "converged" for s in mission.statuses)
    assert 0.0 < abs(mission.epsilon) < 0.05


def test_mission_rejects_oversized_cycle_budget(problem):
    ocp, spec = problem
    with pytest.raises(ValueError):
        run_mission(ocp, spec, GuidanceConfig(method="DOG", cycle_count=13))


@pytest.mark.parametrize("method", ["OG", "DOG"])
def test_schedule_that_fills_the_horizon_makes_no_resolve_at_tf(problem,
                                                                method):
    # 10 x 5 s and 1 x 50 s pass the schedule rule; the cycle that ends
    # at tf leaves no horizon, so it is flown but not re-solved
    ocp, spec = problem
    reference = solve_reference(ocp, spec, GuidanceConfig(method=method))
    for count, duration in ((10, 5.0), (1, 50.0)):
        cfg = GuidanceConfig(method=method, cycle_count=count,
                             cycle_duration=duration)
        mission = run_mission(ocp, spec, cfg, p_tilde=np.array([2.02]),
                              reference=reference)
        assert not mission.failed, mission.message
        assert len(mission.trajectories) == count    # reference + count - 1
        assert mission.times[-1] == 50.0
    # one cycle over the whole horizon flies the reference open loop
    open_loop = run_mission(ocp, spec, GuidanceConfig(
        method="DOC" if method == "DOG" else "OC"),
        p_tilde=np.array([2.02]), reference=reference)
    assert mission.epsilon == open_loop.epsilon
    assert nominal_first_resolve(ocp, spec, cfg, reference) is None


def test_nominal_first_resolve_is_the_nominal_missions_first_resolve(
        problem):
    ocp, spec = problem
    cfg = GuidanceConfig(method="DOG", cycle_count=1)
    reference = solve_reference(ocp, spec, cfg)
    shared = nominal_first_resolve(ocp, spec, cfg, reference)
    mission = run_mission(ocp, spec, cfg, reference=reference)
    assert (shared.t0, shared.tf) == (4.0, 50.0)
    for got, want in zip(shared.state_values,
                         mission.trajectories[1].state_values):
        assert np.array_equal(got, want)


def test_reference_failure_is_recorded(problem):
    ocp, spec = problem
    hopeless = SolverOptions(kkt_tolerance=1e-15, max_iterations=5)
    mission = run_mission(ocp, spec,
                          GuidanceConfig(method="DOG", solver=hopeless))
    assert mission.failed
    assert mission.failure_cycle == -1
    assert np.isnan(mission.epsilon)
    assert mission.terminal_state is None
    assert mission.trajectories == []
    assert "converge" in mission.message


def test_failed_resolve_raises_in_remap(problem, oc_mission):
    ocp, _ = problem
    ref = oc_mission.trajectories[0]
    cfg = GuidanceConfig(
        method="OG", solver=SolverOptions(kkt_tolerance=1e-15,
                                          max_iterations=2))
    with pytest.raises(RuntimeError, match="did not converge"):
        _resolve_cycle(ocp, None, cfg, example_mesh(), np.array([5.0]), None,
                       4.0, 50.0, ref)


@pytest.mark.parametrize("method, least_attempts", [("OG", 2), ("DOG", 3)],
                         ids=["OG", "DOG"])
def test_resolve_iterations_sum_every_attempt(monkeypatch, method,
                                              least_attempts):
    # on the study mesh the first re-solve is not a one-shot polish.  OG:
    # the polish fails and the unseeded plain solve converges.  DOG (at
    # fig3a's beta) runs every attempt of the chain: the polish, the
    # plain solve and the staged augmented solve.  The mission must
    # report the iterations of all.
    ocp, make_spec = example_problem()
    spec = make_spec(beta=5.0, q=0.01)
    cfg = GuidanceConfig(method=method, mesh=study_mesh(), cycle_count=1)
    reference = solve_reference(ocp, spec, cfg)
    attempts = []

    def counted_solve(*args, **kwargs):
        sol = sqp_solve(*args, **kwargs)
        attempts.append(sol.iterations)
        return sol

    monkeypatch.setattr(guidance, "solve", counted_solve)
    mission = run_mission(ocp, spec, cfg, p_tilde=np.array([2.0178]),
                          reference=reference)
    assert not mission.failed
    assert len(attempts) >= least_attempts
    assert mission.iterations[1] == sum(attempts)


def _record_attempts(monkeypatch):
    """Wrap ``guidance.solve``; the returned list gets one entry per SQP
    attempt, naming the NLP (plain or augmented) and whether the solve
    was seeded with an estimated Hessian."""
    attempts = []

    def recorded_solve(nlp, *args, **kwargs):
        kind = ("augmented" if isinstance(nlp.source, AugmentedOcp)
                else "plain")
        seeded = kwargs.get("hessian0") is not None
        attempts.append(kind + (" seeded" if seeded else ""))
        return sqp_solve(nlp, *args, **kwargs)

    monkeypatch.setattr(guidance, "solve", recorded_solve)
    return attempts


@pytest.mark.parametrize("method, mesh, expected", [
    # the polish crawls, so the chain runs to its end
    ("DOG", "study", ["augmented seeded", "plain", "augmented seeded"]),
    ("OG", "study", ["plain seeded", "plain"]),
    # a warm start next to its optimum is settled by the polish alone
    ("DOG", "default", ["augmented seeded"]),
    ("OG", "default", ["plain seeded"]),
], ids=["DOG-study", "OG-study", "DOG-default", "OG-default"])
def test_first_resolve_runs_the_chain_in_order(monkeypatch, method, mesh,
                                               expected):
    ocp, make_spec = example_problem()
    spec = make_spec(beta=5.0, q=0.01)                # fig3a's weights
    cfg = GuidanceConfig(method=method, cycle_count=1,
                         mesh=study_mesh() if mesh == "study" else None)
    reference = solve_reference(ocp, spec, cfg)
    attempts = _record_attempts(monkeypatch)
    mission = run_mission(ocp, spec, cfg, p_tilde=np.array([2.0178]),
                          reference=reference)
    assert not mission.failed, mission.message
    assert attempts == expected


def test_cold_desensitized_reference_is_plain_then_staged(problem,
                                                          monkeypatch):
    ocp, spec = problem
    attempts = _record_attempts(monkeypatch)
    solve_reference(ocp, spec, GuidanceConfig(method="DOC"))
    assert attempts == ["plain", "augmented seeded"]


def test_desensitized_reference_without_spec_fails_before_any_solve(
        monkeypatch):
    ocp, _ = example_problem()
    calls = []

    def counted_solve(*args, **kwargs):
        calls.append(1)
        return sqp_solve(*args, **kwargs)

    monkeypatch.setattr(guidance, "solve", counted_solve)
    with pytest.raises(ValueError, match="desensitization spec"):
        solve_reference(ocp, None, GuidanceConfig(method="DOC"))
    assert calls == []


@pytest.mark.parametrize("p_tilde", [[np.nan], [np.inf], [2.0, 2.0]],
                         ids=["nan", "inf", "shape"])
def test_bad_p_tilde_fails_before_any_solve(problem, monkeypatch, p_tilde):
    ocp, spec = problem
    calls = []

    def counted_solve(*args, **kwargs):
        calls.append(1)
        return sqp_solve(*args, **kwargs)

    monkeypatch.setattr(guidance, "solve", counted_solve)
    with pytest.raises(ValueError, match="p_tilde"):
        run_mission(ocp, spec, GuidanceConfig(method="DOG"),
                    p_tilde=np.array(p_tilde))
    assert calls == []


@pytest.mark.parametrize(
    "method, reference_family, warm_family, mesh, match", [
        ("DOG", "OC", None, None, "reference"),
        ("OG", "DOC", None, None, "reference"),
        ("OC", "DOC", None, None, "reference"),
        ("DOC", "OC", None, None, "reference"),
        ("OC", "OC", None, study_mesh(), "mesh"),
        ("DOG", "DOC", "OC", None, "first_warm"),
    ], ids=["DOG-plain", "OG-desensitized", "OC-desensitized", "DOC-plain",
            "mesh", "first-warm"])
def test_mismatched_reference_fails_before_any_flight(
        problem, oc_mission, doc_mission, monkeypatch, method,
        reference_family, warm_family, mesh, match):
    # unchecked, a plain reference crashes a DOG mission after cycle 0,
    # and the other mismatches fly under the wrong method's name
    ocp, spec = problem
    solved = {"OC": oc_mission.trajectories[0],
              "DOC": doc_mission.trajectories[0]}
    flown = []
    monkeypatch.setattr(guidance, "integrate",
                        lambda *args, **kwargs: flown.append(1))
    cfg = GuidanceConfig(method=method, mesh=mesh)
    reference = (solved[reference_family], None)
    with pytest.raises(ValueError, match=match):
        run_mission(ocp, spec, cfg, p_tilde=np.array([2.0178]),
                    reference=reference,
                    first_warm=solved.get(warm_family))
    if warm_family is None:
        with pytest.raises(ValueError, match=match):
            nominal_first_resolve(ocp, spec, cfg, reference)
    assert flown == []


def test_schedule_rule_applies_only_to_guided_methods():
    for method in ("OG", "DOG"):
        with pytest.raises(ValueError, match="13 cycles x 4.0 s exceed "
                                             "the 50.0 s horizon"):
            check_schedule(GuidanceConfig(method=method, cycle_count=13),
                           (0.0, 50.0))
        check_schedule(GuidanceConfig(method=method, cycle_count=12),
                       (0.0, 50.0))                 # 48 <= 50 is fine
        check_schedule(GuidanceConfig(method=method, cycle_count=5,
                                      cycle_duration=10.0), (0.0, 50.0))
    for method in ("OC", "DOC"):
        check_schedule(GuidanceConfig(method=method, cycle_count=13),
                       (0.0, 50.0))


def test_desensitized_reference_counts_both_stages(problem, monkeypatch):
    # on graded 12x8 the plain cold stage takes 37 iterations and the
    # augmented polish 1; the reference reports every attempt of both
    ocp, spec = problem
    mesh = build_mesh(0.0, 50.0, 12, 8,
                      fractions=example_mesh().tau_boundaries)
    attempts = []

    def counted_solve(*args, **kwargs):
        sol = sqp_solve(*args, **kwargs)
        attempts.append(sol.iterations)
        return sol

    monkeypatch.setattr(guidance, "solve", counted_solve)
    _, sol = solve_reference(ocp, spec, GuidanceConfig(method="DOC", mesh=mesh))
    assert sol.status == "converged"
    assert len(attempts) >= 2
    assert sol.iterations == sum(attempts)
    assert sol.iterations > attempts[-1]


def _staged_guess(problem, mesh, s0):
    """Plain reference on ``mesh``, its node values, the augmented NLP
    with S(t0) = s0, and the staged guess built from them."""
    ocp, spec = problem
    traj, sol = solve_reference(ocp, None, GuidanceConfig(method="OC",
                                                          mesh=mesh))
    plain = transcribe(ocp, mesh)
    aug = augment(ocp, spec, s0=s0)
    nlp_aug = transcribe(aug, mesh)
    z = guidance._staged_sensitivity_guess(nlp_aug, traj)
    return traj, plain.layout.split(sol.z), nlp_aug, z


@pytest.mark.parametrize("mesh", [example_mesh(), study_mesh()],
                         ids=["default", "study"])
def test_staged_guess_propagates_sensitivity(problem, mesh):
    # on a mesh that resolves S (default) and on one that does not
    # (study) the guess is the plain solution's node values plus the
    # stably stepped sensitivity
    traj, (X, U), nlp_aug, z = _staged_guess(problem, mesh, np.zeros((1, 1)))
    Xa, Ua = nlp_aug.layout.split(z)
    assert np.array_equal(Xa[:, :1], X)
    assert np.array_equal(Ua, U)
    stable = guidance._propagated_sensitivity(problem[0], traj,
                                              np.zeros((1, 1)))
    assert np.array_equal(Xa[:, 1], stable[:, 0, 0])


def test_study_mesh_dog_first_resolve_stages_from_the_stepped_profile():
    # fig4's weights at its alpha_tilde: the staged solve from the
    # stepped sensitivity settles the first re-solve in 43 iterations
    # over the chain; staging from the collocated profile took 93
    ocp, make_spec = example_problem()
    q, beta = PRESETS["fig4"]
    spec = make_spec(beta=beta, q=q)
    cfg = GuidanceConfig(method="DOG", mesh=study_mesh(), cycle_count=1)
    mission = run_mission(ocp, spec, cfg, p_tilde=np.array([2.0178]))
    assert not mission.failed, mission.message
    assert mission.iterations[1] <= 45


def _same_mission(got, alone):
    assert got.failed == alone.failed and got.message == alone.message
    assert got.statuses == alone.statuses
    assert got.iterations == alone.iterations
    assert np.array_equal(got.epsilon, alone.epsilon, equal_nan=True)
    for name in ("times", "states", "controls"):
        assert getattr(got, name).tobytes() == getattr(alone, name).tobytes()


def test_a_failed_resolve_drops_its_lane_from_later_flights(problem,
                                                            monkeypatch):
    # three OG missions in lock step; the middle one's first re-solve
    # fails.  It stops there, later flights carry two lanes, and the
    # other two are the missions flown alone, bit for bit.
    ocp, _ = problem
    cfg = GuidanceConfig(method="OG", cycle_count=3)
    reference = solve_reference(ocp, None, cfg)
    p_tildes = [np.array([2.01]), np.array([1.98]), np.array([2.03])]
    alone = [run_mission(ocp, None, cfg, p_tilde=p, reference=reference)
             for p in p_tildes]
    real_resolve, real_integrate = guidance._resolve_cycle, guidance.integrate
    resolves, flights = [], []

    def resolve(*args, **kwargs):
        # each call re-solves every live lane; the first call's second
        # lane fails
        resolves.append(1)
        results = real_resolve(*args, **kwargs)
        if len(resolves) == 1:
            results[1] = RuntimeError("guidance re-solve did not converge: test")
        return results

    def flight(ocp, trajs, x0, *args, **kwargs):
        flights.append(len(trajs))
        return real_integrate(ocp, trajs, x0, *args, **kwargs)

    monkeypatch.setattr(guidance, "_resolve_cycle", resolve)
    monkeypatch.setattr(guidance, "integrate", flight)
    missions = run_missions(ocp, None, cfg, p_tildes, reference=reference)
    assert flights == [3, 2, 2, 2]
    assert missions[1].failed and missions[1].failure_cycle == 0
    assert missions[1].message == "guidance re-solve did not converge: test"
    assert np.isnan(missions[1].epsilon)
    assert missions[1].times[-1] == 4.0
    _same_mission(missions[0], alone[0])
    _same_mission(missions[2], alone[2])


def test_lanes_fly_the_missions_flown_alone(problem):
    # every method, nominal and perturbed draws, in one lock-step call
    ocp, spec = problem
    p_tildes = [np.array([2.0178]), None, np.array([1.99])]
    for method in ("OC", "DOG"):
        cfg = GuidanceConfig(method=method, cycle_count=3)
        reference = solve_reference(ocp, spec, cfg)
        missions = run_missions(ocp, spec, cfg, p_tildes, reference=reference)
        for got, p in zip(missions, p_tildes):
            _same_mission(got, run_mission(ocp, spec, cfg, p_tilde=p,
                                           reference=reference))


@pytest.mark.parametrize("method, fallback", [
    ("OG", ["plain"]), ("DOG", ["plain", "augmented seeded"])])
def test_a_lane_whose_polish_fails_runs_the_chain_alone(monkeypatch, method,
                                                        fallback):
    # fig3a on the study mesh from the shared first re-solve, with the
    # polish capped at two iterations: the nominal draw's first re-solve
    # takes none and alpha~ = 1.95 two, and both settle in the lock-
    # stepped polish; alpha~ = 2.3 needs three, so it alone runs the
    # rest of the chain.  Every mission is the one flown alone.
    ocp, make_spec = example_problem()
    q, beta = PRESETS["fig3a"]
    spec = make_spec(beta=beta, q=q)
    cfg = GuidanceConfig(method=method, mesh=study_mesh(), cycle_count=1)
    reference = solve_reference(ocp, spec, cfg)
    first_warm = nominal_first_resolve(ocp, spec, cfg, reference)
    monkeypatch.setattr(guidance, "POLISH_ITERATIONS", 2)
    p_tildes = [np.array([2.0]), np.array([1.95]), np.array([2.3])]
    alone = [run_mission(ocp, spec, cfg, p_tilde=p, reference=reference,
                         first_warm=first_warm) for p in p_tildes]
    attempts = _record_attempts(monkeypatch)
    missions = run_missions(ocp, spec, cfg, p_tildes, reference=reference,
                            first_warm=first_warm)
    assert attempts == fallback
    assert [m.iterations[1] for m in missions[:2]] == [0, 2]
    assert missions[2].iterations[1] > 2
    for got, want in zip(missions, alone):
        _same_mission(got, want)
