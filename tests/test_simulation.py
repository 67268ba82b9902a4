"""Plant propagation under the interpolated reference control."""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

import guidedog
from guidedog import simulation
from guidedog.lgr import basis
from guidedog.ocp import OcpDefinition, example_problem
from guidedog.sensitivity import augment
from guidedog.simulation import SimResult, integrate
from guidedog.sqp import initial_guess, solve
from guidedog.transcription import (
    build_mesh,
    example_mesh,
    extract_solution,
    pack_values,
    transcribe,
)


def _plant(dyn, tf=1.0, n_controls=1):
    return OcpDefinition(
        n_states=1, n_controls=n_controls, n_params=1,
        dynamics=dyn,
        jac_x=None, jac_p=None,
        running_cost=None, terminal_cost=None,
        nominal_params=np.array([1.0]),
        time_domain=(0.0, tf),
    )


def _trajectory(ocp, mesh, controls=None):
    nlp = transcribe(ocp, mesh)
    layout = nlp.layout
    states = np.zeros((layout.n_state_points, layout.n_aug))
    if controls is None:
        controls = np.zeros((layout.n_colloc, layout.n_controls))
    return extract_solution(nlp, pack_values(layout, states, controls))


def _collocation_times(mesh):
    bounds = mesh.interval_times()
    return np.concatenate([
        bounds[k] + (basis(nk).nodes + 1.0) * 0.5 * (bounds[k + 1] - bounds[k])
        for k, nk in enumerate(mesh.orders)
    ])


def test_linear_decay_matches_exponential():
    ocp = _plant(lambda x, u, p, t: -x)
    traj = _trajectory(ocp, build_mesh(0.0, 1.0, 2, 3))
    sim = integrate(ocp, traj, np.array([1.0]), (0.0, 1.0))
    assert sim.terminal_state[0] == pytest.approx(np.exp(-1.0), abs=1e-9)
    assert sim.times[0] == 0.0 and sim.times[-1] == 1.0
    assert np.all(np.diff(sim.times) > 0.0)
    assert sim.states.shape == (sim.times.size, 1)
    assert sim.controls.shape == (sim.times.size, 1)


def test_zero_dynamics_holds_state():
    ocp = _plant(lambda x, u, p, t: np.zeros_like(x))
    traj = _trajectory(ocp, build_mesh(0.0, 1.0, 1, 4))
    sim = integrate(ocp, traj, np.array([2.5]), (0.0, 1.0))
    assert sim.terminal_state[0] == pytest.approx(2.5, abs=1e-14)


def test_tolerance_halving_bounds_terminal_change():
    ocp = _plant(lambda x, u, p, t: -x, tf=10.0)
    traj = _trajectory(ocp, build_mesh(0.0, 10.0, 2, 3))
    for tol in (1e-6, 1e-8):
        coarse = integrate(ocp, traj, np.array([1.0]), (0.0, 10.0),
                           abs_tol=tol, rel_tol=tol)
        finer = integrate(ocp, traj, np.array([1.0]), (0.0, 10.0),
                          abs_tol=tol / 2.0, rel_tol=tol / 2.0)
        assert abs(coarse.terminal_state[0] - finer.terminal_state[0]) < tol


def test_time_reversal_returns_to_start():
    ocp = _plant(lambda x, u, p, t: -x)
    traj = _trajectory(ocp, build_mesh(0.0, 1.0, 2, 3))
    fwd = integrate(ocp, traj, np.array([1.0]), (0.0, 1.0))
    back = integrate(ocp, traj, fwd.terminal_state, (1.0, 0.0))
    assert back.terminal_state[0] == pytest.approx(1.0, abs=1e-7)
    assert back.times[0] == 1.0 and back.times[-1] == 0.0
    assert np.all(np.diff(back.times) < 0.0)


def test_integration_consistent_with_reference_solve():
    ocp, _ = example_problem()
    mesh = example_mesh()
    nlp = transcribe(ocp, mesh)
    sol = solve(nlp, initial_guess(ocp, mesh))
    assert sol.status == "converged"
    traj = extract_solution(nlp, sol.z, objective_value=sol.objective)
    sim = integrate(ocp, traj, traj.state_at(0.0), (0.0, 50.0))
    assert abs(sim.terminal_state[0] - traj.state_at(50.0)[0]) <= 1e-6


def test_control_exact_at_collocation_times():
    mesh = build_mesh(0.0, 2.0, 3, 4)
    ocp = _plant(lambda x, u, p, t: -x, tf=2.0)
    rng = np.random.default_rng(7)
    controls = rng.standard_normal((sum(mesh.orders), 1))
    traj = _trajectory(ocp, mesh, controls)
    for t, expected in zip(_collocation_times(mesh), controls[:, 0]):
        assert traj.control_at(t)[0] == pytest.approx(expected, abs=1e-13)


def test_constant_control_everywhere():
    mesh = build_mesh(0.0, 2.0, 3, 4)
    ocp = _plant(lambda x, u, p, t: -x, tf=2.0)
    controls = np.full((sum(mesh.orders), 1), 3.14)
    traj = _trajectory(ocp, mesh, controls)
    for t in np.linspace(0.0, 2.0, 17):
        assert traj.control_at(t)[0] == pytest.approx(3.14, abs=1e-12)


def test_control_reproduces_polynomial_off_node():
    # degree N - 1 = 4 samples are interpolated exactly between nodes
    mesh = build_mesh(0.0, 2.0, 2, 5)
    ocp = _plant(lambda x, u, p, t: -x, tf=2.0)
    coeffs = np.array([1.0, -2.0, 0.5, 1.0, -0.3])
    poly = np.polynomial.Polynomial(coeffs)
    controls = poly(_collocation_times(mesh))[:, None]
    traj = _trajectory(ocp, mesh, controls)
    for t in np.linspace(0.0, 2.0, 41):
        assert traj.control_at(t)[0] == pytest.approx(poly(t), abs=1e-12)


def test_control_outside_span_raises():
    mesh = build_mesh(0.0, 2.0, 2, 3)
    ocp = _plant(lambda x, u, p, t: -x, tf=2.0)
    traj = _trajectory(ocp, mesh)
    for t in (-0.5, 2.5, np.nan):
        with pytest.raises(ValueError):
            traj.control_at(t)


def test_integrate_rejects_span_outside_trajectory():
    ocp = _plant(lambda x, u, p, t: -x)
    traj = _trajectory(ocp, build_mesh(0.0, 1.0, 1, 3))
    with pytest.raises(ValueError):
        integrate(ocp, traj, np.array([1.0]), (0.0, 1.5))
    with pytest.raises(ValueError):
        integrate(ocp, traj, np.array([1.0]), (-0.2, 0.8))


def test_integrate_rejects_non_finite_span_and_parameters():
    ocp = _plant(lambda x, u, p, t: -x)
    traj = _trajectory(ocp, build_mesh(0.0, 1.0, 1, 3))
    for span in ((0.0, float("nan")), (float("nan"), 1.0),
                 (0.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            integrate(ocp, traj, np.array([1.0]), span)
    with pytest.raises(ValueError, match="finite"):
        integrate(ocp, traj, np.array([1.0]), (0.0, 1.0),
                  p_tilde=np.array([float("nan")]))


def test_integrate_rejects_bad_tolerances():
    # NaN tolerances used to hang the stepper, and infinite ones to
    # return an unchecked state; each is refused before any step
    calls = []

    def dyn(x, u, p, t):
        calls.append(t)
        return -x

    ocp = _plant(dyn)
    traj = _trajectory(ocp, build_mesh(0.0, 1.0, 1, 3))
    for bad in (0.0, -1e-9, float("nan"), float("inf"), -float("inf")):
        for tols in ({"abs_tol": bad}, {"rel_tol": bad}):
            with pytest.raises(ValueError, match="tolerances"):
                integrate(ocp, traj, np.array([1.0]), (0.0, 1.0), **tols)
    assert calls == []


def test_integrate_rejects_misshaped_or_non_finite_x0():
    calls = []

    def dyn(x, u, p, t):
        calls.append(t)
        return -x

    ocp = _plant(dyn)
    traj = _trajectory(ocp, build_mesh(0.0, 1.0, 1, 3))
    for x0 in (np.array([1.0, 2.0]), np.zeros((1, 1)), np.array([])):
        with pytest.raises(ValueError, match="shape"):
            integrate(ocp, traj, x0, (0.0, 1.0))
    for x0 in (np.array([float("nan")]), np.array([float("inf")])):
        with pytest.raises(ValueError, match="finite"):
            integrate(ocp, traj, x0, (0.0, 1.0))
    assert calls == []
    assert integrate(ocp, traj, 1.0, (0.0, 1.0)).terminal_state.shape == (1,)


def test_non_finite_derivative_raises_instead_of_looping():
    # a NaN derivative at the start makes the first step NaN
    ocp = _plant(lambda x, u, p, t: np.array([float("nan")]))
    traj = _trajectory(ocp, build_mesh(0.0, 1.0, 2, 3))
    for span in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(RuntimeError, match="integration failed on"):
            integrate(ocp, traj, np.array([1.0]), span)


def test_overflowing_state_raises_instead_of_being_accepted():
    # the derivative stays finite while the state overflows: the error
    # estimate, scaled by the infinite state, reads zero and the step
    # would be accepted
    ocp = _plant(lambda x, u, p, t: np.array([1e307]), tf=10.0)
    traj = _trajectory(ocp, build_mesh(0.0, 10.0, 1, 3))
    with np.errstate(over="ignore"), \
            pytest.raises(RuntimeError, match=r"state \[inf\] .* not finite"):
        integrate(ocp, traj, np.array([1e308]), (0.0, 10.0))


def test_finite_time_blowup_raises_runtime_error():
    # x' = 1 + x^2 from 0 diverges at t = pi/2, inside the span
    ocp = _plant(lambda x, u, p, t: 1.0 + x ** 2, tf=2.0)
    traj = _trajectory(ocp, build_mesh(0.0, 2.0, 1, 3))
    with pytest.raises(RuntimeError):
        integrate(ocp, traj, np.array([0.0]), (0.0, 2.0))


def test_perturbed_parameter_changes_the_flow():
    ocp = _plant(lambda x, u, p, t: -p[..., :1] * x)
    traj = _trajectory(ocp, build_mesh(0.0, 1.0, 2, 3))
    nominal = integrate(ocp, traj, np.array([1.0]), (0.0, 1.0))
    perturbed = integrate(ocp, traj, np.array([1.0]), (0.0, 1.0),
                          p_tilde=np.array([2.0]))
    assert nominal.terminal_state[0] == pytest.approx(np.exp(-1.0), abs=1e-9)
    assert perturbed.terminal_state[0] == pytest.approx(np.exp(-2.0), abs=1e-9)
    with pytest.raises(ValueError):
        integrate(ocp, traj, np.array([1.0]), (0.0, 1.0),
                  p_tilde=np.array([1.0, 2.0]))


def test_augmented_problem_integrates_whole_state():
    ocp, make_spec = example_problem()
    aug = augment(ocp, make_spec(5.0, 0.01))
    mesh = build_mesh(0.0, 50.0, 2, 3)
    nlp = transcribe(aug, mesh)
    layout = nlp.layout
    z = pack_values(layout,
                    np.zeros((layout.n_state_points, layout.n_aug)),
                    np.zeros((layout.n_colloc, 1)))
    traj = extract_solution(nlp, z)
    sim = integrate(aug, traj, np.array([1.5, 0.0]), (0.0, 2.0))
    assert sim.terminal_state.shape == (2,)
    assert np.isfinite(sim.terminal_state).all()


def test_simresult_validates_grid():
    times = np.array([0.0, 0.5, 0.4, 1.0])
    states = np.zeros((4, 1))
    controls = np.zeros((4, 1))
    with pytest.raises(ValueError):
        SimResult(0.0, 1.0, times, states, controls)
    with pytest.raises(ValueError):
        SimResult(0.0, 2.0, np.array([0.0, 0.5, 1.0]),
                  np.zeros((3, 1)), np.zeros((3, 1)))


def test_each_segment_flies_its_own_interval_control():
    # xdot = u with u = 0 on [0, 1] and u = 1 on [1, 2]: a flight over
    # interval 0 must never see interval 1's control, not even at the
    # interface t = 1 where the integrator evaluates stages
    seen = []

    def dyn(x, u, p, t):
        seen.extend(zip(t.tolist(), u[:, 0].tolist()))
        return u[:, :1]

    ocp = _plant(dyn, tf=2.0)
    mesh = build_mesh(0.0, 2.0, 2, 2)
    traj = _trajectory(ocp, mesh, np.array([[0.0], [0.0], [1.0], [1.0]]))
    for span in ((0.0, 1.0), (1.0, 0.0)):
        seen.clear()
        sim = integrate(ocp, traj, np.array([0.25]), span)
        assert any(t == 1.0 for t, _ in seen)
        assert all(u == 0.0 for _, u in seen)
        assert sim.terminal_state[0] == 0.25
    seen.clear()
    sim = integrate(ocp, traj, np.array([0.25]), (0.0, 2.0))
    assert sim.terminal_state[0] == pytest.approx(1.25, abs=1e-12)
    assert all(u == (0.0 if t < 1.0 else 1.0) for t, u in seen if t != 1.0)


def test_truth_plant_flies_interval_values_bitwise():
    # every right-hand-side call reads the same control, bit for bit, as
    # Trajectory.interval_values on the segment's interval: orders below
    # and above numpy's 8-term pairwise-summation threshold, two controls
    seen = []

    def dyn(x, u, p, t):
        seen.extend(zip(t, u.copy()))
        return -x + u[:, :1] - 0.5 * u[:, 1:]

    ocp = _plant(dyn, tf=3.0, n_controls=2)
    mesh = build_mesh(0.0, 3.0, 3, (3, 9, 12))
    rng = np.random.default_rng(11)
    traj = _trajectory(ocp, mesh, rng.standard_normal((sum(mesh.orders), 2)))
    bounds = mesh.interval_times()
    for k in range(mesh.n_intervals):
        for span in ((bounds[k], bounds[k + 1]), (bounds[k + 1], bounds[k])):
            seen.clear()
            integrate(ocp, traj, np.array([0.5]), span)
            assert len(seen) > 10
            for t, u in seen:
                want = traj.interval_values(k, t, control=True)
                assert u.tobytes() == want.tobytes()


def test_dop853_tableau_is_scipys_bit_for_bit():
    ref = dop853_coefficients
    n = ref.N_STAGES
    for ours, theirs in ((simulation._A, ref.A[:n, :n]),
                         (simulation._C, ref.C[:n]),
                         (simulation._B, ref.B),
                         (simulation._E5, ref.E5),
                         (simulation._E3, ref.E3)):
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def _one_interval_plant():
    """A two-state plant on a one-interval trajectory over [0, 3], and
    scipy's DOP853 flight of it under that interval's control."""
    def dyn(x, u, p, t):
        # one point (scipy's reference) or stacked rows (the truth plant)
        return np.stack([-p[..., 0] * x[..., 0] + np.sin(x[..., 1]) * u[..., 0],
                         x[..., 0] * x[..., 1] - 0.3 * u[..., 0] ** 2],
                        axis=-1)

    ocp = OcpDefinition(
        n_states=2, n_controls=1, n_params=1, dynamics=dyn,
        jac_x=None, jac_p=None, running_cost=None, terminal_cost=None,
        nominal_params=np.array([0.7]), time_domain=(0.0, 3.0))
    traj = _trajectory(ocp, build_mesh(0.0, 3.0, 1, 5),
                       np.array([[0.4], [-1.0], [0.3], [1.2], [0.8]]))

    def reference(x0, span, tol):
        ref = solve_ivp(
            lambda t, x: dyn(x, traj.interval_values(0, t, control=True),
                             ocp.nominal_params, t),
            span, x0, method="DOP853", rtol=tol, atol=tol)
        assert ref.success
        return ref

    return ocp, traj, reference


@pytest.mark.parametrize("span", [(0.0, 3.0), (3.0, 0.0), (0.5, 2.25)])
@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_fresh_segment_matches_solve_ivp(span, tol):
    # one mesh interval is one segment, started from scratch: the same
    # steps and states as scipy's DOP853 at the same tolerances
    ocp, traj, reference = _one_interval_plant()
    x0 = np.array([1.0, -0.5])
    sim = integrate(ocp, traj, x0, span, abs_tol=tol, rel_tol=tol)
    ref = reference(x0, span, tol)
    assert sim.times.shape == ref.t.shape
    np.testing.assert_allclose(sim.times, ref.t, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(sim.states, ref.y.T, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("span", [(0.0, 3.0), (3.0, 0.0)])
@pytest.mark.parametrize("tol", [1e-3, 1e-10])
def test_each_step_attempt_reads_its_controls_in_one_call(span, tol):
    # the first derivative and the first-step probe read one time each;
    # every step attempt then reads its twelve stage times in one call,
    # the last (c = 1) also serving the derivative at the step's end.
    # scipy's nfev, 2 + 12 per attempt, counts the attempts.  One lane,
    # so every read is one row.
    ocp, traj, reference = _one_interval_plant()
    reads, calls = [], []

    def control(times):
        reads.append(np.shape(times))
        return traj.interval_values(0, times, control=True)

    def dyn(x, u, p, t):
        calls.append((t.copy(), u.copy()))
        return ocp.dynamics(x, u, p, t)

    x0 = np.array([1.0, -0.5])
    steps = []
    simulation._dop853(dyn, lambda ids: (ocp.nominal_params[None], control),
                       np.arange(1), span[0], x0[None], span[1], tol, tol,
                       None, steps, {})
    attempts, rest = divmod(reference(x0, span, tol).nfev - 2, 12)
    assert rest == 0 and attempts >= len(steps)
    assert reads == [(1, 1)] * 2 + [(1, 12)] * attempts
    assert len(calls) == 2 + 12 * attempts
    for t, u in calls:
        assert t.shape == (1,) and u.shape == (1, 1)
        want = traj.interval_values(0, t[0], control=True)
        assert u[0].tobytes() == want.tobytes()


@st.composite
def flights(draw):
    k = draw(st.integers(1, 6))
    orders = tuple(draw(st.lists(st.integers(1, 6), min_size=k, max_size=k)))
    tf = draw(st.floats(0.5, 20.0))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=k,
                                  max_size=k)))
    fractions = np.concatenate(([0.0], np.cumsum(gaps))) / gaps.sum()
    fractions = 2.0 * fractions - 1.0
    fractions[-1] = 1.0
    mesh = build_mesh(0.0, tf, k, orders, fractions)
    seed = draw(st.integers(0, 2**32 - 1))
    return mesh, np.random.default_rng(seed)


@settings(max_examples=40, deadline=None)
@given(flights())
def test_flights_across_every_cut_match_closed_form(flight):
    # xdot = u(t) on a random piecewise polynomial and xdot = -k x, each
    # flown over the whole horizon (so across every interval cut) in
    # both directions
    mesh, rng = flight
    bounds = mesh.interval_times()
    polys = [np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, nk),
                                      domain=bounds[i:i + 2])
             for i, nk in enumerate(mesh.orders)]
    nodes = np.split(_collocation_times(mesh), np.cumsum(mesh.orders)[:-1])
    controls = np.concatenate([p(t) for p, t in zip(polys, nodes)])[:, None]
    span = (mesh.t0, mesh.tf)

    ocp = _plant(lambda x, u, p, t: u[..., :1], tf=mesh.tf)
    traj = _trajectory(ocp, mesh, controls)
    x0 = rng.uniform(-1.0, 1.0)
    exact = x0 + sum(p.integ()(b) - p.integ()(a)
                     for p, a, b in zip(polys, bounds[:-1], bounds[1:]))
    fwd = integrate(ocp, traj, np.array([x0]), span)
    back = integrate(ocp, traj, np.array([exact]), span[::-1])
    assert abs(fwd.terminal_state[0] - exact) <= 1e-8
    assert abs(back.terminal_state[0] - x0) <= 1e-8

    # at most e^2 of decay, so that flying back amplifies the step
    # errors by no more than e^2
    rate = rng.uniform(0.05, 2.0) / (mesh.tf - mesh.t0)
    ocp = _plant(lambda x, u, p, t: -p[..., :1] * x, tf=mesh.tf)
    traj = _trajectory(ocp, mesh, controls)
    decayed = x0 * np.exp(-rate * (mesh.tf - mesh.t0))
    fwd = integrate(ocp, traj, np.array([x0]), span, p_tilde=[rate])
    back = integrate(ocp, traj, np.array([decayed]), span[::-1],
                     p_tilde=[rate])
    assert abs(fwd.terminal_state[0] - decayed) <= 1e-8
    assert abs(back.terminal_state[0] - x0) <= 1e-8


def _two_state_plant(tf):
    """A nonlinear two-state plant whose decay rate each lane sets, in
    the batch form the truth plant calls."""
    def dyn(x, u, p, t):
        a = p[..., 0]
        return np.stack([-a * x[..., 0] + np.sin(x[..., 1]) * u[..., 0],
                         -a * x[..., 1] + np.cos(x[..., 0]) * u[..., 0] ** 2],
                        axis=-1)

    return OcpDefinition(
        n_states=2, n_controls=1, n_params=1, dynamics=dyn,
        jac_x=None, jac_p=None, running_cost=None, terminal_cost=None,
        nominal_params=np.array([1.0]), time_domain=(0.0, tf))


def _same_flight(got, alone):
    """A stacked lane's entry against the same lane flown alone: the
    same bytes, or the same failure message."""
    if isinstance(alone, RuntimeError):
        assert isinstance(got, RuntimeError) and str(got) == str(alone)
        return
    for name in ("times", "states", "controls"):
        assert getattr(got, name).tobytes() == getattr(alone, name).tobytes()


@settings(max_examples=30, deadline=None)
@given(flights(), st.integers(1, 8), st.booleans())
def test_each_lane_flies_as_it_would_alone(flight, count, backward):
    # P lanes, each with its own plan on one mesh, its own parameter and
    # its own start, stacked in a random order: every lane's times,
    # states and controls are the bytes of the same lane flown alone
    mesh, rng = flight
    ocp = _two_state_plant(mesh.tf)
    plans = [_trajectory(ocp, mesh,
                         rng.uniform(-1.0, 1.0, (sum(mesh.orders), 1)))
             for _ in range(count)]
    x0 = rng.uniform(-1.0, 1.0, (count, 2))
    # at most e^2 of decay, which a backward flight turns into growth
    alpha = rng.uniform(0.05, 2.0, (count, 1)) / (mesh.tf - mesh.t0)
    order = rng.permutation(count)
    span = (mesh.tf, mesh.t0) if backward else (mesh.t0, mesh.tf)
    stacked = integrate(ocp, [plans[i] for i in order], x0[order], span,
                        p_tilde=alpha[order])
    assert len(stacked) == count
    for got, i in zip(stacked, order):
        try:
            alone = integrate(ocp, plans[i], x0[i], span, p_tilde=alpha[i])
        except RuntimeError as exc:
            alone = exc
        _same_flight(got, alone)


def test_a_lane_that_blows_up_fails_alone():
    # x' = a (1 + x^2) from 0 diverges at t = pi / (2 a): inside [0, 2]
    # for a = 1, not for a = 0.5 or 0.25.  The diverging lane fails
    # with its own flight's message; the others fly on unchanged.
    ocp = _plant(lambda x, u, p, t: p[..., :1] * (1.0 + x ** 2), tf=2.0)
    traj = _trajectory(ocp, build_mesh(0.0, 2.0, 3, 4))
    alpha = np.array([[0.5], [1.0], [0.25]])
    stacked = integrate(ocp, [traj] * 3, np.zeros((3, 1)), (0.0, 2.0),
                        p_tilde=alpha)
    with pytest.raises(RuntimeError) as alone:
        integrate(ocp, traj, np.zeros(1), (0.0, 2.0), p_tilde=alpha[1])
    assert "integration failed on" in str(alone.value)
    _same_flight(stacked[1], alone.value)
    for i in (0, 2):
        _same_flight(stacked[i], integrate(ocp, traj, np.zeros(1), (0.0, 2.0),
                                           p_tilde=alpha[i]))
        assert stacked[i].terminal_state[0] == pytest.approx(
            np.tan(2.0 * alpha[i, 0]), rel=1e-8)


def test_lanes_must_share_a_mesh():
    ocp = _plant(lambda x, u, p, t: -x, tf=2.0)
    plans = [_trajectory(ocp, build_mesh(0.0, 2.0, 2, 3)),
             _trajectory(ocp, build_mesh(0.0, 2.0, 2, 4))]
    with pytest.raises(ValueError, match="same mesh"):
        integrate(ocp, plans, np.ones((2, 1)), (0.0, 2.0))
    with pytest.raises(ValueError, match="shape"):
        integrate(ocp, plans[:1] * 2, np.ones((3, 1)), (0.0, 2.0))
    with pytest.raises(ValueError, match="rows"):
        integrate(ocp, plans[:1] * 2, np.ones((2, 1)), (0.0, 2.0),
                  p_tilde=np.ones((3, 1)))


def test_guidance_modules_do_not_import_scipy_integrate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(guidedog.__file__)))
    code = ("import sys\n"
            "import guidedog.guidance, guidedog.montecarlo, "
            "guidedog.reporting, guidedog.cli\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.integrate')))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
