"""Property tests for barycentric evaluation of a solved Trajectory."""
import numpy as np
from hypothesis import given, settings, strategies as st

from guidedog import simulation
from guidedog.lgr import basis, interval_node_times
from guidedog.ocp import example_problem
from guidedog.trajectory import Trajectory, sample_lanes
from guidedog.transcription import (
    build_mesh,
    example_mesh,
    extract_solution,
    transcribe,
)

_coef = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def polynomial_trajectories(draw):
    """Random mesh plus per-interval state/control polynomials.

    Interval k carries a state polynomial of degree N_k and a control
    polynomial of degree N_k - 1, both in the interval's own scaled
    variable; state polynomials are chained so they meet at every
    interface, as a collocated solution does.
    """
    orders = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
    t0 = draw(st.floats(-100.0, 100.0))
    widths = draw(st.lists(st.floats(0.01, 20.0), min_size=len(orders),
                           max_size=len(orders)))
    bounds = t0 + np.concatenate(([0.0], np.cumsum(widths)))
    state_polys, control_polys, state_values, control_values = [], [], [], []
    joint = 0.0
    for k, nk in enumerate(orders):
        a, b = bounds[k], bounds[k + 1]
        window = [a, b]
        p = np.polynomial.Polynomial(
            draw(st.lists(_coef, min_size=nk + 1, max_size=nk + 1)),
            domain=window)
        # shift so this interval starts where the previous one ended
        p = p + (joint - p(a))
        joint = p(b)
        c = np.polynomial.Polynomial(
            draw(st.lists(_coef, min_size=nk, max_size=nk)), domain=window)
        bas = basis(nk)
        state_values.append(p(a + (bas.support + 1.0) * 0.5 * (b - a))[:, None])
        control_values.append(c(a + (bas.nodes + 1.0) * 0.5 * (b - a))[:, None])
        if k:
            state_values[k][0] = state_values[k - 1][-1]
        state_polys.append(p)
        control_polys.append(c)
    traj = Trajectory(t0=float(bounds[0]), tf=float(bounds[-1]),
                      interval_times=bounds, orders=orders,
                      state_values=state_values,
                      control_values=control_values, n_states=1)
    fractions = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                              min_size=1, max_size=6))
    return traj, state_polys, control_polys, fractions


def _probe_times(traj, k, fractions):
    """Times inside interval k, plus t_f for the last interval."""
    a, b = traj.interval_times[k], traj.interval_times[k + 1]
    times = [t for t in a + np.asarray(fractions) * (b - a) if t < b]
    if k == traj.n_intervals - 1:
        times.append(b)
    return times


@settings(max_examples=150, deadline=None)
@given(polynomial_trajectories())
def test_full_state_reproduces_interval_polynomials(case):
    traj, state_polys, _, fractions = case
    for k, p in enumerate(state_polys):
        scale = 1.0 + float(np.max(np.abs(traj.state_values[k])))
        for t in _probe_times(traj, k, fractions):
            assert abs(traj.full_state_at(t)[0] - p(t)) <= 1e-9 * scale


@settings(max_examples=150, deadline=None)
@given(polynomial_trajectories())
def test_control_reproduces_interval_polynomials(case):
    traj, _, control_polys, fractions = case
    for k, c in enumerate(control_polys):
        a, b = traj.interval_times[k], traj.interval_times[k + 1]
        scale = 1.0 + float(np.max(np.abs(c(np.linspace(a, b, 11)))))
        for t in _probe_times(traj, k, fractions):
            assert abs(traj.control_at(t)[0] - c(t)) <= 1e-9 * scale


@settings(max_examples=150, deadline=None)
@given(polynomial_trajectories())
def test_node_times_return_stored_samples_exactly(case):
    traj = case[0]
    for k in range(traj.n_intervals):
        for t, row in zip(traj.state_times[k], traj.state_values[k]):
            assert np.array_equal(traj.full_state_at(t), row)
        for t, row in zip(traj.control_times[k], traj.control_values[k]):
            assert np.array_equal(traj.control_at(t), row)


def _all_probe_times(traj, fractions):
    """Probe times in every interval, every node time and every bound."""
    times = [np.asarray(_probe_times(traj, k, fractions))
             for k in range(traj.n_intervals)]
    return np.concatenate(times + traj.state_times + traj.control_times
                          + [traj.interval_times])


@settings(max_examples=150, deadline=None)
@given(polynomial_trajectories())
def test_array_queries_match_scalar_queries_bitwise(case):
    traj, _, _, fractions = case
    times = _all_probe_times(traj, fractions)
    states = traj.full_state_at(times)
    controls = traj.control_at(times)
    assert states.shape == (times.size, traj.state_values[0].shape[1])
    assert controls.shape == (times.size, 1)
    for t, x, u in zip(times, states, controls):
        assert np.array_equal(traj.full_state_at(t), x)
        assert np.array_equal(traj.control_at(t), u)
    sampled = traj.sample(times)
    assert np.array_equal(sampled[0], states)
    assert np.array_equal(sampled[1], controls)


@settings(max_examples=150, deadline=None)
@given(polynomial_trajectories())
def test_interface_times_are_right_continuous(case):
    traj = case[0]
    for k in range(1, traj.n_intervals):
        t = traj.interval_times[k]
        assert np.array_equal(traj.full_state_at(t), traj.state_values[k][0])
        assert np.array_equal(traj.control_at(t), traj.control_values[k][0])
        assert np.array_equal(traj.control_at(t),
                              traj.interval_values(k, t, control=True))


@settings(max_examples=150, deadline=None)
@given(polynomial_trajectories())
def test_interval_values_reproduce_own_polynomial_at_right_end(case):
    traj, _, control_polys, _ = case
    for k, c in enumerate(control_polys):
        a, b = traj.interval_times[k], traj.interval_times[k + 1]
        assert np.array_equal(traj.interval_values(k, b),
                              traj.state_values[k][-1])
        scale = 1.0 + float(np.max(np.abs(c(np.linspace(a, b, 11)))))
        ends = traj.interval_values(k, np.array([a, b]), control=True)
        assert ends.shape == (2, 1)
        assert abs(ends[1, 0] - c(b)) <= 1e-9 * scale


def test_extracted_node_times_come_from_the_shared_function():
    ocp, _ = example_problem()
    for mesh in (example_mesh(), build_mesh(0.0, 50.0, 3, (3, 7, 4)),
                 build_mesh(0.0, 50.0, 2, (3, 4), fractions=[-1.0, 0.3, 1.0])):
        nlp = transcribe(ocp, mesh)
        traj = extract_solution(nlp, np.zeros(nlp.n_vars))
        support, colloc = interval_node_times(mesh.interval_times(),
                                              mesh.orders)
        assert len(traj.state_times) == len(support) == mesh.n_intervals
        for got, want in zip(traj.state_times, support):
            assert np.array_equal(got, want)
        for got, want in zip(traj.control_times, colloc):
            assert np.array_equal(got, want)
        flat_support, flat_colloc = mesh.node_times()
        assert np.array_equal(flat_colloc, np.concatenate(colloc))
        assert np.array_equal(flat_support,
                              np.unique(np.concatenate(support)))


@st.composite
def control_meshes(draw):
    """Random mesh of orders 1-15 with 1-3 random controls, plus fractions."""
    orders = tuple(draw(st.lists(st.integers(1, 15), min_size=1,
                                 max_size=3)))
    n_controls = draw(st.integers(1, 3))
    t0 = draw(st.floats(-100.0, 100.0))
    widths = draw(st.lists(st.floats(0.01, 20.0), min_size=len(orders),
                           max_size=len(orders)))
    bounds = t0 + np.concatenate(([0.0], np.cumsum(widths)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    traj = Trajectory(
        t0=float(bounds[0]), tf=float(bounds[-1]), interval_times=bounds,
        orders=orders,
        state_values=[rng.standard_normal((nk + 1, 1)) for nk in orders],
        control_values=[rng.standard_normal((nk, n_controls))
                        for nk in orders],
        n_states=1)
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    return traj, fractions


@settings(max_examples=150, deadline=None)
@given(control_meshes())
def test_interval_values_rows_match_single_time_queries_bitwise(case):
    # the truth plant reads a step attempt's stage controls in one array
    # query, so each row must equal the same time queried alone
    traj, fractions = case
    for k in range(traj.n_intervals):
        a, b = traj.interval_times[k], traj.interval_times[k + 1]
        # random times, stored node times, both ends, times past either
        # end, which clamp to it, and DOP853's stage times over [a, b]
        times = np.concatenate([a + np.asarray(fractions) * (b - a),
                                traj.control_times[k], traj.state_times[k],
                                [a, b, a - 0.5 * (b - a), b + 0.5 * (b - a)],
                                a + simulation._C * (b - a)])
        for control in (False, True):
            rows = traj.interval_values(k, times, control=control)
            assert rows.shape[0] == times.size
            for t, row in zip(times, rows):
                alone = traj.interval_values(k, t, control=control)
                assert alone.shape == row.shape
                assert alone.tobytes() == row.tobytes()
        for control, node_times, samples in (
                (False, traj.state_times[k], traj.state_values[k]),
                (True, traj.control_times[k], traj.control_values[k])):
            for t, row in zip(node_times, samples):
                got = traj.interval_values(k, t, control=control)
                assert got.tobytes() == row.tobytes()


@settings(max_examples=60, deadline=None)
@given(control_meshes(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_lane_samples_match_each_trajectory_bitwise(case, lanes, seed):
    # guidance reads every lane's warm start in one pass: P plans on one
    # mesh, each lane read as its own trajectory's owning interval reads
    # each time alone
    traj, fractions = case
    rng = np.random.default_rng(seed)
    plans = [Trajectory(
        t0=traj.t0, tf=traj.tf, interval_times=traj.interval_times,
        orders=traj.orders,
        state_values=[rng.standard_normal(v.shape) for v in traj.state_values],
        control_values=[rng.standard_normal(v.shape)
                        for v in traj.control_values],
        n_states=1) for _ in range(lanes)]
    times = np.concatenate([traj.t0 + np.asarray(fractions)
                            * (traj.tf - traj.t0),
                            np.concatenate(traj.state_times)])
    states = sample_lanes(plans, times)
    controls = sample_lanes(plans, times, control=True)
    owners = traj.locate(times)
    for plan, x, u in zip(plans, states, controls):
        for k, t, x_row, u_row in zip(owners, times, x, u):
            assert x_row.tobytes() == plan.interval_values(k, t).tobytes()
            assert u_row.tobytes() == plan.interval_values(
                k, t, control=True).tobytes()
        assert x.tobytes() == plan.full_state_at(times).tobytes()


def test_sensitivity_at_accepts_arrays_of_times():
    # n = 2 states and m = 3 parameters: S is stored column-major after x
    rng = np.random.default_rng(5)
    n, m, orders = 2, 3, (3, 4)
    bounds = np.array([0.0, 1.0, 2.5])
    traj = Trajectory(
        t0=0.0, tf=2.5, interval_times=bounds, orders=orders,
        state_values=[rng.standard_normal((nk + 1, n + n * m))
                      for nk in orders],
        control_values=[rng.standard_normal((nk, 1)) for nk in orders],
        n_states=n, sens_shape=(n, m))
    times = np.array([[0.0, 0.3, 1.0], [1.7, 2.2, 2.5]])
    full = traj.full_state_at(times)
    S = traj.sensitivity_at(times)
    assert S.shape == times.shape + (n, m)
    for i in range(n):
        for j in range(m):
            assert np.array_equal(S[..., i, j], full[..., n + i + n * j])
    for t, s in zip(times.ravel(), S.reshape(-1, n, m)):
        assert np.array_equal(traj.sensitivity_at(t), s)
    assert traj.sensitivity_at(1.7).shape == (n, m)
