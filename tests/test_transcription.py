"""Tests for the collocation transcription layer."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guidedog.lgr import basis
from guidedog.ocp import DesensitizationSpec, OcpDefinition, example_problem
from guidedog.sensitivity import augment
from guidedog.transcription import (
    Mesh,
    _central_differences,
    _second_differences,
    base_objective,
    build_mesh,
    example_mesh,
    extract_solution,
    map_tau_to_time,
    pack_values,
    transcribe,
)


def test_tau_map_endpoints_and_midpoint():
    assert map_tau_to_time(-1.0, 0.0, 50.0) == pytest.approx(0.0, abs=1e-14)
    assert map_tau_to_time(1.0, 0.0, 50.0) == pytest.approx(50.0, abs=1e-14)
    assert map_tau_to_time(0.0, 10.0, 50.0) == pytest.approx(30.0, abs=1e-13)


def test_tau_map_is_vectorized():
    taus = np.array([-1.0, -0.5, 0.5, 1.0])
    out = map_tau_to_time(taus, 2.0, 6.0)
    assert np.allclose(out, [2.0, 3.0, 5.0, 6.0], atol=1e-14)


def test_build_mesh_uniform_fractions():
    mesh = build_mesh(0.0, 50.0, 4, 5)
    assert np.allclose(mesh.tau_boundaries, [-1.0, -0.5, 0.0, 0.5, 1.0],
                       atol=1e-15)
    assert mesh.orders == (5, 5, 5, 5)
    assert mesh.n_intervals == 4
    assert np.allclose(mesh.interval_times(), [0.0, 12.5, 25.0, 37.5, 50.0],
                       atol=1e-12)


def test_build_mesh_per_interval_orders_and_fractions():
    mesh = build_mesh(0.0, 10.0, 3, (2, 5, 3),
                      fractions=[-1.0, -0.9, 0.4, 1.0])
    assert mesh.orders == (2, 5, 3)
    assert np.allclose(mesh.tau_boundaries, [-1.0, -0.9, 0.4, 1.0])


def test_mesh_validation_errors():
    with pytest.raises(ValueError):
        build_mesh(0.0, 50.0, 0, 4)
    with pytest.raises(ValueError):
        build_mesh(0.0, 50.0, 2, 4, fractions=[-1.0, 0.5, 0.2, 1.0])
    with pytest.raises(ValueError):
        build_mesh(0.0, 50.0, 2, 4, fractions=[-0.5, 0.0, 1.0])
    with pytest.raises(ValueError):
        build_mesh(5.0, 5.0, 2, 4)
    with pytest.raises(ValueError):
        build_mesh(0.0, 50.0, 2, (4, 4, 4))
    with pytest.raises(ValueError):
        build_mesh(0.0, 50.0, 2, 0)
    # non-integral counts are rejected, not truncated
    for n_intervals, order in ((2, 4.5), (2, [4, 3.9]), (2.0, 4), (2, 4.0)):
        with pytest.raises(ValueError):
            build_mesh(0.0, 50.0, n_intervals, order)
    with pytest.raises(ValueError):
        Mesh(0.0, 50.0, np.array([-1.0, 0.0, 1.0]), (4, 3.5))
    with pytest.raises(ValueError):
        build_mesh(0.0, 50.0, 2, 4, fractions=[-1.0, np.nan, 1.0])
    for t0, tf in ((0.0, np.inf), (-np.inf, 50.0), (0.0, np.nan)):
        with pytest.raises(ValueError):
            build_mesh(t0, tf, 2, 4)
    # numpy integers are integers
    mesh = build_mesh(0.0, 50.0, np.int64(2), [np.int32(4), np.int64(3)])
    assert mesh.orders == (4, 3)
    assert all(type(nk) is int for nk in mesh.orders)


def test_with_time_domain_keeps_fractions():
    mesh = build_mesh(0.0, 50.0, 4, 5)
    shifted = mesh.with_time_domain(4.0, 50.0)
    assert shifted.t0 == 4.0 and shifted.tf == 50.0
    assert np.array_equal(shifted.tau_boundaries, mesh.tau_boundaries)
    assert shifted.orders == mesh.orders
    assert np.allclose(shifted.interval_times(), [4.0, 15.5, 27.0, 38.5, 50.0])


def _augmented_example(beta=5.0, q=0.01, alpha=2.0):
    ocp, make_spec = example_problem(alpha)
    return augment(ocp, make_spec(beta, q))


def test_variable_and_constraint_counts():
    aug = _augmented_example()
    mesh = build_mesh(0.0, 50.0, 1, 3)
    nlp = transcribe(aug, mesh)
    n_aug = 2  # one physical state plus a 1x1 sensitivity
    assert nlp.n_vars == 4 * n_aug + 3 * 1
    # defects, two initial pins (state and sensitivity), one terminal pin
    assert nlp.n_constraints == 3 * n_aug + 2 + 1
    assert np.all(nlp.lower == 0.0) and np.all(nlp.upper == 0.0)


def test_transcribe_rejects_mismatched_domain():
    aug = _augmented_example()
    mesh = build_mesh(0.0, 40.0, 2, 4)
    with pytest.raises(ValueError):
        transcribe(aug, mesh)


def test_transcribe_rejects_wrong_type():
    with pytest.raises(TypeError):
        transcribe("not a problem", build_mesh(0.0, 1.0, 1, 3))


def _zero_dynamics(x, u, p, t):
    return np.zeros_like(x)


def _running_time_power(x, u, t):
    return np.asarray(t) ** 6


def test_constant_state_is_feasible_for_zero_dynamics():
    ocp = OcpDefinition(
        n_states=2, n_controls=1, n_params=0,
        dynamics=_zero_dynamics, jac_x=None, jac_p=None,
        running_cost=None, terminal_cost=None,
        nominal_params=np.zeros(0),
        time_domain=(0.0, 2.0),
    )
    mesh = build_mesh(0.0, 2.0, 3, 4)
    nlp = transcribe(ocp, mesh)
    layout = nlp.layout
    states = np.tile([1.3, -0.7], (layout.n_state_points, 1))
    controls = np.full((layout.n_colloc, 1), 0.25)
    z = pack_values(layout, states, controls)
    c = nlp.constraints(z)
    assert c.size == nlp.n_constraints
    assert np.max(np.abs(c)) < 1e-12


def _control_dynamics(x, u, p, t):
    return u


def test_polynomial_trajectory_is_feasible():
    # x(t) = t^3 - 2 t^2 + 3 with u = dx/dt satisfies xdot = u exactly at
    # every collocation point when N >= 3.
    ocp = OcpDefinition(
        n_states=1, n_controls=1, n_params=0,
        dynamics=_control_dynamics, jac_x=None, jac_p=None,
        running_cost=None, terminal_cost=None,
        nominal_params=np.zeros(0),
        time_domain=(0.0, 2.0),
    )
    mesh = build_mesh(0.0, 2.0, 2, 4)
    nlp = transcribe(ocp, mesh)
    layout = nlp.layout

    bounds = mesh.interval_times()
    state_rows = []
    control_rows = []
    for k, nk in enumerate(mesh.orders):
        a, b = bounds[k], bounds[k + 1]
        t_sup = a + (basis(nk).support + 1.0) * 0.5 * (b - a)
        t_col = t_sup[:-1]
        block = (t_sup**3 - 2.0 * t_sup**2 + 3.0)[:, None]
        state_rows.append(block if k == 0 else block[1:])
        control_rows.append((3.0 * t_col**2 - 4.0 * t_col)[:, None])
    states = np.vstack(state_rows)
    controls = np.vstack(control_rows)
    z = pack_values(layout, states, controls)
    assert np.max(np.abs(nlp.constraints(z))) < 1e-10


def test_quadrature_cost_is_exact_for_low_degree():
    # integrand t^6 with N = 4 collocation points per interval
    # (exact through degree 2N - 2 = 6)
    ocp = OcpDefinition(
        n_states=1, n_controls=1, n_params=0,
        dynamics=_zero_dynamics, jac_x=None, jac_p=None,
        running_cost=_running_time_power, terminal_cost=None,
        nominal_params=np.zeros(0),
        time_domain=(0.0, 2.0),
    )
    mesh = build_mesh(0.0, 2.0, 2, 4)
    nlp = transcribe(ocp, mesh)
    layout = nlp.layout
    z = pack_values(layout, np.zeros((layout.n_state_points, 1)),
                    np.zeros((layout.n_colloc, 1)))
    exact = 2.0**7 / 7.0
    assert abs(nlp.objective(z) - exact) < 1e-10


def test_interface_point_feeds_both_neighbouring_intervals():
    aug = _augmented_example()
    mesh = build_mesh(0.0, 50.0, 2, 4)
    nlp = transcribe(aug, mesh)
    layout = nlp.layout
    rng = np.random.default_rng(4)
    z = 0.1 * rng.standard_normal(nlp.n_vars)
    c0 = nlp.constraints(z)
    # support point 4 is the last of interval 0 and the first of interval 1
    n_aug = layout.n_aug
    zp = z.copy()
    zp[4 * n_aug] += 0.05
    dc = nlp.constraints(zp) - c0
    first = dc[: 4 * n_aug]
    second = dc[4 * n_aug: 8 * n_aug]
    assert np.max(np.abs(first)) > 1e-6
    assert np.max(np.abs(second)) > 1e-6


def test_pack_extract_round_trip():
    aug = _augmented_example()
    mesh = build_mesh(0.0, 50.0, 3, 4)
    nlp = transcribe(aug, mesh)
    layout = nlp.layout
    rng = np.random.default_rng(11)
    states = rng.standard_normal((layout.n_state_points, layout.n_aug))
    controls = rng.standard_normal((layout.n_colloc, layout.n_controls))
    z = pack_values(layout, states, controls)
    traj = extract_solution(nlp, z, objective_value=nlp.objective(z))
    assert traj.t0 == 0.0 and traj.tf == 50.0
    assert traj.n_states == 1 and traj.sens_shape == (1, 1)
    # stored blocks reproduce the packed samples, with interfaces shared
    offset = 0
    for k, nk in enumerate(mesh.orders):
        assert np.array_equal(traj.state_values[k],
                              states[offset:offset + nk + 1])
        assert np.array_equal(traj.control_values[k],
                              controls[offset:offset + nk])
        offset += nk
    # interpolation hits the stored collocation values exactly
    t_probe = traj.control_times[1][2]
    assert np.allclose(traj.full_state_at(t_probe),
                       states[4 + 2], atol=1e-9)
    assert traj.objective == pytest.approx(nlp.objective(z))


def test_pack_values_validates_shapes():
    aug = _augmented_example()
    nlp = transcribe(aug, build_mesh(0.0, 50.0, 1, 3))
    layout = nlp.layout
    with pytest.raises(ValueError):
        pack_values(layout, np.zeros((2, 2)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        pack_values(layout, np.zeros((4, 2)), np.zeros((4, 1)))


def test_footprints_cover_all_dependencies():
    # every constraint row a variable can move is a nonzero entry of its
    # column in nlp.jacobian: no dependency falls outside the pattern
    aug = _augmented_example()
    mesh = build_mesh(0.0, 50.0, 3, 3)
    nlp = transcribe(aug, mesh)
    rng = np.random.default_rng(7)
    z = 0.2 * rng.standard_normal(nlp.n_vars)
    c0 = nlp.constraints(z)
    J = nlp.jacobian(z)
    for i in range(nlp.n_vars):
        zp = z.copy()
        zp[i] += 1e-4 * (1.0 + abs(z[i]))
        dc = nlp.constraints(zp) - c0
        outside = np.setdiff1d(np.nonzero(dc != 0.0)[0],
                               np.nonzero(J[:, i])[0])
        assert outside.size == 0, f"var {i} leaks into rows {outside}"


def test_objective_gradient_matches_central_difference():
    aug = _augmented_example(beta=3.0, q=0.02)
    mesh = build_mesh(0.0, 50.0, 2, 4)
    nlp = transcribe(aug, mesh)
    rng = np.random.default_rng(21)
    z = 0.4 * rng.standard_normal(nlp.n_vars)
    g = nlp.gradient(z)
    for i in range(nlp.n_vars):
        h = 1e-6 * (1.0 + abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        ref = (nlp.objective(zp) - nlp.objective(zm)) / (2.0 * h)
        assert g[i] == pytest.approx(ref, abs=2e-7 * (1.0 + abs(ref)))


def _quadratic_cost(x, u, t):
    x = np.atleast_2d(x)
    u = np.atleast_2d(u)
    return 0.5 * (x[:, 0] ** 2 + u[:, 0] ** 2)


def test_base_objective_matches_nlp_objective_for_plain_problem():
    ocp = OcpDefinition(
        n_states=1, n_controls=1, n_params=0,
        dynamics=_control_dynamics, jac_x=None, jac_p=None,
        running_cost=_quadratic_cost, terminal_cost=None,
        nominal_params=np.zeros(0),
        time_domain=(0.0, 2.0),
    )
    mesh = build_mesh(0.0, 2.0, 3, 4)
    nlp = transcribe(ocp, mesh)
    layout = nlp.layout
    rng = np.random.default_rng(13)
    states = rng.standard_normal((layout.n_state_points, 1))
    controls = rng.standard_normal((layout.n_colloc, 1))
    z = pack_values(layout, states, controls)
    traj = extract_solution(nlp, z)
    assert base_objective(traj, ocp) == pytest.approx(nlp.objective(z),
                                                      abs=1e-12)


def test_base_objective_strips_sensitivity_penalty():
    ocp, make_spec = example_problem()
    aug = augment(ocp, make_spec(5.0, 0.01))
    mesh = build_mesh(0.0, 50.0, 2, 4)
    nlp = transcribe(aug, mesh)
    layout = nlp.layout
    rng = np.random.default_rng(17)
    states = rng.standard_normal((layout.n_state_points, layout.n_aug))
    controls = rng.standard_normal((layout.n_colloc, 1))
    z = pack_values(layout, states, controls)
    traj = extract_solution(nlp, z)
    base = base_objective(traj, ocp)
    full = nlp.objective(z)
    # full objective adds the nonnegative terminal sensitivity penalty
    assert full >= base - 1e-12
    s_f = traj.sensitivity_at(50.0)
    penalty = 5.0 * (0.01 * 2.0) ** 2 * float(s_f[0, 0]) ** 2
    assert full - base == pytest.approx(penalty, rel=1e-9, abs=1e-12)


def test_extracted_base_objective_leaves_out_the_penalty():
    # an augmented solution's base_objective is J of the base problem,
    # not the NLP objective with the sensitivity penalty
    ocp, make_spec = example_problem()
    nlp = transcribe(augment(ocp, make_spec(10.0, 0.02)),
                     build_mesh(0.0, 50.0, 2, 4))
    z = np.random.default_rng(23).standard_normal(nlp.n_vars)
    traj = extract_solution(nlp, z, nlp.objective(z))
    assert traj.base_objective == base_objective(traj, ocp)
    assert traj.objective - traj.base_objective > 1e-6


def _point_geometry(mesh):
    # per-collocation-point times, interval half-widths, scaled weights,
    # assembled independently of the transcription internals
    bounds = mesh.interval_times()
    halves, weights = [], []
    for k, nk in enumerate(mesh.orders):
        h = 0.5 * (bounds[k + 1] - bounds[k])
        bs = basis(nk)
        halves.extend([h] * nk)
        weights.extend(h * bs.weights)
    return np.asarray(halves), np.asarray(weights)


def test_lagrangian_hessian_matches_hand_derivation():
    alpha = 2.0
    ocp, _ = example_problem(alpha=alpha)
    mesh = build_mesh(0.0, 50.0, 2, 3)
    nlp = transcribe(ocp, mesh)
    lay = nlp.layout
    rng = np.random.default_rng(5)
    z = 0.5 * rng.standard_normal(nlp.n_vars)
    lam = rng.standard_normal(nlp.n_constraints)
    hess = nlp.lagrangian_hessian(z, lam)

    # f = -a^2 x^3 + a u has f_xx = -6 a^2 x and no other curvature;
    # running cost 0.5 (x^2 + u^2) adds the scaled quadrature weight.
    halves, weights = _point_geometry(mesh)
    n_colloc, n_pts = lay.n_colloc, lay.n_state_points
    hand = np.zeros_like(hess)
    for q in range(n_colloc):
        xq = z[q]
        hand[q, q] = weights[q] + halves[q] * lam[q] * 6.0 * alpha ** 2 * xq
        cq = n_pts + q
        hand[cq, cq] = weights[q]
    assert np.allclose(hess, hand, rtol=1e-5, atol=1e-6)


def test_lagrangian_hessian_matches_hand_derivation_augmented():
    alpha, beta, q_level = 2.0, 10.0, 0.01
    ocp, make_spec = example_problem(alpha=alpha)
    aug = augment(ocp, make_spec(beta, q_level))
    mesh = build_mesh(0.0, 50.0, 2, 3)
    nlp = transcribe(aug, mesh)
    lay = nlp.layout
    rng = np.random.default_rng(11)
    z = 0.5 * rng.standard_normal(nlp.n_vars)
    lam = rng.standard_normal(nlp.n_constraints)
    hess = nlp.lagrangian_hessian(z, lam)

    # Sensitivity channel: S' = A S + B with A = -3 a^2 x^2 and
    # B = -2 a x^3 + u, so its curvature is
    #   d2/dx2   = -6 a^2 S - 12 a x,   d2/dxdS = -6 a^2 x,
    # and the terminal penalty beta (q a)^2 S_f^2 contributes 2 beta (q a)^2.
    halves, weights = _point_geometry(mesh)
    n_colloc, n_pts = lay.n_colloc, lay.n_state_points
    hand = np.zeros_like(hess)
    for q in range(n_colloc):
        xq, sq = z[2 * q], z[2 * q + 1]
        lam_x, lam_s = lam[2 * q], lam[2 * q + 1]
        row_x, row_s = 2 * q, 2 * q + 1
        hand[row_x, row_x] = (weights[q]
                              + halves[q] * lam_x * 6.0 * alpha ** 2 * xq
                              + halves[q] * lam_s * (6.0 * alpha ** 2 * sq
                                                     + 12.0 * alpha * xq))
        hand[row_x, row_s] = halves[q] * lam_s * 6.0 * alpha ** 2 * xq
        hand[row_s, row_x] = hand[row_x, row_s]
        cq = 2 * n_pts + q
        hand[cq, cq] = weights[q]
    s_f_var = 2 * (n_pts - 1) + 1
    hand[s_f_var, s_f_var] = 2.0 * beta * (q_level * alpha) ** 2
    assert np.allclose(hess, hand, rtol=1e-5, atol=1e-6)


def _dense_fd_jacobian(nlp, z):
    J = np.empty((nlp.n_constraints, nlp.n_vars))
    for i in range(nlp.n_vars):
        h = 1e-6 * (1.0 + abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        J[:, i] = (nlp.constraints(zp) - nlp.constraints(zm)) / (2.0 * h)
    return J


def _assert_jacobian_consistent(nlp, z, tol=5e-6):
    exact = nlp.jacobian(z)
    reference = _dense_fd_jacobian(nlp, z)
    scale = 1.0 + np.max(np.abs(reference))
    assert np.max(np.abs(exact - reference)) <= tol * scale


def test_constraint_jacobian_matches_fd_plain_problem():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 3, 4)
    nlp = transcribe(ocp, mesh)
    rng = np.random.default_rng(17)
    _assert_jacobian_consistent(nlp, 0.4 * rng.standard_normal(nlp.n_vars))


def test_constraint_jacobian_matches_fd_augmented_problem():
    aug = _augmented_example(beta=7.0, q=0.02)
    mesh = build_mesh(0.0, 50.0, 3, 3)
    nlp = transcribe(aug, mesh)
    rng = np.random.default_rng(19)
    _assert_jacobian_consistent(nlp, 0.4 * rng.standard_normal(nlp.n_vars))


def _spring_dynamics(x, u, p, t):
    # a single point (2,) or a stacked batch (P, 2)
    x, u = np.asarray(x), np.asarray(u)
    return np.stack([x[..., 1], -p[0] * np.sin(x[..., 0]) + u[..., 0]],
                    axis=-1)


def test_constraint_jacobian_matches_fd_nonvectorized_two_states():
    ocp = OcpDefinition(
        n_states=2, n_controls=1, n_params=1,
        dynamics=_spring_dynamics, jac_x=None, jac_p=None,
        running_cost=None, terminal_cost=None,
        nominal_params=np.array([1.3]),
        time_domain=(0.0, 1.5),
        initial_state=np.array([0.2, 0.0]),
        terminal_state=np.array([0.0, 0.0]),
    )
    mesh = build_mesh(0.0, 1.5, 2, 4)
    nlp = transcribe(ocp, mesh)
    rng = np.random.default_rng(29)
    _assert_jacobian_consistent(nlp, 0.5 * rng.standard_normal(nlp.n_vars))



def _double_integrator(x, u, p, t):
    # linear dynamics: the Lagrangian Hessian keeps only the cost terms
    x, u = np.asarray(x), np.asarray(u)
    return np.stack([x[..., 1], u[..., 0]], axis=-1)


def _coupled_running_cost(x, u, t):
    # L = x1 u + x2^2 u^2 / 2 couples each state with the control
    x, u = np.asarray(x), np.asarray(u)
    return x[..., 0] * u[..., 0] + 0.5 * x[..., 1] ** 2 * u[..., 0] ** 2


def _coupled_terminal_cost(x0, t0, xf, tf):
    # Phi = a d + b^2 c + a b + c d with (a, b) = x(t0), (c, d) = x(tf),
    # for one pair of endpoints or stacked rows of them
    a, b = x0[..., 0], x0[..., 1]
    c, d = xf[..., 0], xf[..., 1]
    return a * d + b * b * c + a * b + c * d


def test_mayer_and_running_cross_terms_match_hand_derivatives():
    ocp = OcpDefinition(
        n_states=2, n_controls=1, n_params=0,
        dynamics=_double_integrator, jac_x=None, jac_p=None,
        running_cost=_coupled_running_cost,
        terminal_cost=_coupled_terminal_cost,
        nominal_params=np.zeros(0), time_domain=(0.0, 2.0),
    )
    mesh = build_mesh(0.0, 2.0, 2, 3)
    nlp = transcribe(ocp, mesh)
    P, C = nlp.layout.n_state_points, nlp.layout.n_colloc
    rng = np.random.default_rng(31)
    z = 0.5 * rng.standard_normal(nlp.n_vars)
    lam = rng.standard_normal(nlp.n_constraints)
    X = z[: 2 * P].reshape(P, 2)
    U = z[2 * P:]
    _, weights = _point_geometry(mesh)

    grad = np.zeros(nlp.n_vars)
    hand = np.zeros((nlp.n_vars, nlp.n_vars))
    for q in range(C):
        x1, x2, u = X[q, 0], X[q, 1], U[q]
        w = weights[q]
        cols = [2 * q, 2 * q + 1, 2 * P + q]
        grad[cols] += w * np.array([u, x2 * u * u, x1 + x2 * x2 * u])
        hand[np.ix_(cols, cols)] += w * np.array([
            [0.0, 0.0, 1.0],
            [0.0, u * u, 2.0 * x2 * u],
            [1.0, 2.0 * x2 * u, x2 * x2],
        ])
    (a, b), (c, d) = X[0], X[-1]
    ends = [0, 1, 2 * (P - 1), 2 * (P - 1) + 1]
    grad[ends] += [d + b, 2.0 * b * c + a, b * b + d, a + c]
    endpoint = np.array([
        [0.0, 1.0, 0.0, 1.0],
        [1.0, 2.0 * c, 2.0 * b, 0.0],
        [0.0, 2.0 * b, 0.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
    ])
    hand[np.ix_(ends, ends)] += endpoint

    assert np.allclose(nlp.gradient(z), grad, rtol=1e-8, atol=1e-9)
    hess = nlp.lagrangian_hessian(z, lam)
    assert np.allclose(hess, hand, rtol=1e-6, atol=1e-6)
    # no per-point term touches the endpoint block's off-diagonal
    # entries, so these check the Mayer cross-terms alone, the
    # x(t0)-x(tf) couplings included
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
        assert hess[ends[i], ends[j]] == pytest.approx(endpoint[i, j], abs=1e-6)
        assert hess[ends[j], ends[i]] == pytest.approx(endpoint[i, j], abs=1e-6)


def _poly_rows(V):
    # (B, n) -> (B, 2) with products and sums only, so a row gives the
    # same bits alone or inside any batch
    a, last = V[:, 0], V[:, -1]
    first_row, second_row = a * a * last, -2.0 * last
    for d in range(V.shape[1]):
        first_row = first_row + V[:, d] * V[:, d - 1]
        second_row = second_row + V[:, d] * V[:, d] * a
    return np.stack([first_row, second_row], axis=1)


@settings(max_examples=100, deadline=None)
@given(batch=st.integers(1, 6), width=st.integers(1, 4), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_difference_helpers_match_row_by_row_stencils(batch, width, data,
                                                       seed):
    # one stacked call per stencil gives the bits of evaluating every
    # shift of every row on its own
    first = data.draw(st.integers(0, width), label="first")
    V = 2.0 * np.random.default_rng(seed).standard_normal((batch, width))
    rows_out = np.full((batch, 2, width), 7.0)
    rows = _central_differences(_poly_rows, V, 1e-6, rows_out, first)
    scalar = _central_differences(lambda W: _poly_rows(W)[:, 0], V, 1e-6,
                                  np.full((batch, width), 7.0), first)
    second = _second_differences(lambda W: _poly_rows(W)[:, 1], V, 1e-4)
    assert rows is rows_out and second.shape == (batch, width, width)

    def moved(row, *moves):
        W = row.copy()
        for d, step in moves:
            W[0, d] += step
        return _poly_rows(W)[0]

    for i in range(batch):
        row = V[i:i + 1]
        h = 1e-6 * (1.0 + np.abs(row[0]))
        k = 1e-4 * (1.0 + np.abs(row[0]))
        # columns before ``first`` are left as they were
        assert np.array_equal(rows[i, :, :first], np.full((2, first), 7.0))
        assert np.array_equal(scalar[i, :first], np.full(first, 7.0))
        for a in range(first, width):
            ref = (moved(row, (a, h[a])) - moved(row, (a, -h[a]))) / (2.0 * h[a])
            assert np.array_equal(rows[i, :, a], ref)
            assert np.array_equal(scalar[i, a], ref[0])
        for a in range(width):
            for b in range(width):
                if a == b:
                    # k * k, the square the stencil takes: a float64
                    # scalar's ** 2 is a pow, one ulp off at times
                    ref = (moved(row, (a, k[a])) - 2.0 * moved(row)
                           + moved(row, (a, -k[a]))) / (k[a] * k[a])
                else:
                    ref = (moved(row, (a, k[a]), (b, k[b]))
                           - moved(row, (a, k[a]), (b, -k[b]))
                           - moved(row, (a, -k[a]), (b, k[b]))
                           + moved(row, (a, -k[a]), (b, -k[b])))
                    ref = ref / (4.0 * k[a] * k[b])
                assert np.array_equal(second[i, a, b], ref[1])


def _counting(fun, counts, name):
    def call(*args):
        counts[name] += 1
        return fun(*args)
    return call


@pytest.mark.parametrize("augmented", [False, True])
def test_each_derivative_hook_makes_one_stacked_call_per_callback(augmented):
    ocp, make_spec = example_problem()
    problem = augment(ocp, make_spec(7.0, 0.02)) if augmented else ocp
    inner = problem.ocp if augmented else problem
    names = ("dynamics", "jac_x", "running_cost", "terminal_cost")
    counts = dict.fromkeys(names, 0)
    inner = replace(inner, **{name: _counting(getattr(inner, name), counts, name)
                              for name in names
                              if getattr(inner, name) is not None})
    nlp = transcribe(replace(problem, ocp=inner) if augmented else inner,
                     example_mesh())
    rng = np.random.default_rng(43)
    z = rng.standard_normal(nlp.n_vars)
    lam = rng.standard_normal(nlp.n_constraints)
    mayer = int(augmented)
    # (hook, dynamics, jac_x, running_cost, terminal_cost) calls per
    # evaluation; the plain Jacobian takes its state columns from jac_x
    expected = [(lambda: nlp.gradient(z), (0, 0, 1, mayer)),
                (lambda: nlp.jacobian(z), (1, 1 - mayer, 0, 0)),
                (lambda: nlp.lagrangian_hessian(z, lam), (1, 0, 1, mayer))]
    for hook, calls in expected:
        counts.update(dict.fromkeys(names, 0))
        hook()
        assert tuple(counts[name] for name in names) == calls


def _half_square_penalty_jacobian(x):
    # h(x) = x^2 / 2, so G = dh/dx = x(tf)
    return np.array([[x[0]]])


def test_state_dependent_penalty_mayer_block_matches_hand_derivatives():
    ocp, _ = example_problem()
    w, var = 3.0, 0.5
    spec = DesensitizationSpec(penalty_jacobian=_half_square_penalty_jacobian,
                               terminal_weight=np.array([[w]]),
                               param_covariance=np.array([[var]]))
    nlp = transcribe(augment(ocp, spec), build_mesh(0.0, 50.0, 3, 4))
    P = nlp.layout.n_state_points
    rng = np.random.default_rng(47)
    z = 0.8 * rng.standard_normal(nlp.n_vars)
    lam = rng.standard_normal(nlp.n_constraints)
    # x(tf), S(tf) sit on the last support point, which no collocation
    # point owns, so the Mayer term w var x^2 S^2 is all that reaches them
    ends = [2 * (P - 1), 2 * (P - 1) + 1]
    x, s = z[ends]
    grad = 2.0 * w * var * np.array([x * s * s, x * x * s])
    hand = 2.0 * w * var * np.array([[s * s, 2.0 * x * s],
                                     [2.0 * x * s, x * x]])
    assert np.allclose(nlp.gradient(z)[ends], grad, rtol=1e-8, atol=1e-9)
    hess = nlp.lagrangian_hessian(z, lam)
    assert np.allclose(hess[np.ix_(ends, ends)], hand, rtol=1e-6, atol=1e-6)
    # nothing couples x(tf), S(tf) to the initial point
    assert np.allclose(hess[np.ix_(ends, [0, 1])], 0.0, atol=1e-6)


def _expected_patterns(problem, orders):
    """Allowed nonzeros of the constraint Jacobian and the Lagrangian
    Hessian, from the documented layout: states point-major at P support
    points, then controls at C collocation points; rows are the defects
    point-major, then the initial and terminal pins."""
    ocp = getattr(problem, "ocp", problem)
    na, nu = ocp.n_states, ocp.n_controls
    C = sum(orders)
    P = C + 1
    init = np.flatnonzero(~np.isnan(ocp.initial_state))
    term = np.flatnonzero(~np.isnan(ocp.terminal_state))
    n_rows, n_vars = C * na + init.size + term.size, P * na + C * nu
    jac = np.zeros((n_rows, n_vars), dtype=bool)
    hess = np.zeros((n_vars, n_vars), dtype=bool)
    start = 0
    for nk in orders:
        for i in range(start, start + nk):
            for d in range(na):
                # D template: defect (i, d) reads dimension d of every
                # support point of its interval
                jac[i * na + d, [j * na + d
                                 for j in range(start, start + nk + 1)]] = True
            own = ([i * na + d for d in range(na)]
                   + [P * na + i * nu + e for e in range(nu)])
            jac[np.ix_([i * na + d for d in range(na)], own)] = True
            hess[np.ix_(own, own)] = True
        start += nk
    jac[C * na + np.arange(init.size), init] = True
    jac[C * na + init.size + np.arange(term.size), (P - 1) * na + term] = True
    ends = list(range(na)) + [(P - 1) * na + d for d in range(na)]
    hess[np.ix_(ends, ends)] = True
    return jac, hess


@settings(max_examples=40, deadline=None)
@given(orders=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       augmented=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_derivative_nonzeros_lie_in_the_per_point_block_pattern(
        orders, augmented, seed):
    ocp, make_spec = example_problem()
    problem = augment(ocp, make_spec(5.0, 0.02)) if augmented else ocp
    nlp = transcribe(problem, build_mesh(0.0, 50.0, len(orders), orders))
    jac_pattern, hess_pattern = _expected_patterns(problem, orders)
    rng = np.random.default_rng(seed)
    z = 0.5 * rng.standard_normal(nlp.n_vars)
    J = nlp.jacobian(z)
    H = nlp.lagrangian_hessian(z, rng.standard_normal(nlp.n_constraints))
    assert J.shape == jac_pattern.shape and H.shape == hess_pattern.shape
    assert not np.any(J[~jac_pattern])
    assert not np.any(H[~hess_pattern])


@settings(max_examples=60, deadline=None)
@given(lanes=st.integers(1, 6),
       orders=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       kind=st.sampled_from(("plain", "augmented", "coupled")),
       seed=st.integers(0, 2**32 - 1))
def test_lane_stacked_hooks_equal_each_lane_alone(lanes, orders, kind, seed):
    # P re-solve problems that differ only in their pinned x(t0) (and
    # S(t0)), on a random mesh of a random remaining horizon: every hook
    # of the lane-stacked NLP returns, row by row, the bytes of the
    # single-lane NLP of that lane.  The coupled two-state problem has a
    # Mayer term on both endpoints, so it reaches the lane-stacked
    # endpoint scatter and the batched Mayer term at n = 2
    ocp, make_spec = example_problem()
    spec = make_spec(5.0, 0.02)
    rng = np.random.default_rng(seed)
    tf = 2.0 if kind == "coupled" else 50.0
    t0 = float(rng.uniform(0.0, 0.8 * tf))
    widths = rng.uniform(0.2, 1.0, len(orders))
    fractions = np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
    mesh = build_mesh(t0, tf, len(orders), orders,
                      fractions=2.0 * fractions - 1.0)
    if kind == "coupled":
        ocp = OcpDefinition(
            n_states=2, n_controls=1, n_params=0,
            dynamics=_double_integrator, jac_x=None, jac_p=None,
            running_cost=_coupled_running_cost,
            terminal_cost=_coupled_terminal_cost,
            nominal_params=np.zeros(0), time_domain=(t0, tf),
            terminal_state=np.array([0.0, np.nan]))
        # the second initial component is free in every lane, or pinned
        second = np.nan if rng.integers(2) else 1.0
        problems = [ocp.with_initial_state([x0, second * x1])
                    for x0, x1 in rng.uniform(-1.0, 1.0, (lanes, 2))]
    else:
        problems = [ocp.with_initial_state([x0], time_domain=(t0, tf))
                    for x0 in rng.uniform(0.5, 2.0, lanes)]
    if kind == "augmented":
        problems = [augment(p, spec, s0=rng.standard_normal((1, 1)))
                    for p in problems]
    pins = np.stack([getattr(p, "ocp", p).initial_state for p in problems])
    stacked = transcribe(problems[0], mesh, initial_states=pins)
    assert stacked.lanes == lanes
    Z = 1.0 + 0.5 * rng.standard_normal((lanes, stacked.n_vars))
    lam = rng.standard_normal((lanes, stacked.n_constraints))

    def hooks(nlp, z, multipliers):
        return {"objective": nlp.objective(z),
                "constraints": nlp.constraints(z),
                "gradient": nlp.gradient(z),
                "jacobian": nlp.jacobian(z),
                "lagrangian_hessian": nlp.lagrangian_hessian(z, multipliers)}

    got = hooks(stacked, Z, lam)
    for i, problem in enumerate(problems):
        alone = hooks(transcribe(problem, mesh), Z[i], lam[i])
        for name, want in alone.items():
            assert np.asarray(got[name][i]).tobytes() == \
                np.asarray(want).tobytes(), (name, i)
    # rows of any subset of lanes, named, are those lanes' rows
    subset = rng.permutation(lanes)[: max(1, lanes // 2)]
    assert stacked.constraints(Z[subset], subset).tobytes() == \
        got["constraints"][subset].tobytes()


def test_lane_stacked_pins_must_free_the_same_components():
    ocp, _ = example_problem()
    with pytest.raises(ValueError, match="same initial components"):
        transcribe(ocp, build_mesh(0.0, 50.0, 2, 3),
                   initial_states=np.array([[1.5], [np.nan]]))
    with pytest.raises(ValueError, match="stack"):
        transcribe(ocp, build_mesh(0.0, 50.0, 2, 3),
                   initial_states=np.array([1.5, 1.2]))
