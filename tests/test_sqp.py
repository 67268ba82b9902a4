"""Tests for the SQP solver and its KKT solves."""
import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import get_lapack_funcs

from guidedog import sqp
from guidedog.ocp import OcpDefinition, example_problem
from guidedog.sqp import (
    _kkt_ldl,
    _least_squares_multipliers,
    _solve_kkt,
    estimate_multipliers,
    NlpSolution,
    SolverOptions,
    initial_guess,
    solve,
)
from guidedog.transcription import (
    NlpProblem,
    build_mesh,
    example_mesh,
    extract_solution,
    pack_values,
    transcribe,
)


def _scalar_pin_problem():
    # min x^2  s.t.  x = 3
    return NlpProblem(
        n_vars=1,
        objective=lambda z: float(z[0] ** 2),
        constraints=lambda z: np.array([z[0]]),
        lower=np.array([3.0]),
        upper=np.array([3.0]),
        gradient=lambda z: np.array([2.0 * z[0]]),
        jacobian=lambda z: np.array([[1.0]]),
    )


def test_scalar_equality_minimum_and_multiplier():
    sol = solve(_scalar_pin_problem(), np.array([0.0]))
    assert sol.status == "converged"
    assert sol.z[0] == pytest.approx(3.0, abs=1e-10)
    assert sol.multipliers[0] == pytest.approx(-6.0, abs=1e-9)
    assert sol.objective == pytest.approx(9.0, abs=1e-9)


def _hand_qp():
    # min 0.5 (x1^2 + 2 x2^2)  s.t.  x1 + x2 = 3
    # stationarity: x1 + lam = 0, 2 x2 + lam = 0  ->  x1 = 2, x2 = 1,
    # lam = -2 (worked by hand from the 3x3 KKT system)
    return NlpProblem(
        n_vars=2,
        objective=lambda z: float(0.5 * (z[0] ** 2 + 2.0 * z[1] ** 2)),
        constraints=lambda z: np.array([z[0] + z[1]]),
        lower=np.array([3.0]),
        upper=np.array([3.0]),
        gradient=lambda z: np.array([z[0], 2.0 * z[1]]),
        jacobian=lambda z: np.array([[1.0, 1.0]]),
    )


def test_equality_qp_matches_hand_kkt_solution():
    opts = SolverOptions(kkt_tolerance=1e-11)
    sol = solve(_hand_qp(), np.array([0.0, 0.0]), opts)
    assert sol.status == "converged"
    assert abs(sol.z[0] - 2.0) < 1e-9
    assert abs(sol.z[1] - 1.0) < 1e-9
    assert abs(sol.multipliers[0] - (-2.0)) < 1e-9
    assert abs(sol.objective - 3.0) < 1e-9


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       m=st.integers(0, 6))
def test_convex_equality_qp_matches_direct_kkt_solve(seed, n, m):
    # min 0.5 z'Hz + q'z  s.t.  A z = b with H positive definite and A
    # of full row rank has one KKT point: [H A'; A 0] [z; lam] = [-q; b]
    m = min(m, n)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (Q * rng.uniform(0.5, 5.0, n)) @ Q.T
    A = rng.standard_normal((m, n))
    assume(m == 0 or np.linalg.svd(A, compute_uv=False)[-1] > 0.1)
    q = rng.standard_normal(n)
    b = rng.standard_normal(m)
    K = np.block([[H, A.T], [A, np.zeros((m, m))]])
    direct = np.linalg.solve(K, np.concatenate([-q, b]))
    nlp = NlpProblem(
        n_vars=n,
        objective=lambda z: float(0.5 * z @ H @ z + q @ z),
        constraints=lambda z: A @ z,
        lower=b, upper=b.copy(),
        gradient=lambda z: H @ z + q,
        jacobian=lambda z: A,
        lagrangian_hessian=lambda z, lam: H,
    )
    sol = solve(nlp, np.zeros(n), SolverOptions(kkt_tolerance=1e-10))
    assert sol.status == "converged"
    scale = 1.0 + np.max(np.abs(direct))
    assert np.max(np.abs(sol.z - direct[:n])) <= 1e-8 * scale
    assert np.max(np.abs(sol.multipliers - direct[n:]), initial=0.0) \
        <= 1e-8 * scale


def test_inequality_rows_are_rejected():
    # every row is solved as an equality, so a row with distinct bounds
    # would be solved wrongly; it is refused when the problem is built
    for lower, upper in (([-np.inf], [1.0]), ([0.0], [np.inf]),
                         ([0.0], [5.0])):
        with pytest.raises(ValueError, match="equality"):
            NlpProblem(
                n_vars=1,
                objective=lambda z: float(z[0] ** 2),
                constraints=lambda z: np.array([z[0]]),
                lower=np.array(lower),
                upper=np.array(upper),
                gradient=lambda z: np.array([2.0 * z[0]]),
                jacobian=lambda z: np.array([[1.0]]),
            )


def test_scaling_invariance_of_primal_solution():
    base = _hand_qp()
    scaled = NlpProblem(
        n_vars=2,
        objective=lambda z: 39.0 * base.objective(z),
        constraints=base.constraints,
        lower=base.lower,
        upper=base.upper,
        gradient=lambda z: 39.0 * base.gradient(z),
        jacobian=base.jacobian,
    )
    z0 = np.array([0.0, 0.0])
    sol_a = solve(base, z0, SolverOptions(kkt_tolerance=1e-10))
    sol_b = solve(scaled, z0, SolverOptions(kkt_tolerance=1e-10))
    assert sol_a.status == sol_b.status == "converged"
    assert np.max(np.abs(sol_a.z - sol_b.z)) < 1e-8


def test_determinism_bit_identical():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 3, 4)
    nlp_a = transcribe(ocp, mesh)
    nlp_b = transcribe(ocp, mesh)
    z0 = initial_guess(ocp, mesh)
    sol_a = solve(nlp_a, z0)
    sol_b = solve(nlp_b, z0)
    assert sol_a.status == sol_b.status
    assert sol_a.iterations == sol_b.iterations
    assert np.array_equal(sol_a.z, sol_b.z)
    assert np.array_equal(sol_a.multipliers, sol_b.multipliers)
    assert len(sol_a.trace) == len(sol_b.trace)


def test_unconstrained_quadratic():
    nlp = NlpProblem(
        n_vars=2,
        objective=lambda z: float((z[0] - 1.0) ** 2 + 3.0 * (z[1] + 2.0) ** 2),
        constraints=lambda z: np.zeros(0),
        lower=np.zeros(0),
        upper=np.zeros(0),
        gradient=lambda z: np.array([2.0 * (z[0] - 1.0), 6.0 * (z[1] + 2.0)]),
        jacobian=lambda z: np.zeros((0, 2)),
    )
    sol = solve(nlp, np.array([0.0, 0.0]))
    assert sol.status == "converged"
    assert np.allclose(sol.z, [1.0, -2.0], atol=1e-7)
    assert sol.multipliers.size == 0


def test_solver_options_reject_non_finite_tolerance():
    # an infinite tolerance would report the cold guess as converged
    for bad in (float("inf"), float("nan"), 0.0):
        with pytest.raises(ValueError, match="kkt_tolerance"):
            SolverOptions(kkt_tolerance=bad)


def test_max_iterations_status():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 3, 4)
    nlp = transcribe(ocp, mesh)
    sol = solve(nlp, initial_guess(ocp, mesh),
                SolverOptions(max_iterations=1))
    assert sol.status in ("max-iterations", "line-search-failure")
    assert sol.iterations <= 1
    assert sol.z.size == nlp.n_vars


def test_ascent_direction_is_never_accepted():
    # an indefinite seed makes the first QP step point uphill: z = 1 -> 3
    nlp = NlpProblem(
        n_vars=1,
        objective=lambda z: float(z[0] ** 2),
        constraints=lambda z: np.zeros(0),
        lower=np.zeros(0),
        upper=np.zeros(0),
        gradient=lambda z: np.array([2.0 * z[0]]),
        jacobian=lambda z: np.zeros((0, 1)),
    )
    sol = solve(nlp, np.array([1.0]), hessian0=np.array([[-1.0]]))
    objectives = [1.0] + [rec.objective for rec in sol.trace]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))
    assert sol.objective <= 1.0
    assert sol.status == "line-search-failure"


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(kkt_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)


def test_wrong_guess_length_rejected():
    with pytest.raises(ValueError):
        solve(_hand_qp(), np.zeros(3))


def _linear_growth(x, u, p, t):
    return x


def _control_energy(x, u, t):
    u = np.atleast_2d(u)
    return u[:, 0] ** 2


def _linear_growth_problem():
    return OcpDefinition(
        n_states=1, n_controls=1, n_params=0,
        dynamics=_linear_growth, jac_x=None, jac_p=None,
        running_cost=_control_energy, terminal_cost=None,
        nominal_params=np.zeros(0),
        time_domain=(0.0, 1.0),
        initial_state=np.array([1.0]),
        terminal_state=np.array([np.e]),
    )


def test_exponential_growth_reproduced_and_control_stays_zero():
    ocp = _linear_growth_problem()
    mesh = build_mesh(0.0, 1.0, 1, 10)
    nlp = transcribe(ocp, mesh)
    sol = solve(nlp, initial_guess(ocp, mesh))
    assert sol.status == "converged"
    traj = extract_solution(nlp, sol.z, objective_value=sol.objective)
    assert abs(traj.state_at(traj.tf)[0] - np.e) < 1e-8
    # u does not enter the dynamics, so any control effort is wasted
    U = np.vstack(traj.control_values)
    assert np.max(np.abs(U)) < 1e-6
    # interior values follow the true exponential closely
    for t in (0.25, 0.5, 0.75):
        assert traj.state_at(t)[0] == pytest.approx(np.exp(t), abs=1e-8)


def test_cold_start_example_problem_converges():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 4, 4)
    nlp = transcribe(ocp, mesh)
    z0 = initial_guess(ocp, mesh)
    sol = solve(nlp, z0)
    assert sol.status == "converged"
    assert sol.kkt_residual <= 1e-8
    assert sol.constraint_violation <= 1e-8
    traj = extract_solution(nlp, sol.z)
    assert traj.state_at(0.0)[0] == pytest.approx(1.5, abs=1e-8)
    assert traj.state_at(50.0)[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.objective > 0.0


def test_merit_trace_is_monotone():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 4, 4)
    nlp = transcribe(ocp, mesh)
    sol = solve(nlp, initial_guess(ocp, mesh))
    assert sol.status == "converged"
    assert len(sol.trace) >= 2
    for prev, curr in zip(sol.trace, sol.trace[1:]):
        phi_prev = prev.objective + curr.penalty * prev.violation
        phi_curr = curr.objective + curr.penalty * curr.violation
        assert phi_curr <= phi_prev + 1e-9 * (1.0 + abs(phi_prev))


def test_warm_start_dominance():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 4, 4)
    nlp = transcribe(ocp, mesh)
    cold = solve(nlp, initial_guess(ocp, mesh))
    assert cold.status == "converged"
    warm = solve(nlp, cold.z,
                 hessian0=nlp.lagrangian_hessian(cold.z, cold.multipliers),
                 multipliers0=cold.multipliers)
    assert warm.status == "converged"
    assert warm.iterations <= 2
    assert np.max(np.abs(warm.z - cold.z)) < 1e-7


def test_quasi_newton_update_is_made_only_for_a_next_step(monkeypatch):
    # the update after the converging step would never be used
    calls = []
    update = sqp._damped_bfgs_update

    def counted(B, s, y):
        calls.append(s)
        return update(B, s, y)

    monkeypatch.setattr(sqp, "_damped_bfgs_update", counted)
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 4, 4)
    nlp = transcribe(ocp, mesh)
    cold = solve(nlp, initial_guess(ocp, mesh))
    assert cold.converged and cold.iterations >= 2
    assert len(calls) == cold.iterations - 1
    # a seeded re-solve from a nearby point converges in a step or two
    del calls[:]
    z = cold.z + 1e-5 * np.random.default_rng(3).standard_normal(cold.z.size)
    lam = estimate_multipliers(nlp, z[None])[0]
    warm = solve(nlp, z, hessian0=nlp.lagrangian_hessian(z, lam),
                 multipliers0=lam)
    assert warm.converged and warm.iterations >= 1
    assert len(calls) == warm.iterations - 1


def test_initial_guess_shape_and_boundary_values():
    ocp, make_spec = example_problem()
    from guidedog.sensitivity import augment
    aug = augment(ocp, make_spec(5.0, 0.01))
    mesh = build_mesh(0.0, 50.0, 4, 4)
    z0 = initial_guess(aug, mesh)
    nlp = transcribe(aug, mesh)
    assert z0.size == nlp.n_vars
    X, U = nlp.layout.split(z0)
    # physical state runs linearly 1.5 -> 1.0; sensitivity stays zero
    assert X[0, 0] == 1.5 and X[-1, 0] == 1.0
    assert np.all(X[:, 1] == 0.0)
    assert np.all(U == 0.0)
    mids = np.nonzero((X[:, 0] < 1.5) & (X[:, 0] > 1.0))[0]
    assert mids.size == X.shape[0] - 2
    # pinned boundary rows of the transcription hold exactly
    c = nlp.constraints(z0)
    n_defects = sum(mesh.orders) * 2
    assert np.all(c[n_defects:n_defects + 3] == 0.0)


def test_initial_guess_descends_monotonically_in_time():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 5, 3)
    z0 = initial_guess(ocp, mesh)
    nlp = transcribe(ocp, mesh)
    X, _ = nlp.layout.split(z0)
    assert np.all(np.diff(X[:, 0]) < 0.0)


def test_estimate_multipliers_recovers_hand_qp_multiplier():
    # the hand QP's hooks take one point only, so its least-squares
    # estimate is formed from their values directly
    nlp, z = _hand_qp(), np.array([2.0, 1.0])
    lam = _least_squares_multipliers(nlp.gradient(z), nlp.jacobian(z))
    assert lam.shape == (1,)
    assert lam[0] == pytest.approx(-2.0, abs=1e-9)


def test_estimate_multipliers_rejects_a_point_that_is_not_a_stack():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 4, 4)
    nlp = transcribe(ocp, mesh)
    calls = []
    for name in ("gradient", "jacobian"):
        hook = getattr(nlp, name)
        setattr(nlp, name, lambda z, hook=hook: calls.append(z) or hook(z))
    z = initial_guess(ocp, mesh)
    for bad in (z, z[None, None], z[None, :-1]):
        with pytest.raises(ValueError, match="shape"):
            estimate_multipliers(nlp, bad)
    assert calls == []
    assert estimate_multipliers(nlp, z[None]).shape == (1, nlp.lower.size)


def _full_row_rank(rng, m, n):
    # m x n with singular values in [0.1, 10]: condition number <= 100
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return (U * rng.uniform(0.1, 10.0, m)) @ V.T


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       m=st.integers(1, 40))
def test_least_squares_multipliers_match_lstsq(seed, n, m):
    m = min(m, n)
    rng = np.random.default_rng(seed)
    J = _full_row_rank(rng, m, n)
    g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
    lam = _least_squares_multipliers(g, J)
    want = np.linalg.lstsq(J.T, -g, rcond=None)[0]
    assert lam.shape == (m,)
    assert np.max(np.abs(lam - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       m=st.integers(1, 40))
def test_duplicated_row_falls_back_to_minimum_norm(seed, n, m):
    m = min(m, n)
    rng = np.random.default_rng(seed)
    J = _full_row_rank(rng, m, n)
    g = rng.standard_normal(n)
    i = int(rng.integers(m))
    J_dup = np.insert(J, int(rng.integers(m + 1)), J[i], axis=0)
    lam = _least_squares_multipliers(g, J_dup)
    assert np.array_equal(lam, np.linalg.lstsq(J_dup.T, -g, rcond=None)[0])
    # the minimum-norm estimate splits the row's multiplier evenly
    rows = [r for r in range(m + 1) if np.array_equal(J_dup[r], J[i])]
    single = np.linalg.lstsq(J.T, -g, rcond=None)[0]
    assert len(rows) == 2
    assert lam[rows[0]] == pytest.approx(0.5 * single[i], rel=1e-8, abs=1e-12)
    assert lam[rows[1]] == pytest.approx(lam[rows[0]], rel=1e-8, abs=1e-12)


def test_hessian_seed_resolves_perturbed_example_quickly():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 4, 4)
    nlp = transcribe(ocp, mesh)
    sol = solve(nlp, initial_guess(ocp, mesh))
    assert sol.status == "converged"
    rng = np.random.default_rng(3)
    z = sol.z + 1e-5 * rng.standard_normal(sol.z.size)
    lam = estimate_multipliers(nlp, z[None])[0]
    hess = nlp.lagrangian_hessian(z, lam)
    warm = solve(nlp, z, hessian0=hess, multipliers0=lam)
    assert warm.status == "converged"
    assert warm.iterations <= 2


@pytest.mark.parametrize("order", range(8, 15))
def test_cold_start_converges_on_graded_meshes(order):
    # the default mesh's interval fractions at orders around the shipped
    # one; damped BFGS alone stalls just above the tolerance on 12x11
    # and 12x12 and runs out of iterations on 12x13 and 12x14
    ocp, _ = example_problem(alpha=2.0)
    mesh = build_mesh(0.0, 50.0, 12, order,
                      fractions=example_mesh().tau_boundaries)
    nlp = transcribe(ocp, mesh)
    sol = solve(nlp, initial_guess(ocp, mesh))
    assert sol.converged, sol.status
    assert sol.kkt_residual <= 1e-8


def _double_well():
    # min z^4 - z^2: local minima at z = +-1/sqrt(2), a local maximum at
    # z = 0 where the Hessian 12 z^2 - 2 is negative
    return NlpProblem(
        n_vars=1,
        objective=lambda z: float(z[0] ** 4 - z[0] ** 2),
        constraints=lambda z: np.zeros(0),
        lower=np.zeros(0),
        upper=np.zeros(0),
        gradient=lambda z: np.array([4.0 * z[0] ** 3 - 2.0 * z[0]]),
        jacobian=lambda z: np.zeros((0, 1)),
        lagrangian_hessian=lambda z, lam: np.array([[12.0 * z[0] ** 2 - 2.0]]),
    )


def test_indefinite_exact_hessian_is_not_used_for_newton_steps():
    nlp = _double_well()
    z0 = np.array([0.1])
    sol = solve(nlp, z0)
    assert sol.converged, sol.status
    assert abs(sol.z[0]) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)
    # a Newton step on the negative curvature would head for the
    # stationary point z = 0, whose objective lies above the start
    f0 = nlp.objective(z0)
    assert all(rec.objective < f0 for rec in sol.trace)


@pytest.mark.parametrize("seed", range(12))
def test_newton_inertia_matches_eigenvalue_count(seed):
    rng = np.random.default_rng(seed)
    n, me = 9, 4
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    curv = rng.uniform(0.5, 2.0, n)
    curv[: seed % 3] *= -1.0      # zero, one or two directions of negative curvature
    H = (Q * curv) @ Q.T
    Je = rng.standard_normal((me, n))
    K = np.block([[H, Je.T], [Je, np.zeros((me, me))]])
    eigs = np.linalg.eigvalsh(K)
    expected = (np.sum(eigs > 1e-9) == n) and (np.sum(eigs < -1e-9) == me)
    assert (_kkt_ldl(H, Je)[3] == (n, me, 0)) == expected
    if seed % 3 == 1:
        # constraining the one negative direction leaves a reduced
        # Hessian that is positive definite
        assert _kkt_ldl(H, np.vstack([Q[:, 0], Je[1:]]))[3] == (n, me, 0)
    # a repeated constraint row makes the KKT matrix singular
    assert _kkt_ldl(H, np.vstack([Je, Je[:1]]))[3] != (n, me + 1, 0)


def _hidden_banded_kkt(rng, n_blocks, block, m, window):
    # SPD diagonal blocks of H (one per collocation point, say) and rows
    # of A that each couple a window of neighbouring variables, then one
    # random permutation of the variables and one of the rows
    n = n_blocks * block
    H = np.zeros((n, n))
    for k in range(n_blocks):
        R = rng.standard_normal((block, block))
        H[k * block:(k + 1) * block, k * block:(k + 1) * block] = \
            R @ R.T + block * np.eye(block)
    A = np.zeros((m, n))
    for i in range(m):
        start = (i * (n - window)) // max(m - 1, 1)
        A[i, start:start + window] = rng.standard_normal(window)
    var, row = rng.permutation(n), rng.permutation(m)
    return H[np.ix_(var, var)], A[np.ix_(row, var)]


def _kkt_residual(H, A, g, b, d, lam):
    return np.linalg.norm(np.concatenate([H @ d + A.T @ lam + g, A @ d - b]))


@contextlib.contextmanager
def _banded_calls():
    # the (lower, upper) bandwidths of every banded solve made inside
    calls = []
    banded = sqp.solve_banded

    def spy(*args, **kwargs):
        calls.append(args[0])
        return banded(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sqp, "solve_banded", spy)
        yield calls


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.integers(1, 4),
       extra=st.integers(0, 40), window=st.integers(2, 6))
def test_hidden_block_banded_kkt_is_solved_banded(seed, block, extra,
                                                  window):
    rng = np.random.default_rng(seed)
    n_blocks = -(-sqp.BANDED_MIN_ORDER // block) + extra
    n = n_blocks * block
    m = int(rng.integers(1, n // 2 + 1))
    H, A = _hidden_banded_kkt(rng, n_blocks, block, m, window)
    assume(np.linalg.svd(A, compute_uv=False)[-1] > 1e-3)
    g, b = rng.standard_normal(n), rng.standard_normal(m)
    with _banded_calls() as calls:
        d, lam = _solve_kkt(H, A, g, b)
    assert len(calls) == 1
    width = calls[0][0]
    assert calls[0] == (width, width)
    assert width <= sqp.BANDED_MAX_WIDTH_FRACTION * (n + m)
    rhs = np.linalg.norm(np.concatenate([g, b]))
    assert _kkt_residual(H, A, g, b, d, lam) <= 1e-8 * (1.0 + rhs)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
       m=st.integers(1, 40))
def test_dense_hessian_or_wide_pattern_takes_the_dense_path(seed, n, m):
    # large enough for the banded path, but a quasi-Newton matrix is
    # full, and dense constraint rows leave no narrow ordering even for
    # a diagonal Hessian
    n += sqp.BANDED_MIN_ORDER
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    A = rng.standard_normal((m, n))
    g, b = rng.standard_normal(n), rng.standard_normal(m)
    rhs = np.linalg.norm(np.concatenate([g, b]))
    for H in (R @ R.T + n * np.eye(n), np.diag(rng.uniform(0.5, 2.0, n))):
        with _banded_calls() as calls:
            d, lam = _solve_kkt(H, A, g, b)
        assert calls == []
        assert _kkt_residual(H, A, g, b, d, lam) <= 1e-8 * (1.0 + rhs)


def test_small_kkt_takes_the_dense_path():
    # below BANDED_MIN_ORDER the ordering costs more than a dense LU
    rng = np.random.default_rng(0)
    n_blocks = sqp.BANDED_MIN_ORDER // 4
    H, A = _hidden_banded_kkt(rng, n_blocks, 2, n_blocks - 1, 4)
    g, b = rng.standard_normal(2 * n_blocks), rng.standard_normal(n_blocks - 1)
    with _banded_calls() as calls:
        d, lam = _solve_kkt(H, A, g, b)
    assert calls == []
    assert _kkt_residual(H, A, g, b, d, lam) <= 1e-10


def _dense_kkt_solve(H, A, g, b):
    # the dense path: a Bunch-Kaufman LDL' solve, and the minimum-norm
    # least-squares solution when it meets a zero pivot or fails its
    # residual test
    m = A.shape[0]
    K = np.block([[H, A.T], [A, np.zeros((m, m))]])
    rhs = np.concatenate([-g, b])
    sytrf, sytrf_lwork, sytrs = get_lapack_funcs(
        ("sytrf", "sytrf_lwork", "sytrs"), (K,))
    lwork = int(sytrf_lwork(K.shape[0], lower=1)[0])
    ldu, ipiv, info = sytrf(np.asfortranarray(K), lower=1, lwork=lwork)
    if info == 0:
        sol = sytrs(ldu, ipiv, rhs, lower=1)[0]
        if np.linalg.norm(K @ sol - rhs) \
                <= 1e-8 * (1.0 + np.linalg.norm(rhs)):
            return sol
    return np.linalg.lstsq(K, rhs, rcond=None)[0]


@pytest.mark.parametrize("seed", range(8))
def test_singular_banded_kkt_falls_through_to_the_dense_path(seed):
    # a repeated constraint row (with a consistent right-hand side) makes
    # the KKT matrix exactly singular: the band LU meets a zero pivot or
    # fails the residual check, and the dense path answers (an LDL'
    # solution that passes the check, else lstsq's)
    rng = np.random.default_rng(seed)
    n_blocks, m = sqp.BANDED_MIN_ORDER // 2, sqp.BANDED_MIN_ORDER // 3
    H, A = _hidden_banded_kkt(rng, n_blocks, 2, m, 4)
    i = int(rng.integers(m))
    A = np.vstack([A, A[i]])
    g, b = rng.standard_normal(2 * n_blocks), rng.standard_normal(m)
    b = np.append(b, b[i])
    with _banded_calls() as calls:
        d, lam = _solve_kkt(H, A, g, b)
    assert len(calls) == 1
    assert np.array_equal(np.concatenate([d, lam]),
                          _dense_kkt_solve(H, A, g, b))


@pytest.mark.parametrize("seed", range(8))
def test_small_singular_kkt_returns_the_least_squares_solution(seed):
    # a repeated constraint row with a different right-hand side: no
    # solution passes the residual test, whether the LDL' factorization
    # meets an exactly zero pivot or not
    rng = np.random.default_rng(seed)
    n, m = 12, 5
    H = np.diag(rng.uniform(0.5, 2.0, n))
    A = rng.standard_normal((m, n))
    A = np.vstack([A, A[seed % m]])
    g, b = rng.standard_normal(n), rng.standard_normal(m + 1)
    assert n + m + 1 < sqp.BANDED_MIN_ORDER
    d, lam = _solve_kkt(H, A, g, b)
    K = np.block([[H, A.T], [A, np.zeros((m + 1, m + 1))]])
    expected = np.linalg.lstsq(K, np.concatenate([-g, b]), rcond=None)[0]
    assert np.array_equal(np.concatenate([d, lam]), expected)


def test_a_newton_step_factors_its_kkt_matrix_once(monkeypatch):
    # min sum(z^4)/4 + |z - t|^2/2 s.t. A z = b: the first (quasi-Newton)
    # step lands on the linear constraints, and every later step is a
    # Newton step whose inertia test and solve share one LDL' factorization
    rng = np.random.default_rng(0)
    n, m = 12, 4
    t, A, b = rng.standard_normal(n), rng.standard_normal((m, n)), \
        rng.standard_normal(m)
    events = []

    def hessian(z, lam):
        events.append("hessian")
        return np.diag(3.0 * z ** 2 + 1.0)

    nlp = NlpProblem(
        n_vars=n,
        objective=lambda z: float(0.25 * np.sum(z ** 4)
                                  + 0.5 * np.sum((z - t) ** 2)),
        constraints=lambda z: A @ z,
        lower=b, upper=b,
        gradient=lambda z: z ** 3 + z - t,
        jacobian=lambda z: A,
        lagrangian_hessian=hessian,
    )
    lapack, banded, dense = sqp.get_lapack_funcs, sqp.solve_banded, \
        np.linalg.solve

    def logged(name, func):
        def call(*args, **kwargs):
            events.append(name)
            return func(*args, **kwargs)
        return call

    def lapack_spy(names, arrays):
        return tuple(logged(name, func) for name, func
                     in zip(names, lapack(names, arrays)))

    def dense_spy(a, rhs):
        if a.shape[0] == n + m:
            events.append("getrf")
        return dense(a, rhs)

    monkeypatch.setattr(sqp, "get_lapack_funcs", lapack_spy)
    monkeypatch.setattr(sqp, "solve_banded", logged("banded", banded))
    monkeypatch.setattr(np.linalg, "solve", dense_spy)
    sol = solve(nlp, np.zeros(n))
    assert sol.converged, sol.status
    first, *newton = " ".join(e for e in events if e != "sytrf_lwork") \
        .split("hessian")
    assert first.split() == ["sytrf", "sytrs"]
    assert len(newton) == sol.iterations - 1 >= 2
    assert all(step.split() == ["sytrf", "sytrs"] for step in newton)


def test_lock_stepped_lanes_equal_their_solo_solves():
    # four OG re-solves at t = 4 s on one lane-stacked NLP, seeded the
    # way guidance seeds a polish, whose paths part: the nominal handoff
    # converges in one step, x(4) = 8 backtracks and converges, x(4) = 9
    # runs out of iterations, and x(4) = 1e4 tries the second-order
    # correction and every backtrack of its first line search, and
    # fails.  Every lane is the bytes of its solve alone.
    from guidedog.guidance import GuidanceConfig, _warm_vectors, solve_reference

    ocp, _ = example_problem()
    reference, _ = solve_reference(ocp, None, GuidanceConfig(method="OC"))
    mesh = example_mesh().with_time_domain(4.0, 50.0)
    problems = [ocp.with_initial_state(x, time_domain=(4.0, 50.0))
                for x in (reference.state_at(4.0), [8.0], [9.0], [1e4])]
    opts = SolverOptions(max_iterations=20)

    def seeded(nlp, pins, calls):
        objective = nlp.objective
        nlp.objective = lambda z: calls.append(np.ndim(z)) or objective(z)
        Z = _warm_vectors([reference] * len(pins), nlp, pins)
        mu = estimate_multipliers(nlp, Z)
        return Z, nlp.lagrangian_hessian(Z, mu), mu

    pins = np.stack([p.initial_state for p in problems])
    nlp = transcribe(problems[0], mesh, initial_states=pins)
    rounds = []
    Z, H, mu = seeded(nlp, pins, rounds)
    together = sqp.solve_lanes(nlp, Z, opts, hessian0=H, multipliers0=mu)
    alone, solo_calls = [], []
    for problem in problems:
        single = transcribe(problem, mesh)
        Z, H, mu = seeded(single, problem.initial_state[None], solo_calls)
        alone.append(solve(single, Z[0], opts, hessian0=H[0],
                           multipliers0=mu[0]))
    for got, want in zip(together, alone):
        assert got.z.tobytes() == want.z.tobytes()
        assert got.multipliers.tobytes() == want.multipliers.tobytes()
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert got.trace == want.trace
    assert [(sol.status, sol.iterations) for sol in together] == [
        ("converged", 1), ("converged", 20), ("max-iterations", 20),
        ("line-search-failure", 0)]
    assert min(r.step_length for r in together[1].trace) < 1.0
    # each round evaluates the trial points of all its lanes in one
    # stacked call, so the lanes together make fewer calls than alone
    assert set(rounds) == {2} and len(rounds) < len(solo_calls)


def test_lock_stepped_lanes_pin_their_hook_call_census():
    # the four lanes of test_lock_stepped_lanes_equal_their_solo_solves:
    # each turn serves every pending request of one kind in one stacked
    # call, Hessian before trial points before accepted points, so a
    # scheduler that splits a round or serves the kinds out of order
    # changes these counts
    from guidedog.guidance import GuidanceConfig, _warm_vectors, solve_reference

    ocp, _ = example_problem()
    reference, _ = solve_reference(ocp, None, GuidanceConfig(method="OC"))
    mesh = example_mesh().with_time_domain(4.0, 50.0)
    pins = np.array([reference.state_at(4.0), [8.0], [9.0], [1e4]])
    nlp = transcribe(ocp.with_initial_state(pins[0], time_domain=(4.0, 50.0)),
                     mesh, initial_states=pins)
    Z = _warm_vectors([reference] * 4, nlp, pins)
    mu = estimate_multipliers(nlp, Z)
    H = nlp.lagrangian_hessian(Z, mu)
    calls = {}
    for name in ("objective", "constraints", "gradient", "jacobian",
                 "lagrangian_hessian"):
        def call(z, *args, name=name, hook=getattr(nlp, name)):
            calls.setdefault(name, []).append(len(z))
            return hook(z, *args)
        setattr(nlp, name, call)
    sols = sqp.solve_lanes(nlp, Z, SolverOptions(max_iterations=20),
                           hessian0=H, multipliers0=mu)
    assert [sol.status for sol in sols] == [
        "converged", "converged", "max-iterations", "line-search-failure"]
    assert {name: len(rows) for name, rows in calls.items()} == {
        "objective": 151, "constraints": 151, "gradient": 21,
        "jacobian": 21, "lagrangian_hessian": 1}
    assert sum(sum(rows) for rows in calls.values()) == 477
    # every lane's start point in one call per hook
    assert [calls[name][0] for name in ("objective", "constraints",
                                        "gradient", "jacobian")] == [4] * 4


def test_a_misshaped_lane_seed_is_rejected_before_any_hook_call():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 2, 3)
    nlp = transcribe(ocp, mesh, initial_states=np.array([[1.5], [1.2]]))
    z = initial_guess(ocp, mesh)
    calls = []
    for name in ("objective", "constraints", "gradient", "jacobian",
                 "lagrangian_hessian"):
        setattr(nlp, name, lambda *args, name=name: calls.append(name))
    seeds = [np.eye(z.size), np.eye(z.size - 1)]
    with pytest.raises(ValueError, match="hessian0 has shape"):
        sqp.solve_lanes(nlp, np.stack([z, z]), hessian0=seeds)
    # one seed short of the lanes: an IndexError once a lane started
    with pytest.raises(ValueError, match="hessian0 has 1 entries for 2"):
        sqp.solve_lanes(nlp, np.stack([z, z]), hessian0=seeds[:1])
    lam = np.zeros(nlp.n_constraints)
    with pytest.raises(ValueError, match="multipliers0 has 1 entries for 2"):
        sqp.solve_lanes(nlp, np.stack([z, z]), multipliers0=[lam])
    with pytest.raises(ValueError, match="multipliers0 has shape"):
        sqp.solve_lanes(nlp, np.stack([z, z]), multipliers0=[lam, lam[:-3]])
    # a one-lane solve whose multiplier seed is short: it used to drop
    # the seed and start from its own estimate and a unit penalty
    alone = transcribe(ocp, mesh)
    for name in ("objective", "constraints", "gradient", "jacobian",
                 "lagrangian_hessian"):
        setattr(alone, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(ValueError, match="multipliers0 has shape"):
        solve(alone, z, hessian0=np.eye(z.size), multipliers0=lam[:-3])
    assert calls == []


def test_lanes_must_match_the_nlp():
    ocp, _ = example_problem()
    mesh = build_mesh(0.0, 50.0, 2, 3)
    nlp = transcribe(ocp, mesh, initial_states=np.array([[1.5], [1.2]]))
    z = initial_guess(ocp, mesh)
    with pytest.raises(ValueError, match="1 guesses for an NLP of 2 lanes"):
        solve(nlp, z)
    with pytest.raises(ValueError, match="shape"):
        sqp.solve_lanes(nlp, np.stack([z, z])[:, :-1])
