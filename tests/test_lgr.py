import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

from guidedog.lgr import (
    basis,
    barycentric_eval,
    barycentric_weights,
    differentiation_matrix,
    legendre_eval,
    lgr_nodes,
    lgr_weights,
)
from guidedog.trajectory import Trajectory


def test_legendre_low_orders():
    v, d = legendre_eval(0, 0.3)
    assert v == 1.0 and d == 0.0
    v, d = legendre_eval(1, -0.5)
    assert v == -0.5 and d == 1.0
    # P_2(t) = (3 t^2 - 1) / 2, expanded by hand
    v, d = legendre_eval(2, 0.5)
    assert_allclose(v, -0.125, atol=1e-15)
    assert_allclose(d, 1.5, atol=1e-15)


def test_legendre_endpoint_values():
    for n in range(8):
        v1, _ = legendre_eval(n, 1.0)
        vm1, _ = legendre_eval(n, -1.0)
        assert_allclose(v1, 1.0, atol=1e-14)
        assert_allclose(vm1, (-1.0) ** n, atol=1e-14)


def test_legendre_rejects_negative_degree():
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.0)


def test_nodes_n1():
    assert_allclose(lgr_nodes(1), [-1.0])
    assert_allclose(lgr_weights(lgr_nodes(1)), [2.0])


def test_nodes_n2_quadratic_formula():
    # P_1 + P_2 = (3 tau^2 + 2 tau - 1) / 2; quadratic formula gives -1 and 1/3
    assert_allclose(lgr_nodes(2), [-1.0, 1.0 / 3.0], atol=1e-15)
    assert_allclose(lgr_weights(lgr_nodes(2)), [0.5, 1.5], atol=1e-15)


def test_nodes_n3_against_polynomial_roots():
    # P_2 + P_3 = (5 t^3 + 3 t^2 - 3 t - 1) / 2, roots from numpy's
    # companion-matrix root finder as an independent oracle.
    expected = np.sort(np.roots([5.0, 3.0, -3.0, -1.0]).real)
    assert_allclose(lgr_nodes(3), expected, atol=1e-13)


@pytest.mark.parametrize("n", range(2, 26))
def test_nodes_match_jacobi_roots(n):
    # Interior LGR points are the roots of the Jacobi polynomial
    # P_{n-1}^(0,1); scipy computes those via Golub-Welsch.
    interior, _ = roots_jacobi(n - 1, 0.0, 1.0)
    assert_allclose(lgr_nodes(n)[1:], interior, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 41))
def test_node_ordering_and_weights(n):
    nodes = lgr_nodes(n)
    w = lgr_weights(nodes)
    assert nodes[0] == -1.0
    assert np.all(np.diff(nodes) > 0)
    assert nodes[-1] < 1.0
    assert np.all(w > 0)
    assert abs(w.sum() - 2.0) < 1e-12


@pytest.mark.parametrize("n", range(1, 21))
def test_quadrature_exactness(n):
    # n-point LGR quadrature integrates monomials up to degree 2n - 2.
    nodes = lgr_nodes(n)
    w = lgr_weights(nodes)
    for d in range(2 * n - 1):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(w @ nodes**d - exact) < 1e-12, f"degree {d}"


def test_diff_matrix_n1_hand_case():
    # Supports {-1, +1}: l_0 = (1 - tau)/2, l_1 = (1 + tau)/2.
    assert_allclose(differentiation_matrix(np.array([-1.0])), [[-0.5, 0.5]], atol=1e-15)


@pytest.mark.parametrize("n", range(1, 21))
def test_diff_matrix_rows_and_monomials(n):
    b = basis(n)
    assert b.diff_matrix.shape == (n, n + 1)
    assert np.max(np.abs(b.diff_matrix.sum(axis=1))) < 1e-12
    for d in range(n + 1):
        got = b.diff_matrix @ b.support**d
        want = d * b.nodes ** (d - 1) if d > 0 else np.zeros(n)
        assert np.max(np.abs(got - want)) < 1e-11, f"degree {d}"


def test_diff_matrix_constant_samples():
    D = differentiation_matrix(np.array([-1.0]))
    assert_allclose(D @ np.array([4.2, 4.2]), [0.0], atol=1e-14)


def test_diff_matrix_tau_squared_n3():
    b = basis(3)
    assert_allclose(b.diff_matrix @ b.support**2, 2.0 * b.nodes, atol=1e-13)


def test_diff_matrix_rejects_duplicates():
    with pytest.raises(ValueError):
        differentiation_matrix(np.array([-1.0, 0.5]), noncollocated=0.5)


def test_diff_matrix_random_polynomial():
    rng = np.random.default_rng(7)
    for n in (2, 5, 9, 16):
        coeffs = rng.standard_normal(n + 1)
        p = np.polynomial.Polynomial(coeffs)
        b = basis(n)
        assert_allclose(b.diff_matrix @ p(b.support), p.deriv()(b.nodes),
                        atol=1e-10)


def test_basis_cache_returns_same_object():
    assert basis(6) is basis(6)


def _interp(nodes, values, tau):
    # one sample set, (N,) or (N, w), read at one tau as a one-lane stack
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    out = barycentric_eval(nodes, barycentric_weights(nodes),
                           values.reshape(1, nodes.size, -1), np.reshape(tau, 1))
    return out[0].reshape(values.shape[1:])


def _one_interval(n, state_fn, control_fn):
    # a single mesh interval on [-1, 1]: times are local tau up to rounding
    b = basis(n)
    return Trajectory(t0=-1.0, tf=1.0, interval_times=[-1.0, 1.0],
                      orders=(n,), state_values=[state_fn(b.support)[:, None]],
                      control_values=[control_fn(b.nodes)[:, None]],
                      n_states=1)


def test_interpolation_constant():
    assert_allclose(_interp([-1.0, 1.0], [3.0, 3.0], 0.0), 3.0, atol=1e-15)


def test_interpolation_polynomial_reproduction():
    # tau^2 through three points
    assert_allclose(_interp([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], 0.5), 0.25,
                    atol=1e-14)


def test_interpolation_node_identity_exact():
    nodes = np.concatenate((lgr_nodes(5), [1.0]))
    values = np.sin(nodes)
    for tau, val in zip(nodes, values):
        # exact node hits return the stored sample, not a recomputation
        assert _interp(nodes, values, tau) == val


def test_interpolation_analytic_function():
    nodes = np.concatenate((lgr_nodes(5), [1.0]))
    assert abs(_interp(nodes, np.sin(nodes), 0.2) - np.sin(0.2)) < 1e-4


def test_interpolation_vector_values():
    nodes = np.array([-1.0, 0.0, 1.0])
    vals = np.stack([nodes**2, nodes], axis=1)
    assert_allclose(_interp(nodes, vals, 0.5), [0.25, 0.5], atol=1e-14)


def test_interpolation_extrapolation_raises():
    traj = _one_interval(3, lambda t: t**2, lambda t: t)
    with pytest.raises(ValueError, match="outside"):
        traj.full_state_at(1.5)
    with pytest.raises(ValueError, match="outside"):
        traj.control_at(-1.0 - 1e-6)


def test_interpolation_widened_domain():
    # Controls evaluate past their last support node, up to the
    # mesh-interval endpoint.
    traj = _one_interval(4, lambda t: t, lambda t: t**3)
    assert_allclose(traj.control_at(1.0), [1.0], atol=1e-12)


def test_barycentric_weights_reject_duplicates():
    with pytest.raises(ValueError):
        barycentric_weights(np.array([0.0, 0.0, 1.0]))


def test_lgr_nodes_rejects_nonpositive():
    with pytest.raises(ValueError):
        lgr_nodes(0)


def test_large_order_still_converges():
    nodes = lgr_nodes(64)
    assert nodes.size == 64
    assert abs(lgr_weights(nodes).sum() - 2.0) < 1e-12
