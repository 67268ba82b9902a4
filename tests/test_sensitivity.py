import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from guidedog.ocp import DesensitizationSpec, OcpDefinition, example_problem
from guidedog.sensitivity import (
    augment,
    penalty_value,
    unvec_sensitivity,
    vec_sensitivity,
)


def scalar_spec(beta=1.0, p_var=1.0):
    return DesensitizationSpec(
        penalty_jacobian=lambda x: np.array([[1.0]]),
        terminal_weight=np.array([[beta]]),
        param_covariance=np.array([[p_var]]),
    )


def test_penalty_zero_sensitivity():
    assert penalty_value(np.zeros((3, 2)), np.eye(3), np.eye(3), np.eye(2)) == 0.0


def test_penalty_scalar_hand_values():
    # tr(W G S P S G): 3 * (1*2) * 4 * (2*1) = 48
    assert_allclose(penalty_value([[2.0]], [[1.0]], [[3.0]], [[4.0]]), 48.0)
    # 5 * 4e-4 * 2^2 = 8e-3
    assert_allclose(penalty_value([[2.0]], [[1.0]], [[5.0]], [[4e-4]]), 8e-3)
    # 10 * 0.04^2 * 3^2 = 0.144
    assert_allclose(penalty_value([[3.0]], [[1.0]], [[10.0]], [[0.04**2]]), 0.144)


def test_penalty_frobenius_identity():
    rng = np.random.default_rng(3)
    S = rng.standard_normal((3, 2))
    assert_allclose(penalty_value(S, np.eye(3), np.eye(3), np.eye(2)),
                    np.sum(S**2))


def test_penalty_of_a_stack_is_the_penalty_of_each_matrix():
    rng = np.random.default_rng(6)
    S = rng.standard_normal((5, 3, 2))
    G = rng.standard_normal((5, 2, 3))
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    P = np.diag([0.3, 1.7])
    stacked = penalty_value(S, G, W, P)
    assert stacked.shape == (5,)
    assert_allclose(stacked, [penalty_value(S[i], G[i], W, P) for i in range(5)],
                    rtol=1e-13)
    # one G shared by every matrix of the stack
    assert_allclose(penalty_value(S, G[0], W, P),
                    [penalty_value(S[i], G[0], W, P) for i in range(5)],
                    rtol=1e-13)


def test_penalty_sign_invariance_and_monotonicity():
    rng = np.random.default_rng(4)
    S = rng.standard_normal((2, 2))
    G = rng.standard_normal((2, 2))
    P = np.diag([0.5, 2.0])
    w_small, w_big = np.eye(2), 3.0 * np.eye(2)
    assert_allclose(penalty_value(S, G, w_small, P), penalty_value(-S, G, w_small, P))
    assert penalty_value(S, G, w_big, P) >= penalty_value(S, G, w_small, P)
    assert penalty_value(S, G, w_small, P) >= 0.0


def test_vec_is_column_major():
    S = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert_allclose(vec_sensitivity(S), [1.0, 2.0, 3.0, 4.0])
    assert_allclose(unvec_sensitivity([1.0, 2.0, 3.0, 4.0], 2, 2), S)


def test_augment_dimensions_and_boundaries():
    ocp, make_spec = example_problem(2.0)
    aug = augment(ocp, make_spec(beta=5.0, q=0.01))
    assert aug.n_aug == 2
    assert aug.ocp.n_states == 2
    assert_allclose(aug.ocp.initial_state, [1.5, 0.0])
    assert_allclose(aug.ocp.terminal_state[0], 1.0)
    assert np.isnan(aug.ocp.terminal_state[1])
    assert_allclose(aug.s0, [[0.0]])


def test_augment_rejects_mismatched_shapes():
    ocp, _ = example_problem(2.0)
    bad = DesensitizationSpec(
        penalty_jacobian=lambda x: np.eye(2),  # r x n should be r x 1
        terminal_weight=np.eye(2),
        param_covariance=np.eye(1),
    )
    with pytest.raises(ValueError, match="penalty_jacobian"):
        augment(ocp, bad)
    with pytest.raises(ValueError, match=r"s0"):
        augment(ocp, scalar_spec(), s0=np.zeros((2, 2)))


def test_augment_rejects_double_augmentation():
    ocp, make_spec = example_problem(2.0)
    aug = augment(ocp, make_spec(5.0, 0.01))
    with pytest.raises(TypeError):
        augment(aug, make_spec(5.0, 0.01))


def test_augmented_dynamics_example_value():
    # at (x, u, a, S) = (1.5, 0, 2, 0): dS/dt = A*0 + B = -13.5
    ocp, make_spec = example_problem(2.0)
    aug = augment(ocp, make_spec(beta=5.0, q=0.01))
    rate = aug.ocp.dynamics(np.array([[1.5, 0.0]]), np.array([[0.0]]),
                            np.array([2.0]), 0.0)[0]
    assert_allclose(rate, [-13.5, -13.5])


def test_augmented_dynamics_vec_ordering():
    # linear system dx/dt = A0 x + B0 p checked against a hand-stacked rate
    A0 = np.array([[0.1, -0.4], [0.7, 0.2]])
    B0 = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
    ocp = OcpDefinition(
        n_states=2, n_controls=0, n_params=3,
        dynamics=lambda x, u, p, t: x @ A0.T + B0 @ p,
        jac_x=lambda x, u, p, t: np.broadcast_to(A0, (len(x),) + A0.shape),
        jac_p=lambda x, u, p, t: np.broadcast_to(B0, (len(x),) + B0.shape),
        running_cost=None, terminal_cost=None,
        nominal_params=np.array([0.3, -0.2, 0.5]),
        time_domain=(0.0, 1.0),
    )
    spec = DesensitizationSpec(
        penalty_jacobian=lambda x: np.eye(2),
        terminal_weight=np.eye(2),
        param_covariance=np.eye(3),
    )
    aug = augment(ocp, spec)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(2)
    S = rng.standard_normal((2, 3))
    xa = np.concatenate((x, vec_sensitivity(S)))
    rate = aug.ocp.dynamics(xa[None], np.zeros((1, 0)), ocp.nominal_params,
                            0.0)[0]
    assert_allclose(rate[:2], A0 @ x + B0 @ ocp.nominal_params)
    assert_allclose(unvec_sensitivity(rate[2:], 2, 3), A0 @ S + B0)


def test_zero_weights_degenerate_to_base_cost():
    ocp, make_spec = example_problem(2.0)
    aug = augment(ocp, make_spec(beta=0.0, q=0.01))
    rng = np.random.default_rng(9)
    for _ in range(5):
        xa = rng.standard_normal((1, 2))
        u = rng.standard_normal((1, 1))
        assert_allclose(aug.ocp.running_cost(xa, u, 3.0),
                        ocp.running_cost(xa[:, :1], u, 3.0))
        assert aug.ocp.terminal_cost(xa, 0.0, rng.standard_normal((1, 2)),
                                     50.0) == 0.0


def test_sensitivity_analytic_linear_oracle():
    # dx/dt = p x has x = x0 e^{pt}, so S = dx/dp = x0 t e^{pt}.
    ocp = OcpDefinition(
        n_states=1, n_controls=0, n_params=1,
        dynamics=lambda x, u, p, t: p[0] * x,
        jac_x=lambda x, u, p, t: np.full((len(x), 1, 1), p[0]),
        jac_p=lambda x, u, p, t: x[:, :, None],
        running_cost=None, terminal_cost=None,
        nominal_params=np.array([0.7]),
        time_domain=(0.0, 2.0),
    )
    aug = augment(ocp, scalar_spec())
    x0 = 1.3
    sol = solve_ivp(
        lambda t, y: aug.ocp.dynamics(y[None], np.zeros((1, 0)),
                                      ocp.nominal_params, t)[0],
        (0.0, 2.0), [x0, 0.0], rtol=1e-11, atol=1e-12, method="DOP853",
    )
    s_end = sol.y[1, -1]
    assert_allclose(s_end, x0 * 2.0 * np.exp(0.7 * 2.0), rtol=1e-8)


def test_sensitivity_matches_central_differences():
    # Example problem under a fixed open-loop control: propagate the
    # augmented dynamics at nominal alpha and compare S(tf) to central
    # finite differences of x(tf) over alpha.
    alpha, delta = 2.0, 1e-5
    ocp, make_spec = example_problem(alpha)
    aug = augment(ocp, make_spec(beta=5.0, q=0.01))

    def control(t):
        return np.array([0.6 * np.exp(-0.08 * t) - 0.2 * np.sin(0.3 * t)])

    def x_end(a):
        sol = solve_ivp(
            lambda t, y: ocp.dynamics(y, control(t), np.array([a]), t),
            (0.0, 50.0), [1.5], rtol=1e-11, atol=1e-12, method="DOP853",
        )
        return sol.y[0, -1]

    sol = solve_ivp(
        lambda t, y: aug.ocp.dynamics(y[None], control(t)[None],
                                      np.array([alpha]), t)[0],
        (0.0, 50.0), [1.5, 0.0], rtol=1e-11, atol=1e-12, method="DOP853",
    )
    s_end = sol.y[1, -1]
    fd = (x_end(alpha + delta) - x_end(alpha - delta)) / (2.0 * delta)
    assert abs(s_end - fd) / abs(fd) < 1e-4


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sensitivity_stacks(draw):
    # a (P, n, m) stack of sensitivity matrices, any finite values
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 5)),
             draw(st.integers(1, 4)))
    return draw(arrays(np.float64, shape, elements=_finite))


@settings(max_examples=200, deadline=None)
@given(sensitivity_stacks())
def test_unvec_inverts_vec_bit_for_bit(stack):
    n, m = stack.shape[1:]
    for S in stack:
        back = unvec_sensitivity(vec_sensitivity(S), n, m)
        assert back.shape == S.shape
        assert back.tobytes() == S.tobytes()


@settings(max_examples=200, deadline=None)
@given(sensitivity_stacks())
def test_batched_vec_matches_per_row_column_major(stack):
    P, n, m = stack.shape
    rows = vec_sensitivity(stack)
    assert rows.shape == (P, n * m)
    for i in range(P):
        assert rows[i].tobytes() == vec_sensitivity(stack[i]).tobytes()
        assert rows[i].tobytes() == stack[i].ravel(order="F").tobytes()
    mats = unvec_sensitivity(rows, n, m)
    assert mats.shape == (P, n, m)
    for i in range(P):
        assert mats[i].tobytes() == unvec_sensitivity(rows[i], n, m).tobytes()
        assert mats[i].tobytes() == stack[i].tobytes()


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5),
                 st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_finite)))
def test_vec_of_any_leading_axes_is_each_matrix_column_major(stack):
    # an (A, B, n, m) stack: vec and unvec act on the last two axes only
    A, B, n, m = stack.shape
    rows = vec_sensitivity(stack)
    assert rows.shape == (A, B, n * m)
    back = unvec_sensitivity(rows, n, m)
    assert back.shape == stack.shape
    for a in range(A):
        for b in range(B):
            assert rows[a, b].tobytes() == stack[a, b].ravel(order="F").tobytes()
            assert back[a, b].tobytes() == stack[a, b].tobytes()
