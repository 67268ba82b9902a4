import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from guidedog.ocp import DesensitizationSpec, example_problem


@pytest.fixture
def example():
    ocp, make_spec = example_problem(2.0)
    return ocp, make_spec


def test_example_dimensions(example):
    ocp, _ = example
    assert (ocp.n_states, ocp.n_controls, ocp.n_params) == (1, 1, 1)
    assert ocp.time_domain == (0.0, 50.0)
    assert_allclose(ocp.initial_state, [1.5])
    assert_allclose(ocp.terminal_state, [1.0])


def test_example_dynamics_hand_value(example):
    # dx/dt = -a^2 x^3 + a u at (1.5, 0, a=2): -4 * 3.375 = -13.5
    ocp, _ = example
    x, u, p = np.array([1.5]), np.array([0.0]), np.array([2.0])
    assert_allclose(ocp.dynamics(x, u, p, 0.0), [-13.5])
    assert_allclose(ocp.jac_x(x, u, p, 0.0), [[-27.0]])
    assert_allclose(ocp.jac_p(x, u, p, 0.0), [[-13.5]])


def test_example_running_cost(example):
    ocp, _ = example
    assert_allclose(
        ocp.running_cost(np.array([1.0]), np.array([1.0]), 0.0), 1.0
    )


def test_example_vectorized_callbacks(example):
    ocp, _ = example
    xs = np.array([[1.5], [0.5], [-1.0]])
    us = np.array([[0.0], [1.0], [2.0]])
    p = ocp.nominal_params
    stacked = ocp.dynamics(xs, us, p, 0.0)
    rows = [ocp.dynamics(xs[i], us[i], p, 0.0) for i in range(3)]
    assert_allclose(stacked, np.stack(rows))
    assert ocp.jac_x(xs, us, p, 0.0).shape == (3, 1, 1)
    assert ocp.jac_p(xs, us, p, 0.0).shape == (3, 1, 1)


def test_example_jacobians_validate(example):
    # jac_x and jac_p against central differences of the dynamics
    ocp, _ = example
    f, p, h = ocp.dynamics, ocp.nominal_params, 1e-6
    grid = itertools.product((-1.0, 0.3, 1.5), (-0.5, 0.0, 1.0), (0.0, 25.0))
    for x, u, t in ((np.array([x]), np.array([u]), t) for x, u, t in grid):
        fd_x = (f(x + h, u, p, t) - f(x - h, u, p, t)) / (2 * h)
        fd_p = (f(x, u, p + h, t) - f(x, u, p - h, t)) / (2 * h)
        assert_allclose(ocp.jac_x(x, u, p, t), fd_x[:, None], rtol=1e-6, atol=1e-6)
        assert_allclose(ocp.jac_p(x, u, p, t), fd_p[:, None], rtol=1e-6, atol=1e-6)


def test_spec_template(example):
    _, make_spec = example
    spec = make_spec(beta=5.0, q=0.01)
    # sigma = q * alpha = 0.02, P = sigma^2
    assert_allclose(spec.param_covariance, [[4e-4]])
    assert_allclose(spec.terminal_weight, [[5.0]])
    assert_allclose(spec.penalty_jacobian(np.array([1.0])), [[1.0]])


def test_spec_rejects_negative_weights(example):
    _, make_spec = example
    with pytest.raises(ValueError):
        make_spec(beta=-1.0, q=0.01)


def test_spec_rejects_indefinite_matrix():
    with pytest.raises(ValueError, match="semi-definite"):
        DesensitizationSpec(
            penalty_jacobian=lambda x: np.eye(2),
            terminal_weight=np.array([[1.0, 0.0], [0.0, -1.0]]),
            param_covariance=np.eye(1),
        )


def test_spec_rejects_asymmetric_matrix():
    with pytest.raises(ValueError, match="symmetric"):
        DesensitizationSpec(
            penalty_jacobian=lambda x: np.eye(2),
            terminal_weight=np.array([[1.0, 0.5], [0.0, 1.0]]),
            param_covariance=np.eye(1),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["terminal_weight", "param_covariance"])
def test_spec_rejects_non_finite_matrices(name, bad):
    # NaN and inf pass the symmetry and PSD comparisons, so without their
    # own check they reach the solver's linear algebra
    weights = {"terminal_weight": np.eye(1), "param_covariance": np.eye(1)}
    weights[name] = np.array([[bad]])
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        DesensitizationSpec(penalty_jacobian=lambda x: np.eye(1), **weights)


def test_spec_template_rejects_non_finite_beta_and_q(example):
    _, make_spec = example
    for beta, q in ((np.nan, 0.01), (np.inf, 0.01), (5.0, np.nan),
                    (5.0, np.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            make_spec(beta=beta, q=q)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_example_problem_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        example_problem(alpha)


def test_ocp_validation_errors():
    with pytest.raises(ValueError, match="t0 < tf"):
        example_ocp_with(time_domain=(1.0, 1.0))
    with pytest.raises(ValueError, match="initial_state"):
        example_ocp_with(initial_state=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="alpha"):
        example_problem(0.0)
    # non-integral counts are rejected, not carried into transcription
    for name in ("n_states", "n_controls", "n_params"):
        with pytest.raises(ValueError, match="integers"):
            example_ocp_with(**{name: 1.0})
    assert example_ocp_with(n_states=np.int64(1)).n_states == 1


def example_ocp_with(**overrides):
    from dataclasses import replace

    ocp, _ = example_problem(2.0)
    return replace(ocp, **overrides)


def test_with_initial_state(example):
    ocp, _ = example
    restarted = ocp.with_initial_state(np.array([0.7]), time_domain=(4.0, 50.0))
    assert_allclose(restarted.initial_state, [0.7])
    assert restarted.time_domain == (4.0, 50.0)
    # original untouched
    assert_allclose(ocp.initial_state, [1.5])


def test_per_point_callbacks_are_rejected():
    # transcription only ever calls the callbacks on stacked batches
    with pytest.raises(ValueError, match="batches"):
        example_ocp_with(vectorized=False)
    assert example_ocp_with(vectorized=True).n_states == 1
