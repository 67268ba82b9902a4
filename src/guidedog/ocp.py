"""Bolza optimal control problem definitions.

An :class:`OcpDefinition` bundles dynamics, Jacobian callbacks, cost
terms, endpoint pins and nominal parameters.  The module also
ships the built-in cubic example problem

    min J = 1/2 integral (x^2 + u^2) dt
    s.t. dx/dt = -a^2 x^3 + a u,  x(0) = 1.5,  x(50) = 1.0,

whose single parameter a (nominal 2.0) is the uncertain quantity the
desensitization machinery targets.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, replace
from numbers import Integral
from typing import Callable, Optional

import numpy as np

__all__ = [
    "OcpDefinition",
    "DesensitizationSpec",
    "example_problem",
]


def _as_float_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector")
    return arr


@dataclass(frozen=True)
class OcpDefinition:
    """A Bolza problem in Mayer + Lagrange form with pinned endpoints.

    Callbacks must be pure.  ``dynamics(x, u, p, t)`` returns the state
    derivative; ``jac_x`` and ``jac_p`` return A = df/dx (n x n) and
    B = df/dp (n x m); ``running_cost(x, u, t)`` returns the integrand
    and ``terminal_cost(x0, t0, xf, tf)`` the Mayer term.  Each receives
    a stacked batch of P points, x of shape (P, n) with u (P, n_u) and
    t (P,) (both endpoints (P, n) for ``terminal_cost``), and returns
    one result per row; a single point is the one-row stack.
    Transcription passes batches, a derivative stencil's in one call,
    with the shared parameter vector p (m,).  The truth simulation
    passes the stacked rows of its lanes, at every lane count including
    one, with one parameter row per lane, p (P, m); an augmented problem
    flown as a whole passes that same p to ``jac_x`` and ``jac_p``.  So
    a callback reads the parameter as ``p[..., j]`` (or
    ``p[..., j:j + 1]``), which serves both forms.
    ``initial_state`` / ``terminal_state`` pin state components at the
    endpoints (NaN entries are free); the pins and the collocation
    defects are the problem's only constraints, all equalities.
    ``vectorized`` is accepted for older callers and must be true.
    """

    n_states: int
    n_controls: int
    n_params: int
    dynamics: Callable
    jac_x: Optional[Callable]
    jac_p: Optional[Callable]
    running_cost: Optional[Callable]
    terminal_cost: Optional[Callable]
    nominal_params: np.ndarray
    time_domain: tuple[float, float]
    initial_state: Optional[np.ndarray] = None
    terminal_state: Optional[np.ndarray] = None
    vectorized: InitVar[bool] = True

    def __post_init__(self, vectorized):
        if not vectorized:
            raise ValueError("callbacks must accept stacked (P, n) batches")
        counts = (self.n_states, self.n_controls, self.n_params)
        if (not all(isinstance(c, Integral) for c in counts)
                or self.n_states < 1 or min(counts) < 0):
            raise ValueError("state/control/parameter counts must be integers in range")
        t0, tf = self.time_domain
        if not t0 < tf:
            raise ValueError(f"time domain must satisfy t0 < tf, got ({t0}, {tf})")
        object.__setattr__(self, "time_domain", (float(t0), float(tf)))
        p = _as_float_array(self.nominal_params, "nominal_params")
        if p.size != self.n_params:
            raise ValueError(
                f"nominal_params has {p.size} entries, expected {self.n_params}"
            )
        object.__setattr__(self, "nominal_params", p)
        for name in ("initial_state", "terminal_state"):
            val = getattr(self, name)
            if val is not None:
                arr = _as_float_array(val, name)
                if arr.size != self.n_states:
                    raise ValueError(f"{name} has {arr.size} entries, expected {self.n_states}")
                object.__setattr__(self, name, arr)

    def with_initial_state(self, x0, time_domain=None) -> "OcpDefinition":
        """Copy of this problem restarted from ``x0`` (used by guidance)."""
        return replace(
            self,
            initial_state=np.asarray(x0, dtype=float),
            time_domain=self.time_domain if time_domain is None else time_domain,
        )


@dataclass(frozen=True)
class DesensitizationSpec:
    """Weights of the terminal sensitivity penalty tr(W . G S P S' G').

    ``penalty_jacobian`` is G = dh/dx (r x n) for the penalty function
    h(x), a single-point callback of the final state; ``terminal_weight``
    is the r x r weight W, and ``param_covariance`` the m x m parameter
    covariance P.
    """

    penalty_jacobian: Callable
    terminal_weight: np.ndarray
    param_covariance: np.ndarray

    def __post_init__(self):
        for name in ("terminal_weight", "param_covariance"):
            w = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if w.shape[0] != w.shape[1]:
                raise ValueError(f"{name} must be square, got {w.shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"{name} must be finite")
            if np.max(np.abs(w - w.T)) > 1e-12:
                raise ValueError(f"{name} must be symmetric")
            if np.min(np.linalg.eigvalsh(w)) < -1e-12:
                raise ValueError(f"{name} must be positive semi-definite")
            object.__setattr__(self, name, w)


# --- built-in example problem ---------------------------------------------
#
# Every callback meets the OcpDefinition contract: a stacked batch
# (P, n) in, one result per row out, with the parameter read as
# p[..., :1] or p[..., 0], so that a shared p (m,) and one row per
# point, p (P, m), both work.

def _example_dynamics(x, u, p, t):
    a = p[..., :1]
    return -a ** 2 * x**3 + a * u


def _example_jac_x(x, u, p, t):
    a = -3.0 * p[..., 0] ** 2 * np.asarray(x)[..., 0] ** 2
    return a[..., None, None]


def _example_jac_p(x, u, p, t):
    b = -2.0 * p[..., 0] * np.asarray(x)[..., 0] ** 3 + np.asarray(u)[..., 0]
    return b[..., None, None]


def _example_running_cost(x, u, t):
    return 0.5 * (np.asarray(x)[..., 0] ** 2 + np.asarray(u)[..., 0] ** 2)


def _unit_penalty_jacobian(x):
    # penalty h(x) = x itself: G = dh/dx = 1 (single state)
    return np.array([[1.0]])


@dataclass(frozen=True)
class _ExampleSpecTemplate:
    """Builds the example's DesensitizationSpec for given (beta, q).

    sigma = q * alpha and P = sigma^2; the terminal weight is beta.
    """

    alpha: float

    def __call__(self, beta: float, q: float) -> DesensitizationSpec:
        if beta < 0.0 or q < 0.0:
            raise ValueError("beta and q must be nonnegative")
        sigma = q * self.alpha
        return DesensitizationSpec(
            penalty_jacobian=_unit_penalty_jacobian,
            terminal_weight=np.array([[beta]]),
            param_covariance=np.array([[sigma**2]]),
        )


def example_problem(alpha: float = 2.0):
    """The built-in cubic problem and its desensitization-spec template.

    Returns ``(ocp, make_spec)`` where ``make_spec(beta, q)`` produces
    the matching :class:`DesensitizationSpec`.
    """
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    ocp = OcpDefinition(
        n_states=1,
        n_controls=1,
        n_params=1,
        dynamics=_example_dynamics,
        jac_x=_example_jac_x,
        jac_p=_example_jac_p,
        running_cost=_example_running_cost,
        terminal_cost=None,
        nominal_params=np.array([alpha]),
        time_domain=(0.0, 50.0),
        initial_state=np.array([1.5]),
        terminal_state=np.array([1.0]),
    )
    return ocp, _ExampleSpecTemplate(alpha)
