"""Sensitivity augmentation of optimal control problems.

The sensitivity function S(t) = dx/dp (n x m) of a system
dx/dt = f(x, u, p, t) obeys the variational equation

    dS/dt = A(t) S + B(t),    A = df/dx,  B = df/dp,  S(t0) = 0,

so stacking vec(S) onto the state vector turns sensitivity shaping
into an ordinary optimal control problem: the cost gains the trace
penalty tr(W . (G S) P (G S)') at the final time, where G is the
Jacobian of a user-chosen penalty function of the state and P the
parameter covariance.

vec(S) is column-major, and :func:`vec_sensitivity` and its inverse are
the only code that knows that layout; every other module calls them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .ocp import DesensitizationSpec, OcpDefinition

__all__ = ["AugmentedOcp", "augment", "penalty_value", "vec_sensitivity", "unvec_sensitivity"]


def vec_sensitivity(s: np.ndarray) -> np.ndarray:
    """Column-major vec of sensitivity matrices, (..., n, m) -> (..., n * m)."""
    s = np.asarray(s, dtype=float)
    return s.swapaxes(-1, -2).reshape(s.shape[:-2] + (-1,))


def unvec_sensitivity(v: np.ndarray, n: int, m: int) -> np.ndarray:
    """Inverse of :func:`vec_sensitivity`, (..., n * m) -> (..., n, m)."""
    v = np.asarray(v, dtype=float)
    return v.reshape(v.shape[:-1] + (m, n)).swapaxes(-1, -2)


def penalty_value(S, G, W, P):
    """Trace penalty tr(W . (G S) P (G S)') — always >= 0 for PSD W, P.

    A (B, n, m) stack of S, with one G or a (B, r, n) stack, gives (B,).
    """
    S, G, W, P = [np.atleast_2d(np.asarray(a, dtype=float))
                  for a in (S, G, W, P)]
    gs = G @ S
    return (W @ gs @ P @ gs.swapaxes(-1, -2)).trace(axis1=-2, axis2=-1)


@dataclass(frozen=True)
class _AugmentedDynamics:
    base: OcpDefinition

    def __call__(self, xa, u, p, t):
        n, m = self.base.n_states, self.base.n_params
        xa = np.asarray(xa, dtype=float)
        x = xa[:, :n]
        S = unvec_sensitivity(xa[:, n:], n, m)
        dx = np.asarray(self.base.dynamics(x, u, p, t), dtype=float)
        A = np.asarray(self.base.jac_x(x, u, p, t), dtype=float)
        B = np.asarray(self.base.jac_p(x, u, p, t), dtype=float)
        dS = np.einsum("pij,pjk->pik", A, S) + B
        return np.concatenate((dx, vec_sensitivity(dS)), axis=1)


@dataclass(frozen=True)
class _AugmentedRunningCost:
    """The base running cost read from the physical slice of the state."""

    base: OcpDefinition

    def __call__(self, xa, u, t):
        xa = np.asarray(xa, dtype=float)
        return self.base.running_cost(xa[..., : self.base.n_states], u, t)


@dataclass(frozen=True)
class _AugmentedTerminalCost:
    base: OcpDefinition
    spec: DesensitizationSpec

    def __call__(self, xa0, t0, xaf, tf):
        # stacked endpoint rows; G, a single-point callback, once per
        # distinct x(tf), which a stencil moves rarely
        n, m = self.base.n_states, self.base.n_params
        xa0, xaf = np.asarray(xa0, dtype=float), np.asarray(xaf, dtype=float)
        Sf, slot, G, pick = unvec_sensitivity(xaf[:, n:], n, m), {}, [], []
        for x in xaf[:, :n]:
            pick.append(slot.setdefault(x.tobytes(), len(G)))
            if pick[-1] == len(G):
                G.append(self.spec.penalty_jacobian(x))
        G = np.array(G, dtype=float).reshape(len(G), -1, n)[pick]
        out = 0.0
        if self.base.terminal_cost is not None:
            out = self.base.terminal_cost(xa0[:, :n], t0, xaf[:, :n], tf)
        return out + penalty_value(Sf, G, self.spec.terminal_weight,
                                   self.spec.param_covariance)


@dataclass(frozen=True)
class AugmentedOcp:
    """An OCP whose state carries the n x m sensitivity function.

    ``ocp`` is the transcribable augmented problem; ``base`` the
    original.  The augmented boundary pins S(t0) = s0 and leaves S(tf)
    free.
    """

    base: OcpDefinition
    ocp: OcpDefinition
    spec: DesensitizationSpec
    s0: np.ndarray          # (n, m)
    n_x: int
    n_param: int
    n_aug: int


def augment(ocp: OcpDefinition, spec: DesensitizationSpec,
            s0: Optional[np.ndarray] = None) -> AugmentedOcp:
    """Stack vec(S) onto the state and add the terminal trace penalty.

    The running cost stays the base one, read from the physical states,
    and the Mayer term gains tr(W . (G S) P (G S)') at S(tf).  With a
    zero terminal weight the augmented cost equals the base cost at
    every feasible point, so beta = 0 degenerates exactly to the
    original problem (up to the extra, cost-free sensitivity states).
    """
    if isinstance(ocp, AugmentedOcp):
        raise TypeError("problem is already augmented")
    if ocp.jac_x is None or ocp.jac_p is None:
        raise ValueError("augmentation requires jac_x and jac_p callbacks")
    n, m = ocp.n_states, ocp.n_params
    if m < 1:
        raise ValueError("augmentation needs at least one uncertain parameter")
    if s0 is None:
        s0 = np.zeros((n, m))
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (n, m):
        raise ValueError(f"s0 has shape {s0.shape}, expected ({n}, {m})")
    probe = ocp.initial_state if ocp.initial_state is not None else np.zeros(n)
    G = np.atleast_2d(np.asarray(spec.penalty_jacobian(probe), dtype=float))
    if G.shape[1] != n:
        raise ValueError(f"penalty_jacobian returned shape {G.shape}, expected (r, {n})")
    r = G.shape[0]
    if spec.terminal_weight.shape != (r, r):
        raise ValueError(
            f"terminal_weight is {spec.terminal_weight.shape}, expected ({r}, {r})"
        )
    if spec.param_covariance.shape != (m, m):
        raise ValueError(
            f"param_covariance is {spec.param_covariance.shape}, expected ({m}, {m})"
        )

    nan = np.full(n, np.nan)
    init = ocp.initial_state if ocp.initial_state is not None else nan
    term = ocp.terminal_state if ocp.terminal_state is not None else nan
    aug = replace(
        ocp,
        n_states=n + n * m,
        dynamics=_AugmentedDynamics(ocp),
        jac_x=None,
        jac_p=None,
        running_cost=(None if ocp.running_cost is None
                      else _AugmentedRunningCost(ocp)),
        terminal_cost=_AugmentedTerminalCost(ocp, spec),
        initial_state=np.concatenate((init, vec_sensitivity(s0))),
        terminal_state=np.concatenate((term, np.full(n * m, np.nan))),
    )
    return AugmentedOcp(base=ocp, ocp=aug, spec=spec, s0=s0,
                        n_x=n, n_param=m, n_aug=n + n * m)
