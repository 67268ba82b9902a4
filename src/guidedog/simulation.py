"""Truth-plant propagation under an interpolated reference control.

Integrates the physical dynamics with (possibly perturbed) parameters
while the control is read from a solved trajectory.  Integration is
split at the trajectory's mesh-interval boundaries, and each segment's
right-hand side reads its own interval's control polynomial, up to and
including the segment ends: no stage evaluation ever sees the
neighbouring interval's control.  That polynomial is bound once per
segment (:meth:`Trajectory.interval_control`), so each right-hand-side
call evaluates it in float arithmetic, bit-identical to
:meth:`Trajectory.interval_values`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .ocp import OcpDefinition
from .trajectory import Trajectory

__all__ = ["SimResult", "check_params", "integrate"]


@dataclass
class SimResult:
    """Integrated state history over one span.

    ``times`` are the integrator's accepted step times (strictly
    monotone, first = t_start, last = t_end); ``states`` and
    ``controls`` are row-aligned with them.
    """

    t_start: float
    t_end: float
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        d = np.diff(self.times)
        forward = self.t_end >= self.t_start
        if (forward and np.any(d <= 0.0)) or (not forward and np.any(d >= 0.0)):
            raise ValueError("simulation time grid must be strictly monotone")
        for got, want in ((self.times[0], self.t_start),
                          (self.times[-1], self.t_end)):
            if abs(got - want) > 1e-9 * (1.0 + abs(want)):
                raise ValueError(
                    f"time grid spans [{self.times[0]}, {self.times[-1]}], "
                    f"expected [{self.t_start}, {self.t_end}]"
                )

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]


def check_params(ocp: OcpDefinition, p_tilde=None) -> np.ndarray:
    """The parameters a flight uses: ``p_tilde``, or the nominal ones
    when None.  A wrong shape or a non-finite value raises ValueError."""
    params = np.asarray(
        ocp.nominal_params if p_tilde is None else p_tilde, dtype=float)
    if params.shape != (ocp.n_params,):
        raise ValueError(
            f"p_tilde has shape {params.shape}, expected ({ocp.n_params},)"
        )
    if not np.all(np.isfinite(params)):
        raise ValueError(f"p_tilde must be finite, got {params}")
    return params


def integrate(ocp: OcpDefinition, traj: Trajectory, x0, span, p_tilde=None,
              abs_tol: float = 1e-10, rel_tol: float = 1e-10) -> SimResult:
    """Propagate ``xdot = f(x, u(t), p_tilde, t)`` over span.

    ``u`` is read from each mesh interval's own control polynomial.
    ``span = (t_start, t_end)`` must lie within the trajectory's time
    domain; a non-finite span or ``p_tilde`` raises ValueError, and a
    reversed span integrates backward.  Raises RuntimeError
    when the integrator cannot reach the end of a segment.
    """
    t_start, t_end = float(span[0]), float(span[1])
    ocp = getattr(ocp, "ocp", ocp)   # accept an augmented wrapper as-is
    if abs_tol <= 0.0 or rel_tol <= 0.0:
        raise ValueError("integration tolerances must be positive")
    if not (np.isfinite(t_start) and np.isfinite(t_end)):
        raise ValueError(f"span [{t_start}, {t_end}] must be finite")
    lo, hi = sorted((t_start, t_end))
    slack = 1e-9 * (1.0 + max(abs(traj.t0), abs(traj.tf)))
    if lo < traj.t0 - slack or hi > traj.tf + slack:
        raise ValueError(
            f"span [{t_start}, {t_end}] outside trajectory domain "
            f"[{traj.t0}, {traj.tf}]"
        )
    params = check_params(ocp, p_tilde)

    def rhs(t, x, control):
        return np.atleast_1d(np.asarray(
            ocp.dynamics(x, control(t), params, t), dtype=float))

    # split at interior mesh boundaries so each segment lies in one
    # interval and flies that interval's control polynomial
    bounds = np.asarray(traj.interval_times, dtype=float)
    interior = bounds[(bounds > lo + 1e-12) & (bounds < hi - 1e-12)]
    cuts = np.concatenate(([t_start], interior if t_end >= t_start
                           else interior[::-1], [t_end]))

    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    times = [np.array([t_start])]
    states = [x[None, :].copy()]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        control = traj.interval_control(int(traj.locate(0.5 * (a + b))))
        sol = solve_ivp(rhs, (a, b), x, method="DOP853", args=(control,),
                        rtol=rel_tol, atol=abs_tol, dense_output=False)
        if not sol.success:
            raise RuntimeError(
                f"integration failed on [{a}, {b}]: {sol.message}"
            )
        times.append(sol.t[1:])
        states.append(sol.y.T[1:])
        x = sol.y[:, -1].copy()

    t_grid = np.concatenate(times)
    x_grid = np.vstack(states)
    u_grid = traj.control_at(t_grid)
    return SimResult(t_start=t_start, t_end=t_end, times=t_grid,
                     states=x_grid, controls=u_grid)
