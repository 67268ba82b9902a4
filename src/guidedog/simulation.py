"""Truth-plant propagation under an interpolated reference control.

Integrates the physical dynamics with (possibly perturbed) parameters
while the control is read from a solved trajectory.  Integration is
split at the trajectory's mesh-interval boundaries, and each segment's
right-hand side reads its own interval's control polynomial, up to and
including the segment ends: no stage evaluation ever sees the
neighbouring interval's control.  An explicit Runge-Kutta step knows
all its stage times before it computes any stage state, so each step
attempt reads its stage controls from that polynomial in one
:meth:`Trajectory.interval_values` call; each row equals the same time
queried alone, bit for bit.

The integrator is DOP853 (Hairer, Nørsett & Wanner, *Solving Ordinary
Differential Equations I*, §II.4 and §II.10) with the coefficients and
step-size rule that ``scipy.integrate.solve_ivp(method="DOP853")``
uses, so a flight's first segment takes the same steps as that call.
Each later segment starts from the step size the controller proposed
at the end of the one before, instead of selecting a first step anew.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ocp import OcpDefinition
from .trajectory import Trajectory

__all__ = ["SimResult", "check_params", "integrate"]

# DOP853's 12-stage tableau and its 5th- and 3rd-order error weights
# (stage 13 is the derivative at the step's end), as scipy ships them
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_A = np.array([row + (0.0,) * (12 - len(row)) for row in (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636))])
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= (0.2440944881889764, 0.7338466882816118,
                    0.022058823529411766)


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
    domain; a non-finite span, ``x0`` or ``p_tilde``, an ``x0`` of the
    wrong shape, or a tolerance that is not positive and finite raises
    ValueError, and a reversed span integrates backward.  A ``rel_tol``
    below 100 ulp is raised to it.  Raises RuntimeError when the
    integrator cannot reach the end of a segment.
    """
    t_start, t_end = float(span[0]), float(span[1])
    ocp = getattr(ocp, "ocp", ocp)   # accept an augmented wrapper as-is
    if not (0.0 < abs_tol < np.inf and 0.0 < rel_tol < np.inf):
        raise ValueError(
            f"integration tolerances must be positive and finite, got "
            f"abs_tol={abs_tol}, rel_tol={rel_tol}"
        )
    if not (np.isfinite(t_start) and np.isfinite(t_end)):
        raise ValueError(f"span [{t_start}, {t_end}] must be finite")
    lo, hi = sorted((t_start, t_end))
    slack = 1e-9 * (1.0 + max(abs(traj.t0), abs(traj.tf)))
    if lo < traj.t0 - slack or hi > traj.tf + slack:
        raise ValueError(
            f"span [{t_start}, {t_end}] outside trajectory domain "
            f"[{traj.t0}, {traj.tf}]"
        )
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.shape != (ocp.n_states,):
        raise ValueError(
            f"x0 has shape {x.shape}, expected ({ocp.n_states},)")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {x}")
    params = check_params(ocp, p_tilde)
    rtol = max(float(rel_tol), 100.0 * np.finfo(float).eps)

    # split at interior mesh boundaries so each segment lies in one
    # interval and flies that interval's control polynomial
    bounds = np.asarray(traj.interval_times, dtype=float)
    interior = bounds[(bounds > lo + 1e-12) & (bounds < hi - 1e-12)]
    cuts = np.concatenate(([t_start], interior if t_end >= t_start
                           else interior[::-1], [t_end]))

    def rhs(t, x, u):
        return np.atleast_1d(np.asarray(ocp.dynamics(x, u, params, t),
                                        dtype=float))

    times = [t_start]
    states = [x]
    h_abs = None   # only the first segment selects its first step
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        k = int(traj.locate(0.5 * (a + b)))
        h_abs = _dop853(
            rhs, lambda ts: traj.interval_values(k, ts, control=True),
            float(a), x, float(b), rtol, abs_tol, h_abs, times, states)
        x = states[-1]

    t_grid = np.array(times)
    x_grid = np.vstack(states)
    u_grid = traj.control_at(t_grid)
    return SimResult(t_start=t_start, t_end=t_end, times=t_grid,
                     states=x_grid, controls=u_grid)


def _rms(v):
    return np.linalg.norm(v) / v.size ** 0.5


def _initial_step(fun, control, t, y, f, t_end, direction, rtol, atol):
    """scipy's first-step rule for an order-7 error estimate
    (Hairer, Nørsett & Wanner, §II.4)."""
    length = abs(t_end - t)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    t1 = t + h0 * direction
    f1 = fun(t1, y + h0 * direction * f, control(t1))
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, length)


def _dop853(fun, control, t, y, t_end, rtol, atol, h_abs, times, states):
    """Fly ``y' = fun(t, y, u)`` from ``(t, y)`` to ``t_end`` by DOP853,
    appending each accepted step's time and state to ``times`` and
    ``states``, and return the step size the controller proposes next.
    ``u`` is a row of ``control(times)``, which each step attempt calls
    once on all its stage times (the last, c = 1, is the step's end).

    The first step is ``h_abs``, or scipy's choice when it is None.
    The step rule is scipy's: safety 0.9, step factor in [0.2, 10],
    exponent -1/8, no step below 10 ulp of t.  A step or state that
    is not finite, or a step below 10 ulp, raises RuntimeError."""
    t0 = t
    direction = 1.0 if t_end > t else -1.0
    f = fun(t, y, control(t))
    if h_abs is None:
        h_abs = _initial_step(fun, control, t, y, f, t_end, direction,
                              rtol, atol)
    K = np.empty((13, y.size))
    while direction * (t - t_end) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:   # also false for a NaN step
                raise RuntimeError(
                    f"integration failed on [{t0}, {t_end}]: step {h_abs} "
                    f"at t = {t} is not finite or below 10 ulp")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = np.abs(h)
            stage_t = t + _C * h
            U = control(stage_t)
            K[0] = f
            for s in range(1, 12):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = fun(stage_t[s], y + dy, U[s])
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = fun(stage_t[-1], y_new, U[-1])
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
            denom = (err5 + 0.01 * err3) * scale.size
            error_norm = h_abs * err5 / np.sqrt(denom) if denom else 0.0
            factor = 10 if error_norm == 0 else 0.9 * error_norm ** -0.125
            if error_norm < 1:
                h_abs *= min(1 if rejected else 10, factor)
                break
            h_abs *= max(0.2, factor)
            rejected = True
        if not np.all(np.isfinite(y_new)):
            raise RuntimeError(
                f"integration failed on [{t0}, {t_end}]: state {y_new} "
                f"at t = {t_new} is not finite")
        t, y, f = t_new, y_new, f_new
        times.append(t)
        states.append(y)
    return h_abs
