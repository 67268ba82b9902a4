"""Truth-plant propagation under an interpolated reference control.

Integrates the physical dynamics with (possibly perturbed) parameters
while the control is read from a solved trajectory.  Integration is
split at the trajectory's mesh-interval boundaries, and each segment's
right-hand side reads its own interval's control polynomial, up to and
including the segment ends: no stage evaluation ever sees the
neighbouring interval's control.

One flight can carry P lanes: P plans on one mesh, each flown from its
own initial state with its own parameters.  The stepper advances every
lane with its own time, step size, error test and accept/reject
sequence, and evaluates each stage of all lanes in one right-hand-side
call on stacked rows.  Every stage, solution and error sum is a
per-lane reduction in a fixed order, so a lane's flight is bit for bit
the same whichever lanes fly beside it; a lane that fails stops alone.
An explicit Runge-Kutta step knows all its stage times before it
computes any stage state, so each step attempt reads every lane's stage
controls in one :func:`~guidedog.trajectory.interval_reader` call; each
row equals the lane's own :meth:`Trajectory.interval_values` query, bit
for bit.

The integrator is DOP853 (Hairer, Nørsett & Wanner, *Solving Ordinary
Differential Equations I*, §II.4 and §II.10) with the coefficients and
step-size rule that ``scipy.integrate.solve_ivp(method="DOP853")``
uses, so a flight's first segment takes the same steps as that call.
Each later segment starts from the step size the controller proposed
at the end of the one before, instead of selecting a first step anew.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ocp import OcpDefinition
from .trajectory import Trajectory, interval_reader

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
_A_ROWS = tuple(_A[s, :s] for s in range(12))


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


def integrate(ocp: OcpDefinition, traj, x0, span, p_tilde=None,
              abs_tol: float = 1e-10, rel_tol: float = 1e-10):
    """Propagate ``xdot = f(x, u(t), p_tilde, t)`` over span.

    ``u`` is read from each mesh interval's own control polynomial.
    ``span = (t_start, t_end)`` must lie within the trajectory's time
    domain; a non-finite span, ``x0`` or ``p_tilde``, an ``x0`` of the
    wrong shape, or a tolerance that is not positive and finite raises
    ValueError, and a reversed span integrates backward.  A ``rel_tol``
    below 100 ulp is raised to it.

    With one :class:`Trajectory`, ``x0`` is (n,) and ``p_tilde`` (m,),
    and the flight returns a :class:`SimResult` or raises RuntimeError
    when the integrator cannot reach the end of a segment.  With a
    sequence of P trajectories, all on one mesh (ValueError otherwise),
    lane i flies ``traj[i]`` from ``x0[i]`` (x0 is (P, n)) with
    ``p_tilde[i]`` (P rows, or None for the nominal parameters), and the
    flight returns one entry per lane: its SimResult, or the
    RuntimeError that stopped that lane alone.
    """
    t_start, t_end = float(span[0]), float(span[1])
    ocp = getattr(ocp, "ocp", ocp)   # accept an augmented wrapper as-is
    one = isinstance(traj, Trajectory)
    trajs = [traj] if one else list(traj)
    if not (0.0 < abs_tol < np.inf and 0.0 < rel_tol < np.inf):
        raise ValueError(
            f"integration tolerances must be positive and finite, got "
            f"abs_tol={abs_tol}, rel_tol={rel_tol}"
        )
    if not (np.isfinite(t_start) and np.isfinite(t_end)):
        raise ValueError(f"span [{t_start}, {t_end}] must be finite")
    if not trajs:
        raise ValueError("a flight needs at least one lane")
    first = trajs[0]
    for other in trajs[1:]:
        if other.orders != first.orders or not np.array_equal(
                other.interval_times, first.interval_times):
            raise ValueError("every lane must fly a plan on the same mesh")
    lo, hi = sorted((t_start, t_end))
    slack = 1e-9 * (1.0 + max(abs(first.t0), abs(first.tf)))
    if lo < first.t0 - slack or hi > first.tf + slack:
        raise ValueError(
            f"span [{t_start}, {t_end}] outside trajectory domain "
            f"[{first.t0}, {first.tf}]"
        )
    x = np.array(x0, dtype=float)
    want = (ocp.n_states,) if one else (len(trajs), ocp.n_states)
    if one:
        x = np.atleast_1d(x)
    if x.shape != want:
        raise ValueError(f"x0 has shape {x.shape}, expected {want}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {x}")
    rows = ([p_tilde] if one else [None] * len(trajs) if p_tilde is None
            else list(p_tilde))
    if len(rows) != len(trajs):
        raise ValueError(f"p_tilde has {len(rows)} rows for {len(trajs)} lanes")
    params = np.stack([check_params(ocp, row) for row in rows])
    rtol = max(float(rel_tol), 100.0 * np.finfo(float).eps)

    # split at interior mesh boundaries so each segment lies in one
    # interval and flies that interval's control polynomial
    bounds = np.asarray(first.interval_times, dtype=float)
    interior = bounds[(bounds > lo + 1e-12) & (bounds < hi - 1e-12)]
    cuts = np.concatenate(([t_start], interior if t_end >= t_start
                           else interior[::-1], [t_end]))

    lanes = np.arange(len(trajs))
    x = x.reshape(len(trajs), -1)
    steps = [(lanes, np.full(lanes.size, t_start), x)]
    failures = {}
    h_abs = None   # only the first segment selects its first step
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b or not lanes.size:
            continue
        k = int(first.locate(0.5 * (a + b)))

        def bind(ids, k=k):
            return params[ids], interval_reader([trajs[i] for i in ids], k,
                                               control=True)

        lanes, x, h_abs = _dop853(ocp.dynamics, bind, lanes, float(a), x,
                                  float(b), rtol, abs_tol, h_abs, steps,
                                  failures)

    # each lane's accepted steps, in time order
    ids = np.concatenate([chunk[0] for chunk in steps])
    order = np.argsort(ids, kind="stable")
    t_all = np.concatenate([chunk[1] for chunk in steps])[order]
    x_all = np.concatenate([chunk[2] for chunk in steps])[order]
    ends = np.searchsorted(ids[order], np.arange(len(trajs) + 1))
    out = []
    for i, lane in enumerate(trajs):
        if i in failures:
            out.append(RuntimeError(failures[i]))
            continue
        t_grid = t_all[ends[i]:ends[i + 1]]
        out.append(SimResult(t_start=t_start, t_end=t_end, times=t_grid,
                             states=x_all[ends[i]:ends[i + 1]],
                             controls=lane.control_at(t_grid)))
    if one and isinstance(out[0], RuntimeError):
        raise out[0]
    return out[0] if one else out


def _squared_norms(v):
    """Each row's squared 2-norm: one ``matmul`` dot product per row,
    the same sum as ``np.linalg.norm`` of that row alone."""
    return np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0].tolist()


def _rms(v):
    """Root mean square of each row, as ``norm(row) / size ** 0.5``."""
    return [math.sqrt(d) / v.shape[1] ** 0.5 for d in _squared_norms(v)]


def _initial_step(dynamics, p, control, t, y, f, t_end, direction, rtol,
                  atol):
    """scipy's first-step rule for an order-7 error estimate
    (Hairer, Nørsett & Wanner, §II.4), one step size per lane."""
    length = abs(t_end - t)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = [min(1e-6 if r0 < 1e-5 or r1 < 1e-5 else 0.01 * r0 / r1, length)
          for r0, r1 in zip(d0, d1)]
    step = np.array(h0) * direction
    t1 = t + step
    f1 = dynamics(y + step[:, None] * f, control(t1[:, None])[:, 0], p, t1)
    out = []
    for h, r1, r2 in zip(h0, d1, _rms((f1 - f) / scale)):
        r2 = r2 / h
        if r1 <= 1e-15 and r2 <= 1e-15:
            h1 = max(1e-6, h * 1e-3)
        else:
            h1 = (0.01 / max(r1, r2)) ** (1 / 8)
        out.append(min(100 * h, h1, length))
    return out


def _dop853(dynamics, bind, lanes, t, y, t_end, rtol, atol, h_abs, steps,
            failures):
    """Fly lanes ``lanes`` (flight-wide ids) from their states ``y``
    (L, n) at time ``t`` to ``t_end`` by DOP853, each lane with its own
    time, step size, error test and accept/reject sequence.

    ``bind(ids)`` returns the parameter rows and the control reader
    (:func:`~guidedog.trajectory.interval_reader`) of those lanes, and
    each stage calls ``dynamics(x, u, p, t)`` once on the stacked rows
    of every lane still flying.  Each step attempt reads all its stage
    controls in one reader call (the last stage, c = 1, is the step's
    end).  Every accepted step appends ``(ids, times, states)`` of its
    lanes to ``steps``.  Returns the ids, end states and next step sizes
    of the lanes that reach ``t_end``.

    The first step is ``h_abs[i]``, or scipy's choice when ``h_abs`` is
    None.  The step rule is scipy's: safety 0.9, step factor in
    [0.2, 10], exponent -1/8, no step below 10 ulp of t.  A lane whose
    step or state is not finite, or whose step falls below 10 ulp,
    stops there: ``failures[id]`` gets its message, and the other lanes
    fly on.  The step rule runs on each lane's own Python floats, and
    every stage, solution and error sum is a ``matmul`` over the lane's
    own block of the lane-major K (L, 13, n), which sums as
    ``np.dot(K_lane.T, weights)`` does: no lane's arithmetic depends on
    the others, and one lane takes scipy's steps."""
    t0 = t
    direction = 1.0 if t_end > t else -1.0
    toward = direction * math.inf
    p, control = bind(lanes)
    t_now = np.full(lanes.size, t)
    f = np.empty_like(y)
    f[...] = dynamics(y, control(t_now[:, None])[:, 0], p, t_now)
    if h_abs is None:
        h_abs = _initial_step(dynamics, p, control, t, y, f, t_end,
                              direction, rtol, atol)
    h_abs = list(h_abs)
    width = y.shape[1]
    times = [t] * lanes.size
    rejected = [False] * lanes.size
    reached, finished, K = [], [], None
    while True:
        # drop the lanes that finished, then choose each lane's next step
        keep, t_new, h = [], [], []
        for i, (ti, hi) in enumerate(zip(times, h_abs)):
            if i in finished:
                continue
            min_step = 10 * abs(math.nextafter(ti, toward) - ti)
            if not rejected[i]:
                hi = max(hi, min_step)
            if not hi >= min_step:   # also false for a NaN step
                failures[int(lanes[i])] = (
                    f"integration failed on [{t0}, {t_end}]: step {hi} "
                    f"at t = {ti} is not finite or below 10 ulp")
                continue
            tn = ti + hi * direction
            if direction * (tn - t_end) > 0:
                tn = t_end
            keep.append(i)
            t_new.append(tn)
            h.append(tn - ti)
        if len(keep) < len(times):
            reached += [(int(lanes[i]), y[i], h_abs[i]) for i in finished
                        if int(lanes[i]) not in failures]
            if not keep:
                break
            lanes, y, f = lanes[keep], y[keep], f[keep]
            times = [times[i] for i in keep]
            rejected = [rejected[i] for i in keep]
            h_abs = [h_abs[i] for i in keep]
            p, control = bind(lanes)
            K = None
        if K is None:
            K = np.empty((y.shape[0], 13, width))
            sums = [K[:, :s] for s in range(13)]

        hc = np.array(h)[:, None]
        stage_t = np.array(times)[:, None] + _C * hc
        U = control(stage_t).transpose(1, 0, 2)
        stage_t = stage_t.T
        K[:, 0] = f
        for s in range(1, 12):
            K[:, s] = dynamics(y + np.matmul(_A_ROWS[s], sums[s]) * hc,
                               U[s], p, stage_t[s])
        y_new = y + hc * np.matmul(_B, sums[12])
        K[:, 12] = dynamics(y_new, U[11], p, stage_t[11])
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5s = _squared_norms(np.matmul(_E5, K) / scale)
        err3s = _squared_norms(np.matmul(_E3, K) / scale)
        rows = y_new.tolist()

        # accept or reject each lane's attempt (norm(v) ** 2, as scipy)
        accepted, finished = [], []
        for i, (err5, err3) in enumerate(zip(err5s, err3s)):
            err5, err3 = math.sqrt(err5) ** 2, math.sqrt(err3) ** 2
            h_i = abs(h[i])
            denom = (err5 + 0.01 * err3) * width
            e = h_i * err5 / math.sqrt(denom) if denom else 0.0
            factor = 10 if e == 0 else 0.9 * e ** -0.125
            if not e < 1:
                h_abs[i] = h_i * max(0.2, factor)
                rejected[i] = True
                continue
            h_abs[i] = h_i * min(1 if rejected[i] else 10, factor)
            rejected[i] = False
            if not all(map(math.isfinite, rows[i])):
                failures[int(lanes[i])] = (
                    f"integration failed on [{t0}, {t_end}]: state "
                    f"{y_new[i]} at t = {t_new[i]} is not finite")
                finished.append(i)
                continue
            accepted.append(i)
            times[i] = t_new[i]
            if direction * (t_new[i] - t_end) >= 0:
                finished.append(i)
        if len(accepted) == len(times):
            y, f = y_new, K[:, 12].copy()
            steps.append((lanes, np.array(t_new), y))
        elif accepted:
            y, f = y.copy(), f.copy()
            y[accepted], f[accepted] = y_new[accepted], K[accepted, 12]
            steps.append((lanes[accepted], np.array(t_new)[accepted],
                          y_new[accepted]))
    reached.sort(key=lambda lane: lane[0])
    return (np.array([lane[0] for lane in reached], dtype=int),
            np.array([lane[1] for lane in reached]).reshape(
                len(reached), y.shape[1]),
            [lane[2] for lane in reached])
