"""Receding-horizon guidance: fly a cycle, trim the horizon, re-solve.

Four mission methods share one engine.  OC and DOC solve once on the
full horizon and fly it open loop; OG and DOG re-solve on the remaining
horizon after every guidance cycle, pinning the re-solve's initial
state to the simulated truth state and — for the desensitized variant —
the initial sensitivity to the reference solution's value at the
handoff time.  Desensitized methods (DOC/DOG) carry sensitivity states
and the terminal penalty; plain methods (OC/OG) solve the unaugmented
problem.

The reference and every re-solve share one solve chain of at most
three attempts, each run only when the one before did not settle the
solve: a re-solve's polish of the previous solution, seeded with the
Lagrangian Hessian estimated there (one or two iterations at the
nominal parameter); the unseeded plain solve, from that warm start or
the linear guess; and for desensitized methods the seeded augmented
solve from the plain solution, with S stepped stably along it through
the true sensitivity dynamics.  The polish takes any number of lanes
at once; the later attempts run for one lane at a time.

Re-solves keep the reference mesh's interval fractions and orders,
compressed onto the remaining horizon, and are warm-started from the
previous solution evaluated at that mesh's node times
(``Mesh.node_times``).

Missions that share a reference fly in lock step (:func:`run_missions`):
at every cycle all their plans lie on the same compressed mesh, so one
stacked truth flight carries each mission still flying as a lane, and
then one re-solve serves them all.  The lanes' re-solve problems differ
only in their pinned x(t_k) and S(t_k), so one lane-stacked
transcription holds them, every lane's warm start is read in one
lane-axis pass, and their polishes run as the lanes of one lock-stepped
SQP solve (:func:`~guidedog.sqp.solve_lanes`); a lane whose polish
fails runs the rest of the chain alone.  A lane's result does not
depend on the others, so every mission equals the one flown alone, bit
for bit.  A single mission (:func:`run_mission`) is the one-lane case.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Optional

import numpy as np

from .ocp import OcpDefinition
from .sensitivity import augment
from .simulation import check_params, integrate
from .sqp import (SolverOptions, estimate_multipliers, initial_guess, solve,
                  solve_lanes)
from .trajectory import Trajectory, sample_lanes
from .transcription import (
    Mesh,
    example_mesh,
    extract_solution,
    pack_values,
    transcribe,
)

__all__ = [
    "METHODS",
    "GuidanceConfig",
    "MissionResult",
    "check_schedule",
    "cycle_bounds",
    "nominal_first_resolve",
    "restart_conditions",
    "solve_reference",
    "run_mission",
    "run_missions",
]

METHODS = ("OC", "DOC", "OG", "DOG")


@dataclass(frozen=True)
class GuidanceConfig:
    """Mission setup: method, cycle timing, mesh, and solver knobs."""

    method: str = "DOG"
    cycle_duration: float = 4.0
    cycle_count: int = 12
    mesh: Optional[Mesh] = None          # None -> example_mesh on the problem domain
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        method = str(self.method).upper()
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        object.__setattr__(self, "method", method)
        if not (np.isfinite(self.cycle_duration) and self.cycle_duration > 0.0):
            raise ValueError("cycle_duration must be positive and finite")
        if not isinstance(self.cycle_count, Integral) or self.cycle_count < 1:
            raise ValueError("cycle_count must be an integer of at least 1")

    @property
    def desensitized(self) -> bool:
        return self.method in ("DOC", "DOG")

    @property
    def guided(self) -> bool:
        return self.method in ("OG", "DOG")


def _with_mesh(cfg: GuidanceConfig, ocp: OcpDefinition) -> GuidanceConfig:
    """``cfg`` with its mesh set: None becomes the default graded mesh
    on the problem's time domain."""
    if cfg.mesh is not None:
        return cfg
    return replace(cfg, mesh=example_mesh(*ocp.time_domain))


@dataclass
class MissionResult:
    """One flown mission: solves, stitched truth history, and ε.

    ``trajectories`` holds the reference solve first, then one entry
    per guidance re-solve; ``statuses``/``iterations`` line up with it.
    Every entry sums the SQP attempts of its solve chain: the seeded
    polish, the plain solve and the staged augmented solve, whichever
    ran.
    ``epsilon`` is the signed terminal deviation of the first state
    component against the reference solve's terminal state (NaN when
    the mission failed).  ``failure_cycle`` is None on success, -1 when
    the reference solve itself failed, else the 0-based cycle index.
    """

    method: str
    trajectories: list
    statuses: list
    iterations: list
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    terminal_state: Optional[np.ndarray]
    epsilon: float
    failed: bool = False
    failure_cycle: Optional[int] = None
    message: str = ""


def check_schedule(cfg: GuidanceConfig, time_domain) -> None:
    """Reject guidance cycles that run past the horizon (ValueError).

    Only OG and DOG fly cycles, so open-loop methods pass any schedule.
    """
    t0, tf = time_domain
    horizon = tf - t0
    flown = cfg.cycle_count * cfg.cycle_duration
    if cfg.guided and flown > horizon + 1e-9 * max(1.0, horizon):
        raise ValueError(f"{cfg.cycle_count} cycles x {cfg.cycle_duration} s "
                         f"exceed the {horizon} s horizon")


def cycle_bounds(s: int, t0: float, cycle_duration: float
                 ) -> tuple[float, float]:
    """Time span covered by guidance cycle ``s`` (cycles index from 0).

    ``s`` must be an integer of at least 0, and ``cycle_duration``
    positive and finite (ValueError otherwise)."""
    if not isinstance(s, Integral) or s < 0:
        raise ValueError(f"cycle index must be a nonnegative integer, got {s}")
    if not (np.isfinite(cycle_duration) and cycle_duration > 0.0):
        raise ValueError("cycle_duration must be positive and finite")
    return t0 + s * cycle_duration, t0 + (s + 1) * cycle_duration


def restart_conditions(prev_solution: Trajectory, sim, t_handoff: float):
    """Initial conditions for the re-solve at a handoff time.

    The state restarts from the simulated truth's exact terminal vector,
    so the handoff time must be the simulation's end time (ValueError
    otherwise); the sensitivity (when the previous solution carries
    one) restarts from the previous solved trajectory — the truth plant
    never propagates S.
    """
    t_handoff = float(t_handoff)
    # negated, so that a NaN handoff time is rejected
    if not abs(t_handoff - sim.t_end) <= 1e-9 * max(1.0, abs(sim.t_end)):
        raise ValueError(
            f"handoff at t = {t_handoff}, but the simulation ends at {sim.t_end}")
    x0 = np.array(sim.terminal_state, copy=True)
    s0 = None
    if prev_solution.sens_shape is not None:
        s0 = prev_solution.sensitivity_at(t_handoff)
    return x0, s0


def _warm_vectors(warms, nlp, first_rows) -> np.ndarray:
    """Each lane's previous solution ``warms[i]`` interpolated onto the
    new mesh, its first state row pinned to ``first_rows[i]``: a
    (P, n_vars) stack, read in one lane-axis pass (:func:`sample_lanes`).

    Only the NLP's own state columns are kept, so a plain problem can
    start from a desensitized trajectory.  The warm starts must share
    one mesh.
    """
    sup, col = nlp.mesh.node_times()
    tf = warms[0].tf
    states = sample_lanes(warms, np.minimum(sup, tf))[:, :, : nlp.layout.n_aug]
    states[:, 0] = first_rows
    controls = sample_lanes(warms, np.minimum(col, tf), control=True)
    return np.concatenate([states.reshape(len(warms), -1),
                           controls.reshape(len(warms), -1)], axis=1)


def _jac_profiles(ocp: OcpDefinition, traj: Trajectory, k: int,
                  times: np.ndarray):
    """Stacked dynamics Jacobians A(t), B(t) along interval k of ``traj``."""
    x = traj.interval_values(k, times)[:, : traj.n_states]
    u = traj.interval_values(k, times, control=True)
    count = times.size
    n, m = ocp.n_states, ocp.n_params
    p = ocp.nominal_params
    A = np.asarray(ocp.jac_x(x, u, p, times), dtype=float).reshape(count, n, n)
    B = np.asarray(ocp.jac_p(x, u, p, times), dtype=float).reshape(count, n, m)
    return A, B


def _propagated_sensitivity(ocp: OcpDefinition, traj: Trajectory,
                            s0: np.ndarray) -> np.ndarray:
    """S at the support points by A-stable stepping of dS/dt = A S + B.

    Each interval is subdivided until trapezoidal steps resolve the
    local decay rate, so the profile tracks the true sensitivity even
    on meshes far too coarse to collocate it.
    """
    n, m = ocp.n_states, ocp.n_params
    s_here = s0
    out = [s_here]
    eye = np.eye(n)
    for k, nk in enumerate(traj.orders):
        a, b = traj.interval_times[k], traj.interval_times[k + 1]
        sup_times = traj.state_times[k]
        A_s, _ = _jac_profiles(ocp, traj, k, sup_times)
        rate = float(np.max(np.sum(np.abs(A_s), axis=2)))
        steps = min(int(np.ceil(2.0 * (b - a) * max(rate, 1e-12))), 10_000)
        grid = np.union1d(sup_times, np.linspace(a, b, max(steps, nk) + 1))
        A_g, B_g = _jac_profiles(ocp, traj, k, grid)
        values = [s_here]
        for i in range(grid.size - 1):
            h = grid[i + 1] - grid[i]
            rhs = ((eye + 0.5 * h * A_g[i]) @ values[-1]
                   + 0.5 * h * (B_g[i] + B_g[i + 1]))
            try:
                values.append(np.linalg.solve(eye - 0.5 * h * A_g[i + 1], rhs))
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(
                    f"sensitivity staging failed: {exc}") from exc
        values = np.stack(values)
        keep = np.searchsorted(grid, sup_times[1:])
        out.extend(values[keep])
        s_here = values[-1]
    return np.stack(out)


def _staged_sensitivity_guess(nlp_aug, traj: Trajectory) -> np.ndarray:
    """Augmented warm start: the plain solution's node values plus S
    stepped stably along them (:func:`_propagated_sensitivity`).

    ``traj`` must lie on ``nlp_aug``'s mesh.
    """
    aug = nlp_aug.source
    s = _propagated_sensitivity(aug.base, traj, aug.s0)
    s_rows = s.transpose(0, 2, 1).reshape(-1, aug.n_x * aug.n_param)
    sup, col = nlp_aug.mesh.node_times()
    states = np.hstack([traj.full_state_at(sup), s_rows])
    return pack_values(nlp_aug.layout, states, traj.control_at(col))


# Converging polishes are quick (at most 3 iterations over 1,928 in 10-draw
# fig3a-d campaigns on both meshes); those still running at 25 were study-mesh
# first re-solves, which the plain and staged solves then settle.
POLISH_ITERATIONS = 25


def _seeded_solve(nlp, Z: np.ndarray, solver: SolverOptions) -> list:
    """Solve every lane of ``nlp`` from its row of Z, seeded with the
    multipliers and Lagrangian Hessian estimated there; one solution
    per lane.  Several lanes solve in lock step (:func:`solve_lanes`),
    a single one by :func:`solve`, its one-lane case."""
    multipliers = estimate_multipliers(nlp, Z)
    if len(Z) == 1:
        return [solve(nlp, Z[0], solver,
                      hessian0=nlp.lagrangian_hessian(Z[0], multipliers[0]),
                      multipliers0=multipliers[0])]
    # passed on, not kept here, so the solve can drop each lane's seed
    return solve_lanes(nlp, Z, solver,
                       hessian0=nlp.lagrangian_hessian(Z, multipliers),
                       multipliers0=multipliers)


def _solve_on(problems, spec, s0s, mesh: Mesh, solver: SolverOptions,
              name: str, warms=None) -> list:
    """The solve chain shared by the reference and every re-solve, for
    one or more lanes that differ only in their initial state.

    Lane i's target is ``problems[i]``, or with ``spec`` its augmented
    problem (S(t0) = ``s0s[i]``, zero when None).  Each attempt runs
    only for the lanes the one before did not settle: (1) with
    ``warms``, one seeded polish of every lane's target from its warm
    start ``warms[i]``, all lanes in one lane-stacked NLP, capped at
    POLISH_ITERATIONS; then for each lane alone, (2) the unseeded plain
    solve, from its warm start or the linear guess, and (3) with
    ``spec``, the seeded augmented solve from S staged along the plain
    solution.  Returns per lane ``(trajectory, solution, iterations)``,
    the last summing every attempt, or the RuntimeError naming ``name``
    when its chain ends unconverged or staging fails.  A lane's result
    does not depend on the other lanes.
    """
    targets = (problems if spec is None
               else [augment(p, spec, s0=s) for p, s in zip(problems, s0s)])
    results, spent = [None] * len(targets), [0] * len(targets)
    if warms is not None:
        pins = np.stack([getattr(t, "ocp", t).initial_state for t in targets])
        nlp = transcribe(targets[0], mesh, initial_states=pins)
        sols = _seeded_solve(nlp, _warm_vectors(warms, nlp, pins),
                             replace(solver, max_iterations=min(
                                 POLISH_ITERATIONS, solver.max_iterations)))
        for i, sol in enumerate(sols):
            spent[i] = sol.iterations
            if sol.status == "converged":
                results[i] = (extract_solution(nlp, sol.z,
                                               objective_value=sol.objective),
                              sol, spent[i])
    for i, problem in enumerate(problems):
        if results[i] is None:
            results[i] = _solve_alone(problem, targets[i], mesh, solver, name,
                                      None if warms is None else warms[i],
                                      spent[i])
    return results


def _solve_alone(problem: OcpDefinition, target, mesh: Mesh,
                 solver: SolverOptions, name: str,
                 warm: Optional[Trajectory], spent: int):
    """Attempts (2) and (3) of :func:`_solve_on` for one lane, ``spent``
    iterations in; its result, or the RuntimeError that ends it."""
    plain = transcribe(problem, mesh)
    z = (initial_guess(problem, mesh) if warm is None else _warm_vectors(
        [warm], plain, problem.initial_state[None])[0])
    sol = solve(plain, z, solver)
    spent += sol.iterations
    nlp = plain
    if target is not problem and sol.status == "converged":
        traj = extract_solution(plain, sol.z, objective_value=sol.objective)
        # only now, so that no augmented Jacobian is held through stage 2
        nlp = transcribe(target, mesh)
        try:
            guess = _staged_sensitivity_guess(nlp, traj)
        except RuntimeError as exc:
            return exc
        sol, = _seeded_solve(nlp, guess[None], solver)
        spent += sol.iterations
    if sol.status != "converged":
        return RuntimeError(f"{name} did not converge: {sol.status}")
    return (extract_solution(nlp, sol.z, objective_value=sol.objective), sol,
            spent)


def solve_reference(ocp: OcpDefinition, spec, cfg: GuidanceConfig):
    """Solve the mission's reference problem on the full horizon.

    The cold case of the solve chain: the plain solve from the linear
    guess and, for a desensitized method, the seeded augmented solve
    from the sensitivity staged along it.  Plain methods ignore
    ``spec``; a desensitized method without one raises ValueError
    before any solve.

    Returns ``(trajectory, solution)``; a desensitized solution's
    ``iterations`` counts both stages.  Raises RuntimeError when either
    stage fails to converge.
    """
    if cfg.desensitized and spec is None:
        raise ValueError(f"method {cfg.method} requires a desensitization spec")
    result, = _solve_on([ocp], spec if cfg.desensitized else None, [None],
                        _with_mesh(cfg, ocp).mesh, cfg.solver,
                        "reference solve")
    if isinstance(result, RuntimeError):
        raise result
    traj, sol, spent = result
    return traj, replace(sol, iterations=spent)


def _resolve_cycle(ocp: OcpDefinition, spec, cfg: GuidanceConfig,
                   base_mesh: Mesh, x0, s0, t_start: float, tf: float,
                   warm_start):
    """Re-solve on [t_start, tf] warm-started from the previous solution.

    The mesh keeps ``base_mesh``'s fractions and orders mapped onto the
    remaining horizon (an empty horizon raises ValueError); x(t_start)
    is pinned to ``x0``, and S(t_start) to ``s0`` for desensitized
    methods, while the terminal condition stays in force.

    With one :class:`Trajectory` as ``warm_start``, ``x0`` is (n,) and
    ``s0`` (n, m) or None, and the call returns ``(trajectory,
    solution, iterations)``, the last summing every SQP attempt of the
    chain, or raises RuntimeError when the chain fails.  With a
    sequence of P warm starts, all on one mesh, lane i re-solves from
    ``x0[i]`` (x0 is (P, n)) and ``s0[i]`` (``s0`` a sequence, or None)
    in one lock-stepped solve chain (:func:`_solve_on`), and the call
    returns one entry per lane: that tuple, or the RuntimeError that
    stopped that lane alone.  Each lane equals its re-solve made alone,
    bit for bit.
    """
    mesh = base_mesh.with_time_domain(float(t_start), float(tf))
    one = isinstance(warm_start, Trajectory)
    warms = [warm_start] if one else list(warm_start)
    x0s = [x0] if one else list(x0)
    s0s = [s0] if one else ([None] * len(warms) if s0 is None else list(s0))
    problems = [ocp.with_initial_state(x, time_domain=(float(t_start),
                                                       float(tf)))
                for x in x0s]
    results = _solve_on(problems, spec if cfg.desensitized else None, s0s,
                        mesh, cfg.solver,
                        f"guidance re-solve on [{t_start}, {tf}]", warms)
    if not one:
        return results
    if isinstance(results[0], RuntimeError):
        raise results[0]
    return results[0]


def _check_solved(cfg: GuidanceConfig, traj: Trajectory, name: str,
                  mesh: bool = True) -> None:
    """Reject a precomputed solution from the other method family, or
    with ``mesh`` one not solved on ``cfg.mesh`` (ValueError)."""
    if (traj.sens_shape is not None) != cfg.desensitized:
        family = "desensitized" if cfg.desensitized else "plain"
        raise ValueError(f"method {cfg.method} needs a {family} {name}")
    if mesh and (tuple(traj.orders) != cfg.mesh.orders or not np.array_equal(
            traj.interval_times, cfg.mesh.interval_times())):
        raise ValueError(f"{name} was not solved on the mission's mesh")


def _ends_horizon(t: float, tf: float) -> bool:
    """Whether time ``t`` leaves no horizon before ``tf`` to re-solve on."""
    return t >= tf - 1e-9 * max(1.0, abs(tf))


def nominal_first_resolve(ocp: OcpDefinition, spec, cfg: GuidanceConfig,
                          reference) -> Optional[Trajectory]:
    """Cycle 0's re-solve at the nominal parameters, from ``reference``.

    Batch drivers pass it to every draw's :func:`run_mission` as
    ``first_warm``: a draw hands off near the nominal state, so its
    first re-solve starts next to its optimum.  None when the first
    cycle ends at tf, or when the flight or the re-solve fails.  A
    reference from the other method family or another mesh raises
    ValueError.
    """
    cfg = _with_mesh(cfg, ocp)
    _check_solved(cfg, reference[0], "reference")
    t0, tf = ocp.time_domain
    t_end = cycle_bounds(0, t0, cfg.cycle_duration)[1]
    if _ends_horizon(t_end, tf):
        return None
    traj = reference[0]
    try:
        sim = integrate(ocp, traj, traj.state_at(t0), (t0, t_end))
        x0, s0 = restart_conditions(traj, sim, t_end)
        return _resolve_cycle(ocp, spec, cfg, cfg.mesh, x0, s0, t_end, tf,
                              traj)[0]
    except RuntimeError:
        return None


def run_mission(ocp: OcpDefinition, spec, cfg: GuidanceConfig,
                p_tilde=None, reference=None, first_warm=None
                ) -> MissionResult:
    """Fly one mission with the configured method.

    OC/DOC: one reference solve, then one truth integration across the
    whole horizon with ``p_tilde``.  OG/DOG: after each cycle the truth
    state is handed off exactly, the expired horizon is deleted, and
    the problem is re-solved on the remainder (not after a cycle that
    ends at tf); any horizon left after the last cycle is flown open
    loop on the final solution.  A schedule past the horizon
    (:func:`check_schedule`) or a malformed or non-finite ``p_tilde``
    raises ValueError before any solve; solver or integrator failures
    are recorded on the result, never raised.
    Plain methods ignore ``spec``.

    ``reference`` may carry a precomputed ``(trajectory, solution)``
    pair from :func:`solve_reference` on the same mesh and method
    family, letting batch drivers solve the reference once and fly many
    perturbed missions against it.  ``first_warm``, the result of
    :func:`nominal_first_resolve` for that reference, replaces the
    reference as cycle 0's warm start; the handoff state and S(t1)
    stay the mission's own.  Either one from the other method family,
    or a reference from another mesh, raises ValueError before any
    flight.

    This is the one-lane case of :func:`run_missions`.
    """
    return run_missions(ocp, spec, cfg, [p_tilde], reference=reference,
                        first_warm=first_warm)[0]


@dataclass
class _Lane:
    """One mission in flight: its parameters, its solves (the last is
    the plan it flies), its flown spans and state, and the message
    that stopped it (None while it flies)."""

    p_tilde: np.ndarray
    trajectories: list = field(default_factory=list)
    statuses: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    flown: list = field(default_factory=list)
    x: Optional[np.ndarray] = None
    message: Optional[str] = None

    def solved(self, traj: Trajectory, sol, iterations: int) -> None:
        self.trajectories.append(traj)
        self.statuses.append(sol.status)
        self.iterations.append(iterations)

    def result(self, method: str, tf: float) -> MissionResult:
        failed = self.message is not None
        if self.flown:
            # each span after the first starts at the previous one's end
            times, states, controls = (
                np.concatenate([getattr(sim, name)[min(i, 1):]
                                for i, sim in enumerate(self.flown)])
                for name in ("times", "states", "controls"))
        else:
            times, states, controls = (np.array([]), np.empty((0, 0)),
                                       np.empty((0, 0)))
        return MissionResult(
            method=method, trajectories=self.trajectories,
            statuses=self.statuses, iterations=self.iterations,
            times=times, states=states, controls=controls,
            terminal_state=None if failed else self.x.copy(),
            epsilon=(float("nan") if failed else float(
                self.x[0] - self.trajectories[0].state_at(tf)[0])),
            failed=failed,
            failure_cycle=len(self.trajectories) - 1 if failed else None,
            message=self.message or "",
        )


def run_missions(ocp: OcpDefinition, spec, cfg: GuidanceConfig, p_tildes,
                 reference=None, first_warm=None) -> list:
    """Fly one mission per entry of ``p_tildes`` in lock step.

    Every mission is the one :func:`run_mission` flies with that
    ``p_tilde`` (None for the nominal parameters), and the result is
    their list, in order.  The missions share the reference (solved
    here once when ``reference`` is None) and ``first_warm``.  Per
    guidance cycle, every mission still flying is one lane of a single
    stacked truth flight (:func:`~guidedog.simulation.integrate`) and
    then of one re-solve of all the lanes (:func:`_resolve_cycle`).
    Neither a lane's flight nor its re-solve depends on the others, so
    each mission equals the one flown alone, bit for bit.  A mission
    whose flight or re-solve fails stops there and drops out of later
    cycles; the others fly on.  What :func:`run_mission` rejects before
    any solve (ValueError), this rejects for any entry.
    """
    check_schedule(cfg, ocp.time_domain)
    lanes = [_Lane(check_params(ocp, p)) for p in p_tildes]
    cfg = _with_mesh(cfg, ocp)
    if reference is not None:
        _check_solved(cfg, reference[0], "reference")
    if first_warm is not None:
        _check_solved(cfg, first_warm, "first_warm", mesh=False)
    t0, tf = ocp.time_domain
    try:
        plan, sol = (solve_reference(ocp, spec, cfg) if reference is None
                     else reference)
    except RuntimeError as exc:
        for lane in lanes:
            lane.message = str(exc)
        return [lane.result(cfg.method, tf) for lane in lanes]
    for lane in lanes:
        lane.solved(plan, sol, sol.iterations)
        lane.x = plan.state_at(t0).copy()

    def fly(live, t_start, t_end):
        """One stacked flight of the live lanes on their plans; returns
        the lanes that reach ``t_end``."""
        sims = integrate(ocp, [lane.trajectories[-1] for lane in live],
                         np.stack([lane.x for lane in live]),
                         (t_start, t_end),
                         p_tilde=np.stack([lane.p_tilde for lane in live]))
        for lane, sim in zip(live, sims):
            if isinstance(sim, RuntimeError):
                lane.message = str(sim)
            else:
                lane.flown.append(sim)
                lane.x = np.array(sim.terminal_state, copy=True)
        return [lane for lane in live if lane.message is None]

    live, t_flown = lanes, t0
    for s in range(cfg.cycle_count if cfg.guided else 0):
        if not live:
            break
        t_end = cycle_bounds(s, t0, cfg.cycle_duration)[1]
        live, t_flown = fly(live, t_flown, t_end), t_end
        if _ends_horizon(t_flown, tf):
            break
        # every live lane's re-solve in one lock-stepped call
        restarts = [restart_conditions(lane.trajectories[-1], lane.flown[-1],
                                       t_flown) for lane in live]
        warms = [lane.trajectories[-1] if s or first_warm is None
                 else first_warm for lane in live]
        for lane, result in zip(live, _resolve_cycle(
                ocp, spec, cfg, cfg.mesh, np.stack([x for x, _ in restarts]),
                [s0 for _, s0 in restarts], t_flown, tf, warms)):
            if isinstance(result, RuntimeError):
                lane.message = str(result)
            else:
                lane.solved(*result)
        live = [lane for lane in live if lane.message is None]
    if live and not _ends_horizon(t_flown, tf):
        fly(live, t_flown, tf)
    return [lane.result(cfg.method, tf) for lane in lanes]
