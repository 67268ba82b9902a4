"""Receding-horizon guidance: fly a cycle, trim the horizon, re-solve.

Four mission methods share one engine.  OC and DOC solve once on the
full horizon and fly it open loop; OG and DOG re-solve on the remaining
horizon after every guidance cycle, pinning the re-solve's initial
state to the simulated truth state and — for the desensitized variant —
the initial sensitivity to the reference solution's value at the
handoff time.  Desensitized methods (DOC/DOG) carry sensitivity states
and the terminal penalty; plain methods (OC/OG) solve the unaugmented
problem.

Re-solves keep the reference mesh's interval fractions and orders,
compressed onto the remaining horizon, and are warm-started from the
previous solution evaluated at that mesh's node times
(``Mesh.node_times``).  Sensitivity staging runs along a trajectory's
own intervals and node times.  Seeding the solver
with the Lagrangian Hessian evaluated at the warm point makes each
re-solve a Newton polish: at the nominal parameter every cycle
converges in one or two iterations.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .ocp import OcpDefinition
from .sensitivity import augment
from .simulation import integrate
from .sqp import SolverOptions, estimate_multipliers, initial_guess, solve
from .trajectory import Trajectory
from .transcription import (
    Mesh,
    example_mesh,
    extract_solution,
    pack_values,
    sensitivity_block,
    transcribe,
)

__all__ = [
    "METHODS",
    "GuidanceConfig",
    "MissionResult",
    "cycle_bounds",
    "restart_conditions",
    "solve_reference",
    "run_mission",
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
        if self.cycle_duration <= 0.0:
            raise ValueError("cycle_duration must be positive")
        if self.cycle_count < 1:
            raise ValueError("cycle_count must be at least 1")

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
    Every entry sums all SQP attempts behind its solve: both stages of a
    desensitized reference, and for a re-solve the seeded solve, the
    default retry and the staged recovery, whichever ran.
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
    reference_objective: Optional[float]
    failed: bool = False
    failure_cycle: Optional[int] = None
    message: str = ""


def cycle_bounds(s: int, t0: float, cycle_duration: float,
                 tf: Optional[float] = None) -> tuple[float, float]:
    """Time span covered by guidance cycle ``s`` (cycles index from 0)."""
    if s < 0:
        raise ValueError(f"cycle index must be nonnegative, got {s}")
    if cycle_duration <= 0.0:
        raise ValueError("cycle_duration must be positive")
    t_start = t0 + s * cycle_duration
    t_end = t0 + (s + 1) * cycle_duration
    if tf is not None and t_end > tf + 1e-9 * max(1.0, abs(tf)):
        raise ValueError(
            f"cycle {s} ends at {t_end}, beyond the horizon end {tf}"
        )
    return t_start, t_end


def restart_conditions(prev_solution: Trajectory, sim, t_handoff: float):
    """Initial conditions for the re-solve at a handoff time.

    The state restarts from the simulated truth's exact terminal vector,
    so the handoff time must be the simulation's end time (ValueError
    otherwise); the sensitivity (when the previous solution carries
    one) restarts from the previous solved trajectory — the truth plant
    never propagates S.
    """
    t_handoff = float(t_handoff)
    if abs(t_handoff - sim.t_end) > 1e-9 * max(1.0, abs(sim.t_end)):
        raise ValueError(
            f"handoff at t = {t_handoff}, but the simulation ends at {sim.t_end}")
    x0 = np.array(sim.terminal_state, copy=True)
    s0 = None
    if prev_solution.sens_shape is not None:
        s0 = prev_solution.sensitivity_at(t_handoff)
    return x0, s0


def _warm_vector(traj: Trajectory, nlp, first_row: np.ndarray) -> np.ndarray:
    """Previous solution interpolated onto the new mesh, first row pinned.

    Only the NLP's own state columns are kept, so a plain problem can
    start from a desensitized trajectory.
    """
    sup, col = nlp.mesh.node_times()
    states = traj.full_state_at(np.minimum(sup, traj.tf))[:, : nlp.layout.n_aug]
    states[0] = first_row
    controls = traj.control_at(np.minimum(col, traj.tf))
    return pack_values(nlp.layout, states, controls)


def _seed_and_solve(nlp, z: np.ndarray, solver_opts: SolverOptions,
                    retry_default: bool = True):
    """Solve from z with multipliers and Hessian estimated at z.

    Near an optimum the estimated Lagrangian Hessian turns the solve
    into a Newton polish (one or two iterations).  Far from one it can
    be indefinite and stall the line search, so a failed seeded solve
    falls back to the same warm start under the solver's default
    quasi-Newton initialization unless the caller has a better
    recovery of its own (``retry_default=False``).  Returns the solution
    kept and the iterations of every attempt made.
    """
    multipliers = estimate_multipliers(nlp, z)
    hessian = None
    if nlp.lagrangian_hessian is not None:
        hessian = nlp.lagrangian_hessian(z, multipliers)
    sol = solve(nlp, z, solver_opts, hessian0=hessian, multipliers0=multipliers)
    spent = sol.iterations
    if sol.status != "converged" and hessian is not None and retry_default:
        fallback = solve(nlp, z, solver_opts)
        spent += fallback.iterations
        if fallback.status == "converged":
            return fallback, spent
    return sol, spent


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
    """Augmented warm start: reference (x, u) plus S propagated along it.

    Two sensitivity profiles are computed: one by stable time stepping
    of the true linear dynamics, and one solving the transcribed
    collocation conditions exactly (ideal when the mesh resolves S --
    the seeded solve becomes a one-step Newton polish).  The S defects
    and S(t0) pins of ``nlp_aug`` are linear in S, so the collocated
    profile is one linear solve on their block of the NLP's Jacobian.
    When the two disagree the mesh is too coarse for the collocated
    profile to mean anything, and the stable one makes the far better
    seed.  ``traj`` must lie on ``nlp_aug``'s mesh.
    """
    aug = nlp_aug.source
    s_stable = _propagated_sensitivity(aug.base, traj, aug.s0)
    s_rows = s_stable.transpose(0, 2, 1).reshape(-1, aug.n_x * aug.n_param)
    sup, col = nlp_aug.mesh.node_times()
    states = np.hstack([traj.full_state_at(sup), s_rows])
    z = pack_values(nlp_aug.layout, states, traj.control_at(col))
    rows, cols = sensitivity_block(nlp_aug)
    try:
        step = np.linalg.solve(nlp_aug.jacobian(z)[np.ix_(rows, cols)],
                               nlp_aug.constraints(z)[rows])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"sensitivity staging failed: {exc}") from exc
    # the step is the collocated profile's gap to the stable one
    scale = 1.0 + float(np.max(np.abs(s_stable)))
    if float(np.max(np.abs(step))) <= 0.1 * scale:
        z[cols] -= step
    return z


def solve_reference(ocp: OcpDefinition, spec, cfg: GuidanceConfig):
    """Solve the mission's reference problem on the full horizon.

    Plain methods cold-start from the built-in linear guess.  The
    desensitized reference is staged: the plain problem is solved cold,
    the sensitivity ODE is integrated along that solution to seed the
    augmented problem, and a Hessian evaluated at the seed turns the
    augmented solve into a short Newton polish.

    Returns ``(trajectory, solution)``; a desensitized solution's
    ``iterations`` counts the plain stage and every augmented attempt.
    Raises RuntimeError when any stage fails to converge.
    """
    mesh = _with_mesh(cfg, ocp).mesh
    nlp = transcribe(ocp, mesh)
    sol = solve(nlp, initial_guess(ocp, mesh), cfg.solver)
    if sol.status != "converged":
        raise RuntimeError(f"reference solve did not converge: {sol.status}")
    traj = extract_solution(nlp, sol.z, objective_value=sol.objective)
    if not cfg.desensitized:
        return traj, sol
    if spec is None:
        raise ValueError(f"method {cfg.method} requires a desensitization spec")
    aug_prob = augment(ocp, spec)
    nlp_aug = transcribe(aug_prob, mesh)
    z0 = _staged_sensitivity_guess(nlp_aug, traj)
    sol_aug, spent = _seed_and_solve(nlp_aug, z0, cfg.solver)
    if sol_aug.status != "converged":
        raise RuntimeError(
            f"desensitized reference solve did not converge: {sol_aug.status}"
        )
    traj_aug = extract_solution(nlp_aug, sol_aug.z,
                                objective_value=sol_aug.objective)
    return traj_aug, replace(sol_aug, iterations=sol.iterations + spent)


def _resolve_cycle(ocp: OcpDefinition, spec, cfg: GuidanceConfig,
                   base_mesh: Mesh, x0, s0, t_start: float, tf: float,
                   warm_start: Trajectory):
    """Re-solve on [t_start, tf] warm-started from the previous solution.

    The mesh keeps ``base_mesh``'s fractions and orders mapped onto the
    remaining horizon (an empty horizon raises ValueError); x(t_start)
    is pinned to ``x0``, and S(t_start) to ``s0`` for desensitized
    methods, while the terminal condition stays in force.  Returns
    ``(trajectory, solution, iterations)``, the last summing every SQP
    attempt made; raises RuntimeError when no attempt converges.
    """
    mesh = base_mesh.with_time_domain(float(t_start), float(tf))
    x0 = np.asarray(x0, dtype=float)
    shrunk = ocp.with_initial_state(x0, time_domain=(float(t_start), float(tf)))
    if cfg.desensitized:
        s_mat = (np.zeros((ocp.n_states, ocp.n_params)) if s0 is None
                 else np.atleast_2d(np.asarray(s0, dtype=float)))
        problem = augment(shrunk, spec, s0=s_mat)
        first_row = np.concatenate([x0, s_mat.ravel(order="F")])
    else:
        problem, first_row = shrunk, x0
    nlp = transcribe(problem, mesh)
    z_warm = _warm_vector(warm_start, nlp, first_row)
    if cfg.desensitized:
        # A consistent warm start polishes in a handful of iterations;
        # one that crawls is inconsistent and the staged recovery below
        # is both faster and surer, so the direct attempt gets a short
        # budget rather than the full one.
        quick = replace(cfg.solver,
                        max_iterations=min(25, cfg.solver.max_iterations))
        sol, spent = _seed_and_solve(nlp, z_warm, quick, retry_default=False)
    else:
        sol, spent = _seed_and_solve(nlp, z_warm, cfg.solver)
    if sol.status != "converged" and cfg.desensitized:
        # Staged recovery, mirroring the reference pipeline: when the
        # carried augmented warm start is too inconsistent (large truth
        # mismatch on a coarse mesh), solve the plain shrunken problem
        # first and integrate S along it for a consistent restart.
        nlp_plain = transcribe(shrunk, mesh)
        z_plain = _warm_vector(warm_start, nlp_plain, x0)
        sol_plain, plain_spent = _seed_and_solve(nlp_plain, z_plain, cfg.solver)
        spent += plain_spent
        if sol_plain.status == "converged":
            traj_plain = extract_solution(nlp_plain, sol_plain.z,
                                          objective_value=sol_plain.objective)
            try:
                z_staged = _staged_sensitivity_guess(nlp, traj_plain)
            except RuntimeError:
                z_staged = None
            if z_staged is not None:
                sol, staged_spent = _seed_and_solve(nlp, z_staged, cfg.solver)
                spent += staged_spent
    if sol.status != "converged":
        raise RuntimeError(
            f"guidance re-solve on [{t_start}, {tf}] did not converge: "
            f"{sol.status}"
        )
    return (extract_solution(nlp, sol.z, objective_value=sol.objective), sol,
            spent)


def run_mission(ocp: OcpDefinition, spec, cfg: GuidanceConfig,
                p_tilde=None, reference=None) -> MissionResult:
    """Fly one mission with the configured method.

    OC/DOC: one reference solve, then one truth integration across the
    whole horizon with ``p_tilde``.  OG/DOG: after each cycle the truth
    state is handed off exactly, the expired horizon is deleted, and
    the problem is re-solved on the remainder; any horizon left after
    the last cycle is flown open loop on the final solution.  Solver or
    integrator failures are recorded on the result, never raised.

    ``reference`` may carry a precomputed ``(trajectory, solution)``
    pair from :func:`solve_reference` on the same mesh and method
    family, letting batch drivers solve the reference once and fly many
    perturbed missions against it.
    """
    t0, tf = ocp.time_domain
    horizon = tf - t0
    if cfg.guided:
        flown = cfg.cycle_count * cfg.cycle_duration
        if flown > horizon + 1e-9 * max(1.0, horizon):
            raise ValueError(
                f"{cfg.cycle_count} cycles x {cfg.cycle_duration} s "
                f"exceed the {horizon} s horizon"
            )
    cfg = _with_mesh(cfg, ocp)

    def failed(message, trajectories, statuses, iterations,
               seg_times, seg_states, seg_controls, reference_objective):
        stitched = _stitch(seg_times, seg_states, seg_controls)
        return MissionResult(
            method=cfg.method, trajectories=trajectories, statuses=statuses,
            iterations=iterations, times=stitched[0], states=stitched[1],
            controls=stitched[2], terminal_state=None, epsilon=float("nan"),
            reference_objective=reference_objective, failed=True,
            failure_cycle=len(trajectories) - 1, message=message,
        )

    if reference is None:
        try:
            ref_traj, ref_sol = solve_reference(ocp, spec, cfg)
        except RuntimeError as exc:
            return failed(str(exc), [], [], [], [], [], [], None)
    else:
        ref_traj, ref_sol = reference

    trajectories = [ref_traj]
    statuses = [ref_sol.status]
    iterations = [ref_sol.iterations]
    x_ref_end = ref_traj.state_at(tf)
    x = ref_traj.state_at(t0).copy()
    seg_times, seg_states, seg_controls = [], [], []
    current = ref_traj

    def fly(span_start, span_end):
        nonlocal x
        sim = integrate(ocp, current, x, (span_start, span_end),
                        p_tilde=p_tilde)
        skip = 1 if seg_times else 0     # joint sample already recorded
        seg_times.append(sim.times[skip:])
        seg_states.append(sim.states[skip:])
        seg_controls.append(sim.controls[skip:])
        x = np.array(sim.terminal_state, copy=True)
        return sim

    try:
        if not cfg.guided:
            fly(t0, tf)
        else:
            for s in range(cfg.cycle_count):
                t_start, t_end = cycle_bounds(s, t0, cfg.cycle_duration, tf=tf)
                sim = fly(t_start, t_end)
                x_next, s0 = restart_conditions(current, sim, t_end)
                current, sol, spent = _resolve_cycle(
                    ocp, spec, cfg, cfg.mesh, x_next, s0, t_end, tf, current)
                trajectories.append(current)
                statuses.append(sol.status)
                iterations.append(spent)
            t_covered = t0 + cfg.cycle_count * cfg.cycle_duration
            if t_covered < tf - 1e-9 * max(1.0, abs(tf)):
                fly(t_covered, tf)
    except RuntimeError as exc:
        return failed(str(exc), trajectories, statuses, iterations,
                      seg_times, seg_states, seg_controls, ref_sol.objective)

    times, states, controls = _stitch(seg_times, seg_states, seg_controls)
    return MissionResult(
        method=cfg.method, trajectories=trajectories, statuses=statuses,
        iterations=iterations, times=times, states=states, controls=controls,
        terminal_state=x.copy(), epsilon=float(x[0] - x_ref_end[0]),
        reference_objective=ref_sol.objective,
    )


def _stitch(seg_times, seg_states, seg_controls):
    if not seg_times:
        return np.array([]), np.empty((0, 0)), np.empty((0, 0))
    return (np.concatenate(seg_times), np.vstack(seg_states),
            np.vstack(seg_controls))
