"""The three benchmark workloads and their output checks.

Every workload talks to guidedog only through module attributes
(``api.guidance.run_mission``, ``api.montecarlo.run_campaign``, ...), so
the tracer's wrappers see every call.  A workload is run as

    setup()                      # problem, mesh, spec, references
    run_unit(0), ..., run_unit(UNITS - 1)     # one pass, repeated

where a unit is one campaign, one guided draw (OG + DOG) or one cold
solve.  Units are numbered and their inputs depend only on the seed and
the unit number, so every pass repeats the same inputs.  Each unit
reports its latency samples and its mission or solve times by method.
The first ``CHECK_UNITS`` units are the check set whose outputs are
compared with the stored per-seed reference values.
"""
from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

# Boundary conditions of the shipped example problem.
X_START, X_END = 1.5, 1.0
BC_TOL = 1e-8
# Stored-value tolerances.  Batched or reordered truth integration moves
# epsilon by about 1e-10; swapping OG and DOG on the fig4 case moves it
# by 6e-8 and swapping OC and DOC moves the objective by 1.8e-6
# relative, so both tolerances still catch a method mix-up.
EPS_ABS_TOL = 2e-8
OBJ_REL_TOL = 1e-7


@dataclass
class UnitResult:
    """What one unit did: work time, operations, latency samples, checks."""

    work_s: float = 0.0
    ops: int = 0              # missions flown or cold solves attempted
    ok: int = 0               # completed missions or converged solves
    failed: int = 0           # operations that failed (mission failure, crash)
    samples: list = field(default_factory=list)       # latency samples, s
    by_method: dict = field(default_factory=dict)     # method -> [s, ...]
    errors: list = field(default_factory=list)        # failed output checks
    values: dict = field(default_factory=dict)        # check-set values


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))


def _check_solution(traj, label: str, errors: list, x_start=X_START) -> None:
    """Boundary conditions of a converged solve, read off its samples."""
    x0 = float(traj.state_values[0][0, 0])
    xf = float(traj.state_values[-1][-1, 0])
    if not abs(x0 - x_start) <= BC_TOL:
        errors.append(f"{label}: x(t0) = {x0!r}, expected {x_start!r}")
    if not abs(xf - X_END) <= BC_TOL:
        errors.append(f"{label}: x(tf) = {xf!r}, expected {X_END!r}")


def check_mission(mission, label: str, errors: list) -> None:
    """Every solve of a completed mission meets its boundary conditions.

    The reference starts from x(t0) = 1.5; each re-solve starts from the
    truth state handed off at its start time, which the flown history
    records exactly.
    """
    if mission.failed:
        return
    if not math.isfinite(mission.epsilon):
        errors.append(f"{label}: epsilon is {mission.epsilon!r}")
    for j, (traj, status) in enumerate(zip(mission.trajectories,
                                           mission.statuses)):
        if status != "converged":
            errors.append(f"{label}: solve {j} has status {status!r}")
            continue
        if j == 0:
            _check_solution(traj, f"{label} reference", errors)
            continue
        hit = np.nonzero(mission.times == traj.t0)[0]
        if hit.size == 0:
            errors.append(f"{label}: no flown state at re-solve {j} start")
            continue
        _check_solution(traj, f"{label} re-solve {j}", errors,
                        x_start=float(mission.states[hit[0], 0]))


class _Workload:
    """Holds the API, the seed and the scratch directory of one run.

    ``alpha(unit)`` is the unit's draw from N(2, SIGMA^2), taken from the
    library's paired-draw sampler: draw i is the first normal variate of
    the Philox stream keyed (seed, i), whatever the number of draws.
    """

    SIGMA = 0.0

    def __init__(self, api, seed: int, scratch: str):
        self.api = api
        self.seed = seed
        self.scratch = scratch
        self.alphas = np.empty(0)

    def alpha(self, unit: int) -> float:
        if unit >= self.alphas.size:
            self.alphas = self.api.montecarlo.sample_alpha(
                self.seed, max(64, 2 * (unit + 1)), 2.0, self.SIGMA)
        return float(self.alphas[unit])


class Campaign(_Workload):
    """``run_campaign`` on the fig3a preset, study mesh, all four methods.

    A unit is one campaign of ``DRAWS`` paired draws, followed by the
    records, summary and scatter artifacts written to a scratch
    directory; a pass is two such campaigns.  Throughput is taken over
    whole units, which go through ``run_campaign`` itself, so a
    campaign engine that batches flights or flies them in other
    processes is measured the same way.
    Missions that ``run_campaign`` flies in this process through
    ``montecarlo.run_mission`` are timed and checked one by one.  A
    latency sample is one paired draw: the time of its missions, one
    per method (a single mission's time would fall between the quick
    open-loop and the slower guided clusters).  If ``run_campaign``
    flies nothing here, the sample is the unit's time per draw.
    """

    name = "campaign"
    op_name = "mission"
    sample_name = "paired draw (OC+DOC+OG+DOG)"
    e2e_names = {"ops_per_s": "missions_per_s", "p50_s": "draw_p50_s",
                 "tail_s": "draw_tail_s"}
    ops_note = ("draws x methods over campaign time, campaigns of "
                "5 draws x 4 methods")
    DRAWS = 5
    MISSIONS_PER_UNIT = 4 * DRAWS
    UNITS = 2
    CHECK_UNITS = 1
    SETUP_REPEATS = 5

    def setup(self) -> None:
        api = self.api
        q, beta = api.montecarlo.PRESETS["fig3a"]
        self.ocp, make_spec = api.ocp.example_problem(alpha=2.0)
        self.spec = make_spec(beta=beta, q=q)
        self.q, self.beta = q, beta
        self.guidance = api.guidance.GuidanceConfig(
            mesh=api.montecarlo.study_mesh(*self.ocp.time_domain))

    def campaign_seed(self, unit: int) -> int:
        return ((self.seed % 2**48) * 4096 + unit) % 2**64

    def run_unit(self, unit: int) -> UnitResult:
        api = self.api
        mc, rp = api.montecarlo, api.reporting
        cfg = mc.MonteCarloConfig(run_count=self.DRAWS, q=self.q,
                                  beta=self.beta,
                                  seed=self.campaign_seed(unit))
        flown = []

        def observe(fn):
            @functools.wraps(fn)   # keeps it picklable by reference
            def timed(ocp, spec, cfg, *args, **kwargs):
                start = time.perf_counter()
                mission = fn(ocp, spec, cfg, *args, **kwargs)
                flown.append((cfg.method, time.perf_counter() - start,
                              mission))
                return mission
            return timed

        out = os.path.join(self.scratch, f"campaign-{unit}")
        os.makedirs(out, exist_ok=True)
        paths = {name: os.path.join(out, name)
                 for name in ("records.csv", "summary.csv", "scatter.svg")}
        patch = api.Patcher()
        patch.replace(mc, "run_mission", observe, "montecarlo.run_mission")
        start = time.perf_counter()
        try:
            records = mc.run_campaign(self.ocp, self.spec, cfg, self.guidance)
        finally:
            patch.restore()
        rp.write_records_csv(records, paths["records.csv"])
        rp.write_summary_csv(mc.summarize(records), paths["summary.csv"])
        rp.emit_scatter_svg(records, paths["scatter.svg"])
        res = UnitResult(work_s=time.perf_counter() - start)
        res.ops = len(records)
        res.ok = sum(1 for r in records if r.ok)
        res.failed = res.ops - res.ok
        self._check_records(records, cfg, paths, res.errors)
        per_draw = len(cfg.methods)
        for i, (method, elapsed, mission) in enumerate(flown):
            res.by_method.setdefault(method, []).append(elapsed)
            if i % per_draw == 0:
                res.samples.append(0.0)
            res.samples[-1] += elapsed
            check_mission(mission, f"campaign {unit} mission {i}",
                          res.errors)
        if not flown:
            res.samples = [res.work_s / cfg.run_count] * cfg.run_count
        res.values = {
            "alpha_tilde": [r.alpha_tilde for r in records
                            if r.method == cfg.methods[0]],
            "epsilon": [None if not r.ok else r.epsilon for r in records],
        }
        return res

    def _check_records(self, records, cfg, paths, errors) -> None:
        want = {(i, m) for i in range(cfg.run_count) for m in cfg.methods}
        got = [(r.run, r.method) for r in records]
        if len(got) != len(want) or set(got) != want:
            errors.append(f"records cover {sorted(set(got))}, expected one "
                          f"per (draw, method) for {cfg.run_count} draws")
        with open(paths["records.csv"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if len(rows) != 1 + len(records):
            errors.append(f"records.csv has {len(rows) - 1} rows for "
                          f"{len(records)} records")
        else:
            for row, r in zip(rows[1:], records):
                eps = row.split(",")[3]
                if r.ok and float(eps) != r.epsilon:
                    errors.append(f"records.csv epsilon {eps} != {r.epsilon!r}")
                    break
        with open(paths["summary.csv"], encoding="utf-8") as fh:
            methods = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
        if methods != list(cfg.methods):
            errors.append(f"summary.csv lists {methods}")
        with open(paths["scatter.svg"], encoding="utf-8") as fh:
            markers = fh.read().count("<circle ")
        if markers != sum(1 for r in records if r.ok):
            errors.append(f"scatter.svg has {markers} markers")


class GuidedMission(_Workload):
    """OG and DOG missions with fig4 weights on the default graded mesh.

    Set-up solves the plain and desensitized references once; a unit is
    one draw alpha~ ~ N(2, 0.02^2) flown by OG and then DOG against
    them.  A latency sample is the draw's OG + DOG pair: the median of
    single missions would fall between the OG and the DOG cluster and
    move with their edges.  Twenty draws a pass give the 40 samples a
    p75 tail needs in two passes.
    """

    name = "guided_mission"
    op_name = "mission"
    sample_name = "paired draw (OG+DOG)"
    e2e_names = {"ops_per_s": "missions_per_s", "p50_s": "mission_p50_s",
                 "tail_s": "mission_tail_s"}
    ops_note = "missions over mission time"
    METHODS = ("OG", "DOG")
    SIGMA = 0.02
    MISSIONS_PER_UNIT = len(METHODS)
    UNITS = 20
    CHECK_UNITS = 4
    SETUP_REPEATS = 3

    def setup(self) -> None:
        api = self.api
        gd = api.guidance
        q, beta = api.montecarlo.PRESETS["fig4"]
        self.ocp, make_spec = api.ocp.example_problem(alpha=2.0)
        self.spec = make_spec(beta=beta, q=q)
        self.configs = {m: gd.GuidanceConfig(method=m) for m in self.METHODS}
        self.references = {
            m: gd.solve_reference(self.ocp, self.spec if m == "DOG" else None,
                                  self.configs[m])
            for m in self.METHODS
        }
        self.alpha(0)   # draws the first 64 inputs during set-up

    def run_unit(self, unit: int) -> UnitResult:
        gd = self.api.guidance
        alpha = self.alpha(unit)
        res = UnitResult()
        eps = []
        for m in self.METHODS:
            start = time.perf_counter()
            mission = gd.run_mission(
                self.ocp, self.spec if m == "DOG" else None, self.configs[m],
                p_tilde=np.array([alpha]), reference=self.references[m])
            elapsed = time.perf_counter() - start
            res.work_s += elapsed
            res.by_method.setdefault(m, []).append(elapsed)
            res.ops += 1
            if mission.failed:
                res.failed += 1
                eps.append(None)
            else:
                res.ok += 1
                eps.append(mission.epsilon)
            check_mission(mission, f"draw {unit} {m}", res.errors)
        res.samples = [res.work_s]
        if unit == 0:
            for m, (traj, sol) in self.references.items():
                _check_solution(traj, f"{m} reference", res.errors)
        res.values = {
            "alpha_tilde": [alpha],
            "epsilon": eps,
            "reference_objective": sorted(
                sol.objective for _, sol in self.references.values()),
        }
        return res


# The cold-start mesh sweep: (label, kind, intervals, order).
COLD_SWEEP = (
    [(f"graded-12x{n}", "graded", 12, n) for n in (8, 9, 10, 11, 12)]
    + [("study", "study", None, None)]
    + [(f"uniform-{k}x{n}", "uniform", k, n)
       for k, n in ((10, 4), (20, 6), (20, 10), (40, 6), (40, 10))]
)


class ColdSolve(_Workload):
    """Cold ``solve_reference`` for OC and DOC over a fixed mesh sweep.

    A unit is one solve: the k-th (mesh, method) pair of the sweep, on
    ``example_problem(alpha)`` with its own draw alpha ~ N(2, (1e-6)^2).
    Nothing is flown.  The draws are narrow on purpose: a cold solve's
    path is chaotic in alpha (uniform 40x10 fails in 1.6 s at alpha = 2,
    converges in 6.7 s at 2 + 1.4e-4 and runs to the iteration limit in
    14 s at 1.995), so a wide draw would measure which of those a seed
    happened to hit.  At this width every seed sees the nominal
    problem's behaviour, including its cold-start failures (though even
    at this width graded 12x11 converges for about one draw in four).
    A pass is the whole sweep, so every run weighs every mesh the same.
    A solve that does not converge (``solve_reference`` raises
    RuntimeError) counts against ``ok_fraction``: it is the cold-start
    defect this workload tracks, not a benchmark failure.
    """

    name = "cold_solve"
    op_name = "solve"
    sample_name = "cold solve"
    e2e_names = {"ops_per_s": "solves_per_s", "p50_s": "solve_p50_s",
                 "tail_s": "solve_tail_s"}
    ops_note = "solves attempted over solve time"
    METHODS = ("OC", "DOC")
    SIGMA = 1e-6
    MISSIONS_PER_UNIT = 0
    UNITS = len(COLD_SWEEP) * 2
    CHECK_UNITS = UNITS
    SETUP_REPEATS = 5

    def setup(self) -> None:
        api = self.api
        tr = api.transcription
        q, beta = api.montecarlo.PRESETS["fig4"]
        self.q, self.beta = q, beta
        graded = tr.example_mesh(0.0, 50.0).tau_boundaries
        meshes = []
        for label, kind, k, n in COLD_SWEEP:
            if kind == "graded":
                mesh = tr.build_mesh(0.0, 50.0, k, n, fractions=graded)
            elif kind == "study":
                mesh = api.montecarlo.study_mesh(0.0, 50.0)
            else:
                mesh = tr.build_mesh(0.0, 50.0, k, n)
            meshes.append((label, mesh))
        self.plan = [(label, mesh, m) for label, mesh in meshes
                     for m in self.METHODS]
        self.alpha(0)   # draws the first 64 inputs during set-up

    def run_unit(self, unit: int) -> UnitResult:
        api = self.api
        label, mesh, method = self.plan[unit % len(self.plan)]
        alpha = self.alpha(unit)
        ocp, make_spec = api.ocp.example_problem(alpha=alpha)
        spec = make_spec(beta=self.beta, q=self.q) if method == "DOC" else None
        cfg = api.guidance.GuidanceConfig(method=method, mesh=mesh)
        res = UnitResult(ops=1)
        objective = None
        start = time.perf_counter()
        try:
            traj, sol = api.guidance.solve_reference(ocp, spec, cfg)
        except RuntimeError:
            res.work_s = time.perf_counter() - start
        except Exception as exc:   # recorded as a failed operation
            res.work_s = time.perf_counter() - start
            res.failed = 1
            res.errors.append(f"solve {unit} {label} {method}: "
                              f"{type(exc).__name__}: {exc}")
        else:
            res.work_s = time.perf_counter() - start
            res.ok = 1
            objective = sol.objective
            if not math.isfinite(objective):
                res.errors.append(f"solve {unit}: objective {objective!r}")
            _check_solution(traj, f"solve {unit} {label} {method}",
                            res.errors)
        res.samples = [res.work_s]
        res.by_method[method] = [res.work_s]
        res.values = {"alpha_tilde": [alpha], "objective": [objective]}
        return res


WORKLOADS = {w.name: w for w in (Campaign, GuidedMission, ColdSolve)}


def compare_values(stored: dict, got: dict, label: str) -> list:
    """Differences between check-set values and their stored references.

    Values missing on either side (a solve that did not converge, a
    failed mission) are not compared: those outcomes are counted by the
    benchmark's failure metrics instead.
    """
    errors = []
    for key, want in stored.items():
        have = got.get(key)
        if have is None or len(have) != len(want):
            errors.append(f"{label}: {key} has {have!r}, stored {want!r}")
            continue
        for i, (a, b) in enumerate(zip(have, want)):
            if a is None or b is None:
                continue
            if key == "epsilon":
                ok = _close(a, b, 0.0, EPS_ABS_TOL)
            elif key == "alpha_tilde":
                ok = a == b
            else:
                ok = _close(a, b, OBJ_REL_TOL)
            if not ok:
                errors.append(f"{label}: {key}[{i}] = {a!r}, stored {b!r}")
    return errors


def merge_values(parts: list) -> dict:
    """Concatenate the per-unit check values of the check set."""
    out: dict = {}
    for values in parts:
        for key, seq in values.items():
            if key == "reference_objective":
                out[key] = list(seq)
            else:
                out.setdefault(key, []).extend(seq)
    return out
