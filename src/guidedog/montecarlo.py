"""Seeded Monte Carlo campaigns over the uncertain plant parameter.

A campaign draws ``run_count`` perturbed parameter values, flies every
requested method (OC, DOC, OG, DOG) once per draw, and collects the
terminal deviations into per-method records.  Draws are paired: every
method sees the same parameter sequence, so method comparisons are not
confounded by sampling noise.

Each run's draw comes from its own counter-based ``Philox`` stream
keyed by ``(seed, run_index)``.  The sequence therefore depends only on
the seed and the run index — not on how many runs precede it or which
methods are requested — and any prefix of a longer campaign reproduces
the shorter one exactly.  Runs are flown one after another in this
process.

Reference solves are shared: one plain solve covers OC and OG, one
sensitivity-augmented solve covers DOC and DOG.  So is each guided
method's first re-solve, made once at the nominal parameters: every
draw's first re-solve warm-starts from it.  Every mission gets the spec;
plain methods ignore it.  Individual mission failures are recorded on
their records and the campaign continues.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .guidance import (METHODS, GuidanceConfig, check_schedule,
                       nominal_first_resolve, run_mission, solve_reference)
from .ocp import OcpDefinition
from .transcription import Mesh, build_mesh

__all__ = [
    "PRESETS",
    "MonteCarloConfig",
    "MonteCarloRecord",
    "MethodSummary",
    "sample_alpha",
    "study_mesh",
    "run_campaign",
    "summarize",
]

# Named (q, beta) cases: the four dispersion studies plus the single
# closed-loop comparison case used for the mission subcommand.
PRESETS: Dict[str, Tuple[float, float]] = {
    "fig3a": (0.01, 5.0),
    "fig3b": (0.01, 10.0),
    "fig3c": (0.02, 5.0),
    "fig3d": (0.02, 10.0),
    "fig4": (0.01, 10.0),
}

_MAX_SEED = 2**64

# Interval boundaries of the dispersion-study mesh as fractions of the
# horizon: steady 10%-of-horizon strides mid-course, then a
# progressively refined capture tail.
_STUDY_BOUNDS = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                          0.9, 0.96, 0.985, 1.0])
_STUDY_ORDER = 4


def study_mesh(t0: float = 0.0, tf: float = 50.0) -> Mesh:
    """Mesh the named dispersion presets run on.

    Mid-course intervals stay coarse while the final approach is
    progressively refined.  Open-loop plans flown through the coarse
    mid-course accumulate a visible terminal bias, but every guidance
    re-solve horizon stays well resolved, so campaigns on this mesh
    preserve the open-loop-versus-guided contrast the dispersion
    studies are about.  Accuracy-critical work should use the default
    graded mesh instead.
    """
    fractions = 2.0 * _STUDY_BOUNDS - 1.0
    return build_mesh(t0, tf, fractions.size - 1, _STUDY_ORDER,
                      fractions=fractions)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Campaign description.

    ``q`` scales the parameter spread: draws come from N(alpha, (q*alpha)^2)
    where alpha is the first nominal parameter.  ``beta`` is the
    desensitization weight used by the DOC/DOG reference solves.
    """

    run_count: int = 100
    q: float = 0.01
    beta: float = 5.0
    seed: int = 1234
    methods: Tuple[str, ...] = METHODS

    def __post_init__(self):
        if not isinstance(self.run_count, Integral) or self.run_count < 1:
            raise ValueError("run_count must be an integer of at least 1")
        if not (np.isfinite(self.q) and self.q >= 0.0):
            raise ValueError("q must be nonnegative and finite")
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError("beta must be nonnegative and finite")
        if (not isinstance(self.seed, Integral)
                or not 0 <= int(self.seed) < _MAX_SEED):
            raise ValueError("seed must be an integer that fits in 64 bits")
        methods = tuple(str(m).upper() for m in self.methods)
        if not methods:
            raise ValueError("at least one method is required")
        seen = []
        for m in methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
            if m not in seen:
                seen.append(m)
        object.__setattr__(self, "methods", tuple(seen))


@dataclass(frozen=True)
class MonteCarloRecord:
    """Outcome of one mission: one row per (run, method)."""

    run: int
    alpha_tilde: float
    method: str
    epsilon: float          # NaN when the mission failed
    status: str             # "ok" or "failed"
    iterations: int         # SQP iterations of all attempts behind this run's own re-solves

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class MethodSummary:
    """Statistics over the ok records of one method (population std)."""

    method: str
    total: int
    failures: int
    mean: Optional[float]
    median: Optional[float]
    std: Optional[float]
    max_abs: Optional[float]

    @property
    def all_failed(self) -> bool:
        return self.failures == self.total


def sample_alpha(seed: int, run_count: int, alpha: float,
                 sigma: float) -> np.ndarray:
    """Draw the paired parameter sequence for a campaign.

    Run ``i`` takes the first normal variate of the Philox stream keyed
    ``(seed, i)``, so the value never depends on the other runs.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if run_count < 0:
        raise ValueError("run_count must be nonnegative")
    draws = np.empty(run_count)
    for i in range(run_count):
        gen = np.random.Generator(np.random.Philox(key=[int(seed), i]))
        draws[i] = gen.normal(alpha, sigma)
    return draws


def run_campaign(ocp: OcpDefinition, spec, cfg: MonteCarloConfig,
                 guidance: Optional[GuidanceConfig] = None,
                 ) -> List[MonteCarloRecord]:
    """Fly ``run_count`` paired missions for every requested method.

    ``spec`` is the desensitization description used by DOC/DOG (its
    weights should be consistent with ``cfg.beta`` and ``cfg.q``); plain
    methods ignore it, so pass None when only they are requested.
    ``guidance`` supplies the mesh, cycle schedule, and solver options;
    its ``method`` field is overridden per record.  A schedule past the
    horizon or a missing spec raises ValueError before any solve.  A
    reference solve that fails marks every record of its family failed,
    and individual mission failures are recorded without aborting the
    campaign.
    """
    if guidance is None:
        guidance = GuidanceConfig()
    configs = {m: replace(guidance, method=m) for m in cfg.methods}
    for mission_cfg in configs.values():
        check_schedule(mission_cfg, ocp.time_domain)

    nominal = np.asarray(ocp.nominal_params, dtype=float)
    alpha = float(nominal[0])
    draws = sample_alpha(cfg.seed, cfg.run_count, alpha, cfg.q * alpha)

    # one reference per family, the desensitized one first so that a
    # missing spec raises before any solve
    references: Dict[bool, Optional[tuple]] = {}
    for desensitized in sorted({c.desensitized for c in configs.values()},
                               reverse=True):
        probe = replace(guidance, method="DOC" if desensitized else "OC")
        try:
            references[desensitized] = solve_reference(ocp, spec, probe)
        except RuntimeError:
            references[desensitized] = None
    # each guided method's first re-solve, made once at the nominal draw
    first_warm = {m: nominal_first_resolve(ocp, spec, c,
                                           references[c.desensitized])
                  for m, c in configs.items()
                  if c.guided and references[c.desensitized] is not None}

    def one_run(i: int) -> List[MonteCarloRecord]:
        alpha_tilde = float(draws[i])
        p_tilde = nominal.copy()
        p_tilde[0] = alpha_tilde
        rows = []
        for method, mission_cfg in configs.items():
            reference = references[mission_cfg.desensitized]
            if reference is None:
                rows.append(MonteCarloRecord(i, alpha_tilde, method,
                                             float("nan"), "failed", 0))
                continue
            mission = run_mission(ocp, spec, mission_cfg, p_tilde=p_tilde,
                                  reference=reference,
                                  first_warm=first_warm.get(method))
            rows.append(MonteCarloRecord(
                run=i, alpha_tilde=alpha_tilde, method=method,
                epsilon=float("nan") if mission.failed else mission.epsilon,
                status="failed" if mission.failed else "ok",
                iterations=int(sum(mission.iterations[1:]))))
        return rows

    return [record for i in range(cfg.run_count) for record in one_run(i)]


def summarize(records: Sequence[MonteCarloRecord]
              ) -> Dict[str, MethodSummary]:
    """Per-method statistics over ok records, in first-appearance order.

    The standard deviation uses the population convention (ddof = 0).
    Methods whose records all failed get a summary with absent
    statistics rather than being dropped.
    """
    if not records:
        raise ValueError("no records to summarize")
    order: List[str] = []
    grouped: Dict[str, List[MonteCarloRecord]] = {}
    for record in records:
        if record.method not in grouped:
            order.append(record.method)
            grouped[record.method] = []
        grouped[record.method].append(record)

    summaries: Dict[str, MethodSummary] = {}
    for method in order:
        rows = grouped[method]
        eps = np.array([r.epsilon for r in rows if r.ok])
        failures = len(rows) - eps.size
        if eps.size:
            summaries[method] = MethodSummary(
                method=method, total=len(rows), failures=failures,
                mean=float(np.mean(eps)), median=float(np.median(eps)),
                std=float(np.std(eps)), max_abs=float(np.max(np.abs(eps))))
        else:
            summaries[method] = MethodSummary(
                method=method, total=len(rows), failures=failures,
                mean=None, median=None, std=None, max_abs=None)
    return summaries
