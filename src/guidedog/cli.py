"""Command-line front end for solves, missions, and campaigns.

Configuration is INI-style key/value text with sections; every key has
a default, unknown sections or keys are rejected so typos surface
immediately, and command-line flags override file values.  Exit codes:
0 success, 1 validation or usage error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .guidance import METHODS, GuidanceConfig, run_mission, solve_reference
from .montecarlo import (PRESETS, MonteCarloConfig, run_campaign, study_mesh,
                         summarize)
from .ocp import example_problem
from .reporting import (emit_scatter_svg, format_float, write_mission_csv,
                        write_records_csv, write_summary_csv,
                        write_trajectory_csv)
from .sqp import SolverOptions
from .transcription import build_mesh, example_mesh

__all__ = ["CampaignConfig", "ValidationError", "NumericalError",
           "parse_config", "main"]

# the closed-loop comparison case pins its flown parameter value
_PRESET_ALPHA_TILDE: Dict[str, float] = {"fig4": 2.0178}


def _parse_methods(raw: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# config (section, key) -> (CampaignConfig field, parser); every default
# lives on CampaignConfig
_CONFIG_FIELDS = {
    ("problem", "name"): ("problem", str),
    ("problem", "alpha"): ("alpha", float),
    ("mesh", "intervals"): ("mesh_intervals", int),
    ("mesh", "order"): ("mesh_order", int),
    ("solver", "max_iterations"): ("max_iterations", int),
    ("solver", "kkt_tolerance"): ("kkt_tolerance", float),
    ("guidance", "period"): ("cycle_duration", float),
    ("guidance", "cycles"): ("cycle_count", int),
    ("guidance", "method"): ("method", str),
    ("mc", "preset"): ("preset", str),
    ("mc", "runs"): ("runs", int),
    ("mc", "q"): ("q", float),
    ("mc", "beta"): ("beta", float),
    ("mc", "seed"): ("seed", int),
    ("mc", "methods"): ("methods", _parse_methods),
    ("output", "directory"): ("output_dir", str),
}


class ValidationError(Exception):
    """Bad configuration or usage; maps to exit code 1."""


class NumericalError(Exception):
    """A solve or mission failed to converge; maps to exit code 2."""


@dataclass(frozen=True)
class CampaignConfig:
    """Fully resolved run description with defaults applied."""

    problem: str = "example"
    alpha: float = 2.0
    mesh_intervals: Optional[int] = None   # None -> shipped graded mesh
    mesh_order: int = 4
    max_iterations: int = 200
    kkt_tolerance: float = 1e-8
    cycle_duration: float = 4.0
    cycle_count: int = 12
    method: str = "DOG"
    preset: Optional[str] = None
    runs: int = 100
    q: float = 0.01
    beta: float = 5.0
    seed: int = 1234
    methods: Tuple[str, ...] = METHODS
    output_dir: str = "."

    def __post_init__(self):
        if self.problem != "example":
            raise ValidationError(
                f"unknown problem {self.problem!r}; only 'example' ships")
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ValidationError("problem.alpha must be positive")
        if self.mesh_intervals is not None and self.mesh_intervals < 1:
            raise ValidationError("mesh.intervals must be at least 1")
        if self.mesh_order < 1:
            raise ValidationError("mesh.order must be at least 1")
        if self.preset is not None and self.preset not in PRESETS:
            raise ValidationError(
                f"unknown preset {self.preset!r}; "
                f"choose from {', '.join(sorted(PRESETS))}")
        try:
            SolverOptions(max_iterations=self.max_iterations,
                          kkt_tolerance=self.kkt_tolerance)
            GuidanceConfig(method=self.method,
                           cycle_duration=self.cycle_duration,
                           cycle_count=self.cycle_count)
            MonteCarloConfig(run_count=self.runs, q=self.q, beta=self.beta,
                             seed=self.seed, methods=self.methods)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        normalized = tuple(str(m).upper() for m in self.methods)
        object.__setattr__(self, "methods", normalized)
        object.__setattr__(self, "method", str(self.method).upper())


def _apply(cfg: CampaignConfig, values: dict) -> CampaignConfig:
    """``cfg`` with one layer of settings (config file or flags) on top.

    A preset in the layer pins q and beta unless the layer sets them
    too; a mesh order needs a mesh interval count, from this layer or
    an earlier one, since only a uniform mesh takes an order.
    """
    if "preset" in values:
        # an unknown preset keeps q and beta; CampaignConfig rejects it
        q, beta = PRESETS.get(values["preset"], (cfg.q, cfg.beta))
        values = {"q": q, "beta": beta, **values}
    if ("mesh_order" in values
            and values.get("mesh_intervals", cfg.mesh_intervals) is None):
        raise ValidationError(
            "mesh.order (--mesh-order) is set without mesh.intervals "
            "(--mesh-intervals); give both for a uniform mesh")
    return replace(cfg, **values)


def parse_config(path: str) -> CampaignConfig:
    """Read and validate an INI config, applying preset then overrides."""
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path) as handle:
            parser.read_file(handle, source=path)
    except (configparser.Error, OSError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc

    sections = {section for section, _ in _CONFIG_FIELDS}
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise ValidationError(
                f"unknown config section [{section}] in {path}")
        for key, raw in parser[section].items():
            if (section, key) not in _CONFIG_FIELDS:
                raise ValidationError(
                    f"unknown key {key!r} in section [{section}] of {path}")
            name, kind = _CONFIG_FIELDS[(section, key)]
            try:
                values[name] = kind(raw.strip())
            except ValueError as exc:
                raise ValidationError(
                    f"key {section}.{key}: cannot parse {raw.strip()!r} "
                    f"as {kind.__name__}") from exc
    return _apply(CampaignConfig(), values)


# ---------------------------------------------------------------------------
# plumbing shared by the subcommands


def _resolve_mesh(cfg: CampaignConfig, t0: float, tf: float):
    """Explicit mesh keys win, then the preset's study mesh, then the
    shipped graded default."""
    if cfg.mesh_intervals is not None:
        return build_mesh(t0, tf, cfg.mesh_intervals, cfg.mesh_order)
    if cfg.preset is not None:
        return study_mesh(t0, tf)
    return example_mesh(t0, tf)


def _guidance(cfg: CampaignConfig, ocp, method: str) -> GuidanceConfig:
    return GuidanceConfig(
        method=method,
        cycle_duration=cfg.cycle_duration,
        cycle_count=cfg.cycle_count,
        mesh=_resolve_mesh(cfg, *ocp.time_domain),
        solver=SolverOptions(max_iterations=cfg.max_iterations,
                             kkt_tolerance=cfg.kkt_tolerance),
    )


def _prepare_output(cfg: CampaignConfig) -> str:
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot create output directory {cfg.output_dir}: {exc}"
        ) from exc
    return cfg.output_dir


def _load(args) -> CampaignConfig:
    """The config file's settings, then every flag given that is named
    after a CampaignConfig field."""
    cfg = parse_config(args.config) if args.config else CampaignConfig()
    names = {f.name for f in fields(CampaignConfig)}
    return _apply(cfg, {name: value for name, value in vars(args).items()
                        if name in names and value is not None})


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    cfg = _load(args)
    ocp, make_spec = example_problem(cfg.alpha)
    method = "DOC" if cfg.beta > 0.0 else "OC"
    try:
        traj, sol = solve_reference(ocp, make_spec(cfg.beta, cfg.q),
                                    _guidance(cfg, ocp, method))
    except RuntimeError as exc:
        raise NumericalError(str(exc)) from exc
    out = _prepare_output(cfg)
    path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(traj, path)
    base = traj.objective if traj.base_objective is None \
        else traj.base_objective
    print(f"solve {method} beta={format_float(cfg.beta)} "
          f"converged in {sol.iterations} iterations")
    print(f"objective = {format_float(traj.objective)}")
    print(f"base objective J = {format_float(base)}")
    print(f"wrote {path}")
    return 0


def _cmd_mission(args) -> int:
    cfg = _load(args)
    ocp, make_spec = example_problem(cfg.alpha)
    method = cfg.method
    alpha_tilde = args.alpha_tilde
    if alpha_tilde is None and cfg.preset is not None:
        alpha_tilde = _PRESET_ALPHA_TILDE.get(cfg.preset)
    if alpha_tilde is None:
        alpha_tilde = cfg.alpha
    p_tilde = np.asarray(ocp.nominal_params, dtype=float).copy()
    p_tilde[0] = alpha_tilde
    try:
        # a schedule past the horizon is rejected before any solve
        mission = run_mission(ocp, make_spec(cfg.beta, cfg.q),
                              _guidance(cfg, ocp, method), p_tilde=p_tilde)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if mission.failed:
        raise NumericalError(
            f"{method} mission failed at cycle {mission.failure_cycle}: "
            f"{mission.message}")
    out = _prepare_output(cfg)
    path = os.path.join(out, f"mission_{method}.csv")
    write_mission_csv(mission, path)
    print(f"mission {method} alpha_tilde={format_float(alpha_tilde)} "
          f"flew {len(mission.statuses) - 1} guidance cycles")
    print(f"epsilon = {format_float(mission.epsilon)}")
    print(f"terminal state = {format_float(mission.terminal_state[0])}")
    print(f"wrote {path}")
    return 0


def _cmd_campaign(args) -> int:
    cfg = _load(args)
    ocp, make_spec = example_problem(cfg.alpha)
    # CampaignConfig has already validated these fields
    mc = MonteCarloConfig(run_count=cfg.runs, q=cfg.q, beta=cfg.beta,
                          seed=cfg.seed, methods=cfg.methods)
    try:
        # a schedule past the horizon is rejected before any solve
        records = run_campaign(ocp, make_spec(cfg.beta, cfg.q), mc,
                               guidance=_guidance(cfg, ocp, cfg.methods[0]))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    stats = summarize(records)
    out = _prepare_output(cfg)
    paths = {
        "records": os.path.join(out, "records.csv"),
        "summary": os.path.join(out, "summary.csv"),
        "scatter": os.path.join(out, "scatter.svg"),
    }
    write_records_csv(records, paths["records"])
    write_summary_csv(stats, paths["summary"])
    emit_scatter_svg(records, paths["scatter"])
    for method, s in stats.items():
        if s.all_failed:
            print(f"{method}: all {s.total} runs failed")
        else:
            print(f"{method}: n={s.total} failures={s.failures} "
                  f"mean={s.mean:+.6e} median={s.median:+.6e} "
                  f"std={s.std:.6e} max|eps|={s.max_abs:.6e}")
    print(f"wrote {paths['records']} {paths['summary']} {paths['scatter']}")
    if all(s.all_failed for s in stats.values()):
        raise NumericalError("every run in the campaign failed")
    return 0


def _cmd_presets(_args) -> int:
    for name in ("fig3a", "fig3b", "fig3c", "fig3d"):
        q, beta = PRESETS[name]
        print(f"{name}  q={q}  beta={beta}  (dispersion campaign)")
    q, beta = PRESETS["fig4"]
    alpha_tilde = _PRESET_ALPHA_TILDE["fig4"]
    print(f"fig4   q={q}  beta={beta}  "
          f"(single mission, alpha_tilde={alpha_tilde})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _add_common(sub):
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--output", dest="output_dir",
                     help="output directory (default '.')")
    sub.add_argument("--preset", help="named case, see the presets command")
    sub.add_argument("--beta", type=float, help="desensitization weight")
    sub.add_argument("--q", type=float, help="parameter spread fraction")
    sub.add_argument("--mesh-intervals", dest="mesh_intervals", type=int,
                     help="uniform mesh interval count (overrides default)")
    sub.add_argument("--mesh-order", dest="mesh_order", type=int,
                     help="collocation points per interval")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="guidedog",
                     description="Desensitized trajectory optimization "
                                 "and closed-loop guidance studies")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="one reference solve")
    _add_common(solve)
    solve.set_defaults(handler=_cmd_solve)

    mission = commands.add_parser("mission", help="one closed-loop mission")
    _add_common(mission)
    mission.add_argument("--method", choices=METHODS, help="mission method")
    mission.add_argument("--alpha-tilde", dest="alpha_tilde", type=float,
                         help="true plant parameter flown")
    mission.set_defaults(handler=_cmd_mission)

    campaign = commands.add_parser("campaign", help="Monte Carlo campaign")
    _add_common(campaign)
    campaign.add_argument("--runs", type=int, help="number of draws")
    campaign.add_argument("--seed", type=int, help="campaign seed")
    campaign.set_defaults(handler=_cmd_campaign)

    presets = commands.add_parser("presets", help="list named cases")
    presets.set_defaults(handler=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
