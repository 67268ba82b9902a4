"""Deterministic artifact writers: CSV records, summaries, and SVG plots.

Every writer produces byte-identical output for identical input, writes
through a temporary file renamed into place (no partial files on
failure), and serializes floats with 17 significant digits so a
round-trip parse reproduces them bit-exactly.
"""
from __future__ import annotations

import math
import os
import tempfile
from typing import Dict, List, Sequence

import numpy as np

from .guidance import MissionResult
from .montecarlo import MethodSummary, MonteCarloRecord
from .trajectory import Trajectory

__all__ = [
    "RECORD_HEADER",
    "format_float",
    "write_records_csv",
    "write_summary_csv",
    "write_trajectory_csv",
    "write_mission_csv",
    "emit_scatter_svg",
]

RECORD_HEADER = "run,alpha_tilde,method,epsilon,status,iterations"

GRID_POINTS = 501   # uniform sampling added to the support points


def format_float(value: float) -> str:
    """Shortest-faithful decimal form: parses back to the same bits."""
    return f"{float(value):.17g}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=".tmp-", suffix=".part",
        delete=False, newline="")
    try:
        with handle:
            handle.write(text)
        # created 0600: give the artifact the mode a plain open() would
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(handle.name, 0o666 & ~mask)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def write_records_csv(records: Sequence[MonteCarloRecord],
                      path: str) -> None:
    """One row per (run, method) in campaign order.

    Failed records leave the epsilon field empty: a failed mission has
    no terminal deviation.
    """
    if not records:
        raise ValueError("no records to write")
    lines = [RECORD_HEADER]
    for r in records:
        eps = "" if math.isnan(r.epsilon) else format_float(r.epsilon)
        lines.append(f"{r.run},{format_float(r.alpha_tilde)},{r.method},"
                     f"{eps},{r.status},{r.iterations}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_summary_csv(summaries: Dict[str, MethodSummary],
                      path: str) -> None:
    """Per-method statistics table; absent statistics stay empty."""
    if not summaries:
        raise ValueError("no summaries to write")

    def cell(value):
        return "" if value is None else format_float(value)

    lines = ["method,total,failures,mean,median,std,max_abs"]
    for method, s in summaries.items():
        lines.append(f"{method},{s.total},{s.failures},{cell(s.mean)},"
                     f"{cell(s.median)},{cell(s.std)},{cell(s.max_abs)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _float_row(values) -> str:
    return ",".join(format_float(v) for v in values)


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Sampled solve: a uniform GRID_POINTS grid plus every support point.

    Columns are time, the base states, any sensitivity channels (in
    the trajectory's own flattened order), then the controls.
    """
    times = np.union1d(np.linspace(traj.t0, traj.tf, GRID_POINTS),
                       np.concatenate(traj.state_times))
    states, controls = traj.sample(times)
    n_x = traj.n_states
    n_extra = states.shape[1] - n_x
    header = (["time"]
              + [f"x{i + 1}" for i in range(n_x)]
              + [f"s{i + 1}" for i in range(n_extra)]
              + [f"u{i + 1}" for i in range(controls.shape[1])])
    lines = [",".join(header)]
    for t, x, u in zip(times, states, controls):
        lines.append(f"{format_float(t)},{_float_row(x)},{_float_row(u)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_mission_csv(mission: MissionResult, path: str) -> None:
    """Stitched flown truth of one mission at the integrator's grid."""
    if mission.failed:
        raise ValueError(
            f"mission did not complete ({mission.message}); "
            "no trajectory to write")
    n_x = mission.states.shape[1]
    header = (["time"] + [f"x{i + 1}" for i in range(n_x)]
              + [f"u{i + 1}" for i in range(mission.controls.shape[1])])
    lines = [",".join(header)]
    for t, x, u in zip(mission.times, mission.states, mission.controls):
        lines.append(f"{format_float(t)},{_float_row(x)},{_float_row(u)}")
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scatter plot

_WIDTH, _HEIGHT = 640.0, 420.0
_MARGIN_LEFT, _MARGIN_RIGHT = 70.0, 20.0
_MARGIN_TOP, _MARGIN_BOTTOM = 20.0, 50.0
_MARKER_RADIUS = 2.5
_JITTER_FRACTION = 0.6   # share of a category slot spanned by run jitter


def _coord(value: float) -> str:
    return f"{value:.2f}"


def _axis_label(value: float) -> str:
    return f"{value:.3g}"


def emit_scatter_svg(records: Sequence[MonteCarloRecord],
                     path: str) -> None:
    """Terminal-deviation scatter: one marker per ok record.

    Methods are categories on the horizontal axis (jittered by run
    index so paired draws stay distinguishable), epsilon is vertical,
    and a reference line marks zero.  Output bytes depend only on the
    records.
    """
    if not records:
        raise ValueError("no records to plot")
    methods: List[str] = []
    for r in records:
        if r.method not in methods:
            methods.append(r.method)
    ok = [r for r in records if r.ok]

    span = max((abs(r.epsilon) for r in ok), default=0.0)
    if span == 0.0:
        span = 1.0
    span *= 1.1

    x0, x1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    y0, y1 = _MARGIN_TOP, _HEIGHT - _MARGIN_BOTTOM
    y_mid = 0.5 * (y0 + y1)
    slot = (x1 - x0) / len(methods)
    max_run = max((r.run for r in records), default=0)

    def y_of(eps: float) -> float:
        return y_mid - (eps / span) * 0.5 * (y1 - y0)

    def x_of(method: str, run: int) -> float:
        center = x0 + (methods.index(method) + 0.5) * slot
        if max_run == 0:
            return center
        shift = (run / max_run - 0.5) * slot * _JITTER_FRACTION
        return center + shift

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}"'
        f' height="{_HEIGHT:.0f}"'
        f' viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        '<style>text{font-family:sans-serif;font-size:12px;}'
        '.marker{fill:#1f6fb2;fill-opacity:0.65;}'
        '.zero-line{stroke:#c0392b;stroke-width:1;}'
        '.frame{fill:none;stroke:#333;stroke-width:1;}'
        '.tick{stroke:#333;stroke-width:1;}</style>',
        f'<rect class="frame" x="{_coord(x0)}" y="{_coord(y0)}"'
        f' width="{_coord(x1 - x0)}" height="{_coord(y1 - y0)}"/>',
        f'<line class="zero-line" x1="{_coord(x0)}" y1="{_coord(y_mid)}"'
        f' x2="{_coord(x1)}" y2="{_coord(y_mid)}"/>',
    ]
    for tick in (-span, 0.0, span):
        ty = y_of(tick)
        parts.append(f'<line class="tick" x1="{_coord(x0 - 5)}"'
                     f' y1="{_coord(ty)}" x2="{_coord(x0)}"'
                     f' y2="{_coord(ty)}"/>')
        parts.append(f'<text class="ytick" x="{_coord(x0 - 8)}"'
                     f' y="{_coord(ty + 4)}" text-anchor="end">'
                     f'{_axis_label(tick)}</text>')
    for m in methods:
        cx = x0 + (methods.index(m) + 0.5) * slot
        parts.append(f'<text class="xtick" x="{_coord(cx)}"'
                     f' y="{_coord(y1 + 18)}" text-anchor="middle">{m}</text>')
    parts.append(f'<text class="ylabel" x="15" y="{_coord(y_mid)}"'
                 f' transform="rotate(-90 15 {_coord(y_mid)})"'
                 ' text-anchor="middle">terminal deviation</text>')
    parts.append(f'<text class="xlabel" x="{_coord(0.5 * (x0 + x1))}"'
                 f' y="{_coord(_HEIGHT - 12)}"'
                 ' text-anchor="middle">method</text>')
    for r in ok:
        parts.append(f'<circle class="marker m-{r.method}"'
                     f' cx="{_coord(x_of(r.method, r.run))}"'
                     f' cy="{_coord(y_of(r.epsilon))}"'
                     f' r="{_MARKER_RADIUS}"/>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")
