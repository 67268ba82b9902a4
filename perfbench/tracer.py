"""In-memory span recorder that wraps guidedog's public call sites.

The recorder replaces functions at the names their callers look them
up (``guidance.solve``, ``montecarlo.run_mission``, the ``Trajectory``
evaluation methods, ...) and restores every original on ``uninstall``.

Two kinds of records are kept:

* spans, one per call of an outer function (a campaign, a mission, a
  re-solve cycle, an SQP solve, a transcription, an integration).  Each
  span stores its name, start, end, parent span and self time: its
  duration minus the part of it that its children cover.
* per-parent counters for hot leaf calls (trajectory evaluations, NLP
  callbacks, right-hand-side calls).  A timed leaf adds its duration to
  the enclosing span's children time, so that span's self time excludes
  it; a count-only leaf only counts and its time stays with the parent.

Self times of all spans plus all timed leaves add up exactly to the
root span's duration, which is what lets the benchmark check that the
layer split accounts for the whole traced wall time.
"""
from __future__ import annotations

import dataclasses
import functools
import os
import time
from collections import defaultdict


@dataclasses.dataclass
class Span:
    """One finished call of an outer function."""

    span_id: int
    name: str
    parent_id: int | None
    start: float
    end: float
    self_s: float


class _Frame:
    __slots__ = ("span_id", "name", "parent_id", "start", "children_s")

    def __init__(self, span_id, name, parent_id, start):
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.start = start
        self.children_s = 0.0


class Recorder:
    """Spans, per-parent leaf counters and plain counters.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a scripted clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # (parent span name, leaf name) -> [calls, seconds]
        self.leaves = defaultdict(lambda: [0, 0.0])
        # (parent span name, counter name) -> value
        self.counts = defaultdict(int)
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._leaf_depth = 0

    # -- spans ---------------------------------------------------------
    def enter(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(self._next_id, name,
                       None if parent is None else parent.span_id,
                       self.clock())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> Span:
        end = self.clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        self._stack.pop()
        duration = end - frame.start
        span = Span(frame.span_id, frame.name, frame.parent_id, frame.start,
                    end, duration - frame.children_s)
        if self._stack:
            self._stack[-1].children_s += duration
        self.spans.append(span)
        return span

    def call_span(self, name, fn, args, kwargs, on_result=None):
        frame = self.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.exit(frame)
        if on_result is not None:
            on_result(result)
        return result

    @property
    def parent_name(self) -> str:
        return self._stack[-1].name if self._stack else ""

    # -- leaves and counters -------------------------------------------
    def call_leaf(self, name, fn, args, kwargs):
        """Timed leaf: aggregated per enclosing span, no span record.

        A leaf reached from inside another timed leaf is part of the
        outer one's time and is passed straight through.
        """
        if self._leaf_depth:
            return fn(*args, **kwargs)
        self._leaf_depth += 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self._leaf_depth -= 1
            cell = self.leaves[(self.parent_name, name)]
            cell[0] += 1
            cell[1] += elapsed
            if self._stack:
                self._stack[-1].children_s += elapsed

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(self.parent_name, name)] += amount

    # -- queries -------------------------------------------------------
    def span_totals(self, name: str):
        """(calls, inclusive seconds, self seconds) over spans ``name``."""
        calls, total, own = 0, 0.0, 0.0
        for span in self.spans:
            if span.name == name:
                calls += 1
                total += span.end - span.start
                own += span.self_s
        return calls, total, own

    def leaf_totals(self, name: str, parent: str | None = None,
                    exclude_parent: str | None = None):
        calls, seconds = 0, 0.0
        for (par, leaf), (n, s) in self.leaves.items():
            if leaf != name:
                continue
            if parent is not None and par != parent:
                continue
            if exclude_parent is not None and par == exclude_parent:
                continue
            calls += n
            seconds += s
        return calls, seconds

    def count_total(self, name: str, parent: str | None = None) -> int:
        return sum(v for (par, key), v in self.counts.items()
                   if key == name and (parent is None or par == parent))

    def child_count(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        parents = {s.span_id for s in self.spans if s.name == parent}
        return sum(1 for s in self.spans
                   if s.name == child and s.parent_id in parents)


class Patcher:
    """Replaces module and class attributes; ``restore`` puts them back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, owner, attr: str, make_wrapper, label: str) -> bool:
        # read a class attribute from the class dict so a plain function
        # is restored as itself, not as a bound method
        namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in namespace:
            self.missing.append(label)
            return False
        original = namespace[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# Outer functions recorded as spans: (module, attribute, span name).
# Each entry is the name a caller looks the function up by.
SPAN_HOOKS = (
    ("montecarlo", "run_campaign", "montecarlo.run_campaign"),
    ("montecarlo", "sample_alpha", "montecarlo.sample_alpha"),
    ("montecarlo", "summarize", "montecarlo.summarize"),
    ("montecarlo", "solve_reference", "guidance.reference"),
    ("montecarlo", "run_mission", "guidance.mission"),
    ("guidance", "solve_reference", "guidance.reference"),
    ("guidance", "run_mission", "guidance.mission"),
    ("guidance", "_resolve_cycle", "guidance.resolve"),
    ("guidance", "augment", "sensitivity.augment"),
    ("guidance", "transcribe", "transcription.transcribe"),
    ("guidance", "extract_solution", "transcription.extract"),
    ("guidance", "solve", "sqp.solve"),
    ("guidance", "estimate_multipliers", "sqp.multipliers"),
    ("guidance", "integrate", "simulation.integrate"),
    ("reporting", "write_records_csv", "reporting.write"),
    ("reporting", "write_summary_csv", "reporting.write"),
    ("reporting", "emit_scatter_svg", "reporting.write"),
)

# Module whose self time each span and timed leaf counts toward.
LAYER_OF = {
    "bench": "bench",
    "montecarlo.run_campaign": "montecarlo",
    "montecarlo.sample_alpha": "montecarlo",
    "montecarlo.summarize": "montecarlo",
    "guidance.reference": "guidance",
    "guidance.mission": "guidance",
    "guidance.resolve": "guidance",
    "sensitivity.augment": "sensitivity",
    "transcription.transcribe": "transcription",
    "transcription.extract": "transcription",
    "transcription.residual": "transcription",
    "transcription.jacobian": "transcription",
    "transcription.hessian": "transcription",
    "sqp.solve": "sqp",
    "sqp.multipliers": "sqp",
    "simulation.integrate": "simulation",
    "trajectory.eval": "trajectory",
    "reporting.write": "reporting",
}

# NlpProblem callables, wrapped on every problem ``transcribe`` returns.
NLP_LEAVES = (
    ("objective", "transcription.residual"),
    ("constraints", "transcription.residual"),
    ("gradient", "transcription.jacobian"),
    ("jacobian", "transcription.jacobian"),
    ("lagrangian_hessian", "transcription.hessian"),
)


class Tracer:
    """Installs the recorder's wrappers into the guidedog modules."""

    def __init__(self, modules: dict, recorder: Recorder | None = None):
        self.modules = modules
        self.recorder = recorder or Recorder()
        self.patcher = Patcher()
        self.solve_iterations = 0
        self.solve_converged = 0
        self.bytes_written = 0

    @property
    def missing(self) -> list[str]:
        return self.patcher.missing

    def install(self) -> None:
        rec = self.recorder
        for module_name, attr, span_name in SPAN_HOOKS:
            module = self.modules[module_name]
            self.patcher.replace(
                module, attr,
                functools.partial(self._span_wrapper, span_name),
                f"{module_name}.{attr}")
        trajectory_cls = self.modules["trajectory"].Trajectory
        for attr in ("full_state_at", "control_at"):
            self.patcher.replace(
                trajectory_cls, attr,
                lambda fn: _leaf(rec, "trajectory.eval", fn),
                f"trajectory.Trajectory.{attr}")

    def uninstall(self) -> None:
        self.patcher.restore()

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, span_name, fn):
        rec = self.recorder
        on_result = None
        if span_name == "transcription.transcribe":
            on_result = self._wrap_nlp
        elif span_name == "sqp.solve":
            on_result = self._note_solution

        if span_name == "simulation.integrate":
            @functools.wraps(fn)
            def wrapper(ocp, *args, **kwargs):
                target = getattr(ocp, "ocp", ocp)
                with _counted_dynamics(rec, target):
                    return rec.call_span(span_name, fn, (ocp,) + args, kwargs)
            return wrapper

        if span_name == "reporting.write":
            @functools.wraps(fn)
            def wrapper(records, path, *args, **kwargs):
                result = rec.call_span(span_name, fn, (records, path) + args,
                                       kwargs)
                self.bytes_written += os.path.getsize(path)
                return result
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.call_span(span_name, fn, args, kwargs, on_result)
        return wrapper

    def _note_solution(self, sol) -> None:
        self.solve_iterations += int(sol.iterations)
        self.solve_converged += int(sol.status == "converged")

    def _wrap_nlp(self, nlp) -> None:
        rec = self.recorder
        for attr, leaf_name in NLP_LEAVES:
            fn = getattr(nlp, attr, None)
            if fn is not None:
                setattr(nlp, attr, _leaf(rec, leaf_name, fn))


def _leaf(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call_leaf(name, fn, args, kwargs)
    return wrapper


class _counted_dynamics:
    """Counts ``ocp.dynamics`` calls for the duration of one integration."""

    def __init__(self, rec: Recorder, ocp):
        self.rec = rec
        self.ocp = ocp
        self.original = None

    def __enter__(self):
        original = self.ocp.dynamics
        rec = self.rec

        def counted(*args, **kwargs):
            rec.count("simulation.rhs")
            return original(*args, **kwargs)

        self.original = original
        object.__setattr__(self.ocp, "dynamics", counted)
        return self

    def __exit__(self, *exc):
        object.__setattr__(self.ocp, "dynamics", self.original)
        return False


# Per-layer metrics and their units.  The four "count" metrics repeat
# exactly between traced runs of one seed.
LAYER_UNITS = {
    "simulation.integrate.calls": "calls",
    "simulation.integrate.self_s": "s",
    "simulation.rhs.calls": "count",
    "trajectory.eval_sim.calls": "calls",
    "trajectory.eval_sim.s": "s",
    "trajectory.eval_warm.calls": "calls",
    "trajectory.eval_warm.s": "s",
    "sqp.solve.calls": "count",
    "sqp.solve.self_s": "s",
    "sqp.iterations": "count",
    "sqp.converged_ratio": "ratio",
    "sqp.multipliers.calls": "calls",
    "sqp.multipliers.s": "s",
    "sqp.multipliers.self_s": "s",
    "transcription.transcribe.calls": "count",
    "transcription.transcribe.s": "s",
    "transcription.extract.s": "s",
    "transcription.residual.calls": "calls",
    "transcription.residual.s": "s",
    "transcription.jacobian.calls": "calls",
    "transcription.jacobian.s": "s",
    "transcription.hessian.calls": "calls",
    "transcription.hessian.s": "s",
    "guidance.resolves": "calls",
    "guidance.attempts_per_resolve": "ratio",
    "guidance.self_s": "s",
    "guidance.reference.calls": "calls",
    "guidance.reference.s": "s",
    "sensitivity.augment.calls": "calls",
    "sensitivity.augment.s": "s",
    "montecarlo.self_s": "s",
    "reporting.write.s": "s",
    "reporting.bytes": "bytes",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.layer_sum_frac": "fraction",
    "trace.overhead_frac": "fraction",
}
COUNT_ELIGIBLE = tuple(n for n, u in LAYER_UNITS.items() if u == "count")


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, float]:
    """Per-layer metrics of one traced round whose root span took wall_s.

    ``.calls``/``.s`` pairs are call counts and inclusive seconds;
    ``self_s`` excludes the time of instrumented children.  Self times
    of every span and timed leaf, grouped by module, add up to the
    root span's duration; ``gap_s`` in the second return value is what
    is left, zero up to rounding.
    """
    rec = tracer.recorder
    m = {}
    calls, _, own = rec.span_totals("simulation.integrate")
    m["simulation.integrate.calls"] = calls
    m["simulation.integrate.self_s"] = own
    m["simulation.rhs.calls"] = rec.count_total("simulation.rhs")
    m["trajectory.eval_sim.calls"], m["trajectory.eval_sim.s"] = \
        rec.leaf_totals("trajectory.eval", parent="simulation.integrate")
    m["trajectory.eval_warm.calls"], m["trajectory.eval_warm.s"] = \
        rec.leaf_totals("trajectory.eval",
                        exclude_parent="simulation.integrate")

    calls, _, own = rec.span_totals("sqp.solve")
    m["sqp.solve.calls"] = calls
    m["sqp.solve.self_s"] = own
    m["sqp.iterations"] = tracer.solve_iterations
    m["sqp.converged_ratio"] = tracer.solve_converged / calls if calls else 0.0
    calls, total, own = rec.span_totals("sqp.multipliers")
    m["sqp.multipliers.calls"] = calls
    m["sqp.multipliers.s"] = total
    m["sqp.multipliers.self_s"] = own

    calls, total, _ = rec.span_totals("transcription.transcribe")
    m["transcription.transcribe.calls"] = calls
    m["transcription.transcribe.s"] = total
    m["transcription.extract.s"] = rec.span_totals("transcription.extract")[1]
    for part in ("residual", "jacobian", "hessian"):
        n, s = rec.leaf_totals(f"transcription.{part}")
        m[f"transcription.{part}.calls"] = n
        m[f"transcription.{part}.s"] = s

    resolves = rec.span_totals("guidance.resolve")[0]
    m["guidance.resolves"] = resolves
    m["guidance.attempts_per_resolve"] = (
        rec.child_count("sqp.solve", "guidance.resolve") / resolves
        if resolves else 0.0)
    m["guidance.self_s"] = layer_self(rec)["guidance"]
    calls, total, _ = rec.span_totals("guidance.reference")
    m["guidance.reference.calls"] = calls
    m["guidance.reference.s"] = total
    calls, total, _ = rec.span_totals("sensitivity.augment")
    m["sensitivity.augment.calls"] = calls
    m["sensitivity.augment.s"] = total

    by_layer = layer_self(rec)
    m["montecarlo.self_s"] = by_layer["montecarlo"]
    m["reporting.write.s"] = by_layer["reporting"]
    m["reporting.bytes"] = tracer.bytes_written
    m["bench.self_s"] = by_layer["bench"]
    m["trace.wall_s"] = wall_s
    layers_s = sum(v for k, v in by_layer.items() if k != "bench")
    m["trace.layer_sum_frac"] = layers_s / wall_s
    return m, wall_s - sum(by_layer.values())


def layer_self(rec: Recorder) -> dict:
    """Self seconds per module over every span and timed leaf."""
    out = {layer: 0.0 for layer in set(LAYER_OF.values())}
    for span in rec.spans:
        out[LAYER_OF[span.name]] += span.self_s
    for (_, leaf), (_, seconds) in rec.leaves.items():
        out[LAYER_OF[leaf]] += seconds
    return out
