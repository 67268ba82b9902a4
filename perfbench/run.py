#!/usr/bin/env python3
"""guidedog benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The benchmark imports guidedog from
the checkout's ``src/`` and from nowhere else.  ``--trace 0`` measures
the end-to-end metrics with nothing wrapped; ``--trace 1`` runs the
check set of the workload
untraced and then traced, in alternation, and reports the per-layer
split of the traced rounds.  The last line of standard output is one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed
and 2 when the benchmark could not run (no guidedog source next to it).
See perfbench/README.md for the workloads, metrics and predictions.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import envinfo  # noqa: E402
import tracer as tracing  # noqa: E402

BLAS_THREADS = "1"

# Percentiles a tail may be reported at; the tail is the highest one
# with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
# A run makes at least this many passes over its inputs (and a traced
# run this many rounds), and starts no pass after HARD_STOP_S, so that
# it ends well inside three minutes.
MIN_PASSES = 2
HARD_STOP_S = 100.0
# Share of the traced wall time the layers (everything but the
# benchmark's own loop and checks) must account for.
LAYER_SUM_MARGIN = 0.05

# The import of numpy, scipy and guidedog is timed in this process and
# in IMPORT_REPEATS - 1 fresh interpreters; setup_s takes the median.
IMPORT_REPEATS = 3
IMPORT_PROBE = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import numpy
for name in sys.argv[2:]:
    importlib.import_module("guidedog." + name)
print(time.perf_counter() - start)
"""

WORKLOAD_NAMES = ("campaign", "guided_mission", "cold_solve")
MODULES = ("guidance", "montecarlo", "ocp", "reporting", "simulation",
           "sqp", "trajectory", "transcription")


class SetupError(RuntimeError):
    """The checkout holds no guidedog source to benchmark."""


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy is first imported.

    A second BLAS thread competes with the interpreter for the cores.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def load_api():
    """Import guidedog from ``<checkout>/src``; returns (api, seconds)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "guidedog", "__init__.py")):
        raise SetupError(f"no guidedog package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    start = time.perf_counter()
    import importlib
    import numpy  # noqa: F401
    modules = {name: importlib.import_module(f"guidedog.{name}")
               for name in MODULES}
    import workloads  # noqa: F401
    import_s = time.perf_counter() - start
    origin = os.path.dirname(os.path.realpath(modules["guidance"].__file__))
    if origin != os.path.join(src, "guidedog"):
        raise SetupError(f"guidedog was imported from {origin}, not {src}")
    api = types.SimpleNamespace(Patcher=tracing.Patcher, modules=modules,
                                **modules)
    return api, import_s


def import_seconds(first_s: float) -> float:
    """Median import time: this process's, and fresh interpreters'."""
    times = [first_s]
    src = os.path.join(ROOT, "src")
    for _ in range(IMPORT_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src,
                              *MODULES], capture_output=True, text=True,
                             cwd=ROOT, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail_rank(n: int):
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9:
            best = p
    return best


def latency(samples, rank_n=None):
    """(p50, tail, tail percentile) of a list of durations.

    The tail's percentile is chosen for ``rank_n`` samples (all of them
    by default), so that runs of different lengths report one rank.
    """
    import numpy as np
    data = np.asarray(samples, dtype=float)
    rank = tail_rank(data.size if rank_n is None else rank_n)
    tail = float(np.max(data)) if rank is None \
        else float(np.percentile(data, rank))
    return float(np.median(data)), tail, rank


def check_reference(workload, seed, values, log) -> list:
    """Compare the check set's values with the stored per-seed ones."""
    from workloads import compare_values
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)["workloads"].get(workload, {}).get(str(seed))
    if stored is None:
        log(f"  reference values: none stored for seed {seed}; "
            "boundary-condition and record checks only")
        return []
    errors = compare_values(stored, values, f"{workload} seed {seed}")
    log(f"  reference values: seed {seed} compared, "
        f"{'ok' if not errors else f'{len(errors)} mismatches'}")
    return errors


def make_workload(cls, api, seed, scratch):
    wl = cls(api, seed, scratch)
    wl.setup()
    return wl


def run_units(wl, count):
    return [wl.run_unit(i) for i in range(count)]


def measure(cls, api, args, scratch, import_s, log):
    """Untraced run: set-up repeats, then whole passes until time is up.

    A pass runs every unit of the workload once, on the same inputs each
    time, so that every pass can be checked against the first; a pass
    is only started when it is expected to end inside ``--seconds``.
    """
    from workloads import merge_values
    import_s = import_seconds(import_s)
    setups = []
    for _ in range(cls.SETUP_REPEATS):
        start = time.perf_counter()
        wl = make_workload(cls, api, args.seed, scratch)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_units(wl, cls.UNITS))
        elapsed = time.perf_counter() - start
        expected = elapsed * (len(passes) + 1) / len(passes)
        if len(passes) >= MIN_PASSES and expected > args.seconds:
            break
        if elapsed >= HARD_STOP_S:
            break
    loop_s = time.perf_counter() - start

    results = [r for p in passes for r in p]
    errors = [e for r in results for e in r.errors]
    errors += check_repeatable(passes)
    ops = sum(r.ops for r in results)
    ok = sum(r.ok for r in results)
    work_s = sum(r.work_s for r in results)
    samples = [s for r in results for s in r.samples]
    rank_n = sum(len(r.samples) for p in passes[:MIN_PASSES] for r in p)
    p50, tail, rank = latency(samples, rank_n)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / work_s, "1/s"),
        "p50_s": (p50, "s"),
        "tail_s": (tail, "s"),
        "ok_fraction": (ok / ops, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }

    names = cls.e2e_names
    log(f"{cls.name}: {len(passes)} passes of {cls.UNITS} unit(s) in "
        f"{loop_s:.3f} s; {ops} {cls.op_name}s in {work_s:.3f} s of work")
    log(f"  setup_s {setup_s:.4f} s  (imports {import_s:.4f} s + median "
        f"of {len(setups)} set-ups {statistics.median(setups):.4f} s)")
    log(f"  {names['ops_per_s']} {ops / work_s:.4f} 1/s  [ops_per_s, "
        f"{cls.ops_note}]")
    tail_at = "max" if rank is None else f"p{rank:g}"
    log(f"  latency of one {cls.sample_name}, {len(samples)} samples "
        f"(tail rank set by the {rank_n} of the first {MIN_PASSES} passes):")
    log(f"    {names['p50_s']} {p50:.4f} s  [p50_s]")
    log(f"    {names['tail_s']} {tail:.4f} s  [tail_s, {tail_at}]")
    for method, times in _by_method(results).items():
        p, t, r = latency(times, len(times) * MIN_PASSES // len(passes))
        log(f"    {method:<4} p50 {p:.4f} s, "
            f"{'max' if r is None else f'p{r:g}'} {t:.4f} s, "
            f"{len(times)} samples")
    log(f"  failed_fraction {(ops - ok) / ops:.4f} fraction  "
        f"({ops - ok} of {ops}; ok_fraction {ok / ops:.4f})")
    log(f"  peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB")

    values = merge_values([r.values for r in passes[0][:cls.CHECK_UNITS]])
    errors += check_reference(cls.name, args.seed, values, log)
    failed = sum(r.failed for r in results)
    return metrics, ops, failed, errors


def check_repeatable(passes) -> list:
    """Every pass must reproduce the first pass's outputs exactly."""
    errors = []
    for n, p in enumerate(passes[1:], start=2):
        for i, (a, b) in enumerate(zip(passes[0], p)):
            if (a.values, a.ok) != (b.values, b.ok):
                errors.append(f"unit {i} gave other outputs in pass {n} "
                              "than in pass 1")
    return errors


def _by_method(results) -> dict:
    out = {}
    for r in results:
        for method, times in r.by_method.items():
            out.setdefault(method, []).extend(times)
    return out


def trace(cls, api, args, scratch, log):
    """Check set untraced and traced, in rounds, until time is up.

    Rounds alternate which of the two goes first, and a set-up before
    the first round warms the caches both of them use.  There are at
    least two rounds, so the exact counts are compared within every
    traced run.
    """
    from workloads import merge_values
    make_workload(cls, api, args.seed, scratch)
    rounds, shares = [], []
    start = time.perf_counter()
    while True:
        if len(rounds) % 2:
            traced = _traced_round(cls, api, args, scratch)
            untraced_s = _untraced_round(cls, api, args, scratch)
        else:
            untraced_s = _untraced_round(cls, api, args, scratch)
            traced = _traced_round(cls, api, args, scratch)
        layers, gap_s, results, missing, by_layer = traced
        layers["trace.overhead_frac"] = \
            (layers["trace.wall_s"] - untraced_s) / untraced_s
        rounds.append((layers, results, missing, gap_s))
        shares.append({k: v / layers["trace.wall_s"]
                       for k, v in by_layer.items()})
        elapsed = time.perf_counter() - start
        expected = elapsed * (len(rounds) + 1) / len(rounds)
        if len(rounds) >= MIN_PASSES and expected > args.seconds:
            break
        if elapsed >= HARD_STOP_S:
            break

    errors = []
    first, results, missing, _ = rounds[0]
    for i, (layers, _, _, _) in enumerate(rounds[1:], start=2):
        for name in tracing.COUNT_ELIGIBLE:
            if layers[name] != first[name]:
                errors.append(f"{name} was {first[name]} in round 1 and "
                              f"{layers[name]} in round {i}")
    metrics = {}
    for name, unit in tracing.LAYER_UNITS.items():
        values = [layers[name] for layers, _, _, _ in rounds]
        metrics[name] = (statistics.median(values), unit)
    sum_frac = metrics["trace.layer_sum_frac"][0]
    if sum_frac < 1.0 - LAYER_SUM_MARGIN:
        errors.append(f"layers account for {sum_frac:.4f} of the traced "
                      f"wall time, under 1 - {LAYER_SUM_MARGIN}")
    for layers, round_results, _, gap_s in rounds:
        if abs(gap_s) > 1e-9 * layers["trace.wall_s"]:
            errors.append("self times do not add up to the traced wall time "
                          f"(gap {gap_s:.3g} s)")
        errors += [e for r in round_results for e in r.errors]

    log(f"{cls.name} traced: {len(rounds)} rounds of set-up + "
        f"{cls.CHECK_UNITS} unit(s), each run untraced and traced; "
        "medians over the rounds")
    if missing:
        log(f"  hooks not found (their metrics read 0): {', '.join(missing)}")
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        log(f"  {name:<{width}} {value:.6g} {unit}")
    log("  share of the traced wall time by module (self time, median):")
    for module in sorted(shares[0], key=lambda k: -shares[0][k]):
        share = statistics.median(s[module] for s in shares)
        log(f"    {module:<14} {100 * share:6.2f} %")
    truth = (metrics["simulation.integrate.self_s"][0]
             + metrics["trajectory.eval_sim.s"][0])
    log(f"    truth integration (simulation + trajectory.eval_sim) "
        f"{100 * truth / metrics['trace.wall_s'][0]:.2f} %")
    missions = cls.CHECK_UNITS * cls.MISSIONS_PER_UNIT
    if missions:
        log(f"  transcribe calls per mission "
            f"{metrics['transcription.transcribe.calls'][0] / missions:.2f}")
    values = merge_values([r.values for r in results])
    errors += check_reference(cls.name, args.seed, values, log)
    ops = sum(r.ops for _, rr, _, _ in rounds for r in rr)
    failed = sum(r.failed for _, rr, _, _ in rounds for r in rr)
    return metrics, ops, failed, errors


def _untraced_round(cls, api, args, scratch) -> float:
    start = time.perf_counter()
    wl = make_workload(cls, api, args.seed, scratch)
    run_units(wl, cls.CHECK_UNITS)
    return time.perf_counter() - start


def _traced_round(cls, api, args, scratch):
    tr = tracing.Tracer(api.modules)
    tr.install()
    try:
        rec = tr.recorder
        root = rec.enter("bench")
        wl = make_workload(cls, api, args.seed, scratch)
        results = run_units(wl, cls.CHECK_UNITS)
        wall = rec.exit(root)
    finally:
        tr.uninstall()
    layers, gap_s = tracing.layer_metrics(tr, wall.end - wall.start)
    return layers, gap_s, results, tr.missing, tracing.layer_self(tr.recorder)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    log = print
    start_env = envinfo.snapshot(ROOT)
    try:
        api, import_s = load_api()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    log(f"guidedog benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        if args.trace:
            metrics, ops, failed, errors = trace(cls, api, args, scratch, log)
        else:
            metrics, ops, failed, errors = measure(cls, api, args, scratch,
                                                   import_s, log)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass       # another run still uses it

    env = envinfo.finish(start_env, ROOT, api, BLAS_THREADS)
    log("env " + json.dumps(env, sort_keys=True))
    if env["contended_at_start"]:
        log("  warning: another process was using the cores when this run "
            "began; its timings are suspect")
    for e in errors[:20]:
        log(f"  check failed: {e}")
    if len(errors) > 20:
        log(f"  ... {len(errors) - 20} more failed checks")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": int(ops),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
