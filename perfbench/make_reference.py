#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the stored per-seed check values.

    python3 perfbench/make_reference.py [--seeds 0-31] [--workload NAME]

For every seed and workload this runs the workload's check set (set-up
plus its first ``CHECK_UNITS`` units, exactly as the benchmark does)
and stores alpha~, epsilon and objective values.  Existing entries for
other seeds and workloads are kept.  Only regenerate after a change
that is meant to move these numbers, and say so where the change is
described.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run

run.pin_blas_threads()
from workloads import WORKLOADS, merge_values  # noqa: E402

PATH = os.path.join(run.HERE, "reference.json")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    api, _ = run.load_api()
    try:
        with open(PATH, encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {"workloads": {}}
    scratch_root = os.path.join(run.ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=scratch_root)
    try:
        for name in args.workload or sorted(WORKLOADS):
            cls = WORKLOADS[name]
            table = stored["workloads"].setdefault(name, {})
            for seed in args.seeds:
                wl = run.make_workload(cls, api, seed, scratch)
                results = run.run_units(wl, cls.CHECK_UNITS)
                errors = [e for r in results for e in r.errors]
                if errors:
                    print(f"{name} seed {seed}: check failed: {errors[0]}",
                          file=sys.stderr)
                    return 1
                table[str(seed)] = merge_values([r.values for r in results])
                print(f"{name} seed {seed}: stored", flush=True)
                with open(PATH, "w", encoding="utf-8") as fh:
                    json.dump(stored, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
