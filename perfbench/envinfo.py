"""Environment record attached to every benchmark result.

Records the core count, the pinned BLAS thread count, interpreter and
library versions, the code under test (git commit when the checkout is
a repository, plus a digest of the guidedog sources) and the load
average at the start and end of the run.  A run that began while other
processes kept the cores busy is flagged: on a two-core machine one
concurrent numpy process has made a guided mission seven times slower.
"""
from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time

# Busy share of all cores, sampled just before the run, above which
# the run counts as contended: half a core on a two-core machine.
CONTENDED_BUSY_SHARE = 0.25
SAMPLE_S = 0.2


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_times():
    line = _read("/proc/stat")
    if line is None:
        return None
    fields = [int(v) for v in line.splitlines()[0].split()[1:]]
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    return sum(fields), idle


def busy_share(seconds: float = SAMPLE_S) -> float | None:
    """Share of all cores busy over a short window while this process sleeps."""
    before = _cpu_times()
    time.sleep(seconds)
    after = _cpu_times()
    if before is None or after is None or after[0] == before[0]:
        return None
    total = after[0] - before[0]
    return 1.0 - (after[1] - before[1]) / total


def snapshot(root: str) -> dict:
    """State of the machine as the run begins."""
    share = busy_share()
    return {
        "loadavg_start": _read("/proc/loadavg"),
        "busy_share_start": share,
        "contended_at_start": share is not None
        and share > CONTENDED_BUSY_SHARE,
    }


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "guidedog")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _thread_count() -> int | None:
    """Threads of this process: 1 unless something ignored the BLAS pin."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def finish(start: dict, root: str, api, blas_threads: str) -> dict:
    """Complete the record at the end of the run."""
    import numpy
    import scipy
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    record = dict(start)
    record.update({
        "nproc": cores,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
        "loadavg_end": _read("/proc/loadavg"),
        "threads": _thread_count(),
    })
    return record
