"""Pieces the runner shares with its child processes: the checkout's source
tree, the child environment, seed derivation, latency summaries and run
metadata.  Imports nothing outside the standard library, so that the
set-up timer can start before numpy and quakewait are imported."""
from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10


class MissingSource(RuntimeError):
    """The checkout has no quakewait source tree to benchmark."""


def pin_threads(env=os.environ) -> None:
    """One BLAS thread per process; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        env[var] = "1"


def use_source_tree() -> None:
    """Put this checkout's ``src`` first on ``sys.path``."""
    if not (SRC / "quakewait" / "__init__.py").is_file():
        raise MissingSource(f"no quakewait package under {SRC}")
    sys.path.insert(0, str(SRC))


def require_source(module) -> None:
    """Refuse a quakewait imported from anywhere but this checkout."""
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise MissingSource(f"quakewait imported from {module.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for child interpreters: this checkout's source first,
    BLAS pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    pin_threads(env)
    return env


def derive_seed(workload_seed: int, *labels) -> int:
    """A 32-bit seed for one input, fixed by the workload seed and the
    input's labels (workload, batch, position), independent of run order
    and of Python's hash randomisation."""
    key = repr((int(workload_seed),) + labels).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "little")


def tail_latency(latencies, beyond: int = TAIL_BEYOND):
    """The highest percentile that still has ``beyond`` samples above it.

    Returns (value, percentile, count).  The value is the order statistic
    with exactly ``beyond`` larger samples, so the percentile moves
    smoothly with the count instead of jumping between p90 and p99.
    With ``beyond`` samples or fewer, no percentile qualifies and the
    maximum is returned as the 100th percentile.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n == 0:
        raise ValueError("no latencies")
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


def _git_sha():
    """HEAD of the checkout, read from ``.git`` without running git (which
    would search parent directories); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "quakewait").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(**run) -> dict:
    import numpy
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        **run,
    }
