"""Environment header written into every result file.

Numbers are comparable only between runs with the same header: CPU
count, Python, NumPy and OpenBLAS versions, BLAS thread pinning, the
code under test (git SHA where the checkout is a repository, and always
a digest of the program and benchmark sources) and the workload seed.

``pin_blas_threads`` must run before NumPy is first imported; child
processes inherit the variables through the environment.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["BLAS_THREAD_VARS", "pin_blas_threads", "environment_header",
           "HostNoise"]

#: Variables that fix the BLAS/OpenMP thread pools to one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin every BLAS pool to one thread, here and in child processes."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads() must run before numpy is "
                           "imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _openblas_version() -> str | None:
    """Runtime version string of the OpenBLAS NumPy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_config", "openblas_get_config64_",
                       "scipy_openblas_get_config64_",
                       "scipy_openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                return fn().decode("utf-8", "replace").strip()
    return None


def _git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """Digest of the program and benchmark sources."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"),
                        *(root / "perfbench").glob("*.py")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_probe_ms() -> float:
    """Best of five timings of a fixed pure-Python loop, in ms.

    On a shared host, contention that the guest cannot see (a busy
    sibling hyperthread, a lower clock) slows every workload without
    showing up as steal; this probe, taken at the start and end of a
    run, shows it.
    """
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


class HostNoise:
    """How busy the host was while a run was measured: the CPU time the
    hypervisor stole from this machine (``/proc/stat``), as a share of
    all CPU time (``None`` where the kernel does not report it), and
    ``cpu_probe_ms`` at the start and end of the run. Timings from runs
    with very different steal shares or probe times are not
    comparable."""

    def __init__(self) -> None:
        self._probe = cpu_probe_ms()
        self._start = self._read()

    @staticmethod
    def _read() -> tuple[int, int] | None:
        try:
            with open("/proc/stat", encoding="ascii") as fh:
                fields = [int(v) for v in fh.readline().split()[1:]]
        except (OSError, ValueError):
            return None
        steal = fields[7] if len(fields) > 7 else 0
        return steal, sum(fields[:8])

    def report(self) -> dict:
        end = self._read()
        probes = {"cpu_probe_ms": [self._probe, cpu_probe_ms()]}
        if self._start is None or end is None or end[1] == self._start[1]:
            return {"steal_share": None, **probes}
        return {"steal_share": (end[0] - self._start[0])
                / (end[1] - self._start[1]),
                "loadavg_1m": os.getloadavg()[0], **probes}


def environment_header(root: Path, *, workload: str, seed: int,
                       seconds: int, trace: bool) -> dict:
    import numpy as np

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": {var: os.environ.get(var)
                         for var in BLAS_THREAD_VARS},
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root),
        "platform": platform.platform(),
    }
