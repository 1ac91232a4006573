"""Metric catalogue and helpers shared by the workloads.

Every workload reports every metric. An end-to-end metric means, per
workload (see README.md for the full table):

* ``setup_s`` — median time until the first timed operation is ready;
* ``wall_s`` — wall time of the timed region;
* ``quality_r2`` — R^2 of the workload's forecasts;
* ``ok_share`` — operations that succeeded with correct output, over
  operations attempted (``1 - fail_share``);
* ``p50_ms`` — median latency of one operation (a Table II row, one
  evaluation, one request);
* ``max_rps`` — operations completed per second (for ``serve``: with
  both connections sending back to back);
* ``peak_rss_mb`` — largest resident set of any process of the run.

Per-layer metrics of a layer the workload bypasses read 0.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["END_TO_END", "PER_LAYER", "Repetition", "Stopwatch",
           "peak_rss_mb", "median", "finite", "matmul_gflop",
           "ReferenceStore"]

#: name -> unit of the end-to-end metrics (the ``--trace 0`` output).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "quality_r2": "1",
    "ok_share": "1",
    "p50_ms": "ms",
    "max_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: name -> unit of the per-layer metrics (the ``--trace 1`` output).
PER_LAYER = {
    "data.sst_s": "s",
    "pod.fit_s": "s",
    "pod.project_s": "s",
    "data.window_s": "s",
    "forecast.pipeline_s": "s",
    "forecast.score_s": "s",
    "nn.train_s": "s",
    "nn.train_gflop": "GFLOP",
    "nn.train_gflops": "GFLOP/s",
    "baselines.tree_s": "s",
    "baselines.linear_s": "s",
    "nas.evals": "count",
    "nas.search_s": "s",
    "nas.train_s_per_eval": "s",
    "hpc.pool_spawn_s": "s",
    "hpc.executor_s": "s",
    "hpc.gather_wait_s": "s",
    "hpc.dispatch_s": "s",
    "hpc.inflight_mean": "count",
    "hpc.pool_busy_share": "1",
    "nn.forward_b1_ms": "ms",
    "serve.protocol.codec_us": "us",
    "serve.hit_p50_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.cache.hit_ratio": "1",
    "serve.engine.mean_batch": "count",
    "serve.router.errors": "count",
    "serve.router.retries": "count",
    "serve.registry.publish_s": "s",
    "serve.router.start_s": "s",
    "loadgen.late_max_ms": "ms",
    "trace.overhead_s": "s",
    "trace.coverage": "1",
    "trace.spans": "count",
}


@dataclass
class Repetition:
    """What one timed repetition of a workload produced.

    ``metrics`` holds the end-to-end values of this repetition (all but
    ``setup_s``, ``ok_share`` and ``peak_rss_mb``, which the runner
    derives). ``layers`` holds per-layer values that are measured rather
    than read from spans. ``digest`` is what must repeat exactly on
    every run of one seed.
    """

    metrics: dict[str, float]
    attempted: int
    failed: int
    digest: dict
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class Stopwatch:
    """Times named steps whether or not tracing is on, and opens a span
    of the same name on the tracer."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.totals: dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            with self.tracer.span(name):
                yield
        finally:
            self.totals[name] += time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for
    descendant, in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def matmul_gflop(network, *, window: int, n_train: int, n_val: int,
                 epochs: int) -> float:
    """Gate-matmul GFLOP of training ``network`` (from shapes only).

    Forward: ``2 * window * M`` per example, ``M`` the number of
    weight-matrix entries; backward is counted as twice the forward.
    Each epoch runs forward+backward on the training set and a forward
    pass on the validation set.
    """
    m = sum(p.size for p, _ in network.parameters_and_gradients()
            if p.ndim == 2)
    per_example = 2.0 * window * m
    return epochs * per_example * (3 * n_train + n_val) / 1e9


class ReferenceStore:
    """Digests of earlier runs, per (workload, seed), in the run's
    output directory: a later run of the same seed in the same checkout
    must reproduce them exactly."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def check(self, workload: str, seed: int, digest: dict) -> bool:
        path = self.out_dir / f"reference-{workload}-seed{seed}.json"
        normal = json.loads(json.dumps(digest))
        if path.exists():
            try:
                return json.loads(path.read_text()) == normal
            except ValueError:
                pass  # torn write of an earlier run; replace it
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(normal, sort_keys=True))
        tmp.replace(path)
        return True


def finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)
