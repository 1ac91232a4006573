"""Closed-loop load generator and SLO report for the forecast engine.

``run_loadgen`` drives a running :class:`~repro.serve.engine.ForecastEngine`
with ``clients`` concurrent closed-loop workers (each issues its next
request the moment the previous response lands — the standard
throughput-at-offered-concurrency harness) and aggregates per-request
wall-clock latencies into an :class:`SLOReport`: throughput plus
p50/p95/p99 tail latency, the numbers a serving SLO is written against.

Percentiles use the nearest-rank definition on the sorted sample — no
interpolation, so a report is exactly reproducible from its latency
sample. Results feed :mod:`repro.obs` gauges (``serve/loadgen/*``) and
the ``serve_*`` entries of BENCH_core.json.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.serve.engine import ForecastEngine
from repro.utils.artifact import check_artifact_header

__all__ = ["SLOReport", "run_loadgen", "run_router_loadgen",
           "nearest_rank_percentile", "validate_slo_report",
           "SLO_REPORT_FORMAT", "SLO_REPORT_VERSION"]

#: Format tag / schema version of an exported SLO report.
SLO_REPORT_FORMAT = "repro-slo-report"
SLO_REPORT_VERSION = 1

#: Percentiles every report carries.
_PERCENTILES = (50.0, 95.0, 99.0)


def nearest_rank_percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty sample."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(sorted_values[rank - 1])


@dataclass(frozen=True)
class SLOReport:
    """Aggregated outcome of one load-generation run."""

    clients: int
    n_requests: int
    n_errors: int
    duration_s: float
    throughput_rps: float
    latency_ms: dict = field(default_factory=dict)  # mean/p50/p95/p99/max
    engine: dict = field(default_factory=dict)      # engine.stats() snapshot

    def as_json(self) -> dict:
        """JSON-compatible export (schema: docs/SERVING.md)."""
        return {"format": SLO_REPORT_FORMAT, "version": SLO_REPORT_VERSION,
                "clients": self.clients, "n_requests": self.n_requests,
                "n_errors": self.n_errors, "duration_s": self.duration_s,
                "throughput_rps": self.throughput_rps,
                "latency_ms": dict(self.latency_ms),
                "engine": dict(self.engine)}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def table(self) -> str:
        """Human-readable summary block."""
        lat = self.latency_ms
        lines = [
            "SLO report",
            f"  clients          {self.clients}",
            f"  requests         {self.n_requests} "
            f"({self.n_errors} errors)",
            f"  duration         {self.duration_s * 1e3:10.2f} ms",
            f"  throughput       {self.throughput_rps:10.1f} req/s",
            f"  latency mean     {lat.get('mean', float('nan')):10.3f} ms",
        ]
        for q in _PERCENTILES:
            key = f"p{q:g}"
            lines.append(f"  latency {key:8s} "
                         f"{lat.get(key, float('nan')):10.3f} ms")
        lines.append(f"  latency max      "
                     f"{lat.get('max', float('nan')):10.3f} ms")
        if self.engine:
            lines.append(f"  mean batch size  "
                         f"{self.engine.get('mean_batch_size', 0.0):10.2f}")
            cache = self.engine.get("cache", {})
            lines.append(f"  cache hits/miss  "
                         f"{cache.get('hits', 0)}/{cache.get('misses', 0)}")
        return "\n".join(lines)


def validate_slo_report(data) -> None:
    """Schema-check an exported SLO report; raises ValueError on the
    first violation (used by the CI serve-smoke job)."""
    check_artifact_header(data, None, expected_format=SLO_REPORT_FORMAT,
                          supported_versions=(SLO_REPORT_VERSION,),
                          describe="an SLO report")
    for key in ("clients", "n_requests", "n_errors", "duration_s",
                "throughput_rps", "latency_ms", "engine"):
        if key not in data:
            raise ValueError(f"SLO report missing key {key!r}")
    lat = data["latency_ms"]
    for key in ("mean", "p50", "p95", "p99", "max"):
        value = lat.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value < 0:
            raise ValueError(f"latency_ms.{key} must be finite and "
                             f"non-negative, got {value!r}")
    if not lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]:
        raise ValueError("latency percentiles must be monotone: "
                         f"p50={lat['p50']} p95={lat['p95']} "
                         f"p99={lat['p99']} max={lat['max']}")
    if data["n_requests"] > 0 and data["duration_s"] > 0 \
            and data["throughput_rps"] <= 0:
        raise ValueError("throughput_rps must be positive for a "
                         "non-empty run")


def run_loadgen(engine: ForecastEngine, windows, *, clients: int = 4,
                requests_per_client: int = 50,
                timeout_s: float | None = None) -> SLOReport:
    """Drive a running engine at closed-loop concurrency ``clients``.

    ``windows`` is an ``(n, window, n_modes)`` pool of request windows;
    each client walks the pool round-robin from its own offset, so with
    ``n >= clients * requests_per_client`` every request is distinct
    (cache-cold), while a smaller pool deliberately re-requests windows
    and exercises the cache. Shed and timed-out requests are counted as
    errors, not retried (the report shows the shed rate the
    configuration sustains).
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if requests_per_client < 1:
        raise ValueError(f"requests_per_client must be >= 1, "
                         f"got {requests_per_client}")
    pool = np.asarray(windows, dtype=np.float64)
    if pool.ndim != 3 or pool.shape[0] == 0:
        raise ValueError(f"windows must be a non-empty "
                         f"(n, window, n_modes) array, got {pool.shape}")
    if not engine.running:
        raise RuntimeError("engine is not running")

    latencies_ms: list[list[float]] = [[] for _ in range(clients)]
    errors = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        barrier.wait()
        for i in range(requests_per_client):
            window = pool[(index * requests_per_client + i) % pool.shape[0]]
            t0 = time.perf_counter()
            try:
                engine.forecast(window, timeout=timeout_s)
            except Exception:
                errors[index] += 1
                continue
            latencies_ms[index].append(
                (time.perf_counter() - t0) * 1e3)

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"repro-loadgen-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    t_start = time.perf_counter()
    for thread in threads:
        thread.join()
    duration_s = time.perf_counter() - t_start

    flat = sorted(lat for per_client in latencies_ms for lat in per_client)
    n_requests = clients * requests_per_client
    n_errors = sum(errors)
    n_served = len(flat)
    throughput = n_served / duration_s if duration_s > 0 else 0.0
    if flat:
        latency = {"mean": float(sum(flat) / n_served),
                   "max": float(flat[-1])}
        for q in _PERCENTILES:
            latency[f"p{q:g}"] = nearest_rank_percentile(flat, q)
    else:
        latency = {"mean": 0.0, "max": 0.0}
        latency.update({f"p{q:g}": 0.0 for q in _PERCENTILES})
    obs.gauge_set("serve/loadgen/throughput_rps", throughput)
    obs.gauge_set("serve/loadgen/p95_ms", latency["p95"])
    report = SLOReport(clients=clients, n_requests=n_requests,
                       n_errors=n_errors, duration_s=duration_s,
                       throughput_rps=throughput, latency_ms=latency,
                       engine=engine.stats())
    validate_slo_report(report.as_json())
    return report


def _summarize(latencies_ms, errors, *, clients: int,
               requests_per_client: int, duration_s: float,
               stats: dict) -> SLOReport:
    """Aggregate per-client samples into a validated report."""
    flat = sorted(lat for per_client in latencies_ms for lat in per_client)
    n_served = len(flat)
    throughput = n_served / duration_s if duration_s > 0 else 0.0
    if flat:
        latency = {"mean": float(sum(flat) / n_served),
                   "max": float(flat[-1])}
        for q in _PERCENTILES:
            latency[f"p{q:g}"] = nearest_rank_percentile(flat, q)
    else:
        latency = {"mean": 0.0, "max": 0.0}
        latency.update({f"p{q:g}": 0.0 for q in _PERCENTILES})
    report = SLOReport(clients=clients,
                       n_requests=clients * requests_per_client,
                       n_errors=sum(errors), duration_s=duration_s,
                       throughput_rps=throughput, latency_ms=latency,
                       engine=stats)
    validate_slo_report(report.as_json())
    return report


def _router_client_main(address, pool_bytes: bytes, shape, index: int,
                        requests_per_client: int,
                        timeout_s: float | None, barrier,
                        results_queue) -> None:
    """One closed-loop client *process* of :func:`run_router_loadgen`.

    Module-level (picklable) so the process mode works under any
    multiprocessing start method. Connects first, then synchronizes on
    the barrier so every client opens fire together.
    """
    from repro.serve.router import RouterClient
    pool = np.frombuffer(pool_bytes, dtype=np.float64).reshape(shape)
    latencies: list[float] = []
    errors = 0
    try:
        with RouterClient(tuple(address),
                          timeout_s=timeout_s or 30.0) as client:
            barrier.wait()
            for i in range(requests_per_client):
                window = pool[(index * requests_per_client + i)
                              % shape[0]]
                t0 = time.perf_counter()
                try:
                    client.forecast(window, timeout=timeout_s)
                except Exception:
                    errors += 1
                    continue
                latencies.append((time.perf_counter() - t0) * 1e3)
    except Exception:
        # Connection never came up: report every request as an error
        # rather than hanging the parent on a missing queue entry.
        errors = requests_per_client - len(latencies)
        try:
            barrier.abort()
        except Exception:
            pass
    results_queue.put((index, latencies, errors))


def run_router_loadgen(address, windows, *, clients: int = 4,
                       requests_per_client: int = 50,
                       timeout_s: float | None = None,
                       processes: bool = False) -> SLOReport:
    """Closed-loop load against a :class:`~repro.serve.router.ForecastRouter`
    socket at ``address``.

    Same harness shape as :func:`run_loadgen`, but the clients talk the
    wire protocol — each owns one TCP connection, so the router's
    accept/framing/dispatch path is on the measured critical path.
    With ``processes=True`` every client is a separate OS process
    (GIL-free send/receive loops); otherwise clients are threads in
    this process. The report's ``engine`` field carries the router's
    post-run :meth:`~repro.serve.router.ForecastRouter.stats` snapshot
    (per-shard queue depths and engine stats).
    """
    from repro.serve.router import RouterClient
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if requests_per_client < 1:
        raise ValueError(f"requests_per_client must be >= 1, "
                         f"got {requests_per_client}")
    pool = np.ascontiguousarray(windows, dtype=np.float64)
    if pool.ndim != 3 or pool.shape[0] == 0:
        raise ValueError(f"windows must be a non-empty "
                         f"(n, window, n_modes) array, got {pool.shape}")

    latencies_ms: list[list[float]] = [[] for _ in range(clients)]
    errors = [0] * clients

    if processes:
        import multiprocessing as mp
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        barrier = ctx.Barrier(clients + 1)
        results_queue = ctx.Queue()
        procs = [ctx.Process(target=_router_client_main,
                             args=(tuple(address), pool.tobytes(),
                                   pool.shape, i, requests_per_client,
                                   timeout_s, barrier, results_queue),
                             daemon=True,
                             name=f"repro-router-loadgen-{i}")
                 for i in range(clients)]
        for proc in procs:
            proc.start()
        try:
            barrier.wait(timeout=60.0)
        except threading.BrokenBarrierError:
            pass  # a client aborted; its queue entry reports the errors
        t_start = time.perf_counter()
        for _ in range(clients):
            index, lats, errs = results_queue.get(timeout=600.0)
            latencies_ms[index] = lats
            errors[index] = errs
        duration_s = time.perf_counter() - t_start
        for proc in procs:
            proc.join(timeout=10.0)
    else:
        barrier = threading.Barrier(clients + 1)

        def client_loop(index: int) -> None:
            with RouterClient(address,
                              timeout_s=timeout_s or 30.0) as client:
                barrier.wait()
                for i in range(requests_per_client):
                    window = pool[(index * requests_per_client + i)
                                  % pool.shape[0]]
                    t0 = time.perf_counter()
                    try:
                        client.forecast(window, timeout=timeout_s)
                    except Exception:
                        errors[index] += 1
                        continue
                    latencies_ms[index].append(
                        (time.perf_counter() - t0) * 1e3)

        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"repro-router-loadgen-{i}")
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        t_start = time.perf_counter()
        for thread in threads:
            thread.join()
        duration_s = time.perf_counter() - t_start

    try:
        with RouterClient(address, timeout_s=timeout_s or 30.0) as probe:
            stats = probe.stats()
    except Exception:
        stats = {}
    report = _summarize(latencies_ms, errors, clients=clients,
                        requests_per_client=requests_per_client,
                        duration_s=duration_s, stats=stats)
    obs.gauge_set("serve/router_loadgen/throughput_rps",
                  report.throughput_rps)
    obs.gauge_set("serve/router_loadgen/p95_ms",
                  report.latency_ms["p95"])
    return report
