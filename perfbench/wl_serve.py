"""``serve``: forecasts through the router, one request at a time.

Input (prepared once per run, untimed): the seed's 4-degree SST archive
and a PODLSTMEmulator (the Table II LSTM-40, trained for the quick
preset's 60 epochs on the training period). Requests are test-period
input windows in scaled coefficient space: 40% come from a hot set of
16 windows, warmed into the response cache before the timed region, and
60% are unique (a test window plus a small seeded perturbation), so the
cache serves 40% of the load. With fewer hits than misses the overall
p50 lies among the miss latencies rather than on the boundary between
the hit and miss latencies, where it would flip between them from run
to run.

Set-up: publish the emulator to a fresh registry, start the router as
its own process the way it is deployed (``repro serve --router``, one
engine worker, the default ``WorkerConfig``), connect and answer one
first forecast.

Timed region: 4050 requests open loop at a fixed 150 requests/s over 2
connections (one thread each, from this process), and 8000 requests
with every request due at once, so that each connection sends its next
request as soon as the last is answered (saturation). The two phases
are dealt over 9 alternating rounds, so that each samples the host's
speed over the whole region, not over one stretch of it. ``max_rps`` is
the median over the saturation rounds' windows of 100 consecutive
answers: the rate the tier sustains with both connections always busy,
which is where an open-loop rate ladder converges on two connections.
A host pause slows one window, not the figure. Traced runs skip the
saturation rounds (``max_rps`` is not a per-layer metric), so their
engine and cache counters describe the 150/s load only.
Every answer is checked bitwise against in-process ``predict_windows``
under ``batch_invariant()`` and must carry the published version tag.
"""

from __future__ import annotations

import io
import math
import os
import queue
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from common import Repetition, median
from openloop import LoadResult, run_open_loop

NAME = "serve"
VERSION = "v1"
WINDOW = 8
N_MODES = 5
EPOCHS = 60
HOT = 16
HOT_SHARE = 0.4
PERTURBATION = 1e-3
CONNECTIONS = 2
FIXED_RATE = 150.0
#: Share of ``--seconds`` spent at the fixed rate (30 s -> 4050 requests,
#: so p99 has 40 samples beyond it).
FIXED_SHARE = 0.9
#: Requests of the saturation phase, and answers per window of its
#: median rate.
SATURATION_REQUESTS = 8000
SATURATION_WINDOW = 100
#: Both phases are dealt over this many rounds that alternate, so that
#: each samples the host's speed over the whole timed region.
ROUNDS = 9
#: Repetitions of the traced run's in-process micro-measurements.
FORWARD_REPEATS = 300
CODEC_REPEATS = 2000
CLIENT_TIMEOUT_S = 10.0
STARTUP_TIMEOUT_S = 120.0


class _Plan:
    """Seeded request windows: ``windows[k]`` with test target
    ``targets[k]``; ids below ``HOT`` are the hot set."""

    def __init__(self, inputs: np.ndarray, outputs: np.ndarray,
                 seed: int) -> None:
        self.rng = np.random.default_rng([seed, 0x5E])
        hot = self.rng.choice(len(inputs), size=HOT, replace=False)
        self.inputs = inputs
        self.outputs = outputs
        self.windows = [inputs[j] for j in hot]
        self.targets = [outputs[j] for j in hot]

    def unique(self) -> int:
        j = int(self.rng.integers(len(self.inputs)))
        noise = self.rng.normal(0.0, PERTURBATION, size=(WINDOW, N_MODES))
        self.windows.append(np.ascontiguousarray(self.inputs[j] + noise))
        self.targets.append(self.outputs[j])
        return len(self.windows) - 1

    def requests(self, n: int) -> list[int]:
        """``n`` window ids in seeded order, exactly ``HOT_SHARE`` of
        them hot, so the cache hit ratio does not drift with the
        seed."""
        hot = np.arange(n) < round(HOT_SHARE * n)
        self.rng.shuffle(hot)
        return [int(self.rng.integers(HOT)) if is_hot else self.unique()
                for is_hot in hot]


def prepare(ctx: dict) -> dict:
    from repro.baselines import build_manual_lstm
    from repro.data import load_sst_dataset
    from repro.forecast import PODLSTMEmulator
    from repro.nn import Trainer
    import repro.serve  # noqa: F401  (imported before the first set-up)

    seed = ctx["seed"]
    dataset = load_sst_dataset(degrees=4.0, seed=seed)
    train = dataset.training_snapshots()
    test = np.concatenate(
        [block for _, block in dataset.test_snapshot_chunks(256)], axis=1)
    emulator = PODLSTMEmulator(
        N_MODES, WINDOW,
        trainer=Trainer(epochs=EPOCHS, batch_size=64, learning_rate=0.002))
    emulator.fit(train, network=build_manual_lstm(40, 1, rng=seed),
                 rng=seed)
    examples = emulator.pipeline.windows_from_snapshots(test)
    # The CPUs this process may use, read before any set-up pins it.
    return {**ctx, "emulator": emulator, "inputs": examples.inputs,
            "outputs": examples.outputs,
            "cpus": frozenset(os.sched_getaffinity(0))}


def _split_cpus(cpus) -> tuple[set[int], set[int]]:
    """(load generator CPUs, router + worker CPUs) out of ``cpus``.

    Left to the scheduler, the router, its worker and the generator land
    on the cores in a different pattern each run, and the fixed-rate p50
    moved between 0.7 and 1.35 ms from one run to the next on a 2-core
    host. The generator gets the first CPU and the serving tier the
    rest, so neither takes the other's core; with one CPU they share it.
    """
    ordered = sorted(cpus)
    if len(ordered) < 2:
        return set(ordered), set(ordered)
    return {ordered[0]}, set(ordered[1:])


def _start_pinned(command: list[str], env: dict, cpus) -> subprocess.Popen:
    """Start ``command`` on the serving CPUs of ``cpus`` and leave the
    calling thread on the generator's, which the load threads started
    later inherit. ``teardown`` gives the thread all of ``cpus`` back."""
    generator_cpus, server_cpus = _split_cpus(cpus)
    os.sched_setaffinity(0, server_cpus)
    try:
        return subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
    finally:
        os.sched_setaffinity(0, generator_cpus)


def _drain(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def setup(inputs: dict, tracer) -> dict:
    from repro.serve import ModelRegistry, RouterClient

    tmp = Path(inputs["out_dir"]) / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    registry_dir = tempfile.mkdtemp(prefix="registry-", dir=tmp)
    state = {"registry_dir": registry_dir, "clients": [], "proc": None,
             "cpus": inputs["cpus"]}
    try:
        with tracer.span("serve.registry.publish"):
            ModelRegistry(registry_dir).publish(
                VERSION, inputs["emulator"], activate=True)
        with tracer.span("serve.router.start"):
            proc = state["proc"] = _start_pinned(
                [sys.executable, "-u", "-m", "repro", "serve",
                 "--registry", registry_dir, "--router", "--workers", "1"],
                inputs["env"], inputs["cpus"])
            lines: queue.Queue = queue.Queue()
            reader = threading.Thread(target=_drain,
                                      args=(proc.stdout, lines),
                                      daemon=True)
            reader.start()
            state["reader"] = reader
            state["address"] = _await_address(lines, proc)
        with tracer.span("serve.first_forecast"):
            state["clients"] = [
                RouterClient(state["address"], timeout_s=CLIENT_TIMEOUT_S)
                for _ in range(CONNECTIONS)]
            warm = inputs["inputs"][0] + 0.5 * PERTURBATION
            for client in state["clients"]:
                client.forecast(warm)
    except BaseException:
        teardown(state)
        raise
    return state


def _await_address(lines: queue.Queue, proc) -> tuple[str, int]:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    seen = []
    while time.monotonic() < deadline:
        try:
            line = lines.get(timeout=0.5)
        except queue.Empty:
            continue
        if line is None:
            break
        seen.append(line.rstrip())
        if line.startswith("router serving version"):
            host, port = line.split(" on ", 1)[1].split()[0].rsplit(":", 1)
            return host, int(port)
    raise RuntimeError("router did not start (exit code "
                       f"{proc.poll()}): " + " | ".join(seen[-5:]))


def _wake_listener(address, proc) -> None:
    """Connect until the router stops listening: closing a listening
    socket does not wake a thread blocked in ``accept()``, and the
    router's shutdown would otherwise wait out its join timeout."""
    deadline = time.monotonic() + 10.0
    while proc.poll() is None and time.monotonic() < deadline:
        try:
            socket.create_connection(address, timeout=1.0).close()
        except OSError:
            return
        time.sleep(0.05)


def teardown(state: dict) -> None:
    # RouterClient.close() leaves the connection open while its reader
    # is referenced; dropping the clients closes it, so the router's
    # handler threads see EOF instead of waiting out a join timeout.
    clients = state.get("clients", [])
    while clients:
        clients.pop().close()
    proc = state.get("proc")
    if proc is not None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            if "address" in state:
                _wake_listener(state["address"], proc)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        reader = state.get("reader")
        if reader is not None:
            reader.join(timeout=5)
        proc.stdout.close()
    shutil.rmtree(state["registry_dir"], ignore_errors=True)
    os.sched_setaffinity(0, state["cpus"])


def _engine_totals(stats: dict) -> dict:
    """Router and engine counters summed over shards."""
    totals = {"requests": stats.get("requests", 0),
              "errors": stats.get("errors", 0),
              "retries": stats.get("retries", 0),
              "hits": 0, "misses": 0, "batches": 0, "batched": 0.0}
    for shard in stats.get("shards", []):
        engine = shard.get("engine") or {}
        cache = engine.get("cache") or {}
        totals["hits"] += cache.get("hits", 0)
        totals["misses"] += cache.get("misses", 0)
        totals["batches"] += engine.get("n_batches", 0)
        totals["batched"] += engine.get("n_batches", 0) \
            * engine.get("mean_batch_size", 0.0)
    return totals


def _call(client, window):
    return client.forecast(window)


def _share(n: int, k: int) -> int:
    """Requests of round ``k`` when ``n`` are dealt over ``ROUNDS``."""
    return n * (k + 1) // ROUNDS - n * k // ROUNDS


def _phase(state, plan: _Plan, rate: float, n: int, tracer):
    ids = plan.requests(n)
    root = tracer.current()
    result = run_open_loop(
        state["clients"], _call, [plan.windows[i] for i in ids], rate,
        span=lambda name: tracer.span(name, parent=root))
    return ids, result


def measure(inputs: dict, state: dict, tracer) -> Repetition:
    from repro.nn import batch_invariant, r2_score

    seconds = inputs["seconds"]
    plan = _Plan(inputs["inputs"], inputs["outputs"], inputs["seed"])
    client = state["clients"][0]
    for window in plan.windows[:HOT]:
        client.forecast(window)
    before = _engine_totals(client.stats())
    n_fixed = max(300, int(FIXED_RATE * FIXED_SHARE * seconds))
    phases, saturated_phases, rates = [], [], []
    start = time.perf_counter()
    with tracer.span(NAME):
        for k in range(ROUNDS):
            phases.append(_phase(state, plan, FIXED_RATE,
                                 _share(n_fixed, k), tracer))
            if not inputs["trace"]:
                # Every request due at once: each connection sends back
                # to back.
                ids, saturated = _phase(
                    state, plan, math.inf,
                    _share(SATURATION_REQUESTS, k), tracer)
                rates += saturated.window_rates(SATURATION_WINDOW)
                saturated_phases.append((ids, saturated))
    wall = time.perf_counter() - start
    after = _engine_totals(client.stats())
    fixed_ids = [i for ids, _ in phases for i in ids]
    fixed = LoadResult(FIXED_RATE,
                       [o for _, result in phases for o in result.outcomes])
    max_rps = median(rates) if rates else fixed.completion_rate
    phases += saturated_phases

    # Every answer must be the in-process forecast of its window, bit
    # for bit, tagged with the published version.
    sent = sorted({i for ids, _ in phases for i in ids})
    with batch_invariant():
        expected = inputs["emulator"].predict_windows(
            np.stack([plan.windows[i] for i in sent]))
    row = {window_id: k for k, window_id in enumerate(sent)}
    attempted = failed = 0
    notes = []
    for ids, result in phases:
        for window_id, outcome in zip(ids, result.outcomes):
            attempted += 1
            if not outcome.ok:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"request failed: {outcome.result!r}")
            elif (outcome.result.version != VERSION or not np.array_equal(
                    outcome.result.output, expected[row[window_id]])):
                failed += 1
                if len(notes) < 5:
                    notes.append(f"wrong answer for window {window_id}")

    ok = [(i, o) for i, o in zip(fixed_ids, fixed.outcomes) if o.ok]
    quality = float(r2_score(np.stack([plan.targets[i] for i, _ in ok]),
                             np.stack([o.result.output for _, o in ok]))
                    ) if ok else 0.0
    hot = [k for k, i in enumerate(fixed_ids) if i < HOT]
    unique = [k for k, i in enumerate(fixed_ids) if i >= HOT]
    d_req = after["requests"] - before["requests"]
    d_batches = after["batches"] - before["batches"]
    layers = {
        "serve.hit_p50_ms": fixed.latency_ms(50, hot),
        "serve.miss_p50_ms": fixed.latency_ms(50, unique),
        "serve.cache.hit_ratio":
            (after["hits"] - before["hits"]) / max(d_req, 1),
        "serve.engine.mean_batch":
            (after["batched"] - before["batched"]) / max(d_batches, 1),
        "serve.router.errors": float(after["errors"] - before["errors"]),
        "serve.router.retries": float(after["retries"] - before["retries"]),
        "serve.p99_ms": fixed.latency_ms(99),
        "loadgen.late_max_ms": fixed.late_max_ms,
    }
    if tracer.enabled:
        layers["nn.forward_b1_ms"] = _forward_b1_ms(inputs, batch_invariant)
        layers["serve.protocol.codec_us"] = _codec_us(inputs)
    return Repetition(
        metrics={"wall_s": wall,
                 "quality_r2": quality,
                 "p50_ms": fixed.latency_ms(50),
                 "max_rps": max_rps},
        attempted=attempted, failed=failed,
        digest={"quality_r2": repr(quality), "requests": len(fixed_ids)},
        layers=layers,
        notes=notes + [f"{ROUNDS} rounds: {len(fixed_ids)} requests at "
                       f"{FIXED_RATE:g}/s, "
                       f"{sum(len(ids) for ids, _ in saturated_phases)} "
                       "saturated"])


def _forward_b1_ms(inputs: dict, batch_invariant) -> float:
    """In-process forward pass of one window, as the engine runs it."""
    window = inputs["inputs"][:1]
    emulator = inputs["emulator"]
    times = []
    with batch_invariant():
        for _ in range(FORWARD_REPEATS):
            start = time.perf_counter()
            emulator.predict_windows(window)
            times.append(time.perf_counter() - start)
    return 1e3 * median(times)


def _codec_us(inputs: dict) -> float:
    """``encode_frame`` + ``read_frame`` of one request/response pair."""
    from repro.serve import encode_frame, read_frame

    window = np.ascontiguousarray(inputs["inputs"][0])
    times = []
    for k in range(CODEC_REPEATS):
        start = time.perf_counter()
        request = read_frame(io.BytesIO(
            encode_frame({"type": "forecast", "id": k}, window)))
        read_frame(io.BytesIO(encode_frame(
            {"type": "response", "id": k, "generation": 1,
             "version": VERSION, "worker_id": 0}, request[1])))
        times.append(time.perf_counter() - start)
    return 1e6 * median(times)
