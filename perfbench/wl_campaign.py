"""``campaign``: an Aging-Evolution NAS campaign that really trains.

Data: the seed's 4-degree training-period SST, 5-mode POD coefficients,
min-max scaled and windowed (K = 8), split 80/20. Search: Aging
Evolution over the paper's 5-layer ``StackedLSTMSpace``; every
evaluation trains with the paper's search protocol (20 epochs, batch
64, lr 1e-3) inside a 2-worker ``ParallelEvaluator`` pool, driven by
``run_search`` on a small simulated partition.

Fixed work per run: simulated durations come from the
``ArchitecturePerformanceModel`` cost model, never from measured wall
time, so a faster kernel cannot change how many evaluations fit in the
simulated budget or which architectures are visited. The search and
cost-model streams use a fixed seed; ``--seed`` chooses the data. The
evaluation count and best reward therefore repeat exactly on every run
of a seed.

Set-up is the data preparation plus the pool spawn. The layers are
imported before the first set-up, so every set-up does the same work.
"""

from __future__ import annotations

import importlib
import math
import time

from common import Repetition, Stopwatch, matmul_gflop, median

NAME = "campaign"
WINDOW = 8
N_MODES = 5
EPOCHS = 20
WORKERS = 2
#: Fixed seed of the search, cost-model and task streams.
SEARCH_SEED = 0
POPULATION = 6
SAMPLE = 3
#: Simulated partition: 2 nodes for this many simulated seconds.
NODES = 2
SIMULATED_SECONDS = 650.0


class _TracedSearch:
    """Times ``ask``/``tell`` of the search from outside."""

    def __init__(self, inner, tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.asynchronous = inner.asynchronous
        self.speculative_ask = inner.speculative_ask

    def ask(self):
        with self._tracer.span("nas.ask"):
            return self._inner.ask()

    def tell(self, arch, reward) -> None:
        with self._tracer.span("nas.tell"):
            self._inner.tell(arch, reward)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _TimedBackend:
    """Records when each evaluation was submitted and gathered.

    The gather wait is the pool's turnaround for one evaluation; the
    worker reports the evaluation's own wall time, which the traced run
    records as an ``nn.train`` span ending when the gather returns, so
    the gather's self time is the dispatch overhead.
    """

    def __init__(self, pool, tracer) -> None:
        self._pool = pool
        self._tracer = tracer
        self.capacity = pool.capacity
        self.submitted: dict[int, float] = {}
        self.evaluations: list[dict] = []

    def submit(self, arch, seed, epochs=None) -> int:
        with self._tracer.span("hpc.submit"):
            handle = self._pool.submit(arch, seed, epochs)
        self.submitted[handle] = time.perf_counter()
        return handle

    def gather(self, handle: int):
        start = time.perf_counter()
        with self._tracer.span("hpc.gather") as span_id:
            result = self._pool.gather(handle)
            end = time.perf_counter()
            worker_wall = float(result.metadata.get("wall_seconds", 0.0))
            self._tracer.record("nn.train", end - worker_wall, end,
                                parent=span_id)
        self.evaluations.append({
            "arch": tuple(result.architecture),
            "reward": float(result.reward),
            "failed": bool(result.metadata.get("failed", False)),
            "recovered": "recovered" in result.metadata,
            "submitted": self.submitted.pop(handle),
            "gather_start": start, "done": end,
            "worker_wall": worker_wall})
        return result


def prepare(ctx: dict) -> dict:
    for module in ("repro.data", "repro.pod", "repro.forecast.scaling",
                   "repro.hpc", "repro.nas"):
        importlib.import_module(module)
    return ctx


def setup(inputs: dict, tracer) -> dict:
    from repro.data import (load_sst_dataset, make_windowed_examples,
                            train_validation_split)
    from repro.forecast.scaling import MinMaxScaler
    from repro.hpc import ParallelEvaluator
    from repro.nas import (ArchitecturePerformanceModel,
                           RealTrainingEvaluator, StackedLSTMSpace)
    from repro.pod import fit_pod, project_coefficients

    seed = inputs["seed"]
    watch = Stopwatch(tracer)
    with watch("data.sst"):
        snaps = load_sst_dataset(degrees=4.0, seed=seed).training_snapshots()
    with watch("pod.fit"):
        basis = fit_pod(snaps, N_MODES)
    with watch("pod.project"):
        raw = project_coefficients(basis, snaps)
    with watch("forecast.pipeline"):
        scaled = MinMaxScaler().fit(raw).transform(raw)
    with watch("data.window"):
        tr, va = train_validation_split(
            make_windowed_examples(scaled, WINDOW), rng=seed)
    space = StackedLSTMSpace()
    evaluator = RealTrainingEvaluator(
        space, (tr.inputs, tr.outputs, va.inputs, va.outputs),
        cost_model=ArchitecturePerformanceModel(space, seed=SEARCH_SEED))
    with watch("hpc.pool_spawn"):
        pool = ParallelEvaluator(evaluator, n_workers=WORKERS)
    return {"space": space, "evaluator": evaluator, "pool": pool,
            "n_train": tr.n_examples, "n_val": va.n_examples}


def teardown(state: dict) -> None:
    state["pool"].close()


def measure(inputs: dict, state: dict, tracer) -> Repetition:
    from repro.hpc import ThetaPartition, run_search
    from repro.nas import AgingEvolution, build_network

    space = state["space"]
    search = AgingEvolution(space, rng=SEARCH_SEED,
                            population_size=POPULATION, sample_size=SAMPLE)
    backend = _TimedBackend(state["pool"], tracer)
    start = time.perf_counter()
    with tracer.span(NAME):
        with tracer.span("hpc.run_search"):
            tracker = run_search(
                _TracedSearch(search, tracer), state["evaluator"],
                ThetaPartition(n_nodes=NODES,
                               wall_seconds=SIMULATED_SECONDS),
                rng=SEARCH_SEED, backend=backend)
    wall = time.perf_counter() - start

    evals = backend.evaluations
    failed = sum(e["failed"] or not math.isfinite(e["reward"])
                 for e in evals)
    pool_faults = _pool_faults(state["pool"], evals)
    turnaround_ms = [1e3 * (e["done"] - e["submitted"])
                     for e in evals]
    worker_walls = [e["worker_wall"] for e in evals]
    gflop = sum(matmul_gflop(build_network(space, e["arch"], rng=0),
                             window=WINDOW, n_train=state["n_train"],
                             n_val=state["n_val"], epochs=EPOCHS)
                for e in evals)
    busy = sum(worker_walls)
    inflight = sum(e["done"] - e["submitted"] for e in evals)
    return Repetition(
        metrics={"wall_s": wall,
                 "quality_r2": float(search.best_reward),
                 "p50_ms": median(turnaround_ms),
                 "max_rps": len(evals) / wall},
        attempted=len(evals) + 1, failed=failed + bool(pool_faults),
        digest={"evaluations": len(evals),
                "completed": tracker.n_evaluations,
                "best_reward": repr(float(search.best_reward)),
                "rewards": [repr(e["reward"]) for e in evals]},
        layers={"nas.evals": float(len(evals)),
                "nas.train_s_per_eval": median(worker_walls),
                "nn.train_gflop": gflop,
                "nn.train_gflops": gflop / busy if busy else 0.0,
                "hpc.inflight_mean": inflight / wall,
                "hpc.pool_busy_share": busy / (WORKERS * wall)},
        notes=pool_faults)


def _pool_faults(pool, evals) -> list[str]:
    """Why the pool did not run every evaluation in its own workers.

    A ``ParallelEvaluator`` that cannot spawn or keep its workers
    silently evaluates in-process instead; the rewards stay bitwise
    equal, so only these checks tell that the ``hpc`` figures describe
    a pool that never ran.
    """
    faults = []
    if pool._degraded:
        faults.append("the pool degraded to in-process evaluation")
    recovered = sum(e["recovered"] for e in evals)
    if recovered:
        faults.append(f"{recovered} evaluations fell back to in-process")
    restarts = pool._next_worker_index - WORKERS
    if restarts > 0:
        faults.append(f"{restarts} pool workers were restarted")
    return faults
