"""Benchmark entry point: end-to-end and per-layer metrics of the repro
system on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once traced, and
reports per-layer self times, counts and the tracing overhead (traced
``wall_s`` minus untraced ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable table
and the environment header come before it. The full result (header,
every repetition, notes and, for traced runs, the spans) is written to
``perfbench/out/``. The program is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

# The harness modules import no NumPy, so BLAS threads can still be
# pinned after them.
import common
import envinfo
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {"reproduce": "wl_reproduce", "campaign": "wl_campaign",
             "serve": "wl_serve"}
#: Set-up runs per untraced run; ``setup_s`` is their median.
MIN_SETUPS = 5
#: Workloads whose layer spans must account for at least
#: ``COVERAGE_MIN`` of the traced ``wall_s``; less means spans miss work.
COVERAGE_CHECKED = {"reproduce", "campaign"}
COVERAGE_MIN = 0.9
#: A traced ``wall_s`` further than this share from the untraced one is
#: noted. It is not counted as a failure: on a shared host the speed can
#: change by more between two consecutive repetitions.
OVERHEAD_NOTED = 0.1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _timed_setup(wl, inputs, tracer):
    start = time.perf_counter()
    state = wl.setup(inputs, tracer)
    elapsed = time.perf_counter() - start
    return state, state.get("setup_s", elapsed)


def _repeat(wl, inputs, seconds, tracer):
    """Fresh set-up + one timed repetition, until ``seconds`` would be
    overrun; then more set-ups until there are ``MIN_SETUPS``."""
    setups, reps = [], []
    begin = time.perf_counter()
    while True:
        state, setup_s = _timed_setup(wl, inputs, tracer)
        setups.append(setup_s)
        try:
            reps.append(wl.measure(inputs, state, tracer))
        finally:
            wl.teardown(state)
        elapsed = time.perf_counter() - begin
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        state, setup_s = _timed_setup(wl, inputs, tracer)
        wl.teardown(state)
        setups.append(setup_s)
    return setups, reps


def _layer_metrics(tracer, rep, untraced_wall):
    own = tracer.self_by_name()
    total = tracer.total_by_name()

    def add(table, *names):
        return sum(table.get(n, 0.0) for n in names)

    metrics = dict.fromkeys(common.PER_LAYER, 0.0)
    for name in ("data.sst", "pod.fit", "pod.project", "data.window",
                 "forecast.pipeline", "forecast.score", "nn.train",
                 "baselines.tree", "baselines.linear"):
        metrics[f"{name}_s"] = add(own, name)
    metrics.update({
        "nas.search_s": add(own, "nas.ask", "nas.tell"),
        "hpc.executor_s": add(own, "hpc.run_search"),
        "hpc.gather_wait_s": add(total, "hpc.gather"),
        "hpc.dispatch_s": add(own, "hpc.gather") + add(total, "hpc.submit"),
        "hpc.pool_spawn_s": add(total, "hpc.pool_spawn"),
        "serve.registry.publish_s": add(total, "serve.registry.publish"),
        "serve.router.start_s": add(total, "serve.router.start"),
        "trace.overhead_s": rep.metrics["wall_s"] - untraced_wall,
        "trace.spans": float(len(tracer.spans)),
    })
    metrics.update(rep.layers)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    # Processes this one starts are stopped with SIGINT (the router's
    # shutdown path). A background job starts with SIGINT ignored, and an
    # ignored signal stays ignored across exec; a handled one does not.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # A run stopped with SIGTERM still tears down what it started.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    envinfo.pin_blas_threads()          # before numpy is first imported
    sys.path.insert(1, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])

    OUT.mkdir(parents=True, exist_ok=True)
    header = envinfo.environment_header(
        ROOT, workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace))
    wl = importlib.import_module(WORKLOADS[args.workload])
    ctx = {"seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "env": env, "out_dir": str(OUT)}

    noise = envinfo.HostNoise()
    inputs = wl.prepare(ctx)
    notes: list[str] = []
    if args.trace:
        off = Tracer(False)
        state, _ = _timed_setup(wl, inputs, off)
        try:
            base = wl.measure(inputs, state, off)
        finally:
            wl.teardown(state)
        tracer = Tracer(True)
        state, _ = _timed_setup(wl, inputs, tracer)
        try:
            traced = wl.measure(inputs, state, tracer)
        finally:
            wl.teardown(state)
        reps = [base, traced]
        values = _layer_metrics(tracer, traced, base.metrics["wall_s"])
        values["trace.coverage"] = (tracer.layer_seconds(wl.NAME)
                                    / traced.metrics["wall_s"])
        if abs(values["trace.overhead_s"]) > \
                OVERHEAD_NOTED * base.metrics["wall_s"]:
            notes.append(
                f"traced wall_s {traced.metrics['wall_s']:.3f} s vs "
                f"untraced {base.metrics['wall_s']:.3f} s: tracing "
                "inflation or a change of host speed (see cpu_probe_ms)")
        units = common.PER_LAYER
    else:
        setups, reps = _repeat(wl, inputs, args.seconds, Tracer(False))
        values = {name: common.median(r.metrics[name] for r in reps)
                  for name in reps[0].metrics}
        values["setup_s"] = common.median(setups)
        values["peak_rss_mb"] = common.peak_rss_mb()
        units = common.END_TO_END

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for rep in reps:
        notes.extend(rep.notes)
    # Determinism: every repetition, and every run of this seed in this
    # checkout, must reproduce the same digest.
    for rep in reps[1:]:
        attempted += 1
        if rep.digest != reps[0].digest:
            failed += 1
            notes.append("repetitions of one seed disagree")
    attempted += 1
    if not common.ReferenceStore(OUT).check(
            f"{args.workload}-s{args.seconds}-{header['source_digest']}",
            args.seed, reps[0].digest):
        failed += 1
        notes.append("result differs from an earlier run of this seed")
    if args.trace and args.workload in COVERAGE_CHECKED:
        attempted += 1
        if not values["trace.coverage"] >= COVERAGE_MIN:
            failed += 1
            notes.append(f"layer self times add up to "
                         f"{values['trace.coverage']:.3f} of the traced "
                         f"wall_s, below {COVERAGE_MIN}")
    if not args.trace:
        values["ok_share"] = 1.0 - failed / attempted

    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    header["noise"] = noise.report()
    record = {"environment": header, "result": result, "notes": notes,
              "repetitions": [{"metrics": r.metrics, "layers": r.layers,
                               "attempted": r.attempted,
                               "failed": r.failed} for r in reps]}
    if args.trace:
        record["trace"] = tracer.to_json()
    else:
        record["setup_samples_s"] = setups
    path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                  ".json")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1))
    tmp.replace(path)

    print("# environment: " + json.dumps(header, sort_keys=True))
    for note in notes:
        print(f"# note: {note}")
    print(f"# fail_share = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed or were wrong)")
    width = max(len(n) for n in metrics)
    for name, entry in metrics.items():
        print(f"{name:<{width}}  {entry['value']:>14.6g}  {entry['unit']}")
    print(f"# result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
