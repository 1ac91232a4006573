"""``reproduce``: the paper's Table II reproduction, minus the search.

One repetition, starting from nothing: generate the 4-degree synthetic
SST archive (427 train + 1487 test weeks), fit 5-mode POD, project and
scale the coefficients, window them (K = 8), fit and score the Linear,
GBT and RF NARX baselines at quick-preset sizes, then train the
LSTM-40/80/120/200 family for the quick-preset epochs and score each on
the test period. This is ``run_table2("quick")`` without the
architecture search and without the ``get_context`` memo, called
through the public functions of ``repro.data``, ``repro.pod``,
``repro.forecast``, ``repro.baselines`` and ``repro.nn``.

Set-up is the cold import of those packages in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
import time

import numpy as np

from common import Repetition, Stopwatch, finite, matmul_gflop, median

NAME = "reproduce"
WINDOW = 8
N_MODES = 5
#: Quick preset of repro.experiments.context (posttrain epochs, forest
#: estimators, boosting rounds).
EPOCHS = 60
FOREST_ESTIMATORS = 20
BOOSTING_ROUNDS = 40
#: POD energy the 4-degree archive must keep in 5 modes (paper ~0.92).
MIN_ENERGY = 0.9

_IMPORTS = ("repro.data", "repro.pod", "repro.forecast", "repro.baselines",
            "repro.nn")
_IMPORT_PROBE = (
    "import time; t = time.perf_counter()\n"
    + "".join(f"import {m}\n" for m in _IMPORTS)
    + "print(time.perf_counter() - t)\n")


def prepare(ctx: dict) -> dict:
    """Import the layers here, so the timed region starts warm-imported
    but with no program state."""
    for module in _IMPORTS:
        importlib.import_module(module)
    return ctx


def setup(inputs: dict, tracer) -> dict:
    """Cold-import the layers in a fresh interpreter; returns the
    measured import time as the set-up sample."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                         env=inputs["env"], capture_output=True, text=True,
                         timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"import probe failed: {out.stderr.strip()}")
    return {"setup_s": float(out.stdout.strip().splitlines()[-1])}


def teardown(state: dict) -> None:
    pass


def _uniform_r2(r2_score, targets, predictions) -> float:
    """Uniform average of per-mode R^2 over ``(n, K, modes)`` windows
    (Table II's metric)."""
    return float(np.mean([r2_score(targets[:, :, m], predictions[:, :, m])
                          for m in range(targets.shape[2])]))


def measure(inputs: dict, state: dict, tracer) -> Repetition:
    from repro.baselines import (DirectNARXForecaster,
                                 GradientBoostingRegressor, LinearRegressor,
                                 MANUAL_LSTM_WIDTHS, RandomForestRegressor,
                                 build_manual_lstm)
    from repro.data import (load_sst_dataset, make_windowed_examples,
                            train_validation_split)
    from repro.forecast.scaling import MinMaxScaler
    from repro.nn import Trainer, r2_score
    from repro.pod import fit_pod, project_coefficients

    seed = inputs["seed"]
    watch = Stopwatch(tracer)
    rows: dict[str, float] = {}      # Table II row -> seconds to produce it
    scores: dict[str, list[float]] = {}
    scaled_r2: dict[str, float] = {}
    gflop = 0.0
    start = time.perf_counter()
    with tracer.span(NAME):
        with watch("data.sst"):
            dataset = load_sst_dataset(degrees=4.0, seed=seed)
            train_snaps = dataset.training_snapshots()
            test_snaps = np.concatenate(
                [block for _, block in dataset.test_snapshot_chunks(256)],
                axis=1)
        with watch("pod.fit"):
            basis = fit_pod(train_snaps, N_MODES)
        with watch("pod.project"):
            raw_train = project_coefficients(basis, train_snaps)
            raw_test = project_coefficients(basis, test_snaps)
        with watch("forecast.pipeline"):
            scaler = MinMaxScaler().fit(raw_train)
            scaled_train = scaler.transform(raw_train)
        with watch("data.window"):
            ex_train = make_windowed_examples(raw_train, WINDOW)
            ex_test = make_windowed_examples(raw_test, WINDOW)
            lstm_examples = make_windowed_examples(scaled_train, WINDOW)
            tr, va = train_validation_split(lstm_examples, rng=seed)

        classical = (
            ("Linear", "baselines.linear", LinearRegressor()),
            ("XGBoost", "baselines.tree",
             GradientBoostingRegressor(n_estimators=BOOSTING_ROUNDS,
                                       rng=seed)),
            ("Random Forest", "baselines.tree",
             RandomForestRegressor(n_estimators=FOREST_ESTIMATORS,
                                   rng=seed)),
        )
        for name, layer, regressor in classical:
            t0 = time.perf_counter()
            with watch(layer):
                narx = DirectNARXForecaster(regressor, WINDOW).fit(ex_train)
                pred_train = narx.predict(ex_train.inputs)
                pred_test = narx.predict(ex_test.inputs)
            with watch("forecast.score"):
                scores[name] = [
                    _uniform_r2(r2_score, ex_train.outputs, pred_train),
                    _uniform_r2(r2_score, ex_test.outputs, pred_test)]
            rows[name] = time.perf_counter() - t0

        for width in MANUAL_LSTM_WIDTHS:
            name = f"LSTM-{width}"
            t0 = time.perf_counter()
            with watch("nn.train"):
                net = build_manual_lstm(width, 1, rng=seed)
                Trainer(epochs=EPOCHS, batch_size=64,
                        learning_rate=0.002).fit(
                    net, tr.inputs, tr.outputs, va.inputs, va.outputs,
                    rng=seed)
            gflop += matmul_gflop(net, window=WINDOW,
                                  n_train=tr.n_examples,
                                  n_val=va.n_examples, epochs=EPOCHS)
            with watch("forecast.score"):
                pair = []
                for raw, ex in ((raw_train, ex_train), (raw_test, ex_test)):
                    scaled = make_windowed_examples(scaler.transform(raw),
                                                    WINDOW)
                    pred = net.predict(scaled.inputs, batch_size=256)
                    n, k, m = pred.shape
                    raw_pred = scaler.inverse_transform(
                        pred.reshape(-1, m).T).T.reshape(n, k, m)
                    pair.append(_uniform_r2(r2_score, ex.outputs, raw_pred))
                scores[name] = pair
                # The emulator's own score (PODLSTMEmulator.score): R^2
                # of the scaled test-period windows.
                scaled_r2[name] = float(r2_score(scaled.outputs, pred))
            rows[name] = time.perf_counter() - t0
    wall = time.perf_counter() - start

    energy = basis.energy_fraction()
    failed = 0
    notes = []
    for name, pair in scores.items():
        if not all(finite(v) for v in pair):
            failed += 1
            notes.append(f"{name}: non-finite R^2 {pair}")
    if not energy >= MIN_ENERGY:
        failed += 1
        notes.append(f"POD energy {energy:.4f} < {MIN_ENERGY}")
    row_ms = [1e3 * s for s in rows.values()]
    train_s = watch.totals["nn.train"]
    return Repetition(
        metrics={"wall_s": wall,
                 "quality_r2": scaled_r2["LSTM-40"],
                 "p50_ms": median(row_ms),
                 "max_rps": len(rows) / wall},
        attempted=len(scores) + 1, failed=failed,
        digest={"r2": {k: [repr(v) for v in pair]
                       for k, pair in sorted(scores.items())},
                "pod_energy": repr(energy)},
        layers={"nn.train_gflop": gflop,
                "nn.train_gflops": gflop / train_s if train_s else 0.0},
        notes=notes)
