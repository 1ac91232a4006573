"""BENCHMARK.json, the metric catalogue and the runner agree."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import common

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == \
        ["reproduce", "campaign", "serve"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        common.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


def test_without_the_program_the_runner_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "src" in out.stderr


class _FakeNetwork:
    def __init__(self, shapes):
        self.params = [np.zeros(s) for s in shapes]

    def parameters_and_gradients(self):
        return [(p, None) for p in self.params]


def test_matmul_gflop_counts_weight_matrices_only():
    # LSTM-40 on 5 inputs plus the LSTM(5) head, with their biases.
    net = _FakeNetwork([(5, 160), (40, 160), (160,),
                        (40, 20), (5, 20), (20,)])
    m = 5 * 160 + 40 * 160 + 40 * 20 + 5 * 20
    got = common.matmul_gflop(net, window=8, n_train=100, n_val=25,
                              epochs=3)
    assert got == pytest.approx(3 * 2 * 8 * m * (3 * 100 + 25) / 1e9)


def test_reference_store_flags_a_changed_digest(tmp_path):
    store = common.ReferenceStore(tmp_path)
    assert store.check("w", 1, {"r2": ["0.5"]})
    assert store.check("w", 1, {"r2": ["0.5"]})
    assert not store.check("w", 1, {"r2": ["0.6"]})
    assert store.check("w", 2, {"r2": ["0.6"]})
