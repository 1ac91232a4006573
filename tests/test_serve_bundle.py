"""Emulator bundles (repro.serve.bundle): exact round-trips and schema
validation.

The load-bearing guarantee is bitwise fidelity — a bundled emulator must
forecast with exactly the bits of the in-memory one, because the serving
engine's determinism contract (docs/SERVING.md) is defined against the
original model.
"""

import json

import numpy as np
import pytest

from repro.forecast import PODLSTMEmulator
from repro.serve import (BUNDLE_FORMAT, BUNDLE_VERSION, load_bundle,
                         read_bundle_header, save_bundle)


def assert_bundle_round_trip_bitwise(emulator, snaps, path):
    """A bundle written from ``emulator`` loads back into one whose
    window predictions, pipeline transform and field forecasts are
    bit-for-bit those of the original."""
    windows = emulator.pipeline.windows_from_snapshots(snaps).inputs
    loaded = load_bundle(save_bundle(emulator, path))
    np.testing.assert_array_equal(loaded.predict_windows(windows),
                                  emulator.predict_windows(windows))
    np.testing.assert_array_equal(loaded.pipeline.transform(snaps),
                                  emulator.pipeline.transform(snaps))
    for got, want in zip(loaded.forecast_fields(snaps, horizon=1),
                         emulator.forecast_fields(snaps, horizon=1)):
        np.testing.assert_array_equal(got, want)


def _write_raw(path, header):
    """A bundle-shaped npz with an arbitrary header (schema attacks)."""
    np.savez(path, __bundle__=np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8))


class TestRoundTrip:
    def test_forecasts_bitwise_identical(self, tmp_path, tiny_emulator,
                                         generator):
        assert_bundle_round_trip_bitwise(
            tiny_emulator, generator.snapshots(np.arange(60)),
            tmp_path / "model.npz")

    def test_pipeline_state_exact(self, tmp_path, tiny_emulator, generator):
        path = save_bundle(tiny_emulator, tmp_path / "model.npz")
        loaded = load_bundle(path)
        snaps = generator.snapshots(np.arange(60))
        np.testing.assert_array_equal(
            loaded.pipeline.transform(snaps),
            tiny_emulator.pipeline.transform(snaps))
        assert loaded.pipeline.n_modes == tiny_emulator.pipeline.n_modes
        assert loaded.pipeline.window == tiny_emulator.pipeline.window
        assert loaded.train_fraction == tiny_emulator.train_fraction

    def test_suffix_normalized(self, tmp_path, tiny_emulator):
        path = save_bundle(tiny_emulator, tmp_path / "model")
        assert path.name == "model.npz"
        # Loading works from the suffixed and unsuffixed spelling alike.
        load_bundle(tmp_path / "model")
        load_bundle(path)

    def test_metadata_round_trips(self, tmp_path, tiny_emulator):
        meta = {"algorithm": "ae", "seed": 7, "r2": 0.93}
        path = save_bundle(tiny_emulator, tmp_path / "m.npz",
                           metadata=meta)
        header = read_bundle_header(path)
        assert header["metadata"] == meta
        assert header["format"] == BUNDLE_FORMAT
        assert header["version"] == BUNDLE_VERSION

    def test_unfitted_emulator_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="before fit"):
            save_bundle(PODLSTMEmulator(), tmp_path / "x.npz")


class TestSchemaValidation:
    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        _write_raw(path, {"format": BUNDLE_FORMAT,
                          "version": BUNDLE_VERSION + 1})
        with pytest.raises(ValueError,
                           match="unsupported bundle schema version"):
            load_bundle(path)
        with pytest.raises(ValueError,
                           match="unsupported bundle schema version"):
            read_bundle_header(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        _write_raw(path, {"format": "something-else",
                          "version": BUNDLE_VERSION})
        with pytest.raises(ValueError, match="not an emulator bundle"):
            load_bundle(path)

    def test_plain_npz_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, a=np.arange(3))
        with pytest.raises(ValueError, match="missing __bundle__"):
            read_bundle_header(path)
