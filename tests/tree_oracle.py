"""Reference CART arithmetic: the test oracle of the presorted trees.

:class:`OracleTreeRegressor` grows a tree the way
:class:`repro.baselines.DecisionTreeRegressor` did before it presorted:
recursively, with one ``argsort``/``cumsum``/``einsum`` pass per node per
feature, and predicts with one Python walk per row. It keeps the
production threshold rule (``a <= t < b``, else ``t = a``). The
production trees must match it node for node (feature, threshold bits,
leaf-value bytes) and prediction for prediction, bit for bit
(tests/test_tree_differential.py).

:func:`oracle_trees` makes the forest and boosting ensembles grow
oracle trees for the duration of a block. It patches module globals, so
it is process-wide: only for single-threaded tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.baselines import forest, gbt
from repro.baselines.tree import DecisionTreeRegressor, _Node
from repro.utils.validation import check_matrix

__all__ = ["OracleTreeRegressor", "oracle_trees"]


class OracleTreeRegressor(DecisionTreeRegressor):
    """``DecisionTreeRegressor`` grown and evaluated by the reference
    per-node, per-feature loop."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "OracleTreeRegressor":
        x = check_matrix(x, name="x")
        y = check_matrix(y, name="y")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        self.n_features_ = x.shape[1]
        self._root = self._build(x, y, depth=0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=y.mean(axis=0))
        n = x.shape[0]
        if (n < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)):
            return node
        split = self._best_split(x, y)
        if split is None:
            return node
        feature, threshold = split
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x: np.ndarray,
                    y: np.ndarray) -> tuple[int, float] | None:
        n, n_features = x.shape
        k = self._n_split_features(n_features)
        features = (np.arange(n_features) if k == n_features
                    else self.rng.choice(n_features, size=k, replace=False))
        total_sq = float(np.sum(y * y))
        total_sum = y.sum(axis=0)
        base_sse = total_sq - float(total_sum @ total_sum) / n
        best: tuple[float, int, float] | None = None
        min_leaf = self.min_samples_leaf
        for feature in features:
            order = np.argsort(x[:, feature], kind="stable")
            xs = x[order, feature]
            ys = y[order]
            csum = np.cumsum(ys, axis=0)
            csq = np.cumsum(np.sum(ys * ys, axis=1))
            # Candidate split after position i (1-based count = i+1).
            counts = np.arange(1, n)
            left_sum = csum[:-1]
            left_sq = csq[:-1]
            right_sum = total_sum[None, :] - left_sum
            right_sq = total_sq - left_sq
            sse = (left_sq - np.einsum("ij,ij->i", left_sum, left_sum) / counts
                   + right_sq
                   - np.einsum("ij,ij->i", right_sum, right_sum) / (n - counts))
            # Valid splits: both children big enough, threshold between
            # *distinct* values.
            valid = ((counts >= min_leaf) & (n - counts >= min_leaf)
                     & (xs[1:] > xs[:-1]))
            if not np.any(valid):
                continue
            sse = np.where(valid, sse, np.inf)
            i = int(np.argmin(sse))
            if sse[i] < base_sse - 1e-12 and (best is None or sse[i] < best[0]):
                lo, hi = float(xs[i]), float(xs[i + 1])
                threshold = 0.5 * (lo + hi)
                if not lo <= threshold < hi:
                    threshold = lo
                best = (float(sse[i]), int(feature), threshold)
        if best is None:
            return None
        return best[1], best[2]

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("predict called before fit")
        x = check_matrix(x, name="x")
        if x.shape[1] != self.n_features_:
            raise ValueError(
                f"x has {x.shape[1]} features, model expects "
                f"{self.n_features_}")
        out = np.empty((x.shape[0], self._root.value.shape[0]))
        for i, row in enumerate(x):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold \
                    else node.right
            out[i] = node.value
        return out


@contextmanager
def oracle_trees():
    """Grow every :class:`RandomForestRegressor` and
    :class:`GradientBoostingRegressor` tree with the oracle in this block."""
    with mock.patch.object(forest, "DecisionTreeRegressor",
                           OracleTreeRegressor), \
            mock.patch.object(gbt, "DecisionTreeRegressor",
                              OracleTreeRegressor):
        yield
