"""CART regression tree (multi-output, variance-reduction splits).

Greedy binary splitting on axis-aligned thresholds minimizing the summed
squared error across all outputs.

* **Presort once.** ``fit`` runs one stable argsort over all features at
  the root. Each child inherits its parent's order columns partitioned by
  the split mask: a stable partition, so every column stays sorted, and
  ties keep row order exactly as a stable argsort of the child's rows
  would (bootstrap duplicates included).
* **All features in one pass.** A node's split search gathers the
  candidate features' order columns and runs the standard CART prefix-sum
  trick with the feature as an extra axis: cumulative sums of ``y`` and
  ``|y|^2`` along the sorted rows give every candidate split's SSE, a
  per-feature argmin finds each feature's best split, and the first
  feature (in candidate order) with the smallest SSE wins. Each node costs
  a fixed number of NumPy calls whatever the feature count.
* **Threshold rule.** A split between sorted neighbours ``a < b`` gets
  ``t = 0.5 * (a + b)`` unless that midpoint breaks ``a <= t < b`` (it
  rounds up to ``b`` for adjacent doubles, overflows to ``inf`` for huge
  ones); then ``t = a``. Both children are therefore never empty.

``predict`` routes index sets down the tree: one comparison over the rows
reaching each internal node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix

__all__ = ["DecisionTreeRegressor", "check_max_features"]


@dataclass
class _Node:
    """Internal (feature/threshold set) or leaf (value set) node."""

    value: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: "._Node | None" = None
    right: "._Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def check_max_features(max_features):
    """Validate a ``max_features`` setting: ``None``, an int ``>= 1`` or a
    float in ``(0, 1]``. Returns it as ``None``, ``int`` or ``float``."""
    if max_features is None:
        return None
    if isinstance(max_features, bool):
        pass
    elif isinstance(max_features, (int, np.integer)):
        if max_features >= 1:
            return int(max_features)
    elif isinstance(max_features, (float, np.floating)):
        if 0.0 < max_features <= 1.0:
            return float(max_features)
    raise ValueError(
        f"max_features must be None, an int >= 1 or a float in (0, 1], "
        f"got {max_features!r}")


class DecisionTreeRegressor:
    """Multi-output CART.

    Parameters
    ----------
    max_depth:
        Depth limit (``None`` = unbounded, sklearn default).
    min_samples_split / min_samples_leaf:
        Pre-pruning thresholds (sklearn defaults 2 / 1).
    max_features:
        Features examined per split: ``None`` (all), an int ``>= 1``
        (capped at the feature count), or a float fraction in ``(0, 1]``
        — the forest's decorrelation knob.
    """

    def __init__(self, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | float | None = None,
                 rng=None) -> None:
        if max_depth is not None and max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = check_max_features(max_features)
        self.rng = as_generator(rng)
        self._root: _Node | None = None
        self.n_features_: int | None = None

    # ------------------------------------------------------------------
    def _n_split_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if isinstance(mf, float):
            return max(1, min(n_features, int(round(mf * n_features))))
        return min(n_features, mf)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        x = check_matrix(x, name="x")
        y = check_matrix(y, name="y")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        n, n_features = x.shape
        self.n_features_ = n_features
        k = self._n_split_features(n_features)
        # goes_left[r] is (re)written for a node's rows before it is read.
        goes_left = np.empty(n, dtype=bool)
        row_sq = np.sum(y * y, axis=1)
        # A node is (rows ascending, order[f] = rows sorted by feature f).
        self._root = _Node(value=None)
        stack = [(self._root, np.arange(n),
                  np.ascontiguousarray(
                      np.argsort(x, axis=0, kind="stable").T), 0)]
        # Depth first, left before right: the order the per-node
        # rng.choice draws are taken in.
        while stack:
            node, rows, order, depth = stack.pop()
            y_node = y[rows]
            node.value = y_node.mean(axis=0)
            if (rows.size < self.min_samples_split
                    or (self.max_depth is not None
                        and depth >= self.max_depth)):
                continue
            split = self._best_split(x, y, row_sq, y_node, order, k)
            if split is None:
                continue
            node.feature, node.threshold = split
            mask = x[rows, node.feature] <= node.threshold
            goes_left[rows] = mask
            in_left = goes_left[order]
            node.left, node.right = _Node(value=None), _Node(value=None)
            stack.append((node.right, rows[~mask],
                          order[~in_left].reshape(n_features, -1),
                          depth + 1))
            stack.append((node.left, rows[mask],
                          order[in_left].reshape(n_features, -1),
                          depth + 1))
        return self

    def _best_split(self, x: np.ndarray, y: np.ndarray, row_sq: np.ndarray,
                    y_node: np.ndarray, order: np.ndarray,
                    k: int) -> tuple[int, float] | None:
        n_features, n = order.shape
        features = (np.arange(n_features) if k == n_features
                    else self.rng.choice(n_features, size=k, replace=False))
        total_sq = float(np.sum(y_node * y_node))
        total_sum = y_node.sum(axis=0)
        base_sse = total_sq - float(total_sum @ total_sum) / n
        sorted_rows = order[features].T          # (n, k)
        xs = x[sorted_rows, features]            # (n, k), each column sorted
        ys = y[sorted_rows]                      # (n, k, outputs)
        csum = np.cumsum(ys, axis=0)
        csq = np.cumsum(row_sq[sorted_rows], axis=0)
        # Candidate split after position i (1-based count = i+1).
        counts = np.arange(1, n)[:, None]
        left_sum = csum[:-1]
        left_sq = csq[:-1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        sse = (left_sq
               - np.einsum("ijk,ijk->ij", left_sum, left_sum) / counts
               + right_sq
               - np.einsum("ijk,ijk->ij", right_sum, right_sum)
               / (n - counts))
        # Valid splits: both children big enough, threshold between
        # *distinct* values.
        min_leaf = self.min_samples_leaf
        valid = ((counts >= min_leaf) & (n - counts >= min_leaf)
                 & (xs[1:] > xs[:-1]))
        sse = np.where(valid, sse, np.inf)
        at = np.argmin(sse, axis=0)              # each feature's best split
        best = sse[at, np.arange(k)]
        gains = best < base_sse - 1e-12
        # argmin's first occurrence = the first candidate feature to reach
        # the smallest SSE.
        j = int(np.argmin(np.where(gains, best, np.inf)))
        if not gains[j]:
            return None
        lo, hi = float(xs[at[j], j]), float(xs[at[j] + 1, j])
        threshold = 0.5 * (lo + hi)
        if not lo <= threshold < hi:
            threshold = lo
        return int(features[j]), threshold

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("predict called before fit")
        x = check_matrix(x, name="x")
        if x.shape[1] != self.n_features_:
            raise ValueError(
                f"x has {x.shape[1]} features, model expects "
                f"{self.n_features_}")
        out = np.empty((x.shape[0], self._root.value.shape[0]))
        stack = [(self._root, np.arange(x.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if not rows.size:
                continue
            if node.is_leaf:
                out[rows] = node.value
                continue
            goes_left = x[rows, node.feature] <= node.threshold
            stack.append((node.right, rows[~goes_left]))
            stack.append((node.left, rows[goes_left]))
        return out

    def depth(self) -> int:
        """Realized tree depth (diagnostics)."""
        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))
        if self._root is None:
            raise RuntimeError("depth called before fit")
        return walk(self._root)
