"""Bootstrap random forest over multi-output CART trees."""

from __future__ import annotations

import numpy as np

from repro.baselines.tree import DecisionTreeRegressor, check_max_features
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Averaged ensemble of bootstrap-trained CART trees.

    Defaults follow scikit-learn's regressor at the time of the paper:
    100 trees, unbounded depth, all features considered at each split,
    bootstrap sampling.
    """

    def __init__(self, n_estimators: int = 100,
                 max_depth: int | None = None,
                 min_samples_leaf: int = 1,
                 max_features: int | float | None = None,
                 bootstrap: bool = True, rng=None) -> None:
        self.n_estimators = check_positive_int(n_estimators,
                                               name="n_estimators")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = check_max_features(max_features)
        self.bootstrap = bootstrap
        self.rng = as_generator(rng)
        self.estimators_: list[DecisionTreeRegressor] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        x = check_matrix(x, name="x")
        y = check_matrix(y, name="y")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        n = x.shape[0]
        self.estimators_ = []
        for tree_rng in spawn(self.rng, self.n_estimators):
            if self.bootstrap:
                idx = tree_rng.integers(0, n, size=n)
                xb, yb = x[idx], y[idx]
            else:
                xb, yb = x, y
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features, rng=tree_rng)
            tree.fit(xb, yb)
            self.estimators_.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("predict called before fit")
        preds = self.estimators_[0].predict(x)
        for tree in self.estimators_[1:]:
            preds += tree.predict(x)
        preds /= len(self.estimators_)
        return preds
