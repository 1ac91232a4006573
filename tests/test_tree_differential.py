"""Differential harness: presorted CART trees vs the reference oracle.

The presorted, all-features-in-one-pass split search of
:mod:`repro.baselines.tree` is only allowed to exist because of this
suite. Against the per-node, per-feature arithmetic of
tests/tree_oracle.py it must build the **same tree, bit for bit**: the
same nodes in the same order, each with the same split feature, the same
threshold bit pattern and the same leaf-value bytes. Predictions (the
index-set routing of ``predict`` against the oracle's per-row walk) must
be bitwise identical too.

Covered: single trees over ``max_depth``, ``min_samples_leaf`` and
``max_features`` as None, an int and a float (the float and int cases
draw a random feature subset per node, so the RNG stream must be
consumed identically); bootstrap forests (duplicate rows, so ties between
identical rows); stochastic boosting; Hypothesis-generated inputs with
tied and constant columns; and a reduced-size SST NARX problem.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    DecisionTreeRegressor,
    DirectNARXForecaster,
    GradientBoostingRegressor,
    RandomForestRegressor,
)
from repro.data import make_windowed_examples
from repro.pod import fit_pod, project_coefficients
from tests.tree_oracle import OracleTreeRegressor, oracle_trees


def _nodes(tree):
    """Preorder ``(feature, threshold bits, leaf-value bytes)`` of every
    node; leaves carry feature -1."""
    out = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        out.append((node.feature,
                    np.float64(node.threshold).tobytes(),
                    node.value.dtype.str, node.value.shape,
                    node.value.tobytes()))
        if not node.is_leaf:
            stack += [node.right, node.left]
    return out


def _assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same_tree(tree, oracle, queries) -> None:
    assert _nodes(tree) == _nodes(oracle)
    for x in queries:
        pred = tree.predict(x)
        _assert_bitwise(pred, oracle.predict(x))
        # The routing predict against the per-row walk on the same tree.
        _assert_bitwise(pred, OracleTreeRegressor.predict(tree, x))


def _tied_data(seed: int, n: int = 150, n_features: int = 6,
               n_outputs: int = 3):
    """Features on a coarse grid (many ties) plus one constant column."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(-2, 2, size=(n, n_features)), 1)
    x[:, 2] = 0.5
    y = np.stack([np.sin(x[:, 0]) + 0.3 * x[:, 1] * x[:, 3]
                  + 0.1 * rng.standard_normal(n)
                  for _ in range(n_outputs)], axis=1)
    y[:, 1:] += rng.standard_normal((n, n_outputs - 1))
    return x, y, rng.uniform(-2.5, 2.5, size=(40, n_features))


@pytest.mark.parametrize("max_features", [None, 2, 0.5],
                         ids=["all", "int", "float"])
@pytest.mark.parametrize("min_samples_leaf", [1, 5])
@pytest.mark.parametrize("max_depth", [None, 1, 4])
@pytest.mark.parametrize("n_outputs", [1, 3])
def test_tree_matches_oracle(max_depth, min_samples_leaf, max_features,
                             n_outputs):
    x, y, x_new = _tied_data(seed=n_outputs, n_outputs=n_outputs)
    params = dict(max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                  max_features=max_features)
    tree = DecisionTreeRegressor(**params, rng=11).fit(x, y)
    oracle = OracleTreeRegressor(**params, rng=11).fit(x, y)
    _assert_same_tree(tree, oracle, [x, x_new])
    # Both consumed the same RNG stream.
    assert tree.rng.random() == oracle.rng.random()


def _fit_pair(make, x, y):
    model = make().fit(x, y)
    with oracle_trees():
        reference = make().fit(x, y)
    assert all(type(t) is OracleTreeRegressor
               for t in reference.estimators_)
    return model, reference


@pytest.mark.parametrize("max_features, min_samples_leaf",
                         [(None, 1), (0.5, 1), (3, 3)])
def test_bootstrap_forest_matches_oracle(max_features, min_samples_leaf):
    x, y, x_new = _tied_data(seed=5)
    forest, reference = _fit_pair(
        lambda: RandomForestRegressor(n_estimators=4,
                                      max_features=max_features,
                                      min_samples_leaf=min_samples_leaf,
                                      rng=2), x, y)
    for tree, oracle in zip(forest.estimators_, reference.estimators_,
                            strict=True):
        assert _nodes(tree) == _nodes(oracle)
    for q in (x, x_new):
        _assert_bitwise(forest.predict(q), reference.predict(q))


def test_subsampled_boosting_matches_oracle():
    x, y, x_new = _tied_data(seed=9)
    gbt, reference = _fit_pair(
        lambda: GradientBoostingRegressor(n_estimators=8, subsample=0.6,
                                          max_depth=3, rng=4), x, y)
    for tree, oracle in zip(gbt.estimators_, reference.estimators_,
                            strict=True):
        assert _nodes(tree) == _nodes(oracle)
    for q in (x, x_new):
        _assert_bitwise(gbt.predict(q), reference.predict(q))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), n_features=st.integers(1, 4),
       n_outputs=st.integers(1, 3),
       max_depth=st.one_of(st.none(), st.integers(1, 4)),
       min_samples_leaf=st.integers(1, 3),
       max_features=st.one_of(st.none(), st.integers(1, 4),
                              st.floats(0.05, 1.0)),
       seed=st.integers(0, 2 ** 16))
def test_hypothesis_inputs_match_oracle(data, n, n_features, n_outputs,
                                        max_depth, min_samples_leaf,
                                        max_features, seed):
    """Few distinct feature values (ties) and columns that may be
    constant."""
    levels = data.draw(st.lists(st.integers(-3, 3), min_size=1,
                                max_size=4, unique=True))
    x = np.array(data.draw(st.lists(st.sampled_from(levels),
                                    min_size=n * n_features,
                                    max_size=n * n_features)),
                 dtype=float).reshape(n, n_features)
    y = np.array(data.draw(st.lists(st.floats(-5.0, 5.0),
                                    min_size=n * n_outputs,
                                    max_size=n * n_outputs)),
                 dtype=float).reshape(n, n_outputs)
    params = dict(max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                  max_features=max_features)
    tree = DecisionTreeRegressor(**params, rng=seed).fit(x, y)
    oracle = OracleTreeRegressor(**params, rng=seed).fit(x, y)
    _assert_same_tree(tree, oracle, [x])


def test_sst_narx_matches_oracle(tiny_dataset):
    """A reduced Table II NARX problem: 3 POD modes, window 4."""
    snapshots = tiny_dataset.training_snapshots()
    basis = fit_pod(snapshots, 3)
    examples = make_windowed_examples(project_coefficients(basis, snapshots),
                                      4)
    for make in (lambda: RandomForestRegressor(n_estimators=3, rng=1),
                 lambda: GradientBoostingRegressor(n_estimators=6, rng=1)):
        narx = DirectNARXForecaster(make(), 4).fit(examples)
        with oracle_trees():
            reference = DirectNARXForecaster(make(), 4).fit(examples)
        for tree, oracle in zip(narx.regressor.estimators_,
                                reference.regressor.estimators_,
                                strict=True):
            assert _nodes(tree) == _nodes(oracle)
        _assert_bitwise(narx.predict(examples.inputs),
                        reference.predict(examples.inputs))
