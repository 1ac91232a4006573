import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
)
from repro.nn.metrics import r2_score


@pytest.fixture()
def step_data(rng):
    """Piecewise-constant target — trees should fit it exactly."""
    x = rng.uniform(-1, 1, size=(120, 2))
    y = np.where(x[:, :1] > 0.0, 2.0, -1.0) + np.where(x[:, 1:] > 0.3,
                                                       0.5, 0.0)
    return x, y


@pytest.fixture()
def smooth_data(rng):
    x = rng.uniform(-2, 2, size=(200, 3))
    y = np.stack([np.sin(x[:, 0]) + 0.5 * x[:, 1],
                  x[:, 2] ** 2], axis=1)
    return x, y


class TestDecisionTree:
    def test_fits_piecewise_constant_exactly(self, step_data):
        x, y = step_data
        tree = DecisionTreeRegressor().fit(x, y)
        np.testing.assert_allclose(tree.predict(x), y, atol=1e-12)

    def test_max_depth_limits(self, step_data):
        x, y = step_data
        stump = DecisionTreeRegressor(max_depth=1).fit(x, y)
        assert stump.depth() == 1
        deep = DecisionTreeRegressor().fit(x, y)
        assert deep.depth() >= 2

    def test_min_samples_leaf(self, smooth_data):
        x, y = smooth_data
        tree = DecisionTreeRegressor(min_samples_leaf=30).fit(x, y)

        def leaf_sizes(node, xs):
            if node.is_leaf:
                return [len(xs)]
            mask = xs[:, node.feature] <= node.threshold
            return (leaf_sizes(node.left, xs[mask])
                    + leaf_sizes(node.right, xs[~mask]))

        assert min(leaf_sizes(tree._root, x)) >= 30

    def test_multi_output_leaves(self, smooth_data):
        x, y = smooth_data
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        assert tree.predict(x).shape == y.shape

    def test_constant_target_single_leaf(self, rng):
        x = rng.standard_normal((30, 2))
        y = np.full((30, 1), 3.0)
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree.depth() == 0
        np.testing.assert_allclose(tree.predict(x), 3.0)

    def test_predictions_bounded_by_training_targets(self, smooth_data,
                                                     rng):
        """Trees cannot extrapolate — the Table II failure mechanism."""
        x, y = smooth_data
        tree = DecisionTreeRegressor().fit(x, y)
        far = rng.uniform(5, 10, size=(50, 3))
        pred = tree.predict(far)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    def test_max_features_subsampling(self, smooth_data):
        x, y = smooth_data
        tree = DecisionTreeRegressor(max_features=1, rng=0).fit(x, y)
        assert r2_score(y, tree.predict(x)) > 0.3

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((2, 2)))

    def test_feature_count_check(self, step_data):
        x, y = step_data
        tree = DecisionTreeRegressor().fit(x, y)
        with pytest.raises(ValueError):
            tree.predict(np.ones((2, 5)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_deterministic_given_rng(self, smooth_data):
        x, y = smooth_data
        t1 = DecisionTreeRegressor(max_features=2, rng=7).fit(x, y)
        t2 = DecisionTreeRegressor(max_features=2, rng=7).fit(x, y)
        np.testing.assert_allclose(t1.predict(x), t2.predict(x))

    @pytest.mark.parametrize("max_features", [0, -3, True, False, 0.0,
                                              -0.5, 1.5, 2.0, float("nan"),
                                              "sqrt"])
    def test_invalid_max_features(self, max_features):
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeRegressor(max_features=max_features)

    @pytest.mark.parametrize("max_features, expected", [
        (None, 3), (1, 1), (np.int64(2), 2), (10, 3), (0.5, 2), (1.0, 3),
        (0.01, 1)])
    def test_valid_max_features(self, max_features, expected):
        tree = DecisionTreeRegressor(max_features=max_features)
        assert tree._n_split_features(3) == expected

    @pytest.mark.parametrize("x", [[np.nextafter(1.0, 0.0), 1.0],
                                   [1e308, 1.7e308],
                                   [-1.7e308, -1e308],
                                   [-5e-324, 0.0]],
                             ids=["adjacent", "overflow", "neg-overflow",
                                  "subnormal"])
    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_threshold_separates_neighbours(self, x, max_depth):
        """The midpoint of two adjacent doubles rounds up to the larger
        one, and the midpoint of two huge ones overflows to inf: either
        threshold would send both rows left."""
        x = np.array(x)[:, None]
        y = np.array([[0.0], [1.0]])
        tree = DecisionTreeRegressor(max_depth=max_depth).fit(x, y)
        assert tree.depth() == 1
        assert x[0, 0] <= tree._root.threshold < x[1, 0]
        np.testing.assert_array_equal(tree.predict(x), y)


def _split_sizes(node, x):
    """(left, right) row counts of every split and the row count of every
    leaf, routing the training rows down the tree."""
    if node.is_leaf:
        return [], [len(x)]
    mask = x[:, node.feature] <= node.threshold
    splits_l, leaves_l = _split_sizes(node.left, x[mask])
    splits_r, leaves_r = _split_sizes(node.right, x[~mask])
    return ([(int(mask.sum()), int((~mask).sum()))] + splits_l + splits_r,
            leaves_l + leaves_r)


# Extreme neighbours (adjacent doubles, overflowing sums, subnormals)
# mixed with arbitrary finite floats; few distinct values make ties.
_EDGE_VALUES = [np.nextafter(1.0, 0.0), 1.0, 1e308, 1.7e308, -1.7e308,
                -5e-324, 5e-324, 0.0]
_x_values = st.one_of(st.sampled_from(_EDGE_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 24), n_features=st.integers(1, 3),
       min_samples_leaf=st.integers(1, 4),
       max_depth=st.one_of(st.none(), st.integers(1, 5)))
def test_splits_respect_min_samples_leaf(data, n, n_features,
                                         min_samples_leaf, max_depth):
    """Every split sends at least ``min_samples_leaf`` rows each way and
    no leaf is empty, whatever the feature values."""
    x = np.array(data.draw(st.lists(_x_values, min_size=n * n_features,
                                    max_size=n * n_features)),
                 dtype=float).reshape(n, n_features)
    y = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n,
                                    max_size=n)))[:, None]
    tree = DecisionTreeRegressor(max_depth=max_depth,
                                 min_samples_leaf=min_samples_leaf).fit(x, y)
    splits, leaves = _split_sizes(tree._root, x)
    assert all(min(pair) >= min_samples_leaf for pair in splits)
    assert min(leaves) >= 1
    assert np.all(np.isfinite(tree.predict(x)))


class TestRandomForest:
    def test_improves_over_single_tree_oob(self, rng):
        x = rng.uniform(-2, 2, size=(150, 3))
        y = (np.sin(2 * x[:, :1]) + 0.3 * rng.standard_normal((150, 1)))
        x_test = rng.uniform(-2, 2, size=(100, 3))
        y_test = np.sin(2 * x_test[:, :1])
        tree = DecisionTreeRegressor(rng=0).fit(x, y)
        forest = RandomForestRegressor(n_estimators=25, rng=0).fit(x, y)
        assert (r2_score(y_test, forest.predict(x_test))
                > r2_score(y_test, tree.predict(x_test)))

    def test_no_bootstrap_all_features_reduces_to_tree(self, smooth_data):
        x, y = smooth_data
        forest = RandomForestRegressor(n_estimators=3, bootstrap=False,
                                       rng=0).fit(x, y)
        tree = DecisionTreeRegressor().fit(x, y)
        np.testing.assert_allclose(forest.predict(x), tree.predict(x))

    def test_estimator_count(self, smooth_data):
        x, y = smooth_data
        forest = RandomForestRegressor(n_estimators=7, max_depth=2,
                                       rng=0).fit(x, y)
        assert len(forest.estimators_) == 7

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((2, 2)))

    @pytest.mark.parametrize("max_features", [0, -1, True, 1.5])
    def test_invalid_max_features(self, max_features):
        with pytest.raises(ValueError, match="max_features"):
            RandomForestRegressor(max_features=max_features)

    def test_reproducible(self, smooth_data):
        x, y = smooth_data
        f1 = RandomForestRegressor(n_estimators=5, rng=3).fit(x, y)
        f2 = RandomForestRegressor(n_estimators=5, rng=3).fit(x, y)
        np.testing.assert_allclose(f1.predict(x), f2.predict(x))


class TestGradientBoosting:
    def test_fits_smooth_function(self, smooth_data):
        x, y = smooth_data
        gbt = GradientBoostingRegressor(n_estimators=80, rng=0).fit(x, y)
        assert r2_score(y, gbt.predict(x)) > 0.9

    def test_more_rounds_fit_train_better(self, smooth_data):
        x, y = smooth_data
        few = GradientBoostingRegressor(n_estimators=5, rng=0).fit(x, y)
        many = GradientBoostingRegressor(n_estimators=60, rng=0).fit(x, y)
        assert (r2_score(y, many.predict(x))
                > r2_score(y, few.predict(x)))

    def test_base_prediction_is_mean(self, smooth_data):
        x, y = smooth_data
        gbt = GradientBoostingRegressor(n_estimators=1, learning_rate=0.0001,
                                        rng=0).fit(x, y)
        np.testing.assert_allclose(gbt.predict(x).mean(axis=0),
                                   y.mean(axis=0), atol=0.01)

    def test_subsample(self, smooth_data):
        x, y = smooth_data
        gbt = GradientBoostingRegressor(n_estimators=20, subsample=0.5,
                                        rng=0).fit(x, y)
        assert r2_score(y, gbt.predict(x)) > 0.5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.ones((2, 2)))
