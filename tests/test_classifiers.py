import json
import math

import numpy as np
import pytest

from fbcsurv.classifiers import (
    MODEL_FAMILIES,
    Hyperparameters,
    ModelFamily,
    TrainedModel,
    decision_tree_dump,
    fit_model,
    predict,
)
from fbcsurv.classifiers.splits import BinnedMatrix
from fbcsurv.classifiers.tree import NewtonGrower

from adaboost_reference import best_stump

HP = Hyperparameters()
DT, ADA, GBT = ModelFamily.DECISION_TREE, ModelFamily.ADABOOST, ModelFamily.GBT
# one parameter per family; the ids keep the test names of the per-family fit functions they replace
FAMILIES = [pytest.param(family, id=f"fit_{family.value}") for family in MODEL_FAMILIES]


def _separable_1d():
    X = np.array([[1], [1], [1], [3], [3], [3]])
    y = np.array([0, 0, 0, 1, 1, 1])
    return X, y


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------


def test_tree_constant_target_is_single_leaf():
    X = np.array([[1], [2], [3]])
    y = np.array([1, 1, 1])
    model = fit_model(DT, X, y, HP)
    assert model.model.feature.tolist() == [-1]
    assert model.model.value.tolist() == [1.0]
    assert predict(model, X).tolist() == [1, 1, 1]


def test_tree_separable_1d_is_depth_one():
    X, y = _separable_1d()
    model = fit_model(DT, X, y, Hyperparameters(tree_min_leaf=1))
    tree = model.model
    assert tree.feature.tolist() == [0, -1, -1]
    assert (tree.left[0], tree.right[0]) == (1, 2)
    assert tree.threshold[0] == 2.0
    assert np.array_equal(predict(model, X), y)


def _gini(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    n1 = float(sum(labels))
    n0 = n - n1
    return 1.0 - (n0 * n0 + n1 * n1) / (n * n)


def _brute_force_best_gain(X, y, min_leaf):
    """Exhaustive split enumeration with pure-python impurity arithmetic."""
    n, d = X.shape
    parent = _gini(y.tolist())
    best = None
    for j in range(d):
        distinct = sorted(set(X[:, j].tolist()))
        for a, b in zip(distinct, distinct[1:]):
            threshold = (a + b) / 2.0
            left = [y[i] for i in range(n) if X[i, j] <= threshold]
            right = [y[i] for i in range(n) if X[i, j] > threshold]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = parent - len(left) / n * _gini(left) - len(right) / n * _gini(right)
            if best is None or gain > best:
                best = gain
    return best


def test_root_split_gain_matches_brute_force_on_random_data():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(6, 30))
        X = rng.integers(0, 5, size=(n, int(rng.integers(1, 4))))
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            continue
        brute = _brute_force_best_gain(X, y, min_leaf=1)
        if brute is None:
            continue
        model = fit_model(DT, X, y, Hyperparameters(tree_max_depth=1, tree_min_leaf=1))
        tree = model.model
        if tree.feature[0] < 0:  # no candidate split existed
            continue
        mask = X[:, tree.feature[0]] <= tree.threshold[0]
        chosen_gain = (
            _gini(y.tolist())
            - mask.sum() / n * _gini(y[mask].tolist())
            - (~mask).sum() / n * _gini(y[~mask].tolist())
        )
        assert chosen_gain == pytest.approx(brute, abs=1e-12)
        checked += 1
    assert checked >= 60


def test_tree_memorizes_distinct_rows():
    rng = np.random.default_rng(8)
    X = rng.permutation(np.arange(40)).reshape(20, 2)
    y = rng.integers(0, 2, size=20)
    model = fit_model(DT, X, y, Hyperparameters(tree_max_depth=None, tree_min_leaf=1))
    assert np.array_equal(predict(model, X), y)


def test_tree_memorizes_xor():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    y = np.array([0, 1, 1, 0])
    model = fit_model(DT, X, y, Hyperparameters(tree_max_depth=None, tree_min_leaf=1))
    assert np.array_equal(predict(model, X), y)


def test_tree_respects_min_leaf_and_depth():
    rng = np.random.default_rng(4)
    X = rng.integers(0, 6, size=(80, 5))
    y = rng.integers(0, 2, size=80)
    tree = fit_model(DT, X, y, Hyperparameters(tree_max_depth=3, tree_min_leaf=7)).model
    depths = []
    stack = [(0, 0)]
    while stack:
        node, depth = stack.pop()
        if tree.feature[node] < 0:
            assert tree.n[node] >= 7
            depths.append(depth)
        else:
            stack.append((tree.left[node], depth + 1))
            stack.append((tree.right[node], depth + 1))
    assert max(depths) <= 3


def test_tree_monotone_relabel_invariance():
    rng = np.random.default_rng(12)
    X = rng.integers(0, 7, size=(60, 4))
    y = rng.integers(0, 2, size=60)
    mapped = X**3  # strictly increasing on non-negative ints
    hp = Hyperparameters(tree_min_leaf=2)
    base = fit_model(DT, X, y, hp)
    remapped = fit_model(DT, mapped, y, hp)
    assert np.array_equal(predict(base, X), predict(remapped, mapped))


def test_tree_dump_format():
    X, y = _separable_1d()
    model = fit_model(DT, X, y, Hyperparameters(tree_min_leaf=1), feature_names=("lbl_MCV",))
    dump = decision_tree_dump(model)
    lines = dump.splitlines()
    assert lines[0] == "if lbl_MCV <= 2"
    assert lines[1] == "    leaf class=0 p=1.0000 n=3"
    assert lines[2] == "else"
    assert lines[3] == "    leaf class=1 p=1.0000 n=3"


def test_dump_rejects_non_tree():
    X, y = _separable_1d()
    with pytest.raises(ValueError):
        decision_tree_dump(fit_model(ADA, X, y, HP))


# ---------------------------------------------------------------------------
# adaboost
# ---------------------------------------------------------------------------


def test_adaboost_separable_stops_after_one_round():
    X, y = _separable_1d()
    model = fit_model(ADA, X, y, HP)
    ens = model.model
    assert len(ens.stumps) == 1
    assert ens.weighted_errors == [0.0]
    assert np.array_equal(predict(model, X), y)


def test_adaboost_first_stump_is_plain_best_stump():
    rng = np.random.default_rng(17)
    X = rng.integers(0, 5, size=(50, 4))
    y = rng.integers(0, 2, size=50)
    model = fit_model(ADA, X, y, HP)
    uniform = np.full(50, 1.0 / 50)
    plain, err, _ = best_stump(BinnedMatrix(X), y, uniform)
    assert model.model.stumps[0].to_dict() == plain.to_dict()
    assert model.model.weighted_errors[0] == pytest.approx(err, abs=1e-12)


def test_adaboost_weights_sum_to_one_every_round():
    rng = np.random.default_rng(23)
    X = rng.integers(0, 4, size=(100, 6))
    y = rng.integers(0, 2, size=100)
    model = fit_model(ADA, X, y, HP)
    assert len(model.model.weight_sums) >= 1
    for s in model.model.weight_sums:
        assert abs(s - 1.0) <= 1e-12


def test_adaboost_exponential_loss_bound():
    rng = np.random.default_rng(29)
    for _ in range(10):
        X = rng.integers(0, 4, size=(60, 5))
        y = rng.integers(0, 2, size=60)
        if y.sum() in (0, 60):
            continue
        ens = fit_model(ADA, X, y, HP).model
        bound = 1.0
        previous = math.inf
        for err in ens.weighted_errors:
            bound *= 2.0 * math.sqrt(max(err, 0.0) * (1.0 - max(err, 0.0)))
            assert bound <= previous + 1e-12
            previous = bound
        training_error = float(np.mean(ens.predict(X) != y))
        assert training_error <= bound + 1e-9


def test_adaboost_stops_on_uninformative_data():
    # identical rows, balanced classes: best stump error is exactly 0.5
    X = np.ones((10, 2), dtype=int)
    y = np.array([0, 1] * 5)
    ens = fit_model(ADA, X, y, HP).model
    assert ens.stumps == []
    assert predict(TrainedModel(ModelFamily.ADABOOST, ("f0", "f1"), ens), X).tolist() == [0] * 10


# ---------------------------------------------------------------------------
# gradient boosting
# ---------------------------------------------------------------------------


def test_gbt_zero_rounds_predicts_prior_class():
    X = np.array([[1], [2], [3], [4]])
    hp = Hyperparameters(gbt_rounds=0)
    mostly_one = fit_model(GBT, X, np.array([1, 1, 1, 0]), hp)
    assert predict(mostly_one, X).tolist() == [1, 1, 1, 1]
    mostly_zero = fit_model(GBT, X, np.array([0, 0, 0, 1]), hp)
    assert predict(mostly_zero, X).tolist() == [0, 0, 0, 0]


def test_gbt_leaf_value_formula():
    # constant feature forces a single leaf: value = -sum(g) / (sum(h) + l2)
    bm = BinnedMatrix(np.array([[1], [1]]))
    g = np.array([[1.0, 1.0]])
    h = np.array([[1.0, 1.0]])
    out = np.empty((1, 2))
    grower = NewtonGrower(bm, (1,), max_depth=3, l2=1.0)
    grower.grow(g, h, out)
    ((tree,),) = grower.pop_trees()
    assert tree.feature.tolist() == [-1]
    assert tree.value[0] == pytest.approx(-2.0 / 3.0, abs=0)


def test_gbt_training_loss_non_increasing():
    rng = np.random.default_rng(31)
    for _ in range(5):
        X = rng.integers(0, 4, size=(80, 6))
        y = rng.integers(0, 2, size=80)
        if y.sum() in (0, 80):
            continue
        ens = fit_model(GBT, X, y, HP).model
        losses = ens.train_losses
        assert len(losses) == HP.gbt_rounds + 1
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-12


def test_gbt_separable_reaches_perfect_training_accuracy():
    X, y = _separable_1d()
    model = fit_model(GBT, X, y, HP)
    assert np.array_equal(predict(model, X), y)


def test_gbt_tiny_learning_rate_stays_near_prior():
    rng = np.random.default_rng(37)
    X = rng.integers(0, 4, size=(50, 3))
    y = rng.integers(0, 2, size=50)
    lr = 1e-6
    ens = fit_model(GBT, X, y, Hyperparameters(gbt_rounds=1, gbt_learning_rate=lr)).model
    tree = ens.trees[0]
    max_leaf = np.abs(tree.value[tree.feature < 0]).max()
    scores = ens.decision_scores(X)
    assert np.all(np.abs(scores - ens.init_score) <= lr * max_leaf + 1e-15)


# ---------------------------------------------------------------------------
# common contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_empty_input_rejected(family):
    with pytest.raises(ValueError, match="empty input"):
        fit_model(family, np.empty((0, 3), dtype=int), np.empty(0, dtype=int), HP)


@pytest.mark.parametrize("bad", [2.7, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", FAMILIES)
def test_non_integer_input_rejected(family, bad):
    X, y = _separable_1d()
    model = fit_model(family, X, y, Hyperparameters(tree_min_leaf=1))
    with pytest.raises(ValueError, match="integer values"):
        fit_model(family, np.where(X == 3, bad, X), y, HP)
    with pytest.raises(ValueError, match="binary"):
        fit_model(family, X, np.where(y == 1, bad, y), HP)
    # the tree splits at 2.0: a truncating cast would send 2.7 left
    with pytest.raises(ValueError, match="integer values"):
        predict(model, np.array([[bad]]))


@pytest.mark.parametrize("family", FAMILIES)
def test_predict_contract(family):
    rng = np.random.default_rng(41)
    X = rng.integers(0, 4, size=(40, 3))
    y = rng.integers(0, 2, size=40)
    model = fit_model(family, X, y, HP, feature_names=("a", "b", "c"))
    first = predict(model, X, columns=("a", "b", "c"))
    second = predict(model, X)
    assert np.array_equal(first, second)
    assert set(first.tolist()) <= {0, 1}
    assert predict(model, np.empty((0, 3), dtype=int)).tolist() == []
    # integer-valued floats are integers
    assert np.array_equal(predict(model, X.astype(float)), first)
    assert fit_model(family, X.astype(float), y, HP, feature_names=("a", "b", "c")).to_dict() == model.to_dict()
    with pytest.raises(ValueError, match="column mismatch"):
        predict(model, X, columns=("a", "c", "b"))
    with pytest.raises(ValueError, match="column mismatch"):
        predict(model, X[:, :2])


# per family, a fit whose model is as small as it gets: a single leaf, zero stumps, zero rounds
SMALLEST_FITS = {
    DT: (np.array([[1], [2], [3]]), np.array([1, 1, 1]), HP),
    ADA: (np.ones((10, 2), dtype=int), np.array([0, 1] * 5), HP),
    GBT: (np.array([[1], [2], [3]]), np.array([0, 1, 1]), Hyperparameters(gbt_rounds=0)),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_determinism_and_json_roundtrip(family, tmp_path):
    rng = np.random.default_rng(43)
    X = rng.integers(0, 5, size=(60, 5))
    y = rng.integers(0, 2, size=60)
    for X, y, hp in ((X, y, HP), SMALLEST_FITS[family]):
        m1 = fit_model(family, X, y, hp)
        m2 = fit_model(family, X, y, hp)
        s1 = json.dumps(m1.to_dict(), sort_keys=True)
        s2 = json.dumps(m2.to_dict(), sort_keys=True)
        assert s1 == s2
        path = tmp_path / "model.json"
        m1.save(path)
        loaded = TrainedModel.load(path)
        assert json.dumps(loaded.to_dict(), sort_keys=True) == s1
        assert np.array_equal(predict(loaded, X), predict(m1, X))


def _edited(params, name, index, value):
    edited = json.loads(json.dumps(params))
    edited[name][index] = value
    return edited


# name -> edit of a saved one-column decision tree [split, leaf, leaf]
BAD_TREE_EDITS = {
    "backward_child": lambda t: _edited(t, "left", 0, 0),
    "child_past_the_end": lambda t: _edited(t, "right", 0, 3),
    "feature_out_of_range": lambda t: _edited(t, "feature", 0, 5),
    "negative_feature": lambda t: _edited(t, "feature", 0, -2),
    "leaf_with_child": lambda t: _edited(t, "left", 1, 2),
    "ragged_arrays": lambda t: {**t, "threshold": t["threshold"][:2]},
    "missing_array": lambda t: {name: v for name, v in t.items() if name != "n"},
    "unknown_array": lambda t: {**t, "depth": [0, 1, 1]},
    "without_n1_and_p": lambda t: {name: v for name, v in t.items() if name not in ("n1", "p")},
    "non_numeric": lambda t: _edited(t, "left", 0, "one"),
}


@pytest.mark.parametrize("edit", BAD_TREE_EDITS)
def test_load_rejects_malformed_trees(edit):
    X, y = _separable_1d()
    saved = fit_model(DT, X, y, Hyperparameters(tree_min_leaf=1)).to_dict()
    assert saved["params"]["feature"] == [0, -1, -1]
    TrainedModel.from_dict(saved)
    # before these checks, a backward child made predict loop forever and a bad feature gave numpy's IndexError
    with pytest.raises(ValueError):
        TrainedModel.from_dict({**saved, "params": BAD_TREE_EDITS[edit](saved["params"])})


# name -> (family, edit of the saved params). Before these checks a fallback_class 7, a NaN alpha and a
# null init_score loaded silently, and a string value or a missing key failed only in numpy or as a KeyError.
BAD_ENSEMBLE_EDITS = {
    "extra_alpha": (ADA, lambda p: {**p, "alphas": p["alphas"] + [1.0]}),
    "fallback_class_7": (ADA, lambda p: {"stumps": [], "alphas": [], "fallback_class": 7}),
    "fallback_class_true": (ADA, lambda p: {**p, "fallback_class": True}),
    "nan_alpha": (ADA, lambda p: {**p, "alphas": [math.nan]}),
    "string_alpha": (ADA, lambda p: {**p, "alphas": ["1.0"]}),
    "missing_alphas": (ADA, lambda p: {name: v for name, v in p.items() if name != "alphas"}),
    "tree_with_bad_feature": (GBT, lambda p: {**p, "trees": [_edited(p["trees"][0], "feature", 0, 1)] + p["trees"][1:]}),
    "null_init_score": (GBT, lambda p: {**p, "init_score": None}),
    "infinite_init_score": (GBT, lambda p: {**p, "init_score": math.inf}),
    "string_learning_rate": (GBT, lambda p: {**p, "learning_rate": "0.1"}),
    "zero_learning_rate": (GBT, lambda p: {**p, "learning_rate": 0.0}),
    "learning_rate_above_one": (GBT, lambda p: {**p, "learning_rate": 1.5}),
    "missing_trees": (GBT, lambda p: {name: v for name, v in p.items() if name != "trees"}),
}


def test_load_rejects_malformed_ensembles():
    X, y = _separable_1d()
    saved = {family: fit_model(family, X, y, Hyperparameters(gbt_rounds=2, gbt_depth=1)).to_dict() for family in (ADA, GBT)}
    assert saved[ADA]["params"]["alphas"] and saved[GBT]["params"]["trees"]
    for family, edit in BAD_ENSEMBLE_EDITS.values():
        TrainedModel.from_dict(saved[family])
        with pytest.raises(ValueError):
            TrainedModel.from_dict({**saved[family], "params": edit(saved[family]["params"])})


def test_unbounded_tree_deeper_than_the_recursion_limit_saves_and_dumps(tmp_path):
    # every split peels off one row: a chain of 1,199 splits
    X = np.arange(1200).reshape(-1, 1)
    y = X[:, 0] % 2
    model = fit_model(DT, X, y, Hyperparameters(tree_max_depth=None, tree_min_leaf=1))
    tree = model.model
    n_inner = int((tree.feature >= 0).sum())
    assert (len(tree.feature), n_inner) == (2399, 1199)
    model.save(tmp_path / "deep.json")
    loaded = TrainedModel.load(tmp_path / "deep.json")
    assert loaded.to_dict() == model.to_dict()
    assert np.array_equal(predict(loaded, X), y)
    lines = decision_tree_dump(loaded).splitlines()
    # a line per node, and an else line per split
    assert len(lines) == len(tree.feature) + n_inner
    assert sum(line.lstrip().startswith("leaf class=") for line in lines) == len(tree.feature) - n_inner
    assert max(len(line) - len(line.lstrip()) for line in lines) == 4 * 1199


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        Hyperparameters(gbt_learning_rate=0.0)
    with pytest.raises(ValueError):
        Hyperparameters(gbt_learning_rate=1.5)
    with pytest.raises(ValueError):
        Hyperparameters(tree_min_leaf=0)
    with pytest.raises(ValueError):
        Hyperparameters(tree_max_depth=0)
    with pytest.raises(ValueError):
        Hyperparameters(ada_rounds=-1)
    for l2 in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gbt_l2"):
            Hyperparameters(gbt_l2=l2)
    assert Hyperparameters(tree_max_depth=None).tree_max_depth is None
