import hashlib
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
    fit_group,
    fit_model,
    predict,
)
from fbcsurv.classifiers.model import MAX_ROUNDS
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
    assert (model.model.init_score, model.model.weights) == (0.0, [1.0])
    assert model.model.trees[0].feature.tolist() == [-1]
    assert model.model.trees[0].value.tolist() == [1.0]
    assert predict(model, X).tolist() == [1, 1, 1]


def test_tree_separable_1d_is_depth_one():
    X, y = _separable_1d()
    model = fit_model(DT, X, y, Hyperparameters(tree_min_leaf=1))
    (tree,) = model.model.trees
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
        (tree,) = model.model.trees
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
    (tree,) = fit_model(DT, X, y, Hyperparameters(tree_max_depth=3, tree_min_leaf=7)).model.trees
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


@pytest.mark.parametrize("family, field", [(DT, "tree_max_depth"), (GBT, "gbt_depth")])
def test_a_depth_beyond_the_row_count_fits_like_depth_n(family, field):
    # a grower sizes its node records from max_depth; no tree is deeper than its row count
    rng = np.random.default_rng(5)
    X = rng.integers(0, 40, size=(30, 3))
    y = rng.integers(0, 2, size=30)
    fit = lambda depth: fit_model(family, X, y, Hyperparameters(**{field: depth, "tree_min_leaf": 1})).to_dict()
    assert fit(10**9) == fit(30)


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
    assert len(ens.trees) == 1
    assert ens.weighted_errors == [0.0]
    assert np.array_equal(predict(model, X), y)


def test_adaboost_first_stump_is_plain_best_stump():
    rng = np.random.default_rng(17)
    X = rng.integers(0, 5, size=(50, 4))
    y = rng.integers(0, 2, size=50)
    model = fit_model(ADA, X, y, HP)
    uniform = np.full(50, 1.0 / 50)
    plain, err, _ = best_stump(BinnedMatrix(X), y, uniform)
    # a stump's leaves hold the vote 2 * class - 1 of the reference's class
    assert model.model.trees[0].to_dict() == {**plain.to_dict(), "value": (2.0 * plain.value - 1.0).tolist()}
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
        model = fit_model(ADA, X, y, HP)
        ens = model.model
        bound = 1.0
        previous = math.inf
        for err in ens.weighted_errors:
            bound *= 2.0 * math.sqrt(max(err, 0.0) * (1.0 - max(err, 0.0)))
            assert bound <= previous + 1e-12
            previous = bound
        training_error = float(np.mean(predict(model, X) != y))
        assert training_error <= bound + 1e-9


def test_adaboost_stops_on_uninformative_data():
    # identical rows, balanced classes: best stump error is exactly 0.5
    X = np.ones((10, 2), dtype=int)
    y = np.array([0, 1] * 5)
    ens = fit_model(ADA, X, y, HP).model
    assert ens.trees == []
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
    grower = NewtonGrower(bm, (1,), max_depth=3, l2=1.0, rounds=1)
    grower.grow(g, h, out)
    ((tree, _),) = grower.trees()
    assert tree.feature.tolist() == [-1]
    assert tree.value[0] == pytest.approx(-2.0 / 3.0, abs=0)


def test_grower_grows_no_more_rounds_than_it_is_sized_for():
    grower = NewtonGrower(BinnedMatrix(np.array([[1], [2]])), (1,), max_depth=3, l2=1.0, rounds=1)
    g = h = np.ones((1, 2))
    grower.grow(g, h, np.empty((1, 2)))
    with pytest.raises(ValueError, match="sized for 1 rounds"):
        grower.grow(g, h, np.empty((1, 2)))


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


# per family, the sha256 of `TrainedModel.save`'s bytes for the roundtrip matrix fit (a 100-round GBT model),
# the smallest fit, and every model of a group fit over prefixes 1, 3 and 6 of the matrix plus a column 3 * y, which
# gives the k=6 AdaBoost model a perfect first stump, so it stops after one of its group's 50 rounds
SAVED_SHA256 = {
    DT: (
        "1ac10c741bab4ac1e5d996f24dd9727299e2c6e65c8c29c6deab64c2e57b4c8b",
        "ba29c25fd8b04d8e17f3ba3264af61a5bc821ecde3b6a6b3faed05f9eb2a8893",
        "c8eb68f4b04d5a210337922409501206f6b01a27f8659744d688c19a8a3711df",
    ),
    ADA: (
        "69c749e9b89f9ff93964e2e8e8b31f02fa19b84d568dbf52a116e90a740a671f",
        "cba68c900608c709e323461712c38e3a7c8c34bcef4d4944c380f3108953f811",
        "44c739bfc1e2dbf8d80b57273f22ffb01b88f49a8cba67c8cf29b74e4f49b56a",
    ),
    GBT: (
        "6b9b6894fa3300dcccb50c15ef6365dd9027a2938b69af1e8cffd4e32b2ffb50",
        "3be6c3688ace4f7154ac98de2490d8e770a887e3b523c14356f83e8c5f5bf931",
        "60e937cfa0471ebc26f654c767396b764c3f17bff86a6f921bb62151ab046b82",
    ),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_saved_bytes_are_pinned(family, tmp_path):
    rng = np.random.default_rng(43)
    X = rng.integers(0, 5, size=(60, 5))
    y = rng.integers(0, 2, size=60)
    names = tuple(f"f{j}" for j in range(6))
    group, _ = fit_group(family, BinnedMatrix(np.column_stack((X, 3 * y))), y, HP, (1, 3, 6), names)
    fits = (fit_model(family, X, y, HP), fit_model(family, *SMALLEST_FITS[family]), *group)
    digests = []
    for model in fits:
        model.save(tmp_path / "model.json")
        digests.append(hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest())
    kept = {DT: [1] * 4, ADA: [50, 50, 50, 1], GBT: [100] * 4}[family]
    assert [len(model.model.weights) for model in (fits[0], *group)] == kept
    assert (*digests[:2], hashlib.sha256("".join(digests[2:]).encode()).hexdigest()) == SAVED_SHA256[family]


def _edited(params, name, index, value):
    edited = json.loads(json.dumps(params))
    edited[name][index] = value
    return edited


# name -> edit of the tree of a saved one-column decision tree [split, leaf, leaf]
BAD_TREE_EDITS = {
    "backward_child": lambda t: _edited(t, "left", 0, 0),
    "child_past_the_end": lambda t: _edited(t, "right", 0, 3),
    "feature_out_of_range": lambda t: _edited(t, "feature", 0, 5),
    "negative_feature": lambda t: _edited(t, "feature", 0, -2),
    "leaf_with_child": lambda t: _edited(t, "left", 1, 2),
    "ragged_arrays": lambda t: {**t, "threshold": t["threshold"][:2]},
    "missing_array": lambda t: {name: v for name, v in t.items() if name != "n"},
    "unknown_array": lambda t: {**t, "depth": [0, 1, 1]},
    # the class share p is derived from n1 and n, and no longer saved
    "with_p": lambda t: {**t, "p": [0.5, 1.0, 1.0]},
    "without_n1": lambda t: {name: v for name, v in t.items() if name != "n1"},
    "non_numeric": lambda t: _edited(t, "left", 0, "one"),
    "not_an_object": lambda t: list(t.values()),
    # before these checks, each of the following loaded: a NaN threshold sent every row right, an infinite value
    # decided every score, a node of no rows dumped p=inf, a fractional child or a string feature was cast to an
    # integer and a bool to a number; a feature beyond int64 or a value beyond float raised an OverflowError
    "nan_threshold": lambda t: _edited(t, "threshold", 0, math.nan),
    "infinite_value": lambda t: _edited(t, "value", 1, math.inf),
    "nan_value": lambda t: _edited(t, "value", 2, math.nan),
    "node_without_rows": lambda t: _edited(t, "n", 1, 0),
    "negative_class_count": lambda t: _edited(t, "n1", 1, -1),
    "class_count_above_rows": lambda t: _edited(t, "n1", 2, t["n"][2] + 1),
    "feature_beyond_int64": lambda t: _edited(t, "feature", 0, 2**63),
    "value_beyond_float": lambda t: _edited(t, "value", 1, 10**400),
    "fractional_child": lambda t: _edited(t, "left", 0, 1.5),
    "string_feature": lambda t: _edited(t, "feature", 0, "0"),
    "bool_threshold": lambda t: _edited(t, "threshold", 0, True),
}


@pytest.mark.parametrize("edit", BAD_TREE_EDITS)
def test_load_rejects_malformed_trees(edit):
    X, y = _separable_1d()
    saved = fit_model(DT, X, y, Hyperparameters(tree_min_leaf=1)).to_dict()
    (tree,) = saved["params"]["trees"]
    assert tree["feature"] == [0, -1, -1]
    TrainedModel.from_dict(saved)
    # before these checks, a backward child made predict loop forever and a bad feature gave numpy's IndexError
    with pytest.raises(ValueError):
        TrainedModel.from_dict({**saved, "params": {**saved["params"], "trees": [BAD_TREE_EDITS[edit](tree)]}})


# name -> (family, edit of the saved params). Before these checks a NaN weight and a null init_score loaded
# silently, and a string value or a missing key failed only in numpy or as a KeyError.
BAD_ENSEMBLE_EDITS = {
    "extra_weight": (ADA, lambda p: {**p, "weights": p["weights"] + [1.0]}),
    "bool_init_score": (ADA, lambda p: {"init_score": True, "weights": [], "trees": []}),
    "nan_weight": (ADA, lambda p: {**p, "weights": [math.nan]}),
    "string_weight": (ADA, lambda p: {**p, "weights": ["1.0"]}),
    "missing_weights": (ADA, lambda p: {name: v for name, v in p.items() if name != "weights"}),
    "tree_with_bad_feature": (GBT, lambda p: {**p, "trees": [_edited(p["trees"][0], "feature", 0, 1)] + p["trees"][1:]}),
    "null_init_score": (GBT, lambda p: {**p, "init_score": None}),
    "infinite_init_score": (GBT, lambda p: {**p, "init_score": math.inf}),
    "string_weights": (GBT, lambda p: {**p, "weights": ["0.1"] * len(p["weights"])}),
    "missing_trees": (GBT, lambda p: {name: v for name, v in p.items() if name != "trees"}),
    "missing_weight": (GBT, lambda p: {**p, "weights": p["weights"][:-1]}),
    "nan_weight_in_gbt": (GBT, lambda p: {**p, "weights": [math.nan] + p["weights"][1:]}),
    "weight_beyond_float": (GBT, lambda p: {**p, "weights": [10**400] + p["weights"][1:]}),
    "init_score_beyond_float": (GBT, lambda p: {**p, "init_score": -(10**400)}),
    "weights_not_a_list": (GBT, lambda p: {**p, "weights": 0.1}),
    "unknown_key": (GBT, lambda p: {**p, "learning_rate": 0.1}),
    "nan_threshold_in_gbt": (GBT, lambda p: {**p, "trees": [_edited(p["trees"][0], "threshold", 0, math.nan)] + p["trees"][1:]}),
    "infinite_leaf_in_gbt": (GBT, lambda p: {**p, "trees": p["trees"][:1] + [_edited(p["trees"][1], "value", 1, math.inf)]}),
    # every tree of a model keeps n1, or none does, so the model's trees share one set of node columns
    "one_gbt_tree_with_n1": (GBT, lambda p: {**p, "trees": [{**p["trees"][0], "n1": [0] * len(p["trees"][0]["n"])}] + p["trees"][1:]}),
    "decision_tree_with_two_trees": (DT, lambda p: {**p, "weights": [1.0, 1.0], "trees": p["trees"] * 2}),
    "decision_tree_without_a_tree": (DT, lambda p: {**p, "weights": [], "trees": []}),
}


def test_load_rejects_malformed_ensembles():
    X, y = _separable_1d()
    hp = Hyperparameters(tree_min_leaf=1, gbt_rounds=2, gbt_depth=1)
    saved = {family: fit_model(family, X, y, hp).to_dict() for family in MODEL_FAMILIES}
    assert saved[ADA]["params"]["weights"] and len(saved[GBT]["params"]["trees"]) == 2
    for family, edit in BAD_ENSEMBLE_EDITS.values():
        TrainedModel.from_dict(saved[family])
        with pytest.raises(ValueError):
            TrainedModel.from_dict({**saved[family], "params": edit(saved[family]["params"])})


# name -> edit of a saved one-column decision tree. Before these checks a missing key was a KeyError and a
# non-object a TypeError, an unknown key was ignored, and a string or a list of numbers as feature_names loaded
# as ("x",) or (1,).
BAD_MODEL_EDITS = {
    "not_an_object": lambda m: list(m.items()),
    "missing_family": lambda m: {name: v for name, v in m.items() if name != "family"},
    "missing_feature_names": lambda m: {name: v for name, v in m.items() if name != "feature_names"},
    "missing_params": lambda m: {name: v for name, v in m.items() if name != "params"},
    "unknown_key": lambda m: {**m, "version": 1},
    "names_a_string": lambda m: {**m, "feature_names": "x"},
    "names_numbers": lambda m: {**m, "feature_names": [1]},
    "names_null": lambda m: {**m, "feature_names": None},
    "names_an_object": lambda m: {**m, "feature_names": {"x": 0}},
}


@pytest.mark.parametrize("edit", BAD_MODEL_EDITS)
def test_load_rejects_malformed_model_envelopes(edit):
    X, y = _separable_1d()
    saved = fit_model(DT, X, y, Hyperparameters(tree_min_leaf=1)).to_dict()
    assert TrainedModel.from_dict(saved).feature_names == ("f0",)
    with pytest.raises(ValueError):
        TrainedModel.from_dict(BAD_MODEL_EDITS[edit](saved))


def test_load_keeps_repeated_feature_names():
    X, y = _separable_1d()
    model = fit_model(DT, np.hstack([X, X]), y, Hyperparameters(tree_min_leaf=1), feature_names=("a", "a"))
    assert TrainedModel.from_dict(json.loads(json.dumps(model.to_dict()))).feature_names == ("a", "a")


def test_unbounded_tree_deeper_than_the_recursion_limit_saves_and_dumps(tmp_path):
    # every split peels off one row: a chain of 1,199 splits
    X = np.arange(1200).reshape(-1, 1)
    y = X[:, 0] % 2
    model = fit_model(DT, X, y, Hyperparameters(tree_max_depth=None, tree_min_leaf=1))
    (tree,) = model.model.trees
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
    # the upper bound is checked by construction only: no fit runs at a large round count
    for name in ("ada_rounds", "gbt_rounds"):
        for rounds in (-1, MAX_ROUNDS + 1, 10**20):
            with pytest.raises(ValueError, match=f"^{name} must lie in 0..{MAX_ROUNDS}, got {rounds}$"):
                Hyperparameters(**{name: rounds})
        assert getattr(Hyperparameters(**{name: MAX_ROUNDS}), name) == MAX_ROUNDS
    for l2 in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gbt_l2"):
            Hyperparameters(gbt_l2=l2)
    assert Hyperparameters(tree_max_depth=None).tree_max_depth is None
