"""Dataset container, CSV round trips, fold plans, seed derivation."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoeffect
from isoeffect import (
    Dataset,
    FoldPlan,
    SchemaError,
    ValidationError,
    derive_seed,
    load_csv,
    make_folds,
    write_csv,
)
from isoeffect.core import load_features_csv


# ---------------------------------------------------------------------------
# Dataset validation
# ---------------------------------------------------------------------------


def test_dataset_basic_properties(tiny_dataset):
    assert tiny_dataset.n == 8
    assert tiny_dataset.d == 2
    assert tiny_dataset.n_treated() == 4
    assert tiny_dataset.feature_names == ("x_0", "x_1")
    assert tiny_dataset.a.dtype == np.int64


def test_dataset_arrays_are_readonly(tiny_dataset):
    for arr in (tiny_dataset.y, tiny_dataset.a, tiny_dataset.features):
        with pytest.raises(ValueError):
            arr[0] = 99


def test_dataset_rejects_nonbinary_treatment():
    with pytest.raises(ValidationError, match="row 3"):
        Dataset(y=np.zeros(3), a=np.array([0, 1, 2]), features=np.zeros((3, 1)))


def test_dataset_rejects_nonfinite_outcome():
    with pytest.raises(ValidationError, match="row 2"):
        Dataset(y=np.array([1.0, np.nan]), a=np.array([0, 1]), features=np.zeros((2, 1)))


def test_dataset_rejects_nonfinite_feature():
    feats = np.array([[1.0], [np.inf], [0.0]])
    with pytest.raises(ValidationError, match="row 2"):
        Dataset(y=np.zeros(3), a=np.array([0, 1, 0]), features=feats)


def test_dataset_rejects_length_mismatch():
    with pytest.raises(ValidationError, match="length mismatch"):
        Dataset(y=np.zeros(3), a=np.array([0, 1]), features=np.zeros((3, 1)))


def test_dataset_rejects_empty():
    with pytest.raises(ValidationError):
        Dataset(y=np.array([]), a=np.array([]), features=np.zeros((0, 1)))


def test_dataset_name_count_must_match():
    with pytest.raises(ValidationError):
        Dataset(y=np.zeros(2), a=np.array([0, 1]), features=np.zeros((2, 2)),
                feature_names=("only_one",))


def test_require_both_arms():
    ds = Dataset(y=np.zeros(3), a=np.array([1, 1, 1]), features=np.zeros((3, 1)))
    with pytest.raises(ValidationError, match="both treatment arms"):
        ds.require_both_arms()


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def _awkward_dataset() -> Dataset:
    # values with no short decimal form, to stress lossless formatting
    y = np.array([0.1, 1.0 / 3.0, -7.25e-17, 12345.678901234567, -0.0])
    a = np.array([0, 1, 0, 1, 1])
    feats = np.array(
        [
            [np.pi, 2.0 ** -30],
            [-1.0 / 7.0, 1e300],
            [0.0, -3.3333333333333335],
            [9.869604401089358, 5e-324],
            [1.2345678912345679, -2.0],
        ]
    )
    return Dataset(y=y, a=a, features=feats)


def test_csv_round_trip_is_bit_exact(tmp_path):
    ds = _awkward_dataset()
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(ds.y, back.y)
    assert np.array_equal(ds.a, back.a)
    assert np.array_equal(ds.features, back.features)
    assert back.feature_names == ds.feature_names

    # writing the reloaded dataset must reproduce the file byte for byte
    path2 = tmp_path / "data2.csv"
    write_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()
    # written through a temp file and a rename, yet with the mode open() gives
    plain = tmp_path / "plain.csv"
    plain.write_text("")
    assert path.stat().st_mode == plain.stat().st_mode


def test_csv_round_trip_with_texts(tmp_path):
    ds = Dataset(
        y=np.array([1.0, 2.0]),
        a=np.array([0, 1]),
        features=np.array([[1.0], [0.0]]),
        texts=('hello, "quoted" world', "plain\ttab"),
    )
    path = tmp_path / "t.csv"
    write_csv(ds, path)
    back = load_csv(path, schema={"text": "text"})
    assert back.texts == ds.texts
    assert np.array_equal(back.features, ds.features)


def test_load_csv_missing_column_is_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,b,x_0\n1,0,2\n")
    with pytest.raises(SchemaError, match="'a'"):
        load_csv(path)


def test_load_csv_explicit_feature_columns(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("y,a,foo,bar\n1.5,0,2,3\n2.5,1,4,5\n")
    ds = load_csv(path, schema={"feature_columns": ["bar"]})
    assert ds.feature_names == ("bar",)
    assert np.array_equal(ds.features, [[3.0], [5.0]])


def test_load_csv_cites_bad_rows(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("y,a,x_0\n1,0,2\n1,7,3\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_csv(path)

    path.write_text("y,a,x_0\n1,0,2\noops,1,3\n")
    with pytest.raises(ValidationError, match="row 2.*outcome"):
        load_csv(path)

    path.write_text("y,a,x_0\n1,0\n")
    with pytest.raises(ValidationError, match="row 1.*fields"):
        load_csv(path)


def test_load_csv_empty_and_headerless(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        load_csv(path)
    path.write_text("y,a,x_0\n")
    with pytest.raises(ValidationError, match="no data rows"):
        load_csv(path)


def test_load_features_csv_reads_feature_columns_only(tmp_path):
    path = tmp_path / "target.csv"
    path.write_text("x_0,note,x_1\n1.5,hi,2\n-3,,4e-2\n")
    assert np.array_equal(load_features_csv(path), [[1.5, 2.0], [-3.0, 0.04]])
    cols = load_features_csv(path, schema={"feature_columns": ["x_1", "x_0"]})
    assert np.array_equal(cols, [[2.0, 1.5], [0.04, -3.0]])


def test_load_features_csv_checks_rows_like_load_csv(tmp_path):
    path = tmp_path / "target.csv"
    path.write_text("x_0,x_1\n1,2\n1,nan\n")
    with pytest.raises(ValidationError, match="row 2: non-finite feature 'x_1'"):
        load_features_csv(path)
    path.write_text("x_0,x_1\n1,2,3\n")
    with pytest.raises(ValidationError, match="row 1: expected 2 fields"):
        load_features_csv(path)
    path.write_text("x_0,x_1\n1,two\n")
    with pytest.raises(ValidationError, match="row 1: cannot parse"):
        load_features_csv(path)
    with pytest.raises(SchemaError, match="'x_9'"):
        load_features_csv(path, schema={"feature_columns": ["x_9"]})
    path.write_text("z_0\n1\n")
    with pytest.raises(SchemaError, match="no feature columns"):
        load_features_csv(path)
    path.write_text("x_0\n")
    with pytest.raises(ValidationError, match="no data rows"):
        load_features_csv(path)
    path.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        load_features_csv(path)


def test_load_csv_requires_features_or_text(tmp_path):
    path = tmp_path / "nofeat.csv"
    path.write_text("y,a\n1,0\n")
    with pytest.raises(SchemaError, match="feature columns or a text column"):
        load_csv(path)


@pytest.mark.parametrize("schema, message", [
    ({"feature_columns": ["a", "x_0"]}, "column 'a' is used twice: as treatment and as feature"),
    ({"outcome": "x_0"}, "column 'x_0' is used twice: as outcome and as feature"),
    ({"feature_prefix": ""}, "column 'y' is used twice: as outcome and as feature"),
    ({"treatment": "y"}, "column 'y' is used twice: as outcome and as treatment"),
    ({"text": "x_note"}, "column 'x_note' is used twice: as text and as feature"),
    ({"feature_columns": ["x_0", "x_note", "x_0"]},
     "column 'x_0' is used twice: as feature and as feature"),
])
def test_load_csv_rejects_a_column_in_two_roles_before_reading_rows(tmp_path, schema, message):
    path = tmp_path / "roles.csv"
    # the second row is malformed, so only a check made before reading rows raises SchemaError
    path.write_text("y,a,x_0,x_note\n1,0,2,hi\noops\n")
    with pytest.raises(SchemaError, match=message):
        load_csv(path, schema=schema)


def test_load_features_csv_rejects_a_feature_named_twice(tmp_path):
    path = tmp_path / "target.csv"
    path.write_text("x_0,x_1\n1,2\n")
    with pytest.raises(SchemaError, match="column 'x_1' is used twice: as feature and as feature"):
        load_features_csv(path, schema={"feature_columns": ["x_1", "x_0", "x_1"]})


# ---------------------------------------------------------------------------
# fold plans
# ---------------------------------------------------------------------------


def test_make_folds_deterministic():
    a = np.array([0, 1] * 25)
    p1 = make_folds(50, 5, a=a, seed=3)
    p2 = make_folds(50, 5, a=a, seed=3)
    assert np.array_equal(p1.assignment, p2.assignment)
    p3 = make_folds(50, 5, a=a, seed=4)
    assert not np.array_equal(p1.assignment, p3.assignment)


def test_make_folds_stratifies_both_arms():
    rng = np.random.default_rng(0)
    a = (rng.random(103) < 0.3).astype(int)
    plan = make_folds(103, 5, a=a, seed=1)
    assert plan.stratified and not plan.downgraded
    for f in range(5):
        rows = plan.test_rows(f)
        n1 = int(a[rows].sum())
        # round-robin dealing keeps each arm's count within 1 across folds
        assert abs(n1 - a.sum() / 5) <= 1
        assert abs((len(rows) - n1) - (103 - a.sum()) / 5) <= 1


def test_make_folds_downgrades_tiny_arm():
    a = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    with pytest.warns(UserWarning, match="unstratified"):
        plan = make_folds(10, 3, a=a, seed=0)
    assert plan.downgraded and not plan.stratified


def test_make_folds_validation():
    with pytest.raises(ValueError, match="at least 2"):
        make_folds(10, 1)
    with pytest.raises(ValueError, match="cannot split"):
        make_folds(3, 4)
    with pytest.raises(ValidationError, match="both treatment arms"):
        make_folds(4, 2, a=np.array([1, 1, 1, 1]))


def test_fold_plan_rejects_bad_assignments():
    with pytest.raises(ValidationError, match="one entry per row"):
        FoldPlan(n=4, k=2, assignment=np.array([0, 1, 0]))
    with pytest.raises(ValidationError, match="in \\[0, k\\)"):
        FoldPlan(n=3, k=2, assignment=np.array([0, 1, 2]))
    with pytest.raises(ValidationError, match="non-empty"):
        FoldPlan(n=3, k=3, assignment=np.array([0, 0, 1]))


def test_train_test_rows_partition():
    plan = make_folds(23, 4, seed=9)
    for f in range(4):
        tr, te = plan.train_rows(f), plan.test_rows(f)
        assert len(np.intersect1d(tr, te)) == 0
        assert len(tr) + len(te) == 23


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(min_value=5, max_value=40),
    n0=st.integers(min_value=5, max_value=40),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fold_partition_property(n1, n0, k, seed):
    a = np.concatenate([np.ones(n1, dtype=int), np.zeros(n0, dtype=int)])
    plan = make_folds(n1 + n0, k, a=a, seed=seed)
    counts = np.bincount(plan.assignment, minlength=k)
    assert counts.sum() == n1 + n0 and (counts > 0).all()
    if plan.stratified:
        for arm in (0, 1):
            per_fold = np.bincount(plan.assignment[a == arm], minlength=k)
            assert per_fold.max() - per_fold.min() <= 1


# ---------------------------------------------------------------------------
# seed derivation and thread cap
# ---------------------------------------------------------------------------


def test_derive_seed_frozen_values():
    # sha256("0:a")[:4] big-endian etc., frozen so the stream can never
    # silently change between releases
    assert derive_seed(0, "a") == 2649998842
    assert derive_seed(0, "b") == 3760296701
    assert derive_seed(7, "a") == 2195314219
    assert derive_seed(12345, "features") == 1166152002


def test_derive_seed_range_and_stability():
    for seed in (0, 1, 2**31, 2**63 - 1):
        for label in ("folds", "outcome-f3", ""):
            v = derive_seed(seed, label)
            assert 0 <= v < 2**32
            assert v == derive_seed(seed, label)


def test_every_module_exports_resolve():
    modules = {info.name: importlib.import_module(f"isoeffect.{info.name}")
               for info in pkgutil.iter_modules(isoeffect.__path__)}
    for mod in (isoeffect, *modules.values()):
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names missing {missing}"
    # a public name one module imports from a sibling is part of that sibling's API
    for mod in modules.values():
        for name, value in vars(mod).items():
            owner = getattr(value, "__module__", "")
            if (name.startswith("_") or not (inspect.isfunction(value) or inspect.isclass(value))
                    or not owner.startswith("isoeffect.") or owner == mod.__name__):
                continue
            assert name in modules[owner.split(".")[1]].__all__, f"{mod.__name__} imports {owner}.{name}"
    namespace: dict = {}
    exec("from isoeffect import *", namespace)
    assert set(isoeffect.__all__) <= set(namespace)
