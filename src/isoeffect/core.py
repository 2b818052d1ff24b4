"""Data model, CSV ingestion, fold planning, and seed derivation.

Everything downstream (featurization, nuisance fitting, estimation) consumes
the :class:`Dataset` container defined here. Datasets are immutable: arrays
are copied on construction and marked read-only so that cross-fitting and
sensitivity re-runs can never mutate shared state.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "SchemaError",
    "ValidationError",
    "Dataset",
    "FoldPlan",
    "EstimandKind",
    "load_csv",
    "load_features_csv",
    "read_json_object",
    "write_csv",
    "make_folds",
    "derive_seed",
]


class SchemaError(Exception):
    """An input file does not match the expected column schema."""


class ValidationError(Exception):
    """Data values violate a documented invariant."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


def _require_finite(arr: np.ndarray, what: str) -> None:
    """Raise naming the first (1-based) row of ``arr`` that holds a non-finite value."""
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.flatnonzero(~finite.reshape(arr.shape[0], -1).all(axis=1))[0])
        raise ValidationError(f"non-finite {what} at row {bad + 1}")


@dataclass(frozen=True)
class Dataset:
    """Immutable (outcome, treatment, feature) triple with optional raw texts.

    Parameters
    ----------
    y : array of shape (n,)
        Real-valued outcomes. Must be finite.
    a : array of shape (n,)
        Binary treatment indicators, exactly 0 or 1.
    features : array of shape (n, d)
        Dense real feature matrix (the non-focal representation). ``d`` may
        be zero for text-only datasets that have not been featurized yet.
    feature_names : sequence of str, optional
        Column names, each used once; defaults to ``x_0 .. x_{d-1}``.
    texts : sequence of str, optional
        Raw documents aligned with the rows, if available.
    """

    y: np.ndarray
    a: np.ndarray
    features: np.ndarray
    feature_names: tuple[str, ...] = ()
    texts: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        a = np.asarray(self.a)
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim == 1:
            feats = feats.reshape(-1, 1)
        if feats.ndim != 2:
            raise ValidationError("features must be a 2-d matrix")
        n = y.shape[0]
        if n < 1:
            raise ValidationError("dataset must contain at least one row")
        if a.shape[0] != n or feats.shape[0] != n:
            raise ValidationError(
                f"length mismatch: y has {n} rows, a has {a.shape[0]}, "
                f"features has {feats.shape[0]}"
            )
        a_float = np.asarray(a, dtype=np.float64)
        if not np.all(np.isin(a_float, (0.0, 1.0))):
            bad = int(np.flatnonzero(~np.isin(a_float, (0.0, 1.0)))[0])
            raise ValidationError(f"treatment must be 0/1; offending row {bad + 1}")
        _require_finite(y, "outcome")
        _require_finite(feats, "feature value")
        names = tuple(self.feature_names) or tuple(f"x_{j}" for j in range(feats.shape[1]))
        if len(names) != feats.shape[1]:
            raise ValidationError(
                f"{len(names)} feature names for {feats.shape[1]} columns"
            )
        if len(set(names)) < len(names):
            name = next(name for j, name in enumerate(names) if name in names[:j])
            raise ValidationError(f"feature name {name!r} is used twice")
        texts = self.texts
        if texts is not None:
            texts = tuple(texts)
            if len(texts) != n:
                raise ValidationError("texts must align with rows")
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "a", _readonly(a_float.astype(np.int64)))
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "texts", texts)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def n_treated(self) -> int:
        return int(self.a.sum())

    def require_both_arms(self) -> None:
        """Raise unless both treatment arms are present (estimation entry points)."""
        n1 = self.n_treated()
        if n1 == 0 or n1 == self.n:
            raise ValidationError("estimation requires both treatment arms to be non-empty")


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic assignment of rows to k cross-fitting folds."""

    n: int
    k: int
    assignment: np.ndarray
    stratified: bool = True
    downgraded: bool = False

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.shape != (self.n,):
            raise ValidationError("fold assignment must have one entry per row")
        if assignment.min() < 0 or assignment.max() >= self.k:
            raise ValidationError("fold labels must lie in [0, k)")
        counts = np.bincount(assignment, minlength=self.k)
        if (counts == 0).any():
            raise ValidationError("every fold must be non-empty")
        object.__setattr__(self, "assignment", _readonly(assignment))

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)


class EstimandKind:
    """Names for the supported estimands."""

    IATE = "iate"
    IATT = "iatt"
    GENERAL = "general"

    ALL = (IATE, IATT, GENERAL)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_DEFAULT_SCHEMA: dict = {"outcome": "y", "treatment": "a", "feature_prefix": "x_"}
_SCHEMA_KEYS = (*_DEFAULT_SCHEMA, "feature_columns", "text")


def _column(header: list[str], name: str, what: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise SchemaError(f"{what} column {name!r} not found in header {header}") from None


def _one_role_each(header: list[str], roles: Sequence[tuple[int | None, str]]) -> None:
    """Raise if two ``(column index, role)`` pairs name the same column."""
    seen: dict[int, str] = {}
    for idx, role in roles:
        if idx in seen:
            raise SchemaError(f"column {header[idx]!r} is used twice: as {seen[idx]} and as {role}")
        if idx is not None:
            seen[idx] = role


def _resolve_columns(header: list[str], schema: Mapping) -> tuple[int, int, list[int], int | None]:
    y_idx = _column(header, schema["outcome"], "outcome")
    a_idx = _column(header, schema["treatment"], "treatment")
    text_idx = None
    if schema.get("text"):
        text_idx = _column(header, schema["text"], "text")
    if schema.get("feature_columns"):
        feat_idx = [_column(header, c, "feature") for c in schema["feature_columns"]]
    else:
        prefix = schema["feature_prefix"]
        feat_idx = [i for i, name in enumerate(header) if name.startswith(prefix)]
    if not feat_idx and text_idx is None:
        raise SchemaError("schema must yield feature columns or a text column")
    _one_role_each(header, [(y_idx, "outcome"), (a_idx, "treatment"), (text_idx, "text"),
                            *[(j, "feature") for j in feat_idx]])
    return y_idx, a_idx, feat_idx, text_idx


@contextlib.contextmanager
def _csv_rows(path: str | os.PathLike):
    """Yield ``(header, rows)``; ``rows`` gives ``(row_no, fields)`` checked for width."""
    with open(path, newline="", encoding="utf-8-sig") as fh:  # tolerates a BOM
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row") from None
        if len(set(header)) < len(header):
            name = next(name for i, name in enumerate(header) if name in header[:i])
            raise SchemaError(f"{path}: column {name!r} appears twice in the header")

        def rows():
            width = len(header)
            for row_no, row in enumerate(reader, start=1):
                if len(row) != width:
                    raise ValidationError(
                        f"row {row_no}: expected {width} fields, found {len(row)}"
                    )
                yield row_no, row

        yield header, rows()


def read_json_object(path: str | os.PathLike, error: type[Exception]) -> dict:
    """The JSON object in ``path`` (a BOM is tolerated), or ``error`` naming the file.

    A repeated key raises too, at any depth: plain ``json.load`` would keep
    its last value silently.
    """

    def unique(pairs):
        keys = [key for key, _ in pairs]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise error(f"{path}: duplicate key {key!r}")
        return dict(pairs)

    with open(path, encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise error(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def _number(row: list[str], row_no: int, idx: int, what: str) -> float:
    try:
        v = float(row[idx])
    except ValueError:
        raise ValidationError(f"row {row_no}: cannot parse {what} value {row[idx]!r}") from None
    if not math.isfinite(v):
        raise ValidationError(f"row {row_no}: non-finite {what} value")
    return v


def load_csv(path: str | os.PathLike, schema: Mapping | None = None) -> Dataset:
    """Load a UTF-8 CSV with header into a :class:`Dataset`.

    ``schema`` carries keys ``outcome``, ``treatment``, and either
    ``feature_prefix`` (default ``"x_"``) or an explicit ``feature_columns``
    list, plus an optional ``text`` column name. Any other key, or a value that
    is not a string (for ``feature_columns``, a list of strings), raises
    :class:`SchemaError` before the file is opened, and a header naming a
    column twice before a row is read. Row indices in error messages are
    1-based data rows (the header is row 0).
    """
    for key, value in (schema or {}).items():
        if key not in _SCHEMA_KEYS:
            raise SchemaError(f"unknown schema key {key!r}; expected one of {list(_SCHEMA_KEYS)}")
        names = value if key == "feature_columns" else [value]
        if not (isinstance(names, (list, tuple)) and all(isinstance(c, str) for c in names)):
            want = "a list of strings" if key == "feature_columns" else "a string"
            raise SchemaError(f"schema key {key!r} must be {want}, got {type(value).__name__} "
                              f"{value!r}")
    schema = {**_DEFAULT_SCHEMA, **(schema or {})}
    with _csv_rows(path) as (header, rows):
        y_idx, a_idx, feat_idx, text_idx = _resolve_columns(header, schema)
        feat_what = [f"feature {header[j]!r}" for j in feat_idx]
        ys: list[float] = []
        as_: list[float] = []
        feats: list[list[float]] = []
        texts: list[str] = []
        for row_no, row in rows:
            ys.append(_number(row, row_no, y_idx, "outcome"))
            a_val = _number(row, row_no, a_idx, "treatment")
            if a_val not in (0.0, 1.0):
                raise ValidationError(f"row {row_no}: treatment must be 0 or 1, got {row[a_idx]!r}")
            as_.append(a_val)
            feats.append([_number(row, row_no, j, w) for j, w in zip(feat_idx, feat_what)])
            if text_idx is not None:
                texts.append(row[text_idx])

    if not ys:
        raise ValidationError(f"{path}: no data rows")
    return Dataset(
        y=np.array(ys),
        a=np.array(as_),
        features=np.array(feats, dtype=np.float64).reshape(len(ys), len(feat_idx)),
        feature_names=tuple(header[j] for j in feat_idx),
        texts=tuple(texts) if text_idx is not None else None,
    )


def load_features_csv(path: str | os.PathLike, feature_names: Sequence[str]) -> np.ndarray:
    """Load the ``feature_names`` columns of a CSV in that order, such as a target corpus.

    A missing column raises :class:`SchemaError` naming it, other columns are
    ignored, and the header, rows and values are checked as in :func:`load_csv`.
    """
    with _csv_rows(path) as (header, rows):
        feat_idx = [_column(header, name, "feature") for name in feature_names]
        feat_what = [f"feature {name!r}" for name in feature_names]
        feats = [[_number(row, row_no, j, w) for j, w in zip(feat_idx, feat_what)]
                 for row_no, row in rows]
    if not feats:
        raise ValidationError(f"{path}: no data rows")
    return np.array(feats, dtype=np.float64)


@contextlib.contextmanager
def _open_atomic(path: str | os.PathLike):
    """Yield a text handle whose contents replace ``path`` once all are written.

    The handle writes a temp file beside ``path``; it is renamed over ``path``
    (``os.replace``) when the block ends and deleted if anything fails, so
    ``path`` holds either its old contents or all of the new ones. The file
    gets the mode ``open`` would give it, not ``mkstemp``'s owner-only one.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".isoeffect-", suffix=".tmp")
    try:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write ``y,a,<features...>`` with lossless float formatting, atomically.

    Floats are rendered with Python's shortest round-trip repr so that
    ``load_csv(write_csv(ds))`` reproduces the arrays bit-exactly.
    """
    with _open_atomic(path) as fh:
        writer = csv.writer(fh)
        header = ["y", "a", *dataset.feature_names]
        if dataset.texts is not None:
            header.append("text")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(dataset.y[i])), str(int(dataset.a[i]))]
            row.extend(repr(float(v)) for v in dataset.features[i])
            if dataset.texts is not None:
                row.append(dataset.texts[i])
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Fold planning
# ---------------------------------------------------------------------------


def make_folds(
    n: int,
    k: int,
    a: np.ndarray | None = None,
    seed: int = 0,
) -> FoldPlan:
    """Build a deterministic k-fold plan, stratified by treatment when possible.

    Stratification deals each arm round-robin over a seeded shuffle, which
    keeps every fold's treated fraction within +-(1/fold size) of the global
    fraction. If one arm has fewer than ``k`` rows the plan cannot
    stratify; it downgrades to a plain shuffled split and sets the
    ``downgraded`` flag (also emitting a warning). Passing ``a=None`` yields
    an unstratified plan, as for regression cross-validation or the target
    corpus of the general estimand.
    """
    if k < 2:
        raise ValueError(f"need at least 2 folds, got k={k}")
    if k > n:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=np.int64)
    stratified = False
    downgraded = False

    if a is not None:
        a = np.asarray(a)
        counts = [int((a == 0).sum()), int((a == 1).sum())]
        if min(counts) == 0:
            raise ValidationError("fold stratification requires both treatment arms")
        if min(counts) >= k:
            for arm in (0, 1):
                idx = rng.permutation(np.flatnonzero(a == arm))
                assignment[idx] = np.arange(idx.size) % k
            stratified = True
        else:
            downgraded = True
            warnings.warn(
                f"an arm has fewer than k={k} rows; falling back to an unstratified split",
                stacklevel=2,
            )

    if not stratified:
        idx = rng.permutation(n)
        assignment[idx] = np.arange(n) % k

    return FoldPlan(n=n, k=k, assignment=assignment, stratified=stratified,
                    downgraded=downgraded)


def derive_seed(seed: int, label: str) -> int:
    """Stable 32-bit child seed for a named module, derived from the run seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")

