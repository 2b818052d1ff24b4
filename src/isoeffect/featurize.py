"""Lexicon-based featurization of raw texts into category indicator matrices.

A lexicon maps category names to term patterns. A pattern is either a literal
token or a prefix pattern ending in ``*`` (``exercis*`` matches ``exercise``
and ``exercising``). Tokenization splits on every character outside
``[0-9A-Za-z]`` and then lowercases each token; matching is exact on the
resulting tokens.

Featurization compiles the lexicon against the corpus vocabulary: each text
is tokenized once, each distinct token is tested once against each category,
and the category columns are counted from the token occurrences with
``np.bincount``. The cost is one matcher call per (distinct token, category)
rather than per (token occurrence, category).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ValidationError

__all__ = [
    "Lexicon",
    "InterventionSplit",
    "load_lexicon",
    "tokenize",
    "featurize_texts",
    "select_intervention",
    "restrict_dims",
    "mask_terms",
]

_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")
MASK_TOKEN = "[MASK]"


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens of ``text``."""
    return [m.group().lower() for m in _TOKEN_RE.finditer(text)]


def _validate_pattern(pattern: str, category: str) -> str:
    pat = pattern.lower()
    if not pat or pat == "*":
        raise ValidationError(f"category {category!r}: empty pattern")
    if "*" in pat[:-1]:
        raise ValidationError(
            f"category {category!r}: '*' is only allowed as a trailing wildcard in {pattern!r}"
        )
    return pat


class _Matcher:
    """Compiled form of one category: literal set plus prefix tuple."""

    __slots__ = ("literals", "prefixes")

    def __init__(self, patterns: Iterable[str]):
        literals, prefixes = set(), []
        for pat in patterns:
            if pat.endswith("*"):
                prefixes.append(pat[:-1])
            else:
                literals.add(pat)
        self.literals = literals
        self.prefixes = tuple(prefixes)

    def __call__(self, token: str) -> bool:
        if token in self.literals:
            return True
        return any(token.startswith(p) for p in self.prefixes)


@dataclass(frozen=True)
class Lexicon:
    """Ordered mapping from category name to lowercase term patterns."""

    categories: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        if not self.categories:
            raise ValidationError("lexicon must define at least one category")
        cleaned: dict[str, tuple[str, ...]] = {}
        for name, patterns in self.categories.items():
            patterns = tuple(_validate_pattern(p, name) for p in patterns)
            if not patterns:
                raise ValidationError(f"category {name!r} has no patterns")
            cleaned[name] = patterns
        object.__setattr__(self, "categories", cleaned)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.categories)

    def matchers(self) -> dict[str, _Matcher]:
        return {name: _Matcher(pats) for name, pats in self.categories.items()}


def load_lexicon(path) -> Lexicon:
    """Read a ``{category: [pattern, ...]}`` JSON file.

    Duplicate category keys are a validation error (plain ``json.load``
    would silently keep the last one).
    """

    def check_dupes(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"duplicate lexicon category {key!r}")
            seen.add(key)
        return dict(pairs)

    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=check_dupes)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict) or not all(isinstance(v, list) for v in raw.values()):
        raise ValidationError(f"{path}: lexicon must map categories to pattern lists")
    return Lexicon(categories={str(k): tuple(map(str, v)) for k, v in raw.items()})


def featurize_texts(
    texts: Sequence[str], lexicon: Lexicon, mode: str = "binary"
) -> np.ndarray:
    """Category matrix of shape (n_texts, n_categories), column order = lexicon order.

    ``binary`` marks presence of any matching token; ``count`` counts matching
    tokens. Unknown tokens and the ``[MASK]`` placeholder that
    :func:`mask_terms` writes contribute nothing.
    """
    if mode not in ("binary", "count"):
        raise ValueError(f"mode must be 'binary' or 'count', got {mode!r}")
    texts = list(texts)
    if not texts:
        raise ValueError("featurize_texts requires at least one text")
    vocab: dict[str, int] = {}  # raw token -> id; case folding happens per entry
    ids: list[int] = []
    lengths = np.empty(len(texts), dtype=np.int64)
    for i, text in enumerate(texts):
        tokens = _TOKEN_RE.findall(text.replace(MASK_TOKEN, " "))
        lengths[i] = len(tokens)
        ids.extend([vocab.setdefault(tok, len(vocab)) for tok in tokens])
    words = [tok.lower() for tok in vocab]
    matchers = list(lexicon.matchers().values())
    member = np.array([[match(w) for w in words] for match in matchers], dtype=np.float64)
    rows = np.repeat(np.arange(len(texts)), lengths)
    ids = np.asarray(ids, dtype=np.int64)
    out = np.empty((len(texts), len(matchers)), dtype=np.float64)
    for j in range(len(matchers)):
        out[:, j] = np.bincount(rows, weights=member[j, ids], minlength=len(texts))
    if mode == "binary":
        out = (out > 0).astype(np.float64)
    return out


@dataclass(frozen=True)
class InterventionSplit:
    """A category matrix split into a focal treatment column and the rest."""

    a: np.ndarray
    features: np.ndarray
    focal_name: str
    nonfocal_names: tuple[str, ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.a)
        feats = np.asarray(self.features, dtype=np.float64)
        if a.shape[0] != feats.shape[0]:
            raise ValidationError("focal column and features must align")
        if len(self.nonfocal_names) != feats.shape[1]:
            raise ValidationError("one name per non-focal column required")
        object.__setattr__(self, "a", a.astype(np.int64))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "nonfocal_names", tuple(self.nonfocal_names))


def select_intervention(
    matrix: np.ndarray, names: Sequence[str], focal: str
) -> InterventionSplit:
    """Carve the focal category out of a category matrix.

    The focal column becomes the binary treatment; remaining columns (in
    their original order) become the non-focal representation. The focal
    column must be binary with both values present, otherwise there is no
    contrast to estimate.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    names = list(names)
    if matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise ValueError("matrix/name mismatch")
    try:
        j = names.index(focal)
    except ValueError:
        raise ValidationError(
            f"focal {focal!r} is not a feature column: it is not in {names}"
        ) from None
    col = matrix[:, j]
    if not np.all(np.isin(col, (0.0, 1.0))):
        raise ValidationError(f"focal column {focal!r} must be binary 0/1")
    if col.min() == col.max():
        raise ValidationError(f"focal column {focal!r} has a single value; both arms required")
    rest = np.delete(np.arange(matrix.shape[1]), j)
    return InterventionSplit(
        a=col,
        features=matrix[:, rest],
        focal_name=focal,
        nonfocal_names=tuple(names[i] for i in rest),
    )


def restrict_dims(split: InterventionSplit, dims: int) -> InterventionSplit:
    """Keep the first ``dims`` non-focal columns (nested prefix order)."""
    total = split.features.shape[1]
    if dims < 1:
        raise ValueError(f"dims must be at least 1, got {dims}")
    if dims > total:
        raise ValueError(f"dims {dims} exceeds the {total} non-focal columns")
    return InterventionSplit(
        a=split.a,
        features=split.features[:, :dims],
        focal_name=split.focal_name,
        nonfocal_names=split.nonfocal_names[:dims],
    )


def mask_terms(texts: Sequence[str], patterns: Sequence[str]) -> list[str]:
    """Replace every token matching ``patterns`` with ``[MASK]``.

    Non-token characters (whitespace, punctuation) are preserved byte for
    byte; matching is case-insensitive on the token. Each distinct token is
    matched once per call.
    """
    match = _Matcher([_validate_pattern(p, "<mask>") for p in patterns])
    replacement: dict[str, str] = {}

    def replace(m: re.Match) -> str:
        tok = m.group()
        out = replacement.get(tok)
        if out is None:
            out = replacement[tok] = MASK_TOKEN if match(tok.lower()) else tok
        return out

    return [_TOKEN_RE.sub(replace, text) for text in texts]
