"""Lexicon-based featurization of raw texts into category indicator matrices.

A lexicon maps category names to term patterns. A pattern is either a literal
token or a prefix pattern ending in ``*`` (``exercis*`` matches ``exercise``
and ``exercising``). Tokenization splits on every character outside
``[0-9A-Za-z]`` and then lowercases each token; matching is exact on the
resulting tokens.

Featurization compiles the lexicon against the corpus vocabulary: each text
is tokenized once, each distinct token is tested once against each category,
and the category columns are counted with ``np.bincount`` from the occurrences
of the tokens that match some category. The cost is one matcher call per
(distinct token, category) rather than per (token occurrence, category).
Masking reuses that work: :func:`featurize_masked` featurizes under several
masks from one tokenization, giving the tokens a mask matches zero weight.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Dataset, ValidationError, read_json_object

__all__ = [
    "Lexicon",
    "load_lexicon",
    "tokenize",
    "featurize_texts",
    "featurize_masked",
    "select_intervention",
    "mask_terms",
]

_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")
MASK_TOKEN = "[MASK]"


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens of ``text``."""
    return [m.group().lower() for m in _TOKEN_RE.finditer(text)]


def _validate_pattern(pattern: str, where: str) -> str:
    pat = pattern.lower()
    if not pat or pat == "*":
        raise ValidationError(f"{where}: empty pattern")
    if "*" in pat[:-1]:
        raise ValidationError(f"{where}: '*' is only allowed as a trailing wildcard in {pattern!r}")
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
            patterns = tuple(_validate_pattern(p, f"category {name!r}") for p in patterns)
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
    """Read a ``{category: [pattern, ...]}`` JSON file; a repeated category is an error."""
    raw = read_json_object(path, ValidationError)
    if not all(isinstance(v, list) for v in raw.values()):
        raise ValidationError(f"{path}: lexicon must map categories to pattern lists")
    return Lexicon(categories={str(k): tuple(map(str, v)) for k, v in raw.items()})


def featurize_texts(
    texts: Sequence[str], lexicon: Lexicon, mode: str = "binary"
) -> np.ndarray:
    """Category matrix of shape (n_texts, n_categories), column order = lexicon order.

    ``binary`` marks presence of any matching token; ``count`` counts matching
    tokens. Unknown tokens and the ``[MASK]`` placeholder that
    :func:`mask_terms` writes contribute nothing. This is
    :func:`featurize_masked` with one empty mask.
    """
    return featurize_masked(texts, lexicon, [()], mode)[0]


def featurize_masked(texts: Sequence[str], lexicon: Lexicon, masks: Sequence[Sequence[str]],
                     mode: str = "binary") -> list[np.ndarray]:
    """One category matrix per mask (a sequence of term patterns), from one tokenization.

    Matrix i equals ``featurize_texts(mask_terms(texts, masks[i]), lexicon,
    mode)`` byte for byte: the tokens mask i matches count with zero weight.
    Every pattern is checked before any text is read.
    """
    if mode not in ("binary", "count"):
        raise ValueError(f"mode must be 'binary' or 'count', got {mode!r}")
    hidden = [_Matcher([_validate_pattern(p, "mask pattern") for p in mask]) for mask in masks]
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
    # a token that matches no category adds 0 to every count; the 0/1 sums stay exact
    hit = member.any(axis=0)[ids]
    rows, ids = rows[hit], ids[hit]
    out = []
    for match in hidden:
        kept = member * np.array([not match(w) for w in words], dtype=np.float64)
        counts = np.stack([np.bincount(rows, weights=w[ids], minlength=len(texts)) for w in kept],
                          axis=1)
        out.append((counts > 0).astype(np.float64) if mode == "binary" else counts)
    return out


def select_intervention(dataset: Dataset, focal: str) -> Dataset:
    """``dataset`` with its focal feature column made the treatment.

    The remaining feature columns, in their original order, become the
    non-focal representation. The focal column must be binary with both
    values present, otherwise there is no contrast to estimate.
    """
    names = list(dataset.feature_names)
    try:
        j = names.index(focal)
    except ValueError:
        raise ValidationError(
            f"focal {focal!r} is not a feature column: it is not in {names}"
        ) from None
    col = dataset.features[:, j]
    if not np.all(np.isin(col, (0.0, 1.0))):
        raise ValidationError(f"focal column {focal!r} must be binary 0/1")
    if col.min() == col.max():
        raise ValidationError(f"focal column {focal!r} has a single value; both arms required")
    return Dataset(y=dataset.y, a=col, features=np.delete(dataset.features, j, axis=1),
                   feature_names=names[:j] + names[j + 1:], texts=dataset.texts)


def mask_terms(texts: Sequence[str], patterns: Sequence[str]) -> list[str]:
    """Replace every token matching ``patterns`` with ``[MASK]``.

    Non-token characters (whitespace, punctuation) are preserved byte for
    byte; matching is case-insensitive on the token. Each distinct token is
    matched once per call.
    """
    match = _Matcher([_validate_pattern(p, "mask pattern") for p in patterns])
    replacement: dict[str, str] = {}

    def replace(m: re.Match) -> str:
        tok = m.group()
        out = replacement.get(tok)
        if out is None:
            out = replacement[tok] = MASK_TOKEN if match(tok.lower()) else tok
        return out

    return [_TOKEN_RE.sub(replace, text) for text in texts]
