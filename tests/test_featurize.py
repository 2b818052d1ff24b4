"""Lexicon featurization, intervention carving, and masking."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoeffect import (
    Dataset,
    Lexicon,
    ValidationError,
    featurize_texts,
    load_lexicon,
    mask_terms,
    select_intervention,
)
from isoeffect.featurize import featurize_masked, tokenize
from reference_solvers import featurize_reference

LEX = Lexicon(
    {
        "fitness": ("run*", "gym", "exercise"),
        "diet": ("calorie*", "protein"),
        "sleep": ("sleep*",),
    }
)

CORPUS = [
    "Started RUNNING to the gym; counting calories.",
    "protein shake after exercise",
    "I sleep 8 hours. Sleeping well!",
    "nothing relevant here",
    "",
]


def test_tokenize_frozen():
    assert tokenize("Weight-loss, 10kg!!") == ["weight", "loss", "10kg"]
    assert tokenize("") == []
    assert tokenize("...") == []


def test_featurize_binary_frozen():
    out = featurize_texts(CORPUS, LEX, mode="binary")
    expected = np.array(
        [
            [1, 1, 0],  # running->run*, gym, calories->calorie*
            [1, 1, 0],  # exercise, protein
            [0, 0, 1],  # sleep, sleeping->sleep*
            [0, 0, 0],
            [0, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(out, expected)


def test_featurize_count_frozen():
    out = featurize_texts(CORPUS, LEX, mode="count")
    assert out[2, 2] == 2.0  # "sleep" and "sleeping"
    assert out[0, 0] == 2.0  # "running" and "gym"
    assert np.array_equal(out > 0, featurize_texts(CORPUS, LEX) > 0)


def test_featurize_column_order_is_lexicon_order():
    lex = Lexicon({"b_cat": ("beta",), "a_cat": ("alpha",)})
    out = featurize_texts(["alpha beta"], lex)
    assert lex.names == ("b_cat", "a_cat")
    assert np.array_equal(out, [[1.0, 1.0]])


def test_featurize_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        featurize_texts(CORPUS, LEX, mode="tfidf")
    with pytest.raises(ValueError, match="at least one text"):
        featurize_texts([], LEX)


def test_prefix_vs_literal_semantics():
    lex = Lexicon({"c": ("run", "walk*")})
    out = featurize_texts(["running", "run", "walked", "wal"], lex, mode="binary")
    # literal "run" does not match "running"; prefix "walk*" matches "walked"
    assert out[:, 0].tolist() == [0.0, 1.0, 1.0, 0.0]


def test_lexicon_pattern_validation():
    with pytest.raises(ValidationError, match="empty pattern"):
        Lexicon({"c": ("",)})
    with pytest.raises(ValidationError, match="empty pattern"):
        Lexicon({"c": ("*",)})
    with pytest.raises(ValidationError, match="trailing"):
        Lexicon({"c": ("ab*c",)})
    with pytest.raises(ValidationError, match="no patterns"):
        Lexicon({"c": ()})
    with pytest.raises(ValidationError, match="at least one category"):
        Lexicon({})


def test_lexicon_patterns_lowercased():
    lex = Lexicon({"c": ("GyM", "RUN*")})
    assert lex.categories["c"] == ("gym", "run*")


def test_load_lexicon_duplicate_category(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text('{"c": ["a"], "c": ["b"]}')
    with pytest.raises(ValidationError, match="duplicate"):
        load_lexicon(path)


def test_load_lexicon_malformed(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError, match="must map"):
        load_lexicon(path)
    path.write_text("{nope")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_lexicon(path)


def test_load_lexicon_round_trip(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({k: list(v) for k, v in LEX.categories.items()}))
    assert load_lexicon(path).categories == LEX.categories


# ---------------------------------------------------------------------------
# intervention carving
# ---------------------------------------------------------------------------


def _categories(matrix, names):
    n = len(matrix)
    return Dataset(y=np.arange(n, dtype=float), a=np.zeros(n), features=matrix,
                   feature_names=names, texts=[f"t{i}" for i in range(n)])


def test_select_intervention_frozen():
    matrix = np.array([[0.5, 1.0, 0.0], [1.5, 0.0, 1.0], [2.5, 1.0, 0.0]])
    focal = select_intervention(_categories(matrix, ["n1", "focal", "n2"]), "focal")
    assert focal.feature_names == ("n1", "n2")
    assert np.array_equal(focal.a, [1, 0, 1])
    assert np.array_equal(focal.features, [[0.5, 0.0], [1.5, 1.0], [2.5, 0.0]])
    assert np.array_equal(focal.y, [0.0, 1.0, 2.0])
    assert focal.texts == ("t0", "t1", "t2")


def test_select_intervention_errors():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    with pytest.raises(ValidationError, match="not in"):
        select_intervention(_categories(m, ["a", "b"]), "missing")
    with pytest.raises(ValidationError, match="must be binary"):
        select_intervention(_categories(m, ["a", "b"]), "b")
    with pytest.raises(ValidationError, match="single value"):
        select_intervention(_categories(np.ones((3, 2)), ["a", "b"]), "a")


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def test_mask_terms_frozen():
    out = mask_terms(["Run, run & RUNNING fast!"], ["run*"])
    assert out == ["[MASK], [MASK] & [MASK] fast!"]


def test_mask_preserves_nontoken_bytes():
    text = "a,b  c\t(d) -- e"
    out = mask_terms([text], ["b", "d"])
    assert out == ["a,[MASK]  c\t([MASK]) -- e"]


def test_mask_literal_does_not_touch_longer_tokens():
    assert mask_terms(["run running"], ["run"]) == ["[MASK] running"]


def test_mask_no_match_is_identity():
    texts = ["alpha beta", "", "¡unicode épatant!"]
    assert mask_terms(texts, ["zzz*"]) == texts


def test_mask_pattern_validation():
    with pytest.raises(ValidationError, match="trailing"):
        mask_terms(["x"], ["a*b"])


def test_featurize_ignores_mask_placeholder():
    # the placeholder tokenizes to "mask", which a "mask*" pattern would hit
    lex = Lexicon({"ppe": ("mask*",), "fit": ("run*",)})
    text = "I run daily"
    np.testing.assert_array_equal(featurize_texts([text], lex), [[0.0, 1.0]])
    masked = mask_terms([text], ["run*"])
    assert masked == ["I [MASK] daily"]
    np.testing.assert_array_equal(featurize_texts(masked, lex), [[0.0, 0.0]])
    np.testing.assert_array_equal(featurize_texts(masked, lex, mode="count"), [[0.0, 0.0]])
    # a real "mask" token still counts, also right next to a placeholder
    np.testing.assert_array_equal(
        featurize_texts(["masks[MASK]run"], lex, mode="count"), [[1.0, 1.0]]
    )


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=80))
def test_mask_everything_property(text):
    # masking with a catch-all prefix replaces every token and nothing else
    masked = mask_terms([text], ["a*", "b*", "c*", "d*", "e*", "f*", "g*", "h*",
                                 "i*", "j*", "k*", "l*", "m*", "n*", "o*", "p*",
                                 "q*", "r*", "s*", "t*", "u*", "v*", "w*", "x*",
                                 "y*", "z*", "0*", "1*", "2*", "3*", "4*", "5*",
                                 "6*", "7*", "8*", "9*"])[0]
    n_tokens = len(tokenize(text))
    assert masked.count("[MASK]") >= n_tokens  # >= because [MASK] itself is not re-scanned
    if n_tokens == 0:
        assert masked == text


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=60), min_size=1, max_size=5))
def test_featurize_binary_count_consistency(texts):
    lex = Lexicon({"c1": ("a*", "b"), "c2": ("zz*",)})
    binary = featurize_texts(texts, lex, mode="binary")
    count = featurize_texts(texts, lex, mode="count")
    assert set(np.unique(binary)) <= {0.0, 1.0}
    assert np.array_equal(binary, (count > 0).astype(float))


# ---------------------------------------------------------------------------
# compiled featurization versus the per-token reference
# ---------------------------------------------------------------------------

ORACLE_LEX = Lexicon(
    {
        "fitness": ("run*", "gym", "exercise"),
        "diet": ("calorie*", "protein", "k*"),
        "ppe": ("mask*",),
        "numbers": ("10*", "7"),
    }
)
_WORDS = ["run", "Running", "GYM", "exercise", "calories", "protein", "mask", "Masks",
          "kettle", "10kg", "7", "77", "walk", "[MASK]", "épatant", "\u212aettle", "naïve"]
_GLUE = [" ", "  ", ", ", "!", "-", "\t", "(", ")", "...", "", "\u00a0"]
_CORPORA = st.lists(
    st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_GLUE)), max_size=12)
    .map(lambda parts: "".join(w + g for w, g in parts))
    | st.text(max_size=40),
    min_size=1,
    max_size=6,
)
_PATTERNS = ["run*", "mask*", "k*", "protein", "10kg"]


@settings(max_examples=80, deadline=None)
@given(_CORPORA, st.sampled_from(_PATTERNS))
def test_featurize_matches_per_token_reference(texts, pattern):
    for corpus in (texts, mask_terms(texts, [pattern])):
        for mode in ("binary", "count"):
            out = featurize_texts(corpus, ORACLE_LEX, mode=mode)
            ref = featurize_reference(corpus, ORACLE_LEX, mode=mode)
            assert out.tobytes() == ref.tobytes()


@settings(max_examples=80, deadline=None)
@given(_CORPORA, st.lists(st.sampled_from(_PATTERNS), min_size=1, max_size=3))
def test_one_pass_masking_equals_masking_then_featurizing(texts, patterns):
    # one tokenization for every mask gives the bytes of masking the texts and
    # featurizing them again, mask by mask; the last mask holds every pattern
    masks = [[p] for p in patterns] + [patterns, []]
    for mode in ("binary", "count"):
        got = featurize_masked(texts, ORACLE_LEX, masks, mode=mode)
        assert len(got) == len(masks)
        for mask, out in zip(masks, got):
            masked = mask_terms(texts, mask)
            assert out.tobytes() == featurize_texts(masked, ORACLE_LEX, mode=mode).tobytes()
            assert out.tobytes() == featurize_reference(masked, ORACLE_LEX, mode=mode).tobytes()


def test_one_pass_masking_checks_every_pattern_first():
    with pytest.raises(ValidationError, match=r"mask pattern: '\*' is only allowed"):
        featurize_masked(["run"], ORACLE_LEX, [["run*"], ["run*x"]])
    with pytest.raises(ValidationError, match="mask pattern: empty pattern"):
        featurize_masked([], ORACLE_LEX, [["*"]])


def test_featurize_kelvin_sign_is_not_case_folded():
    # U+212A (Kelvin sign) lowercases to "k" but is not in [0-9A-Za-z], so
    # tokenization drops it before the ASCII token is lowercased
    lex = Lexicon({"kettle": ("kettle",), "ettle": ("ettle",)})
    text = "\u212aettle Kettle"
    assert tokenize(text) == ["ettle", "kettle"]
    out = featurize_texts([text, "\u212aettle"], lex, mode="count")
    np.testing.assert_array_equal(out, [[1.0, 1.0], [0.0, 1.0]])
    assert out.tobytes() == featurize_reference([text, "\u212aettle"], lex, "count").tobytes()
