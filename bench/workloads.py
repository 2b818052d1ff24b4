"""Seeded input generators and output checks for the benchmark workloads.

Each workload is one ``isoeffect`` CLI invocation. Its generator writes every
file the CLI reads (data CSV, schema JSON, lexicon JSON) plus ``truth.json``
with the exactly known effect; the CLI itself is given nothing but these
files. Generators use only the package's public API.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from statistics import NormalDist

import numpy as np

from isoeffect import Dataset, SynthSpec, generate, oracle_tau, write_csv
from isoeffect.featurize import Lexicon, featurize_texts, tokenize

# |tau_hat - truth| must stay within this many standard errors. The truth's
# own Monte Carlo error is added to se in quadrature (nonzero for GBT only).
TAU_TOL_SE = 4.0

_SCHEMA = {"outcome": "y", "treatment": "a", "feature_prefix": "x_"}


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_common(out: str, dataset: Dataset, schema: dict, truth: dict) -> None:
    write_csv(dataset, os.path.join(out, "data.csv"))
    _write_json(os.path.join(out, "schema.json"), schema)
    _write_json(os.path.join(out, "truth.json"), truth)


# ---------------------------------------------------------------------------
# estimate-gbt: acceptance criterion 9's nonlinear spec plus one count column
# ---------------------------------------------------------------------------

GBT_SPEC = SynthSpec(n=400, d=6, rho=0.6, beta_a=1.0, interaction=(2, 0.5),
                     outcome_form="nonlinear")
GBT_COUNT_MEAN = 3.0


def gen_estimate_gbt(out: str, seed: int) -> dict:
    spec = replace(GBT_SPEC, seed=seed)
    base = generate(spec)
    oracle = oracle_tau(spec)
    # independent of (a, y), so the oracle's tau_iatt stays the truth; being
    # non-binary, it sends split search down the general-column scan
    counts = np.random.default_rng(seed).poisson(GBT_COUNT_MEAN, size=spec.n)
    dataset = Dataset(
        y=base.y, a=base.a,
        features=np.column_stack([base.features, counts.astype(np.float64)]),
        feature_names=(*base.feature_names, f"x_{spec.d}"),
    )
    truth = {"tau": oracle.tau_iatt, "mc_se": oracle.mc_se, "estimand": "iatt"}
    _write_common(out, dataset, _SCHEMA, truth)
    return truth


# ---------------------------------------------------------------------------
# calibrate-text: generated corpus, lexicon featurization, mask calibration
# ---------------------------------------------------------------------------

# category -> (patterns, words that match them, outcome weight, propensity weight).
# No pattern may match the token "mask" that masking writes, and the focal
# marker stays out of the lexicon (the CSV carries the treatment column).
TEXT_CATEGORIES = {
    "food": (("cook*", "bread", "soup"), ("cook", "cooking", "cooked", "bread", "soup"), 0.8, 0.4),
    "sport": (("run*", "ball*", "swim"), ("run", "running", "ball", "ballgame", "swim"), -0.6, 0.3),
    "weather": (("rain*", "snow*", "sunny"), ("rain", "rainy", "snow", "snowing", "sunny"), 0.4, -0.3),
    "travel": (("train*", "fly*", "hotel"), ("train", "trains", "fly", "flying", "hotel"), -0.3, 0.2),
    "song": (("sing*", "guitar*", "piano"), ("sing", "singing", "guitar", "guitars", "piano"), 0.5, 0.0),
    "kin": (("sister*", "brother*", "parent"), ("sister", "sisters", "brother", "brothers", "parent"), -0.5, -0.4),
    "job": (("office*", "boss*", "deadline"), ("office", "offices", "boss", "bosses", "deadline"), 0.3, 0.5),
    "health": (("doctor*", "pill*", "fever"), ("doctor", "doctors", "pill", "pills", "fever"), -0.4, 0.0),
    "cash": (("bank*", "coin*", "price"), ("bank", "banking", "coin", "coins", "price"), 0.6, -0.2),
    "class": (("teach*", "exam*", "lesson"), ("teach", "teacher", "exam", "exams", "lesson"), 0.0, 0.3),
    "yard": (("flower*", "seed*", "weed"), ("flower", "flowers", "seed", "seeds", "weed"), 0.0, -0.3),
}
FILLER = (
    "the a and to of it was we they then very really today yesterday with "
    "some people about think just like after before there here could would "
    "good nice long short day week night morning evening new old big small "
    "went saw got made said told asked felt looked came left stayed"
).split()
FOCAL_MARKER = "urgent"
TEXT_N = 1200
TEXT_TOKENS = 120
TEXT_RHO = 0.3
TEXT_PRESENCE = 0.4
# masked pattern -> its category: one with a nonzero outcome weight, one without
MASK_PATTERNS = {"cook*": "food", "flower*": "yard"}


def gen_calibrate_text(out: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    names = tuple(TEXT_CATEGORIES)
    lexicon = Lexicon(categories={k: v[0] for k, v in TEXT_CATEGORIES.items()})
    _check_vocabulary(lexicon, names)
    n, c = TEXT_N, len(names)
    latent = (math.sqrt(TEXT_RHO) * rng.standard_normal((n, 1))
              + math.sqrt(1.0 - TEXT_RHO) * rng.standard_normal((n, c)))
    present = latent < NormalDist().inv_cdf(TEXT_PRESENCE)
    gamma = np.array([TEXT_CATEGORIES[k][3] for k in names])
    a = (rng.random(n) < 1.0 / (1.0 + np.exp(-(present @ gamma - 0.1)))).astype(np.int64)
    texts = []
    for i in range(n):
        toks = []
        for j in np.flatnonzero(present[i]):
            words = TEXT_CATEGORIES[names[j]][1]
            toks.extend(rng.choice(words, size=rng.integers(1, 4)))
        if a[i]:
            toks.append(FOCAL_MARKER)
        toks.extend(rng.choice(FILLER, size=TEXT_TOKENS - len(toks)))
        rng.shuffle(toks)
        texts.append(" ".join(toks))
    features = present.astype(np.float64)  # what featurize_texts gives, by the vocabulary check
    weights = np.array([TEXT_CATEGORIES[k][2] for k in names])
    y = 1.0 * a + features @ weights + 0.5 * rng.standard_normal(n)
    dataset = Dataset(y=y, a=a, features=features,
                      feature_names=tuple(f"x_{k}" for k in names), texts=tuple(texts))
    truth = {
        "tau": 1.0, "mc_se": 0.0, "estimand": "iate", "se_ref": _ols_se(y, a, features),
        "corpus_tokens": sum(len(tokenize(t)) for t in texts),
        "outcome_weight": {p: TEXT_CATEGORIES[c][2] for p, c in MASK_PATTERNS.items()},
    }
    _write_common(out, dataset, {**_SCHEMA, "text": "text"}, truth)
    _write_json(os.path.join(out, "lexicon.json"), {k: list(v[0]) for k, v in TEXT_CATEGORIES.items()})
    return truth


def _check_vocabulary(lexicon: Lexicon, names: tuple[str, ...]) -> None:
    """Every generated word must match its own category and nothing else.

    Featurization marks a category when any token of a text matches it, so a
    generated text's categories are then exactly those whose words it holds.
    """
    vocab = [(w, names.index(k)) for k in names for w in TEXT_CATEGORIES[k][1]]
    vocab += [(w, None) for w in [*FILLER, FOCAL_MARKER, "mask"]]
    found = featurize_texts([w for w, _ in vocab], lexicon, mode="binary")
    expected = np.zeros_like(found)
    for row, (_, j) in enumerate(vocab):
        if j is not None:
            expected[row, j] = 1.0
    if not np.array_equal(found, expected):
        raise RuntimeError("a generated word matches a lexicon category other than its own")


def _ols_se(y: np.ndarray, a: np.ndarray, features: np.ndarray) -> float:
    """Standard error of a's coefficient in the correctly specified OLS fit.

    ``calibrate`` reports no se, so its tau_hat tolerance is scaled by this.
    """
    X = np.column_stack([np.ones(len(y)), a, features])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    s2 = float(resid @ resid) / (len(y) - X.shape[1])
    return math.sqrt(s2 * np.linalg.inv(X.T @ X)[1, 1])


# ---------------------------------------------------------------------------
# registry: generator, the CLI argv (relative to the input directory) and the
# number of input sets one run times. How long an invocation takes depends on
# its data (solver passes to converge), so a run covers several datasets drawn
# from its seed; a slow or fast draw then moves wall_s less.
# ---------------------------------------------------------------------------

WORKLOADS = {
    "estimate-gbt": (
        gen_estimate_gbt,
        ["estimate", "--data", "data.csv", "--schema", "schema.json", "--model", "gbt",
         "--estimand", "iatt", "--folds", "2"],
        2,
    ),
    "calibrate-text": (
        gen_calibrate_text,
        ["calibrate", "--data", "data.csv", "--schema", "schema.json", "--folds", "2",
         "--mask-patterns", ",".join(MASK_PATTERNS), "--lexicon", "lexicon.json"],
        4,
    ),
}


def set_seed(seed: int, index: int) -> int:
    """Generator seed of input set ``index`` of a run seeded with ``seed``."""
    return seed * 1000 + index


def workload_argv(name: str, in_dir: str, out_path: str) -> list[str]:
    """CLI argv for ``name`` with input paths resolved under ``in_dir``."""
    argv = list(WORKLOADS[name][1])
    for flag in ("--data", "--schema", "--lexicon"):
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = os.path.join(in_dir, argv[i])
    return argv + ["--out", out_path]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_artifact(name: str, payload: dict, truth: dict) -> list[str]:
    """Problems with one parsed artifact; an empty list means it passed."""
    keys = ["tau_hat", "sigma2", "nu2"]
    keys.append("se" if name.startswith("estimate") else "calibrations")
    missing = [k for k in keys if k not in payload]
    if missing:
        return [f"missing keys {missing}"]
    numbers = {k: payload[k] for k in keys if k != "calibrations"}
    for pattern, cal in payload.get("calibrations", {}).items():
        numbers.update({f"{pattern}.c_y": cal.get("c_y"), f"{pattern}.c_d": cal.get("c_d")})
    problems = [f"{k} is not a finite number: {v!r}" for k, v in numbers.items()
                if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if problems:
        return problems
    se = payload.get("se", truth.get("se_ref"))
    tol = TAU_TOL_SE * math.hypot(se, truth["mc_se"])
    if abs(payload["tau_hat"] - truth["tau"]) > tol:
        problems.append(f"tau_hat {payload['tau_hat']} is more than {TAU_TOL_SE} se "
                        f"from the truth {truth['tau']}")
    for pattern, weight in truth.get("outcome_weight", {}).items():
        cal = payload["calibrations"].get(pattern)
        if cal is None:
            problems.append(f"calibration for {pattern!r} is missing")
        elif cal["c_y"] < 0:
            problems.append(f"{pattern}: c_y {cal['c_y']} < 0")
        elif weight != 0 and cal["c_y"] <= 0:
            problems.append(f"{pattern}: c_y is 0 though its category moves the outcome")
    return problems
