"""Command-line frontend.

Subcommands:

- ``synth``     generate a benchmark dataset plus its ground-truth oracle
- ``estimate``  doubly robust effect estimate with a sensitivity summary
- ``sweep``     re-estimate across nested representation dimensions
- ``contour``   bias lower bounds over a (C_Y, C_D) grid, with calibration points
- ``calibrate`` (C_Y, C_D) per omitted feature or masked pattern

All artifacts are written atomically (temp file + rename) with fixed numeric
formatting (12 significant digits), so identical configs and seeds yield
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from .core import (
    Dataset,
    EstimandKind,
    SchemaError,
    ValidationError,
    _open_atomic,
    load_csv,
    load_features_csv,
    read_json_object,
    write_csv,
)
from .estimator import (
    NuisanceFits,
    crossfit_representations,
    estimate_dr,
    estimate_naive,
    weights_for,
)
from .estimator import estimate_effect  # bench/spans.py wraps it
from .featurize import _validate_pattern, featurize_masked, load_lexicon, select_intervention
from .featurize import featurize_texts, mask_terms  # bench/spans.py wraps them
from .nuisance import ClipPolicy, Family, ModelSpec
from .sensitivity import audit, calibrate_fits, check_contour_grid, contour_grid, ovb_bounds
from .sensitivity import calibrate_detail  # bench/spans.py wraps it
from .synth import generate, oracle_tau, spec_from_json_file

__all__ = ["build_parser", "main"]


# ---------------------------------------------------------------------------
# deterministic formatting and atomic writes
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return format(float(x), ".12g")


def _round12(obj):
    """Round floats to 12 significant digits for stable JSON artifacts."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_json(path: str, payload: dict) -> None:
    with _open_atomic(path) as fh:
        fh.write(json.dumps(_round12(payload), indent=2) + "\n")


def _write_rows(path: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with _open_atomic(path) as fh:
        fh.writelines(",".join(row) + "\n" for row in [header, *rows])


# ---------------------------------------------------------------------------
# shared option plumbing
# ---------------------------------------------------------------------------


# --model -> (outcome family, propensity family)
_MODELS = {
    "elastic": (Family.ELASTIC_LINEAR, Family.ELASTIC_LOGISTIC),
    "gbt": (Family.GBT_REG, Family.GBT_CLF),
}


def _load_schema(path: str | None) -> dict | None:
    if path is None:
        return None
    return read_json_object(path, SchemaError)


def _check_flags(command: str, opt: dict) -> None:
    """Fail before any data is read on a mistake that the flags alone show.

    Each run input is resolved here once: the reduction flags, ``--dims`` and
    ``--schema`` are parsed in place, and ``clip`` and ``specs`` are added.
    """
    directory = os.path.dirname(os.path.abspath(opt["out"]))
    if not os.path.isdir(directory):
        raise ValidationError(f"--out {opt['out']!r}: directory {directory!r} does not exist")
    if os.path.isdir(opt["out"]):
        raise ValidationError(f"--out {opt['out']!r} is a directory, not a file path")
    if opt["target_data"] and opt["estimand"] != EstimandKind.GENERAL:
        raise ValidationError("--target-data is only used with --estimand general")
    if opt["folds"] < 2:
        raise ValidationError(f"need at least 2 folds, got k={opt['folds']}")
    opt["clip"] = ClipPolicy(opt["clip_eps"])  # rejects an epsilon outside [0, 0.5)
    if opt["estimand"] == EstimandKind.GENERAL:
        if command == "sweep":
            raise ValidationError("sweep supports the iate and iatt estimands")
        if opt.get("omit_features") or opt.get("mask_patterns"):
            raise ValidationError("calibration supports the iate and iatt estimands")
        if not opt["target_data"]:
            raise ValidationError("--estimand general requires --target-data")
    if command in ("contour", "calibrate"):
        _parse_reductions(command, opt)
    if command == "sweep" and opt["dims"] is not None:
        opt["dims"] = _parse_dims(opt["dims"])
    if command == "contour":
        check_contour_grid(opt["cy_max"], opt["cd_max"], opt["steps"])
    opt["specs"] = tuple(ModelSpec(family) for family in _MODELS[opt["model"]])
    opt["schema"] = _load_schema(opt["schema"])


def _parse_reductions(command: str, opt: dict) -> None:
    """Parse the reduction flags in place, rejecting every mistake that needs no data.

    ``omit_features`` becomes ``{label: columns}``, ``mask_patterns`` a list
    and ``lexicon`` a :class:`Lexicon`.
    """
    groups = [g.strip() for g in (opt["omit_features"] or "").split(",") if g.strip()]
    patterns = [p.strip() for p in (opt["mask_patterns"] or "").split(",") if p.strip()]
    labels = groups + patterns
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValidationError(f"duplicate reduction label {label!r}")
    masked: dict[str, str] = {}  # a pattern's lowercased form -> its label
    for pat in patterns:
        earlier = masked.setdefault(_validate_pattern(pat, "--mask-patterns"), pat)
        if earlier != pat:
            raise ValidationError(
                f"duplicate reduction {pat!r}: masks the same terms as {earlier!r}")
    members = {group: [g.strip() for g in group.split("+")] for group in groups}
    omitted: dict[frozenset, str] = {}  # a group's set of columns -> its label
    for group in groups:
        earlier = omitted.setdefault(frozenset(members[group]), group)
        if earlier != group:
            raise ValidationError(
                f"duplicate reduction {group!r}: omits the same columns as {earlier!r}")
    if command == "calibrate" and not labels:
        raise ValidationError("calibrate needs --omit-features and/or --mask-patterns")
    if patterns:
        if not opt["lexicon"]:
            raise ValidationError("--mask-patterns requires --lexicon to refeaturize")
        opt["lexicon"] = load_lexicon(opt["lexicon"])
    opt["omit_features"], opt["mask_patterns"] = members, patterns


def _parse_dims(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:  # no '..', or a bound that is not an integer
        raise ValueError(f"--dims expects 'a..b', got {text!r}") from None
    if lo_i < 1 or hi_i < lo_i:
        raise ValueError(f"--dims range {text!r} is empty or negative")
    return lo_i, hi_i


def _reductions(dataset: Dataset, opt: dict) -> list[tuple[str, Dataset]]:
    """Labeled reduced representations from the parsed --omit-features / --mask-patterns.

    Each is the data's ``y`` and ``a`` with the reduced feature matrix.
    """
    out: list[tuple[str, np.ndarray]] = []
    names = list(dataset.feature_names)
    for group, members in opt["omit_features"].items():
        missing = [m for m in members if m not in names]
        if missing:
            raise ValidationError(f"cannot omit unknown feature(s) {missing}")
        keep = [i for i, nm in enumerate(names) if nm not in members]
        if not keep and opt["model"] == "gbt":
            raise ValidationError(f"reduction {group!r} omits every feature column, "
                                  "and --model gbt needs at least one")
        out.append((group, dataset.features[:, keep]))
    patterns = opt["mask_patterns"]
    if patterns:
        if dataset.texts is None:
            raise ValidationError("--mask-patterns requires a text column in the data")
        masks = [[p] for p in patterns]
        out.extend(zip(patterns, featurize_masked(dataset.texts, opt["lexicon"], masks)))
    return [(label, Dataset(y=dataset.y, a=dataset.a, features=features))
            for label, features in out]


def _crossfit(opt: dict, datasets: Sequence[Dataset]) -> list[NuisanceFits]:
    """Every dataset cross-fitted in one batch, with the run's specs, folds, seed and clip.

    Under the general estimand each dataset is paired with the ``--target-data``
    corpus, read by its feature names.
    """
    if opt["model"] == "gbt" and any(ds.d == 0 for ds in datasets):  # before any fit
        raise ValidationError("the data has no feature column, and --model gbt needs at least one")
    targets = None
    if opt["estimand"] == EstimandKind.GENERAL:  # _check_flags made sure of --target-data
        targets = [load_features_csv(opt["target_data"], ds.feature_names) for ds in datasets]
    outcome_spec, propensity_spec = opt["specs"]
    return crossfit_representations(datasets, outcome_spec, propensity_spec, k=opt["folds"],
                                    seed=opt["seed"], clip=opt["clip"], target_features=targets)


def _audited(dataset: Dataset, fits: NuisanceFits, opt: dict):
    """The run estimand's DR estimate from ``dataset``'s cross-fitted nuisances, and its audit."""
    weights = weights_for(fits, dataset.a, opt["estimand"])
    est = estimate_dr(fits, weights, dataset)
    return est, audit(est, dataset, fits, weights)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(opt: dict) -> int:
    spec = spec_from_json_file(opt["spec"])
    if opt["seed"] is not None:
        spec = replace(spec, seed=opt["seed"])
    os.makedirs(opt["out"], exist_ok=True)
    dataset = generate(spec)
    oracle = oracle_tau(spec)
    write_csv(dataset, os.path.join(opt["out"], "data.csv"))
    _write_json(
        os.path.join(opt["out"], "oracle.json"),
        {
            "tau_iate": oracle.tau_iate,
            "tau_iatt": oracle.tau_iatt,
            "method": oracle.method,
            "mc_samples": oracle.mc_samples,
            "mc_se": oracle.mc_se,
        },
    )
    return 0


def _report_payload(dataset: Dataset, opt: dict, est, fits, report) -> dict:
    naive = estimate_naive(dataset)
    # only general-estimand fits carry corpus_clipped_frac
    keys = ("p_min", "p_max", "clipped_frac", "pi1", "corpus_clipped_frac")
    diag = {key: fits.diagnostics[key] for key in keys if key in fits.diagnostics}
    diag["m_target"] = est.diagnostics["m_target"]
    return {
        "estimand": est.estimand,
        "tau_hat": est.tau_hat,
        "se": est.standard_error,
        "ci95": [est.ci95[0], est.ci95[1]],
        "n": dataset.n,
        "k": opt["folds"],
        "seed": opt["seed"],
        "naive_tau": naive.tau_hat,
        "sigma2": report.sigma2,
        "nu2": report.nu2,
        "nu2_plugin": report.nu2_plugin,
        "nu2_negative": report.nu2_negative,
        "rv": report.rv,
        "diagnostics": diag,
    }


def _cmd_estimate(dataset: Dataset, opt: dict) -> int:
    fits, = _crossfit(opt, [dataset])
    est, report = _audited(dataset, fits, opt)
    _write_json(opt["out"], _report_payload(dataset, opt, est, fits, report))
    return 0


def _cmd_sweep(dataset: Dataset, opt: dict) -> int:
    dataset = select_intervention(dataset, opt["focal"])
    if dataset.d == 0:
        raise ValidationError(f"--focal {opt['focal']!r} leaves no non-focal feature column")
    lo, hi = opt["dims"] or (1, dataset.d)  # _check_flags parsed --dims
    if hi > dataset.d:
        raise ValueError(f"dims {hi} exceeds the {dataset.d} non-focal columns")

    subs = [replace(dataset, features=dataset.features[:, :dims],
                    feature_names=dataset.feature_names[:dims]) for dims in range(lo, hi + 1)]
    rows = []
    # every dimension cross-fitted in one batch (only iate and iatt get here)
    for dims, sub, fits in zip(range(lo, hi + 1), subs, _crossfit(opt, subs)):
        est, report = _audited(sub, fits, opt)
        rows.append([
            str(dims), _fmt(est.tau_hat), _fmt(est.ci95[0]), _fmt(est.ci95[1]),
            _fmt(report.sigma2), _fmt(report.nu2), _fmt(report.rv),
        ])
    _write_rows(opt["out"], ["dims", "tau_hat", "ci_lo", "ci_hi", "sigma2", "nu2", "rv"], rows)
    return 0


def _cmd_contour(dataset: Dataset, opt: dict) -> int:
    reductions = _reductions(dataset, opt)
    fits, = _crossfit(opt, [dataset])
    est, report = _audited(dataset, fits, opt)
    bound = (est.tau_hat, report.sigma2, report.nu2)
    # before any reduction is fitted: fails on nu2 <= 0
    grid = contour_grid(*bound, cy_max=opt["cy_max"], cd_max=opt["cd_max"], steps=opt["steps"])
    rows = []
    for i, cy in enumerate(grid.cy_axis):
        for j, cd in enumerate(grid.cd_axis):
            rows.append([_fmt(cy), _fmt(cd), _fmt(grid.lower_bound[i, j])])
    if reductions:
        reduced = _crossfit(opt, [ds for _, ds in reductions])
        for (label, _), cal in zip(reductions, calibrate_fits(fits, reduced, opt["estimand"])):
            lower = ovb_bounds(*bound, cal.params)[0]
            rows.append([_fmt(cal.params.c_y), _fmt(cal.params.c_d), _fmt(lower), label])
    _write_rows(opt["out"], ["cy", "cd", "lower_bound"], rows)
    return 0


def _cmd_calibrate(dataset: Dataset, opt: dict) -> int:
    reductions = _reductions(dataset, opt)
    # the data and every reduction, cross-fitted in one batch (only iate and iatt get here)
    fits, *reduced = _crossfit(opt, [dataset, *(ds for _, ds in reductions)])
    est, report = _audited(dataset, fits, opt)
    payload: dict = {
        "estimand": est.estimand,
        "tau_hat": est.tau_hat,
        "sigma2": report.sigma2,
        "nu2": report.nu2,
        "calibrations": {},
    }
    for (label, _), cal in zip(reductions, calibrate_fits(fits, reduced, opt["estimand"])):
        payload["calibrations"][label] = {
            "c_y": cal.params.c_y,
            "c_d": cal.params.c_d,
            "cd_clamped": cal.params.cd_clamped,
            "tau_hat_reduced": cal.reduced_estimate.tau_hat,
            "sigma2_reduced": cal.reduced_sigma2,
            "nu2_reduced": cal.reduced_nu2,
            "bound_halfwidth": cal.bound_halfwidth,
        }
    _write_json(opt["out"], payload)
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "contour": _cmd_contour,
    "calibrate": _cmd_calibrate,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema", help="schema JSON (outcome/treatment/feature columns)")
    p.add_argument("--model", choices=tuple(_MODELS), default="elastic")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clip-eps", dest="clip_eps", type=float, default=0.01)
    p.add_argument("--estimand", choices=EstimandKind.ALL, default=EstimandKind.IATE)
    p.add_argument("--target-data", dest="target_data",
                   help="target corpus CSV (general estimand)")


def _add_reductions(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omit-features", dest="omit_features",
                   help="comma-separated features (join groups with '+') to omit")
    p.add_argument("--mask-patterns", dest="mask_patterns",
                   help="comma-separated token patterns to mask")
    p.add_argument("--lexicon", help="lexicon JSON (needed with --mask-patterns)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoeffect",
        description="Isolated effects of binary text interventions: estimation and sensitivity audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark with its oracle")
    p.add_argument("--spec", required=True, help="SynthSpec JSON recipe")
    p.add_argument("--out", required=True, help="output directory (data.csv, oracle.json)")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")

    p = sub.add_parser("estimate", help="doubly robust estimate with sensitivity summary")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    _add_common(p)

    p = sub.add_parser("sweep", help="estimate across nested representation dimensions")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.add_argument("--focal", required=True, help="feature column used as the intervention")
    p.add_argument("--dims", default=None, help="inclusive range a..b of kept non-focal columns")
    _add_common(p)

    p = sub.add_parser("contour", help="bias lower bounds over a (C_Y, C_D) grid")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="contour CSV path")
    p.add_argument("--cy-max", dest="cy_max", type=float, default=1.0)
    p.add_argument("--cd-max", dest="cd_max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=21)
    _add_reductions(p)
    _add_common(p)

    p = sub.add_parser("calibrate", help="(C_Y, C_D) per omitted feature / masked pattern")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="calibration JSON path")
    _add_reductions(p)
    _add_common(p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    options = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        if args.command == "synth":  # its --out is a directory it creates
            return _cmd_synth(options)
        _check_flags(args.command, options)
        return _COMMANDS[args.command](load_csv(options["data"], options["schema"]), options)
    except (SchemaError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
