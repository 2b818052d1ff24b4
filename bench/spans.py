"""Outside-in span recorder for the traced benchmark run.

Spans are recorded around calls into each ``isoeffect`` layer by replacing
the names at their call sites: modules bind imported functions at import
time, so ``isoeffect.nuisance.fit_enet_logistic`` (not the definition in
``elasticnet``) is what ``_fit_one`` looks up. Spans stay in memory and are
written out when the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field

import isoeffect.boosting as boosting
import isoeffect.cli as cli
import isoeffect.estimator as estimator
import isoeffect.nuisance as nuisance
import isoeffect.sensitivity as sensitivity


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    attrs: dict = field(default_factory=dict)  # counts or choices read from the result

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _linear_counts(fit):
    return {"sweeps": fit.n_sweeps, "nonconverged": int(not fit.converged)}


def _logistic_counts(fit):
    return {"passes": fit.n_passes, "nonconverged": int(not fit.converged)}


def _gbt_counts(model):
    return {"trees": model.diagnostics["n_trees_fit"]}


def _chosen(fitted):
    return {"chosen": dict(fitted.chosen)}


# (owner, attribute, span name, attributes read from the call's result)
CALL_SITES = (
    (cli, "load_csv", "core.load_csv", None),
    (cli, "featurize_texts", "featurize.featurize_texts", None),
    (cli, "mask_terms", "featurize.mask_terms", None),
    (cli, "estimate_effect", "estimator.estimate_effect", None),
    (cli, "estimate_naive", "estimator.estimate_naive", None),
    (cli, "audit", "sensitivity.audit", None),
    (cli, "calibrate_detail", "sensitivity.calibrate_detail", None),
    (estimator, "crossfit_nuisances", "estimator.crossfit_nuisances", None),
    (sensitivity, "crossfit_nuisances", "estimator.crossfit_nuisances", None),
    (estimator, "weights_for", "estimator.weights_for", None),
    (sensitivity, "weights_for", "estimator.weights_for", None),
    (estimator, "estimate_dr", "estimator.estimate_dr", None),
    (sensitivity, "estimate_dr", "estimator.estimate_dr", None),
    (estimator, "fit_outcome_model", "nuisance.fit_outcome_model", _chosen),
    (estimator, "fit_propensity_model", "nuisance.fit_propensity_model", _chosen),
    (nuisance, "fit_enet_linear", "elasticnet.fit_enet_linear", _linear_counts),
    (nuisance, "fit_enet_logistic", "elasticnet.fit_enet_logistic", _logistic_counts),
    (nuisance, "fit_gbt_core", "boosting.fit_gbt_core", _gbt_counts),
    (boosting.GBTModel, "raw", "boosting.GBTModel.raw", None),
)
SOLVERS = ("elasticnet.fit_enet_linear", "elasticnet.fit_enet_logistic", "boosting.fit_gbt_core")
NUISANCE_FITS = ("nuisance.fit_outcome_model", "nuisance.fit_propensity_model")


class Recorder:
    """Collects nested spans from wrapped call sites, one ``run_id`` per call."""

    def __init__(self, run_id: int) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = run_id

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, self.run_id)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call site in :data:`CALL_SITES`; restore them on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in CALL_SITES]
        try:
            for owner, attr, name, attrs in CALL_SITES:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], attrs))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def dump(self, fh) -> None:
        """Write the spans to an open text file, one JSON object per line."""
        for span in self.spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: list[Span], corpus_tokens: int) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation (a single ``run_id``)."""
    own = self_seconds(spans)

    def total(name, key=None):
        return sum((s.attrs.get(key, 0) if key else s.seconds) for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    # solvers are direct children of nuisance fits; the last one is the final fit
    last_solve = {s.parent: s.seconds for s in spans
                  if s.name in SOLVERS and spans[s.parent].name in NUISANCE_FITS}
    final_fit_s = sum(last_solve.values())
    nuisance_fits = sum(calls(n) for n in NUISANCE_FITS)
    solver_fits = sum(calls(n) for n in SOLVERS)
    nuisance_s = sum(total(n) for n in NUISANCE_FITS)
    main_s = total("cli.main")
    cli_self = sum(o for s, o in zip(spans, own) if s.name == "cli.main")
    lin, log, gbt = SOLVERS
    return {
        "core.load_csv_s": total("core.load_csv"),
        "core.load_csv_calls": calls("core.load_csv"),
        "featurize.featurize_texts_s": total("featurize.featurize_texts"),
        "featurize.featurize_texts_calls": calls("featurize.featurize_texts"),
        "featurize.tokens": corpus_tokens * calls("featurize.featurize_texts"),
        "featurize.mask_terms_s": total("featurize.mask_terms"),
        "elasticnet.linear_fits": calls(lin),
        "elasticnet.linear_sweeps": total(lin, "sweeps"),
        "elasticnet.linear_s": total(lin),
        "elasticnet.logistic_fits": calls(log),
        "elasticnet.logistic_passes": total(log, "passes"),
        "elasticnet.logistic_s": total(log),
        "elasticnet.nonconverged": total(lin, "nonconverged") + total(log, "nonconverged"),
        "boosting.fits": calls(gbt),
        "boosting.trees": total(gbt, "trees"),
        "boosting.fit_s": total(gbt),
        "boosting.predict_calls": calls("boosting.GBTModel.raw"),
        "boosting.predict_s": total("boosting.GBTModel.raw"),
        "nuisance.fits": nuisance_fits,
        "nuisance.fit_s": nuisance_s,
        "nuisance.inner_cv_s": nuisance_s - final_fit_s,
        "nuisance.final_fit_s": final_fit_s,
        "nuisance.kept_ratio": nuisance_fits / solver_fits if solver_fits else 0.0,
        "estimator.crossfits": calls("estimator.crossfit_nuisances"),
        "estimator.crossfit_s": total("estimator.crossfit_nuisances"),
        "estimator.crossfit_self_s": sum(
            o for s, o in zip(spans, own) if s.name == "estimator.crossfit_nuisances"),
        "estimator.weights_estimate_s": sum(
            total(n) for n in ("estimator.weights_for", "estimator.estimate_dr",
                               "estimator.estimate_naive")),
        "sensitivity.audit_s": total("sensitivity.audit"),
        "sensitivity.calibrations": calls("sensitivity.calibrate_detail"),
        "sensitivity.calibrate_s": total("sensitivity.calibrate_detail"),
        "cli.main_s": main_s,
        "cli.self_s": cli_self,
        "trace.covered_frac": 1.0 - cli_self / main_s,
    }


def chosen_hyperparameters(spans: list[Span]) -> list[dict]:
    """Per crossfit, per fold: the hyperparameters each nuisance fit chose."""
    out = []
    for i, s in enumerate(spans):
        if s.name != "estimator.crossfit_nuisances":
            continue
        fits = [t for t in spans if t.parent == i and t.name in NUISANCE_FITS]
        out.append([
            {"outcome": o.attrs.get("chosen"), "propensity": p.attrs.get("chosen")}
            for o, p in zip(fits[0::2], fits[1::2])
        ])
    return out
