"""The traced benchmark run wraps package functions by name; every name must resolve."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_call_site_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.CALL_SITES
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.CALL_SITES if attr not in owner.__dict__]
    assert not missing, f"call sites the traced run cannot wrap: {missing}"


def _tiny_calls():
    """One small call per traced function whose result the traced run reads."""
    from isoeffect.nuisance import Family, ModelSpec

    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 2))
    y = X[:, 0] + 0.3 * rng.standard_normal(40)
    a = (X[:, 1] + rng.standard_normal(40) > 0).astype(float)
    linear = ModelSpec(Family.ELASTIC_LINEAR, {"alpha": (0.01, 0.1), "l1_ratio": (0.5,)})
    logistic = ModelSpec(Family.ELASTIC_LOGISTIC, {"C": (0.1, 1.0), "l1_ratio": (0.5,)})
    return {
        "nuisance.fit_outcome_model": lambda fn: fn(X, y, linear),
        "nuisance.fit_propensity_model": lambda fn: fn(X, a, logistic),
        "elasticnet.fit_enet_linear": lambda fn: fn(X, y, alpha=0.1, l1_ratio=0.5),
        "elasticnet.fit_enet_logistic": lambda fn: fn(X, a, C=1.0, l1_ratio=0.5),
        "boosting.fit_gbt_core": lambda fn: fn(X, y, classification=False, depth=2,
                                               n_trees=3, learning_rate=0.1, seed=0),
    }


def test_traced_readers_accept_real_results(monkeypatch):
    # a renamed result field must fail here, not only inside a traced bench run
    spans = _load_spans(monkeypatch)
    calls = _tiny_calls()
    read = [(owner, attr, name, attrs) for owner, attr, name, attrs in spans.CALL_SITES if attrs]
    uncalled = [name for _, _, name, _ in read if name not in calls]
    assert read and not uncalled, f"traced readers with no test call: {uncalled}"
    for owner, attr, name, attrs in read:
        recorded = attrs(calls[name](owner.__dict__[attr]))
        assert recorded and json.loads(json.dumps(recorded)) == recorded, name
