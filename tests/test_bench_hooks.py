"""The traced benchmark run wraps package functions by name; every name must resolve."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_call_site_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.CALL_SITES
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.CALL_SITES if attr not in owner.__dict__]
    assert not missing, f"call sites the traced run cannot wrap: {missing}"
