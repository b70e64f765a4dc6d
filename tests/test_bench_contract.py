"""The benchmark under ``bench/`` times the pipeline by wrapping module
attributes it names as strings, and its output checks import pipeline names
directly. A rename there would only surface when the benchmark runs, so the
names are checked here."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_wrapped_attributes_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    importlib.import_module("checks")
    tracing = importlib.import_module("tracing")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _span, _hook in tracing._WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
