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


def test_traced_demo_run_reaches_every_hook(tmp_path, monkeypatch):
    """The tracing hooks read the call shapes of the wrapped functions (for
    example ``write_manifest``'s positional inputs and outputs), so a traced
    run of the demo must still report the counters derived from them."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    from pocfusion import cli

    monkeypatch.chdir(BENCH.parent)
    args = cli.build_parser().parse_args(
        ["run-all", "--config", "demo/config.cfg", "--workspace", str(tmp_path / "ws")]
    )
    metrics = tracing.layer_metrics(tracing.traced_pipeline(cli.resolve_config(args), "demo"))
    assert metrics["cli.bytes_hashed"][0] > 0
    assert metrics["link.links"][0] == 7
    assert all(metrics[f"cli.{stage}_s"][0] > 0 for stage in cli.STAGES)
    # the link stage trains no embedding model and embeds no text
    assert metrics["similarity.train_s"][0] == 0
    assert metrics["similarity.embed_calls"][0] == 0
