"""The benchmark under ``bench/`` times the pipeline by wrapping module
attributes it names as strings, and its output checks import pipeline names
directly. A rename there would only surface when the benchmark runs, so the
names are checked here."""

import ast
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


def _pocfusion_imports(source: str):
    """(module, name) for every ``from pocfusion... import name`` in
    ``source``, at any depth, and in string constants holding code (the
    benchmark times a child interpreter running such a string); ``name`` is
    None for ``import pocfusion...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pocfusion"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("pocfusion"):
                    yield alias.name, None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "pocfusion" in node.value and "import" in node.value:
                try:
                    yield from _pocfusion_imports(node.value)
                except SyntaxError:
                    pass


def test_bench_imports_resolve():
    """Every pipeline name the benchmark imports exists, including the
    imports inside functions and those of its own tests, which the tier-1
    run does not collect."""
    found, missing = [], []
    for path in sorted(BENCH.rglob("*.py")):
        for module_name, name in _pocfusion_imports(path.read_text(encoding="utf-8")):
            found.append((module_name, name))
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{path.name}: {module_name}")
                continue
            if name is not None and not hasattr(module, name):
                try:
                    importlib.import_module(f"{module_name}.{name}")
                except ImportError:
                    missing.append(f"{path.name}: {module_name}.{name}")
    assert missing == []
    # the walk reaches function-level imports and the test module's imports
    assert ("pocfusion.cli", "PipelineConfig") in found
    assert ("pocfusion.link", "ScoringModels") in found
