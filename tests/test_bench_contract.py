"""The benchmark under ``bench/`` times the pipeline by wrapping module
attributes it names as strings, and its output checks import pipeline names
directly. A rename there would only surface when the benchmark runs, so the
names are checked here."""

import ast
import dataclasses
import importlib
import sys
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
    # the categorize hook reads ContentKind.is_code: 12 of the 20 demo reports are code
    assert metrics["classify.code_share"][0] == 0.6
    assert all(metrics[f"cli.{stage}_s"][0] > 0 for stage in cli.STAGES)
    # the link stage trains no embedding model and embeds no text
    assert metrics["similarity.train_s"][0] == 0
    assert metrics["similarity.embed_calls"][0] == 0
    # the link stage scores each pair with the cosine criterion 1 tests
    assert metrics["similarity.cosine_calls"][0] > 0


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


def test_generated_benchmark_config_resolves(tmp_path, monkeypatch):
    """Every benchmark corpus carries a ``config.cfg`` written by
    ``bench/generate.py`` with keys the demo's config lacks (``seed``,
    ``jobs``); the benchmark runs ``run-all`` on it from the corpus
    directory, so it must resolve as a valid configuration."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    generate = importlib.import_module("generate")
    from pocfusion import cli

    workload = dataclasses.replace(generate.WORKLOADS["code-blocks"], n_vulns=8, block_vulns=4)
    generate.generate(workload, 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(
        ["run-all", "--config", "config.cfg", "--workspace", "ws"]
    )
    config = cli.resolve_config(args)
    assert config.jobs == 1
    assert config.cve == "inputs/cve_entries.jsonl"
    assert len(config.sources) == 4
