"""Tests of the benchmark itself: generator, planted truth, output checks.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
from generate import VULN_SLOTS, WORKLOADS, generate
from pocfusion import cli
from pocfusion.classify import categorize
from pocfusion.corpus import SourceId, ingest_reports
from pocfusion.extract import extract_all
from pocfusion.link import HeuristicPairClassifier, ScoringModels, SharedCve, load_links


def tiny(name: str):
    """The named workload at a size that runs in about a second."""
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, n_vulns=min(workload.n_vulns, 8), block_vulns=min(workload.block_vulns, 4))


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    generate(tiny(name), 3, tmp_path / "a")
    generate(tiny(name), 3, tmp_path / "b")
    generate(tiny(name), 4, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_planted_truth_matches_inputs(tmp_path, name):
    workload = WORKLOADS[name]
    truth = generate(workload, 5, tmp_path)
    config = cli.parse_config_file(tmp_path / "config.cfg")
    vulns = {v["index"]: v for v in truth["vulns"]}
    seen = set()
    # the truth is beside the inputs, never in them
    assert (tmp_path / "truth.json").is_file()
    assert not list((tmp_path / "inputs").glob("truth*"))
    for key, path in config.items():
        if not key.startswith("source."):
            continue
        for line in (tmp_path / path).read_text(encoding="utf-8").splitlines():
            assert set(json.loads(line)) == {"id", "source", "content", "cve_ids"}
        for report in ingest_reports(tmp_path / path, SourceId.parse(key.split(".", 1)[1])):
            vuln = vulns[truth["reports"][report.id]]
            seen.add(report.id)
            assert report.cve_ids in ((), (vuln["cve_id"],))
            extracted = extract_all(categorize(report))
            assert extracted.content_kind.encode() == vuln["kind"]
            for slot in VULN_SLOTS:
                allowed = {t.strip().lower() for t in vuln["truth"][slot]}
                for value in extracted.aspects.texts(slot):
                    assert value.strip().lower() in allowed, (report.id, slot, value)
    assert seen == set(truth["reports"])
    expected = round(workload.n_vulns * workload.dup_share) * (workload.group_size - 1)
    assert len(seen) == workload.n_vulns + expected


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """One tiny finished ``run-all`` workspace per workload."""
    out = {}
    for name in sorted(WORKLOADS):
        work = tmp_path_factory.mktemp(name)
        truth = generate(tiny(name), 2, work)
        child = run.run_pipeline(work, "ws")
        out[name] = (work, truth, child)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(finished, name):
    work, truth, child = finished[name]
    reference: dict[str, str] = {}
    assert run.evaluate_child(child, work / "ws", reference) == []
    assert set(reference) == {cli.LINKS, cli.RECORDS}
    # a second look at the same outputs reproduces the reference digests
    assert run.evaluate_child(child, work / "ws", reference) == []
    assert child.cpu_s > 0 and child.peak_rss_mb > 0
    quality = checks.quality(work / "ws", truth)
    assert set(quality) == {"link_precision", "link_recall", "fill_accuracy", "aspect_coverage"}
    assert all(0.0 < value <= 1.0 for value in quality.values())


def test_truncated_records_fail_replay_and_the_run(finished, tmp_path):
    work, _truth, child = finished["code-blocks"]
    broken = tmp_path / "ws"
    broken.mkdir()
    for path in (work / "ws").rglob("*"):
        if path.is_file():
            target = broken / path.relative_to(work / "ws")
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    records = (broken / cli.RECORDS).read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(records) > 1
    # cut on a line boundary: the file still parses, it is just shorter
    (broken / cli.RECORDS).write_text("".join(records[: len(records) // 2]), encoding="utf-8")
    defaults = cli.PipelineConfig()
    assert "replay" in checks.check_workspace(broken, defaults.code_threshold, defaults.text_threshold)
    reference: dict[str, str] = {}
    assert "replay" in run.evaluate_child(child, broken, reference)
    # a failed workspace does not become the reference of later ones
    assert reference == {}


def test_changed_outputs_fail_the_digest_check(finished):
    work, _truth, child = finished["code-blocks"]
    reference = {name: "0" * 64 for name in (cli.LINKS, cli.RECORDS)}
    assert run.evaluate_child(child, work / "ws", reference) == ["determinism"]
    # each invocation starts from an empty reference, so outputs that differ
    # from those of another invocation (say, of another commit) still pass
    assert run.evaluate_child(child, work / "ws", {}) == []


def test_code_blocks_plants_pairs_near_the_cutoff(tmp_path, monkeypatch):
    # full size: the hard cases are planted per block and language
    truth = generate(WORKLOADS["code-blocks"], 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(["run-all", "--config", "config.cfg", "--workspace", "ws"])
    config = cli.resolve_config(args)
    for stage in cli.STAGES:
        cli.run_command(stage, config)
    quality = checks.quality(tmp_path / "ws", truth)
    # twins are linked in part, drifting duplicates are missed in part
    assert 0.5 < quality["link_precision"] < 0.95
    assert 0.7 < quality["link_recall"] < 0.95
    assert quality["fill_accuracy"] < 1.0
    confidences = [
        link.similarity
        for link in load_links(tmp_path / "ws" / cli.LINKS)
        if not isinstance(link.basis, SharedCve)
    ]
    # some accepted pairs clear the classifier's cutoff by less than 0.01
    assert min(confidences) < HeuristicPairClassifier(ScoringModels()).cutoff + 0.01


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    generate(tiny("code-blocks"), 2, tmp_path)
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(["run-all", "--config", "config.cfg", "--workspace", "ws"])
    tracer = tracing.traced_pipeline(cli.resolve_config(args), "test")
    metrics = tracing.layer_metrics(tracer)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in declared["per_layer"]} == set(metrics)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_value, unit) in metrics.items()
    }
    assert metrics["link.classifier_calls"][0] > 0
    assert all(s["end"] >= s["start"] and s["run"] == "test" for s in tracer.spans)
    # the wrappers are gone once the run ends
    assert cli.train_embeddings.__module__ == "pocfusion.similarity"
    assert not hasattr(cli.train_embeddings, "__wrapped__")


def test_end_to_end_metrics_match_the_declaration():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    for declared_workload in declared["workloads"]:
        assert declared_workload["why"] == WORKLOADS[declared_workload["name"]].why


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in run.HERE.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prose-cve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
