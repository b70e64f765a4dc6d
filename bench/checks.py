"""Output checks and quality ratios for one finished pipeline workspace.

Imports ``pocfusion`` from the checkout under test, so callers put its
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from pocfusion import cli
from pocfusion.complete import CompletionConfig, load_completion_records, replay_completion
from pocfusion.corpus import ASPECT_SLOTS, CorpusError, load_corpus
from pocfusion.link import SharedCve, kind_threshold, load_links, pair_kind_of

from generate import VULN_SLOTS

# Every stage writes one manifest; a run that skipped one is incomplete.
MANIFESTS = tuple(f"{stage}.json" for stage in cli.STAGES)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(path.read_bytes())


def output_digests(ws: Path) -> dict[str, str]:
    """Digests of the two outputs every run of one seed must reproduce."""
    return {name: sha256_file(ws / name) for name in (cli.LINKS, cli.RECORDS)}


def check_workspace(ws: Path, code_threshold: float, text_threshold: float) -> list[str]:
    """Names of the output checks this workspace fails; empty when it passes.

    - ``manifest``: a stage manifest is missing, or an output hash it lists
      does not match the file;
    - ``replay``: replaying the completion records onto the extracted corpus
      does not give the completed corpus;
    - ``threshold``: a shared-CVE link scores below its kind threshold;
    - ``originals``: an original value of the extracted corpus is missing or
      altered in the completed corpus.
    """
    failures: list[str] = []
    for name in MANIFESTS:
        path = ws / cli.MANIFEST_DIR / name
        if not path.is_file():
            failures.append("manifest")
            break
        outputs = json.loads(path.read_text(encoding="utf-8"))["outputs"]
        if any(
            not (ws / out).is_file() or sha256_file(ws / out) != digest
            for out, digest in outputs.items()
        ):
            failures.append("manifest")
            break
    try:
        extracted = load_corpus(ws / cli.EXTRACTED)
        completed = load_corpus(ws / cli.COMPLETED)
    except (OSError, CorpusError):
        return failures + ["load"]
    try:
        replayed = replay_completion(extracted, load_completion_records(ws / cli.RECORDS))
    except (OSError, ValueError, KeyError):
        replayed = None
    if replayed != completed:
        failures.append("replay")
    try:
        links = load_links(ws / cli.LINKS)
    except (OSError, ValueError, KeyError):
        return failures + ["threshold"]
    thresholds = CompletionConfig(code_threshold, text_threshold)
    if any(
        isinstance(link.basis, SharedCve) and link.similarity < kind_threshold(link.kind, thresholds)
        for link in links
    ):
        failures.append("threshold")
    if [r.id for r in extracted] != [r.id for r in completed] or any(
        after.aspects.values(slot)[: len(before.aspects.values(slot))]
        != before.aspects.values(slot)
        for before, after in zip(extracted, completed)
        for slot in ASPECT_SLOTS
    ):
        failures.append("originals")
    return failures


def _norm(text: str) -> str:
    return text.strip().lower()


def quality(ws: Path, truth: dict) -> dict[str, float]:
    """Link precision and recall, fill accuracy and aspect coverage against
    the planted truth.

    A ratio with an empty base is 1.0: with no links none is wrong, and with
    no planted pair none is missed.
    """
    vuln_of = truth["reports"]
    extracted = load_corpus(ws / cli.EXTRACTED)
    completed = load_corpus(ws / cli.COMPLETED)
    links = load_links(ws / cli.LINKS)
    linked = {(link.a, link.b) for link in links}
    correct = sum(vuln_of[a] == vuln_of[b] for a, b in linked)

    groups: dict[int, list] = {}
    for report in extracted:
        groups.setdefault(vuln_of[report.id], []).append(report)
    planted = {
        tuple(sorted((a.id, b.id)))
        for group in groups.values()
        for i, a in enumerate(group)
        for b in group[i + 1 :]
        if pair_kind_of(a, b) is not None
    }

    true_values = {
        v["index"]: {slot: {_norm(t) for t in v["truth"][slot]} for slot in VULN_SLOTS}
        for v in truth["vulns"]
    }
    fills = [
        _norm(r.value) in true_values[vuln_of[r.target]][r.slot]
        for r in load_completion_records(ws / cli.RECORDS)
        if r.slot in VULN_SLOTS
    ]
    cells = sum(len(r.aspects.filled_slots()) for r in completed)
    return {
        "link_precision": correct / len(linked) if linked else 1.0,
        "link_recall": len(planted & linked) / len(planted) if planted else 1.0,
        "fill_accuracy": sum(fills) / len(fills) if fills else 1.0,
        "aspect_coverage": cells / (len(ASPECT_SLOTS) * len(completed)),
    }
