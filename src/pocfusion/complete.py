"""The fusion engine: fill missing aspect slots from linked CVE entries and
from related PoC reports, recording one audit entry per value.

Completion never touches existing values. CVE data appends missing versions
and platforms; PoC donation fills empty slots only, and only ever copies a
donor's own Original values, so completed values never propagate onward.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import (
    ASPECT_SLOTS,
    AspectValue,
    Corpus,
    CveEntry,
    FromCve,
    FromPoc,
    PocReport,
    Provenance,
    aspect_values,
    decode_provenance,
    read_jsonl,
    write_jsonl,
)
from .link import (
    PocLink,
    SharedCve,
    ThresholdConfig,
    kind_threshold,
    software_names,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CompletionConfig:
    code_threshold: float = 0.5
    text_threshold: float = 0.95

    def __post_init__(self) -> None:
        for name in ("code_threshold", "text_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")


@dataclass(frozen=True)
class CompletionRecord:
    run_id: str
    target: str
    slot: str
    value: str
    origin: Provenance

    def __post_init__(self) -> None:
        if isinstance(self.origin, (FromCve, FromPoc)):
            return
        raise ValueError("completion origin must be FromCve or FromPoc")

    def encode(self) -> dict:
        return {
            "run_id": self.run_id,
            "target": self.target,
            "slot": self.slot,
            "value": self.value,
            "origin": self.origin.encode(),
        }

    @classmethod
    def decode(cls, data: dict) -> "CompletionRecord":
        return cls(
            run_id=data["run_id"],
            target=data["target"],
            slot=data["slot"],
            value=data["value"],
            origin=decode_provenance(data["origin"]),
        )


def verify_association(report: PocReport, entry: CveEntry) -> bool:
    """Product-name sanity check before completing from a CVE entry.

    Vacuously true when the report names no software; otherwise some report
    software name and some entry product name must contain one another
    (case-insensitive, trimmed).
    """
    if entry.cve_id not in report.cve_ids:
        raise ValueError(f"report {report.id} does not carry {entry.cve_id}")
    names = [n.strip().lower() for n in software_names(report, original_only=True)]
    if not names:
        return True
    products = [p.name.strip().lower() for p in entry.products]
    return any(n in p or p in n for n in names for p in products)


def _append_missing(
    report: PocReport,
    slot: str,
    values: Sequence[str],
    origin: Provenance,
    run_id: str,
) -> tuple[PocReport, list[CompletionRecord]]:
    before = len(report.aspects.values(slot))
    aspects = report.aspects.with_added(slot, aspect_values(values, origin))
    added = aspects.values(slot)[before:]
    if not added:
        return report, []
    records = [CompletionRecord(run_id, report.id, slot, v.text, origin) for v in added]
    return replace(report, aspects=aspects), records


def complete_from_cve(
    report: PocReport, entry: CveEntry, run_id: str = ""
) -> tuple[PocReport, list[CompletionRecord]]:
    """Append the entry's versions and platforms that the report lacks.

    Applies whether the slot was empty (direct completion) or partial
    (append); the Basic-category slots are never touched by CVE data.
    """
    if not verify_association(report, entry):
        raise ValueError(
            f"association between {report.id} and {entry.cve_id} failed verification"
        )
    origin = FromCve(entry.cve_id)
    report, version_records = _append_missing(
        report, "software_version", entry.all_versions(), origin, run_id
    )
    report, platform_records = _append_missing(
        report, "test_platform", list(entry.platforms), origin, run_id
    )
    return report, version_records + platform_records


def _basis_string(link: PocLink) -> str:
    if isinstance(link.basis, SharedCve):
        return f"shared_cve:{link.basis.cve_id}"
    return "classifier"


def complete_from_poc(
    target: PocReport,
    donor: PocReport,
    link: PocLink,
    config: ThresholdConfig = CompletionConfig(),
    run_id: str = "",
) -> tuple[PocReport, list[CompletionRecord]]:
    """Fill the target's empty slots with the donor's Original
    values. Non-empty target slots stay untouched; donor values that were
    themselves completed never re-donate.
    """
    if {target.id, donor.id} != {link.a, link.b}:
        raise ValueError(
            f"link ({link.a}, {link.b}) does not connect {target.id} and {donor.id}"
        )
    if isinstance(link.basis, SharedCve) and link.similarity < kind_threshold(
        link.kind, config
    ):
        raise ValueError(
            f"link similarity {link.similarity} below the "
            f"{link.kind.encode()} threshold"
        )
    origin = FromPoc(donor.id, link.similarity, _basis_string(link))
    records: list[CompletionRecord] = []
    for slot in ASPECT_SLOTS:
        if target.aspects.values(slot):
            continue
        donated = donor.aspects.original_values(slot)
        if not donated:
            continue
        target, slot_records = _append_missing(
            target, slot, [v.text for v in donated], origin, run_id
        )
        records.extend(slot_records)
    return target, records


def _derive_run_id(
    corpus: Corpus, cve_db: dict[str, CveEntry], links: Sequence[PocLink],
    config: ThresholdConfig,
) -> str:
    digest = hashlib.sha256()
    for report in corpus:
        digest.update(json.dumps(report.encode(), ensure_ascii=False).encode("utf-8"))
    for cve_id in sorted(cve_db):
        digest.update(json.dumps(cve_db[cve_id].encode(), ensure_ascii=False).encode("utf-8"))
    for link in links:
        digest.update(json.dumps(link.encode(), ensure_ascii=False).encode("utf-8"))
    digest.update(
        json.dumps(
            {
                "code_threshold": config.code_threshold,
                "text_threshold": config.text_threshold,
            }
        ).encode("utf-8")
    )
    return "run-" + digest.hexdigest()[:16]


@dataclass
class CompletionResult:
    corpus: Corpus
    records: list[CompletionRecord]
    run_id: str
    skipped_links: int = 0
    failed_associations: list[tuple[str, str]] = field(default_factory=list)


def run_completion(
    corpus: Corpus,
    cve_db: dict[str, CveEntry],
    links: Sequence[PocLink],
    config: ThresholdConfig = CompletionConfig(),
) -> CompletionResult:
    """Two completion passes over the whole corpus.

    Pass 1 completes every report from every CVE entry it carries and passes
    verification for. Pass 2 walks links by descending similarity (ties by
    pair key) and lets each endpoint donate to the other; donors expose their
    pre-run Original values only, targets accumulate live, so the best donor
    fills each gap and nothing chains. The run id is a digest of the inputs,
    making reruns reproducible.
    """
    run_id = _derive_run_id(corpus, cve_db, links, config)
    snapshot = {report.id: report for report in corpus}
    current: dict[str, PocReport] = dict(snapshot)
    records: list[CompletionRecord] = []
    failed: list[tuple[str, str]] = []

    for report in corpus:
        updated = current[report.id]
        for cve_id in report.cve_ids:
            entry = cve_db.get(cve_id)
            if entry is None:
                continue
            if not verify_association(updated, entry):
                logger.warning(
                    "report %s names different software than %s, skipping entry",
                    report.id, cve_id,
                )
                failed.append((report.id, cve_id))
                continue
            updated, new_records = complete_from_cve(updated, entry, run_id)
            records.extend(new_records)
        current[report.id] = updated

    skipped = 0
    ordered = sorted(links, key=lambda l: (-l.similarity, l.a, l.b))
    for link in ordered:
        if isinstance(link.basis, SharedCve) and link.similarity < kind_threshold(
            link.kind, config
        ):
            skipped += 1
            continue
        for target_id, donor_id in ((link.a, link.b), (link.b, link.a)):
            updated, new_records = complete_from_poc(
                current[target_id], snapshot[donor_id], link, config, run_id
            )
            current[target_id] = updated
            records.extend(new_records)

    enriched = Corpus(current[report.id] for report in corpus)
    return CompletionResult(enriched, records, run_id, skipped, failed)


def replay_completion(corpus: Corpus, records: Iterable[CompletionRecord]) -> Corpus:
    """Reapply audit records onto the pre-run corpus, reproducing the
    post-run corpus exactly."""
    current = {report.id: report for report in corpus}
    for record in records:
        report = current.get(record.target)
        if report is None:
            raise KeyError(f"record targets unknown report id: {record.target}")
        current[record.target] = replace(
            report,
            aspects=report.aspects.with_added(
                record.slot, [AspectValue(record.value, record.origin)]
            ),
        )
    return Corpus(current[report.id] for report in corpus)


def save_completion_records(
    records: Iterable[CompletionRecord], path: str | Path
) -> None:
    write_jsonl(path, (r.encode() for r in records))


def load_completion_records(path: str | Path) -> list[CompletionRecord]:
    return read_jsonl(path, CompletionRecord.decode)
