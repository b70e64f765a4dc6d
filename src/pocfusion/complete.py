"""The fusion engine: fill missing aspect slots from linked CVE entries and
from related PoC reports, recording one audit entry per value.

Completion never touches existing values. CVE data appends missing versions
and platforms; PoC donation fills empty slots only, and only ever copies a
donor's own Original values, so completed values never propagate onward.
"""

from __future__ import annotations

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
    check_unit_number,
    decode_provenance,
    read_jsonl,
    write_jsonl,
)
from .link import (
    PocLink,
    ThresholdConfig,
    below_threshold,
    software_names,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CompletionConfig:
    code_threshold: float = 0.5
    text_threshold: float = 0.65

    def __post_init__(self) -> None:
        check_unit_number("code_threshold", self.code_threshold)
        check_unit_number("text_threshold", self.text_threshold)


@dataclass(frozen=True, slots=True)
class CompletionRecord:
    target: str
    slot: str
    value: str
    origin: Provenance

    def __post_init__(self) -> None:
        for name in ("target", "value"):
            if type(getattr(self, name)) is not str:
                raise ValueError(f"completion {name} is not a string: {getattr(self, name)!r}")
        if not self.value.strip():
            raise ValueError("completion value is empty after trimming")
        if self.slot not in ASPECT_SLOTS:
            raise ValueError(f"unknown aspect slot: {self.slot!r}")
        if not isinstance(self.origin, (FromCve, FromPoc)):
            raise ValueError("completion origin must be FromCve or FromPoc")

    def encode(self) -> dict:
        return {
            "target": self.target,
            "slot": self.slot,
            "value": self.value,
            "origin": self.origin.encode(),
        }

    @classmethod
    def decode(cls, data: dict) -> "CompletionRecord":
        return cls(
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
    names = software_names(report)
    if not names:
        return True
    products = [p.name.strip().lower() for p in entry.products]
    return any(n in p or p in n for n in names for p in products)


def _fill(
    report: PocReport, origin: Provenance, /, **texts: Iterable[str]
) -> tuple[PocReport, list[CompletionRecord]]:
    """Add values to slots in one step, given as one keyword argument per
    slot: the report holding them, and one record per value it lacked, slot
    by slot in argument order."""
    before = report.aspects
    aspects = before.with_added(
        **{slot: aspect_values(values, origin) for slot, values in texts.items()}
    )
    if aspects is before:
        return report, []
    records = [
        CompletionRecord(report.id, slot, value.text, origin)
        for slot in texts
        for value in aspects.values(slot)[len(before.values(slot)):]
    ]
    return replace(report, aspects=aspects), records


@dataclass
class CompletionResult:
    corpus: Corpus
    records: list[CompletionRecord]
    skipped_links: int = 0
    failed_associations: list[tuple[str, str]] = field(default_factory=list)


def run_completion(
    corpus: Corpus,
    cve_db: dict[str, CveEntry],
    links: Sequence[PocLink],
    config: ThresholdConfig = CompletionConfig(),
) -> CompletionResult:
    """Two completion passes over the whole corpus.

    Pass 1 appends to each report the versions, then the platforms, it lacks
    from every CVE entry it carries that passes :func:`verify_association`;
    the Basic-category slots are never touched by CVE data. Pass 2 skips
    links under their threshold and walks the rest by descending similarity
    (ties by pair key), letting each endpoint fill the other's empty slots;
    donors expose their pre-run Original values only, targets accumulate
    live, so the best donor fills each gap and nothing chains.
    """
    snapshot = {report.id: report for report in corpus}
    current: dict[str, PocReport] = dict(snapshot)
    records: list[CompletionRecord] = []
    failed: list[tuple[str, str]] = []

    for report in corpus:
        updated = report
        for cve_id in report.cve_ids:
            entry = cve_db.get(cve_id)
            if entry is None:
                continue
            if not verify_association(report, entry):
                logger.warning(
                    "report %s names different software than %s, skipping entry",
                    report.id, cve_id,
                )
                failed.append((report.id, cve_id))
                continue
            updated, new_records = _fill(
                updated,
                FromCve(cve_id),
                software_version=entry.all_versions(),
                test_platform=entry.platforms,
            )
            records.extend(new_records)
        current[report.id] = updated

    skipped = 0
    ordered = sorted(links, key=lambda l: (-l.similarity, l.a, l.b))
    for link in ordered:
        if below_threshold(link, config):
            skipped += 1
            continue
        for target_id, donor_id in ((link.a, link.b), (link.b, link.a)):
            target, donor = current[target_id], snapshot[donor_id]
            donated = {}
            for slot in ASPECT_SLOTS:
                if not target.aspects.values(slot):
                    texts = [value.text for value in donor.aspects.original_values(slot)]
                    if texts:
                        donated[slot] = texts
            if donated:
                origin = FromPoc(donor_id, link.similarity, link.basis)
                current[target_id], new_records = _fill(target, origin, **donated)
                records.extend(new_records)

    enriched = Corpus(current[report.id] for report in corpus)
    return CompletionResult(enriched, records, skipped, failed)


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
                **{record.slot: [AspectValue(record.value, record.origin)]}
            ),
        )
    return Corpus(current[report.id] for report in corpus)


def save_completion_records(
    records: Iterable[CompletionRecord], path: str | Path
) -> None:
    write_jsonl(path, (r.encode() for r in records))


def load_completion_records(path: str | Path) -> list[CompletionRecord]:
    return read_jsonl(path, CompletionRecord.decode)
