"""Deficiency and completion statistics with markdown/CSV rendering.

Deficiency counts only values the reports arrived with (Original
provenance), so enriching a corpus never changes its deficiency table.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

from .corpus import ASPECT_SLOTS, Corpus, FromCve, FromPoc
from .complete import CompletionRecord

ORIGIN_KINDS = ("from_cve", "from_poc")


@dataclass(frozen=True)
class DeficiencyTable:
    """Per (source, aspect) presence counts plus the overall mean rate."""

    sources: tuple[str, ...]
    present: dict[tuple[str, str], int]  # (source, slot) -> reports with the slot
    totals: dict[str, int]  # source -> report count
    empty: bool

    def presence_rate(self, source: str, slot: str) -> float:
        total = self.totals[source]
        return self.present[(source, slot)] / total if total else 0.0

    def overall_present(self, slot: str) -> int:
        return sum(self.present[(source, slot)] for source in self.sources)

    def overall_total(self) -> int:
        return sum(self.totals.values())

    def overall_rate(self, slot: str) -> float:
        total = self.overall_total()
        return self.overall_present(slot) / total if total else 0.0

    @property
    def mean_presence(self) -> float:
        return sum(self.overall_rate(slot) for slot in ASPECT_SLOTS) / len(ASPECT_SLOTS)


def deficiency_stats(corpus: Corpus) -> DeficiencyTable:
    """How often each aspect is present per source, counting Original values only."""
    sources: list[str] = []
    present: dict[tuple[str, str], int] = {}
    totals: dict[str, int] = {}
    for report in corpus:
        source = report.source.display()
        if source not in totals:
            sources.append(source)
            totals[source] = 0
            for slot in ASPECT_SLOTS:
                present[(source, slot)] = 0
        totals[source] += 1
        for slot in ASPECT_SLOTS:
            if report.aspects.original_values(slot):
                present[(source, slot)] += 1
    return DeficiencyTable(
        sources=tuple(sources),
        present=present,
        totals=totals,
        empty=len(corpus) == 0,
    )


@dataclass(frozen=True)
class CompletionTable:
    """Distinct-PoC and value counts per (source, slot, origin kind)."""

    sources: tuple[str, ...]
    pocs: dict[tuple[str, str, str], int]  # (source, slot, origin) -> distinct targets
    values: dict[tuple[str, str, str], int]  # (source, slot, origin) -> record count

    def row(self, source: str, slot: str, origin: str) -> tuple[int, int]:
        key = (source, slot, origin)
        return self.pocs.get(key, 0), self.values.get(key, 0)

    def overall(self, origin: str) -> tuple[int, int]:
        pocs = sum(v for k, v in self.pocs.items() if k[2] == origin)
        values = sum(v for k, v in self.values.items() if k[2] == origin)
        return pocs, values


def _origin_kind(record: CompletionRecord) -> str:
    return "from_cve" if isinstance(record.origin, FromCve) else "from_poc"


def completion_stats(
    records: Sequence[CompletionRecord], corpus: Corpus
) -> CompletionTable:
    """Aggregate audit records; every record must target a corpus report."""
    unknown = sorted({r.target for r in records if r.target not in corpus})
    if unknown:
        raise ValueError(f"completion records target unknown report ids: {unknown}")
    sources: list[str] = []
    for report in corpus:
        source = report.source.display()
        if source not in sources:
            sources.append(source)
    targets: dict[tuple[str, str, str], set[str]] = {}
    values: dict[tuple[str, str, str], int] = {}
    for record in records:
        source = corpus.get(record.target).source.display()
        key = (source, record.slot, _origin_kind(record))
        targets.setdefault(key, set()).add(record.target)
        values[key] = values.get(key, 0) + 1
    return CompletionTable(
        sources=tuple(sources),
        pocs={key: len(ids) for key, ids in targets.items()},
        values=values,
    )


# --- rendering -------------------------------------------------------------------


DEFICIENCY_COLUMNS = ("source", "aspect", "present", "total", "presence_rate")
COMPLETION_COLUMNS = (
    "source",
    "aspect",
    "origin",
    "pocs_completed",
    "aspects_completed",
)


def _rate(value: float) -> str:
    return f"{value:.4f}"


def _deficiency_rows(table: DeficiencyTable) -> list[tuple[str, ...]]:
    rows = []
    for source in table.sources:
        for slot in ASPECT_SLOTS:
            rows.append(
                (
                    source,
                    slot,
                    str(table.present[(source, slot)]),
                    str(table.totals[source]),
                    _rate(table.presence_rate(source, slot)),
                )
            )
    for slot in ASPECT_SLOTS:
        rows.append(
            (
                "(all)",
                slot,
                str(table.overall_present(slot)),
                str(table.overall_total()),
                _rate(table.overall_rate(slot)),
            )
        )
    rows.append(("(all)", "(mean)", "", "", _rate(table.mean_presence)))
    return rows


def _completion_rows(table: CompletionTable) -> list[tuple[str, ...]]:
    rows = []
    for source in table.sources:
        for slot in ASPECT_SLOTS:
            for origin in ORIGIN_KINDS:
                pocs, values = table.row(source, slot, origin)
                if pocs == 0 and values == 0:
                    continue
                rows.append((source, slot, origin, str(pocs), str(values)))
    for origin in ORIGIN_KINDS:
        pocs, values = table.overall(origin)
        rows.append(("(all)", "(all)", origin, str(pocs), str(values)))
    return rows


def _render_markdown(columns: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def _render_csv(columns: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def render_report(table: DeficiencyTable | CompletionTable, format: str) -> str:
    """Render a statistics table; formats are ``markdown`` and ``csv``."""
    if isinstance(table, DeficiencyTable):
        columns, rows = DEFICIENCY_COLUMNS, _deficiency_rows(table)
    elif isinstance(table, CompletionTable):
        columns, rows = COMPLETION_COLUMNS, _completion_rows(table)
    else:
        raise ValueError(f"cannot render object of type {type(table).__name__}")
    if format == "markdown":
        return _render_markdown(columns, rows)
    if format == "csv":
        return _render_csv(columns, rows)
    raise ValueError(f"unknown format: {format!r} (expected markdown or csv)")
