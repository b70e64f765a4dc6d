"""Deficiency and completion statistics with markdown/CSV rendering.

A statistics table is its column names and its rows of string cells, in
render order. Deficiency counts only values the reports arrived with
(Original provenance), so enriching a corpus never changes its deficiency
table.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from .corpus import ASPECT_SLOTS, ORIGIN_KINDS, Corpus
from .complete import CompletionRecord

Table = tuple[tuple[str, ...], list[tuple[str, ...]]]

DEFICIENCY_COLUMNS = ("source", "aspect", "present", "total", "presence_rate")
COMPLETION_COLUMNS = (
    "source",
    "aspect",
    "origin",
    "pocs_completed",
    "aspects_completed",
)


def _rate(present: int, total: int) -> float:
    return present / total if total else 0.0


def deficiency_stats(corpus: Corpus) -> Table:
    """How often each aspect is present per source, counting Original values
    only: one row per (source, aspect) in source encounter order, one overall
    row per aspect, then the mean of the overall rates."""
    present: dict[str, list[int]] = {}  # source -> reports with each slot
    totals: dict[str, int] = {}  # source -> report count
    for report in corpus:
        source = report.source
        counts = present.setdefault(source, [0] * len(ASPECT_SLOTS))
        totals[source] = totals.get(source, 0) + 1
        for index, slot in enumerate(ASPECT_SLOTS):
            if report.aspects.original_values(slot):
                counts[index] += 1
    rows = []
    for source, counts in present.items():
        total = totals[source]
        for slot, count in zip(ASPECT_SLOTS, counts):
            rows.append((source, slot, str(count), str(total), f"{_rate(count, total):.4f}"))
    total = sum(totals.values())
    rates = []
    for index, slot in enumerate(ASPECT_SLOTS):
        count = sum(counts[index] for counts in present.values())
        rate = _rate(count, total)
        rates.append(rate)
        rows.append(("(all)", slot, str(count), str(total), f"{rate:.4f}"))
    rows.append(("(all)", "(mean)", "", "", f"{sum(rates) / len(ASPECT_SLOTS):.4f}"))
    return DEFICIENCY_COLUMNS, rows


def completion_stats(records: Sequence[CompletionRecord], corpus: Corpus) -> Table:
    """Distinct-PoC and value counts per (source, aspect, origin kind) that
    has a record, in source encounter, slot and origin order, then one
    overall row per origin kind. Every record must target a corpus report."""
    unknown = sorted({r.target for r in records if r.target not in corpus})
    if unknown:
        raise ValueError(f"completion records target unknown report ids: {unknown}")
    targets: dict[tuple[str, str, str], set[str]] = {}
    values: dict[tuple[str, str, str], int] = {}
    for record in records:
        source = corpus.get(record.target).source
        key = (source, record.slot, record.origin.encode()["kind"])
        targets.setdefault(key, set()).add(record.target)
        values[key] = values.get(key, 0) + 1
    rows = []
    for source in dict.fromkeys(report.source for report in corpus):
        for slot in ASPECT_SLOTS:
            for origin in ORIGIN_KINDS:
                key = (source, slot, origin)
                if key in values:
                    rows.append((source, slot, origin, str(len(targets[key])), str(values[key])))
    for origin in ORIGIN_KINDS:
        pocs = sum(len(ids) for key, ids in targets.items() if key[2] == origin)
        count = sum(n for key, n in values.items() if key[2] == origin)
        rows.append(("(all)", "(all)", origin, str(pocs), str(count)))
    return COMPLETION_COLUMNS, rows


# --- rendering -------------------------------------------------------------------


def _render_markdown(columns: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    def line(cells: tuple[str, ...]) -> str:
        # a "|" inside a cell would end it; source labels come from the user
        return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"

    lines = [line(columns), line(tuple("---" for _ in columns))]
    lines.extend(line(row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_csv(columns: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def render_report(table: Table, format: str) -> str:
    """Render a ``(columns, rows)`` table; formats are ``markdown`` and ``csv``."""
    columns, rows = table
    if format == "markdown":
        return _render_markdown(columns, rows)
    if format == "csv":
        return _render_csv(columns, rows)
    raise ValueError(f"unknown format: {format!r} (expected markdown or csv)")
