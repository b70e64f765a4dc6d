"""Deficiency and completion statistics with markdown/CSV rendering.

A statistics table is its column names and its rows of string cells, in
render order. Both fold over one completed corpus: deficiency counts only
the values the reports arrived with (Original provenance), which completion
never touches, and the completion table counts every other value.
"""

from __future__ import annotations

import csv
import io

from .corpus import ASPECT_SLOTS, ORIGIN_KINDS, Corpus, Original

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
            if any(isinstance(v.provenance, Original) for v in report.aspects.values(slot)):
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


def completion_stats(corpus: Corpus) -> Table:
    """Distinct-PoC and value counts of the completed (non-Original) values
    per (source, aspect, origin kind) that has one, in source encounter, slot
    and origin order, then one overall row per origin kind."""
    pocs: dict[tuple[str, str, str], int] = {}
    values: dict[tuple[str, str, str], int] = {}
    for report in corpus:
        held: dict[tuple[str, str, str], int] = {}  # this report's values per key
        for slot in ASPECT_SLOTS:
            for value in report.aspects.values(slot):
                if not isinstance(value.provenance, Original):
                    key = (report.source, slot, value.provenance.kind)
                    held[key] = held.get(key, 0) + 1
        for key, count in held.items():
            pocs[key] = pocs.get(key, 0) + 1
            values[key] = values.get(key, 0) + count
    rows = []
    for source in dict.fromkeys(report.source for report in corpus):
        for slot in ASPECT_SLOTS:
            for origin in ORIGIN_KINDS:
                key = (source, slot, origin)
                if key in values:
                    rows.append((source, slot, origin, str(pocs[key]), str(values[key])))
    for origin in ORIGIN_KINDS:
        count_pocs = sum(n for key, n in pocs.items() if key[2] == origin)
        count = sum(n for key, n in values.items() if key[2] == origin)
        rows.append(("(all)", "(all)", origin, str(count_pocs), str(count)))
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


# table format -> (file extension, renderer)
FORMATS = {"markdown": ("md", _render_markdown), "csv": ("csv", _render_csv)}


def render_report(table: Table, format: str) -> str:
    """Render a ``(columns, rows)`` table in one of the :data:`FORMATS`."""
    if format not in FORMATS:
        raise ValueError(f"unknown format: {format!r} (expected {' or '.join(FORMATS)})")
    return FORMATS[format][1](*table)
