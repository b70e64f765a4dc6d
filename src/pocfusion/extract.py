"""Aspect extraction: rule-based matching, CVE-id resolution, and the
pluggable structured extractor with its pattern-based default.

All extracted values are verbatim substrings of the document (modulo
whitespace trimming); nothing is synthesized at this stage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Protocol, Sequence

from .classify import head_matches, pattern_literals
from .corpus import (
    ASPECT_SLOTS,
    ContentKind,
    Corpus,
    PocReport,
    ServiceClient,
    _strings,
    aspect_values,
    read_jsonl,
)
from .cveid import find_cve_ids

_TRAILING_PUNCT = ".,;:!?'\"`)]}>"


class ExtractionError(ValueError):
    """Fatal extraction failure (contract violation, evaluation id mismatch)."""


@lru_cache(maxsize=1)
def fold_case(text: str) -> str:
    """``text`` with each character that ``re.IGNORECASE`` equates with an
    ASCII letter replaced by that lowercase letter, and other cased letters
    lowered.

    A case-sensitive pattern of lowercase ASCII letters and non-letters
    matches the fold where, and with the spans that, its ``re.IGNORECASE``
    form matches ``text``: the fold has the same length and keeps every
    character's ``\\w`` and ``\\s`` membership. ``İ``, whose lowercase is two
    characters, is mapped first; ``ı`` and ``ſ`` have no lowercase form, but
    match ``i`` and ``s`` ignoring case. A ``str.translate`` table doing the
    same is slower on non-ASCII text.

    The last fold is kept, so that the scans of one report share one.
    """
    return text.replace("İ", "i").lower().replace("ı", "i").replace("ſ", "s")


def _keyword_regex(*keywords: str) -> re.Pattern[str]:
    """One pattern matching any of the lowercase ``keywords`` as whole
    words; run it over a :func:`fold_case` fold to match any case."""
    alternatives = "|".join(re.escape(kw) for kw in keywords)
    return re.compile(r"\b(?:" + alternatives + r")\b")


# Keyword and pattern inventory of the rule-based extractors.
_TRIGGER_KEYWORDS = _keyword_regex(
    "steps",
    "reproduce",
    # the historical misspelling appears verbatim in real reports
    "complie with",
    "compile with",
)
_ORACLE_KEYWORDS = _keyword_regex("expected output", "poc output")
# where a keyword can start
_KEYWORD_HEADS = {
    pattern: pattern_literals(pattern)[1] for pattern in (_TRIGGER_KEYWORDS, _ORACLE_KEYWORDS)
}
# A list marker after at most 8 blanks: "1." or "1)", "a)", or "Step 1:".
# Each alternative captures its marker, so the number of the last group a
# match sets, less 2, is the marker's form: 0, 1 or 2.
_STEP_MARKER = re.compile(
    r"([ \t]{0,8})(?:(\d{1,3})[.)][ \t]+|([a-z])\)[ \t]+"
    r"|[Ss][Tt][Ee][Pp][ \t]+(\d{1,3})[ \t]*[:.)][ \t]*)"
)
_URL_PATTERN = re.compile(r"\b(?:https?|ftp)://[^\s<>\"']+")
_URL_HEADS = pattern_literals(_URL_PATTERN)[1]  # where a URL can start


def _indent_of(line: str) -> int:
    return len(line) - len(line.lstrip(" \t"))


def _find_step_items(lines: list[str]) -> list[tuple[int, int, int, int]]:
    """Enumerated list items: (line number, marker form, sequence value of
    the marker, indent).

    Every alternative of the marker starts with a non-blank character, so
    a match's blanks are the line's whole leading run.
    """
    items = []
    for lineno, line in enumerate(lines):
        m = _STEP_MARKER.match(line)
        if m:
            marker = m.group(m.lastindex)
            value = int(marker) if marker.isdigit() else ord(marker)
            items.append((lineno, m.lastindex - 2, value, len(m.group(1))))
    return items


def _find_step_runs(lines: list[str]) -> list[tuple[int, int, int]]:
    """Maximal runs of consecutively-numbered items: (first_line, last_line, n_items).

    last_line includes continuation lines indented past the item markers.
    Between items, blank lines and indented continuations are tolerated up to
    a small gap; any other line breaks the run.
    """
    items = _find_step_items(lines)
    runs: list[tuple[int, int, int]] = []
    i = 0
    while i < len(items):
        run = [items[i]]
        j = i + 1
        while j < len(items):
            prev_line, prev_pattern, prev_value, prev_indent = run[-1]
            nxt_line, nxt_pattern, nxt_value, _ = items[j]
            if (
                nxt_pattern == prev_pattern
                and nxt_value == prev_value + 1
                and nxt_line - prev_line <= 5
                and all(
                    not lines[k].strip() or _indent_of(lines[k]) > prev_indent
                    for k in range(prev_line + 1, nxt_line)
                )
            ):
                run.append(items[j])
                j += 1
            else:
                break
        end, _, _, indent = run[-1]
        while (
            end + 1 < len(lines)
            and lines[end + 1].strip()
            and _indent_of(lines[end + 1]) > indent
        ):
            end += 1
        runs.append((run[0][0], end, len(run)))
        i = j
    return runs


def _keyword_lines(keywords: re.Pattern[str], content: str) -> list[int]:
    """Sorted, distinct numbers of the lines of ``content`` holding a keyword,
    in any case.

    One scan of the whole content finds the same lines as a search of each
    line: no keyword holds a line break, and a line break is a non-word
    character, so a word boundary falls at a line's edge exactly when it
    falls at the edge of that line on its own. The scan runs over the
    content's fold, where the keywords are tried only where one starts.
    """
    numbers: list[int] = []
    lineno = position = 0
    for match in head_matches(keywords, _KEYWORD_HEADS[keywords], fold_case(content)):
        lineno += content.count("\n", position, match.start())
        position = match.start()
        if not numbers or numbers[-1] != lineno:
            numbers.append(lineno)
    return numbers


def _resolve_regions(candidates: list[tuple[int, int]], lines: list[str]) -> list[str]:
    """Non-overlapping selection, longest region first, emitted in document order."""
    chosen: list[tuple[int, int]] = []
    for start, end in sorted(candidates, key=lambda c: (c[0] - c[1], c[0])):
        if all(end < s or start > e for s, e in chosen):
            chosen.append((start, end))
    chosen.sort()
    return ["\n".join(lines[s : e + 1]).strip() for s, e in chosen]


def extract_trigger_step(content: str) -> list[str]:
    """Find trigger-step regions: keyword lines with their enumerated block,
    and standalone step lists of at least two consecutive items.
    """
    lines = content.split("\n")
    runs = _find_step_runs(lines)
    candidates: list[tuple[int, int]] = [
        (first, last) for first, last, n in runs if n >= 2
    ]
    for lineno in _keyword_lines(_TRIGGER_KEYWORDS, content):
        end = lineno
        # a list starting just below the keyword line belongs to it
        for first, last, _n in runs:
            if lineno < first <= lineno + 3 and all(
                not lines[k].strip() for k in range(lineno + 1, first)
            ):
                end = last
                break
        candidates.append((lineno, end))
    return _resolve_regions(candidates, lines)


def extract_verification_oracle(content: str) -> list[str]:
    """Find oracle regions: keyword lines plus any following indented or
    fenced block describing the observable result.
    """
    lines = content.split("\n")
    candidates: list[tuple[int, int]] = []
    for lineno in _keyword_lines(_ORACLE_KEYWORDS, content):
        end = lineno
        nxt = lineno + 1
        if nxt < len(lines) and not lines[nxt].strip():
            nxt += 1
        if nxt < len(lines) and lines[nxt].lstrip().startswith("```"):
            end = nxt
            while end + 1 < len(lines):
                end += 1
                if lines[end].lstrip().startswith("```"):
                    break
        elif nxt < len(lines) and lines[nxt].strip() and _indent_of(lines[nxt]) > 0:
            end = nxt
            while (
                end + 1 < len(lines)
                and lines[end + 1].strip()
                and _indent_of(lines[end + 1]) > 0
            ):
                end += 1
        candidates.append((lineno, end))
    return _resolve_regions(candidates, lines)


def extract_references(content: str) -> list[str]:
    """All web/ftp URLs in document order, first occurrence kept, trailing
    punctuation stripped. The scheme matches in any case on the fold; each
    URL is cut from the content, its case kept."""
    seen: dict[str, None] = {}
    for match in head_matches(_URL_PATTERN, _URL_HEADS, fold_case(content)):
        url = content[match.start():match.end()].rstrip(_TRAILING_PUNCT)
        host = url.split("://", 1)[1]
        if host and host[0].isalnum():
            seen.setdefault(url, None)
    return list(seen)


def extract_cve_ids(report: PocReport) -> list[str]:
    """Resolve a report's CVE ids: the ids ingestion took from the source's
    dedicated field when there are any, otherwise a body scan for
    fully-prefixed ids. Canonical form, deduplicated.
    """
    return list(dict.fromkeys(report.cve_ids)) or find_cve_ids(report.raw_content)


# --- structured extraction ----------------------------------------------------


@dataclass(frozen=True)
class SlotSpan:
    text: str
    start: int
    end: int

    def __post_init__(self) -> None:
        # exact types, so that a service's boolean, real or string offset is refused
        if not (type(self.text) is str and type(self.start) is int and type(self.end) is int):
            raise ExtractionError(f"span out of contract: {self}")


@dataclass(frozen=True)
class StructuredExtraction:
    """Per-slot character spans produced by a structured extractor."""

    spans: dict[str, tuple[SlotSpan, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for slot in self.spans:
            if slot not in NER_SLOTS:
                raise ExtractionError(f"unknown structured slot: {slot!r}")

    def texts(self, slot: str) -> list[str]:
        return [span.text for span in self.spans.get(slot, ())]

    @classmethod
    def decode(cls, data: dict, content: str) -> "StructuredExtraction":
        """A service's answer for ``content``, each of whose spans must quote
        ``content`` verbatim at its offsets."""
        extraction = cls({
            slot: tuple(SlotSpan(s["text"], s["start"], s["end"]) for s in raw_spans)
            for slot, raw_spans in data.items()
        })
        for slot, spans in extraction.spans.items():
            for span in spans:
                if not (0 <= span.start <= span.end <= len(content)) or (
                    content[span.start : span.end] != span.text
                ):
                    raise ExtractionError(f"slot {slot}: {span} does not quote the document")
        return extraction


class StructuredExtractor(Protocol):
    """Its spans must quote the report's content verbatim; none is checked."""

    def extract(self, report: PocReport) -> StructuredExtraction: ...


# Header labels understood by the default extractor, per target slot.
_HEADER_LABELS = {
    "title": ("exploit title", "poc title", "title"),
    "author": ("author", "discovered by", "found by", "credit"),
    "publish_time": (
        "publish date",
        "disclosure date",
        "release date",
        "published",
        "date",
    ),
    "test_platform": ("tested on", "platform", "operating system", "os"),
    "software_version": (
        "affected versions",
        "affected version",
        "vulnerable version",
        "software version",
        "version",
    ),
}

# Slots the structured extractor is responsible for.
NER_SLOTS = tuple(_HEADER_LABELS)

# Values in list-valued slots may be comma-separated on one header line.
_SPLIT_SLOTS = frozenset({"test_platform", "software_version"})

_COMMENT_CLOSERS = ("-->", "*/")


def _header_regex() -> re.Pattern[str]:
    labels = sorted(
        (label, slot)
        for slot, slot_labels in _HEADER_LABELS.items()
        for label in slot_labels
    )
    alternation = "|".join(re.escape(label) for label, _ in labels)
    # headers often sit inside comments: "#", "//", "/*", "<!--", "*", "--"
    return re.compile(
        r"^[ \t]*[#;*/<!-]{0,8}[ \t]*(" + alternation + r")[ \t]*:[ \t]*(\S.*)$",
        re.MULTILINE,
    )


_HEADER_RE = _header_regex()

_LABEL_TO_SLOT = {
    label: slot for slot, labels in _HEADER_LABELS.items() for label in labels
}


def _trim_span(content: str, start: int, end: int) -> tuple[str, int, int] | None:
    text = content[start:end]
    stripped = text.rstrip()
    for closer in _COMMENT_CLOSERS:
        if stripped.endswith(closer):
            stripped = stripped[: -len(closer)].rstrip()
    lead = len(text) - len(text.lstrip())
    start += lead
    end = start + len(stripped) - lead if stripped else start
    text = content[start:end].strip()
    if not text:
        return None
    return content[start:end], start, end


class DefaultStructuredExtractor:
    """Pattern-based extractor over labelled header lines.

    Recognizes lines such as ``Author: joeyj`` or ``# Exploit Title: ...``,
    with optional comment prefixes. When a document contains no header lines
    at all and is not code, its first non-empty line is taken as the title.
    """

    def extract(self, report: PocReport) -> StructuredExtraction:
        content = report.raw_content
        spans: dict[str, list[SlotSpan]] = {}
        matched_any = False
        # labels match in any case on the fold; values come from the content
        for m in _HEADER_RE.finditer(fold_case(content)):
            matched_any = True
            slot = _LABEL_TO_SLOT[m.group(1)]
            value_start, value_end = m.span(2)
            trimmed = _trim_span(content, value_start, value_end)
            if trimmed is None:
                continue
            text, start, end = trimmed
            if slot in _SPLIT_SLOTS and "," in text:
                offset = start
                for piece in text.split(","):
                    sub = _trim_span(content, offset, offset + len(piece))
                    offset += len(piece) + 1
                    if sub is not None:
                        spans.setdefault(slot, []).append(SlotSpan(*sub))
            else:
                spans.setdefault(slot, []).append(SlotSpan(text, start, end))
        if not matched_any and not report.content_kind.is_code:
            for line in content.split("\n"):
                if line.strip():
                    start = content.index(line)
                    trimmed = _trim_span(content, start, start + len(line))
                    if trimmed is not None:
                        spans["title"] = [SlotSpan(*trimmed)]
                    break
        return StructuredExtraction({slot: tuple(v) for slot, v in spans.items()})


class ExternalStructuredExtractor(ServiceClient):
    """Client for an external structured-extractor HTTP service.

    Request: ``{"id": ..., "content": ...}``; response: ``{slot: [{"text",
    "start", "end"}, ...]}``. A failed call, a contract-violating answer
    included, is answered by ``fallback``; ``degraded`` collects the report
    ids (see :class:`ServiceClient`).
    """

    def extract(self, report: PocReport) -> StructuredExtraction:
        content = report.raw_content
        decode = partial(StructuredExtraction.decode, content=content)
        extraction = self._call(report.id, {"id": report.id, "content": content}, decode)
        return extraction if extraction is not None else self.fallback.extract(report)


# --- composition ----------------------------------------------------------------


def extract_all(
    report: PocReport, extractor: StructuredExtractor | None = None
) -> PocReport:
    """Populate every slot a match exists for; idempotent, dedup-preserving."""
    if report.content_kind is ContentKind.UNCLASSIFIED:
        raise ValueError(f"report {report.id} must be categorized before extraction")
    content = report.raw_content
    if extractor is None:
        extractor = DefaultStructuredExtractor()
    # an extractor returns verbatim spans: the default builds them from the
    # content, and the service client has checked its answer's
    structured = extractor.extract(report)
    aspects = report.aspects.with_added(
        trigger_step=aspect_values(extract_trigger_step(content)),
        verification_oracle=aspect_values(extract_verification_oracle(content)),
        reference=aspect_values(extract_references(content)),
        **{slot: aspect_values(structured.texts(slot)) for slot in NER_SLOTS},
    )
    cve_ids = tuple(extract_cve_ids(report))
    return replace(report, cve_ids=cve_ids, aspects=aspects)


# --- evaluation -----------------------------------------------------------------


def precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    """Precision and recall of true-positive, false-positive and
    false-negative counts; each is 0.0 where its base is empty."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


GoldAnnotations = dict[str, dict[str, list[str]]]


def load_gold_annotations(path: str | Path) -> GoldAnnotations:
    """Read a gold file: one JSON object per line, {"id": ..., "<slot>": [...]}.
    Report ids are strings, each on one line only."""
    gold: GoldAnnotations = {}

    def add(record: dict) -> None:
        report_id = record.pop("id")
        if not isinstance(report_id, str):
            raise ValueError(f"gold id must be a string: {report_id!r}")
        if report_id in gold:
            raise ValueError(f"repeated gold id {report_id!r}")
        for slot in record:
            if slot not in ASPECT_SLOTS:
                raise ValueError(f"unknown gold slot {slot!r}")
        gold[report_id] = {slot: list(_strings(values)) for slot, values in record.items()}

    read_jsonl(path, add)
    return gold


def _norm_set(values: Sequence[str]) -> set[str]:
    return {v.strip().lower() for v in values if v.strip()}


def evaluate_extraction(
    gold: GoldAnnotations, predicted: Corpus
) -> dict[str, tuple[int, int, int]]:
    """Per-slot (true positive, false positive, false negative) counts of
    predicted aspects against gold, in ``ASPECT_SLOTS`` order; the overall
    counts are the column sums, see :func:`precision_recall`.

    Matching is case-insensitive on trimmed text. The gold and predicted
    report id sets must be identical.
    """
    gold_ids = set(gold)
    predicted_ids = {r.id for r in predicted}
    if gold_ids != predicted_ids:
        missing = sorted(gold_ids - predicted_ids)
        extra = sorted(predicted_ids - gold_ids)
        raise ExtractionError(
            f"gold/predicted id mismatch: missing from predicted {missing}, "
            f"not annotated {extra}"
        )
    counts = {slot: [0, 0, 0] for slot in ASPECT_SLOTS}
    for report in predicted:
        annotations = gold[report.id]
        for slot, slot_counts in counts.items():
            gold_set = _norm_set(annotations.get(slot, []))
            pred_set = _norm_set(report.aspects.texts(slot))
            slot_counts[0] += len(gold_set & pred_set)
            slot_counts[1] += len(pred_set - gold_set)
            slot_counts[2] += len(gold_set - pred_set)
    return {slot: (tp, fp, fn) for slot, (tp, fp, fn) in counts.items()}
