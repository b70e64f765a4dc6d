"""Language detection and code/text categorization for PoC reports.

Detection is signature-driven: a table of per-language regular expressions
(shipped as package data, editable without code changes) is scored against
the document, and the best-scoring language wins when it clears its
signature's minimum hit count. Anything below every minimum is prose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cache
from heapq import heapify, heappop, heapreplace
from itertools import dropwhile
from pathlib import Path
from typing import Iterator, Sequence

try:
    from re import _parser
except ImportError:  # Python 3.10
    import sre_parse as _parser

from .corpus import ContentKind, CorpusError, PocReport, read_jsonl

SIGNATURES_FORMAT = "language-signatures"
SIGNATURES_VERSION = 1

# One definitive construct is not enough evidence on its own unless weighted.
DEFAULT_MIN_HITS = 2


def _leading_run(items) -> str:
    """The literal characters at the start of a parsed sequence."""
    run = ""
    for op, value in items:
        if op != _parser.LITERAL:
            break
        run += chr(value)
    return run


def _branch_heads(branches) -> tuple[str, ...] | None:
    """The leading literal run of each branch of a parsed alternation, or
    None when a branch has none."""
    heads = tuple(_leading_run(branch) for branch in branches)
    return heads if all(heads) else None


def pattern_literals(
    pattern: re.Pattern[str],
) -> tuple[str | None, tuple[str, ...] | None]:
    """What every match of ``pattern`` contains, from one parse of it:
    ``(literal, match heads)``, each None when there is none.

    Both come from the pattern's top-level sequence, which a match spans
    item by item, in order:

    - the literal is the longest run of literal characters in it, which a
      match contains verbatim;
    - the match heads are what a match starts with: past the leading
      zero-width assertions (``\\b``, ``^``), the literal run that follows
      or the branch heads of an alternation there.

    Case-insensitive patterns have none, since their literals match other
    cases too.
    """
    if pattern.flags & re.IGNORECASE:
        return None, None
    items = _parser.parse(pattern.pattern, pattern.flags).data
    literal = run = ""
    for op, value in items:
        run = run + chr(value) if op == _parser.LITERAL else ""
        literal = max(literal, run, key=len)
    rest = list(dropwhile(lambda item: item[0] == _parser.AT, items))
    if rest and rest[0][0] == _parser.BRANCH:
        starts = _branch_heads(rest[0][1][1])
    else:
        run = _leading_run(rest)
        starts = (run,) if run else None
    return literal or None, starts


def head_matches(
    pattern: re.Pattern[str], heads: Sequence[str], content: str
) -> Iterator[re.Match[str]]:
    """The matches ``pattern.finditer(content)`` yields, for a pattern
    whose every match starts with one of ``heads`` (its match heads from
    :func:`pattern_literals`).

    The pattern is tried only where a head occurs, in increasing order, and
    from the end of each match on, as ``finditer`` resumes. ``match`` at a
    position still sees the whole string, so word boundaries, ``^`` and
    lookbehinds read the characters before it; heads are not empty, so no
    match is.
    """
    upcoming = [(at, head) for head in heads if (at := content.find(head)) >= 0]
    heapify(upcoming)
    end = 0
    while upcoming:
        at, head = upcoming[0]
        if at < end:
            at = content.find(head, end)
            if at < 0:
                heappop(upcoming)
            else:
                heapreplace(upcoming, (at, head))
            continue
        m = pattern.match(content, at)
        if m is None:
            end = at + 1
        else:
            yield m
            end = m.end()


@dataclass(frozen=True)
class SignaturePattern:
    pattern: re.Pattern[str]
    weight: int
    literal: str | None = field(init=False, default=None)
    starts: tuple[str, ...] | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        # exact type, as JSON gives it: a boolean, a real and a string are refused
        if type(self.weight) is not int or self.weight < 1:
            raise ValueError(f"weight must be an integer >= 1, got {self.weight!r}")
        literal, starts = pattern_literals(self.pattern)
        object.__setattr__(self, "literal", literal)
        object.__setattr__(self, "starts", starts)

    def hits(self, content: str) -> int:
        """Number of non-overlapping matches in ``content``, as ``findall``
        counts them. A content that lacks the required literal cannot
        match, so its regex is not run. A pattern with match heads is tried
        only where they occur (:func:`head_matches`)."""
        if self.literal is not None and self.literal not in content:
            return 0
        if self.starts is None:
            return len(self.pattern.findall(content))
        return sum(1 for _m in head_matches(self.pattern, self.starts, content))


@dataclass(frozen=True)
class LanguageSignature:
    language: ContentKind
    patterns: tuple[SignaturePattern, ...]
    min_hits: int = DEFAULT_MIN_HITS

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError(f"{self.language.value}: empty pattern list")
        if self.min_hits < 1:
            raise ValueError("min_hits must be >= 1")

    def score(self, content: str) -> int:
        return sum(p.weight * p.hits(content) for p in self.patterns)


def _signature_record(record: dict) -> tuple[ContentKind, SignaturePattern]:
    pattern = re.compile(record["pattern"], re.MULTILINE)
    language = ContentKind("code:" + record["language"])
    return language, SignaturePattern(pattern, record.get("weight", 1))


def load_signatures(path: str | Path | None = None) -> tuple[LanguageSignature, ...]:
    """Load a signature table; with no path, the bundled default table."""
    if path is None:
        path = Path(__file__).parent / "data" / "signatures.jsonl"
    header = {"format": SIGNATURES_FORMAT, "version": SIGNATURES_VERSION}
    grouped: dict[ContentKind, list[SignaturePattern]] = {}
    for language, pattern in read_jsonl(path, _signature_record, header):
        grouped.setdefault(language, []).append(pattern)
    min_hits = header.get("min_hits", DEFAULT_MIN_HITS)
    # JSON gives exact types, so this also refuses a boolean
    if type(min_hits) is not int or min_hits < 1:
        raise CorpusError(f"{path}:1: min_hits must be an integer >= 1, got {min_hits!r}")
    return tuple(
        LanguageSignature(language, tuple(grouped[language]), min_hits)
        for language in ContentKind
        if language in grouped
    )


@cache
def _default_signatures() -> tuple[LanguageSignature, ...]:
    return load_signatures()


def detect_language(
    content: str, signatures: tuple[LanguageSignature, ...] | None = None
) -> tuple[ContentKind, int] | None:
    """Best-scoring language with its hit count, or None when nothing clears min_hits.

    Ties break by ContentKind declaration order, which is the order signatures
    are stored in, so the first strictly-best score wins.
    """
    if not content:
        return None
    if signatures is None:
        signatures = _default_signatures()
    best: tuple[ContentKind, int] | None = None
    for signature in signatures:
        hits = signature.score(content)
        if hits < signature.min_hits:
            continue
        if best is None or hits > best[1]:
            best = (signature.language, hits)
    return best


def categorize(report: PocReport) -> PocReport:
    """Resolve a report's content kind from its raw content.

    Code when some language signature clears its minimum, Text otherwise.
    """
    if report.content_kind is not ContentKind.UNCLASSIFIED:
        raise ValueError(
            f"report {report.id} is already classified as {report.content_kind.encode()}"
        )
    detected = detect_language(report.raw_content)
    kind = detected[0] if detected is not None else ContentKind.TEXT
    return replace(report, content_kind=kind)
