"""Language detection and code/text categorization for PoC reports.

Detection is signature-driven: a table of per-language regular expressions
(shipped as package data, editable without code changes) is scored against
the document, and the best-scoring language wins when it clears its
signature's minimum hit count. Anything below every minimum is prose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path

try:
    from re import _parser
except ImportError:  # Python 3.10
    import sre_parse as _parser

from .corpus import TEXT, CorpusError, Kind, LanguageId, PocReport, code_kind, read_jsonl

SIGNATURES_FORMAT = "language-signatures"
SIGNATURES_VERSION = 1

# One definitive construct is not enough evidence on its own unless weighted.
DEFAULT_MIN_HITS = 2


def required_literal(pattern: re.Pattern[str]) -> str | None:
    """A substring every match of ``pattern`` contains, or None.

    It is the longest run of literal characters in the pattern's top-level
    sequence: a match spans every top-level item in order, so it contains
    each such run verbatim. Case-insensitive patterns have none, since
    their literals match other cases too.
    """
    if pattern.flags & re.IGNORECASE:
        return None
    best = run = ""
    for op, value in _parser.parse(pattern.pattern, pattern.flags):
        run = run + chr(value) if op == _parser.LITERAL else ""
        best = max(best, run, key=len)
    return best or None


def branch_heads(pattern: re.Pattern[str]) -> tuple[str, ...] | None:
    """Substrings one of which every match of ``pattern`` contains, or None.

    They are the leading literal runs of the branches of the first
    alternation in the pattern's top-level sequence whose branches all
    start with a literal: a match passes through one branch of it, so it
    contains that branch's head verbatim. Case-insensitive patterns have
    none, for the same reason as in :func:`required_literal`.
    """
    if pattern.flags & re.IGNORECASE:
        return None
    for op, value in _parser.parse(pattern.pattern, pattern.flags):
        if op != _parser.BRANCH:
            continue
        heads = []
        for branch in value[1]:
            head = ""
            for item_op, item_value in branch:
                if item_op != _parser.LITERAL:
                    break
                head += chr(item_value)
            if not head:
                break
            heads.append(head)
        else:
            return tuple(heads)
    return None


@dataclass(frozen=True)
class SignaturePattern:
    pattern: re.Pattern[str]
    weight: int
    literal: str | None = field(init=False, default=None)
    heads: tuple[str, ...] | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError("pattern weight must be >= 1")
        object.__setattr__(self, "literal", required_literal(self.pattern))
        object.__setattr__(self, "heads", branch_heads(self.pattern))

    def hits(self, content: str) -> int:
        """Number of non-overlapping matches in ``content``; a content that
        lacks the required literal, or every head of the gated alternation,
        cannot match, so its regex is not run."""
        if self.literal is not None and self.literal not in content:
            return 0
        if self.heads is not None and not any(head in content for head in self.heads):
            return 0
        return len(self.pattern.findall(content))


@dataclass(frozen=True)
class LanguageSignature:
    language: LanguageId
    patterns: tuple[SignaturePattern, ...]
    min_hits: int = DEFAULT_MIN_HITS

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError(f"{self.language.value}: empty pattern list")
        if self.min_hits < 1:
            raise ValueError("min_hits must be >= 1")

    def score(self, content: str) -> int:
        return sum(p.weight * p.hits(content) for p in self.patterns)


def _signature_record(record: dict) -> tuple[LanguageId, SignaturePattern]:
    pattern = re.compile(record["pattern"], re.MULTILINE)
    return LanguageId(record["language"]), SignaturePattern(pattern, int(record.get("weight", 1)))


def load_signatures(path: str | Path | None = None) -> tuple[LanguageSignature, ...]:
    """Load a signature table; with no path, the bundled default table."""
    if path is None:
        path = Path(__file__).parent / "data" / "signatures.jsonl"
    header = {"format": SIGNATURES_FORMAT, "version": SIGNATURES_VERSION}
    grouped: dict[LanguageId, list[SignaturePattern]] = {}
    for language, pattern in read_jsonl(path, _signature_record, header):
        grouped.setdefault(language, []).append(pattern)
    min_hits = header.get("min_hits", DEFAULT_MIN_HITS)
    # JSON gives exact types, so this also refuses a boolean
    if type(min_hits) is not int or min_hits < 1:
        raise CorpusError(f"{path}:1: min_hits must be an integer >= 1, got {min_hits!r}")
    return tuple(
        LanguageSignature(language, tuple(grouped[language]), min_hits)
        for language in LanguageId
        if language in grouped
    )


_DEFAULT_SIGNATURES: tuple[LanguageSignature, ...] | None = None


def _default_signatures() -> tuple[LanguageSignature, ...]:
    global _DEFAULT_SIGNATURES
    if _DEFAULT_SIGNATURES is None:
        _DEFAULT_SIGNATURES = load_signatures()
    return _DEFAULT_SIGNATURES


def detect_language(
    content: str, signatures: tuple[LanguageSignature, ...] | None = None
) -> tuple[LanguageId, int] | None:
    """Best-scoring language with its hit count, or None when nothing clears min_hits.

    Ties break by LanguageId declaration order, which is the order signatures
    are stored in, so the first strictly-best score wins.
    """
    if not content:
        return None
    if signatures is None:
        signatures = _default_signatures()
    best: tuple[LanguageId, int] | None = None
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
    if report.content_kind.kind is not Kind.UNCLASSIFIED:
        raise ValueError(
            f"report {report.id} is already classified as {report.content_kind.encode()}"
        )
    detected = detect_language(report.raw_content)
    kind = code_kind(detected[0]) if detected is not None else TEXT
    return replace(report, content_kind=kind)
