"""Core domain types plus loading, validation, and persistence of PoC corpora.

A corpus is an immutable collection of PoC reports. Pipeline stages never
mutate a corpus in place; they produce a new one. All input and persisted
files are UTF-8 JSON Lines.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .cveid import normalize_cve_id

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

CORPUS_FORMAT = "poc-corpus"
CORPUS_VERSION = 1

# Slot identity is fixed: exactly these eight aspects, in this order.
ASPECT_SLOTS = (
    "trigger_step",
    "verification_oracle",
    "test_platform",
    "software_version",
    "title",
    "author",
    "publish_time",
    "reference",
)

# Interchange-record fields that map straight into aspect slots at ingestion.
_RECORD_SLOT_FIELDS = {
    "title": "title",
    "author": "author",
    "publish_time": "publish_time",
    "platform": "test_platform",
    "version": "software_version",
    "references": "reference",
}


class CorpusError(ValueError):
    """Fatal corpus-level failure (unreadable file, version mismatch, broken invariant)."""


class SourceName(str, Enum):
    EXPLOITDB = "ExploitDB"
    PACKETSTORM = "PacketStorm"
    SEEBUG = "Seebug"
    CXSECURITY = "CXSecurity"
    OTHER = "Other"


_SOURCE_ALIASES = {
    "exploitdb": SourceName.EXPLOITDB,
    "exploit-db": SourceName.EXPLOITDB,
    "packetstorm": SourceName.PACKETSTORM,
    "packet storm": SourceName.PACKETSTORM,
    "packet_storm": SourceName.PACKETSTORM,
    "seebug": SourceName.SEEBUG,
    "cxsecurity": SourceName.CXSECURITY,
}


@dataclass(frozen=True)
class SourceId:
    """One of the four supported report platforms, or a labelled extra source."""

    name: SourceName
    label: str = ""

    def __post_init__(self) -> None:
        if self.name is SourceName.OTHER and not self.label.strip():
            raise ValueError("Other source requires a non-empty label")
        if self.name is not SourceName.OTHER and self.label:
            raise ValueError(f"label is only valid for Other sources, got {self.label!r}")

    @classmethod
    def parse(cls, text: str) -> "SourceId":
        known = _SOURCE_ALIASES.get(text.strip().lower())
        if known is not None:
            return cls(known)
        return cls(SourceName.OTHER, label=text.strip())

    def display(self) -> str:
        return self.label if self.name is SourceName.OTHER else self.name.value


class Kind(str, Enum):
    CODE = "code"
    TEXT = "text"
    OTHER = "other"
    UNCLASSIFIED = "unclassified"


class LanguageId(str, Enum):
    """The nine languages recognized in code-based reports. Order breaks ties."""

    C_CPP = "c_cpp"
    HTML = "html"
    JAVA = "java"
    JAVASCRIPT = "javascript"
    PERL = "perl"
    PHP = "php"
    PYTHON = "python"
    RUBY = "ruby"
    SHELL = "shell"


@dataclass(frozen=True)
class ContentKind:
    kind: Kind
    lang: LanguageId | None = None

    def __post_init__(self) -> None:
        if (self.kind is Kind.CODE) != (self.lang is not None):
            raise ValueError("lang must be set exactly when kind is code")

    @property
    def is_code(self) -> bool:
        return self.kind is Kind.CODE

    @property
    def is_text(self) -> bool:
        return self.kind is Kind.TEXT

    def encode(self) -> str:
        if self.kind is Kind.CODE:
            assert self.lang is not None
            return f"code:{self.lang.value}"
        return self.kind.value

    @classmethod
    def decode(cls, text: str) -> "ContentKind":
        if text.startswith("code:"):
            return cls(Kind.CODE, LanguageId(text.split(":", 1)[1]))
        return cls(Kind(text))


UNCLASSIFIED = ContentKind(Kind.UNCLASSIFIED)
TEXT = ContentKind(Kind.TEXT)


def code_kind(lang: LanguageId) -> ContentKind:
    return ContentKind(Kind.CODE, lang)


# --- provenance ------------------------------------------------------------


@dataclass(frozen=True)
class Original:
    """Value present in (or extracted verbatim from) the source record."""

    def encode(self) -> dict:
        return {"kind": "original"}


@dataclass(frozen=True)
class FromCve:
    """Value completed from a linked CVE entry."""

    cve_id: str

    def encode(self) -> dict:
        return {"kind": "from_cve", "cve_id": self.cve_id}


@dataclass(frozen=True)
class FromPoc:
    """Value donated by a related PoC report.

    ``basis`` records how the donor was linked: ``shared_cve:<CVE-ID>`` or
    ``classifier``.
    """

    donor_id: str
    similarity: float
    basis: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.similarity <= 1.0:
            raise ValueError(f"similarity out of range: {self.similarity}")

    def encode(self) -> dict:
        return {
            "kind": "from_poc",
            "donor_id": self.donor_id,
            "similarity": self.similarity,
            "basis": self.basis,
        }


Provenance = Original | FromCve | FromPoc

ORIGINAL = Original()


def decode_provenance(data: dict) -> Provenance:
    kind = data.get("kind")
    if kind == "original":
        return ORIGINAL
    if kind == "from_cve":
        return FromCve(data["cve_id"])
    if kind == "from_poc":
        return FromPoc(data["donor_id"], data["similarity"], data["basis"])
    raise CorpusError(f"unknown provenance kind: {kind!r}")


# --- aspects ---------------------------------------------------------------


def _dedup_key(text: str) -> str:
    return text.strip().lower()


@dataclass(frozen=True)
class AspectValue:
    """One value in an aspect slot, with its origin."""

    text: str
    provenance: Provenance = ORIGINAL

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("aspect value text is empty after trimming")

    def encode(self) -> dict:
        return {"text": self.text, "provenance": self.provenance.encode()}

    @classmethod
    def decode(cls, data: dict) -> "AspectValue":
        return cls(data["text"], decode_provenance(data["provenance"]))


@dataclass(frozen=True)
class AspectSet:
    """The eight key-aspect slots of a report.

    An empty tuple means the aspect is missing. Within one slot no two values
    share the same case-insensitively trimmed text; :meth:`with_added`
    maintains that invariant, so build aspect sets through it.
    """

    trigger_step: tuple[AspectValue, ...] = ()
    verification_oracle: tuple[AspectValue, ...] = ()
    test_platform: tuple[AspectValue, ...] = ()
    software_version: tuple[AspectValue, ...] = ()
    title: tuple[AspectValue, ...] = ()
    author: tuple[AspectValue, ...] = ()
    publish_time: tuple[AspectValue, ...] = ()
    reference: tuple[AspectValue, ...] = ()

    def values(self, slot: str) -> tuple[AspectValue, ...]:
        if slot not in ASPECT_SLOTS:
            raise KeyError(slot)
        return getattr(self, slot)

    def texts(self, slot: str) -> list[str]:
        return [v.text for v in self.values(slot)]

    def with_added(self, slot: str, values: Iterable[AspectValue]) -> "AspectSet":
        """Append values to a slot, skipping case-insensitive trim duplicates."""
        current = list(self.values(slot))
        seen = {_dedup_key(v.text) for v in current}
        for value in values:
            key = _dedup_key(value.text)
            if key in seen:
                continue
            seen.add(key)
            current.append(value)
        return replace(self, **{slot: tuple(current)})

    def filled_slots(self) -> list[str]:
        return [slot for slot in ASPECT_SLOTS if self.values(slot)]

    def original_values(self, slot: str) -> tuple[AspectValue, ...]:
        return tuple(v for v in self.values(slot) if isinstance(v.provenance, Original))

    def validate(self) -> None:
        for slot in ASPECT_SLOTS:
            keys = [_dedup_key(v.text) for v in self.values(slot)]
            if len(keys) != len(set(keys)):
                raise CorpusError(f"duplicate values in slot {slot}")

    def encode(self) -> dict:
        return {
            slot: [v.encode() for v in self.values(slot)]
            for slot in ASPECT_SLOTS
            if self.values(slot)
        }

    @classmethod
    def decode(cls, data: dict) -> "AspectSet":
        fields = {}
        for slot, values in data.items():
            if slot not in ASPECT_SLOTS:
                raise CorpusError(f"unknown aspect slot: {slot!r}")
            fields[slot] = tuple(AspectValue.decode(v) for v in values)
        return cls(**fields)


def aspect_values(texts: Iterable[str], provenance: Provenance = ORIGINAL) -> list[AspectValue]:
    """Build aspect values from raw strings, trimming and dropping empties."""
    out = []
    for text in texts:
        trimmed = text.strip()
        if trimmed:
            out.append(AspectValue(trimmed, provenance))
    return out


# --- reports and CVE entries ------------------------------------------------


@dataclass(frozen=True)
class PocReport:
    """A single PoC document and everything derived from it."""

    id: str
    source: SourceId
    raw_content: str
    content_kind: ContentKind = UNCLASSIFIED
    cve_ids: tuple[str, ...] = ()
    aspects: AspectSet = field(default_factory=AspectSet)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("report id is empty")
        for cve_id in self.cve_ids:
            if normalize_cve_id(cve_id) != cve_id:
                raise ValueError(f"non-canonical CVE id on report {self.id}: {cve_id!r}")

    def encode(self) -> dict:
        return {
            "id": self.id,
            "source": self.source.display(),
            "content": self.raw_content,
            "content_kind": self.content_kind.encode(),
            "cve_ids": list(self.cve_ids),
            "aspects": self.aspects.encode(),
        }

    @classmethod
    def decode(cls, data: dict) -> "PocReport":
        return cls(
            id=data["id"],
            source=SourceId.parse(data["source"]),
            raw_content=data["content"],
            content_kind=ContentKind.decode(data["content_kind"]),
            cve_ids=tuple(data["cve_ids"]),
            aspects=AspectSet.decode(data["aspects"]),
        )


@dataclass(frozen=True)
class CveProduct:
    name: str
    versions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("product name is empty")


def _strings(value: object) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"expected a list of strings, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class CveEntry:
    """A CVE record carrying affected products/versions and platforms."""

    cve_id: str
    products: tuple[CveProduct, ...]
    platforms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if normalize_cve_id(self.cve_id) != self.cve_id:
            raise ValueError(f"non-canonical CVE id: {self.cve_id!r}")
        if not self.products:
            raise ValueError(f"{self.cve_id}: products list is empty")

    def encode(self) -> dict:
        return {
            "cve_id": self.cve_id,
            "products": [{"name": p.name, "versions": list(p.versions)} for p in self.products],
            "platforms": list(self.platforms),
        }

    @classmethod
    def decode(cls, data: dict) -> "CveEntry":
        return cls(
            data["cve_id"],
            tuple(CveProduct(p["name"], _strings(p["versions"])) for p in data["products"]),
            _strings(data["platforms"]),
        )

    def all_versions(self) -> list[str]:
        """Every version in the entry, product order then version order, deduplicated."""
        seen: dict[str, None] = {}
        for product in self.products:
            for version in product.versions:
                seen.setdefault(version, None)
        return list(seen)


class Corpus:
    """Immutable, id-indexed collection of reports."""

    __slots__ = ("reports", "_by_id")

    def __init__(self, reports: Iterable[PocReport]):
        self.reports: tuple[PocReport, ...] = tuple(reports)
        self._by_id: dict[str, PocReport] = {}
        for report in self.reports:
            if report.id in self._by_id:
                raise CorpusError(f"duplicate report id in corpus: {report.id}")
            self._by_id[report.id] = report

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self) -> Iterator[PocReport]:
        return iter(self.reports)

    def __contains__(self, report_id: str) -> bool:
        return report_id in self._by_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.reports == other.reports

    def get(self, report_id: str) -> PocReport:
        try:
            return self._by_id[report_id]
        except KeyError:
            raise KeyError(f"unknown report id: {report_id}") from None


# --- ingestion ---------------------------------------------------------------


def _source_records(path: Path) -> Iterator[tuple[int, dict]]:
    """The JSON objects of a source file with their line numbers. Source
    files are read leniently: bad UTF-8 bytes become U+FFFD, and a line that
    is not a JSON object is skipped with a warning."""
    text = path.read_text(encoding="utf-8", errors="replace")
    for lineno, line in jsonl_lines(text):
        try:
            yield lineno, json_object(line)
        except ValueError as exc:
            logger.warning("%s:%d: skipping malformed record: %s", path, lineno, exc)


def _record_error(record: dict) -> str | None:
    for key in ("id", "source", "content"):
        if key not in record:
            return f"missing required field {key!r}"
        if not isinstance(record[key], str):
            return f"field {key!r} is not a string"
    for key in ("id", "source"):
        if not record[key].strip():
            return f"empty {key}"
    return None


def _as_list(raw: object) -> list:
    """An optional ingest field holds one value or a list of values."""
    if raw is None:
        return []
    return raw if isinstance(raw, list) else [raw]


def ingest_reports(path: str | Path, source: SourceId) -> list[PocReport]:
    """Load one source's report file into unclassified reports.

    Pre-extracted optional fields (title, author, publish_time, platform,
    version, references, cve_ids) are mapped into aspect slots with Original
    provenance. Malformed lines are skipped with a warning naming the line
    number; duplicate ids within the file are rejected the same way.
    """
    path = Path(path)
    reports: list[PocReport] = []
    seen_ids: set[str] = set()
    # the labels of other sources match case-insensitively, as platform names do
    declared = (source.name, source.label.lower())
    for lineno, record in _source_records(path):
        error = _record_error(record)
        if error is not None:
            logger.warning("%s:%d: skipping record: %s", path, lineno, error)
            continue
        record_source = SourceId.parse(record["source"])
        if (record_source.name, record_source.label.lower()) != declared:
            logger.warning(
                "%s:%d: skipping record %r: source %r does not match declared %r",
                path, lineno, record["id"], record["source"], source.display(),
            )
            continue
        if record["id"] in seen_ids:
            logger.warning("%s:%d: skipping duplicate report id %r", path, lineno, record["id"])
            continue

        aspects = AspectSet()
        for field_name, slot in _RECORD_SLOT_FIELDS.items():
            values = _as_list(record.get(field_name))
            aspects = aspects.with_added(slot, aspect_values(str(v) for v in values))

        cve_ids: list[str] = []
        for raw_id in _as_list(record.get("cve_ids")):
            normalized = normalize_cve_id(str(raw_id))
            if normalized is None:
                logger.warning(
                    "%s:%d: dropping malformed CVE id %r on report %r",
                    path, lineno, raw_id, record["id"],
                )
            elif normalized not in cve_ids:
                cve_ids.append(normalized)

        seen_ids.add(record["id"])
        reports.append(
            PocReport(
                id=record["id"],
                source=source,
                raw_content=record["content"],
                cve_ids=tuple(cve_ids),
                aspects=aspects,
            )
        )
    return reports


def build_corpus(report_groups: Iterable[Iterable[PocReport]]) -> Corpus:
    """Merge per-source report lists; later duplicates of an id are dropped with a warning."""
    merged: list[PocReport] = []
    seen: set[str] = set()
    for group in report_groups:
        for report in group:
            if report.id in seen:
                logger.warning("dropping duplicate report id across files: %r", report.id)
                continue
            seen.add(report.id)
            merged.append(report)
    return Corpus(merged)


def ingest_cve_entries(path: str | Path) -> dict[str, CveEntry]:
    """Load a CVE dump file into a map keyed by canonical CVE id.

    Lines repeating a CVE id are merged by order-preserving set union of
    products, versions, and platforms. Entries with no products or a
    malformed id are skipped with a warning.
    """
    path = Path(path)
    # cve_id -> (product key -> (display name, version order-set)), platform order-set
    products: dict[str, dict[str, tuple[str, dict[str, None]]]] = {}
    platforms: dict[str, dict[str, None]] = {}
    order: dict[str, None] = {}
    for lineno, record in _source_records(path):
        cve_id = normalize_cve_id(str(record.get("cve_id", "")))
        if cve_id is None:
            logger.warning(
                "%s:%d: skipping entry with malformed cve_id %r",
                path, lineno, record.get("cve_id"),
            )
            continue
        raw_products = [
            p for p in record.get("products") or []
            if isinstance(p, dict) and str(p.get("name", "")).strip()
        ]
        if not raw_products:
            logger.warning("%s:%d: skipping %s: empty products list", path, lineno, cve_id)
            continue
        order.setdefault(cve_id, None)
        by_name = products.setdefault(cve_id, {})
        for product in raw_products:
            name = str(product["name"]).strip()
            display, versions = by_name.setdefault(name.lower(), (name, {}))
            for version in _as_list(product.get("versions")):
                versions.setdefault(str(version).strip(), None)
        plats = platforms.setdefault(cve_id, {})
        for platform in _as_list(record.get("platforms")):
            text = str(platform).strip()
            if text:
                plats.setdefault(text, None)

    entries: dict[str, CveEntry] = {}
    for cve_id in order:
        entry_products = tuple(
            CveProduct(display, tuple(v for v in versions if v))
            for display, versions in products[cve_id].values()
        )
        entries[cve_id] = CveEntry(cve_id, entry_products, tuple(platforms[cve_id]))
    return entries


# --- persistence -------------------------------------------------------------


def jsonl_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of a JSON-lines text with their 1-based numbers.

    Lines end at ``"\\n"`` only: :func:`write_jsonl` writes U+2028, U+2029
    and U+0085 raw, and ``str.splitlines`` would break at them. A trailing
    ``"\\r"`` is JSON whitespace, so CRLF files load too."""
    return [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]


def json_object(text: str) -> dict:
    """Decode one record of a JSON file; ``ValueError`` unless it is an object."""
    value = json.loads(text)
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value


def format_mismatch(header: dict, fmt: str, version: int) -> str | None:
    """Why a versioned file's header is not ``fmt`` at ``version``, or None."""
    if header.get("format") == fmt and header.get("version") == version:
        return None
    return (
        f"file declares format {header.get('format')!r} version "
        f"{header.get('version')!r}, this build reads {fmt!r} version {version!r}"
    )


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON object per line, every line newline-terminated; no
    records give an empty file. Every JSONL file the pipeline writes goes
    through here."""
    text = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)
    Path(path).write_text(text, encoding="utf-8")


# bad shape, field type or field value, or a bad regular expression
_DECODE_ERRORS = (KeyError, ValueError, TypeError, AttributeError, re.error)


def read_jsonl(
    path: str | Path, decode: Callable[[dict], _T], header: dict | None = None
) -> list[_T]:
    """Decode every non-blank line of a file written by :func:`write_jsonl`.

    With ``header`` (``{"format": ..., "version": ...}``), line 1 must be a
    matching format header, and its other items are filled into ``header``.
    Bytes that are not UTF-8, a header that does not match, a line that is
    not a JSON object, or one that ``decode`` rejects raise
    :class:`CorpusError` naming ``path:lineno``."""
    data = Path(path).read_bytes()
    try:
        lines = jsonl_lines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CorpusError(f"{path}:{lineno}: not valid UTF-8: {exc.reason}") from exc
    if header is not None:
        if not lines or lines[0][0] != 1:
            raise CorpusError(f"{path}:1: expected a format header")
        try:
            found = json_object(lines.pop(0)[1])
        except ValueError as exc:
            raise CorpusError(f"{path}:1: unreadable header: {exc}") from exc
        mismatch = format_mismatch(found, header["format"], header["version"])
        if mismatch is not None:
            raise CorpusError(f"{path}:1: {mismatch}")
        header.update(found)
    records = []
    for lineno, line in lines:
        try:
            records.append(decode(json_object(line)))
        except _DECODE_ERRORS as exc:
            raise CorpusError(f"{path}:{lineno}: broken record: {exc}") from exc
    return records


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus to a versioned container file (canonical serialization)."""
    for report in corpus:
        report.aspects.validate()
    header = {"format": CORPUS_FORMAT, "version": CORPUS_VERSION}
    write_jsonl(path, [header, *(report.encode() for report in corpus)])


def _decode_report(data: dict) -> PocReport:
    report = PocReport.decode(data)
    report.aspects.validate()
    return report


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus saved by :func:`save_corpus`, checking the format version."""
    header = {"format": CORPUS_FORMAT, "version": CORPUS_VERSION}
    reports = read_jsonl(path, _decode_report, header)
    try:
        return Corpus(reports)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def save_cve_db(entries: dict[str, CveEntry], path: str | Path) -> None:
    """Persist a normalized CVE map in the same shape the ingest format uses."""
    write_jsonl(path, (entry.encode() for _, entry in sorted(entries.items())))


def load_cve_db(path: str | Path) -> dict[str, CveEntry]:
    """Load a CVE map saved by :func:`save_cve_db`; a broken line is an error."""
    return {entry.cve_id: entry for entry in read_jsonl(path, CveEntry.decode)}
