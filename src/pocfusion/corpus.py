"""Core domain types plus loading, validation, and persistence of PoC corpora.

A corpus is an immutable collection of PoC reports. Pipeline stages never
mutate a corpus in place; they produce a new one. All input and persisted
files are UTF-8 JSON Lines.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, TypeVar

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


# every alias, each display name lowercased among them, -> the display name
_SOURCE_ALIASES = {
    "exploitdb": "ExploitDB",
    "exploit-db": "ExploitDB",
    "packetstorm": "PacketStorm",
    "packet storm": "PacketStorm",
    "packet_storm": "PacketStorm",
    "seebug": "Seebug",
    "cxsecurity": "CXSecurity",
}


def source_name(text: str) -> str:
    """The canonical name of a report's source: the display name of one of
    the four supported platforms for any of its aliases, in any case and
    padding, else the text itself, stripped. Blank text is a ``ValueError``."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("source name is empty")
    return _SOURCE_ALIASES.get(stripped.lower(), stripped)


class SourceId:
    """``bench/tests/test_bench.py`` still imports this name: ``parse`` is
    :func:`source_name`. It goes with that benchmark's next change."""

    parse = staticmethod(source_name)


class ContentKind(Enum):
    """What a report's content is: not yet classified, prose, or code in one
    of the nine recognized languages. Each value is the string files hold;
    the languages are declared in the order that breaks detection ties."""

    UNCLASSIFIED = "unclassified"
    TEXT = "text"
    C_CPP = "code:c_cpp"
    HTML = "code:html"
    JAVA = "code:java"
    JAVASCRIPT = "code:javascript"
    PERL = "code:perl"
    PHP = "code:php"
    PYTHON = "code:python"
    RUBY = "code:ruby"
    SHELL = "code:shell"

    @property
    def is_code(self) -> bool:
        return self.value.startswith("code:")

    def encode(self) -> str:
        return self.value

    @classmethod
    def decode(cls, text: str) -> "ContentKind":
        return cls(text)


# --- provenance ------------------------------------------------------------


@dataclass(frozen=True)
class Original:
    """Value present in (or extracted verbatim from) the source record."""

    def encode(self) -> dict:
        return {"kind": "original"}


def is_canonical_cve_id(value: object) -> bool:
    """True for a string that is a CVE id in canonical form."""
    return type(value) is str and normalize_cve_id(value) == value


@dataclass(frozen=True, slots=True)
class FromCve:
    """Value completed from a linked CVE entry."""

    cve_id: str

    def __post_init__(self) -> None:
        if not is_canonical_cve_id(self.cve_id):
            raise ValueError(f"non-canonical CVE id: {self.cve_id!r}")

    def encode(self) -> dict:
        return {"kind": "from_cve", "cve_id": self.cve_id}


def check_unit_number(name: str, value: object) -> None:
    """``ValueError`` unless ``value`` is a number in [0, 1]: an int or a
    float, as JSON decodes a number. A bool, which Python counts as an int,
    is refused."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} is not a number: {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} out of range: {value}")


@dataclass(frozen=True)
class SharedCve:
    """The basis of a link between two reports carrying one CVE id: that id.
    A link the pair classifier made has the basis None."""

    cve_id: str

    def __post_init__(self) -> None:
        if not is_canonical_cve_id(self.cve_id):
            raise ValueError(f"non-canonical CVE id: {self.cve_id!r}")


def check_basis(basis: object) -> None:
    """``ValueError`` unless ``basis`` is a link basis: a SharedCve or None."""
    if basis is not None and type(basis) is not SharedCve:
        raise ValueError(f"unknown link basis: {basis!r}")


def encode_basis(basis: SharedCve | None) -> str:
    """The one text form of a link basis, in links and in provenance alike:
    ``shared_cve:<CVE-ID>``, or ``classifier`` for None."""
    return "classifier" if basis is None else f"shared_cve:{basis.cve_id}"


def decode_basis(text: object) -> SharedCve | None:
    if text == "classifier":
        return None
    if type(text) is not str or not text.startswith("shared_cve:"):
        raise ValueError(f"unknown link basis: {text!r}")
    return SharedCve(text.removeprefix("shared_cve:"))


@dataclass(frozen=True, slots=True)
class FromPoc:
    """Value donated by a related PoC report, over a link of ``basis``."""

    donor_id: str
    similarity: float
    basis: SharedCve | None

    def __post_init__(self) -> None:
        if type(self.donor_id) is not str or not self.donor_id:
            raise ValueError(f"donor id is not a non-empty string: {self.donor_id!r}")
        check_unit_number("similarity", self.similarity)
        check_basis(self.basis)

    def encode(self) -> dict:
        return {
            "kind": "from_poc",
            "donor_id": self.donor_id,
            "similarity": self.similarity,
            "basis": encode_basis(self.basis),
        }


Provenance = Original | FromCve | FromPoc
# the encoded kinds of a completed value's provenance, in table order
ORIGIN_KINDS = ("from_cve", "from_poc")

ORIGINAL = Original()


def decode_provenance(data: dict) -> Provenance:
    kind = data.get("kind")
    if kind == "original":
        return ORIGINAL
    if kind == "from_cve":
        return FromCve(data["cve_id"])
    if kind == "from_poc":
        return FromPoc(data["donor_id"], data["similarity"], decode_basis(data["basis"]))
    raise CorpusError(f"unknown provenance kind: {kind!r}")


# --- aspects ---------------------------------------------------------------


def _dedup_key(text: str) -> str:
    return text.strip().lower()


@dataclass(frozen=True, slots=True)
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
    share the same case-insensitively trimmed text; a set that breaks this
    is refused when it is built, with :class:`CorpusError`."""

    trigger_step: tuple[AspectValue, ...] = ()
    verification_oracle: tuple[AspectValue, ...] = ()
    test_platform: tuple[AspectValue, ...] = ()
    software_version: tuple[AspectValue, ...] = ()
    title: tuple[AspectValue, ...] = ()
    author: tuple[AspectValue, ...] = ()
    publish_time: tuple[AspectValue, ...] = ()
    reference: tuple[AspectValue, ...] = ()

    def __post_init__(self) -> None:
        for slot in ASPECT_SLOTS:
            values = getattr(self, slot)
            if len(values) > 1 and len({_dedup_key(v.text) for v in values}) != len(values):
                raise CorpusError(f"duplicate values in slot {slot}")

    def values(self, slot: str) -> tuple[AspectValue, ...]:
        if slot not in ASPECT_SLOTS:
            raise KeyError(slot)
        return getattr(self, slot)

    def texts(self, slot: str) -> list[str]:
        return [v.text for v in self.values(slot)]

    def with_added(self, /, **additions: Iterable[AspectValue]) -> "AspectSet":
        """Append values to slots, given as one keyword argument per slot,
        skipping case-insensitive trim duplicates. One new set holds every
        slot's additions; ``self`` is returned when none is new."""
        changed = {}
        for slot, values in additions.items():
            current = self.values(slot)
            kept = {_dedup_key(v.text): v for v in current}
            for value in values:
                kept.setdefault(_dedup_key(value.text), value)
            if len(kept) > len(current):
                changed[slot] = tuple(kept.values())
        return replace(self, **changed) if changed else self

    def filled_slots(self) -> list[str]:
        return [slot for slot in ASPECT_SLOTS if self.values(slot)]

    def original_values(self, slot: str) -> tuple[AspectValue, ...]:
        return tuple(v for v in self.values(slot) if isinstance(v.provenance, Original))

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
    source: str
    raw_content: str
    content_kind: ContentKind = ContentKind.UNCLASSIFIED
    cve_ids: tuple[str, ...] = ()
    aspects: AspectSet = field(default_factory=AspectSet)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("report id is empty")
        if source_name(self.source) != self.source:
            raise ValueError(f"non-canonical source on report {self.id}: {self.source!r}")
        for cve_id in self.cve_ids:
            if not is_canonical_cve_id(cve_id):
                raise ValueError(f"non-canonical CVE id on report {self.id}: {cve_id!r}")

    def encode(self) -> dict:
        return {
            "id": self.id,
            "source": self.source,
            "content": self.raw_content,
            "content_kind": self.content_kind.encode(),
            "cve_ids": list(self.cve_ids),
            "aspects": self.aspects.encode(),
        }

    @classmethod
    def decode(cls, data: dict) -> "PocReport":
        return cls(
            id=data["id"],
            source=source_name(data["source"]),
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
        if not is_canonical_cve_id(self.cve_id):
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
#
# Outside input is read through one table per input kind: field -> its shape.
# Other fields are ignored. A one-value shape takes a string, and a value of
# any other type skips the record: absent or null reads as None (ONE) or skips
# the record (REQUIRED; NONBLANK also when blank). MANY takes one value or a
# list of strings and numbers, LIST a list of objects (any other value skips
# the record); there a value of another type is skipped alone, and null items
# are dropped. Types match exactly, so a boolean is no number.
ONE, REQUIRED, NONBLANK, MANY, LIST = "one", "required", "nonblank", "many", "list"
_ACCEPTS = {ONE: (str,), REQUIRED: (str,), NONBLANK: (str,), MANY: (str, int, float), LIST: (dict,)}
_TYPE_NAMES = {str: "a string", int: "a number", float: "a number", dict: "an object"}

SOURCE_RECORD = {
    "id": NONBLANK,
    "source": NONBLANK,
    "content": REQUIRED,
    **dict.fromkeys([*_RECORD_SLOT_FIELDS, "cve_ids"], MANY),
}
CVE_ENTRY = {"cve_id": REQUIRED, "products": LIST, "platforms": MANY}  # products by PRODUCT
PRODUCT = {"name": ONE, "versions": MANY}


@dataclass
class Skipped:
    """What ingest left out of outside input: whole records (source records,
    CVE entries and products) and single values, each counted as its one
    warning is logged, and the lone surrogates it read as U+FFFD."""

    records: int = 0
    values: int = 0
    lone_surrogates: int = 0

    def record(self, message: str, *args: object) -> None:
        logger.warning(message, *args)
        self.records += 1

    def value(self, message: str, *args: object) -> None:
        logger.warning(message, *args)
        self.values += 1


def _read_fields(
    table: dict, record: dict, where: str, skipped: Skipped, kind: str = "record"
) -> dict | None:
    """The fields of an outside ``record`` of ``kind`` that ``table`` names:
    one-value shapes read as a value or None, the others as the list of values
    kept. None when the record is skipped. Each value or record skipped logs
    one warning naming ``where`` (``file:line``), the field and the value."""
    fields = {}
    try:
        for name, shape in table.items():
            value, accepts = record.get(name), _ACCEPTS[shape]
            if value is None and shape in (REQUIRED, NONBLANK):
                raise ValueError(f"missing required field {name!r}")
            if shape == LIST and type(value) not in (list, type(None)):
                raise ValueError(f"{name} {value!r} is not a list")
            many = shape in (MANY, LIST)
            kept = []
            for item in value if many and type(value) is list else [value]:
                if item is None:
                    continue
                if type(item) not in accepts:
                    why = "not " + " or ".join(dict.fromkeys(_TYPE_NAMES[t] for t in accepts))
                    if not many:
                        raise ValueError(f"{name} {item!r} is {why}")
                    skipped.value("%s: skipping %s value %r: %s", where, name, item, why)
                elif shape == NONBLANK and not item.strip():
                    raise ValueError(f"empty {name}")
                else:
                    kept.append(item)
            fields[name] = kept if many else next(iter(kept), None)
    except ValueError as exc:
        skipped.record("%s: skipping %s: %s", where, kind, exc)
        return None
    return fields


def _source_records(path: Path, table: dict, skipped: Skipped) -> Iterator[tuple[int, dict]]:
    """The records of a source file, each read by ``table``, with their line
    numbers. Source files are read leniently: a leading byte-order mark is
    dropped, bad UTF-8 bytes become U+FFFD, and so do lone surrogates that
    ``\\u`` escapes decode to, with one warning per record. A line that is not
    a JSON object is skipped with a warning. Lines are read one at a time and
    end at ``"\\n"`` only, as in :func:`read_jsonl`."""
    with path.open("rb") as handle:
        for lineno, data in enumerate(handle, start=1):
            line = data.decode("utf-8", errors="replace").removesuffix("\n")
            if lineno == 1:
                line = line.removeprefix("\ufeff")
            if not line.strip():
                continue
            try:
                record = json_object(line)
            except ValueError as exc:
                skipped.record("%s:%d: skipping malformed record: %s", path, lineno, exc)
                continue
            if "\\u" in line:  # no UTF-8 text holds a surrogate; only an escape decodes to one
                dumped = json.dumps(record, ensure_ascii=False)
                dumped, count = re.subn("[\ud800-\udfff]", "\ufffd", dumped)
                if count:
                    logger.warning(
                        "%s:%d: %d lone surrogate(s) read as U+FFFD", path, lineno, count
                    )
                    skipped.lone_surrogates += count
                    record = json.loads(dumped)
            fields = _read_fields(table, record, f"{path}:{lineno}", skipped)
            if fields is not None:
                yield lineno, fields


def ingest_reports(
    path: str | Path,
    source: str,
    skipped: Skipped | None = None,
    seen_ids: set[str] | None = None,
) -> list[PocReport]:
    """Load one source's report file, read by :data:`SOURCE_RECORD`, into
    unclassified reports. A record is kept when its ``source`` and the
    declared source canonicalize by :func:`source_name` to the same name,
    ignoring case, and its id is not in ``seen_ids``, which holds the ids
    kept so far, from this file and from earlier files sharing the set. Its
    optional fields fill aspect slots with Original provenance; a malformed
    CVE id is dropped. What is skipped is counted in ``skipped``."""
    path = Path(path)
    skipped = Skipped() if skipped is None else skipped
    seen_ids = set() if seen_ids is None else seen_ids
    reports: list[PocReport] = []
    source = source_name(source)
    declared = source.lower()
    for lineno, fields in _source_records(path, SOURCE_RECORD, skipped):
        if source_name(fields["source"]).lower() != declared:
            skipped.record(
                "%s:%d: skipping record %r: source %r does not match declared %r",
                path, lineno, fields["id"], fields["source"], source,
            )
            continue
        if fields["id"] in seen_ids:
            skipped.record("%s:%d: skipping duplicate report id %r", path, lineno, fields["id"])
            continue

        cve_ids: list[str] = []
        for raw_id in fields["cve_ids"]:
            normalized = normalize_cve_id(str(raw_id))
            if normalized is None:
                skipped.value(
                    "%s:%d: dropping malformed CVE id %r on report %r",
                    path, lineno, raw_id, fields["id"],
                )
            elif normalized not in cve_ids:
                cve_ids.append(normalized)

        seen_ids.add(fields["id"])
        reports.append(
            PocReport(
                id=fields["id"],
                source=source,
                raw_content=fields["content"],
                cve_ids=tuple(cve_ids),
                aspects=AspectSet().with_added(**{
                    slot: aspect_values(str(v) for v in fields[name])
                    for name, slot in _RECORD_SLOT_FIELDS.items()
                }),
            )
        )
    return reports


def ingest_cve_entries(path: str | Path, skipped: Skipped | None = None) -> dict[str, CveEntry]:
    """Load a CVE dump file, read by :data:`CVE_ENTRY` and :data:`PRODUCT`,
    into a map keyed by canonical CVE id. An entry with a malformed id or no
    named product is skipped; a product whose name is null or blank is
    dropped. Lines repeating a CVE id are merged by order-preserving set
    union of products, versions, and platforms. What is skipped is counted
    in ``skipped``."""
    path = Path(path)
    skipped = Skipped() if skipped is None else skipped
    # cve_id -> (product key -> (display name, version order-set), platform order-set)
    merged: dict[str, tuple[dict[str, tuple[str, dict[str, None]]], dict[str, None]]] = {}
    for lineno, fields in _source_records(path, CVE_ENTRY, skipped):
        cve_id = normalize_cve_id(fields["cve_id"])
        if cve_id is None:
            skipped.record(
                "%s:%d: skipping entry with malformed cve_id %r", path, lineno, fields["cve_id"]
            )
            continue
        named = []  # (name, product) of the products with a name
        for item in fields["products"]:
            product = _read_fields(PRODUCT, item, f"{path}:{lineno}", skipped, "product")
            if product is not None and (name := (product["name"] or "").strip()):
                named.append((name, product))
        if not named:
            skipped.record("%s:%d: skipping %s: empty products list", path, lineno, cve_id)
            continue
        by_name, platforms = merged.setdefault(cve_id, ({}, {}))
        for name, product in named:
            display, versions = by_name.setdefault(name.lower(), (name, {}))
            for version in product["versions"]:
                versions.setdefault(str(version).strip(), None)
        for platform in fields["platforms"]:
            if text := str(platform).strip():
                platforms.setdefault(text, None)
    return {
        cve_id: CveEntry(cve_id, tuple(
            CveProduct(display, tuple(v for v in versions if v))
            for display, versions in by_name.values()
        ), tuple(platforms))
        for cve_id, (by_name, platforms) in merged.items()
    }


# --- persistence -------------------------------------------------------------


def _not_json(constant: str) -> NoReturn:
    raise ValueError(f"{constant} is not a JSON value")


def _finite(number: str) -> float:
    value = float(number)
    if math.isinf(value):
        raise ValueError(f"{number} is not a finite number")
    return value


_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_not_json)

# Nesting that every file and answer stays within, the outermost object
# being level 1. It is well below the recursion limit, so a decoded value
# can be walked and logged from any stage.
MAX_JSON_DEPTH = 100


def json_object(text: str) -> dict:
    """Decode one record of a JSON file; ``ValueError`` unless it is an
    object of standard JSON, without ``NaN``, ``Infinity`` or a number that
    overflows a float, nested no deeper than :data:`MAX_JSON_DEPTH`."""
    try:
        value = _DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    # a value nests no deeper than its text has opening brackets
    if text.count("[") + text.count("{") > MAX_JSON_DEPTH:
        level = [value]
        for _ in range(MAX_JSON_DEPTH):
            level = [
                item
                for container in level
                for item in (container.values() if type(container) is dict else container)
                if type(item) in (dict, list)
            ]
        if level:
            raise ValueError("JSON nested too deeply to decode")
    return value


# Failed calls in a row after which a service client stops calling.
BREAKER_LIMIT = 5


class ServiceClient:
    """A client of an optional HTTP service that answers JSON objects.

    :meth:`_call` posts one request within ``deadline`` seconds, decodes the
    answer with :func:`json_object` and passes it to the client's contract
    check. A failed call logs one warning, adds its key to ``degraded`` and
    gives None, and the client's ``fallback`` answers instead. After
    :data:`BREAKER_LIMIT` failures in a row the client stops calling, and
    every key it skips is degraded too; only a success of a call already in
    flight, from another thread, resets the count then."""

    def __init__(self, url: str, fallback, deadline: float = 10.0):
        import threading

        self.url = url
        self.fallback = fallback
        self.deadline = deadline
        self.degraded: list = []
        self._failures = 0
        self._lock = threading.Lock()

    def _call(self, key, payload: dict, check: Callable[[dict], _T]) -> _T | None:
        if self._failures < BREAKER_LIMIT:
            import requests  # only runs that call a service pay for the import

            try:
                response = requests.post(self.url, json=payload, timeout=self.deadline)
                response.raise_for_status()
                answer = check(json_object(response.text))
                with self._lock:
                    self._failures = 0
                return answer
            except (requests.RequestException, ValueError, KeyError, TypeError) as exc:
                name = type(self).__name__
                logger.warning("%s failed for %s, using its fallback: %s", name, key, exc)
                with self._lock:
                    self._failures += 1
                    if self._failures == BREAKER_LIMIT:
                        logger.warning("%s stops calling after %d failures", name, BREAKER_LIMIT)
        self.degraded.append(key)
        return None


def format_mismatch(header: dict, fmt: str, version: int) -> str | None:
    """Why a versioned file's header is not ``fmt`` at ``version``, or None."""
    if header.get("format") == fmt and header.get("version") == version:
        return None
    return (
        f"file declares format {header.get('format')!r} version "
        f"{header.get('version')!r}, this build reads {fmt!r} version {version!r}"
    )


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the UTF-8 encoding of ``chunks`` to ``<name>.tmp`` beside
    ``path``, then move it onto ``path``. A reader never sees a half-written
    file: if anything raises, the previous file keeps its bytes and the
    ``.tmp`` file is removed. Every output a stage writes into a workspace
    goes through here."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            for chunk in chunks:
                handle.write(chunk.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON object per line, every line newline-terminated; no
    records give an empty file. Every JSONL file the pipeline writes goes
    through here."""
    write_atomic(path, (json.dumps(record, ensure_ascii=False) + "\n" for record in records))


# bad shape, field type or field value, or a bad regular expression
_DECODE_ERRORS = (KeyError, ValueError, TypeError, AttributeError, re.error)


def read_jsonl(
    path: str | Path, decode: Callable[[dict], _T], header: dict | None = None
) -> list[_T]:
    """Decode every non-blank line of a file written by :func:`write_jsonl`,
    reading one line at a time. Lines end at ``"\\n"`` only: U+2028, U+2029
    and U+0085, which :func:`write_jsonl` writes raw, stay inside their line,
    and a trailing ``"\\r"`` is JSON whitespace, so CRLF files load too.

    With ``header`` (``{"format": ..., "version": ...}``), line 1 must be a
    matching format header, and its other items are filled into ``header``.
    Bytes that are not UTF-8, a header that does not match, a line that is
    not a JSON object, or one that ``decode`` rejects raise
    :class:`CorpusError` naming ``path:lineno`` of the first such line."""
    records = []
    with Path(path).open("rb") as handle:
        for lineno, data in enumerate(handle, start=1):
            try:
                line = data.decode("utf-8").removesuffix("\n")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: not valid UTF-8: {exc.reason}") from exc
            if lineno == 1 and header is not None:
                if not line.strip():
                    raise CorpusError(f"{path}:1: expected a format header")
                try:
                    found = json_object(line)
                except ValueError as exc:
                    raise CorpusError(f"{path}:1: unreadable header: {exc}") from exc
                mismatch = format_mismatch(found, header["format"], header["version"])
                if mismatch is not None:
                    raise CorpusError(f"{path}:1: {mismatch}")
                header.update(found)
            elif line.strip():
                try:
                    records.append(decode(json_object(line)))
                except _DECODE_ERRORS as exc:
                    raise CorpusError(f"{path}:{lineno}: broken record: {exc}") from exc
        if header is not None and handle.tell() == 0:  # an empty file has no line 1
            raise CorpusError(f"{path}:1: expected a format header")
    return records


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus to a versioned container file, encoding each report as it is written."""
    header = {"format": CORPUS_FORMAT, "version": CORPUS_VERSION}
    write_jsonl(path, chain([header], (report.encode() for report in corpus)))


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus saved by :func:`save_corpus`, checking the format version."""
    header = {"format": CORPUS_FORMAT, "version": CORPUS_VERSION}
    reports = read_jsonl(path, PocReport.decode, header)
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
