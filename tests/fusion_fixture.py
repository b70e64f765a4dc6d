"""Hand-built completion scenario: six reports, three CVE entries, four links.

Every record the engine should emit was worked out by hand below and is
frozen in EXPECTED_RECORD_ROWS in engine emission order. The scenario covers
version append to a partially filled slot (r1), completion of empty slots
(r2..r4), an entry without platforms (CVE-2019-2222), a failed product-name
check (r5 vs CVE-2021-3333), donation over shared-CVE and classifier links
in both directions, and one shared-CVE link under its threshold (L4).
"""

from pocfusion import (
    Corpus,
    CveEntry,
    FromCve,
    FromPoc,
    PocLink,
    PocReport,
    SharedCve,
    aspect_values,
)
from pocfusion.corpus import AspectSet, ContentKind, CveProduct

PY = ContentKind.PYTHON
CC = ContentKind.C_CPP
TEXT = ContentKind.decode("text")


def _aspects(**slots):
    out = AspectSet()
    for slot, texts in slots.items():
        out = out.with_added(**{slot: aspect_values(texts)})
    return out


def build_reports() -> Corpus:
    src = "ExploitDB"
    return Corpus(
        [
            PocReport(
                id="r1",
                source=src,
                raw_content="import socket\ns = socket.socket()\n",
                content_kind=PY,
                cve_ids=("CVE-2020-1111",),
                aspects=_aspects(
                    title=["AlphaServ 2.0 - Remote Overflow"],
                    software_version=["2.0"],
                    trigger_step=["run poc.py against the target"],
                    author=["alice"],
                ),
            ),
            PocReport(
                id="r2",
                source=src,
                raw_content="import socket\npayload = b'A' * 2000\n",
                content_kind=PY,
                cve_ids=("CVE-2020-1111",),
                aspects=_aspects(
                    title=["AlphaServ 2.1 - Remote Overflow (take two)"],
                    verification_oracle=["shell on port 4444"],
                ),
            ),
            PocReport(
                id="r3",
                source=src,
                raw_content="The comment field reflects script tags unescaped.",
                content_kind=TEXT,
                cve_ids=("CVE-2019-2222",),
                aspects=_aspects(
                    title=["BetaCMS 1.5 Stored XSS"],
                    author=["bob"],
                    publish_time=["2019-08-01"],
                    reference=["https://example.org/betacms-advisory"],
                ),
            ),
            PocReport(
                id="r4",
                source=src,
                raw_content="Any visitor hitting the page executes the payload.",
                content_kind=TEXT,
                cve_ids=("CVE-2019-2222",),
                aspects=_aspects(
                    trigger_step=["inject script tag via comment field"],
                ),
            ),
            PocReport(
                id="r5",
                source=src,
                raw_content="int main() { crash(); }\n",
                content_kind=CC,
                cve_ids=("CVE-2021-3333",),
                aspects=_aspects(title=["OtherTool 9 - DoS"]),
            ),
            PocReport(
                id="r6",
                source=src,
                raw_content="int main() { overflow(); }\n",
                content_kind=CC,
                aspects=_aspects(
                    title=["GammaD 3.1 - Heap Overflow"],
                    software_version=["3.1"],
                    test_platform=["Linux"],
                    author=["carol"],
                    trigger_step=["compile and run"],
                    reference=["https://example.org/gammad"],
                ),
            ),
        ]
    )


def build_entries() -> dict[str, CveEntry]:
    entries = [
        CveEntry(
            "CVE-2020-1111",
            products=(CveProduct("AlphaServ", ("2.0", "2.1")),),
            platforms=("Windows",),
        ),
        CveEntry(
            "CVE-2019-2222",
            products=(CveProduct("BetaCMS", ("1.5",)),),
            platforms=(),
        ),
        CveEntry(
            "CVE-2021-3333",
            products=(CveProduct("GammaD", ("3.1",)),),
            platforms=("Linux", "FreeBSD"),
        ),
    ]
    return {e.cve_id: e for e in entries}


def build_links(with_below_threshold: bool = True) -> list[PocLink]:
    links = [
        PocLink("r1", "r2", SharedCve("CVE-2020-1111"), 0.82, ContentKind.PYTHON),
        PocLink("r3", "r4", SharedCve("CVE-2019-2222"), 0.96, TEXT),
        PocLink("r5", "r6", None, 0.9, ContentKind.C_CPP),
    ]
    if with_below_threshold:
        links.append(
            PocLink("r1", "r3", SharedCve("CVE-2020-1111"), 0.4, ContentKind.PYTHON)
        )
    return links


_L1 = FromPoc("r1", 0.82, SharedCve("CVE-2020-1111"))
_L1R = FromPoc("r2", 0.82, SharedCve("CVE-2020-1111"))
_L2 = FromPoc("r3", 0.96, SharedCve("CVE-2019-2222"))
_L2R = FromPoc("r4", 0.96, SharedCve("CVE-2019-2222"))
_L3 = FromPoc("r6", 0.9, None)

# (target, slot, value, origin) in engine emission order: the CVE pass walks
# reports r1..r6 appending versions before platforms, then the donation pass
# walks links by falling similarity, each link donating a->b then b->a.
EXPECTED_RECORD_ROWS = [
    ("r1", "software_version", "2.1", FromCve("CVE-2020-1111")),
    ("r1", "test_platform", "Windows", FromCve("CVE-2020-1111")),
    ("r2", "software_version", "2.0", FromCve("CVE-2020-1111")),
    ("r2", "software_version", "2.1", FromCve("CVE-2020-1111")),
    ("r2", "test_platform", "Windows", FromCve("CVE-2020-1111")),
    ("r3", "software_version", "1.5", FromCve("CVE-2019-2222")),
    ("r4", "software_version", "1.5", FromCve("CVE-2019-2222")),
    ("r3", "trigger_step", "inject script tag via comment field", _L2R),
    ("r4", "title", "BetaCMS 1.5 Stored XSS", _L2),
    ("r4", "author", "bob", _L2),
    ("r4", "publish_time", "2019-08-01", _L2),
    ("r4", "reference", "https://example.org/betacms-advisory", _L2),
    ("r5", "trigger_step", "compile and run", _L3),
    ("r5", "test_platform", "Linux", _L3),
    ("r5", "software_version", "3.1", _L3),
    ("r5", "author", "carol", _L3),
    ("r5", "reference", "https://example.org/gammad", _L3),
    ("r1", "verification_oracle", "shell on port 4444", _L1R),
    ("r2", "trigger_step", "run poc.py against the target", _L1),
    ("r2", "author", "alice", _L1),
]

EXPECTED_FAILED_ASSOCIATIONS = [("r5", "CVE-2021-3333")]

# slot -> list of (text, origin) per report after the run, append order
EXPECTED_ENRICHED = {
    "r1": {
        "trigger_step": [("run poc.py against the target", None)],
        "verification_oracle": [("shell on port 4444", _L1R)],
        "test_platform": [("Windows", FromCve("CVE-2020-1111"))],
        "software_version": [("2.0", None), ("2.1", FromCve("CVE-2020-1111"))],
        "title": [("AlphaServ 2.0 - Remote Overflow", None)],
        "author": [("alice", None)],
    },
    "r2": {
        "trigger_step": [("run poc.py against the target", _L1)],
        "verification_oracle": [("shell on port 4444", None)],
        "test_platform": [("Windows", FromCve("CVE-2020-1111"))],
        "software_version": [
            ("2.0", FromCve("CVE-2020-1111")),
            ("2.1", FromCve("CVE-2020-1111")),
        ],
        "title": [("AlphaServ 2.1 - Remote Overflow (take two)", None)],
        "author": [("alice", _L1)],
    },
    "r3": {
        "trigger_step": [("inject script tag via comment field", _L2R)],
        "software_version": [("1.5", FromCve("CVE-2019-2222"))],
        "title": [("BetaCMS 1.5 Stored XSS", None)],
        "author": [("bob", None)],
        "publish_time": [("2019-08-01", None)],
        "reference": [("https://example.org/betacms-advisory", None)],
    },
    "r4": {
        "trigger_step": [("inject script tag via comment field", None)],
        "software_version": [("1.5", FromCve("CVE-2019-2222"))],
        "title": [("BetaCMS 1.5 Stored XSS", _L2)],
        "author": [("bob", _L2)],
        "publish_time": [("2019-08-01", _L2)],
        "reference": [("https://example.org/betacms-advisory", _L2)],
    },
    "r5": {
        "trigger_step": [("compile and run", _L3)],
        "test_platform": [("Linux", _L3)],
        "software_version": [("3.1", _L3)],
        "title": [("OtherTool 9 - DoS", None)],
        "author": [("carol", _L3)],
        "reference": [("https://example.org/gammad", _L3)],
    },
    "r6": {
        "trigger_step": [("compile and run", None)],
        "test_platform": [("Linux", None)],
        "software_version": [("3.1", None)],
        "title": [("GammaD 3.1 - Heap Overflow", None)],
        "author": [("carol", None)],
        "reference": [("https://example.org/gammad", None)],
    },
}


def check_enriched(corpus: Corpus) -> None:
    """Assert the corpus matches EXPECTED_ENRICHED exactly, slot by slot."""
    from pocfusion import ASPECT_SLOTS, ORIGINAL

    assert sorted(r.id for r in corpus) == sorted(EXPECTED_ENRICHED)
    for report in corpus:
        expected = EXPECTED_ENRICHED[report.id]
        for slot in ASPECT_SLOTS:
            got = [
                (v.text, None if v.provenance == ORIGINAL else v.provenance)
                for v in report.aspects.values(slot)
            ]
            assert got == expected.get(slot, []), (report.id, slot, got)
