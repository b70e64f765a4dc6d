import hashlib
import json
import re
import string
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pocfusion import (
    ASPECT_SLOTS,
    Corpus,
    DefaultStructuredExtractor,
    ExtractionError,
    PocReport,
    StructuredExtraction,
    aspect_values,
    categorize,
    evaluate_extraction,
    extract_all,
    extract_cve_ids,
    extract_references,
    extract_trigger_step,
    extract_verification_oracle,
    ingest_reports,
    precision_recall,
)
from pocfusion.corpus import ContentKind, CorpusError
from pocfusion import extract
from pocfusion.extract import SlotSpan, load_gold_annotations

from gold_corpus import GOLD_FIXTURES

EDB = "ExploitDB"
TEXT = ContentKind.decode("text")


def text_report(content, rid="r1", cve_ids=()):
    return PocReport(
        id=rid, source=EDB, raw_content=content, content_kind=TEXT, cve_ids=cve_ids
    )


# --- trigger step ---------------------------------------------------------------


def test_keyword_line_annexes_numbered_block():
    content = "Steps to reproduce:\n1. start server\n2. send payload\n\ndone\n"
    assert extract_trigger_step(content) == [
        "Steps to reproduce:\n1. start server\n2. send payload"
    ]


def test_standalone_run_needs_two_items():
    assert extract_trigger_step("intro\n1. only one item\nmore prose\n") == []
    assert extract_trigger_step("intro\n1. first\n2. second\n") == [
        "1. first\n2. second"
    ]


def test_keyword_annexes_single_item():
    content = "reproduce:\n1. flip the switch\n"
    assert extract_trigger_step(content) == ["reproduce:\n1. flip the switch"]


def test_keyword_line_alone_is_a_region():
    content = "Compile with gcc and run it twice.\n"
    assert extract_trigger_step(content) == ["Compile with gcc and run it twice."]


def test_misspelled_compile_keyword():
    assert extract_trigger_step("complie with: make all\n") == ["complie with: make all"]


def test_keyword_needs_word_boundary():
    assert extract_trigger_step("he overstepped the mark\n") == []
    assert extract_trigger_step("the dance has many steps indeed\n") == [
        "the dance has many steps indeed"
    ]


def test_numbering_must_be_consecutive():
    content = "1. first\n3. third\n"
    assert extract_trigger_step(content) == []


def test_lettered_run():
    content = "a) open the door\nb) walk in\nc) close it\n"
    assert extract_trigger_step(content) == [
        "a) open the door\nb) walk in\nc) close it"
    ]


def test_step_label_run():
    content = "Step 1: aim\nStep 2: fire\n"
    assert extract_trigger_step(content) == ["Step 1: aim\nStep 2: fire"]


def test_continuation_lines_extend_items():
    content = "1. pour the mixture\n   into the mold\n2. wait a day\n"
    assert extract_trigger_step(content) == [
        "1. pour the mixture\n   into the mold\n2. wait a day"
    ]


def test_blank_lines_tolerated_between_items():
    content = "1. first\n\n2. second\n"
    assert extract_trigger_step(content) == ["1. first\n\n2. second"]


def test_distant_items_split_runs():
    # six plain lines between the items exceed the allowed gap
    filler = "\n" * 6
    content = "1. first" + filler + "2. second\n"
    assert extract_trigger_step(content) == []


def test_overlapping_candidates_longest_wins():
    content = "How to reproduce\n1. one\n2. two\n3. three\n"
    # keyword region spans the full block; the standalone run is inside it
    assert extract_trigger_step(content) == [
        "How to reproduce\n1. one\n2. two\n3. three"
    ]


def test_two_disjoint_regions_in_document_order():
    content = "1. alpha\n2. beta\n\nmiddle prose\n\na) one\nb) two\n"
    assert extract_trigger_step(content) == [
        "1. alpha\n2. beta",
        "a) one\nb) two",
    ]


# --- verification oracle --------------------------------------------------------


def test_oracle_keyword_line_only():
    assert extract_verification_oracle("Expected output: root shell on port 4444\n") == [
        "Expected output: root shell on port 4444"
    ]


def test_oracle_with_indented_block():
    content = "PoC output:\n  uid=0(root)\n  gid=0(root)\nback to prose\n"
    assert extract_verification_oracle(content) == [
        "PoC output:\n  uid=0(root)\n  gid=0(root)"
    ]


def test_oracle_block_after_blank_line():
    content = "Expected output:\n\n    crash in parse()\n"
    assert extract_verification_oracle(content) == [
        "Expected output:\n\n    crash in parse()"
    ]


def test_oracle_fenced_block():
    content = "expected output\n```\n$ whoami\nroot\n```\ntail\n"
    assert extract_verification_oracle(content) == [
        "expected output\n```\n$ whoami\nroot\n```"
    ]


def test_oracle_ignores_unindented_following_text():
    content = "Expected output:\nplain continuation at column zero\n"
    assert extract_verification_oracle(content) == ["Expected output:"]


def test_no_oracle_keyword():
    assert extract_verification_oracle("the server crashes\n") == []


# --- the keyword scan: one pass over the content finds the per-line matches ----

TRIGGER_WORDS = ("steps", "reproduce", "complie with", "compile with")
ORACLE_WORDS = ("expected output", "poc output")
DEMO = Path(__file__).resolve().parent.parent / "demo"


def per_line_keyword_lines(words, content):
    """The per-line scan the one-pass helper replaces: a search of every line
    for every keyword on its own."""
    regexes = [re.compile(r"\b" + re.escape(w) + r"\b", re.IGNORECASE) for w in words]
    return [
        lineno
        for lineno, line in enumerate(content.split("\n"))
        if any(r.search(line) for r in regexes)
    ]


def _keyword_fragments() -> list[str]:
    """Keywords in several cases, their halves, characters that match a
    keyword's letters only case-insensitively (long s, Kelvin sign), line
    ends, and word characters that can touch a keyword."""
    fragments = {"\n", "\r\n", "\r", " ", "_", "0", "7", "a", "x", "ſ", "K", "-", ":"}
    # dotted capital and dotless i match "i" ignoring case; the others do
    # not match an ASCII letter, and capital sigma lowers by context
    fragments |= {"İ", "ı", "é", "ß", "Σ"}
    for word in TRIGGER_WORDS + ORACLE_WORDS:
        half = len(word) // 2
        fragments |= {word, word.upper(), word.title(), word[:half], word[half:]}
    fragments |= {"ſteps", "STEPſ", "poc outpuT", "compile\nwith", "COMPİLE WİTH", "complıe wıth"}
    return sorted(fragments)


keyword_texts = st.lists(st.sampled_from(_keyword_fragments()), max_size=30).map("".join)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(keyword_texts)
def test_keyword_lines_equal_per_line_search(content):
    for pattern, words in (
        (extract._TRIGGER_KEYWORDS, TRIGGER_WORDS),
        (extract._ORACLE_KEYWORDS, ORACLE_WORDS),
    ):
        assert extract._keyword_lines(pattern, content) == per_line_keyword_lines(
            words, content
        )


def test_keyword_lines_at_line_edges():
    # a "\r" before the line break is no word character; "_" is one; the long
    # s matches "s" case-insensitively; a keyword does not span two lines
    content = "steps\r\nxsteps\nsteps_\nſTEPS 1\nPoC Output\n\nexpected\noutput"
    assert extract._keyword_lines(extract._TRIGGER_KEYWORDS, content) == [0, 3]
    assert extract._keyword_lines(extract._ORACLE_KEYWORDS, content) == [4]


# the list-marker grammar as three separate patterns, tried in order
STEP_LIST_PATTERNS = (
    re.compile(r"^[ \t]{0,8}(\d{1,3})[.)][ \t]+"),
    re.compile(r"^[ \t]{0,8}([a-z])\)[ \t]+"),
    re.compile(r"^[ \t]{0,8}[Ss][Tt][Ee][Pp][ \t]+(\d{1,3})[ \t]*[:.)][ \t]*"),
)


def ungated_step_items(lines):
    """Every line tried against the three list-marker patterns, with no gate
    in front of them."""
    items = []
    for lineno, line in enumerate(lines):
        for index, pattern in enumerate(STEP_LIST_PATTERNS):
            m = pattern.match(line)
            if m:
                marker = m.group(1)
                value = int(marker) if marker.isdigit() else ord(marker)
                items.append((lineno, index, value, len(line) - len(line.lstrip(" \t"))))
                break
    return items


# "٣" is a decimal digit that is not ASCII; "²" is a digit to str.isdigit but
# not to \d
STEP_FRAGMENTS = [
    "٣", "²", "1", "12", "a)", "z)", "A)", "é)", "Step 2:", "sTeP 3)", "step", "S", "s",
    ".", ")", ":", " ", "\t", "x",
]
step_lines = st.lists(
    st.tuples(
        st.text(alphabet=" \t", max_size=10),
        st.lists(st.sampled_from(STEP_FRAGMENTS), max_size=5).map("".join),
    ).map("".join),
    max_size=12,
)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(step_lines)
@example(["٣. x", "². x", "  a) y", "\t\tStep 2: z", "sTeP 3) w", "", " " * 9 + "1. deep"])
def test_gated_step_items_equal_the_three_pattern_loop(lines):
    assert extract._find_step_items(lines) == ungated_step_items(lines)


# --- the case fold: case-sensitive scans of it match as re.IGNORECASE does ---------


def test_fold_keeps_length_classes_and_ascii_letter_matches():
    """For every code point, the fold is one character with the same ``\\w``
    and ``\\s`` membership, a line break only for a line break, and ASCII
    letter L exactly where L matches the code point ignoring case."""
    step = 0x10000
    for low in range(0, sys.maxunicode + 1, step):
        chars = [chr(cp) for cp in range(low, min(low + step, sys.maxunicode + 1))]
        folds = [extract.fold_case(ch) for ch in chars]
        assert all(len(fold) == 1 for fold in folds), hex(low)
        text, folded = "".join(chars), "".join(folds)
        for pattern, flags in [(r"\w", 0), (r"\s", 0), ("\n", 0)] + [
            (letter, re.IGNORECASE) for letter in string.ascii_lowercase
        ]:
            expected = [m.start() for m in re.finditer(pattern, text, flags)]
            assert [m.start() for m in re.finditer(pattern, folded)] == expected, (hex(low), pattern)


def test_fold_of_a_final_sigma_keeps_its_length():
    # str.lower maps capital sigma by its context, to one letter either way
    assert extract.fold_case("ΑΣ Σ") == "ας σ"
    assert extract.fold_case("# TİTLE: ΑΣ") == "# title: ας"


def _demo_and_fixture_texts() -> list[str]:
    texts = []
    for path in sorted(DEMO.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            texts += [v for v in json.loads(line).values() if isinstance(v, str)]
    return texts + [fixture["content"] for fixture in GOLD_FIXTURES]


def test_regions_on_demo_and_fixtures_are_pinned(monkeypatch):
    texts = _demo_and_fixture_texts()
    regions = [[extract_trigger_step(t), extract_verification_oracle(t)] for t in texts]
    assert len(texts) == 120
    assert sum(len(trigger) for trigger, _oracle in regions) == 26
    assert sum(len(oracle) for _trigger, oracle in regions) == 18
    digest = hashlib.sha256(json.dumps(regions).encode()).hexdigest()
    assert digest == "a729e98a4c08cf339b8afe78e00e2426b97903e53293e742a27ccc0436fb6f44"
    # the same regions when the keyword lines come from the per-line scan
    words = {extract._TRIGGER_KEYWORDS: TRIGGER_WORDS, extract._ORACLE_KEYWORDS: ORACLE_WORDS}
    monkeypatch.setattr(
        extract,
        "_keyword_lines",
        lambda pattern, content: per_line_keyword_lines(words[pattern], content),
    )
    assert regions == [[extract_trigger_step(t), extract_verification_oracle(t)] for t in texts]


# --- references -----------------------------------------------------------------


def test_reference_trailing_punctuation():
    text = "see https://www.exploit-db.com/exploits/638."
    assert extract_references(text) == ["https://www.exploit-db.com/exploits/638"]


def test_reference_dedup_preserves_order():
    text = (
        "http://b.example/2 then https://a.example/1 then http://b.example/2 again"
    )
    assert extract_references(text) == ["http://b.example/2", "https://a.example/1"]


def test_reference_schemes():
    text = "ftp://mirror.example/patch.tgz and http://a.example"
    assert extract_references(text) == ["ftp://mirror.example/patch.tgz", "http://a.example"]
    # the scheme matches in any case; the URL keeps its own
    text = "See HTTPS://example.com/A and Http://x.org/b and https://ok.io/c"
    assert extract_references(text) == [
        "HTTPS://example.com/A", "Http://x.org/b", "https://ok.io/c",
    ]


def test_reference_requires_real_host():
    assert extract_references('u = "http://%s/path" % host') == []


def test_reference_parenthesized():
    assert extract_references("(https://x.example/a).") == ["https://x.example/a"]


def finditer_references(content):
    """extract_references as a plain finditer scan of the URL pattern,
    ignoring case."""
    seen = {}
    for match in re.compile(extract._URL_PATTERN.pattern, re.IGNORECASE).finditer(content):
        url = match.group(0).rstrip(extract._TRAILING_PUNCT)
        host = url.split("://", 1)[1]
        if host and host[0].isalnum():
            seen.setdefault(url, None)
    return list(seen)


URL_FRAGMENTS = [
    "http", "https", "ftp", "ftps", "HTTP", "Https", "FTP", "://", "ht", "tp", ":/", "//",
    "x.example", "/a", ".", ")", "<", '"', " ", "\n", "_", "0", "é", "ſ", "K",
]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(URL_FRAGMENTS), max_size=30).map("".join))
def test_references_equal_their_finditer_form(content):
    assert extract._URL_HEADS == ("http", "ftp")
    assert extract_references(content) == finditer_references(content)


# --- cve ids ----------------------------------------------------------------------


def test_dedicated_field_wins_over_body():
    report = text_report("body mentions CVE-1999-0001", cve_ids=("CVE-2020-11001",))
    assert extract_cve_ids(report) == ["CVE-2020-11001"]


def test_body_scan_when_no_dedicated_field():
    report = text_report("cve-2021-44228 (Log4Shell) and CVE-2021-44228 again")
    assert extract_cve_ids(report) == ["CVE-2021-44228"]


def test_body_scan_requires_full_prefix():
    report = text_report("issue 2021-44228 without prefix")
    assert extract_cve_ids(report) == []


# --- structured extraction -------------------------------------------------------


def extract_default(report):
    # extract_all does not check these spans: each must quote the content
    extraction = DefaultStructuredExtractor().extract(report)
    content = report.raw_content
    for spans in extraction.spans.values():
        for s in spans:
            assert content[s.start : s.end] == s.text, s
    return extraction


def test_header_block():
    report = text_report("Author: joeyj\nDate: 2003-05-07\nPlatform: Windows\n")
    spans = extract_default(report)
    assert spans.texts("author") == ["joeyj"]
    assert spans.texts("publish_time") == ["2003-05-07"]
    assert spans.texts("test_platform") == ["Windows"]
    assert spans.texts("title") == []


def test_header_comment_prefixes():
    for prefix, closer in [("# ", ""), ("// ", ""), ("/* ", " */"), ("<!-- ", " -->")]:
        report = text_report(f"{prefix}Author: kmv{closer}\n")
        assert extract_default(report).texts("author") == ["kmv"], prefix


def test_header_labels_case_insensitive():
    report = text_report("EXPLOIT TITLE: Big Bad Bug\n")
    assert extract_default(report).texts("title") == ["Big Bad Bug"]
    # dotless i, long s and dotted capital I match ASCII letters ignoring case
    report = text_report("# Tıtle: Foo\nPubliſhed: 2020-01-01\nTİTLE: x\n")
    spans = extract_default(report)
    assert spans.texts("title") == ["Foo", "x"]
    assert spans.texts("publish_time") == ["2020-01-01"]


# the header pattern as matched before the fold: case-insensitive over the
# content itself
IGNORECASE_HEADER_RE = re.compile(
    r"^[ \t]*[#;*/<!-]{0,8}[ \t]*("
    + "|".join(re.escape(label) for label in sorted(extract._LABEL_TO_SLOT))
    + r")[ \t]*:[ \t]*(\S.*)$",
    re.IGNORECASE | re.MULTILINE,
)


def _label_variants() -> list[str]:
    """Every label in several cases and with letters that match an ASCII
    letter only ignoring case, and words that are no label."""
    variants = {"titl", "authors", "Σ", "K", "é"}
    for label in extract._LABEL_TO_SLOT:
        variants |= {label, label.upper(), label.title(), label.replace("s", "ſ")}
        variants |= {label.replace("i", "ı"), label.upper().replace("I", "İ")}
    return sorted(variants)


# lines made of a comment prefix, a label, a separator and a value, or parts
# of them, ended by a line break or run into the next
header_line = st.tuples(
    st.sampled_from(["", " ", "\t", "#", "# ", "//", "/* ", "<!-- ", "* ", "-- ", "x", "é"]),
    st.sampled_from(_label_variants()),
    st.sampled_from([":", " : ", "\t:", "", " ", "_:"]),
    st.sampled_from(["Foo", "x, y", " Foo */", " -->", "", " ", "é", "ß Σ", "K"]),
    st.sampled_from(["\n", "\r\n", " ", ""]),
).map("".join)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.lists(header_line, max_size=6).map("".join))
def test_header_matches_equal_ignorecase_matches(content):
    def label_of(text):
        (label,) = [
            label for label in extract._LABEL_TO_SLOT
            if re.fullmatch(re.escape(label), text, re.IGNORECASE)
        ]
        return label

    expected = [
        (label_of(m.group(1)), m.span(1), m.span(2)) for m in IGNORECASE_HEADER_RE.finditer(content)
    ]
    folded = extract.fold_case(content)
    assert [
        (m.group(1), m.span(1), m.span(2)) for m in extract._HEADER_RE.finditer(folded)
    ] == expected
    extract_default(text_report(content))


def test_split_slots_comma():
    report = text_report("Tested on: Windows 10, Debian 12\nVersion: 1.0, 1.1\n")
    spans = extract_default(report)
    assert spans.texts("test_platform") == ["Windows 10", "Debian 12"]
    assert spans.texts("software_version") == ["1.0", "1.1"]


def test_title_not_comma_split():
    report = text_report("Title: One, Two, Three\n")
    assert extract_default(report).texts("title") == ["One, Two, Three"]


def test_title_fallback_only_without_headers():
    plain = text_report("\n\nMy Grand Advisory\nbody text\n")
    assert extract_default(plain).texts("title") == ["My Grand Advisory"]
    with_header = text_report("First line\nAuthor: x\n")
    assert extract_default(with_header).texts("title") == []


def test_title_fallback_not_for_code():
    report = PocReport(
        id="c1",
        source=EDB,
        raw_content="import os\nprint(os.name)\n",
        content_kind=ContentKind.PYTHON,
    )
    assert extract_default(report).texts("title") == []


def test_spans_carry_offsets():
    content = "Author: joeyj\n"
    spans = extract_default(text_report(content)).spans["author"]
    (span,) = spans
    assert content[span.start : span.end] == span.text == "joeyj"


def test_span_validation():
    good = StructuredExtraction({"author": (SlotSpan("bc", 1, 3),)})
    assert StructuredExtraction.decode({"author": [{"text": "bc", "start": 1, "end": 3}]},
                                       "abcd") == good
    with pytest.raises(ExtractionError):
        StructuredExtraction.decode({"author": [{"text": "zz", "start": 1, "end": 3}]}, "abcd")
    with pytest.raises(ExtractionError):
        StructuredExtraction.decode({"author": [{"text": "cd", "start": 2, "end": 5}]}, "abcd")


def test_unknown_slot_rejected():
    with pytest.raises(ExtractionError):
        StructuredExtraction({"exploit_code": (SlotSpan("x", 0, 1),)})


def test_structured_extraction_decode():
    data = {
        "title": [{"text": "A - B", "start": 0, "end": 5}],
        "author": [{"text": "z", "start": 9, "end": 10}],
    }
    assert StructuredExtraction.decode(data, "A - B by z") == StructuredExtraction(
        {"title": (SlotSpan("A - B", 0, 5),), "author": (SlotSpan("z", 9, 10),)}
    )


# --- composition ------------------------------------------------------------------


FULL_DOC = """\
Title: SLMail 5.5 - POP3 PASS Remote Buffer Overflow
Author: joeyj
Date: 2003-05-07
Platform: Windows
Version: 5.5

Steps to reproduce:
1. connect to the POP3 service
2. send USER test
3. send PASS with a 2700 byte argument

Expected output:
  EIP overwritten with 0x41414141

More detail at https://www.exploit-db.com/exploits/638.
"""


def test_extract_all_full_document():
    report = extract_all(text_report(FULL_DOC, cve_ids=("CVE-2003-0264",)))
    aspects = report.aspects
    assert aspects.filled_slots() == [
        "trigger_step",
        "verification_oracle",
        "test_platform",
        "software_version",
        "title",
        "author",
        "publish_time",
        "reference",
    ]
    assert report.cve_ids == ("CVE-2003-0264",)
    assert aspects.texts("title") == ["SLMail 5.5 - POP3 PASS Remote Buffer Overflow"]
    assert all(
        v.provenance.encode() == {"kind": "original"}
        for slot in aspects.filled_slots()
        for v in aspects.values(slot)
    )


def test_extract_all_folds_each_content_once():
    # the header, trigger, oracle and reference scans of a report share one fold
    reports = [
        categorize(report)
        for source in ("exploitdb", "packetstorm", "seebug", "cxsecurity")
        for report in ingest_reports(DEMO / f"{source}.jsonl", source)
    ]
    extract.fold_case.cache_clear()
    folds = []
    for report in reports:
        before = extract.fold_case.cache_info()
        extract_all(report)
        after = extract.fold_case.cache_info()
        folds.append(after.misses - before.misses)
        assert after.hits + after.misses - before.hits - before.misses == 4
    assert len(reports) == 20
    assert folds == [1] * len(reports)


def test_extract_all_requires_categorized():
    raw = PocReport(id="u1", source=EDB, raw_content="x")
    with pytest.raises(ValueError):
        extract_all(raw)


def test_extract_all_idempotent():
    once = extract_all(text_report(FULL_DOC))
    twice = extract_all(once)
    assert once == twice


def test_extract_all_preserves_ingested_values():
    report = text_report("Title: From Header\n")
    seeded = PocReport(
        id=report.id,
        source=report.source,
        raw_content=report.raw_content,
        content_kind=report.content_kind,
        aspects=report.aspects.with_added(title=aspect_values(["from header"])),
    )
    out = extract_all(seeded)
    # extracted duplicate differs only by case and is folded away
    assert out.aspects.texts("title") == ["from header"]


# --- evaluation --------------------------------------------------------------------


def test_evaluate_id_mismatch():
    corpus = Corpus([extract_all(text_report("x", rid="a"))])
    with pytest.raises(ExtractionError) as err:
        evaluate_extraction({"a": {}, "b": {}}, corpus)
    assert "b" in str(err.value)


def test_evaluate_counts():
    predicted = Corpus(
        [
            extract_all(text_report("Author: right\nVersion: 1.0\n", rid="a")),
            extract_all(text_report("Author: wrong\n", rid="b")),
        ]
    )
    gold = {
        "a": {"author": ["right"], "software_version": ["1.0"]},
        "b": {"author": ["someone else"], "publish_time": ["2020-01-01"]},
    }
    counts = evaluate_extraction(gold, predicted)
    assert list(counts) == list(ASPECT_SLOTS)
    assert counts["author"] == (1, 1, 1)
    # titles: both docs have headers, so no fallback fires; no gold titles either
    tp, fp, fn = counts["title"]
    assert tp + fp == 0 and tp + fn == 0
    precision, recall = precision_recall(*map(sum, zip(*counts.values())))
    assert precision == pytest.approx(2 / 3)
    assert recall == pytest.approx(2 / 4)


def test_precision_recall_of_empty_bases():
    assert precision_recall(0, 0, 0) == (0.0, 0.0)
    assert precision_recall(0, 0, 3) == (0.0, 0.0)
    assert precision_recall(0, 2, 0) == (0.0, 0.0)
    assert precision_recall(3, 1, 2) == (3 / 4, 3 / 5)


def test_evaluate_matching_is_trimmed_case_insensitive():
    predicted = Corpus([extract_all(text_report("Author: JoeyJ\n", rid="a"))])
    counts = evaluate_extraction({"a": {"author": ["  joeyj "]}}, predicted)
    assert counts["author"][0] == 1


def test_load_gold_annotations(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text('{"id": "a", "author": ["x"]}\n\n', encoding="utf-8")
    assert load_gold_annotations(path) == {"a": {"author": ["x"]}}
    path.write_text('{"id": "a", "body": ["x"]}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=":1:"):
        load_gold_annotations(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ('{"id": "a", "author": ["x"]}\n{broken\n', 2),
        ('{"author": ["x"]}\n', 1),
        # a string where the list of values belongs is not split into characters
        ('{"id": "a", "author": "xy"}\n', 1),
        ('{"id": 5, "author": ["x"]}\n', 1),
        # a repeated id is named at its second line
        ('{"id": "a"}\n{"id": "b"}\n{"id": "a", "author": ["x"]}\n', 3),
    ],
)
def test_load_gold_annotations_names_bad_line(tmp_path, text, line):
    path = tmp_path / "gold.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_gold_annotations(path)
    assert str(err.value).startswith(f"{path}:{line}:")
