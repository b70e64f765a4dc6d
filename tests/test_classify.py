import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pocfusion import (
    ContentKind,
    PocReport,
    categorize,
    detect_language,
    load_signatures,
)
from pocfusion.classify import (
    DEFAULT_MIN_HITS,
    SignaturePattern,
    head_matches,
    pattern_literals,
)
from pocfusion.corpus import CorpusError

from classify_fixtures import CODE_FIXTURES, PROSE_FIXTURES

PROSE_TAIL = """\
Vendor response

The maintainers acknowledged the report and promised a fix in the next
scheduled release. Until then, operators should restrict access to the
affected service to trusted networks only and monitor the audit log.
"""


def unclassified(content, rid="p1"):
    return PocReport(id=rid, source="ExploitDB", raw_content=content)


def test_signature_table_covers_all_languages():
    signatures = load_signatures()
    assert [s.language for s in signatures] == [k for k in ContentKind if k.is_code]
    assert all(s.min_hits == DEFAULT_MIN_HITS for s in signatures)
    assert all(s.patterns for s in signatures)


@pytest.mark.parametrize("lang,snippet", CODE_FIXTURES, ids=lambda v: v if isinstance(v, str) else "")
def test_code_fixture_detected(lang, snippet):
    detected = detect_language(snippet)
    assert detected is not None, f"no language detected for {lang} fixture"
    assert detected[0] == ContentKind("code:" + lang)
    assert detected[1] >= DEFAULT_MIN_HITS


@pytest.mark.parametrize("doc", PROSE_FIXTURES)
def test_prose_fixture_not_detected(doc):
    assert detect_language(doc) is None


def test_empty_content_not_detected():
    assert detect_language("") is None


def test_single_keyword_quote_stays_text():
    # one pattern hit sits below min_hits
    assert detect_language("the patch removes a call to strcpy(buf, src)") is None


def test_categorize_sets_kind():
    code = categorize(unclassified(CODE_FIXTURES[0][1]))
    assert code.content_kind == ContentKind.decode("code:c_cpp")
    text = categorize(unclassified(PROSE_FIXTURES[0]))
    assert text.content_kind == ContentKind.decode("text")
    # everything else is untouched
    assert text.id == "p1" and text.raw_content == PROSE_FIXTURES[0]


def test_categorize_rejects_classified_report():
    report = categorize(unclassified("plain words"))
    with pytest.raises(ValueError):
        categorize(report)


@pytest.mark.parametrize("lang,snippet", CODE_FIXTURES, ids=lambda v: v if isinstance(v, str) else "")
def test_prose_append_keeps_code(lang, snippet):
    grown = snippet + "\n" + PROSE_TAIL
    detected = detect_language(grown)
    assert detected is not None, f"{lang} fixture flipped to text after prose append"


def test_detection_deterministic():
    for _, snippet in CODE_FIXTURES:
        assert detect_language(snippet) == detect_language(snippet)


def test_tie_breaks_by_enum_order(tmp_path):
    # two languages score identically; the earlier enum member wins
    table = tmp_path / "sigs.jsonl"
    rows = [
        {"format": "language-signatures", "version": 1, "min_hits": 1},
        {"language": "ruby", "pattern": "zebra", "weight": 1},
        {"language": "perl", "pattern": "zebra", "weight": 1},
    ]
    table.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    signatures = load_signatures(table)
    assert detect_language("zebra", signatures) == (ContentKind.PERL, 1)


def test_weights_multiply_hits(tmp_path):
    table = tmp_path / "sigs.jsonl"
    rows = [
        {"format": "language-signatures", "version": 1},
        {"language": "python", "pattern": "import", "weight": 3},
    ]
    table.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    signatures = load_signatures(table)
    assert detect_language("import import", signatures) == (ContentKind.PYTHON, 6)


def test_signature_version_mismatch(tmp_path):
    table = tmp_path / "sigs.jsonl"
    table.write_text(
        json.dumps({"format": "language-signatures", "version": 3}) + "\n", encoding="utf-8"
    )
    with pytest.raises(CorpusError) as err:
        load_signatures(table)
    assert "3" in str(err.value) and "1" in str(err.value)


def test_signature_unknown_language(tmp_path):
    table = tmp_path / "sigs.jsonl"
    rows = [
        {"format": "language-signatures", "version": 1},
        {"language": "fortran", "pattern": "DIMENSION", "weight": 1},
    ]
    table.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        load_signatures(table)
    # a line that is JSON but not an object, as the header or as a record
    for text in ("[1]\n", json.dumps(rows[0]) + "\n[1]\n"):
        table.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError):
            load_signatures(table)


@pytest.mark.parametrize(
    "field, value",
    [("pattern", 5), ("weight", None), ("weight", 1.7), ("weight", True), ("weight", "2")],
)
def test_signature_field_of_wrong_type_names_its_line(tmp_path, field, value):
    table = tmp_path / "sigs.jsonl"
    rows = [
        {"format": "language-signatures", "version": 1},
        {"language": "python", "pattern": "import", "weight": 1, field: value},
    ]
    table.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_signatures(table)
    assert str(err.value).startswith(f"{table}:2:")


@pytest.mark.parametrize("weight", [True, 1.0, "2", 0])
def test_signature_pattern_refuses_a_weight_that_is_no_integer_of_at_least_1(weight):
    with pytest.raises(ValueError, match="weight must be an integer >= 1"):
        SignaturePattern(re.compile("import"), weight)


@pytest.mark.parametrize("min_hits", [None, "x", 0, True, 1.5])
def test_signature_min_hits_of_wrong_value_names_the_header(tmp_path, min_hits):
    table = tmp_path / "sigs.jsonl"
    rows = [
        {"format": "language-signatures", "version": 1, "min_hits": min_hits},
        {"language": "python", "pattern": "import", "weight": 1},
    ]
    table.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_signatures(table)
    assert str(err.value).startswith(f"{table}:1: min_hits")


# --- the literal gate: a pattern whose required literal is absent is not run ---

BUNDLED_PATTERNS = [p for s in load_signatures() for p in s.patterns]
DEMO = Path(__file__).resolve().parent.parent / "demo"


def test_required_literal_is_the_longest_top_level_run():
    cases = {
        r"\bSystem\.(?:out|err)\.print": "System.",
        r"^\s*from\s+[\w.]+\s+import\s+": "import",  # the longer of two runs
        r"abc|abd": "ab",  # the parser factors out a common prefix
        r"ab\bcd": "ab",  # a zero-width item ends a run
        r"x{3}": None,  # a repeat is not a run of literals
        r"foo|bar": None,
        r"(foo)ba": "ba",  # only the top-level sequence counts
        r"(?i)import": None,
        r"(?i:im)port": "port",
    }
    for source, literal in cases.items():
        assert pattern_literals(re.compile(source, re.MULTILINE))[0] == literal, source


def test_bundled_patterns_without_a_gate():
    ungated = [p.pattern.pattern for p in BUNDLED_PATTERNS if p.literal is None]
    assert len(ungated) == 7
    assert sum(p.startswith("(?i)") for p in ungated) == 5


def _gate_fragments() -> list[str]:
    """Each bundled literal and match head, their halves, and the
    characters the patterns are made of, so that generated text comes near
    to matching."""
    fragments = {" ", "  ", "\n", "\t", "x", "_", "0", "9"}
    for p in BUNDLED_PATTERNS:
        for gate in (p.literal,) + (p.starts or ()):
            if gate:
                fragments |= {gate, gate[:-1], gate[1:]}
        fragments |= {ch for ch in p.pattern.pattern if not ch.isalnum()}
    return sorted(fragments)


near_misses = st.lists(st.sampled_from(_gate_fragments()), max_size=20).map("".join)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_gated_hits_equal_findall(data):
    # text around a match of one pattern, so that each pattern is seen
    # matching; the line breaks keep the match's anchors and word boundaries
    matched = data.draw(st.sampled_from(BUNDLED_PATTERNS))
    content = "\n".join(
        data.draw(st.tuples(near_misses, st.from_regex(matched.pattern), near_misses))
    )
    assert matched.hits(content) >= 1
    for p in BUNDLED_PATTERNS:
        assert p.hits(content) == len(p.pattern.findall(content)), p.pattern.pattern


def test_gated_hits_equal_findall_on_demo_and_fixtures():
    texts = [doc for _lang, doc in CODE_FIXTURES] + list(PROSE_FIXTURES)
    for path in sorted(DEMO.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            texts += [v for v in json.loads(line).values() if isinstance(v, str)]
    for content in texts:
        for p in BUNDLED_PATTERNS:
            assert p.hits(content) == len(p.pattern.findall(content)), p.pattern.pattern


def test_user_table_with_ignorecase_and_alternation(tmp_path):
    table = tmp_path / "sigs.jsonl"
    rows = [
        {"format": "language-signatures", "version": 1, "min_hits": 1},
        {"language": "python", "pattern": "(?i)import", "weight": 1},
        {"language": "ruby", "pattern": "puts|gets", "weight": 1},
    ]
    table.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    signatures = load_signatures(table)
    assert [p.literal for s in signatures for p in s.patterns] == [None, None]
    assert detect_language("IMPORT Import", signatures) == (ContentKind.PYTHON, 2)
    assert detect_language("gets gets", signatures) == (ContentKind.RUBY, 2)


def test_user_table_alternation_hits(tmp_path):
    table = tmp_path / "sigs.jsonl"
    rows = [
        {"format": "language-signatures", "version": 1, "min_hits": 2},
        {"language": "shell", "pattern": "\\b(?:curl|wget)\\s+http", "weight": 1},
        {"language": "ruby", "pattern": "(?:puts|gets)\\b", "weight": 1},
    ]
    table.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    signatures = load_signatures(table)
    content = "wget http://a/x\ncurl  https://b/y\nxcurl http://c\n"
    assert detect_language(content, signatures) == (ContentKind.SHELL, 2)
    assert detect_language("curl -s http://a", signatures) is None


# --- match heads: a pattern is tried only where a match can start ----------------


def test_match_heads_of_a_pattern():
    cases = {
        r"\bint\s+main\s*\(": ("int",),  # past a word boundary
        r"^#!.*\bperl\b": ("#!",),  # past a line start
        r"\b\B-\w": ("-",),  # past several zero-width assertions
        r"<\?php": ("<?php",),  # no assertion at all
        r"\b(?:curl|wget)\s": ("curl", "wget"),  # a leading alternation
        r"\b(?:https?|ftp)://": ("http", "ftp"),  # a head ends at the first non-literal
        r"(?:abc|abd)x": ("ab",),  # the parser factors out a common prefix
        r"\b(?:printf|fprintf|sprintf)\(": ("printf", "fprintf", "sprintf"),
        r"\b(?:unsigned\s+)?char": None,  # an optional group first
        r"\b(?:ab|\dc)": None,  # a branch without a literal head
        r"(?:a|b)c": None,  # the parser turns this alternation into a class
        r"(?:(?:ab|cd)|ef)": None,  # a nested group is not a literal head
        r"(?:|ab)": None,  # an empty branch
        r"^\s*import": None,
        r"(?<=x)yz": None,  # a lookbehind is not a zero-width AT item
        r"(foo)": None,  # a capturing group
        r"\b": None,
        r"(?i)\bfoo": None,
        r"(?i:f)oo": None,
    }
    for source, heads in cases.items():
        assert pattern_literals(re.compile(source, re.MULTILINE))[1] == heads, source


def test_bundled_patterns_with_match_heads():
    anchored = [p for p in BUNDLED_PATTERNS if p.starts]
    assert len(BUNDLED_PATTERNS) == 57 and len(anchored) == 37
    assert all(not p.pattern.flags & re.IGNORECASE for p in anchored)
    assert all(p.starts is None for p in BUNDLED_PATTERNS if p.pattern.flags & re.IGNORECASE)


# patterns the bundled table lacks: a line start, lookbehinds, heads that
# contain one another, heads that overlap themselves, a head-less pattern
HAND_WRITTEN = [
    re.compile(source, re.MULTILINE)
    for source in (
        r"^foo\d",
        r"\Afoo",
        r"\B-\w+",
        r"\bprint(?<!fprint)f\b",
        r"\b(?:printf|fprintf|sprintf)\s*\(",
        r"(?:ab|b)a",
        r"aa",
        r"\bſ\w",
        r"(?<=x)yz",
        r"\b(?:unsigned\s+)?char",
    )
]
SCANNED = [p.pattern for p in BUNDLED_PATTERNS] + HAND_WRITTEN


def _scan_fragments() -> list[str]:
    """The heads of every scanned pattern, their halves, the characters the
    patterns are made of, and letters that are word characters outside
    ASCII and fold to ASCII ones under IGNORECASE."""
    fragments = {" ", "\n", "\t", "x", "_", "0", "ſ", "K", "é"}
    for pattern in SCANNED:
        for head in pattern_literals(pattern)[1] or ():
            fragments |= {head, head[:-1], head[1:]}
        fragments |= {ch for ch in pattern.pattern if not ch.isalnum()}
    return sorted(fragments)


scan_texts = st.lists(st.sampled_from(_scan_fragments()), max_size=20).map("".join)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_head_matches_equal_finditer(data):
    matched = data.draw(st.sampled_from(SCANNED))
    content = "\n".join(data.draw(st.tuples(scan_texts, st.from_regex(matched), scan_texts)))
    for pattern in SCANNED:
        heads = pattern_literals(pattern)[1]
        if heads is None:
            continue
        spans = [m.span() for m in head_matches(pattern, heads, content)]
        assert spans == [m.span() for m in pattern.finditer(content)], pattern.pattern
        assert len(spans) == len(pattern.findall(content)), pattern.pattern
    for p in BUNDLED_PATTERNS:
        assert p.hits(content) == len(p.pattern.findall(content)), p.pattern.pattern
