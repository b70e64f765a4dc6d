import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pocfusion import (
    ContentKind,
    Kind,
    LanguageId,
    PocReport,
    SourceId,
    categorize,
    detect_language,
    load_signatures,
)
from pocfusion.classify import DEFAULT_MIN_HITS, branch_heads, required_literal
from pocfusion.corpus import CorpusError

from classify_fixtures import CODE_FIXTURES, PROSE_FIXTURES

PROSE_TAIL = """\
Vendor response

The maintainers acknowledged the report and promised a fix in the next
scheduled release. Until then, operators should restrict access to the
affected service to trusted networks only and monitor the audit log.
"""


def unclassified(content, rid="p1"):
    return PocReport(id=rid, source=SourceId.parse("ExploitDB"), raw_content=content)


def test_signature_table_covers_all_languages():
    signatures = load_signatures()
    assert [s.language for s in signatures] == list(LanguageId)
    assert all(s.min_hits == DEFAULT_MIN_HITS for s in signatures)
    assert all(s.patterns for s in signatures)


@pytest.mark.parametrize("lang,snippet", CODE_FIXTURES, ids=lambda v: v if isinstance(v, str) else "")
def test_code_fixture_detected(lang, snippet):
    detected = detect_language(snippet)
    assert detected is not None, f"no language detected for {lang} fixture"
    assert detected[0] == LanguageId(lang)
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
    assert detect_language("zebra", signatures) == (LanguageId.PERL, 1)


def test_weights_multiply_hits(tmp_path):
    table = tmp_path / "sigs.jsonl"
    rows = [
        {"format": "language-signatures", "version": 1},
        {"language": "python", "pattern": "import", "weight": 3},
    ]
    table.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    signatures = load_signatures(table)
    assert detect_language("import import", signatures) == (LanguageId.PYTHON, 6)


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


@pytest.mark.parametrize("field, value", [("pattern", 5), ("weight", None)])
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
        assert required_literal(re.compile(source, re.MULTILINE)) == literal, source


def test_bundled_patterns_without_a_gate():
    ungated = [p.pattern.pattern for p in BUNDLED_PATTERNS if p.literal is None]
    assert len(ungated) == 7
    assert sum(p.startswith("(?i)") for p in ungated) == 5


def test_branch_heads_of_a_top_level_alternation():
    cases = {
        r"\b(?:curl|wget)\s": ("curl", "wget"),
        r"^\s*(?:fi|done|esac)\s*$": ("fi", "done", "esac"),
        r"puts|gets": ("puts", "gets"),
        r"\$_(?:GET|POST)\b": ("GET", "POST"),  # a later item of the sequence
        r"(?:a\d|bc)": ("a", "bc"),  # a head ends at the first non-literal
        r"(?:ab|\dc)": None,  # a branch without a literal head
        r"(?:(?:ab|cd)|ef)": None,  # a nested group is not a literal head
        r"(?:|ab)": None,  # an empty branch
        r"(curl|wget)": None,  # a capturing group is not top-level
        r"(?i)(?:curl|wget)": None,
        r"(?i:curl|wget)": None,
        r"x(?:\d|ab)y": None,  # the parser turns this alternation into a class
    }
    for source, heads in cases.items():
        assert branch_heads(re.compile(source, re.MULTILINE)) == heads, source


def test_bundled_alternations_are_gated():
    gated = {p.pattern.pattern: p.heads for p in BUNDLED_PATTERNS if p.heads}
    assert len(gated) == 11
    assert gated[r"\b(?:curl|wget)\s+-{1,2}\w+"] == ("curl", "wget")
    # only the case-insensitive patterns are left with no gate at all
    ungated = [p for p in BUNDLED_PATTERNS if p.literal is None and p.heads is None]
    assert ungated == [p for p in BUNDLED_PATTERNS if p.pattern.flags & re.IGNORECASE]
    for p in BUNDLED_PATTERNS:
        if p.heads:
            assert p.hits(" ".join(h[1:] for h in p.heads)) == 0


def _gate_fragments() -> list[str]:
    """Each bundled literal and alternation head, their halves, and the
    characters the patterns are made of, so that generated text comes near
    to matching."""
    fragments = {" ", "  ", "\n", "\t", "x", "_", "0", "9"}
    for p in BUNDLED_PATTERNS:
        for gate in (p.literal,) + (p.heads or ()):
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


ALTERNATIONS = [p for p in BUNDLED_PATTERNS if p.heads]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_alternation_gated_hits_equal_findall(data):
    # every bundled alternation, seen matching through each of its branches
    matched = data.draw(st.sampled_from(ALTERNATIONS))
    content = "\n".join(
        data.draw(st.tuples(near_misses, st.from_regex(matched.pattern), near_misses))
    )
    assert matched.hits(content) >= 1
    for p in ALTERNATIONS:
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
    assert detect_language("IMPORT Import", signatures) == (LanguageId.PYTHON, 2)
    assert detect_language("gets gets", signatures) == (LanguageId.RUBY, 2)


def test_user_table_alternation_hits(tmp_path):
    table = tmp_path / "sigs.jsonl"
    rows = [
        {"format": "language-signatures", "version": 1, "min_hits": 2},
        {"language": "shell", "pattern": "\\b(?:curl|wget)\\s+http", "weight": 1},
        {"language": "ruby", "pattern": "(?:puts|gets)\\b", "weight": 1},
    ]
    table.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    signatures = load_signatures(table)
    assert [p.heads for s in signatures for p in s.patterns] == [
        ("puts", "gets"),
        ("curl", "wget"),
    ]
    content = "wget http://a/x\ncurl  https://b/y\nxcurl http://c\n"
    assert detect_language(content, signatures) == (LanguageId.SHELL, 2)
    assert detect_language("curl -s http://a", signatures) is None
