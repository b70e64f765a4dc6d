import json

import pytest

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
from pocfusion.classify import DEFAULT_MIN_HITS
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
