import functools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pocfusion import (
    ASPECT_SLOTS,
    AspectSet,
    AspectValue,
    ContentKind,
    Corpus,
    CorpusError,
    CveEntry,
    CveProduct,
    FromCve,
    FromPoc,
    Kind,
    LanguageId,
    ORIGINAL,
    Original,
    PocReport,
    SourceId,
    SourceName,
    aspect_values,
    build_corpus,
    code_kind,
    decode_provenance,
    ingest_cve_entries,
    ingest_reports,
    load_corpus,
    load_cve_db,
    save_corpus,
    save_cve_db,
)
from pocfusion.complete import CompletionRecord, load_completion_records, save_completion_records
from pocfusion.corpus import read_jsonl, write_jsonl as write_records
from pocfusion.link import PocLink, SharedCve, load_links, save_links

# str.splitlines breaks at these; JSON strings hold them raw with ensure_ascii=False
LINE_SEPARATORS = "a\u2028b\u2029c\u0085d"

EDB = SourceId.parse("ExploitDB")


def make_report(rid="r1", content="x", kind=ContentKind.decode("text"), **kw):
    return PocReport(id=rid, source=EDB, raw_content=content, content_kind=kind, **kw)


def test_aspect_slot_order():
    assert ASPECT_SLOTS == (
        "trigger_step",
        "verification_oracle",
        "test_platform",
        "software_version",
        "title",
        "author",
        "publish_time",
        "reference",
    )


def test_language_enum_order():
    assert [m.value for m in LanguageId] == [
        "c_cpp",
        "html",
        "java",
        "javascript",
        "perl",
        "php",
        "python",
        "ruby",
        "shell",
    ]


def test_source_parse_aliases():
    assert SourceId.parse("exploit-db") == EDB
    assert SourceId.parse("PACKETSTORM").name is SourceName.PACKETSTORM
    other = SourceId.parse("0day.today")
    assert other.name is SourceName.OTHER
    assert other.label == "0day.today"
    assert other.display() == "0day.today"
    assert EDB.display() == "ExploitDB"


def test_source_label_only_for_other():
    with pytest.raises(ValueError):
        SourceId(SourceName.SEEBUG, label="extra")
    with pytest.raises(ValueError):
        SourceId(SourceName.OTHER)


def test_content_kind_roundtrip():
    for text in ["text", "other", "unclassified", "code:python", "code:c_cpp"]:
        assert ContentKind.decode(text).encode() == text
    with pytest.raises(ValueError):
        ContentKind.decode("code:cobol")
    with pytest.raises(ValueError):
        ContentKind(Kind.TEXT, LanguageId.PYTHON)
    with pytest.raises(ValueError):
        ContentKind(Kind.CODE, None)
    assert code_kind(LanguageId.RUBY).is_code


def test_provenance_roundtrip():
    for origin in [Original(), FromCve("CVE-2020-1"), FromPoc("p9", 0.75, "classifier")]:
        assert decode_provenance(origin.encode()) == origin
    assert decode_provenance(ORIGINAL.encode()) == Original()


def test_from_poc_similarity_bounds():
    with pytest.raises(ValueError):
        FromPoc("p1", 1.2, "classifier")
    with pytest.raises(ValueError):
        FromPoc("p1", -0.1, "classifier")


def test_aspect_value_requires_text():
    with pytest.raises(ValueError):
        AspectValue("   ", ORIGINAL)
    assert AspectValue("x", ORIGINAL).text == "x"


def test_with_added_dedup_case_insensitive():
    aspects = AspectSet().with_added("author", aspect_values(["Bob", " bob ", "alice"]))
    assert aspects.texts("author") == ["Bob", "alice"]
    # a later duplicate with different provenance is still a duplicate
    again = aspects.with_added("author", [AspectValue("BOB", FromCve("CVE-2020-1"))])
    assert again.texts("author") == ["Bob", "alice"]


def test_with_added_unknown_slot():
    with pytest.raises(KeyError):
        AspectSet().with_added("exploit_code", aspect_values(["x"]))


def test_original_values_filters_provenance():
    aspects = AspectSet().with_added(
        "title",
        [AspectValue("mine", ORIGINAL), AspectValue("donated", FromPoc("p2", 0.9, "classifier"))],
    )
    assert [v.text for v in aspects.original_values("title")] == ["mine"]
    assert aspects.filled_slots() == ["title"]


def test_aspect_set_encode_skips_empty_slots():
    aspects = AspectSet().with_added("reference", aspect_values(["https://a.example"]))
    payload = aspects.encode()
    assert list(payload) == ["reference"]
    assert AspectSet.decode(payload) == aspects


def test_report_requires_canonical_cve_ids():
    with pytest.raises(ValueError):
        make_report(cve_ids=("2020-1111",))
    report = make_report(cve_ids=("CVE-2020-1111",))
    assert report.cve_ids == ("CVE-2020-1111",)


def test_report_roundtrip():
    report = make_report(
        rid="rt",
        kind=code_kind(LanguageId.PHP),
        cve_ids=("CVE-2019-16113",),
        aspects=AspectSet().with_added("author", aspect_values(["mn0"])),
    )
    again = PocReport.decode(report.encode())
    assert again == report


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(CorpusError):
        Corpus([make_report("a"), make_report("a")])


def test_corpus_lookup_and_replace():
    corpus = Corpus([make_report("a"), make_report("b")])
    assert "a" in corpus and "z" not in corpus
    assert corpus.get("b").id == "b"
    with pytest.raises(KeyError):
        corpus.get("z")


def test_cve_entry_validation_and_versions():
    entry = CveEntry(
        "CVE-2020-11001",
        (CveProduct("NetLine Mail", ("2.1", "2.2")), CveProduct("NetLine Pro", ("2.2", "3.0"))),
        ("Windows",),
    )
    assert entry.all_versions() == ["2.1", "2.2", "3.0"]
    with pytest.raises(ValueError):
        CveEntry("2020-11001", (CveProduct("x", ()),), ())
    with pytest.raises(ValueError):
        CveEntry("CVE-2020-11001", (), ())


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def test_ingest_reports_drops_malformed_lines(tmp_path, caplog):
    path = tmp_path / "src.jsonl"
    rows = [
        {"id": "ok-1", "source": "ExploitDB", "content": "hello"},
        {"id": "bad-cve", "source": "ExploitDB", "content": "x", "cve_ids": ["CVE-20-1"]},
        {"id": 7, "source": "ExploitDB", "content": "x"},
        {"id": "no-content", "source": "ExploitDB"},
        {"id": "ok-1", "source": "ExploitDB", "content": "dup"},
        {"id": "ok-2", "source": "ExploitDB", "content": "y", "cve_ids": ["2021-33009"]},
        {"id": "sep", "source": "ExploitDB", "content": LINE_SEPARATORS},
    ]
    text = "\n".join(json.dumps(r, ensure_ascii=False) for r in rows)
    path.write_text(text + "\nnot json\n[1, 2]\n", encoding="utf-8")
    reports = ingest_reports(path, EDB)
    assert [r.id for r in reports] == ["ok-1", "bad-cve", "ok-2", "sep"]
    # malformed dedicated-field ids are dropped at ingestion with a warning
    assert reports[1].cve_ids == ()
    assert reports[2].cve_ids == ("CVE-2021-33009",)
    assert "ok-1" in caplog.text and "duplicate" in caplog.text
    # raw line separators stay inside their record, so line numbers hold
    assert reports[3].raw_content == LINE_SEPARATORS
    assert f"{path}:8:" in caplog.text and f"{path}:9:" in caplog.text


def test_ingest_reports_source_mismatch_skips(tmp_path, caplog):
    path = tmp_path / "src.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "source": "Seebug", "content": "x"},
            {"id": "b", "source": "ExploitDB", "content": "y"},
        ],
    )
    reports = ingest_reports(path, EDB)
    assert [r.id for r in reports] == ["b"]
    assert "Seebug" in caplog.text and "ExploitDB" in caplog.text


def test_ingest_reports_optional_fields(tmp_path):
    path = tmp_path / "src.jsonl"
    write_jsonl(
        path,
        [
            {
                "id": "a",
                "source": "ExploitDB",
                "content": "x",
                "title": "Some Tool 1.0 - RCE",
                "author": "kv",
                "publish_time": "2020-01-01",
                "references": ["https://a.example/1", "https://a.example/1"],
            },
            {
                "id": "scalars",
                "source": "ExploitDB",
                "content": "y",
                "references": "https://a.example/2",
                "cve_ids": "cve-2020-11001",
            },
        ],
    )
    report, scalars = ingest_reports(path, EDB)
    # every optional field takes one value or a list of values
    assert scalars.aspects.texts("reference") == ["https://a.example/2"]
    assert scalars.cve_ids == ("CVE-2020-11001",)
    assert report.aspects.texts("title") == ["Some Tool 1.0 - RCE"]
    assert report.aspects.texts("author") == ["kv"]
    assert report.aspects.texts("publish_time") == ["2020-01-01"]
    assert report.aspects.texts("reference") == ["https://a.example/1"]
    assert all(
        v.provenance == ORIGINAL
        for slot in ASPECT_SLOTS
        for v in report.aspects.values(slot)
    )


def test_build_corpus_cross_file_dedup(caplog):
    a = [make_report("x"), make_report("y")]
    b = [make_report("x", content="other copy")]
    corpus = build_corpus([a, b])
    assert len(corpus) == 2
    assert corpus.get("x").raw_content == "x"
    assert "x" in caplog.text


def test_ingest_cve_entries_merges_repeats(tmp_path, caplog):
    path = tmp_path / "cves.jsonl"
    write_jsonl(
        path,
        [
            {
                "cve_id": "CVE-2020-11001",
                "products": [{"name": "NetLine Mail", "versions": ["2.1"]}],
                "platforms": ["Windows"],
            },
            {
                "cve_id": "2020-11001",
                "products": [
                    {"name": "NetLine Mail", "versions": ["2.2"]},
                    {"name": "NetLine Pro", "versions": ["3.0"]},
                ],
                "platforms": ["Linux", "Windows"],
            },
            {"cve_id": "nonsense", "products": [{"name": "X", "versions": []}]},
            {"cve_id": "CVE-2021-1", "products": []},
            [1],
        ],
    )
    db = ingest_cve_entries(path)
    assert f"{path}:5:" in caplog.text
    assert list(db) == ["CVE-2020-11001"]
    entry = db["CVE-2020-11001"]
    assert entry.all_versions() == ["2.1", "2.2", "3.0"]
    assert [p.name for p in entry.products] == ["NetLine Mail", "NetLine Pro"]
    assert entry.platforms == ("Windows", "Linux")
    assert "nonsense" in caplog.text
    # one version or platform may stand alone instead of in a list
    scalar = tmp_path / "scalar.jsonl"
    write_jsonl(
        scalar,
        [{"cve_id": "CVE-2019-0002", "products": [{"name": "Solo", "versions": "1.0"}],
          "platforms": "Linux"}],
    )
    solo = ingest_cve_entries(scalar)["CVE-2019-0002"]
    assert solo.all_versions() == ["1.0"] and solo.platforms == ("Linux",)


def test_corpus_save_load_roundtrip(tmp_path):
    corpus = Corpus(
        [
            make_report(
                "a",
                kind=code_kind(LanguageId.PYTHON),
                cve_ids=("CVE-2014-0160",),
                aspects=AspectSet().with_added(
                    "title", [AspectValue("t", FromPoc("b", 0.5, "shared_cve:CVE-2014-0160"))]
                ),
            ),
            make_report("b", content="unicode éè"),
            make_report(
                "c",
                content=LINE_SEPARATORS,
                aspects=AspectSet().with_added("author", [AspectValue(LINE_SEPARATORS)]),
            ),
        ]
    )
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert header == {"format": "poc-corpus", "version": 1}
    assert load_corpus(path) == corpus
    # non-ascii content is stored unescaped
    assert "é" in path.read_text(encoding="utf-8")
    data = path.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == len(corpus) + 1
    save_corpus(load_corpus(path), path)
    assert path.read_bytes() == data
    save_corpus(Corpus([]), path)
    assert path.read_text(encoding="utf-8") == '{"format": "poc-corpus", "version": 1}\n'


def test_load_corpus_version_mismatch(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"format": "poc-corpus", "version": 99}) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert "99" in str(err.value) and "1" in str(err.value)


def test_load_corpus_wrong_format(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"format": "links", "version": 1}) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        load_corpus(path)


def test_load_corpus_names_bad_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        json.dumps({"format": "poc-corpus", "version": 1}) + "\n{broken\n", encoding="utf-8"
    )
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert "2" in str(err.value)
    # a line that is JSON but not an object, as a record or as the header
    header = json.dumps({"format": "poc-corpus", "version": 1})
    cases = ((header + "\n[1]\n", ":2:"), ("[1]\n", ""), ("\n" + header + "\n", ""))
    for text, where in cases:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert f"{path}{where}" in str(err.value)


def test_save_cve_db_sorted(tmp_path):
    entries = {
        "CVE-2021-33009": CveEntry("CVE-2021-33009", (CveProduct("GateServe", ("4.0",)),), ()),
        "CVE-2014-0160": CveEntry("CVE-2014-0160", (CveProduct("OpenSSL", ("1.0.1f",)),), ("Linux",)),
    }
    path = tmp_path / "cve_db.jsonl"
    save_cve_db(entries, path)
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [r["cve_id"] for r in rows] == ["CVE-2014-0160", "CVE-2021-33009"]
    assert rows[0]["products"] == [{"name": "OpenSSL", "versions": ["1.0.1f"]}]
    assert ingest_cve_entries(path)["CVE-2021-33009"].products[0].name == "GateServe"
    assert load_cve_db(path) == entries
    data = path.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == len(entries)
    save_cve_db(ingest_cve_entries(path), path)
    assert path.read_bytes() == data
    save_cve_db({}, path)
    assert path.read_bytes() == b""
    assert load_cve_db(path) == {}
    # the workspace copy is read strictly: a broken line is not skipped
    path.write_bytes(data[:-10])
    with pytest.raises(ValueError, match=f"{path}:2: "):
        load_cve_db(path)


aspect_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40
).filter(lambda s: s.strip())


@given(st.lists(aspect_text, min_size=0, max_size=12))
def test_with_added_idempotent(texts):
    aspects = AspectSet().with_added("reference", aspect_values(texts))
    again = aspects.with_added("reference", aspect_values(texts))
    assert again == aspects
    seen = [v.strip().lower() for v in aspects.texts("reference")]
    assert len(seen) == len(set(seen))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@settings(derandomize=True, max_examples=60)
@given(
    content=st.text(),
    value=aspect_text,
    records=st.lists(st.dictionaries(st.text(), json_values, max_size=4), max_size=4),
)
@example(
    content=LINE_SEPARATORS,
    value=LINE_SEPARATORS,
    records=[{LINE_SEPARATORS: LINE_SEPARATORS}],
)
@example(content="\r\n \n", value="\u2028x\u0085", records=[{}, {"\u2029": ["\n"]}])
def test_jsonl_roundtrip_property(content, value, records):
    """Save then load is the identity, and saving again gives the same bytes."""
    aspects = AspectSet().with_added("title", [AspectValue(value)])
    corpus = Corpus([make_report("a", content=content, aspects=aspects)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        save_corpus(corpus, path)
        data = path.read_bytes()
        assert load_corpus(path) == corpus
        save_corpus(load_corpus(path), path)
        assert path.read_bytes() == data
        path = Path(tmp) / "records.jsonl"
        write_records(path, records)
        assert read_jsonl(path, dict) == records


TEXT_KIND = ContentKind.decode("text")
# file name -> (saver, loader, a small value of that kind)
SAVED_FILES = {
    "corpus.jsonl": (save_corpus, load_corpus, Corpus([
        make_report("a", content="é\u2028x", cve_ids=("CVE-2014-0160",),
                    aspects=AspectSet().with_added("author", aspect_values(["mn0"]))),
        make_report("b", kind=code_kind(LanguageId.PHP), aspects=AspectSet().with_added(
            "title", [AspectValue("t", FromPoc("a", 0.5, "shared_cve:CVE-2014-0160"))])),
    ])),
    "links.jsonl": (save_links, load_links, [
        PocLink("a", "b", SharedCve("CVE-2014-0160"), 0.75, TEXT_KIND),
        PocLink("a", "c", None, 0.5, code_kind(LanguageId.PHP)),
    ]),
    "records.jsonl": (save_completion_records, load_completion_records, [
        CompletionRecord("run-1", "a", "title", "t", FromCve("CVE-2014-0160")),
        CompletionRecord("run-1", "b", "author", "mn0", FromPoc("a", 0.5, "classifier")),
    ]),
    "cve_db.jsonl": (save_cve_db, load_cve_db, {
        "CVE-2014-0160": CveEntry("CVE-2014-0160", (CveProduct("OpenSSL", ("1.0.1f",)),),
                                  ("Linux",)),
    }),
}


@functools.cache
def saved_bytes(name):
    save, _load, value = SAVED_FILES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        save(value, path)
        return path.read_bytes()


@settings(derandomize=True, max_examples=300)
@given(
    name=st.sampled_from(sorted(SAVED_FILES)),
    position=st.integers(min_value=0, max_value=10_000),
    mask=st.integers(min_value=1, max_value=255),
)
def test_flipped_byte_is_loaded_or_rejected_naming_the_file(name, position, mask):
    """A workspace file with one byte changed either still loads or raises
    CorpusError starting with its path; no other exception escapes."""
    data = bytearray(saved_bytes(name))
    data[position % len(data)] ^= mask
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            SAVED_FILES[name][1](path)
        except CorpusError as exc:
            assert str(exc).startswith(str(path))


def test_ingest_reports_skips_blank_source(tmp_path, caplog):
    path = tmp_path / "src.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "source": " ", "content": "x"},
            {"id": "b", "source": "ExploitDB", "content": "y"},
        ],
    )
    assert [r.id for r in ingest_reports(path, EDB)] == ["b"]
    assert f"{path}:1: skipping record: empty source" in caplog.text


def test_ingest_reports_matches_other_source_labels_case_insensitively(tmp_path, caplog):
    path = tmp_path / "src.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "source": "NVD", "content": "x"},
            {"id": "b", "source": "nvd", "content": "y"},
            {"id": "c", "source": "osv", "content": "z"},
        ],
    )
    declared = SourceId.parse("nvd")
    reports = ingest_reports(path, declared)
    assert [r.id for r in reports] == ["a", "b"]
    # every report carries the declared source
    assert {r.source for r in reports} == {declared}
    assert "'osv' does not match declared 'nvd'" in caplog.text
