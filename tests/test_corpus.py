import codecs
import dataclasses
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
    ORIGINAL,
    Original,
    PocReport,
    Skipped,
    aspect_values,
    decode_provenance,
    ingest_cve_entries,
    ingest_reports,
    load_corpus,
    load_cve_db,
    save_corpus,
    save_cve_db,
    source_name,
)
from pocfusion.complete import CompletionRecord, load_completion_records, save_completion_records
from pocfusion.corpus import read_jsonl, write_jsonl as write_records
from pocfusion.link import PocLink, SharedCve, load_links, save_links

# str.splitlines breaks at these; JSON strings hold them raw with ensure_ascii=False
LINE_SEPARATORS = "a\u2028b\u2029c\u0085d"

EDB = "ExploitDB"


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
    assert [m.value for m in ContentKind] == [
        "unclassified",
        "text",
        "code:c_cpp",
        "code:html",
        "code:java",
        "code:javascript",
        "code:perl",
        "code:php",
        "code:python",
        "code:ruby",
        "code:shell",
    ]


# text -> its canonical source name
SOURCE_NAMES = {
    "exploitdb": "ExploitDB",
    "exploit-db": "ExploitDB",
    "packetstorm": "PacketStorm",
    "packet storm": "PacketStorm",
    "packet_storm": "PacketStorm",
    "seebug": "Seebug",
    "cxsecurity": "CXSecurity",
    # display names, case and padding
    "ExploitDB": "ExploitDB",
    "PACKETSTORM": "PacketStorm",
    "  Packet Storm\t": "PacketStorm",
    "\nSeeBug ": "Seebug",
    "CXSecurity": "CXSecurity",
    # any other source is its own name, stripped, with its case
    "0day.today": "0day.today",
    "  NVD ": "NVD",
    "nvd": "nvd",
    "Other": "Other",
    "exploit db": "exploit db",
}


def test_source_name():
    for text, name in SOURCE_NAMES.items():
        assert source_name(text) == name, text
        assert source_name(name) == name, name


def test_blank_source_name_is_an_error():
    for text in ("", " ", "\t\n"):
        with pytest.raises(ValueError):
            source_name(text)


def test_report_source_is_canonical():
    assert PocReport.decode(make_report().encode() | {"source": " exploit-db"}).source == EDB
    for text in ("exploitdb", " ExploitDB", "nvd ", " "):
        with pytest.raises(ValueError):
            PocReport(id="r1", source=text, raw_content="x")


def test_blank_source_in_a_corpus_file_names_its_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus([make_report("a"), make_report("b")]), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[2] = json.dumps({**json.loads(lines[2]), "source": " "})
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(CorpusError, match=f"{path}:3: "):
        load_corpus(path)


def test_corpus_report_of_kind_other_is_refused(tmp_path):
    # no stage writes "other": a report is unclassified, text, or code
    path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus([make_report("a")]), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = json.dumps({**json.loads(lines[1]), "content_kind": "other"})
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(CorpusError, match=f"{path}:2: "):
        load_corpus(path)


def test_content_kind_roundtrip():
    for text in ["text", "unclassified", "code:python", "code:c_cpp"]:
        assert ContentKind.decode(text).encode() == text
    for text in ["code:cobol", "other", "code", "code:"]:
        with pytest.raises(ValueError):
            ContentKind.decode(text)
    assert ContentKind.RUBY.is_code
    assert ContentKind.decode("code:ruby") is not ContentKind.TEXT
    assert ContentKind.decode("text") is ContentKind.TEXT
    assert not (ContentKind.TEXT.is_code or ContentKind.UNCLASSIFIED.is_code)


def test_provenance_roundtrip():
    for origin in [Original(), FromCve("CVE-2020-0001"), FromPoc("p9", 0.75, None)]:
        assert decode_provenance(origin.encode()) == origin
    assert decode_provenance(ORIGINAL.encode()) == Original()


def test_from_poc_similarity_bounds():
    with pytest.raises(ValueError):
        FromPoc("p1", 1.2, None)
    with pytest.raises(ValueError):
        FromPoc("p1", -0.1, None)


def test_aspect_value_requires_text():
    with pytest.raises(ValueError):
        AspectValue("   ", ORIGINAL)
    assert AspectValue("x", ORIGINAL).text == "x"


def test_with_added_dedup_case_insensitive():
    aspects = AspectSet().with_added(author=aspect_values(["Bob", " bob ", "alice"]))
    assert aspects.texts("author") == ["Bob", "alice"]
    # a later duplicate with different provenance is still a duplicate
    again = aspects.with_added(author=[AspectValue("BOB", FromCve("CVE-2020-0001"))])
    assert again.texts("author") == ["Bob", "alice"]


def test_with_added_unknown_slot():
    with pytest.raises(KeyError):
        AspectSet().with_added(exploit_code=aspect_values(["x"]))
    # also beside a known slot, or named like the set itself
    with pytest.raises(KeyError):
        AspectSet().with_added(title=aspect_values(["t"]), exploit_code=aspect_values(["x"]))
    with pytest.raises(KeyError):
        AspectSet().with_added(self=aspect_values(["x"]))


def test_original_values_filters_provenance():
    aspects = AspectSet().with_added(
        title=[AspectValue("mine", ORIGINAL), AspectValue("donated", FromPoc("p2", 0.9, None))],
    )
    assert [v.text for v in aspects.original_values("title")] == ["mine"]
    assert aspects.filled_slots() == ["title"]


def test_aspect_set_refuses_a_slot_with_near_duplicates():
    with pytest.raises(CorpusError, match="^duplicate values in slot title$"):
        AspectSet(title=(AspectValue("a"), AspectValue(" A ")))
    aspects = AspectSet(author=(AspectValue("a"),))
    with pytest.raises(CorpusError, match="^duplicate values in slot author$"):
        dataclasses.replace(
            aspects, author=(*aspects.author, AspectValue("A ", FromCve("CVE-2014-0160")))
        )
    # the same text in two slots is no duplicate
    AspectSet(title=(AspectValue("a"),), author=(AspectValue("a"),))


def test_aspect_set_encode_skips_empty_slots():
    aspects = AspectSet().with_added(reference=aspect_values(["https://a.example"]))
    payload = aspects.encode()
    assert list(payload) == ["reference"]
    assert AspectSet.decode(payload) == aspects


def test_report_requires_canonical_cve_ids():
    with pytest.raises(ValueError):
        make_report(cve_ids=("2020-1111",))
    report = make_report(cve_ids=("CVE-2020-1111",))
    assert report.cve_ids == ("CVE-2020-1111",)


@pytest.mark.parametrize("value", ["cve-2020-1234", "2020-1234", " CVE-2020-1234", 5, None])
@pytest.mark.parametrize(
    "build, where",
    [
        (FromCve, ""),
        (SharedCve, ""),
        (lambda cve_id: CveEntry(cve_id, (CveProduct("x"),)), ""),
        (lambda cve_id: make_report("R", cve_ids=(cve_id,)), " on report R"),
    ],
    ids=["FromCve", "SharedCve", "CveEntry", "PocReport"],
)
def test_every_cve_id_holder_refuses_a_non_canonical_id(build, where, value):
    with pytest.raises(ValueError) as err:
        build(value)
    assert str(err.value) == f"non-canonical CVE id{where}: {value!r}"


def test_report_roundtrip():
    report = make_report(
        rid="rt",
        kind=ContentKind.PHP,
        cve_ids=("CVE-2019-16113",),
        aspects=AspectSet().with_added(author=aspect_values(["mn0"])),
    )
    again = PocReport.decode(report.encode())
    assert again == report


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(CorpusError):
        Corpus([make_report("a"), make_report("a")])


def test_corpus_lookup_and_replace():
    corpus = Corpus([make_report("a"), make_report("b")])
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


def test_ingest_reports_drops_a_leading_byte_order_mark(tmp_path, caplog):
    path = tmp_path / "src.jsonl"
    rows = [
        {"id": "a", "source": "ExploitDB", "content": "x"},
        {"id": "b", "source": "ExploitDB", "content": "y"},
    ]
    text = "".join(json.dumps(r) + "\n" for r in rows)
    path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert [r.id for r in ingest_reports(path, EDB)] == ["a", "b"]
    assert "malformed" not in caplog.text
    # workspace files stay strict
    with pytest.raises(CorpusError, match=":1:"):
        read_jsonl(path, lambda data: data)


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


def test_ingest_reports_drops_nulls_and_skips_non_scalar_items(tmp_path, caplog):
    path = tmp_path / "src.jsonl"
    write_jsonl(
        path,
        [
            {
                "id": "a",
                "source": "ExploitDB",
                "content": "x",
                "references": [None, "http://e.com", ["http://nested.com"]],
                "title": {"k": 1},
                "author": True,
                "version": [2, None],
                "publish_time": None,
                "cve_ids": [None, False, "CVE-2020-1111"],
            },
        ],
    )
    (report,) = ingest_reports(path, EDB)
    assert report.aspects.texts("reference") == ["http://e.com"]
    assert report.aspects.texts("title") == []
    assert report.aspects.texts("author") == []
    assert report.aspects.texts("software_version") == ["2"]
    assert report.aspects.texts("publish_time") == []
    assert report.cve_ids == ("CVE-2020-1111",)
    skipped = [m for m in caplog.messages if "not a string or a number" in m]
    assert [m.split(" value ")[0] for m in skipped] == [
        f"{path}:1: skipping {name}"
        for name in ("title", "author", "references", "cve_ids")
    ]
    assert "None" not in caplog.text


def test_ingest_cve_entries_drops_nulls_and_skips_non_scalar_items(tmp_path, caplog):
    path = tmp_path / "cves.jsonl"
    write_jsonl(
        path,
        [
            {
                "cve_id": "CVE-2020-11001",
                "products": [{"name": "Solo", "versions": [None, "1.0", {"v": 2}]}],
                "platforms": [None],
            },
            {
                "cve_id": "CVE-2020-11002",
                "products": [{"name": "Duo", "versions": True}],
                "platforms": [["Linux"], "Windows"],
            },
        ],
    )
    db = ingest_cve_entries(path)
    first, second = db["CVE-2020-11001"], db["CVE-2020-11002"]
    assert first.all_versions() == ["1.0"] and first.platforms == ()
    assert second.all_versions() == [] and second.platforms == ("Windows",)
    skipped = [m for m in caplog.messages if "not a string or a number" in m]
    # an entry's own fields are read before its products
    assert [m.split(" value ")[0] for m in skipped] == [
        f"{path}:1: skipping versions",
        f"{path}:2: skipping platforms",
        f"{path}:2: skipping versions",
    ]


def test_ingest_cve_entries_skips_product_names_that_are_not_strings(tmp_path, caplog):
    # a number or boolean name is not a product: "5" would pass for any
    # report whose software name contains a 5
    path = tmp_path / "cves.jsonl"
    write_jsonl(
        path,
        [
            {"cve_id": "CVE-2020-11003", "products": [{"name": True, "versions": ["1"]}, {"name": 5}]},
            {"cve_id": "CVE-2020-11004", "products": [{"name": 5.5}, {"name": " Kept ", "versions": "2"}]},
            {"cve_id": "CVE-2020-11005", "products": [{"name": None}, {"name": ["x"]}, {"versions": "3"}]},
        ],
    )
    db = ingest_cve_entries(path)
    assert list(db) == ["CVE-2020-11004"]
    assert [(p.name, p.versions) for p in db["CVE-2020-11004"].products] == [("Kept", ("2",))]
    skipped = [m for m in caplog.messages if "not a string" in m]
    assert skipped == [
        f"{path}:1: skipping product: name True is not a string",
        f"{path}:1: skipping product: name 5 is not a string",
        f"{path}:2: skipping product: name 5.5 is not a string",
        f"{path}:3: skipping product: name ['x'] is not a string",
    ]
    assert f"{path}:1: skipping CVE-2020-11003: empty products list" in caplog.messages
    assert f"{path}:3: skipping CVE-2020-11005: empty products list" in caplog.messages


def test_ingest_cve_entries_skips_products_that_are_not_objects(tmp_path, caplog):
    path = tmp_path / "cves.jsonl"
    write_jsonl(
        path,
        [
            {"cve_id": "CVE-2020-1234", "products": ["AlphaServ"]},
            {"cve_id": "CVE-2020-1235", "products": [5, None, {"name": "Kept"}, ["x"]]},
        ],
    )
    db = ingest_cve_entries(path)
    assert list(db) == ["CVE-2020-1235"]
    assert [p.name for p in db["CVE-2020-1235"].products] == ["Kept"]
    skipped = [m for m in caplog.messages if "not an object" in m]
    # a null product is dropped without a warning, as a null value is
    assert skipped == [
        f"{path}:1: skipping products value 'AlphaServ': not an object",
        f"{path}:2: skipping products value 5: not an object",
        f"{path}:2: skipping products value ['x']: not an object",
    ]
    assert f"{path}:1: skipping CVE-2020-1234: empty products list" in caplog.messages


def test_ingest_reports_skips_ids_an_earlier_file_kept(tmp_path, caplog):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(first, [{"id": "x", "source": "ExploitDB", "content": "x"}])
    write_jsonl(second, [
        {"id": "y", "source": "Seebug", "content": "y"},
        {"id": "x", "source": "Seebug", "content": "other copy"},
    ])
    skipped, seen_ids = Skipped(), set()
    kept = ingest_reports(first, EDB, skipped, seen_ids) + ingest_reports(
        second, "Seebug", skipped, seen_ids
    )
    assert [(r.id, r.raw_content) for r in kept] == [("x", "x"), ("y", "y")]
    assert caplog.messages == [f"{second}:2: skipping duplicate report id 'x'"]
    assert skipped == Skipped(records=1)


def test_ingest_cve_entries_drops_a_leading_byte_order_mark(tmp_path, caplog):
    path = tmp_path / "cves.jsonl"
    row = {"cve_id": "CVE-2020-11001", "products": [{"name": "NetLine", "versions": ["2.1"]}]}
    path.write_bytes(codecs.BOM_UTF8 + (json.dumps(row) + "\n").encode("utf-8"))
    assert list(ingest_cve_entries(path)) == ["CVE-2020-11001"]
    assert "malformed" not in caplog.text


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
                kind=ContentKind.PYTHON,
                cve_ids=("CVE-2014-0160",),
                aspects=AspectSet().with_added(
                    title=[AspectValue("t", FromPoc("b", 0.5, SharedCve("CVE-2014-0160")))]
                ),
            ),
            make_report("b", content="unicode éè"),
            make_report(
                "c",
                content=LINE_SEPARATORS,
                aspects=AspectSet().with_added(author=[AspectValue(LINE_SEPARATORS)]),
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


def test_load_corpus_names_a_line_whose_slot_holds_near_duplicates(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus([make_report("a"), make_report("b")]), path)
    header, first, second = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(second)
    value = {"text": "Bob", "provenance": {"kind": "original"}}
    record["aspects"] = {"author": [value, {**value, "text": " bob"}]}
    path.write_text("\n".join([header, first, json.dumps(record)]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}:3: broken record: duplicate values in slot author"


def test_the_first_faulty_line_is_named(tmp_path):
    path = tmp_path / "corpus.jsonl"

    def error():
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        return str(err.value)

    # a broken record on line 2 is named before a byte that is not UTF-8 on line 3
    header = json.dumps({"format": "poc-corpus", "version": 1}).encode()
    path.write_bytes(header + b"\n{broken\n" + b'{"id": "caf\xff"}\n')
    assert error().startswith(f"{path}:2: broken record")
    path.write_bytes(header + b"\n\n" + b'{"id": "caf\xff"}\n{broken\n')
    assert error().startswith(f"{path}:3: not valid UTF-8")
    # a header that does not match comes first too
    path.write_bytes(b'{"format": "links", "version": 1}\n\xff\n')
    assert error().startswith(f"{path}:1: file declares format 'links'")
    # a blank or missing line 1 holds no header
    for data in (b"", b"\n", b"\n" + header + b"\n"):
        path.write_bytes(data)
        assert error() == f"{path}:1: expected a format header"


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
    aspects = AspectSet().with_added(reference=aspect_values(texts))
    again = aspects.with_added(reference=aspect_values(texts))
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
    aspects = AspectSet().with_added(title=[AspectValue(value)])
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
                    aspects=AspectSet().with_added(author=aspect_values(["mn0"]))),
        make_report("b", kind=ContentKind.PHP, aspects=AspectSet().with_added(
            title=[AspectValue("t", FromPoc("a", 0.5, SharedCve("CVE-2014-0160")))])),
    ])),
    "links.jsonl": (save_links, load_links, [
        PocLink("a", "b", SharedCve("CVE-2014-0160"), 0.75, TEXT_KIND),
        PocLink("a", "c", None, 0.5, ContentKind.PHP),
    ]),
    "records.jsonl": (save_completion_records, load_completion_records, [
        CompletionRecord("a", "title", "t", FromCve("CVE-2014-0160")),
        CompletionRecord("b", "author", "mn0", FromPoc("a", 0.5, None)),
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


# --- round trips of every kind a run-all stage hands to the next in memory ------
#
# run-all passes a stage the object the previous stage saved instead of
# loading the file back, which is only the same when load(save(x)) == x.

report_ids = st.text(min_size=1, max_size=6)
cve_ids = st.builds("CVE-{}-{:04d}".format, st.integers(1999, 2030), st.integers(0, 99_999))
# JSON gives an int for 0 or 1 written without a fraction, a float otherwise
similarities = st.integers(0, 1) | st.floats(0.0, 1.0)
link_bases = st.none() | cve_ids.map(SharedCve)
completed_origins = st.builds(FromCve, cve_ids) | st.builds(
    FromPoc, report_ids, similarities, link_bases
)
CONTENT_KINDS = list(ContentKind)
LINK_KINDS = [kind for kind in ContentKind if kind is not ContentKind.UNCLASSIFIED]


@st.composite
def aspect_sets(draw):
    values = st.builds(AspectValue, aspect_text, st.just(ORIGINAL) | completed_origins)
    aspects = AspectSet()
    for slot in ASPECT_SLOTS:
        aspects = aspects.with_added(**{slot: draw(st.lists(values, max_size=3))})
    return aspects


def added_to_one_slot(aspects, slot, values):
    """``with_added`` as it was, one slot per call and one new set per call:
    the reference the one-call form must equal."""
    current = list(aspects.values(slot))
    seen = {v.text.strip().lower() for v in current}
    for value in values:
        key = value.text.strip().lower()
        if key in seen:
            continue
        seen.add(key)
        current.append(value)
    return dataclasses.replace(aspects, **{slot: tuple(current)})


# few texts, so that values repeat up to case and surrounding blanks
near_duplicates = st.builds(
    AspectValue, st.sampled_from(["a", "A", " a ", "a\t", "ß", "SS", "b", "ab"]),
    st.just(ORIGINAL) | completed_origins,
)
additions = st.dictionaries(st.sampled_from(ASPECT_SLOTS), st.lists(near_duplicates, max_size=4))


@settings(derandomize=True, max_examples=150)
@given(aspect_sets(), st.lists(additions, min_size=1, max_size=3))
def test_with_added_equals_slot_by_slot_chain(aspects, calls):
    expected = got = aspects
    for call in calls:
        for slot, values in call.items():
            expected = added_to_one_slot(expected, slot, values)
        got = got.with_added(**call)
        assert got == expected
    dataclasses.replace(got)


def test_with_added_returns_self_when_nothing_is_new():
    aspects = AspectSet().with_added(author=aspect_values(["Bob"]), title=aspect_values(["T"]))
    assert aspects.with_added() is aspects
    assert aspects.with_added(author=aspect_values([" bob "]), title=[], reference=[]) is aspects
    assert aspects.with_added(author=aspect_values(["alice"])) is not aspects


reports = st.builds(
    PocReport,
    id=report_ids,
    # a report is saved and loaded with its canonical source name
    source=st.text(min_size=1, max_size=10).filter(str.strip).map(source_name),
    raw_content=st.text(),
    content_kind=st.sampled_from(CONTENT_KINDS),
    cve_ids=st.lists(cve_ids, unique=True, max_size=3).map(tuple),
    aspects=aspect_sets(),
)
corpora = st.lists(reports, max_size=5, unique_by=lambda r: r.id).map(Corpus)
link_lists = st.lists(
    st.builds(
        lambda ends, basis, similarity, kind: PocLink(*sorted(ends), basis, similarity, kind),
        st.lists(report_ids, min_size=2, max_size=2, unique=True),
        link_bases,
        similarities,
        st.sampled_from(LINK_KINDS),
    ),
    max_size=5,
)
record_lists = st.lists(
    st.builds(
        CompletionRecord, report_ids, st.sampled_from(ASPECT_SLOTS), aspect_text, completed_origins
    ),
    max_size=5,
)
cve_maps = st.lists(
    st.builds(
        CveEntry,
        cve_ids,
        st.lists(
            st.builds(CveProduct, aspect_text, st.lists(st.text(), max_size=3).map(tuple)),
            min_size=1, max_size=3,
        ).map(tuple),
        st.lists(st.text(), max_size=3).map(tuple),
    ),
    max_size=4,
    unique_by=lambda entry: entry.cve_id,
).map(lambda entries: {entry.cve_id: entry for entry in entries})

EVERY_KIND = Corpus(
    make_report(
        f"r{n}",
        kind=kind,
        aspects=AspectSet().with_added(title=[
            AspectValue("t"),
            AspectValue("u", FromCve("CVE-2014-0160")),
            AspectValue("v", FromPoc("r0", 0.3125, None)),
        ]),
    )
    for n, kind in enumerate(CONTENT_KINDS)
)


def assert_round_trip(name, value):
    """Save then load is the identity, and saving again gives the same bytes."""
    save, load, _example = SAVED_FILES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        save(value, path)
        data = path.read_bytes()
        assert load(path) == value
        save(load(path), path)
        assert path.read_bytes() == data


@settings(derandomize=True, max_examples=40)
@given(corpora)
@example(EVERY_KIND)
def test_corpus_round_trip_property(corpus):
    assert_round_trip("corpus.jsonl", corpus)


@settings(derandomize=True, max_examples=40)
@given(link_lists)
@example(SAVED_FILES["links.jsonl"][2])
def test_links_round_trip_property(links):
    assert_round_trip("links.jsonl", links)


@settings(derandomize=True, max_examples=40)
@given(record_lists)
@example(SAVED_FILES["records.jsonl"][2])
def test_records_round_trip_property(records):
    assert_round_trip("records.jsonl", records)


@settings(derandomize=True, max_examples=40)
@given(cve_maps)
@example(SAVED_FILES["cve_db.jsonl"][2])
def test_cve_map_round_trip_property(entries):
    assert_round_trip("cve_db.jsonl", entries)


class Unencodable:
    def encode(self):
        raise ValueError("cannot encode")


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "links.jsonl"
    links = SAVED_FILES["links.jsonl"][2]
    save_links(links, path)
    data = path.read_bytes()
    # the encoder raises on the second record, after the first is written
    with pytest.raises(ValueError, match="cannot encode"):
        save_links([links[0], Unencodable()], path)
    assert path.read_bytes() == data
    assert [p.name for p in tmp_path.iterdir()] == ["links.jsonl"]
    # a lone surrogate has no UTF-8 encoding; the failure comes after the
    # file is opened for writing
    with pytest.raises(UnicodeEncodeError):
        write_records(path, [{"a": 1}, {"b": "\ud800"}])
    assert path.read_bytes() == data
    assert [p.name for p in tmp_path.iterdir()] == ["links.jsonl"]
    # without a previous file, nothing is left either
    with pytest.raises(TypeError):
        write_records(tmp_path / "new.jsonl", [{"a": 1}, {"b": object()}])
    assert [p.name for p in tmp_path.iterdir()] == ["links.jsonl"]


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
    reports = ingest_reports(path, "nvd")
    assert [r.id for r in reports] == ["a", "b"]
    # every report carries the declared source
    assert {r.source for r in reports} == {"nvd"}
    assert "'osv' does not match declared 'nvd'" in caplog.text


# The rule ingest followed while a source was a (platform, label) pair: an
# alias named a platform with an empty label; any other text was an "Other"
# source labelled with that text stripped, and labels compared ignoring case.
_PAIR_ALIASES = {
    "exploitdb": "EXPLOITDB",
    "exploit-db": "EXPLOITDB",
    "packetstorm": "PACKETSTORM",
    "packet storm": "PACKETSTORM",
    "packet_storm": "PACKETSTORM",
    "seebug": "SEEBUG",
    "cxsecurity": "CXSECURITY",
}


def _pair_key(text):
    known = _PAIR_ALIASES.get(text.strip().lower())
    return (known, "") if known else ("OTHER", text.strip().lower())


SOURCE_TEXTS = [
    "ExploitDB", "exploitdb", "Exploit-DB", " exploit-db ", "exploit db",
    "PacketStorm", "packet storm", "PACKET_STORM", "Seebug", "SEEBUG\t",
    "CXSecurity", "cxsecurity", "nvd", "NVD", " Nvd ", "osv", "Other", "other",
    "0day.today", "Packet-Storm",
]


@pytest.mark.parametrize("declared", SOURCE_TEXTS)
def test_ingest_keeps_the_records_the_pair_rule_kept(tmp_path, declared):
    path = tmp_path / "src.jsonl"
    write_jsonl(path, [
        {"id": f"r{i}", "source": text, "content": "x"} for i, text in enumerate(SOURCE_TEXTS)
    ])
    kept = [r.id for r in ingest_reports(path, declared)]
    assert kept == [
        f"r{i}" for i, text in enumerate(SOURCE_TEXTS) if _pair_key(text) == _pair_key(declared)
    ]
