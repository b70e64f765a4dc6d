import json
import re
from collections import Counter

import pytest

from pocfusion import (
    CompletionConfig,
    CompletionRecord,
    Corpus,
    CveEntry,
    FromCve,
    FromPoc,
    ORIGINAL,
    PocLink,
    PocReport,
    SharedCve,
    aspect_values,
    below_threshold,
    load_completion_records,
    load_cve_db,
    replay_completion,
    run_completion,
    save_completion_records,
    save_cve_db,
    verify_association,
)
import pocfusion.complete as complete_module
from pocfusion.corpus import AspectSet, AspectValue, ContentKind, CorpusError, CveProduct

from fusion_fixture import (
    EXPECTED_FAILED_ASSOCIATIONS,
    EXPECTED_RECORD_ROWS,
    build_entries,
    build_links,
    build_reports,
    check_enriched,
)

EDB = "ExploitDB"
TEXT = ContentKind.decode("text")


def report(rid, cve_ids=(), **slots):
    aspects = AspectSet()
    for slot, values in slots.items():
        if values and isinstance(values[0], AspectValue):
            aspects = aspects.with_added(**{slot: values})
        else:
            aspects = aspects.with_added(**{slot: aspect_values(values)})
    return PocReport(
        id=rid,
        source=EDB,
        raw_content="some text",
        content_kind=TEXT,
        cve_ids=cve_ids,
        aspects=aspects,
    )


def entry(cve_id, name, versions=(), platforms=()):
    return CveEntry(cve_id, (CveProduct(name, tuple(versions)),), tuple(platforms))


def test_config_validation():
    with pytest.raises(ValueError):
        CompletionConfig(code_threshold=1.5)
    with pytest.raises(ValueError):
        CompletionConfig(text_threshold=-0.1)
    with pytest.raises(ValueError):
        CompletionConfig(True, False)
    with pytest.raises(ValueError):
        CompletionConfig("0.5")


def test_record_origin_must_be_completion():
    with pytest.raises(ValueError):
        CompletionRecord("r1", "title", "t", ORIGINAL)
    CompletionRecord("r1", "title", "t", FromCve("CVE-2020-0001"))
    # fields no stage could have written
    origin = FromCve("CVE-2020-0001")
    for fields in (
        (5, "title", "t"),
        ("r1", "bogus", "t"),
        ("r1", "title", " "),
    ):
        with pytest.raises(ValueError):
            CompletionRecord(*fields, origin)
    for make in (
        lambda: FromCve(None),
        lambda: FromCve("nonsense"),
        lambda: FromCve("cve-2020-0001"),
        lambda: FromPoc(5, 0.5, None),
        lambda: FromPoc("", 0.5, None),
        lambda: FromPoc("e1", 0.5, ["x"]),
        lambda: FromPoc("e1", 0.5, SharedCve("nonsense")),
    ):
        with pytest.raises(ValueError):
            make()
    FromPoc("e1", 0.5, SharedCve("CVE-2020-0001"))


def test_verify_association():
    e = entry("CVE-2020-0001", "AlphaServ", ["2.0"])
    named = report("a", ("CVE-2020-0001",), title=["AlphaServ 2.0 - RCE"])
    other = report("b", ("CVE-2020-0001",), title=["Unrelated 3 - RCE"])
    anonymous = report("c", ("CVE-2020-0001",))
    assert verify_association(named, e)
    assert not verify_association(other, e)
    assert verify_association(anonymous, e)
    with pytest.raises(ValueError):
        verify_association(report("d"), e)


def test_verify_association_substring_both_ways():
    wide = entry("CVE-2020-0001", "AlphaServ Enterprise")
    r = report("a", ("CVE-2020-0001",), title=["AlphaServ 2.0 - RCE"])
    assert verify_association(r, wide)
    narrow = entry("CVE-2020-0001", "Alpha")
    assert verify_association(r, narrow)


def test_verify_association_ignores_donated_names():
    r = report(
        "a",
        ("CVE-2020-0001",),
        title=[AspectValue("Unrelated 3 - RCE", FromPoc("d", 0.9, None))],
    )
    assert verify_association(r, entry("CVE-2020-0001", "AlphaServ"))


def test_cve_completion_appends_versions_then_platforms():
    e = CveEntry(
        "CVE-2020-0001",
        (CveProduct("AlphaServ", ("2.0", "2.1")), CveProduct("AlphaServ Pro", ("3.0",))),
        ("Windows", "Linux"),
    )
    r = report("a", ("CVE-2020-0001",), title=["AlphaServ 2.0 - RCE"], software_version=["2.0"])
    result = run_completion(Corpus([r]), {e.cve_id: e}, [])
    records = result.records
    assert [(x.slot, x.value) for x in records] == [
        ("software_version", "2.1"),
        ("software_version", "3.0"),
        ("test_platform", "Windows"),
        ("test_platform", "Linux"),
    ]
    assert all(x.origin == FromCve("CVE-2020-0001") for x in records)
    updated = result.corpus.get("a")
    assert updated.aspects.texts("software_version") == ["2.0", "2.1", "3.0"]
    # pre-existing values keep their provenance
    assert updated.aspects.values("software_version")[0].provenance == ORIGINAL


def test_cve_completion_dedup_is_case_insensitive():
    e = entry("CVE-2020-0001", "AlphaServ", ["2.0"], ["WINDOWS"])
    r = report(
        "a", ("CVE-2020-0001",),
        software_version=[" 2.0 "], test_platform=["windows"],
    )
    result = run_completion(Corpus([r]), {e.cve_id: e}, [])
    assert result.records == []
    assert result.corpus.get("a") is r


def test_cve_completion_rejects_failed_verification(caplog):
    e = entry("CVE-2020-0001", "AlphaServ", ["2.0"])
    r = report("a", ("CVE-2020-0001",), title=["Unrelated 3 - RCE"])
    with caplog.at_level("WARNING", logger="pocfusion.complete"):
        result = run_completion(Corpus([r]), {e.cve_id: e}, [])
    assert result.failed_associations == [("a", "CVE-2020-0001")]
    assert len(caplog.records) == 1
    assert result.records == []


def test_failed_associations_give_one_warning(caplog):
    e = entry("CVE-2020-0001", "AlphaServ", ["2.0"])
    reports = [report(rid, ("CVE-2020-0001",), title=["Unrelated 3 - RCE"]) for rid in "abc"]
    with caplog.at_level("WARNING", logger="pocfusion.complete"):
        result = run_completion(Corpus(reports), {e.cve_id: e}, [])
    assert result.failed_associations == [(rid, "CVE-2020-0001") for rid in "abc"]
    (record,) = caplog.records
    message = record.getMessage()
    assert message.startswith("3 CVE associations")
    assert "a CVE-2020-0001, b CVE-2020-0001, c CVE-2020-0001" in message


def link(a, b, basis, similarity, kind=TEXT):
    return PocLink(a, b, basis, similarity, kind)


def donate(target, donor, l):
    return run_completion(Corpus([target, donor]), {}, [l])


def test_poc_completion_fills_empty_slots_only():
    donor = report("d", author=["alice"], title=["T"], publish_time=["2020-01-01"])
    target = report("a", author=["bob"])
    result = donate(target, donor, link("a", "d", SharedCve("CVE-2020-0001"), 0.97))
    records = result.records
    assert [(x.target, x.slot, x.value) for x in records] == [
        ("a", "title", "T"),
        ("a", "publish_time", "2020-01-01"),
    ]
    origin = FromPoc("d", 0.97, SharedCve("CVE-2020-0001"))
    assert all(x.origin == origin for x in records)
    assert result.corpus.get("a").aspects.texts("author") == ["bob"]


def test_poc_completion_donates_original_values_only():
    donor = report(
        "d",
        title=[AspectValue("Donated", FromPoc("x", 0.99, None))],
        author=["alice"],
    )
    result = donate(report("a"), donor, link("a", "d", None, 0.9))
    records = result.records
    assert [(x.target, x.slot, x.value) for x in records] == [("a", "author", "alice")]
    assert result.corpus.get("a").aspects.texts("title") == []
    assert records[0].origin == FromPoc("d", 0.9, None)


def test_poc_completion_rejects_weak_shared_cve_link():
    donor = report("d", author=["alice"])
    target = report("a")
    # 0.6 is under the text threshold (0.65) and over the code one (0.5)
    weak = donate(target, donor, link("a", "d", SharedCve("CVE-2020-0001"), 0.6))
    assert weak.skipped_links == 1 and weak.records == []
    code_ok = PocLink("a", "d", SharedCve("CVE-2020-0001"), 0.6, ContentKind.PYTHON)
    result = donate(target, donor, code_ok)
    assert result.skipped_links == 0 and len(result.records) == 1


def test_poc_completion_classifier_links_have_no_threshold():
    result = donate(report("a"), report("d", author=["alice"]), link("a", "d", None, 0.3))
    assert result.skipped_links == 0 and len(result.records) == 1


def run_fixture(**kwargs):
    return run_completion(build_reports(), build_entries(), build_links(), **kwargs)


def test_run_completion_record_sequence():
    result = run_fixture()
    rows = [(r.target, r.slot, r.value, r.origin) for r in result.records]
    assert rows == EXPECTED_RECORD_ROWS
    assert result.skipped_links == 1
    assert result.failed_associations == EXPECTED_FAILED_ASSOCIATIONS


def test_run_completion_checks_each_association_and_link_once(monkeypatch):
    verified, tested = Counter(), Counter()

    def verify(report, entry):
        verified[report.id, entry.cve_id] += 1
        return verify_association(report, entry)

    def below(link, config):
        tested[link] += 1
        return below_threshold(link, config)

    monkeypatch.setattr(complete_module, "verify_association", verify)
    monkeypatch.setattr(complete_module, "below_threshold", below)
    run_fixture()
    entries = build_entries()
    carried = [(r.id, c) for r in build_reports() for c in r.cve_ids if c in entries]
    assert verified == Counter(carried)
    assert tested == Counter(build_links())


def test_run_completion_enriched_corpus():
    check_enriched(run_fixture().corpus)


def test_run_completion_missing_cve_entry_is_ignored():
    corpus = Corpus([report("a", ("CVE-1999-0001",), author=["x"])])
    result = run_completion(corpus, {}, [])
    assert result.records == [] and result.failed_associations == []


def test_run_completion_is_idempotent():
    first = run_fixture()
    second = run_completion(first.corpus, build_entries(), build_links())
    assert second.records == []
    assert second.corpus == first.corpus


def test_run_completion_from_a_reloaded_cve_db(tmp_path):
    # the saved CVE map gives the same records as the in-memory one
    path = tmp_path / "cve_db.jsonl"
    save_cve_db(build_entries(), path)
    reloaded = run_completion(build_reports(), load_cve_db(path), build_links())
    assert reloaded.records == run_fixture().records


def test_run_completion_encodes_no_input(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} encoded during completion")

    for kind in (PocReport, CveEntry, PocLink):
        monkeypatch.setattr(kind, "encode", refuse)
    assert run_fixture().records


def test_donor_order_falling_similarity():
    # two donors for the same gap: the more similar link wins
    target = report("a", ("CVE-2020-0001", "CVE-2020-0002"))
    near = report("b", ("CVE-2020-0001",), author=["near"])
    far = report("c", ("CVE-2020-0002",), author=["far"])
    links = [
        link("a", "b", SharedCve("CVE-2020-0001"), 0.99),
        link("a", "c", SharedCve("CVE-2020-0002"), 0.96),
    ]
    result = run_completion(Corpus([target, near, far]), {}, links)
    by_target = [r for r in result.records if r.target == "a" and r.slot == "author"]
    assert [r.value for r in by_target] == ["near"]


def test_donation_does_not_chain():
    # c's author reaches b, but b cannot pass it on to a
    a = report("a", ("CVE-2020-0001",))
    b = report("b", ("CVE-2020-0001", "CVE-2020-0002"))
    c = report("c", ("CVE-2020-0002",), author=["carol"])
    links = [
        link("b", "c", SharedCve("CVE-2020-0002"), 0.99),
        link("a", "b", SharedCve("CVE-2020-0001"), 0.96),
    ]
    result = run_completion(Corpus([a, b, c]), {}, links)
    rows = [(r.target, r.slot, r.value) for r in result.records]
    assert rows == [("b", "author", "carol")]


def test_replay_reproduces_run():
    pre = build_reports()
    result = run_fixture()
    replayed = replay_completion(pre, result.records)
    assert replayed == result.corpus


def test_replay_unknown_target():
    with pytest.raises(KeyError):
        replay_completion(
            Corpus([report("a")]),
            [CompletionRecord("zz", "title", "T", FromCve("CVE-2020-0001"))],
        )


def test_records_roundtrip(tmp_path):
    result = run_fixture()
    records = [
        *result.records,
        CompletionRecord("r1", "title", "a\u2028b\u2029c\u0085d", FromCve("CVE-2020-0001")),
    ]
    path = tmp_path / "records.jsonl"
    save_completion_records(records, path)
    assert load_completion_records(path) == records
    data = path.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == len(records)
    save_completion_records(load_completion_records(path), path)
    assert path.read_bytes() == data
    # a line written with a run id still loads
    path.write_text('{"run_id": "run-0123456789abcdef", ' + data.decode("utf-8")[1:], "utf-8")
    assert load_completion_records(path) == records
    save_completion_records([], path)
    assert path.read_bytes() == b""
    assert load_completion_records(path) == []
    path.write_bytes(data + b"[1]\n")
    with pytest.raises(ValueError, match=f"records.jsonl:{len(records) + 1}:"):
        load_completion_records(path)


def set_record_field(field, value):
    return lambda line: json.dumps({**json.loads(line), field: value})


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(set_record_field("origin", []), id="origin-list"),
        pytest.param(set_record_field("origin", {"kind": "bogus"}), id="unknown-origin-kind"),
        pytest.param(set_record_field("origin", {"kind": "from_poc", "donor_id": "e1",
                                                 "similarity": True, "basis": "classifier"}),
                     id="similarity-bool"),
        pytest.param(set_record_field("slot", "bogus"), id="unknown-slot"),
        pytest.param(set_record_field("origin", {"kind": "from_cve", "cve_id": "nonsense"}),
                     id="non-canonical-cve-origin"),
        pytest.param(set_record_field("origin", {"kind": "from_poc", "donor_id": "e1",
                                                 "similarity": 0.5, "basis": 7}),
                     id="basis-number"),
        pytest.param(lambda line: line[: len(line) // 2], id="cut"),
    ],
)
def test_broken_records_line_names_file_and_line(tmp_path, damage):
    path = tmp_path / "completion_records.jsonl"
    save_completion_records(run_fixture().records, path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    lines[-1] = damage(lines[-1])
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:{len(lines)}: "):
        load_completion_records(path)
