from collections import Counter

import pytest

from pocfusion import (
    CompletionConfig,
    CompletionRecord,
    Corpus,
    CveEntry,
    FromCve,
    FromPoc,
    LanguageId,
    ORIGINAL,
    PocLink,
    PocReport,
    SharedCve,
    SourceId,
    aspect_values,
    code_kind,
    complete_from_cve,
    complete_from_poc,
    load_completion_records,
    load_cve_db,
    replay_completion,
    run_completion,
    save_completion_records,
    save_cve_db,
    verify_association,
)
from pocfusion.corpus import AspectSet, AspectValue, ContentKind, CveProduct

from fusion_fixture import (
    EXPECTED_FAILED_ASSOCIATIONS,
    EXPECTED_RECORD_ROWS,
    build_entries,
    build_links,
    build_reports,
    check_enriched,
)

EDB = SourceId.parse("ExploitDB")
TEXT = ContentKind.decode("text")


def report(rid, cve_ids=(), **slots):
    aspects = AspectSet()
    for slot, values in slots.items():
        if values and isinstance(values[0], AspectValue):
            aspects = aspects.with_added(slot, values)
        else:
            aspects = aspects.with_added(slot, aspect_values(values))
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


def test_record_origin_must_be_completion():
    with pytest.raises(ValueError):
        CompletionRecord("run-x", "r1", "title", "t", ORIGINAL)
    CompletionRecord("run-x", "r1", "title", "t", FromCve("CVE-2020-0001"))


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
        title=[AspectValue("Unrelated 3 - RCE", FromPoc("d", 0.9, "classifier"))],
    )
    assert verify_association(r, entry("CVE-2020-0001", "AlphaServ"))


def test_complete_from_cve_appends_versions_then_platforms():
    e = CveEntry(
        "CVE-2020-0001",
        (CveProduct("AlphaServ", ("2.0", "2.1")), CveProduct("AlphaServ Pro", ("3.0",))),
        ("Windows", "Linux"),
    )
    r = report("a", ("CVE-2020-0001",), title=["AlphaServ 2.0 - RCE"], software_version=["2.0"])
    updated, records = complete_from_cve(r, e, "run-1")
    assert [(x.slot, x.value) for x in records] == [
        ("software_version", "2.1"),
        ("software_version", "3.0"),
        ("test_platform", "Windows"),
        ("test_platform", "Linux"),
    ]
    assert all(x.origin == FromCve("CVE-2020-0001") and x.run_id == "run-1" for x in records)
    assert updated.aspects.texts("software_version") == ["2.0", "2.1", "3.0"]
    # pre-existing values keep their provenance
    assert updated.aspects.values("software_version")[0].provenance == ORIGINAL


def test_complete_from_cve_dedup_is_case_insensitive():
    e = entry("CVE-2020-0001", "AlphaServ", ["2.0"], ["WINDOWS"])
    r = report(
        "a", ("CVE-2020-0001",),
        software_version=[" 2.0 "], test_platform=["windows"],
    )
    updated, records = complete_from_cve(r, e)
    assert records == []
    assert updated is r


def test_complete_from_cve_rejects_failed_verification():
    e = entry("CVE-2020-0001", "AlphaServ", ["2.0"])
    r = report("a", ("CVE-2020-0001",), title=["Unrelated 3 - RCE"])
    with pytest.raises(ValueError):
        complete_from_cve(r, e)


def link(a, b, basis, similarity, kind=TEXT):
    return PocLink(a, b, basis, similarity, kind)


def test_complete_from_poc_fills_empty_slots_only():
    donor = report("d", author=["alice"], title=["T"], publish_time=["2020-01-01"])
    target = report("a", author=["bob"])
    l = link("a", "d", SharedCve("CVE-2020-0001"), 0.97)
    updated, records = complete_from_poc(target, donor, l)
    assert [(x.slot, x.value) for x in records] == [
        ("title", "T"),
        ("publish_time", "2020-01-01"),
    ]
    origin = FromPoc("d", 0.97, "shared_cve:CVE-2020-0001")
    assert all(x.origin == origin for x in records)
    assert updated.aspects.texts("author") == ["bob"]


def test_complete_from_poc_donates_original_values_only():
    donor = report(
        "d",
        title=[AspectValue("Donated", FromPoc("x", 0.99, "classifier"))],
        author=["alice"],
    )
    target = report("a")
    l = link("a", "d", None, 0.9)
    updated, records = complete_from_poc(target, donor, l)
    assert [(x.slot, x.value) for x in records] == [("author", "alice")]
    assert updated.aspects.texts("title") == []
    assert records[0].origin == FromPoc("d", 0.9, "classifier")


def test_complete_from_poc_rejects_weak_shared_cve_link():
    donor = report("d", author=["alice"])
    target = report("a")
    weak = link("a", "d", SharedCve("CVE-2020-0001"), 0.9)
    with pytest.raises(ValueError):
        complete_from_poc(target, donor, weak)
    code_ok = PocLink("a", "d", SharedCve("CVE-2020-0001"), 0.9, code_kind(LanguageId.PYTHON))
    _, records = complete_from_poc(target, donor, code_ok)
    assert len(records) == 1


def test_complete_from_poc_classifier_links_have_no_threshold():
    donor = report("d", author=["alice"])
    target = report("a")
    l = link("a", "d", None, 0.3)
    _, records = complete_from_poc(target, donor, l)
    assert len(records) == 1


def test_complete_from_poc_requires_matching_link():
    donor = report("d", author=["alice"])
    target = report("a")
    stray = link("a", "x", None, 0.9)
    with pytest.raises(ValueError):
        complete_from_poc(target, donor, stray)


def run_fixture(**kwargs):
    return run_completion(build_reports(), build_entries(), build_links(), **kwargs)


def test_run_completion_record_sequence():
    result = run_fixture()
    rows = [(r.target, r.slot, r.value, r.origin) for r in result.records]
    assert rows == EXPECTED_RECORD_ROWS
    assert all(r.run_id == result.run_id for r in result.records)
    assert result.skipped_links == 1
    assert result.failed_associations == EXPECTED_FAILED_ASSOCIATIONS


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


def test_run_completion_id_derivation(tmp_path):
    a, b = run_fixture(), run_fixture()
    assert a.run_id == b.run_id
    assert a.run_id.startswith("run-") and len(a.run_id) == 20
    tweaked = run_fixture(config=CompletionConfig(code_threshold=0.6))
    assert tweaked.run_id != a.run_id
    # the saved CVE map gives the same run id and records as the in-memory one
    path = tmp_path / "cve_db.jsonl"
    save_cve_db(build_entries(), path)
    reloaded = run_completion(build_reports(), load_cve_db(path), build_links())
    assert (reloaded.run_id, reloaded.records) == (a.run_id, a.records)


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
            [CompletionRecord("run-x", "zz", "title", "T", FromCve("CVE-2020-0001"))],
        )


def test_records_roundtrip(tmp_path):
    result = run_fixture()
    records = [
        *result.records,
        CompletionRecord(
            "run-x", "r1", "title", "a\u2028b\u2029c\u0085d", FromCve("CVE-2020-0001")
        ),
    ]
    path = tmp_path / "records.jsonl"
    save_completion_records(records, path)
    assert load_completion_records(path) == records
    data = path.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == len(records)
    save_completion_records(load_completion_records(path), path)
    assert path.read_bytes() == data
    save_completion_records([], path)
    assert path.read_bytes() == b""
    assert load_completion_records(path) == []
    path.write_bytes(data + b"[1]\n")
    with pytest.raises(ValueError, match=f"records.jsonl:{len(records) + 1}:"):
        load_completion_records(path)
