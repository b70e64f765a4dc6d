import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pocfusion import (
    ASPECT_SLOTS,
    Corpus,
    CveEntry,
    CveProduct,
    FromCve,
    PocLink,
    PocReport,
    SharedCve,
    aspect_values,
    completion_stats,
    deficiency_stats,
    render_report,
    run_completion,
)
from pocfusion.corpus import ORIGIN_KINDS, AspectSet, AspectValue, ContentKind
from pocfusion.report import COMPLETION_COLUMNS

from fusion_fixture import build_entries, build_links, build_reports

TEXT = ContentKind.decode("text")


def report(rid, source, **slots):
    aspects = AspectSet()
    for slot, values in slots.items():
        if values and isinstance(values[0], AspectValue):
            aspects = aspects.with_added(**{slot: values})
        else:
            aspects = aspects.with_added(**{slot: aspect_values(values)})
    return PocReport(
        id=rid,
        source=source,
        raw_content="text",
        content_kind=TEXT,
        aspects=aspects,
    )


def two_source_corpus():
    donated = AspectValue("Windows", FromCve("CVE-2020-0001"))
    return Corpus(
        [
            report("e1", "ExploitDB", title=["T1"], author=["alice"]),
            report("e2", "ExploitDB", title=["T2"]),
            report("p1", "PacketStorm", title=["T3"], trigger_step=["step"], test_platform=[donated]),
        ]
    )


def test_deficiency_counts_original_values_only():
    columns, rows = deficiency_stats(two_source_corpus())
    assert columns == ("source", "aspect", "present", "total", "presence_rate")
    # 8 slot rows per source in encounter order, 8 overall rows, one mean row
    assert [row[:2] for row in rows] == [
        *((source, slot) for source in ("ExploitDB", "PacketStorm", "(all)")
          for slot in ASPECT_SLOTS),
        ("(all)", "(mean)"),
    ]
    cells = {row[:2]: row[2:] for row in rows}
    assert {cells[("ExploitDB", slot)][1] for slot in ASPECT_SLOTS} == {"2"}
    assert {cells[("PacketStorm", slot)][1] for slot in ASPECT_SLOTS} == {"1"}
    assert cells[("ExploitDB", "title")] == ("2", "2", "1.0000")
    assert cells[("ExploitDB", "author")] == ("1", "2", "0.5000")
    assert cells[("PacketStorm", "trigger_step")] == ("1", "1", "1.0000")
    # completed platform value does not count as present
    assert cells[("PacketStorm", "test_platform")] == ("0", "1", "0.0000")
    assert cells[("(all)", "title")] == ("3", "3", "1.0000")
    assert cells[("(all)", "author")] == ("1", "3", "0.3333")
    # mean of the overall rates: (3 + 1 + 1) / 3 / 8
    assert cells[("(all)", "(mean)")] == ("", "", f"{5 / 24:.4f}")


def test_deficiency_unchanged_by_completion():
    before = deficiency_stats(build_reports())
    result = run_completion(build_reports(), build_entries(), build_links())
    after = deficiency_stats(result.corpus)
    assert before == after


def test_deficiency_empty_corpus():
    _columns, rows = deficiency_stats(Corpus([]))
    assert rows == [
        *(("(all)", slot, "0", "0", "0.0000") for slot in ASPECT_SLOTS),
        ("(all)", "(mean)", "", "", "0.0000"),
    ]


def test_completion_stats_counts():
    result = run_completion(build_reports(), build_entries(), build_links())
    columns, rows = completion_stats(result.corpus)
    assert columns == ("source", "aspect", "origin", "pocs_completed", "aspects_completed")
    counts = {row[:3]: (int(row[3]), int(row[4])) for row in rows}
    assert {source for source, _slot, _origin in counts} == {"ExploitDB", "(all)"}
    assert counts[("ExploitDB", "software_version", "from_cve")] == (4, 5)
    assert counts[("ExploitDB", "test_platform", "from_cve")] == (2, 2)
    assert counts[("ExploitDB", "trigger_step", "from_poc")] == (3, 3)
    assert counts[("ExploitDB", "author", "from_poc")] == (3, 3)
    assert counts[("ExploitDB", "title", "from_poc")] == (1, 1)
    assert ("ExploitDB", "title", "from_cve") not in counts
    assert counts[("(all)", "(all)", "from_cve")] == (6, 7)
    assert counts[("(all)", "(all)", "from_poc")] == (13, 13)
    per_slot = [n for (source, _, _), (_, n) in counts.items() if source != "(all)"]
    assert sum(per_slot) == len(result.records) == 20


# --- both tables fold over the completed corpus -------------------------------------

SOURCES = ("ExploitDB", "PacketStorm")
CVES = ("CVE-2020-0001", "CVE-2020-0002", "CVE-2021-0003")
# few texts, so that software names meet CVE products and values repeat
TEXTS = ("AlphaServ 2.0", "alphaserv", "BetaWeb 1.1", "Windows", "Linux", "step one")
LINK_KINDS = (TEXT, ContentKind.PYTHON)


@st.composite
def fusion_inputs(draw):
    """A small corpus over two sources holding Original values only, CVE
    entries for some of the CVE ids, and links between its reports."""
    texts = st.lists(st.sampled_from(TEXTS), max_size=2)
    reports = [
        PocReport(
            id=f"r{n}",
            source=draw(st.sampled_from(SOURCES)),
            raw_content="text",
            content_kind=draw(st.sampled_from(LINK_KINDS)),
            cve_ids=tuple(draw(st.lists(st.sampled_from(CVES), unique=True, max_size=2))),
            aspects=AspectSet().with_added(
                **{slot: aspect_values(draw(texts)) for slot in ASPECT_SLOTS}
            ),
        )
        for n in range(draw(st.integers(1, 6)))
    ]
    entries = {
        cve_id: CveEntry(
            cve_id,
            (CveProduct(draw(st.sampled_from(TEXTS)), tuple(draw(texts))),),
            tuple(draw(texts)),
        )
        for cve_id in draw(st.lists(st.sampled_from(CVES), unique=True))
    }
    pairs = list(itertools.combinations([r.id for r in reports], 2))
    links = [
        PocLink(a, b, draw(st.none() | st.sampled_from(CVES).map(SharedCve)),
                draw(st.floats(0.0, 1.0)), draw(st.sampled_from(LINK_KINDS)))
        for a, b in (draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    ]
    return Corpus(reports), entries, links


def completion_table_from_records(records, corpus):
    """The completion table counted from the audit records, the way the stats
    stage counted it while it read them: distinct targets and records per
    (source, slot, origin kind)."""
    targets = {}
    values = Counter()
    for record in records:
        key = (corpus.get(record.target).source, record.slot, record.origin.encode()["kind"])
        targets.setdefault(key, set()).add(record.target)
        values[key] += 1
    rows = [
        (*key, str(len(targets[key])), str(values[key]))
        for key in itertools.product(
            dict.fromkeys(r.source for r in corpus), ASPECT_SLOTS, ORIGIN_KINDS
        )
        if key in values
    ]
    for origin in ORIGIN_KINDS:
        pocs = sum(len(ids) for key, ids in targets.items() if key[2] == origin)
        count = sum(n for key, n in values.items() if key[2] == origin)
        rows.append(("(all)", "(all)", origin, str(pocs), str(count)))
    return COMPLETION_COLUMNS, rows


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fusion_inputs())
def test_tables_from_the_completed_corpus_equal_the_record_counts(inputs):
    corpus, entries, links = inputs
    result = run_completion(corpus, entries, links)
    assert completion_stats(result.corpus) == completion_table_from_records(
        result.records, result.corpus
    )
    assert deficiency_stats(result.corpus) == deficiency_stats(corpus)


def test_deficiency_markdown_layout():
    table = deficiency_stats(two_source_corpus())
    lines = render_report(table, "markdown").splitlines()
    assert lines[0] == "| source | aspect | present | total | presence_rate |"
    assert lines[1] == "| --- | --- | --- | --- | --- |"
    # 8 slot rows per source, 8 overall rows, one mean row
    assert len(lines) == 2 + 2 * 8 + 8 + 1
    assert lines[2] == "| ExploitDB | trigger_step | 0 | 2 | 0.0000 |"
    assert "| ExploitDB | title | 2 | 2 | 1.0000 |" in lines
    assert "| (all) | author | 1 | 3 | 0.3333 |" in lines
    assert lines[-1] == "| (all) | (mean) |  |  | 0.2083 |"


def test_deficiency_csv_layout():
    table = deficiency_stats(Corpus([report("e1", "ExploitDB", title=["T"])]))
    got = render_report(table, "csv")
    lines = got.splitlines()
    assert lines[0] == "source,aspect,present,total,presence_rate"
    assert len(lines) == 1 + 8 + 8 + 1
    assert "ExploitDB,title,1,1,1.0000" in lines
    assert "(all),title,1,1,1.0000" in lines
    assert lines[-1] == "(all),(mean),,,0.1250"
    assert got.endswith("\n")


def test_completion_render_skips_empty_rows():
    result = run_completion(build_reports(), build_entries(), build_links())
    table = completion_stats(result.corpus)
    md = render_report(table, "markdown")
    lines = md.splitlines()
    assert lines[0] == "| source | aspect | origin | pocs_completed | aspects_completed |"
    assert "| ExploitDB | software_version | from_cve | 4 | 5 |" in lines
    assert "| (all) | (all) | from_cve | 6 | 7 |" in lines
    assert "| (all) | (all) | from_poc | 13 | 13 |" in lines
    # slots never completed produce no rows
    assert not any("| 0 | 0 |" in line and "(all)" not in line for line in lines)

    csv_lines = render_report(table, "csv").splitlines()
    assert csv_lines[0] == "source,aspect,origin,pocs_completed,aspects_completed"
    assert "ExploitDB,verification_oracle,from_poc,1,1" in csv_lines


def test_completion_render_row_order():
    # rows follow source encounter order, then slot order, then origin kind
    result = run_completion(build_reports(), build_entries(), build_links())
    table = completion_stats(result.corpus)
    rows = render_report(table, "csv").splitlines()[1:]
    slots = [line.split(",")[1] for line in rows if not line.startswith("(all)")]
    order = {slot: i for i, slot in enumerate(ASPECT_SLOTS)}
    assert slots == sorted(slots, key=order.__getitem__)


def test_render_rejects_unknown_format():
    table = deficiency_stats(Corpus([]))
    with pytest.raises(ValueError):
        render_report(table, "html")


def test_markdown_escapes_pipe_in_cells():
    # source labels come from the user; "|" is a CSV cell's plain text but
    # would end a Markdown cell
    table = deficiency_stats(Corpus([report("l1", "Lab|One", title=["T"])]))
    md = render_report(table, "markdown").splitlines()
    assert "| Lab\\|One | title | 1 | 1 | 1.0000 |" in md
    assert all(line.replace("\\|", "").count("|") == 6 for line in md)
    assert "Lab|One,title,1,1,1.0000" in render_report(table, "csv").splitlines()
