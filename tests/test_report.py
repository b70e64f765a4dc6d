import pytest

from pocfusion import (
    ASPECT_SLOTS,
    CompletionRecord,
    Corpus,
    FromCve,
    PocReport,
    SourceId,
    aspect_values,
    completion_stats,
    deficiency_stats,
    render_report,
    run_completion,
)
from pocfusion.corpus import AspectSet, AspectValue, ContentKind

from fusion_fixture import build_entries, build_links, build_reports

TEXT = ContentKind.decode("text")


def report(rid, source, **slots):
    aspects = AspectSet()
    for slot, values in slots.items():
        if values and isinstance(values[0], AspectValue):
            aspects = aspects.with_added(slot, values)
        else:
            aspects = aspects.with_added(slot, aspect_values(values))
    return PocReport(
        id=rid,
        source=SourceId.parse(source),
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
    table = deficiency_stats(two_source_corpus())
    assert table.sources == ("ExploitDB", "PacketStorm")
    assert table.totals == {"ExploitDB": 2, "PacketStorm": 1}
    assert table.present[("ExploitDB", "title")] == 2
    assert table.present[("ExploitDB", "author")] == 1
    assert table.present[("PacketStorm", "trigger_step")] == 1
    # completed platform value does not count as present
    assert table.present[("PacketStorm", "test_platform")] == 0
    assert table.presence_rate("ExploitDB", "author") == 0.5
    assert table.overall_present("title") == 3
    assert table.overall_total() == 3
    assert table.overall_rate("title") == 1.0
    assert table.mean_presence == pytest.approx(5 / 24)


def test_deficiency_unchanged_by_completion():
    before = deficiency_stats(build_reports())
    result = run_completion(build_reports(), build_entries(), build_links())
    after = deficiency_stats(result.corpus)
    assert before == after


def test_deficiency_empty_corpus():
    table = deficiency_stats(Corpus([]))
    assert table.empty
    assert table.sources == ()
    assert table.overall_rate("title") == 0.0
    assert table.mean_presence == 0.0


def test_completion_stats_counts():
    result = run_completion(build_reports(), build_entries(), build_links())
    table = completion_stats(result.records, result.corpus)
    assert table.sources == ("ExploitDB",)
    assert table.row("ExploitDB", "software_version", "from_cve") == (4, 5)
    assert table.row("ExploitDB", "test_platform", "from_cve") == (2, 2)
    assert table.row("ExploitDB", "trigger_step", "from_poc") == (3, 3)
    assert table.row("ExploitDB", "author", "from_poc") == (3, 3)
    assert table.row("ExploitDB", "title", "from_poc") == (1, 1)
    assert table.row("ExploitDB", "title", "from_cve") == (0, 0)
    assert table.overall("from_cve") == (6, 7)
    assert table.overall("from_poc") == (13, 13)
    assert sum(table.values.values()) == len(result.records) == 20


def test_completion_stats_rejects_unknown_targets():
    record = CompletionRecord("run-x", "ghost", "title", "T", FromCve("CVE-2020-0001"))
    with pytest.raises(ValueError) as err:
        completion_stats([record], Corpus([report("e1", "ExploitDB")]))
    assert "ghost" in str(err.value)


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
    table = completion_stats(result.records, result.corpus)
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
    table = completion_stats(result.records, result.corpus)
    rows = render_report(table, "csv").splitlines()[1:]
    slots = [line.split(",")[1] for line in rows if not line.startswith("(all)")]
    order = {slot: i for i, slot in enumerate(ASPECT_SLOTS)}
    assert slots == sorted(slots, key=order.__getitem__)


def test_render_rejects_unknown_format_and_type():
    table = deficiency_stats(Corpus([]))
    with pytest.raises(ValueError):
        render_report(table, "html")
    with pytest.raises(ValueError):
        render_report({"not": "a table"}, "markdown")
