"""Nine gate checks for the toolkit, one test per criterion. Criterion 8,
the skip-gram embedding, went with the trainer; the others keep their
numbers.

Each test prints a single CRITERION line on success; the pytest -v report
carries the same one-line-per-criterion pass/fail signal.
"""

import json
import math
import random
import string
import time
from collections import Counter
from pathlib import Path

import pytest

from pocfusion import (
    ASPECT_SLOTS,
    CompletionConfig,
    Corpus,
    FromPoc,
    HeuristicPairClassifier,
    PocLink,
    PocReport,
    ScoringModels,
    SharedCve,
    aspect_values,
    build_link_graph,
    build_pair_training_set,
    categorize,
    detect_language,
    evaluate_extraction,
    extract_all,
    load_corpus,
    load_gold_annotations,
    load_links,
    precision_recall,
    replay_completion,
    run_completion,
    save_corpus,
    score_pair,
    tokenize_code,
)
from pocfusion.cli import main as cli_main
from pocfusion.corpus import AspectSet, ContentKind
from pocfusion.similarity import cosine_similarity

import classify_fixtures
import fusion_fixture
import gold_corpus


def _passed(number: int, detail: str) -> None:
    print(f"CRITERION {number}: PASS ({detail})")


# --- 1: cosine against a brute-force oracle ---------------------------------------


def _oracle_cosine(a: dict, b: dict) -> float:
    dot = sum(value * b.get(key, 0.0) for key, value in a.items())
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def _random_sparse(rng: random.Random, universe: list[str]) -> dict:
    keys = rng.sample(universe, rng.randint(0, 12))
    return {key: rng.uniform(0.0, 10.0) for key in keys}


def test_criterion_01_cosine_matches_bruteforce_oracle():
    started = time.perf_counter()
    rng = random.Random(42)
    universe = [f"t{i}" for i in range(40)]
    checked = 0
    for _ in range(1000):
        a, b = _random_sparse(rng, universe), _random_sparse(rng, universe)
        got = cosine_similarity(a, b)
        assert got == pytest.approx(_oracle_cosine(a, b), abs=1e-9)
        assert got == pytest.approx(cosine_similarity(b, a), abs=1e-12)
        if a:
            assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-9)
        scale = rng.uniform(0.1, 100.0)
        scaled = {key: value * scale for key, value in a.items()}
        assert cosine_similarity(scaled, b) == pytest.approx(got, abs=1e-9)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 1000 and elapsed < 5.0
    _passed(1, f"1000 sparse pairs within 1e-9 in {elapsed:.2f}s")


# --- 2: code tokenizer against a character-walk oracle ------------------------------


_IDENT_CHARS = set(string.ascii_letters + string.digits + "_")


def _oracle_tokenize(content: str) -> Counter:
    counts: Counter = Counter()
    word = []
    for ch in content:
        if ch in _IDENT_CHARS:
            word.append(ch)
            continue
        if word:
            counts["".join(word)] += 1
            word = []
        if not ch.isspace():
            counts[ch] += 1
    if word:
        counts["".join(word)] += 1
    return counts


def test_criterion_02_tokenizer_matches_character_walk():
    alphabet = (
        string.ascii_letters + string.digits + "_" + " \t\n" * 4
        + "()+-*/=<>!\"'{}[];:,.#$%&|^~`?@\\" + "é "
    )
    rng = random.Random(11)
    for _ in range(500):
        snippet = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
        assert tokenize_code(snippet) == _oracle_tokenize(snippet)
    _passed(2, "500 random snippets tokenized identically")


# --- 3: classification fixtures ------------------------------------------------------


PROSE_TAIL = (
    "\n\nVendor response: the maintainers acknowledged the report and said a "
    "fix would land in the next scheduled release. Users are advised to "
    "restrict access to the affected service in the meantime."
)


def test_criterion_03_classification_fixtures():
    assert len(classify_fixtures.CODE_FIXTURES) >= 18
    assert len({lang for lang, _ in classify_fixtures.CODE_FIXTURES}) == 9
    assert len(classify_fixtures.PROSE_FIXTURES) >= 6
    for lang, snippet in classify_fixtures.CODE_FIXTURES:
        detected = detect_language(snippet)
        assert detected is not None and detected[0] == ContentKind("code:" + lang), lang
        appended = detect_language(snippet + PROSE_TAIL)
        assert appended is not None and appended[0] == ContentKind("code:" + lang), lang
    for prose in classify_fixtures.PROSE_FIXTURES:
        assert detect_language(prose) is None
    _passed(3, "18 code snippets, 6 prose documents, prose-append stable")


# --- 4: extraction quality floor ----------------------------------------------------


def test_criterion_04_extraction_quality_floor(tmp_path):
    started = time.perf_counter()
    corpus = gold_corpus.build_corpus()
    assert len(corpus) >= 50
    gold_path = tmp_path / "gold.jsonl"
    gold_corpus.write_gold_file(gold_path)
    gold = load_gold_annotations(gold_path)
    covered = {slot for annotations in gold.values() for slot in annotations}
    assert covered == set(ASPECT_SLOTS)
    predicted = Corpus(extract_all(report) for report in corpus)
    counts = evaluate_extraction(gold, predicted)
    elapsed = time.perf_counter() - started
    precision, recall = precision_recall(*map(sum, zip(*counts.values())))
    assert precision >= 0.85, precision
    assert recall >= 0.75, recall
    assert precision_recall(*counts["reference"])[0] >= 0.9
    assert precision_recall(*counts["publish_time"])[0] >= 0.9
    assert elapsed < 30.0
    _passed(
        4,
        f"{len(corpus)} docs, P={precision:.4f} R={recall:.4f} in {elapsed:.2f}s",
    )


# --- 5: CVE fusion oracle ------------------------------------------------------------


def test_criterion_05_fusion_matches_hand_computed_output():
    result = run_completion(
        fusion_fixture.build_reports(),
        fusion_fixture.build_entries(),
        fusion_fixture.build_links(),
    )
    got = Counter((r.target, r.slot, r.value, r.origin) for r in result.records)
    assert got == Counter(fusion_fixture.EXPECTED_RECORD_ROWS)
    fusion_fixture.check_enriched(result.corpus)
    # the fixture includes a partially filled version slot and an entry
    # without platforms; both must have behaved as designed
    r1 = result.corpus.get("r1")
    assert r1.aspects.texts("software_version") == ["2.0", "2.1"]
    for rid in ("r3", "r4"):
        assert result.corpus.get(rid).aspects.texts("test_platform") == []
    _passed(5, f"{len(result.records)} records match the precomputed multiset")


# --- 6: threshold behavior -----------------------------------------------------------


def _straddle_report(rid, content, kind, cve):
    return PocReport(
        id=rid,
        source="ExploitDB",
        raw_content=content,
        content_kind=kind,
        cve_ids=(cve,),
        aspects=AspectSet(),
    )


def test_criterion_06_links_and_donations_respect_thresholds():
    py = ContentKind.PYTHON
    text = ContentKind.decode("text")
    corpus = Corpus(
        [
            _straddle_report("c1", "x y", py, "CVE-2020-0001"),
            _straddle_report("c2", "x z", py, "CVE-2020-0001"),
            _straddle_report("c3", "q w", py, "CVE-2020-0002"),
            _straddle_report("c4", "e r", py, "CVE-2020-0002"),
            # word counts (pp: 2, qq: 1) and (pp: 1, qq: 4): cosine
            # 6 / sqrt(5 * 17) = 0.6508, between the default text threshold
            # and +0.01
            _straddle_report("t1", "pp pp qq", text, "CVE-2020-0003"),
            _straddle_report("t2", "pp qq qq qq qq", text, "CVE-2020-0003"),
            # cosine 1 / sqrt(3) = 0.5774
            _straddle_report("t3", "pp rr ss", text, "CVE-2020-0004"),
            _straddle_report("t4", "pp", text, "CVE-2020-0004"),
        ]
    )
    models = ScoringModels()

    def links_for(config):
        return build_link_graph(corpus, models, None, config)

    default_links = links_for(CompletionConfig())
    by_pair = {(l.a, l.b): l.similarity for l in default_links}
    assert by_pair == {
        ("c1", "c2"): 0.5,
        ("t1", "t2"): 6 / math.sqrt(85),
    }
    # pairs left unlinked really do score under their thresholds
    assert score_pair(corpus.get("c3"), corpus.get("c4"), ContentKind.PYTHON, models) < 0.5
    assert score_pair(corpus.get("t3"), corpus.get("t4"), ContentKind.TEXT, models) < 0.65

    raised_code = links_for(CompletionConfig(code_threshold=0.51))
    assert {(l.a, l.b) for l in raised_code} == {("t1", "t2")}
    raised_text = links_for(CompletionConfig(text_threshold=0.66))
    assert {(l.a, l.b) for l in raised_text} == {("c1", "c2")}
    assert len(raised_code) < len(default_links)
    assert len(raised_text) < len(default_links)

    # donations over explicit links straddling both thresholds
    def donor_pair(rid, donor_id, cve):
        empty = _straddle_report(rid, "body", text, cve)
        full = PocReport(
            id=donor_id,
            source="ExploitDB",
            raw_content="body",
            content_kind=text,
            cve_ids=(cve,),
            aspects=AspectSet().with_added(author=aspect_values([f"by-{donor_id}"])),
        )
        return empty, full

    a1, a2 = donor_pair("da", "db", "CVE-2020-0005")
    b1, b2 = donor_pair("dc", "dd", "CVE-2020-0006")
    donation_corpus = Corpus([a1, a2, b1, b2])
    donation_links = [
        PocLink("da", "db", SharedCve("CVE-2020-0005"), 0.5, ContentKind.PYTHON),
        PocLink("dc", "dd", SharedCve("CVE-2020-0006"), 0.65, ContentKind.TEXT),
    ]

    def records_for(config):
        result = run_completion(donation_corpus, {}, donation_links, config)
        return [(r.target, r.value) for r in result.records], result.skipped_links

    base, skipped = records_for(CompletionConfig())
    assert sorted(base) == [("da", "by-db"), ("dc", "by-dd")] and skipped == 0
    code_up, skipped = records_for(CompletionConfig(code_threshold=0.51))
    assert code_up == [("dc", "by-dd")] and skipped == 1
    text_up, skipped = records_for(CompletionConfig(text_threshold=0.66))
    assert text_up == [("da", "by-db")] and skipped == 1
    assert len(code_up) < len(base) and len(text_up) < len(base)
    _passed(6, "links and donations flip exactly at 0.5/0.65, +0.01 drops them")


# --- 7: idempotence and replay -------------------------------------------------------


def test_criterion_07_idempotence_and_replay(tmp_path):
    pre = fusion_fixture.build_reports()
    entries = fusion_fixture.build_entries()
    links = fusion_fixture.build_links()
    first = run_completion(pre, entries, links)
    second = run_completion(first.corpus, entries, links)
    assert second.records == []
    replayed = replay_completion(pre, first.records)
    save_corpus(replayed, tmp_path / "replayed.jsonl")
    save_corpus(first.corpus, tmp_path / "completed.jsonl")
    assert (tmp_path / "replayed.jsonl").read_bytes() == (
        tmp_path / "completed.jsonl"
    ).read_bytes()
    _passed(7, "second run adds nothing; replay is byte-exact")


# --- 9: training-set builder ---------------------------------------------------------


def test_criterion_09_training_set_builder():
    text = ContentKind.decode("text")
    reports = []
    for group in range(25):
        for member in range(8):
            reports.append(
                PocReport(
                    id=f"g{group:02d}r{member}",
                    source="ExploitDB",
                    raw_content="body",
                    content_kind=text,
                    cve_ids=(f"CVE-2020-{1000 + group}",),
                    aspects=AspectSet(),
                )
            )
    corpus = Corpus(reports)
    samples = build_pair_training_set(corpus, n_pos=600, n_neg=5400, seed=13)
    assert len(samples) == 6000
    partitions = Counter(s["partition"] for s in samples)
    assert partitions == {"train": 4800, "dev": 600, "test": 600}
    keys = [(s["a"], s["b"]) for s in samples]
    assert len(set(keys)) == 6000
    for sample in samples:
        shared = set(corpus.get(sample["a"]).cve_ids) & set(corpus.get(sample["b"]).cve_ids)
        assert sample["label"] == ("same_vulnerability" if shared else "different")
    assert sum(s["label"] == "same_vulnerability" for s in samples) == 600
    _passed(9, "600+5400 pairs split 4800/600/600, disjoint, labels consistent")


# --- 10: end-to-end determinism on the demo corpus -----------------------------------


DEMO_HAND_COUNTS = {
    # slot -> per-source present counts in config order, hand-derived by
    # reading each demo document against the extraction rules
    "trigger_step": (1, 2, 2, 0),
    "verification_oracle": (1, 1, 2, 1),
    "test_platform": (4, 2, 1, 1),
    "software_version": (2, 2, 0, 0),
    "title": (6, 1, 2, 3),
    "author": (3, 4, 1, 3),
    "publish_time": (2, 3, 1, 2),
    "reference": (2, 1, 3, 0),
}
DEMO_SOURCES = (("ExploitDB", 6), ("PacketStorm", 5), ("Seebug", 5), ("CXSecurity", 4))


def _expected_deficiency_markdown() -> str:
    header = "| source | aspect | present | total | presence_rate |"
    rule = "| --- | --- | --- | --- | --- |"
    lines = [header, rule]
    for index, (source, total) in enumerate(DEMO_SOURCES):
        for slot in ASPECT_SLOTS:
            present = DEMO_HAND_COUNTS[slot][index]
            lines.append(
                f"| {source} | {slot} | {present} | {total} | {present / total:.4f} |"
            )
    grand_total = sum(total for _, total in DEMO_SOURCES)
    rates = []
    for slot in ASPECT_SLOTS:
        present = sum(DEMO_HAND_COUNTS[slot])
        rates.append(present / grand_total)
        lines.append(
            f"| (all) | {slot} | {present} | {grand_total} | {present / grand_total:.4f} |"
        )
    mean = sum(rates) / len(rates)
    lines.append(f"| (all) | (mean) |  |  | {mean:.4f} |")
    return "\n".join(lines) + "\n"


def _run_demo(workspace: Path) -> None:
    code = cli_main(
        ["run-all", "--config", "demo/config.cfg", "--workspace", str(workspace)]
    )
    assert code == 0


def test_criterion_10_demo_pipeline_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    started = time.perf_counter()
    ws_a, ws_b = tmp_path / "first", tmp_path / "second"
    _run_demo(ws_a)
    _run_demo(ws_b)
    elapsed = time.perf_counter() - started
    files_a = sorted(p.relative_to(ws_a) for p in ws_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(ws_b) for p in ws_b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (ws_a / name).read_bytes() == (ws_b / name).read_bytes(), name
    deficiency = (ws_a / "deficiency.md").read_text(encoding="utf-8")
    assert deficiency == _expected_deficiency_markdown()
    assert elapsed < 60.0
    _passed(
        10,
        f"two runs over {len(files_a)} files byte-identical, deficiency table "
        f"matches hand counts, {elapsed:.2f}s",
    )


# --- regression pins over the demo workspace (not a numbered criterion) -------------


def test_demo_workspace_regression_pins(tmp_path, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    ws = tmp_path / "ws"
    _run_demo(ws)
    links = (ws / "links.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(links) == 7
    # the short advisory cx-401 scores 0.334 and 0.408 against its two
    # CVE-2021-33009 siblings, under the 0.65 text threshold
    assert not any('"cx-401"' in l for l in links)
    classifier_links = [l for l in links if '"classifier"' in l]
    assert len(classifier_links) == 1
    assert '"edb-105"' in classifier_links[0] and '"sb-303"' in classifier_links[0]
    records = (ws / "completion_records.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(records) == 46
    for line in records:
        assert list(json.loads(line)) == ["target", "slot", "value", "origin"], line
    manifest = json.loads((ws / "manifests" / "complete.json").read_text())
    assert manifest["skipped_links"] == 0
    assert manifest["failed_associations"] == 0
    assert not (ws / "embedding_model.json").exists()


def test_demo_donated_values_name_their_link(tmp_path, monkeypatch):
    # where-provenance: a donated value names the link it came over, with
    # that link's basis and similarity
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    ws = tmp_path / "ws"
    _run_demo(ws)
    links = {(link.a, link.b): link for link in load_links(ws / "links.jsonl")}
    classifier_made = set()  # whether each donated value came over a classifier link
    for report in load_corpus(ws / "corpus_completed.jsonl"):
        for slot in ASPECT_SLOTS:
            for value in report.aspects.values(slot):
                origin = value.provenance
                if isinstance(origin, FromPoc):
                    link = links[tuple(sorted((report.id, origin.donor_id)))]
                    assert (link.basis, link.similarity) == (origin.basis, origin.similarity)
                    classifier_made.add(origin.basis is None)
    assert classifier_made == {True, False}


def test_demo_outputs_do_not_depend_on_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    ws_a, ws_b = tmp_path / "unset", tmp_path / "seed8"
    _run_demo(ws_a)  # demo/config.cfg sets no seed
    assert cli_main(
        ["run-all", "--config", "demo/config.cfg", "--workspace", str(ws_b), "--seed", "8"]
    ) == 0
    # every file, the manifests and their config hashes too
    files_a = sorted(p.relative_to(ws_a) for p in ws_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(ws_b) for p in ws_b.rglob("*") if p.is_file())
    assert files_a == files_b and Path("links.jsonl") in files_a
    for name in files_a:
        assert (ws_a / name).read_bytes() == (ws_b / name).read_bytes(), name
