import json
import math
from collections import Counter
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from pocfusion import (
    ASPECT_SLOTS,
    CompletionConfig,
    Corpus,
    CveEntry,
    CveProduct,
    FromPoc,
    HeuristicPairClassifier,
    PocLink,
    PocReport,
    ScoringModels,
    SharedCve,
    aspect_values,
    below_threshold,
    build_link_graph,
    build_pair_training_set,
    classify_pair,
    group_by_cve,
    kind_threshold,
    load_links,
    pair_kind_of,
    run_completion,
    save_links,
    score_pair,
    software_names,
)
import pocfusion.link as link_module
from pocfusion.corpus import AspectSet, ContentKind, read_jsonl, write_jsonl
from pocfusion.link import save_pair_samples, title_text
from pocfusion.similarity import cosine_similarity, tokenize_code, tokenize_text

EDB = "ExploitDB"
TEXT = ContentKind.decode("text")
PY = ContentKind.PYTHON


def report(rid, content="x", kind=TEXT, cve_ids=(), title=None, version=None):
    aspects = AspectSet()
    if title:
        aspects = aspects.with_added(title=aspect_values([title]))
    if version:
        aspects = aspects.with_added(software_version=aspect_values([version]))
    return PocReport(
        id=rid,
        source=EDB,
        raw_content=content,
        content_kind=kind,
        cve_ids=cve_ids,
        aspects=aspects,
    )


def test_pair_kind_roundtrip():
    assert ContentKind.decode("text") == TEXT
    assert ContentKind.decode("code:perl") is ContentKind.PERL
    assert ContentKind.PERL.encode() == "code:perl"
    with pytest.raises(ValueError):
        ContentKind.decode("binary")


def test_link_canonical_order():
    link = PocLink("a1", "b1", SharedCve("CVE-2020-1111"), 0.75, TEXT)
    with pytest.raises(ValueError):
        PocLink("b1", "a1", SharedCve("CVE-2020-1111"), 0.75, TEXT)
    with pytest.raises(ValueError):
        PocLink("a1", "a1", SharedCve("CVE-2020-1111"), 0.75, TEXT)
    with pytest.raises(ValueError):
        PocLink("a1", "b1", SharedCve("CVE-2020-1111"), 1.5, TEXT)


def test_link_encode_decode():
    shared = PocLink("a1", "b1", SharedCve("CVE-2020-1111"), 0.9, ContentKind.C_CPP)
    voted = PocLink("a1", "c1", None, 0.87, TEXT)
    for link in (shared, voted):
        assert PocLink.decode(link.encode()) == link
    # a link writes its basis in the text form a donated value's provenance has
    assert shared.encode()["basis"] == "shared_cve:CVE-2020-1111"
    assert voted.encode()["basis"] == "classifier"
    assert "cve_id" not in shared.encode()
    for link in (shared, voted):
        origin = FromPoc("a1", link.similarity, link.basis).encode()
        assert origin["basis"] == link.encode()["basis"]
    # a links file from a build that wrote the id apart is refused
    with pytest.raises(ValueError, match="unknown link basis: 'shared_cve'"):
        PocLink.decode({**shared.encode(), "basis": "shared_cve", "cve_id": "CVE-2020-1111"})
    with pytest.raises(ValueError):
        PocLink.decode({**shared.encode(), "basis": "shared_cve:nonsense"})
    # a link joins two reports of one code language or two text reports
    for bad_kind in ("other", "unclassified", "code", "binary"):
        with pytest.raises(ValueError):
            PocLink.decode({**voted.encode(), "kind": bad_kind})


@pytest.mark.parametrize("basis", ["shared_cve:CVE-2020-1111", "classifier", "CVE-2020-1111", 7])
def test_link_basis_is_a_shared_cve_or_none(basis):
    # a text basis once constructed, encoded as a classifier link and was
    # never below its threshold
    with pytest.raises(ValueError, match="unknown link basis"):
        PocLink("a", "b", basis, 0.1, TEXT)
    with pytest.raises(ValueError, match="unknown link basis"):
        FromPoc("a", 0.1, basis)


def test_kind_threshold():
    config = CompletionConfig()
    assert kind_threshold(ContentKind.PHP, config) == 0.5
    assert kind_threshold(TEXT, config) == 0.65
    shared = SharedCve("CVE-2020-1111")
    # a shared-CVE link is below when under its own kind's threshold
    assert below_threshold(PocLink("a", "b", shared, 0.64, TEXT), config)
    assert not below_threshold(PocLink("a", "b", shared, 0.65, TEXT), config)
    assert not below_threshold(PocLink("a", "b", shared, 0.64, PY), config)
    assert below_threshold(PocLink("a", "b", shared, 0.49, PY), config)
    # a classifier link carries a confidence, never checked against a threshold
    assert not below_threshold(PocLink("a", "b", None, 0.1, TEXT), config)


def test_group_by_cve_keeps_singletons():
    corpus = Corpus(
        [
            report("r1", cve_ids=("CVE-2020-1111", "CVE-2020-2222")),
            report("r2", cve_ids=("CVE-2020-1111",)),
            report("r3"),
        ]
    )
    groups = group_by_cve(corpus)
    assert groups == {
        "CVE-2020-1111": ["r1", "r2"],
        "CVE-2020-2222": ["r1"],
    }


def test_pair_kind_of():
    py_a, py_b = report("a", kind=PY), report("b", kind=PY)
    c = report("c", kind=ContentKind.C_CPP)
    t1, t2 = report("t1"), report("t2")
    assert pair_kind_of(py_a, py_b) == ContentKind.PYTHON
    assert pair_kind_of(py_a, c) is None
    assert pair_kind_of(t1, t2) == TEXT
    assert pair_kind_of(py_a, t1) is None
    unclassified, cc = ContentKind.UNCLASSIFIED, ContentKind.C_CPP
    kinds = [TEXT, unclassified, PY, cc]
    table = [  # rows: kind of a, columns: kind of b, both in the order of kinds
        [TEXT, None, None, None],
        [None, None, None, None],
        [None, None, PY, None],
        [None, None, None, cc],
    ]
    for kind_a, row in zip(kinds, table):
        for kind_b, expected in zip(kinds, row):
            assert pair_kind_of(report("a", kind=kind_a), report("b", kind=kind_b)) == expected


def test_candidate_pairs_filter_and_order():
    corpus = Corpus(
        [
            report("z9", kind=PY, cve_ids=("CVE-2019-7008",)),
            report("a1", kind=PY, cve_ids=("CVE-2019-7008",)),
            report("m5", cve_ids=("CVE-2019-7008",)),
        ]
    )
    # at zero thresholds every same-kind pair of the group links
    links = build_link_graph(corpus, ScoringModels(), None, CompletionConfig(0.0, 0.0))
    assert [(link.a, link.b, link.kind) for link in links] == [("a1", "z9", ContentKind.PYTHON)]


def test_score_pair_code_cosine():
    models = ScoringModels()
    a = report("a", content="x y", kind=PY)
    b = report("b", content="x z", kind=PY)
    assert score_pair(a, b, ContentKind.PYTHON, models) == 0.5
    assert score_pair(a, a, ContentKind.PYTHON, models) == 1.0


def code_report(rid, counts):
    content = " ".join(token for token, n in sorted(counts.items()) for _ in range(n))
    return report(rid, content=content, kind=PY)


token_counts = st.dictionaries(
    st.sampled_from(["x", "y", "z", "q", "w1", "_v"]),
    st.integers(min_value=1, max_value=60),
    max_size=6,
)


@settings(derandomize=True, max_examples=200)
@given(
    token_counts,
    token_counts,
    st.lists(token_counts, max_size=10),
    st.integers(0, 10),
)
def test_code_cosine_equals_sparse_cosine_bit_for_bit(a_counts, b_counts, others, at):
    a, b = code_report("a", a_counts), code_report("b", b_counts)
    assert tokenize_code(a.raw_content) == Counter(a_counts)
    expected = cosine_similarity(Counter(a_counts), Counter(b_counts)).hex()
    # the pair on its own
    assert ScoringModels().content_cosine(a, b).hex() == expected
    # the same pair among up to 12 reports whose counts one models keeps, and
    # every other pair of them, in both orders
    block = [code_report(f"o{i}", counts) for i, counts in enumerate(others)]
    block[at:at] = [a]
    block.append(b)
    models = ScoringModels()
    assert models.content_cosine(a, b).hex() == expected
    for x, y in combinations(block, 2):
        for u, v in ((x, y), (y, x)):
            oracle = cosine_similarity(tokenize_code(u.raw_content), tokenize_code(v.raw_content))
            assert models.content_cosine(u, v).hex() == oracle.hex()


def words_of(counts):
    return " ".join(word for word, n in sorted(counts.items()) for _ in range(n))


def text_report(rid, content_counts, title_counts):
    return report(rid, content=words_of(content_counts), title=words_of(title_counts) or None)


word_count_maps = st.dictionaries(
    st.sampled_from(["aa", "bb", "dos", "rce", "fooserv", "x9"]),
    st.integers(min_value=1, max_value=60),
    max_size=6,
)


@settings(derandomize=True, max_examples=200)
@given(
    st.tuples(word_count_maps, word_count_maps),
    st.tuples(word_count_maps, word_count_maps),
    st.lists(st.tuples(word_count_maps, word_count_maps), max_size=10),
    st.integers(0, 10),
)
def test_text_and_title_cosines_equal_sparse_cosine_bit_for_bit(a_counts, b_counts, others, at):
    a, b = text_report("a", *a_counts), text_report("b", *b_counts)
    assert Counter(tokenize_text(a.raw_content)) == Counter(a_counts[0])
    assert Counter(tokenize_text(title_text(a))) == Counter(a_counts[1])
    expected = [
        cosine_similarity(Counter(a_counts[0]), Counter(b_counts[0])),
        cosine_similarity(Counter(a_counts[1]), Counter(b_counts[1])),
    ]
    assert all(0.0 <= value <= 1.0 for value in expected)
    expected_hex = [value.hex() for value in expected]

    def cosines(models, x, y):
        return [models.content_cosine(x, y).hex(), models.title_cosine(x, y).hex()]

    def oracle(x, y):
        return [
            cosine_similarity(Counter(tokenize_text(u)), Counter(tokenize_text(v))).hex()
            for u, v in ((x.raw_content, y.raw_content), (title_text(x), title_text(y)))
        ]

    # the pair on its own
    assert cosines(ScoringModels(), a, b) == expected_hex
    # the same pair among up to 12 reports whose counts one models keeps, and
    # every other pair of them, in both orders; the block's title matrix
    # holds each pair's title cosine in row j > i
    block = [text_report(f"o{i}", *counts) for i, counts in enumerate(others)]
    block[at:at] = [a]
    block.append(b)
    models = ScoringModels()
    titles = models.title_matrix(block)
    assert cosines(models, a, b) == expected_hex
    assert cosines(models, b, a) == expected_hex
    for (i, x), (j, y) in combinations(enumerate(block), 2):
        assert cosines(models, x, y) == oracle(x, y)
        assert cosines(models, y, x) == oracle(y, x)
        assert titles[j][i].hex() == oracle(x, y)[1]


def test_code_cosine_exact_half_in_a_block():
    models = ScoringModels()
    a, b = report("a", content="x y", kind=PY), report("b", content="x z", kind=PY)
    c = report("c", content="x x y q", kind=PY)
    assert models.content_cosine(c, a) == 3 / math.sqrt(12)
    assert models.content_cosine(a, b) == 0.5
    assert score_pair(a, b, PY, models) == 0.5


@settings(derandomize=True, max_examples=200)
@given(st.lists(token_counts, max_size=12))
def test_cosine_matrix_equals_sparse_cosine_bit_for_bit(vectors):
    matrix = link_module.cosine_matrix([Counter(v) for v in vectors])
    # row i holds vector i's cosines with vectors 0..i, in input order
    assert [len(row) for row in matrix] == list(range(1, len(vectors) + 1))
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if not vectors[i] or not vectors[j]:
                assert entry.hex() == (0.0).hex()
            else:
                oracle = cosine_similarity(Counter(vectors[i]), Counter(vectors[j]))
                assert entry.hex() == oracle.hex()


def test_scores_follow_a_replaced_report():
    models = ScoringModels()
    a = report("a", content="aa bb cc")
    b = report("b", content="aa bb dd", title="FooServ overflow")
    assert (models.title_cosine(a, b), models.content_cosine(a, b)) == (0.0, 2 / 3)
    # another report of id a is counted anew, not answered from a's counts
    a2 = replace(a, aspects=b.aspects, raw_content="totally different words here")
    assert (models.title_cosine(a2, b), models.content_cosine(a2, b)) == (1.0, 0.0)
    assert models.title_matrix([a2, b])[1][0] == 1.0
    assert models.content_cosine(a, b) == 2 / 3


def empty_content_warnings(caplog):
    return [r.getMessage() for r in caplog.records if "no content tokens" in r.getMessage()]


def test_code_cosine_zero_vector_logs(caplog):
    models = ScoringModels()
    a, b = report("a", content=" ", kind=PY), report("b", content="x", kind=PY)
    c = report("c", content="x y", kind=PY)
    models.title_matrix([a, b, c])
    assert models.content_cosine(a, b) == 0.0
    assert models.content_cosine(c, a) == 0.0
    models.title_matrix([a, c])
    assert models.content_cosine(a, c) == 0.0
    # one warning for the empty report, however many of its pairs are scored
    assert empty_content_warnings(caplog) == ["report a has no content tokens, scored 0"]


def test_score_pair_empty_code(caplog):
    models = ScoringModels()
    a = report("a", content="  ", kind=PY)
    b = report("b", content="\n", kind=PY)
    assert score_pair(a, b, ContentKind.PYTHON, models) == 0.0
    assert score_pair(b, a, ContentKind.PYTHON, models) == 0.0
    assert len(empty_content_warnings(caplog)) == 2


def test_score_pair_kind_mismatch():
    models = ScoringModels()
    a = report("a", kind=PY)
    b = report("b")
    with pytest.raises(ValueError):
        score_pair(a, b, TEXT, models)
    with pytest.raises(ValueError):
        score_pair(a, report("c", kind=PY), TEXT, models)


def test_score_pair_text_uses_token_counts():
    models = ScoringModels()
    same = score_pair(report("a", "aa aa"), report("b", "AA"), TEXT, models)
    assert same == 1.0
    mixed = score_pair(report("c", "aa"), report("d", "aa bb"), TEXT, models)
    assert mixed == 1 / math.sqrt(2)
    # words are lowercased; one-character words and punctuation do not count
    counted = score_pair(report("e", "aa, b. bb!"), report("f", "Aa x bB c"), TEXT, models)
    assert counted == 1.0


def test_score_pair_empty_text(caplog):
    # no word of two or more characters on either side
    assert score_pair(report("a", "x ."), report("b", ""), TEXT, ScoringModels()) == 0.0
    warnings = empty_content_warnings(caplog)
    assert len(warnings) == 2 and "report a " in warnings[0] and "report b " in warnings[1]
    # a missing title logs nothing
    assert len(caplog.records) == 2


def test_software_names_from_title_and_versions():
    r = report(
        "a",
        title="NetLine Mail 2.1 - POP3 Remote Buffer Overflow",
        version="2.1",
    )
    assert software_names(r) == ("netline mail",)
    r2 = report("b", version="GateServe 4.0")
    assert software_names(r2) == ("gateserve",)
    assert software_names(report("c")) == ()


def test_software_names_dedup_case():
    r = report("a", title="gateserve 4.0 - DoS", version="GateServe 4.1")
    assert software_names(r) == ("gateserve",)


@pytest.mark.parametrize(
    "title, name",
    [
        ("Log4j 2.14 - RCE", "log4j"),
        ("IPv6 Stack 1.0", "ipv6 stack"),
        ("Win32 Foo 1.0", "win32 foo"),
        ("Foo\u00a01.0", "foo"),
        ("Foo\n1.0", "foo"),
        ("Foo_1.2", "foo"),
        ("Foo-1.2", "foo"),
        ("Foo v1.2", "foo"),
    ],
)
def test_software_name_ends_at_a_version_that_starts_a_word(title, name):
    assert software_names(report("a", title=title)) == (name,)


def test_software_names_original_only():
    from pocfusion import AspectValue

    r = report("a", title="NetLine Mail 2.1 - RCE")
    enriched = PocReport(
        id=r.id,
        source=r.source,
        raw_content=r.raw_content,
        content_kind=r.content_kind,
        aspects=r.aspects.with_added(
            title=[AspectValue("OtherTool 9 - x", FromPoc("d", 0.9, None))]
        ),
    )
    # a value added by completion names no software
    assert software_names(enriched) == ("netline mail",)


def test_match_software():
    # the software match is classify_pair's precondition
    classifier = HeuristicPairClassifier(ScoringModels())
    a = report("a", title="FooServ 1.0 - RCE")
    b = report("b", title="fooserv 2.2 - DoS")
    c = report("c", title="BarWare 1.0 - RCE")
    blank = report("d")
    # a name shared in another case is shared
    assert classify_pair(classifier, a, b) == classifier.classify(a, b)
    for other in (c, blank):
        with pytest.raises(ValueError, match="precondition"):
            classify_pair(classifier, a, other)


def test_classify_pair_requires_software_match():
    classifier = HeuristicPairClassifier(ScoringModels())
    with pytest.raises(ValueError, match="precondition"):
        classify_pair(classifier, report("a"), report("b"))


def test_heuristic_classifier_without_titles():
    # names from versions only: the title term is zero, and identical code
    # alone stays below the cutoff
    models = ScoringModels()
    clf = HeuristicPairClassifier(models)
    a = report("a", content="q w", kind=PY, version="FooServ 1.0")
    b = report("b", content="q w", kind=PY, version="FooServ 1.1")
    same, confidence = classify_pair(clf, a, b)
    assert not same
    assert confidence == 0.5


def test_heuristic_classifier_title_counts():
    # title words {fooserv, rce} against {fooserv, dos}: cosine 1/2
    models = ScoringModels()
    clf = HeuristicPairClassifier(models, cutoff=0.75)
    a = report("a", content="q w", kind=PY, title="FooServ 1.0 - RCE")
    b = report("b", content="q w", kind=PY, title="fooserv 2.1 - DoS")
    assert classify_pair(clf, a, b) == (True, 0.75)
    assert classify_pair(HeuristicPairClassifier(models, cutoff=0.76), a, b) == (False, 0.75)


def test_heuristic_classifier_with_matching_titles():
    models = ScoringModels()
    clf = HeuristicPairClassifier(models)
    a = report("a", content="q w", kind=PY, title="FooServ 1.0 - RCE")
    b = report("b", content="q w", kind=PY, title="FooServ 1.1 - RCE")
    same, confidence = classify_pair(clf, a, b)
    assert same and confidence == 1.0


def test_heuristic_classifier_cutoff_validation():
    with pytest.raises(ValueError):
        HeuristicPairClassifier(ScoringModels(), cutoff=1.2)
    with pytest.raises(ValueError):
        HeuristicPairClassifier(ScoringModels(), cutoff=True)


def build_demo_corpus():
    return Corpus(
        [
            # same CVE, same language, cosine exactly at the 0.5 code threshold
            report("py1", content="x y", kind=PY, cve_ids=("CVE-2019-7008",)),
            report("py2", content="x z", kind=PY, cve_ids=("CVE-2019-7008",)),
            # same CVE but a different language: never paired
            report(
                "cc1",
                content="x y",
                kind=ContentKind.C_CPP,
                cve_ids=("CVE-2019-7008",),
            ),
            # text pair above the 0.65 threshold (cosine 1)
            report("tx1", content="aa aa", cve_ids=("CVE-2014-0160",)),
            report("tx2", content="aa", cve_ids=("CVE-2014-0160",)),
            # text pairs beneath it (cosine 1/sqrt(3) with each)
            report("tx3", content="aa bb cc", cve_ids=("CVE-2014-0160",)),
            # classifier territory: same software, no shared CVE
            report("cl1", content="q w", kind=PY, title="FooServ 1.0 - RCE", cve_ids=("CVE-2021-1111",)),
            report("cl2", content="q w", kind=PY, title="FooServ 1.1 - RCE"),
        ]
    )


def test_build_link_graph():
    corpus = build_demo_corpus()
    models = ScoringModels()
    clf = HeuristicPairClassifier(models)
    links = build_link_graph(corpus, models, clf, CompletionConfig())
    as_tuples = [(l.a, l.b, l.basis, l.kind) for l in links]
    assert as_tuples == [
        ("cl1", "cl2", None, ContentKind.PYTHON),
        ("py1", "py2", SharedCve("CVE-2019-7008"), ContentKind.PYTHON),
        ("tx1", "tx2", SharedCve("CVE-2014-0160"), TEXT),
    ]
    by_key = {(l.a, l.b): l for l in links}
    assert by_key[("py1", "py2")].similarity == 0.5
    assert by_key[("tx1", "tx2")].similarity == 1.0
    assert [l for l in links if "tx3" in (l.a, l.b)] == []


def test_build_link_graph_without_classifier():
    corpus = build_demo_corpus()
    models = ScoringModels()
    links = build_link_graph(corpus, models, None, CompletionConfig())
    assert all(isinstance(l.basis, SharedCve) for l in links)


def test_build_link_graph_derives_software_names_once_per_report(monkeypatch):
    corpus = Corpus(
        list(build_demo_corpus())
        + [report("ot1", kind=ContentKind.UNCLASSIFIED, title="FooServ 2.0 - RCE")]
    )

    def graph():
        models = ScoringModels()
        return build_link_graph(
            corpus, models, HeuristicPairClassifier(models), CompletionConfig()
        )

    expected = graph()
    calls = Counter()

    def counted(r):
        calls[r.id] += 1
        return software_names(r)

    monkeypatch.setattr(link_module, "software_names", counted)
    assert graph() == expected
    # once for each text or code report, and never again for the classifier's
    # precondition; the report of another kind has no block
    assert calls == Counter({r.id: 1 for r in corpus if r.id != "ot1"})


_NAME_TEXTS = st.lists(
    st.sampled_from(["FooServ", "fooserv", "FOOSERV", "BarWare", "ΣΑΣ Mail", "σας mail"]).flatmap(
        lambda name: st.sampled_from([name, f"{name} 1.0", f"{name} v2.1 - RCE", "3.0"])
    ),
    max_size=3,
)


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.tuples(_NAME_TEXTS, _NAME_TEXTS), min_size=2, max_size=2))
def test_software_names_are_lowered_and_decide_the_precondition(texts):
    a, b = (
        replace(report(rid), aspects=AspectSet().with_added(
            title=aspect_values(titles), software_version=aspect_values(versions)
        ))
        for rid, (titles, versions) in zip("ab", texts)
    )
    for r in (a, b):
        names = software_names(r)
        assert all(name == name.lower() for name in names)
        assert len(set(names)) == len(names)

    def verdict(names):
        try:
            return classify_pair(HeuristicPairClassifier(ScoringModels()), a, b, names)
        except ValueError as exc:
            return str(exc)

    assert verdict(None) == verdict({r.id: software_names(r) for r in (a, b)})


def test_classify_pair_precondition_with_precomputed_names():
    classifier = HeuristicPairClassifier(ScoringModels())
    a = report("a", content="q w", kind=PY, title="FooServ 1.0 - RCE")
    b = report("b", content="q w", kind=PY, title="FooServ 1.1 - RCE")
    names = {"a": ("fooserv",), "b": ("barware",)}
    # the names passed in decide, not the reports' own titles
    with pytest.raises(ValueError, match="precondition"):
        classify_pair(classifier, a, b, names)
    names["b"] = ("barware", "fooserv")
    assert classify_pair(classifier, a, b, names) == classify_pair(classifier, a, b)


def gate_corpus():
    # one name block; 0.5·t + 0.5 >= 0.85 needs a title cosine t >= 0.7.
    # Titles: t = 1 among f1, f2 and f5, t = 1/2 between f3 and each of
    # them, and t = 0 for f4, named by its version only.
    return Corpus(
        [
            report("f1", content="q w", kind=PY, title="FooServ 1.0 - RCE"),
            report("f2", content="q w", kind=PY, title="FooServ 1.1 - RCE"),
            report("f3", content="q w", kind=PY, title="fooserv 2.1 - DoS"),
            report("f4", content="q w", kind=PY, version="FooServ 3"),
            report("f5", content="e r", kind=PY, title="FooServ 2.0 - RCE"),
        ]
    )


def test_a_classifier_confidence_is_checked_as_the_link_similarity():
    def answering(verdict):
        return SimpleNamespace(classify=lambda a, b: verdict)

    corpus, config = gate_corpus(), CompletionConfig()
    with pytest.raises(ValueError, match="similarity out of range: 1.5"):
        build_link_graph(corpus, ScoringModels(), answering((True, 1.5)), config)
    # a pair that is not linked leaves its confidence unused
    assert build_link_graph(corpus, ScoringModels(), answering((False, 1.5)), config) == []


def test_heuristic_classifies_only_pairs_the_title_gate_lets_in(monkeypatch):
    import socket

    from pocfusion import ExternalPairClassifier

    calls = []
    classify = link_module.classify_pair

    def counted(classifier, a, b, names=None):
        calls.append((a.id, b.id))
        return classify(classifier, a, b, names)

    monkeypatch.setattr(link_module, "classify_pair", counted)
    corpus = gate_corpus()
    models = ScoringModels()
    heuristic = HeuristicPairClassifier(models)
    links = build_link_graph(corpus, models, heuristic, CompletionConfig())
    # f5's pairs with f1 and f2 pass the gate, and fail the cutoff at 0.5
    assert calls == [("f1", "f2"), ("f1", "f5"), ("f2", "f5")]
    assert [(l.a, l.b, l.basis, l.similarity) for l in links] == [("f1", "f2", None, 1.0)]
    # an external classifier that cannot be reached sees every candidate,
    # falls back to the heuristic on each, and links the same pairs
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    calls.clear()
    models = ScoringModels()
    external = ExternalPairClassifier(
        f"http://127.0.0.1:{port}/", HeuristicPairClassifier(models)
    )
    assert build_link_graph(corpus, models, external, CompletionConfig()) == links
    candidates = list(combinations(["f1", "f2", "f3", "f4", "f5"], 2))
    assert calls == candidates
    assert external.degraded == candidates


def test_other_classifier_builds_no_title_matrix(monkeypatch):
    class Delegate:  # any classifier but the heuristic itself
        def __init__(self, classifier):
            self.classifier = classifier

        def classify(self, a, b):
            return self.classifier.classify(a, b)

    corpus = gate_corpus()
    models = ScoringModels()
    expected = build_link_graph(
        corpus, models, HeuristicPairClassifier(models), CompletionConfig()
    )

    def refused(vectors):
        raise AssertionError("a title matrix was built")

    monkeypatch.setattr(link_module, "cosine_matrix", refused)
    models = ScoringModels()
    delegate = Delegate(HeuristicPairClassifier(models))
    assert build_link_graph(corpus, models, delegate, CompletionConfig()) == expected


@pytest.mark.parametrize("cutoff, n_links", [(0.5, 8), (0.75, 3), (0.85, 1), (1.0, 1)])
def test_title_gate_at_its_edges_equals_the_oracle(cutoff, n_links):
    # at 0.5 a pair with t == 0 and equal contents still links (f4 with f1,
    # f2 and f3); at 1.0 only pairs with t == 1.0 pass the gate
    corpus = gate_corpus()
    models = ScoringModels()
    classifier = HeuristicPairClassifier(models, cutoff)
    links = build_link_graph(corpus, models, classifier, CompletionConfig())
    assert links == oracle_link_graph(corpus, cutoff, CompletionConfig())
    assert len(links) == n_links


def test_shared_cve_basis_wins_over_classifier():
    # same CVE and same software: the link must carry the shared-CVE basis
    corpus = Corpus(
        [
            report("a1", content="q w", kind=PY, title="FooServ 1.0 - RCE", cve_ids=("CVE-2021-1111",)),
            report("b1", content="q w", kind=PY, title="FooServ 1.1 - RCE", cve_ids=("CVE-2021-1111",)),
        ]
    )
    models = ScoringModels()
    clf = HeuristicPairClassifier(models)
    (link,) = build_link_graph(corpus, models, clf, CompletionConfig())
    assert link.basis == SharedCve("CVE-2021-1111")


def test_pair_sharing_two_cves_links_once():
    # the pair is a candidate in both CVE groups; the lower id's group wins
    cve_ids = ("CVE-2021-1111", "CVE-2020-2222")
    corpus = Corpus(
        [
            report("a1", content="q w", kind=PY, cve_ids=cve_ids),
            report("b1", content="q w", kind=PY, cve_ids=cve_ids),
        ]
    )
    models = ScoringModels()
    (link,) = build_link_graph(corpus, models, None, CompletionConfig())
    assert (link.a, link.b, link.basis) == ("a1", "b1", SharedCve("CVE-2020-2222"))


def test_below_threshold_shared_cve_not_rescued_by_classifier():
    # shared CVE with dissimilar code: no link even though software matches
    corpus = Corpus(
        [
            report("a1", content="q w", kind=PY, title="FooServ 1.0 - RCE", cve_ids=("CVE-2021-1111",)),
            report("b1", content="e r", kind=PY, title="FooServ 1.1 - RCE", cve_ids=("CVE-2021-1111",)),
        ]
    )
    models = ScoringModels()
    clf = HeuristicPairClassifier(models)
    assert build_link_graph(corpus, models, clf, CompletionConfig()) == []
    # nor by a classifier that would link it: the pair is never offered
    calls = []
    always = SimpleNamespace(classify=lambda a, b: calls.append((a.id, b.id)) or (True, 0.9))
    assert build_link_graph(corpus, models, always, CompletionConfig()) == []
    assert calls == []


def test_links_roundtrip(tmp_path):
    links = [
        PocLink("a1", "b1", SharedCve("CVE-2020-1111"), 0.625, ContentKind.PHP),
        PocLink("a1", "c1", None, 0.875, TEXT),
        PocLink("a\u2028x", "b\u2029y\u0085", None, 0.5, TEXT),
    ]
    path = tmp_path / "links.jsonl"
    save_links(links, path)
    assert load_links(path) == links
    data = path.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == len(links)
    save_links(load_links(path), path)
    assert path.read_bytes() == data
    save_links([], path)
    assert path.read_text(encoding="utf-8") == ""
    assert load_links(path) == []
    path.write_bytes(data + b"[1]\n")
    with pytest.raises(ValueError, match=f"links.jsonl:{len(links) + 1}:"):
        load_links(path)


def tagged_corpus():
    reports = []
    cves = ["CVE-2020-0001", "CVE-2020-0002", "CVE-2020-0003"]
    for i in range(9):
        reports.append(report(f"r{i}", cve_ids=(cves[i % 3],)))
    reports.append(report("untagged"))
    return Corpus(reports)


def test_training_set_labels_and_split():
    corpus = tagged_corpus()
    samples = build_pair_training_set(corpus, n_pos=8, n_neg=12, seed=1)
    assert len(samples) == 20
    assert [s["partition"] for s in samples] == ["train"] * 16 + ["dev"] * 2 + ["test"] * 2
    for s in samples:
        a, b = corpus.get(s["a"]), corpus.get(s["b"])
        shared = set(a.cve_ids) & set(b.cve_ids)
        assert s["label"] == ("same_vulnerability" if shared else "different")
        assert s["a"] < s["b"]
        assert "untagged" not in (s["a"], s["b"])
    keys = [(s["a"], s["b"]) for s in samples]
    assert len(set(keys)) == len(keys)


def test_training_split_is_not_moved_by_float_error():
    # 0.29 * 100 is 28.999999999999996 in floating point
    corpus = Corpus(
        report(f"r{i:02d}", cve_ids=(f"CVE-2020-{1000 + i // 2}",)) for i in range(30)
    )
    samples = build_pair_training_set(corpus, 10, 90, split=(0.29, 0.71, 0.0))
    assert Counter(s["partition"] for s in samples) == {"train": 29, "dev": 71}


def test_training_set_deterministic():
    corpus = tagged_corpus()
    one = build_pair_training_set(corpus, 5, 5, seed=7)
    two = build_pair_training_set(corpus, 5, 5, seed=7)
    assert one == two
    three = build_pair_training_set(corpus, 5, 5, seed=8)
    assert one != three


def test_training_set_shortfall_message():
    corpus = tagged_corpus()
    with pytest.raises(ValueError) as err:
        build_pair_training_set(corpus, n_pos=100, n_neg=1)
    assert "100" in str(err.value) and "9" in str(err.value)


def test_training_set_shortfall_counts_every_pair():
    # 9 tagged reports in 3 CVE groups of 3: 9 positive pairs of 36, 27 negative
    corpus = tagged_corpus()
    with pytest.raises(ValueError) as err:
        build_pair_training_set(corpus, n_pos=9, n_neg=28)
    assert str(err.value) == (
        "insufficient candidate pairs: need 9 positive have 9, need 28 negative have 27"
    )


def test_training_set_draws_every_negative_once():
    # a report with two CVE ids forms positives with both groups
    both = report("both", cve_ids=("CVE-2020-0001", "CVE-2020-0002"))
    corpus = Corpus([*tagged_corpus(), both])
    tagged = [r for r in corpus if r.cve_ids]
    negatives = {
        tuple(sorted((a.id, b.id)))
        for a, b in combinations(tagged, 2)
        if set(a.cve_ids).isdisjoint(b.cve_ids)
    }
    assert len(negatives) == 30
    samples = build_pair_training_set(corpus, n_pos=0, n_neg=len(negatives), seed=3)
    drawn = [(s["a"], s["b"]) for s in samples]
    assert len(drawn) == len(set(drawn)) and set(drawn) == negatives


def test_training_set_memory_grows_with_the_sample():
    import tracemalloc

    corpus = Corpus(
        report(f"r{i:04d}", cve_ids=(f"CVE-2020-{1000 + i // 3}",)) for i in range(3000)
    )
    tracemalloc.start()
    try:
        samples = build_pair_training_set(corpus, n_pos=100, n_neg=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Counter(s["label"] for s in samples) == {"same_vulnerability": 100, "different": 100}
    # listing all 4,498,500 pairs, as a full enumeration does, takes hundreds of MB
    assert peak < 20 * 2**20


def test_training_set_split_validation():
    with pytest.raises(ValueError):
        build_pair_training_set(tagged_corpus(), 1, 1, split=(0.5, 0.4, 0.2))


def test_save_pair_samples(tmp_path):
    corpus = tagged_corpus()
    samples = build_pair_training_set(corpus, 2, 2, seed=0)
    path = tmp_path / "samples.jsonl"
    save_pair_samples(samples, path)
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 4
    assert list(rows[0]) == [
        "a",
        "b",
        "title_a",
        "title_b",
        "content_a",
        "content_b",
        "label",
        "partition",
    ]
    data = path.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == len(samples)
    # samples have no decoder; the generic reader and writer round-trip them
    write_jsonl(path, read_jsonl(path, dict))
    assert path.read_bytes() == data
    save_pair_samples([], path)
    assert path.read_bytes() == b""


def test_title_text_first_value():
    assert title_text(report("a", title="The Title")) == "The Title"
    assert title_text(report("b")) == ""


# --- the per-pair oracle --------------------------------------------------------


def word_counts(text):
    return Counter(tokenize_text(text))


def oracle_link_graph(corpus, cutoff, config):
    """Reference graph: each candidate pair scored on its own with
    cosine_similarity of its token counts, the classifier's candidates in
    sorted key order."""

    def content_score(a, b, kind):
        counts = tokenize_code if kind.is_code else word_counts
        va, vb = counts(a.raw_content), counts(b.raw_content)
        if not va and not vb:
            return 0.0
        return cosine_similarity(va, vb)

    links = {}
    groups = group_by_cve(corpus)
    for cve_id in sorted(groups):
        for a_id, b_id in combinations(sorted(groups[cve_id]), 2):
            kind = pair_kind_of(corpus.get(a_id), corpus.get(b_id))
            if kind is not None and (a_id, b_id) not in links:
                score = content_score(corpus.get(a_id), corpus.get(b_id), kind)
                if score >= kind_threshold(kind, config):
                    links[(a_id, b_id)] = PocLink(a_id, b_id, SharedCve(cve_id), score, kind)
    if cutoff is None:
        return [links[key] for key in sorted(links)]
    by_name = {}
    for r in corpus:
        for name in software_names(r):
            by_name.setdefault(name.lower(), []).append(r.id)
    candidates = {tuple(sorted(pair)) for ids in by_name.values() for pair in combinations(ids, 2)}
    for key in sorted(candidates):
        a, b = corpus.get(key[0]), corpus.get(key[1])
        kind = pair_kind_of(a, b)
        if key in links or set(a.cve_ids) & set(b.cve_ids) or kind is None:
            continue
        title = cosine_similarity(word_counts(title_text(a)), word_counts(title_text(b)))
        combined = 0.5 * max(0.0, title) + 0.5 * content_score(a, b, kind)
        combined = min(max(combined, 0.0), 1.0)
        if combined >= cutoff:
            links[key] = PocLink(key[0], key[1], None, combined, kind)
    return [links[key] for key in sorted(links)]


ORACLE_KINDS = [TEXT, PY, ContentKind.C_CPP, ContentKind.UNCLASSIFIED]
ORACLE_TITLES = [None, "FooServ 1.0 - RCE", "fooserv 2.1 - DoS", "BarWare 3 - RCE"]


@st.composite
def linkable_corpora(draw):
    """Small corpora where names, kinds and CVE ids overlap often."""
    n = draw(st.integers(min_value=2, max_value=9))
    ids = draw(st.permutations([f"r{i}" for i in range(n)]))
    words = st.sampled_from(["x", "y", "z", "aa", "bb", "dos"])
    reports = [
        report(
            rid,
            content=" ".join(draw(st.lists(words, max_size=6))),
            kind=draw(st.sampled_from(ORACLE_KINDS)),
            cve_ids=tuple(draw(st.lists(st.sampled_from(["CVE-2020-0001", "CVE-2020-0002"]), unique=True, max_size=2))),
            title=draw(st.sampled_from(ORACLE_TITLES)),
            version=draw(st.sampled_from([None, "BarWare 3.1"])),
        )
        for rid in ids
    ]
    return Corpus(reports)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    linkable_corpora(),
    # at 0.5 the title gate passes every pair; at 1.0 only pairs with t == 1.0
    st.sampled_from([None, 0.3, 0.5, 0.6, 0.85, 1.0]),
    st.sampled_from([(0.5, 0.65), (0.5, 0.95), (0.2, 0.5)]),
)
def test_build_link_graph_equals_per_pair_oracle(corpus, cutoff, thresholds):
    config = SimpleNamespace(code_threshold=thresholds[0], text_threshold=thresholds[1])
    models = ScoringModels()
    classifier = None if cutoff is None else HeuristicPairClassifier(models, cutoff)
    links = build_link_graph(corpus, models, classifier, config)
    assert links == oracle_link_graph(corpus, cutoff, config)


def filled_from_reports(corpus, links, config):
    """The (report, slot) pairs that completion fills from other reports."""
    records = run_completion(corpus, {}, links, config).records
    return {(r.target, r.slot) for r in records if isinstance(r.origin, FromPoc)}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(linkable_corpora(), st.data())
def test_raising_a_threshold_removes_exactly_the_links_under_it(corpus, data):
    """Raising the classifier cutoff or a kind threshold never adds a link:
    it removes the links scored under the new bound, and keeps a link scored
    at it. The (report, slot) pairs filled from other reports only shrink,
    since donors give their Original values only."""

    def run(cutoff, code, text):
        config = SimpleNamespace(code_threshold=code, text_threshold=text)
        models = ScoringModels()
        links = build_link_graph(corpus, models, HeuristicPairClassifier(models, cutoff), config)
        return links, filled_from_reports(corpus, links, config)

    def bound_of(link):  # the index of the bound a link is held to
        return 0 if link.basis is None else 1 if link.kind.is_code else 2

    bounds = [data.draw(st.sampled_from([0.2, 0.5, 0.65])) for _ in range(3)]
    links, filled = run(*bounds)
    # each bound stays, or rises to 1.0 or to a score of a link it holds
    raised = [
        data.draw(st.sampled_from(sorted(
            {bound, 1.0} | {link.similarity for link in links if bound_of(link) == i}
        )))
        for i, bound in enumerate(bounds)
    ]
    fewer, fewer_filled = run(*raised)
    assert fewer == [link for link in links if link.similarity >= raised[bound_of(link)]]
    assert fewer_filled <= filled


# --- metamorphic relations --------------------------------------------------------

METAMORPHIC_CVE_DB = {
    "CVE-2020-0001": CveEntry("CVE-2020-0001", (CveProduct("FooServ", ("1.0",)),), ("Linux",)),
    "CVE-2020-0002": CveEntry("CVE-2020-0002", (CveProduct("BarWare", ("3",)),), ()),
}


def linked_and_completed(corpus, cve_db, config, cutoff=0.5):
    models = ScoringModels()
    links = build_link_graph(corpus, models, HeuristicPairClassifier(models, cutoff), config)
    return links, run_completion(corpus, cve_db, links, config)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(linkable_corpora(), st.data())
def test_permuting_the_input_permutes_every_output(corpus, data):
    """Reports in another order, and CVE entries in another order, give the
    same links, the same completed reports in the new order, and the same
    completion records and counters as a multiset."""
    config = SimpleNamespace(code_threshold=0.5, text_threshold=0.65)
    links, result = linked_and_completed(corpus, METAMORPHIC_CVE_DB, config)
    shuffled = Corpus(data.draw(st.permutations(corpus.reports)))
    cve_db = dict(data.draw(st.permutations(list(METAMORPHIC_CVE_DB.items()))))
    shuffled_links, shuffled_result = linked_and_completed(shuffled, cve_db, config)
    assert shuffled_links == links
    assert list(shuffled_result.corpus) == [result.corpus.get(r.id) for r in shuffled]
    assert Counter(shuffled_result.records) == Counter(result.records)
    assert shuffled_result.skipped_links == result.skipped_links
    assert Counter(shuffled_result.failed_associations) == Counter(result.failed_associations)


def first_donors(corpus, links, config):
    """(target, slot) -> donor, by pass 2's rule over a corpus of Original
    values completed without CVE entries: links are walked in the order
    (-similarity, a, b), so donors tied on similarity fill in id order, and
    the first link whose other end has a value fills an empty slot."""
    donors = {}
    for link in sorted(links, key=lambda l: (-l.similarity, l.a, l.b)):
        if not below_threshold(link, config):
            for target, donor in ((link.a, link.b), (link.b, link.a)):
                for slot in ASPECT_SLOTS:
                    if (not corpus.get(target).aspects.values(slot)
                            and corpus.get(donor).aspects.values(slot)):
                        donors.setdefault((target, slot), donor)
    return donors


def donors_of(records):
    return {(r.target, r.slot): r.origin.donor_id for r in records if isinstance(r.origin, FromPoc)}


def renamed_back(report, back):
    """A completed report with its id and its donor ids mapped by ``back``."""
    aspects = {
        slot: [
            replace(v, provenance=replace(v.provenance, donor_id=back[v.provenance.donor_id]))
            if isinstance(v.provenance, FromPoc) else v
            for v in report.aspects.values(slot)
        ]
        for slot in ASPECT_SLOTS
    }
    return replace(report, id=back[report.id], aspects=AspectSet().with_added(**aspects))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(linkable_corpora(), st.data())
def test_renaming_ids_renames_them_in_every_output(corpus, data):
    """Renamed report ids give the links and the completed reports of the
    original ids, renamed, donor ids included. Where two donors of a slot
    are tied on similarity, the one first in id order fills it, in each
    naming."""
    if data.draw(st.booleans()):  # one content for all: many links tie on similarity
        corpus = Corpus(replace(r, raw_content="aa x") for r in corpus)
    config = SimpleNamespace(code_threshold=0.5, text_threshold=0.65)
    fresh = data.draw(st.permutations([f"q{i}" for i in range(len(corpus))]))
    names = dict(zip([r.id for r in corpus], fresh))
    back = {new: old for old, new in names.items()}
    renamed = Corpus(replace(r, id=names[r.id]) for r in corpus)
    links, result = linked_and_completed(corpus, {}, config)
    renamed_links, renamed_result = linked_and_completed(renamed, {}, config)

    assert sorted((
        replace(link, a=min(back[link.a], back[link.b]), b=max(back[link.a], back[link.b]))
        for link in renamed_links
    ), key=lambda link: (link.a, link.b)) == links
    donors = donors_of(result.records)
    assert donors == first_donors(corpus, links, config)
    assert donors_of(renamed_result.records) == first_donors(renamed, renamed_links, config)
    renamed_donors = {(back[t], slot): back[d] for (t, slot), d in donors_of(renamed_result.records).items()}
    assert renamed_donors.keys() == donors.keys()
    for report, renamed_report in zip(result.corpus, renamed_result.corpus):
        if all(renamed_donors[key] == d for key, d in donors.items() if key[0] == report.id):
            assert renamed_back(renamed_report, back) == report


@settings(derandomize=True, max_examples=100, deadline=None)
@given(linkable_corpora(), st.data())
def test_a_report_that_shares_nothing_leaves_every_other_report_alone(corpus, data):
    """A report added anywhere that shares no CVE id and no software name
    with any other adds no link and changes no other completed report."""
    config = SimpleNamespace(code_threshold=0.5, text_threshold=0.65)
    words = st.sampled_from(["x", "y", "z", "aa", "bb", "dos"])
    lone = report(
        "lone",
        content=" ".join(data.draw(st.lists(words, max_size=6))),
        kind=data.draw(st.sampled_from(ORACLE_KINDS)),
        cve_ids=("CVE-2021-9999",),
        title=data.draw(st.sampled_from([None, "QuuxServ 9 - LPE"])),
    )
    assert not set(software_names(lone)) & {n for r in corpus for n in software_names(r)}
    at = data.draw(st.integers(0, len(corpus)))
    grown = Corpus([*corpus.reports[:at], lone, *corpus.reports[at:]])
    links, result = linked_and_completed(corpus, METAMORPHIC_CVE_DB, config)
    grown_links, grown_result = linked_and_completed(grown, METAMORPHIC_CVE_DB, config)
    assert grown_links == links
    assert [r for r in grown_result.corpus if r.id != "lone"] == list(result.corpus)
    assert [r for r in grown_result.records if r.target != "lone"] == result.records
