import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from pocfusion import cosine_similarity, tokenize_code, tokenize_text


# Independent tokenizer: single left-to-right character walk, no regex.
def char_walk_tokenize(content):
    counts = Counter()
    word = []
    for ch in content:
        if ch.isascii() and (ch.isalnum() or ch == "_"):
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


# Independent cosine: plain loops over the union of keys.
def brute_force_cosine(a, b):
    dot = sum(a.get(k, 0) * b.get(k, 0) for k in set(a) | set(b))
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0 or nb == 0:
        return 0.0
    return dot / (na * nb)


def test_tokenize_code_simple():
    assert tokenize_code("x = x + 1") == Counter({"x": 2, "=": 1, "+": 1, "1": 1})


def test_tokenize_code_identifiers_and_punctuation():
    counts = tokenize_code("buf_ptr->len += sizeof(buf_ptr);")
    assert counts["buf_ptr"] == 2
    assert counts["-"] == 1 and counts[">"] == 1
    assert counts["("] == 1 and counts[")"] == 1 and counts[";"] == 1


def test_tokenize_code_case_sensitive():
    counts = tokenize_code("Buf buf BUF")
    assert counts == Counter({"Buf": 1, "buf": 1, "BUF": 1})


def test_tokenize_code_matches_char_walk_on_ascii():
    snippets = [
        "int main(void) { return 0; }",
        "s.send(b'PASS ' + b'A' * 2700)",
        "",
        "   \t\n",
        "a_b__c 123 _x",
    ]
    for snippet in snippets:
        assert tokenize_code(snippet) == char_walk_tokenize(snippet)


def test_tokenize_text_rules():
    assert tokenize_text("The QUICK fox, v2: a 4-byte jump!") == [
        "the",
        "quick",
        "fox",
        "v2",
        "byte",
        "jump",
    ]


def test_cosine_known_value():
    assert cosine_similarity({"a": 1, "b": 2}, {"a": 2, "b": 1}) == 0.8


def test_cosine_exact_half():
    # engineered so the true cosine is exactly one half
    a = {"x": 1, "y": 1}
    b = {"x": 1, "z": 1}
    assert cosine_similarity(a, b) == 0.5


def test_cosine_zero_vector_is_zero(caplog):
    assert cosine_similarity({}, {"a": 1}) == 0.0
    assert cosine_similarity(Counter(), Counter()) == 0.0
    # the link stage warns once per report without tokens, not per cosine
    assert caplog.records == []


token_counts = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    st.integers(min_value=1, max_value=50),
    max_size=8,
)


@given(token_counts, token_counts)
def test_cosine_matches_oracle(a, b):
    assert cosine_similarity(a, b) == pytest.approx(brute_force_cosine(a, b), abs=1e-12)


@given(token_counts.filter(lambda d: d))
def test_cosine_identity(a):
    assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)


@given(token_counts, token_counts)
def test_cosine_symmetry(a, b):
    assert cosine_similarity(a, b) == cosine_similarity(b, a)


@given(token_counts, token_counts, st.integers(min_value=2, max_value=9))
def test_cosine_scale_invariance(a, b, k):
    scaled = {t: v * k for t, v in a.items()}
    assert cosine_similarity(scaled, b) == pytest.approx(cosine_similarity(a, b), abs=1e-12)


@given(token_counts, token_counts)
def test_cosine_bounded_for_counts(a, b):
    value = cosine_similarity(a, b)
    assert 0.0 <= value <= 1.0 + 1e-12
