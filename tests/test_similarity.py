import logging
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pocfusion import cosine_similarity, tokenize_code, tokenize_text
from pocfusion.similarity import (
    _CHUNK_TOKENS,
    EmbeddingParams,
    _skipgram_pairs,
    embed_text,
    train_embeddings,
)


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


def test_cosine_zero_vector_logs(caplog):
    assert cosine_similarity({}, {"a": 1}) == 0.0
    assert cosine_similarity(Counter(), Counter()) == 0.0
    assert "zero vector" in caplog.text


def test_cosine_dense_matches_sparse():
    a = np.array([1.0, 2.0, 0.0])
    b = np.array([2.0, 1.0, 0.0])
    assert cosine_similarity(a, b) == cosine_similarity({"0": 1, "1": 2}, {"0": 2, "1": 1})


def test_cosine_dense_shape_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity(np.ones(3), np.ones(4))


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


def test_params_validation():
    with pytest.raises(ValueError):
        EmbeddingParams(d=1)
    with pytest.raises(ValueError):
        EmbeddingParams(epochs=0)
    with pytest.raises(ValueError):
        EmbeddingParams(learning_rate=0.0)
    assert EmbeddingParams().d == 100


TOY_TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "the quick brown wolf jumps over the lazy dog",
    "a stitch in time saves nine",
] * 4


def small_params(**kw):
    defaults = dict(d=16, window=2, negative_samples=3, epochs=2, min_count=2)
    defaults.update(kw)
    return EmbeddingParams(**defaults)


def test_train_requires_texts():
    with pytest.raises(ValueError):
        train_embeddings([], small_params())


def test_train_requires_repeated_tokens():
    with pytest.raises(ValueError):
        train_embeddings(["every token appears just once"], small_params(min_count=5))


def test_vocabulary_sorted_by_count_then_token():
    model = train_embeddings(TOY_TEXTS, small_params())
    vocab = list(model.vocabulary)
    counts = Counter(t for text in TOY_TEXTS for t in tokenize_text(text))
    assert vocab == sorted((t for t, c in counts.items() if c >= 2), key=lambda t: (-counts[t], t))
    assert vocab[0] == "the"


def test_training_is_seed_deterministic():
    a = train_embeddings(TOY_TEXTS, small_params(), seed=3)
    b = train_embeddings(TOY_TEXTS, small_params(), seed=3)
    assert a.vocabulary == b.vocabulary
    assert np.array_equal(a.vectors, b.vectors)
    assert a.epoch_losses == b.epoch_losses
    c = train_embeddings(TOY_TEXTS, small_params(), seed=4)
    assert not np.array_equal(a.vectors, c.vectors)


def test_epoch_losses_per_epoch():
    model = train_embeddings(TOY_TEXTS, small_params(epochs=3))
    assert len(model.epoch_losses) == 3
    assert all(loss > 0 for loss in model.epoch_losses)


def test_model_similarity_oov():
    model = train_embeddings(TOY_TEXTS, small_params())
    with pytest.raises(KeyError):
        model.similarity("the", "xylophone")
    assert model.vector("xylophone") is None


def test_embed_text_mean_of_token_vectors():
    model = train_embeddings(TOY_TEXTS, small_params())
    the = model.vector("the")
    dog = model.vector("dog")
    np.testing.assert_allclose(embed_text(model, "the dog"), (the + dog) / 2)
    # repeated tokens weight the mean
    np.testing.assert_allclose(embed_text(model, "the the dog"), (2 * the + dog) / 3)


def test_embed_text_all_oov_is_zero(caplog):
    model = train_embeddings(TOY_TEXTS, small_params())
    vec = embed_text(model, "zzz qqq")
    assert not vec.any()
    assert vec.shape == (model.params.d,)
    assert "vocabulary" in caplog.text


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_training_losses_finite(seed):
    model = train_embeddings(TOY_TEXTS[:6], small_params(epochs=1, d=8), seed=seed)
    assert all(math.isfinite(loss) for loss in model.epoch_losses)
    assert np.isfinite(model.vectors).all()


def window_oracle(lengths, reaches):
    """The skip-gram window rule as nested loops: each center pairs with every
    other token of its own sentence at most its reach away, in input order."""
    pairs = []
    start = 0
    for length in lengths:
        for center in range(length):
            reach = reaches[start + center]
            for context in range(max(0, center - reach), min(length, center + reach + 1)):
                if context != center:
                    pairs.append((start + center, start + context))
        start += length
    return pairs


@given(st.data())
def test_skipgram_pairs_match_window_oracle_across_chunk_splits(data):
    lengths = data.draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=15))
    total = sum(lengths)
    reaches = data.draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=total, max_size=total)
    )
    cuts = sorted(
        c for c in data.draw(st.sets(st.integers(min_value=0, max_value=len(lengths))))
        if 0 < c < len(lengths)
    )
    bounds = [0, *cuts, len(lengths)]
    pairs = []
    offset = 0
    for lo, hi in zip(bounds, bounds[1:]):
        size = sum(lengths[lo:hi])
        centers, contexts = _skipgram_pairs(
            np.array(lengths[lo:hi]), np.array(reaches[offset:offset + size])
        )
        pairs.extend(zip((centers + offset).tolist(), (contexts + offset).tolist()))
        offset += size
    assert pairs == window_oracle(lengths, reaches)


def test_training_memory_is_bounded_by_one_chunk():
    """Pair arrays are made one chunk of sentences at a time, so the same
    texts replicated eightfold (same vocabulary) must not raise the traced
    peak eightfold."""
    texts = TOY_TEXTS * 6
    assert sum(len(tokenize_text(t)) for t in texts) > _CHUNK_TOKENS
    params = small_params(epochs=1)
    train_embeddings(TOY_TEXTS, params)  # one-off allocations out of the measurement

    def traced_peak(corpus):
        tracemalloc.start()
        try:
            train_embeddings(corpus, params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    once, eightfold = traced_peak(texts), traced_peak(texts * 8)
    assert eightfold < 2 * once


def test_training_without_pairs_warns_once(caplog):
    model = train_embeddings(["aa", "aa"], small_params())
    assert model.epoch_losses == [0.0, 0.0]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "no skip-gram pairs" in warnings[0]
