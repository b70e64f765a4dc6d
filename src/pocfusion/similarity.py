"""Token counts and cosine similarity for code and text PoCs.

Pair scoring compares token-frequency vectors: code tokens for code reports,
lowercased word tokens for prose and titles, in pure Python. The skip-gram
model with negative sampling (:func:`train_embeddings`, :func:`embed_text`) is
not used by the pipeline and is not exported from the package. It stays only
while ``bench/tracing.py`` wraps it and acceptance criterion 8 tests it; it is
to be deleted together with those (ROADMAP item 1). It is the only code that
uses numpy, and imports it inside its functions, so importing this module, or
running any pipeline stage, does not load numpy.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

_CODE_TOKEN = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")
_TEXT_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize_code(content: str) -> Counter:
    """Token frequencies: maximal identifier runs plus single punctuation
    characters, case-sensitive, comments included. The rule is the same for
    every language.
    """
    return Counter(_CODE_TOKEN.findall(content))


def tokenize_text(content: str) -> list[str]:
    """Lowercased alphanumeric tokens of length >= 2: the words whose counts
    score text contents and titles, and the sentences of embedding training."""
    return [t for t in _TEXT_TOKEN.findall(content.lower()) if len(t) >= 2]


def cosine_similarity(a, b) -> float:
    """Cosine of two vectors, sparse (mapping token -> count) or dense
    (numpy arrays of equal dimension). A zero vector gives 0 with a warning.
    """
    if not (isinstance(a, Mapping) and isinstance(b, Mapping)):
        import numpy as np

        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        dot, norm_sq = float(a @ b), float(a @ a) * float(b @ b)
    else:
        dot = 0.0
        small, large = (a, b) if len(a) <= len(b) else (b, a)
        for token, count in small.items():
            other = large.get(token)
            if other:
                dot += count * other
        norm_sq = float(sum(v * v for v in a.values())) * float(sum(v * v for v in b.values()))
    if norm_sq == 0.0:
        logger.warning("cosine of zero vector requested, returning 0")
        return 0.0
    # single square root of the norm product keeps exact halves exact
    return dot / math.sqrt(norm_sq)


@dataclass(frozen=True)
class EmbeddingParams:
    d: int = 100
    window: int = 5
    negative_samples: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 2

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("embedding dimension must be >= 2")
        if min(self.window, self.negative_samples, self.epochs, self.min_count) < 1:
            raise ValueError("window, negative_samples, epochs, min_count must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class EmbeddingModel:
    vocabulary: dict[str, int]
    vectors: np.ndarray
    params: EmbeddingParams
    seed: int = 0
    epoch_losses: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.vectors.shape != (len(self.vocabulary), self.params.d):
            raise ValueError(
                f"vector matrix shape {self.vectors.shape} does not match "
                f"{len(self.vocabulary)} tokens x d={self.params.d}"
            )

    def vector(self, token: str) -> np.ndarray | None:
        index = self.vocabulary.get(token)
        return None if index is None else self.vectors[index]

    def similarity(self, token_a: str, token_b: str) -> float:
        va, vb = self.vector(token_a), self.vector(token_b)
        if va is None or vb is None:
            raise KeyError(f"token not in vocabulary: {token_a if va is None else token_b!r}")
        return cosine_similarity(va, vb)


_MIN_ALPHA = 1e-4
_NEGATIVE_TABLE_POWER = 0.75
# Consecutive whole sentences are trained in chunks of at least this many
# tokens. A chunk's random draws and pair arrays are made at once, so
# training memory is bounded by one chunk, not by the corpus.
_CHUNK_TOKENS = 512


def _skipgram_pairs(
    lengths: np.ndarray, reaches: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) token positions of one chunk of whole sentences.

    ``lengths`` are the chunk's sentence lengths and ``reaches`` the window
    reach drawn for each of its tokens. A center pairs with every other token
    of its own sentence at most its reach away. Pairs come grouped by center
    in input order, contexts ascending.
    """
    import numpy as np

    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    positions = np.arange(len(reaches))
    lo = np.maximum(starts, positions - reaches)
    counts = np.minimum(ends, positions + reaches + 1) - lo - 1
    centers = np.repeat(positions, counts)
    contexts = np.arange(len(centers)) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    contexts += contexts >= centers  # step over the center itself
    return centers, contexts


def _sentence_chunks(
    texts: list[str], vocabulary: dict[str, int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(token ids, sentence lengths) of consecutive in-vocabulary sentences,
    at least ``_CHUNK_TOKENS`` tokens per chunk except the last."""
    import numpy as np

    chunks = []
    tokens: list[int] = []
    lengths: list[int] = []
    for text in texts:
        sentence = [vocabulary[t] for t in tokenize_text(text) if t in vocabulary]
        if not sentence:
            continue
        tokens.extend(sentence)
        lengths.append(len(sentence))
        if len(tokens) >= _CHUNK_TOKENS:
            chunks.append((np.array(tokens), np.array(lengths)))
            tokens, lengths = [], []
    if tokens:
        chunks.append((np.array(tokens), np.array(lengths)))
    return chunks


def train_embeddings(
    texts: list[str], params: EmbeddingParams = EmbeddingParams(), seed: int = 0
) -> EmbeddingModel:
    """Skip-gram with negative sampling, bit-reproducible for a fixed seed.

    Sentences are visited in input order. Each center word takes one SGD
    step: all of its context words, each with its own ``negative_samples``
    negatives, are scored against the center vector as it was before the
    step (per-center batching, Ji et al., arXiv:1604.04661). Vectors and
    losses therefore differ from versions that stepped once per (center,
    context) pair. The learning rate decays linearly over all scheduled
    center words down to a small floor. Mean per-pair loss is recorded for
    every epoch on the returned model.
    """
    import numpy as np

    if not texts:
        raise ValueError("texts must be non-empty")
    counts: Counter = Counter()
    for text in texts:
        counts.update(tokenize_text(text))
    kept = sorted(
        (t for t, c in counts.items() if c >= params.min_count),
        key=lambda t: (-counts[t], t),
    )
    if not kept:
        raise ValueError(
            f"vocabulary empty after min_count={params.min_count} filtering"
        )
    vocabulary = {token: i for i, token in enumerate(kept)}
    chunks = _sentence_chunks(texts, vocabulary)

    rng = np.random.default_rng(seed)
    n = len(vocabulary)
    w_in = (rng.random((n, params.d)) - 0.5) / params.d
    w_out = np.zeros((n, params.d))
    flat_out = w_out.reshape(-1)
    columns = np.arange(params.d)

    weights = np.array(
        [counts[t] ** _NEGATIVE_TABLE_POWER for t in kept], dtype=np.float64
    )
    cumulative = np.cumsum(weights / weights.sum())

    total_words = sum(len(tokens) for tokens, _ in chunks) * params.epochs
    processed = 0
    k = params.negative_samples
    width = k + 1
    epoch_losses: list[float] = []

    for _epoch in range(params.epochs):
        loss_sum = 0.0
        pair_count = 0
        for tokens, lengths in chunks:
            reaches = rng.integers(1, params.window + 1, size=len(tokens))
            centers, contexts = _skipgram_pairs(lengths, reaches)
            alphas = np.maximum(
                _MIN_ALPHA,
                params.learning_rate
                * (1.0 - (processed + np.arange(len(tokens))) / total_words),
            )
            processed += len(tokens)
            # one row per pair: its context word, then its k negatives; a
            # negative that equals the context word is masked out
            targets = np.empty((len(centers), width), dtype=np.int64)
            targets[:, 0] = tokens[contexts]
            targets[:, 1:] = np.searchsorted(cumulative, rng.random((len(centers), k)))
            mask = targets != targets[:, :1]
            mask[:, 0] = True
            rows, row_mask = targets.ravel(), mask.ravel()
            labels = np.zeros(targets.size)
            labels[::width] = 1.0
            row_offsets = rows * params.d  # index of each row's first element in flat_out
            scores = np.empty(targets.size)
            step_ends = np.cumsum(np.bincount(centers, minlength=len(tokens))) * width
            start = 0
            for center, alpha, stop in zip(tokens.tolist(), alphas.tolist(), step_ends.tolist()):
                if stop == start:
                    continue
                v = w_in[center]
                u = w_out.take(rows[start:stop], axis=0)
                s = u @ v
                scores[start:stop] = s
                sig = 0.5 + 0.5 * np.tanh(0.5 * s)  # sigmoid; cannot overflow
                g = (sig - labels[start:stop]) * row_mask[start:stop]
                # element-wise on the flat matrix: the same sums, in the same
                # order, as np.subtract.at over rows, but much cheaper per call
                np.subtract.at(
                    flat_out,
                    np.add.outer(row_offsets[start:stop], columns).ravel(),
                    np.multiply.outer(alpha * g, v).ravel(),
                )
                w_in[center] = v - alpha * (g @ u)
                start = stop
            scores = scores.reshape(targets.shape)
            loss_sum += float(
                np.logaddexp(0.0, -scores[:, 0]).sum()
                + np.logaddexp(0.0, scores[:, 1:])[mask[:, 1:]].sum()
            )
            pair_count += len(centers)
        epoch_losses.append(loss_sum / pair_count if pair_count else 0.0)

    model = EmbeddingModel(
        vocabulary=vocabulary,
        vectors=w_in,
        params=params,
        seed=seed,
        epoch_losses=epoch_losses,
    )
    if not pair_count:
        logger.warning(
            "no skip-gram pairs: every kept sentence is one token long, "
            "vectors keep their initial values"
        )
    elif len(epoch_losses) > 1 and not any(
        b < a for a, b in zip(epoch_losses, epoch_losses[1:])
    ):
        logger.warning("training loss never decreased across epochs: %s", epoch_losses)
    return model


def embed_text(model: EmbeddingModel, content: str) -> np.ndarray:
    """Mean of in-vocabulary token vectors; zero vector when every token is
    out of vocabulary."""
    import numpy as np

    rows = [
        model.vocabulary[t] for t in tokenize_text(content) if t in model.vocabulary
    ]
    if not rows:
        logger.warning("all tokens out of vocabulary, returning zero vector")
        return np.zeros(model.params.d)
    return model.vectors[rows].mean(axis=0)
