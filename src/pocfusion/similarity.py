"""Vector representations and cosine similarity for code and text PoCs.

Code documents become token-frequency vectors; text documents become mean
word-embedding vectors from a small skip-gram model with negative sampling,
trained on the corpus itself.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import format_mismatch, json_object

logger = logging.getLogger(__name__)

MODEL_FORMAT = "embedding-model"
MODEL_VERSION = 1

_CODE_TOKEN = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")
_TEXT_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize_code(content: str) -> Counter:
    """Token frequencies: maximal identifier runs plus single punctuation
    characters, case-sensitive, comments included. The rule is the same for
    every language.
    """
    return Counter(_CODE_TOKEN.findall(content))


def tokenize_text(content: str) -> list[str]:
    """Lowercased alphanumeric tokens of length >= 2, for embedding training."""
    return [t for t in _TEXT_TOKEN.findall(content.lower()) if len(t) >= 2]


def cosine_similarity(a, b) -> float:
    """Cosine of two vectors, sparse (mapping token -> count) or dense
    (numpy arrays of equal dimension). Both-zero input is defined as 0.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        norm_sq = float(a @ a) * float(b @ b)
        if norm_sq == 0.0:
            logger.warning("cosine of zero vector requested, returning 0")
            return 0.0
        # single square root of the norm product keeps exact halves exact
        return float(a @ b) / math.sqrt(norm_sq)
    dot = 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    for token, count in small.items():
        other = large.get(token)
        if other:
            dot += count * other
    norm_sq = float(sum(v * v for v in a.values())) * float(
        sum(v * v for v in b.values())
    )
    if norm_sq == 0.0:
        logger.warning("cosine of zero vector requested, returning 0")
        return 0.0
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

    def encode(self) -> dict:
        return {
            "d": self.d,
            "window": self.window,
            "negative_samples": self.negative_samples,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "min_count": self.min_count,
        }


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

    def save(self, path: str | Path) -> None:
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "params": self.params.encode(),
            "seed": self.seed,
            "vocabulary": list(self.vocabulary),
            "vectors": self.vectors.tolist(),
            "epoch_losses": self.epoch_losses,
        }
        Path(path).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingModel":
        data = json_object(Path(path).read_text(encoding="utf-8"))
        mismatch = format_mismatch(data, MODEL_FORMAT, MODEL_VERSION)
        if mismatch is not None:
            raise ValueError(f"{path}: {mismatch}")
        params = EmbeddingParams(**data["params"])
        vocabulary = {token: i for i, token in enumerate(data["vocabulary"])}
        vectors = np.array(data["vectors"], dtype=np.float64).reshape(
            len(vocabulary), params.d
        )
        return cls(
            vocabulary=vocabulary,
            vectors=vectors,
            params=params,
            seed=data.get("seed", 0),
            epoch_losses=list(data.get("epoch_losses", [])),
        )


_MIN_ALPHA = 1e-4
_NEGATIVE_TABLE_POWER = 0.75


def train_embeddings(
    texts: list[str], params: EmbeddingParams = EmbeddingParams(), seed: int = 0
) -> EmbeddingModel:
    """Skip-gram with negative sampling, bit-reproducible for a fixed seed.

    Sentences are visited in input order; the learning rate decays linearly
    over all scheduled center words down to a small floor. Mean per-pair loss
    is recorded for every epoch on the returned model.
    """
    if not texts:
        raise ValueError("texts must be non-empty")
    sentences = [tokenize_text(t) for t in texts]
    counts = Counter(t for s in sentences for t in s)
    kept = sorted(
        (t for t, c in counts.items() if c >= params.min_count),
        key=lambda t: (-counts[t], t),
    )
    if not kept:
        raise ValueError(
            f"vocabulary empty after min_count={params.min_count} filtering"
        )
    vocabulary = {token: i for i, token in enumerate(kept)}
    sentences = [[vocabulary[t] for t in s if t in vocabulary] for s in sentences]
    sentences = [s for s in sentences if s]

    rng = np.random.default_rng(seed)
    n = len(vocabulary)
    w_in = (rng.random((n, params.d)) - 0.5) / params.d
    w_out = np.zeros((n, params.d))

    weights = np.array(
        [counts[t] ** _NEGATIVE_TABLE_POWER for t in kept], dtype=np.float64
    )
    cumulative = np.cumsum(weights / weights.sum())

    total_words = sum(len(s) for s in sentences) * params.epochs
    processed = 0
    k = params.negative_samples
    labels = np.zeros(k + 1)
    labels[0] = 1.0
    epoch_losses: list[float] = []

    for _epoch in range(params.epochs):
        loss_sum = 0.0
        pair_count = 0
        for sentence in sentences:
            for center_pos, center in enumerate(sentence):
                alpha = max(
                    _MIN_ALPHA, params.learning_rate * (1.0 - processed / total_words)
                )
                processed += 1
                reach = int(rng.integers(1, params.window + 1))
                lo = max(0, center_pos - reach)
                hi = min(len(sentence), center_pos + reach + 1)
                for context_pos in range(lo, hi):
                    if context_pos == center_pos:
                        continue
                    target = sentence[context_pos]
                    negatives = np.searchsorted(cumulative, rng.random(k))
                    targets = np.empty(k + 1, dtype=np.int64)
                    targets[0] = target
                    targets[1:] = negatives
                    mask = np.ones(k + 1, dtype=bool)
                    mask[1:] = negatives != target
                    v = w_in[center]
                    u = w_out[targets]
                    scores = u @ v
                    loss_sum += float(
                        np.logaddexp(0.0, -scores[0])
                        + np.logaddexp(0.0, scores[1:][mask[1:]]).sum()
                    )
                    pair_count += 1
                    sig = 1.0 / (1.0 + np.exp(-np.clip(scores, -60.0, 60.0)))
                    g = (sig - labels) * mask
                    grad_v = g @ u
                    np.subtract.at(w_out, targets, alpha * np.outer(g, v))
                    w_in[center] = v - alpha * grad_v
        epoch_losses.append(loss_sum / pair_count if pair_count else 0.0)

    model = EmbeddingModel(
        vocabulary=vocabulary,
        vectors=w_in,
        params=params,
        seed=seed,
        epoch_losses=epoch_losses,
    )
    if len(epoch_losses) > 1 and not any(
        b < a for a, b in zip(epoch_losses, epoch_losses[1:])
    ):
        logger.warning("training loss never decreased across epochs: %s", epoch_losses)
    return model


def embed_text(model: EmbeddingModel, content: str) -> np.ndarray:
    """Mean of in-vocabulary token vectors; zero vector when every token is
    out of vocabulary."""
    rows = [
        model.vocabulary[t] for t in tokenize_text(content) if t in model.vocabulary
    ]
    if not rows:
        logger.warning("all tokens out of vocabulary, returning zero vector")
        return np.zeros(model.params.d)
    return model.vectors[rows].mean(axis=0)
