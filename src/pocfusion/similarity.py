"""Token counts and cosine similarity for code and text PoCs.

Pair scoring compares token-frequency vectors: code tokens for code reports,
lowercased word tokens for prose and titles, in pure Python.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Mapping

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
    score text contents and titles."""
    return [t for t in _TEXT_TOKEN.findall(content.lower()) if len(t) >= 2]


def cosine_similarity(
    a: Mapping, b: Mapping, norm_a: int | None = None, norm_b: int | None = None
) -> float:
    """Cosine of two sparse vectors (mappings token -> count), given their
    squared norms or not. The dot product is summed over the smaller mapping,
    exactly for integer counts, and the product of the squared norms is
    rounded once, under a single square root, which keeps exact halves
    exact. It is 0.0 where the dot product is 0, as for a zero vector.
    """
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = sum(count * large[token] for token, count in small.items() if token in large)
    if not dot:
        return 0.0
    if norm_a is None:
        norm_a = sum(v * v for v in a.values())
    if norm_b is None:
        norm_b = sum(v * v for v in b.values())
    return dot / math.sqrt(norm_a * norm_b)


def _removed_trainer(*args, **kwargs):
    """The skip-gram trainer and its text embedding are gone: pairs are
    scored from token counts by :class:`pocfusion.link.ScoringModels`.

    ``bench/tracing.py`` still wraps ``cli.train_embeddings`` and
    ``link.embed_text``, so both names stay bound to this function until
    those layers go (ROADMAP item 1)."""
    raise NotImplementedError("the skip-gram trainer was removed; use ScoringModels")


train_embeddings = embed_text = _removed_trainer
