"""Token counts and cosine similarity for code and text PoCs.

Pair scoring compares token-frequency vectors: code tokens for code reports,
lowercased word tokens for prose and titles, in pure Python.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from collections.abc import Mapping

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
    score text contents and titles."""
    return [t for t in _TEXT_TOKEN.findall(content.lower()) if len(t) >= 2]


def cosine_similarity(a: Mapping, b: Mapping) -> float:
    """Cosine of two sparse vectors (mappings token -> count). A zero vector
    gives 0 with a warning."""
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


def _removed_trainer(*args, **kwargs):
    """The skip-gram trainer and its text embedding are gone: pairs are
    scored from token counts by :class:`pocfusion.link.ScoringModels`.

    ``bench/tracing.py`` still wraps ``cli.train_embeddings`` and
    ``link.embed_text``, so both names stay bound to this function until
    those layers go (ROADMAP item 1)."""
    raise NotImplementedError("the skip-gram trainer was removed; use ScoringModels")


train_embeddings = embed_text = _removed_trainer
