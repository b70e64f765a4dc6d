"""Cross-source association graph: CVE-keyed clusters, similarity-scored
pairs, and classifier-based links for reports without a shared CVE id.
"""

from __future__ import annotations

import logging
import random
import re
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .corpus import ContentKind, Corpus, PocReport, json_object, read_jsonl, write_jsonl
from .similarity import tokenize_code, tokenize_text

# Not called by the pipeline: bench/tracing.py wraps these module attributes
# (its similarity.embed and similarity.cosine layers), so they stay importable
# until those layers go.
from .similarity import cosine_similarity, embed_text  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SharedCve:
    cve_id: str


@dataclass(frozen=True)
class PocLink:
    a: str
    b: str
    basis: SharedCve | None  # None: the pair classifier made the link
    similarity: float
    kind: ContentKind

    def __post_init__(self) -> None:
        if not (self.kind.is_code or self.kind.is_text):
            raise ValueError(f"link kind must be code or text: {self.kind.encode()!r}")
        if self.a == self.b:
            raise ValueError(f"self-link on {self.a}")
        if self.a > self.b:
            raise ValueError(f"link endpoints not in canonical order: {self.a!r} > {self.b!r}")
        if not 0.0 <= self.similarity <= 1.0:
            raise ValueError(f"similarity out of range: {self.similarity}")

    def encode(self) -> dict:
        record = {"a": self.a, "b": self.b}
        if isinstance(self.basis, SharedCve):
            record["basis"] = "shared_cve"
            record["cve_id"] = self.basis.cve_id
        else:
            record["basis"] = "classifier"
        record["similarity"] = self.similarity
        record["kind"] = self.kind.encode()
        return record

    @classmethod
    def decode(cls, data: dict) -> "PocLink":
        if data["basis"] == "shared_cve":
            basis: SharedCve | None = SharedCve(data["cve_id"])
        elif data["basis"] == "classifier":
            basis = None
        else:
            raise ValueError(f"unknown link basis: {data['basis']!r}")
        return cls(
            a=data["a"],
            b=data["b"],
            basis=basis,
            similarity=data["similarity"],
            kind=ContentKind.decode(data["kind"]),
        )


class ThresholdConfig(Protocol):
    code_threshold: float
    text_threshold: float


def kind_threshold(kind: ContentKind, config: ThresholdConfig) -> float:
    return config.code_threshold if kind.is_code else config.text_threshold


def below_threshold(link: PocLink, config: ThresholdConfig) -> bool:
    """True for a shared-CVE link scoring under its kind's threshold.
    A classifier link carries the classifier's confidence, not a cosine, and
    is never below."""
    return isinstance(link.basis, SharedCve) and link.similarity < kind_threshold(
        link.kind, config
    )


# --- grouping and candidates -------------------------------------------------


def group_by_cve(corpus: Corpus) -> dict[str, list[str]]:
    """CVE id -> report ids carrying it, both in corpus encounter order.
    Singleton groups are kept; they still matter for CVE-entry completion."""
    groups: dict[str, list[str]] = {}
    for report in corpus:
        for cve_id in report.cve_ids:
            groups.setdefault(cve_id, []).append(report.id)
    return groups


def pair_kind_of(a: PocReport, b: PocReport) -> ContentKind | None:
    """The link kind two reports can form: their shared kind when both are
    text or both are code in the same language, otherwise None."""
    kind = a.content_kind
    if kind == b.content_kind and (kind.is_code or kind.is_text):
        return kind
    return None


def candidate_pairs_same_cve(
    group: Sequence[str], corpus: Corpus
) -> list[tuple[str, str, ContentKind]]:
    """All same-kind unordered pairs within one CVE group, canonically ordered."""
    pairs = []
    for i in range(len(group)):
        for j in range(i + 1, len(group)):
            a, b = sorted((group[i], group[j]))
            kind = pair_kind_of(corpus.get(a), corpus.get(b))
            if kind is not None:
                pairs.append((a, b, kind))
    return pairs


# --- scoring -------------------------------------------------------------------


# The token-count matrix of a block is multiplied in column slices of at most
# this many entries, so its memory is bounded by the block's Gram matrix and
# does not grow with the block's vocabulary.
_GRAM_SLICE = 1 << 20


def cosine_matrix(vectors: Sequence[Counter]) -> np.ndarray:
    """Cosines of every pair of token counts, rows and columns in input order.

    The counts are integers, so every product and partial sum of their Gram
    matrix is exact (up to 2**53) whatever order the matrix product and the
    column slices add them in. Each row is then divided in place by
    ``sqrt(G[i,i] * G[j,j])``, and square root and division are correctly
    rounded, so an entry equals :func:`cosine_similarity` of the two counts
    bit for bit. Where a norm is 0 the entry stays at its dot product, 0.
    """
    index: dict[str, int] = {}  # token -> column
    rows = np.repeat(np.arange(len(vectors)), [len(vector) for vector in vectors])
    columns = np.array(
        [index.setdefault(token, len(index)) for vector in vectors for token in vector],
        dtype=np.intp,
    )
    counts = np.array([count for vector in vectors for count in vector.values()], dtype=np.float64)
    n = len(vectors)
    width = max(1, _GRAM_SLICE // max(n, 1))
    # at least one slice, so that vectors without any token get a zero matrix
    for start in range(0, max(len(index), 1), width):
        part = (columns >= start) & (columns < start + width)
        matrix = np.zeros((n, min(width, len(index) - start)))
        matrix[rows[part], columns[part] - start] = counts[part]
        if start:
            gram += matrix @ matrix.T
        else:
            gram = matrix @ matrix.T
    norms = gram.diagonal().copy()
    for i, row in enumerate(gram):
        scale = np.sqrt(norms[i] * norms)
        np.divide(row, scale, out=row, where=scale > 0)
    return gram


def title_text(report: PocReport) -> str:
    titles = report.aspects.texts("title")
    return titles[0] if titles else ""


class ScoringModels:
    """Per-report token counts and the cosines read from them.

    A report's content vector counts its code tokens (:func:`tokenize_code`)
    when it is code and its words (:func:`tokenize_text`) otherwise; its
    title vector counts the words of its first title. :meth:`index` makes the
    content and title :func:`cosine_matrix` of one block of reports, and
    cosines of the block's pairs are read from them.
    """

    def __init__(self) -> None:
        self._counts: dict[str, tuple[Counter, Counter]] = {}  # id -> (content, title)
        self._rows: dict[str, int] = {}
        self._matrices: tuple[np.ndarray, ...] = ()  # (content, title) of the block

    def _counts_of(self, report: PocReport) -> tuple[Counter, Counter]:
        counts = self._counts.get(report.id)
        if counts is None:
            if report.content_kind.is_code:
                content = tokenize_code(report.raw_content)
            else:
                content = Counter(tokenize_text(report.raw_content))
            if not content:
                logger.warning("report %s has no content tokens, scored 0", report.id)
            title = Counter(tokenize_text(title_text(report)))
            counts = self._counts[report.id] = (content, title)
        return counts

    def index(self, reports: Sequence[PocReport]) -> None:
        """Make ``reports`` the block cosines are read from, replacing the
        previous block, and compute its content and title cosine matrices."""
        counts = [self._counts_of(report) for report in reports]
        self._rows = {report.id: row for row, report in enumerate(reports)}
        self._matrices = ()  # release the previous block's matrices first
        self._matrices = tuple(cosine_matrix(part) for part in zip(*counts))

    def _cosine(self, a: PocReport, b: PocReport, part: int) -> float:
        rows = self._rows
        if a.id in rows and b.id in rows:
            return float(self._matrices[part][rows[a.id], rows[b.id]])
        # a pair outside the block is scored as a block of two
        pair = cosine_matrix([self._counts_of(a)[part], self._counts_of(b)[part]])
        return float(pair[0, 1])

    def content_cosine(self, a: PocReport, b: PocReport) -> float:
        return self._cosine(a, b, 0)

    def title_cosine(self, a: PocReport, b: PocReport) -> float:
        return self._cosine(a, b, 1)


def score_pair(
    a: PocReport, b: PocReport, kind: ContentKind, models: ScoringModels
) -> float:
    """Similarity in [0, 1]: the cosine of the two reports' content token
    counts, code tokens for code pairs and words for text pairs."""
    if pair_kind_of(a, b) != kind:
        raise ValueError(
            f"pair kind {kind.encode()} inconsistent with reports "
            f"{a.id} ({a.content_kind.encode()}) and {b.id} ({b.content_kind.encode()})"
        )
    return models.content_cosine(a, b)


# --- software names ---------------------------------------------------------


_VERSION_TOKEN = re.compile(r"v?\d+(?:\.\d+)*[a-z]?\b", re.IGNORECASE)


def _name_from_text(text: str) -> str:
    head = text.split(" - ", 1)[0]
    m = _VERSION_TOKEN.search(head)
    if m:
        head = head[: m.start()]
    return head.strip(" \t-_,;:")


def software_names(report: PocReport, original_only: bool = False) -> tuple[str, ...]:
    """Software names a report is about, derived from its title values and
    from any name part preceding version numbers in software_version values.

    With ``original_only`` the derivation ignores values added by completion,
    so the answer is stable across enrichment runs.
    """
    names: dict[str, str] = {}
    for slot in ("title", "software_version"):
        values = (
            report.aspects.original_values(slot)
            if original_only
            else report.aspects.values(slot)
        )
        for value in values:
            name = _name_from_text(value.text)
            if name:
                names.setdefault(name.lower(), name)
    return tuple(names.values())


def match_software(a: PocReport, b: PocReport) -> bool:
    """True when the two reports name a common software product exactly
    (case-insensitive, trimmed); false when either side names none."""
    names_a = {n.lower() for n in software_names(a)}
    names_b = {n.lower() for n in software_names(b)}
    return bool(names_a & names_b)


# --- pair classification -------------------------------------------------------


class PairClassifier(Protocol):
    def classify(self, a: PocReport, b: PocReport) -> tuple[bool, float]: ...


class HeuristicPairClassifier:
    """Default same-vulnerability verdict: the mean of the title and content
    token-count cosines against a cutoff. Confidence is that mean itself."""

    def __init__(self, models: ScoringModels, cutoff: float = 0.85):
        if not 0.0 <= cutoff <= 1.0:
            raise ValueError("cutoff must be in [0, 1]")
        self.models = models
        self.cutoff = cutoff

    def classify(self, a: PocReport, b: PocReport) -> tuple[bool, float]:
        models = self.models
        content = models.content_cosine(a, b) if pair_kind_of(a, b) is not None else 0.0
        combined = 0.5 * models.title_cosine(a, b) + 0.5 * content
        return combined >= self.cutoff, combined


class ExternalPairClassifier:
    """Client for an external pair-classifier HTTP service.

    Request: ``{"title_a", "content_a", "title_b", "content_b"}``; response:
    ``{"same": bool, "confidence": real}``. Failures fall back to the
    heuristic classifier; affected pairs are collected in ``degraded_pairs``.
    """

    def __init__(self, url: str, fallback: PairClassifier, deadline: float = 10.0):
        self.url = url
        self.fallback = fallback
        self.deadline = deadline
        self.degraded_pairs: list[tuple[str, str]] = []

    def classify(self, a: PocReport, b: PocReport) -> tuple[bool, float]:
        import requests  # only runs that call the service pay for the import

        try:
            response = requests.post(
                self.url,
                json={
                    "title_a": title_text(a),
                    "content_a": a.raw_content,
                    "title_b": title_text(b),
                    "content_b": b.raw_content,
                },
                timeout=self.deadline,
            )
            response.raise_for_status()
            data = json_object(response.text)
            same, confidence = data["same"], data["confidence"]
            # JSON gives exact int/float types, so this also refuses a boolean confidence
            if not (isinstance(same, bool) and type(confidence) in (int, float)):
                raise ValueError(f"verdict out of contract: {data}")
            if not 0.0 <= confidence <= 1.0:
                raise ValueError(f"confidence out of range: {confidence}")
            return same, float(confidence)
        except (requests.RequestException, ValueError, KeyError, TypeError) as exc:
            logger.warning(
                "external classifier failed for pair (%s, %s), using heuristic: %s",
                a.id, b.id, exc,
            )
            self.degraded_pairs.append((a.id, b.id))
            return self.fallback.classify(a, b)


def classify_pair(
    classifier: PairClassifier,
    a: PocReport,
    b: PocReport,
    names: Mapping[str, Sequence[str]] | None = None,
) -> tuple[bool, float]:
    """Same-vulnerability verdict for two reports naming the same software.

    The software match is a hard precondition; callers generate candidates
    through it. ``names`` maps report ids to their distinct lowered software
    names, as :func:`build_link_graph` has them already; without it the
    names are derived here.
    """
    if names is not None:
        shared = any(name in names[b.id] for name in names[a.id])
    else:
        shared = match_software(a, b)
    if not shared:
        raise ValueError(
            f"classify_pair precondition violated: {a.id} and {b.id} "
            "do not name the same software"
        )
    same, confidence = classifier.classify(a, b)
    if not 0.0 <= confidence <= 1.0:
        raise ValueError(f"classifier confidence out of range: {confidence}")
    return same, confidence


# --- training-set construction -------------------------------------------------


@dataclass(frozen=True)
class PairSample:
    a: str
    b: str
    label: str  # same_vulnerability | different
    title_a: str
    title_b: str
    content_a: str
    content_b: str
    partition: str = ""  # train | dev | test

    def encode(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "title_a": self.title_a,
            "title_b": self.title_b,
            "content_a": self.content_a,
            "content_b": self.content_b,
            "label": self.label,
            "partition": self.partition,
        }


def build_pair_training_set(
    corpus: Corpus,
    n_pos: int,
    n_neg: int,
    split: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> list[PairSample]:
    """Sample labelled report pairs for an external same-vulnerability trainer.

    Positives share at least one CVE id; negatives are CVE-tagged on both
    sides with disjoint id sets. Partition sizes: floor(train), floor(dev),
    remainder to test. Deterministic for a fixed seed.
    """
    if abs(sum(split) - 1.0) > 1e-9 or any(r < 0 for r in split):
        raise ValueError(f"split ratios must be nonnegative and sum to 1: {split}")
    tagged = [r for r in corpus if r.cve_ids]
    positive_keys: set[tuple[str, str]] = set()
    for group in group_by_cve(corpus).values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                positive_keys.add(tuple(sorted((group[i], group[j]))))
    negative_keys: list[tuple[str, str]] = []
    for i in range(len(tagged)):
        for j in range(i + 1, len(tagged)):
            key = tuple(sorted((tagged[i].id, tagged[j].id)))
            if key not in positive_keys:
                negative_keys.append(key)
    positives = sorted(positive_keys)
    negatives = sorted(negative_keys)
    if len(positives) < n_pos or len(negatives) < n_neg:
        raise ValueError(
            f"insufficient candidate pairs: need {n_pos} positive have "
            f"{len(positives)}, need {n_neg} negative have {len(negatives)}"
        )
    rng = random.Random(seed)
    chosen = [(key, "same_vulnerability") for key in rng.sample(positives, n_pos)]
    chosen += [(key, "different") for key in rng.sample(negatives, n_neg)]
    rng.shuffle(chosen)
    total = len(chosen)
    n_train = int(split[0] * total)
    n_dev = int(split[1] * total)
    samples = []
    for index, ((a_id, b_id), label) in enumerate(chosen):
        partition = (
            "train" if index < n_train else "dev" if index < n_train + n_dev else "test"
        )
        a, b = corpus.get(a_id), corpus.get(b_id)
        samples.append(
            PairSample(
                a=a_id,
                b=b_id,
                label=label,
                title_a=title_text(a),
                title_b=title_text(b),
                content_a=a.raw_content,
                content_b=b.raw_content,
                partition=partition,
            )
        )
    return samples


def save_pair_samples(samples: Iterable[PairSample], path: str | Path) -> None:
    write_jsonl(path, (s.encode() for s in samples))


# --- graph assembly --------------------------------------------------------------


def build_link_graph(
    corpus: Corpus,
    models: ScoringModels,
    classifier: PairClassifier | None,
    config: ThresholdConfig,
) -> list[PocLink]:
    """Assemble the association graph.

    Same-CVE same-kind pairs link when their similarity clears the per-kind
    threshold. Pairs sharing no CVE id link when they name the same software
    and the classifier votes yes. One link per pair, shared-CVE basis first,
    output sorted by pair key. The code and text reports of each CVE group
    and each software-name block are indexed for scoring before the group's
    or the block's pairs are scored.
    """
    links: dict[tuple[str, str], PocLink] = {}
    groups = group_by_cve(corpus)
    for cve_id in sorted(groups):
        pairs = candidate_pairs_same_cve(groups[cve_id], corpus)
        if pairs:
            group = (corpus.get(report_id) for report_id in groups[cve_id])
            models.index(
                [r for r in group if r.content_kind.is_code or r.content_kind.is_text]
            )
        for a_id, b_id, kind in pairs:
            key = (a_id, b_id)
            if key in links:
                continue
            score = score_pair(corpus.get(a_id), corpus.get(b_id), kind, models)
            if score >= kind_threshold(kind, config):
                links[key] = PocLink(a_id, b_id, SharedCve(cve_id), score, kind)
    if classifier is not None:
        # (software name, content kind) -> reports in corpus order; a report
        # can only pair with reports of its own kind. Each report's names are
        # derived once here and kept, as a tuple of the one or few names a
        # report has, for the classifier's precondition.
        blocks: dict[tuple[str, ContentKind], list[PocReport]] = {}
        names: dict[str, tuple[str, ...]] = {}
        for report in corpus:
            kind = report.content_kind
            if kind.is_code or kind.is_text:
                lowered = tuple(name.lower() for name in software_names(report))
                names[report.id] = lowered
                for name in lowered:
                    blocks.setdefault((name, kind), []).append(report)
        seen: set[tuple[str, str]] = set()  # a pair can share several names
        for (_name, kind), block in blocks.items():
            if len(block) > 1:
                models.index(block)
            for a, b in combinations(block, 2):
                if a.id > b.id:
                    a, b = b, a
                key = (a.id, b.id)
                # a pair sharing a CVE id is left to the shared-CVE pass
                if key in seen or set(a.cve_ids) & set(b.cve_ids):
                    continue
                seen.add(key)
                same, confidence = classify_pair(classifier, a, b, names)
                if same:
                    links[key] = PocLink(a.id, b.id, None, confidence, kind)
    return [links[key] for key in sorted(links)]


def save_links(links: Iterable[PocLink], path: str | Path) -> None:
    write_jsonl(path, (link.encode() for link in links))


def load_links(path: str | Path) -> list[PocLink]:
    return read_jsonl(path, PocLink.decode)
