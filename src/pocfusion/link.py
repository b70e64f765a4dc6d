"""Cross-source association graph: CVE-keyed clusters, similarity-scored
pairs, and classifier-based links for reports without a shared CVE id.
"""

from __future__ import annotations

import logging
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from .corpus import (
    ContentKind,
    Corpus,
    PocReport,
    ServiceClient,
    SharedCve,
    check_basis,
    check_unit_number,
    decode_basis,
    encode_basis,
    read_jsonl,
    write_jsonl,
)
from .similarity import cosine_similarity, tokenize_code, tokenize_text

# Not called by the pipeline: bench/tracing.py wraps this module attribute
# (its similarity.embed layer), so it stays importable until that layer goes.
from .similarity import embed_text  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PocLink:
    a: str
    b: str
    basis: SharedCve | None  # None: the pair classifier made the link
    similarity: float
    kind: ContentKind

    def __post_init__(self) -> None:
        for end in (self.a, self.b):
            if type(end) is not str or not end:
                raise ValueError(f"link endpoint is not a non-empty string: {end!r}")
        if self.kind is ContentKind.UNCLASSIFIED:
            raise ValueError(f"link kind must be code or text: {self.kind.encode()!r}")
        if self.a == self.b:
            raise ValueError(f"self-link on {self.a}")
        if self.a > self.b:
            raise ValueError(f"link endpoints not in canonical order: {self.a!r} > {self.b!r}")
        check_unit_number("similarity", self.similarity)
        check_basis(self.basis)

    def encode(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "basis": encode_basis(self.basis),
            "similarity": self.similarity,
            "kind": self.kind.encode(),
        }

    @classmethod
    def decode(cls, data: dict) -> "PocLink":
        return cls(
            a=data["a"],
            b=data["b"],
            basis=decode_basis(data["basis"]),
            similarity=data["similarity"],
            kind=ContentKind.decode(data["kind"]),
        )


@dataclass(frozen=True)
class CompletionConfig:
    """The per-kind similarity thresholds a shared-CVE link must reach."""

    code_threshold: float = 0.5
    text_threshold: float = 0.65

    def __post_init__(self) -> None:
        check_unit_number("code_threshold", self.code_threshold)
        check_unit_number("text_threshold", self.text_threshold)


def kind_threshold(kind: ContentKind, config: CompletionConfig) -> float:
    return config.code_threshold if kind.is_code else config.text_threshold


def below_threshold(link: PocLink, config: CompletionConfig) -> bool:
    """True for a shared-CVE link scoring under its kind's threshold.
    A classifier link carries the classifier's confidence, not a cosine, and
    is never below."""
    return link.basis is not None and link.similarity < kind_threshold(link.kind, config)


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
    if kind is b.content_kind and kind is not ContentKind.UNCLASSIFIED:
        return kind
    return None


# --- scoring -------------------------------------------------------------------


def cosine_matrix(vectors: Sequence[Counter]) -> list[array]:
    """Cosines of every pair of token counts as a lower triangle: row ``i``
    holds the cosines of vector ``i`` with vectors ``0..i``, in input order.

    The vectors are walked in order, keeping each token's ``(row, count)``
    pairs from earlier rows, so row ``i``'s dot products are summed over the
    tokens it shares with each earlier row, in Python integers, exact at any
    size. Each entry is ``dot / sqrt(norm_i * norm_j)``; the norm product is
    an exact integer rounded once to a float, and square root and division
    are correctly rounded, so an entry equals :func:`cosine_similarity` of
    the two counts bit for bit while the sums stay below 2**53. Where a norm
    is 0 the entry is 0.
    """
    postings: dict[str, list[tuple[int, int]]] = {}  # token -> (row, count) of rows so far
    norms: list[int] = []
    matrix = []
    for i, vector in enumerate(vectors):
        dots = [0] * (i + 1)
        for token, count in vector.items():
            earlier = postings.setdefault(token, [])
            for j, other in earlier:
                dots[j] += count * other
            earlier.append((i, count))
        norm = dots[i] = sum(count * count for count in vector.values())
        norms.append(norm)
        # a dot product is 0 wherever a norm is, and its cosine is then 0
        row = [dot / math.sqrt(norm * other) if dot else 0.0 for dot, other in zip(dots, norms)]
        matrix.append(array("d", row))
    return matrix


def title_text(report: PocReport) -> str:
    titles = report.aspects.texts("title")
    return titles[0] if titles else ""


def pair_texts(a: PocReport, b: PocReport) -> dict[str, str]:
    """What a pair classifier reads of a pair: both titles and both contents."""
    return {
        "title_a": title_text(a),
        "title_b": title_text(b),
        "content_a": a.raw_content,
        "content_b": b.raw_content,
    }


class ScoringModels:
    """Per-report token counts and the cosines computed from them.

    A report's content vector counts its code tokens (:func:`tokenize_code`)
    when it is code and its words (:func:`tokenize_text`) otherwise; its
    title vector counts the words of its first title. Counts are kept per
    report object: another object of a known id is counted anew. Each
    cosine is computed for its pair; :meth:`title_matrix` gives a block's
    title cosines, the same bit for bit, and keeps nothing.
    """

    def __init__(self) -> None:
        # id -> (report counted, ((content, squared norm), (title, squared norm)))
        self._counts: dict[str, tuple[PocReport, tuple[tuple[Counter, int], ...]]] = {}

    def _counts_of(self, report: PocReport) -> tuple[tuple[Counter, int], ...]:
        counted, counts = self._counts.get(report.id, (None, ()))
        if counted is not report:
            if report.content_kind.is_code:
                content = tokenize_code(report.raw_content)
            else:
                content = Counter(tokenize_text(report.raw_content))
            if not content:
                logger.warning("report %s has no content tokens, scored 0", report.id)
            title = Counter(tokenize_text(title_text(report)))
            counts = tuple(
                (part, sum(count * count for count in part.values())) for part in (content, title)
            )
            self._counts[report.id] = (report, counts)
        return counts

    def title_matrix(self, reports: Sequence[PocReport]) -> list[array]:
        """The title :func:`cosine_matrix` of ``reports``, rows in their order."""
        return cosine_matrix([self._counts_of(report)[1][0] for report in reports])

    def _cosine(self, a: PocReport, b: PocReport, part: int) -> float:
        (a_counts, a_norm), (b_counts, b_norm) = self._counts_of(a)[part], self._counts_of(b)[part]
        return cosine_similarity(a_counts, b_counts, a_norm, b_norm)

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


# "Log4j 2.14" names "log4j": the digit in a word does not start a version
_VERSION_TOKEN = re.compile(r"(?<![^\W_])v?\d+(?:\.\d+)*[a-z]?\b", re.IGNORECASE)
_NAME_EDGES = re.compile(r"^[\s_,;:-]+|[\s_,;:-]+$")


def _name_from_text(text: str) -> str:
    head = text.split(" - ", 1)[0]
    m = _VERSION_TOKEN.search(head)
    if m:
        head = head[: m.start()]
    return _NAME_EDGES.sub("", head)


def software_names(report: PocReport) -> tuple[str, ...]:
    """Distinct software names a report is about, lowered, in first-seen
    order: the name part of each Original title value, and of each Original
    software_version value, before its first version number that does not
    continue a letter or digit, trimmed of whitespace and ``-_,;:``. Values
    added by completion are ignored, so the answer is stable across
    enrichment runs.
    Blocks are keyed by these names and every name check compares them.
    """
    names: dict[str, None] = {}
    for slot in ("title", "software_version"):
        for value in report.aspects.original_values(slot):
            name = _name_from_text(value.text)
            if name:
                names[name.lower()] = None
    return tuple(names)


# --- pair classification -------------------------------------------------------


class PairClassifier(Protocol):
    def classify(self, a: PocReport, b: PocReport) -> tuple[bool, float]: ...


class HeuristicPairClassifier:
    """Default same-vulnerability verdict: the mean of the title and content
    token-count cosines against a cutoff. Confidence is that mean itself."""

    def __init__(self, models: ScoringModels, cutoff: float = 0.85):
        check_unit_number("cutoff", cutoff)
        self.models = models
        self.cutoff = cutoff

    def classify(self, a: PocReport, b: PocReport) -> tuple[bool, float]:
        models = self.models
        content = models.content_cosine(a, b) if pair_kind_of(a, b) is not None else 0.0
        combined = 0.5 * models.title_cosine(a, b) + 0.5 * content
        return combined >= self.cutoff, combined


class ExternalPairClassifier(ServiceClient):
    """Client for an external pair-classifier HTTP service.

    Request: :func:`pair_texts` of the pair; response:
    ``{"same": bool, "confidence": real}``. A failed call, an out-of-contract
    verdict included, is answered by ``fallback``; ``degraded`` collects the
    pairs' ids (see :class:`ServiceClient`).
    """

    def classify(self, a: PocReport, b: PocReport) -> tuple[bool, float]:
        verdict = self._call((a.id, b.id), pair_texts(a, b), _verdict)
        return verdict if verdict is not None else self.fallback.classify(a, b)


def _verdict(data: dict) -> tuple[bool, float]:
    same, confidence = data["same"], data["confidence"]
    if not isinstance(same, bool):
        raise ValueError(f"verdict out of contract: {data}")
    check_unit_number("confidence", confidence)
    return same, float(confidence)


def classify_pair(
    classifier: PairClassifier,
    a: PocReport,
    b: PocReport,
    names: Mapping[str, Sequence[str]] | None = None,
) -> tuple[bool, float]:
    """Same-vulnerability verdict for two reports naming the same software.

    A shared software name is a hard precondition; callers generate
    candidates through it. ``names`` maps report ids to their
    :func:`software_names`, as :func:`build_link_graph` has them already;
    without it the names are derived here. The verdict is the classifier's
    own; a :class:`PocLink` refuses a confidence outside [0, 1].
    """
    if names is None:
        names = {a.id: software_names(a), b.id: software_names(b)}
    if set(names[a.id]).isdisjoint(names[b.id]):
        raise ValueError(
            f"classify_pair precondition violated: {a.id} and {b.id} "
            "do not name the same software"
        )
    return classifier.classify(a, b)


# --- training-set construction -------------------------------------------------


def build_pair_training_set(
    corpus: Corpus,
    n_pos: int,
    n_neg: int,
    split: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> list[dict]:
    """Sample labelled report pairs for an external same-vulnerability trainer.

    A sample is a dict of the pair's ids ``a`` and ``b``, its
    :func:`pair_texts`, its ``label`` (``same_vulnerability`` or
    ``different``) and its ``partition`` (``train``, ``dev`` or ``test``).
    Positives share at least one CVE id; negatives are CVE-tagged on both
    sides with disjoint id sets, drawn uniformly by pair number without
    listing every pair, so memory grows with the sample. Partition sizes:
    floor(train), floor(dev), remainder to test, each ratio times the total
    rounded to 6 decimals first, so that 0.29 of 100 is 29, not the 28 of
    ``int(28.999999999999996)``. Deterministic for a fixed seed.
    """
    if abs(sum(split) - 1.0) > 1e-9 or any(r < 0 for r in split):
        raise ValueError(f"split ratios must be nonnegative and sum to 1: {split}")
    tagged = sorted(r.id for r in corpus if r.cve_ids)
    positive_keys: set[tuple[str, str]] = set()
    for group in group_by_cve(corpus).values():
        for pair in combinations(group, 2):
            positive_keys.add(tuple(sorted(pair)))
    positives = sorted(positive_keys)
    # pair number k <-> (tagged[i], tagged[j]), i < j, k = j*(j-1)/2 + i; every
    # positive joins two tagged reports, so the rest of the pairs are negatives
    n_pairs = math.comb(len(tagged), 2)
    if len(positives) < n_pos or n_pairs - len(positives) < n_neg:
        raise ValueError(
            f"insufficient candidate pairs: need {n_pos} positive have "
            f"{len(positives)}, need {n_neg} negative have {n_pairs - len(positives)}"
        )
    import random

    rng = random.Random(seed)
    chosen = [(key, "same_vulnerability") for key in rng.sample(positives, n_pos)]
    negatives = []
    # drawn without replacement, and at most len(positives) of them are positives
    for k in rng.sample(range(n_pairs), min(n_pairs, n_neg + len(positives))):
        j = (1 + math.isqrt(1 + 8 * k)) // 2
        key = (tagged[k - j * (j - 1) // 2], tagged[j])
        if key not in positive_keys:
            negatives.append(key)
    chosen += [(key, "different") for key in negatives[:n_neg]]
    rng.shuffle(chosen)
    total = len(chosen)
    n_train = int(round(split[0] * total, 6))
    n_dev = int(round(split[1] * total, 6))
    samples = []
    for index, ((a_id, b_id), label) in enumerate(chosen):
        partition = (
            "train" if index < n_train else "dev" if index < n_train + n_dev else "test"
        )
        samples.append({
            "a": a_id,
            "b": b_id,
            **pair_texts(corpus.get(a_id), corpus.get(b_id)),
            "label": label,
            "partition": partition,
        })
    return samples


def save_pair_samples(samples: Iterable[dict], path: str | Path) -> None:
    write_jsonl(path, samples)


# --- graph assembly --------------------------------------------------------------


def build_link_graph(
    corpus: Corpus,
    models: ScoringModels,
    classifier: PairClassifier | None,
    config: CompletionConfig,
) -> list[PocLink]:
    """Assemble the association graph.

    Same-CVE same-kind pairs link when their similarity clears the per-kind
    threshold. Pairs sharing no CVE id link when they name the same software
    and the classifier votes yes. One link per pair, shared-CVE basis first,
    output sorted by pair key. Every content cosine, a CVE group's or a
    classifier pair's, is computed for the pair.

    With the :class:`HeuristicPairClassifier`, a pair is classified only
    when its title cosine ``t``, read from its software-name block's
    :meth:`ScoringModels.title_matrix`, leaves room to link: its verdict is
    ``0.5·t + 0.5·c >= cutoff`` with a content cosine ``c <= 1.0``, and in
    floats ``0.5·t + 0.5·c <= 0.5·t + 0.5`` (the halving is exact and
    rounded addition is monotone), so a pair with ``0.5·t + 0.5 < cutoff``
    cannot link, and its content cosine is not computed. Any other
    classifier sees every candidate, and no matrix is built.
    """
    links: dict[tuple[str, str], PocLink] = {}
    # every pair decided so far, linked or not: all pairs sharing a CVE id,
    # then each pair the classifier has seen
    decided: set[tuple[str, str]] = set()
    groups = group_by_cve(corpus)
    for cve_id in sorted(groups):
        for key in combinations(sorted(groups[cve_id]), 2):
            if key in decided:
                continue
            decided.add(key)
            a, b = corpus.get(key[0]), corpus.get(key[1])
            kind = pair_kind_of(a, b)
            if kind is None:
                continue
            score = score_pair(a, b, kind, models)
            if score >= kind_threshold(kind, config):
                links[key] = PocLink(a.id, b.id, SharedCve(cve_id), score, kind)
    if classifier is not None:
        # (software name, content kind) -> reports in corpus order; a report
        # can only pair with reports of its own kind. Each report's names are
        # derived once here and kept, as a tuple of the one or few names a
        # report has, for the classifier's precondition.
        blocks: dict[tuple[str, ContentKind], list[PocReport]] = {}
        names: dict[str, tuple[str, ...]] = {}
        for report in corpus:
            kind = report.content_kind
            if kind is not ContentKind.UNCLASSIFIED:
                names[report.id] = report_names = software_names(report)
                for name in report_names:
                    blocks.setdefault((name, kind), []).append(report)
        cutoff = classifier.cutoff if type(classifier) is HeuristicPairClassifier else None
        for (_name, kind), block in blocks.items():
            if len(block) < 2:
                continue
            titles = models.title_matrix(block) if cutoff is not None else None
            for (i, a), (j, b) in combinations(enumerate(block), 2):
                # row j > i of the lower triangle holds the pair's title
                # cosine; it is the same in every block the pair shares, so a
                # pair gated out here is gated out again there
                if cutoff is not None and 0.5 * titles[j][i] + 0.5 < cutoff:
                    continue
                if a.id > b.id:
                    a, b = b, a
                key = (a.id, b.id)
                # a pair sharing a CVE id, or several names, is decided once
                if key in decided:
                    continue
                decided.add(key)
                same, confidence = classify_pair(classifier, a, b, names)
                if same:
                    links[key] = PocLink(a.id, b.id, None, confidence, kind)
    return [links[key] for key in sorted(links)]


def save_links(links: Iterable[PocLink], path: str | Path) -> None:
    write_jsonl(path, (link.encode() for link in links))


def load_links(path: str | Path) -> list[PocLink]:
    return read_jsonl(path, PocLink.decode)
