"""In-process traced pipeline run and the per-layer metrics derived from it.

Spans are recorded from the benchmark's side only: each public function the
pipeline calls across a module boundary is replaced, at the module attribute
its call site looks up, by a wrapper that records a span around the call.
The program itself carries no tracing.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from pocfusion import cli, link
from pocfusion.complete import FromCve
from pocfusion.corpus import ASPECT_SLOTS
from pocfusion.link import SharedCve
from pocfusion.similarity import tokenize_text


class Tracer:
    """Spans and counts of one traced pipeline run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.trained: list[tuple[list[str], object]] = []  # (texts, model)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


class _WarningCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        if record.levelno == logging.WARNING:
            self.counts["cli.warnings"] += 1


def _file_size(path) -> int:
    return Path(path).stat().st_size


def _value_count(report) -> int:
    return sum(len(report.aspects.values(slot)) for slot in ASPECT_SLOTS)


# (module, attribute, span name, hook(counts, tracer, args, result)); hooks
# only count, so that their cost stays out of the layer times.
_WRAPPED = (
    (cli, "ingest_reports", "corpus.ingest", None),
    (cli, "ingest_cve_entries", "corpus.ingest", None),
    (cli, "load_corpus", "corpus.load", None),
    (cli, "save_corpus", "corpus.save",
     lambda c, t, a, r: c.update({"corpus.bytes_written": _file_size(a[1])})),
    (cli, "save_cve_db", "corpus.save",
     lambda c, t, a, r: c.update({"corpus.bytes_written": _file_size(a[1])})),
    (cli, "categorize", "classify.categorize",
     lambda c, t, a, r: c.update({"classify.code": int(r.content_kind.is_code)})),
    (cli, "extract_all", "extract.extract_all",
     lambda c, t, a, r: c.update({"extract.values": _value_count(r) - _value_count(a[0])})),
    (cli, "train_embeddings", "similarity.train",
     lambda c, t, a, r: t.trained.append((a[0], r))),
    (cli, "build_link_graph", "link.graph",
     lambda c, t, a, r: c.update({
         "link.links": len(r),
         "link.cve_links": sum(isinstance(x.basis, SharedCve) for x in r),
     })),
    (cli, "run_completion", "complete.run",
     lambda c, t, a, r: c.update({
         "complete.cve_records": sum(isinstance(x.origin, FromCve) for x in r.records),
         "complete.poc_records": sum(not isinstance(x.origin, FromCve) for x in r.records),
         "complete.failed_associations": len(r.failed_associations),
         "complete.skipped_links": r.skipped_links,
     })),
    (cli, "save_completion_records", "complete.records_save", None),
    (cli, "deficiency_stats", "report.stats", None),
    (cli, "completion_stats", "report.stats", None),
    (cli, "render_report", "report.render", None),
    (cli, "write_manifest", "cli.manifest",
     lambda c, t, a, r: c.update({
         "cli.bytes_hashed": sum(_file_size(p) for p in a[3].values())
         + sum(_file_size(Path(a[0]) / name) for name in a[4]),
     })),
    (link, "score_pair", "link.score", None),
    (link, "classify_pair", "link.classify",
     lambda c, t, a, r: c.update({"link.classifier_links": int(r[0])})),
    (link, "cosine_similarity", "similarity.cosine", None),
    (link, "embed_text", "similarity.embed", None),
    (link, "tokenize_code", "similarity.tokenize_code", None),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Install the span wrappers and the warning counter; undo both on exit."""
    patches = []

    def wrap(module, attr, name, hook):
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if hook is not None:
                hook(tracer.counts, tracer, args, result)
            return result

        patches.append((module, attr, original))
        setattr(module, attr, traced)

    root = logging.getLogger()
    handler = _WarningCounter(tracer.counts)
    previous_level = root.level
    root.addHandler(handler)
    root.setLevel(logging.WARNING)
    try:
        for module, attr, name, hook in _WRAPPED:
            wrap(module, attr, name, hook)
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
        root.removeHandler(handler)
        root.setLevel(previous_level)


def traced_pipeline(config, run_id: str) -> Tracer:
    """Run every stage in process through ``cli.run_command`` under tracing."""
    tracer = Tracer(run_id)
    with instrumented(tracer):
        for stage in cli.STAGES:
            with tracer.span(f"cli.stage.{stage}"):
                cli.run_command(stage, config)
    return tracer


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: ``name -> (value, unit)``."""
    spans = tracer.spans
    total: Counter = Counter()
    calls: Counter = Counter()
    child_time: Counter = Counter()
    for s in spans:
        duration = s["end"] - s["start"]
        total[s["name"]] += duration
        calls[s["name"]] += 1
        if s["parent"] is not None:
            child_time[s["parent"]] += duration
    graph_ids = {s["id"] for s in spans if s["name"] == "link.graph"}
    graph_self = sum(
        s["end"] - s["start"] - child_time[s["id"]] for s in spans if s["id"] in graph_ids
    )
    # scoring called by the graph itself is CVE-pair scoring; scoring under a
    # classifier call belongs to the classifier
    cve_scores = [s for s in spans if s["name"] == "link.score" and s["parent"] in graph_ids]
    counts = tracer.counts
    train_tokens = sum(
        sum(tok in model.vocabulary for text in texts for tok in tokenize_text(text))
        * model.params.epochs
        for texts, model in tracer.trained
    )
    models = [model for _texts, model in tracer.trained]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for stage in cli.STAGES:
        metrics[f"cli.{stage}_s"] = (total[f"cli.stage.{stage}"], "s")
    metrics.update({
        "cli.stage_sum_s": (sum(total[f"cli.stage.{st}"] for st in cli.STAGES), "s"),
        "cli.manifest_s": (total["cli.manifest"], "s"),
        "cli.bytes_hashed": (counts["cli.bytes_hashed"], "bytes"),
        "cli.warnings": (counts["cli.warnings"], "count"),
        "corpus.ingest_s": (total["corpus.ingest"], "s"),
        "corpus.load_s": (total["corpus.load"], "s"),
        "corpus.load_calls": (calls["corpus.load"], "count"),
        "corpus.save_s": (total["corpus.save"], "s"),
        "corpus.bytes_written": (counts["corpus.bytes_written"], "bytes"),
        "classify.categorize_s": (total["classify.categorize"], "s"),
        "classify.code_share": (ratio(counts["classify.code"], calls["classify.categorize"]), "ratio"),
        "extract.extract_all_s": (total["extract.extract_all"], "s"),
        "extract.values": (counts["extract.values"], "count"),
        "similarity.train_s": (total["similarity.train"], "s"),
        "similarity.train_tokens": (train_tokens, "count"),
        "similarity.vocab": (sum(len(m.vocabulary) for m in models), "count"),
        "similarity.us_per_token": (ratio(total["similarity.train"] * 1e6, train_tokens), "us"),
        "similarity.final_loss": (models[-1].epoch_losses[-1] if models else 0.0, "nats"),
        "similarity.embed_calls": (calls["similarity.embed"], "count"),
        "similarity.embed_s": (total["similarity.embed"], "s"),
        "similarity.tokenize_code_calls": (calls["similarity.tokenize_code"], "count"),
        "similarity.tokenize_code_s": (total["similarity.tokenize_code"], "s"),
        "similarity.cosine_calls": (calls["similarity.cosine"], "count"),
        "similarity.cosine_s": (total["similarity.cosine"], "s"),
        "link.graph_s": (graph_self, "s"),
        "link.score_s": (sum(s["end"] - s["start"] for s in cve_scores), "s"),
        "link.classify_s": (total["link.classify"], "s"),
        "link.cve_pairs": (len(cve_scores), "count"),
        "link.cve_links": (counts["link.cve_links"], "count"),
        "link.cve_link_ratio": (ratio(counts["link.cve_links"], len(cve_scores)), "ratio"),
        "link.classifier_calls": (calls["link.classify"], "count"),
        "link.classifier_links": (counts["link.classifier_links"], "count"),
        "link.classifier_accept_ratio": (
            ratio(counts["link.classifier_links"], calls["link.classify"]), "ratio"
        ),
        "link.links": (counts["link.links"], "count"),
        "complete.run_s": (total["complete.run"], "s"),
        "complete.cve_records": (counts["complete.cve_records"], "count"),
        "complete.poc_records": (counts["complete.poc_records"], "count"),
        "complete.failed_associations": (counts["complete.failed_associations"], "count"),
        "complete.skipped_links": (counts["complete.skipped_links"], "count"),
        "complete.records_save_s": (total["complete.records_save"], "s"),
        "report.stats_s": (total["report.stats"], "s"),
        "report.render_s": (total["report.render"], "s"),
    })
    return metrics
