"""Pipeline driver: staged commands over a persistent workspace.

Each stage reads the previous stage's persisted corpus, writes its own
artifacts plus a manifest of input/output content hashes, and never embeds
timestamps or machine state, so reruns with unchanged inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .classify import categorize
from .complete import (
    CompletionConfig,
    run_completion,
    save_completion_records,
    load_completion_records,
)
from .corpus import (
    Corpus,
    CorpusError,
    SourceId,
    build_corpus,
    ingest_cve_entries,
    ingest_reports,
    load_corpus,
    load_cve_db,
    save_corpus,
    save_cve_db,
)
from .extract import (
    DefaultStructuredExtractor,
    ExternalStructuredExtractor,
    ExtractionError,
    extract_all,
)
from .link import (
    ExternalPairClassifier,
    HeuristicPairClassifier,
    ScoringModels,
    build_link_graph,
    load_links,
    save_links,
)
from .report import completion_stats, deficiency_stats, render_report
from .similarity import EmbeddingParams, train_embeddings

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PREREQ = 3
EXIT_DATA = 4

INGESTED = "corpus_ingested.jsonl"
CVE_DB = "cve_db.jsonl"
CLASSIFIED = "corpus_classified.jsonl"
EXTRACTED = "corpus_extracted.jsonl"
EMBEDDING = "embedding_model.json"
LINKS = "links.jsonl"
COMPLETED = "corpus_completed.jsonl"
RECORDS = "completion_records.jsonl"
MANIFEST_DIR = "manifests"
LOCK_FILE = ".lock"

ENV_WORKSPACE = "POCFUSION_WORKSPACE"
ENV_EXTRACTOR = "POCFUSION_EXTRACTOR_URL"
ENV_CLASSIFIER = "POCFUSION_CLASSIFIER_URL"


class ConfigurationError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class PrerequisiteError(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    sources: tuple[tuple[str, str], ...] = ()
    cve_path: str | None = None
    workspace: str | None = None
    code_threshold: float = CompletionConfig.code_threshold
    text_threshold: float = CompletionConfig.text_threshold
    seed: int = 0
    extractor_url: str | None = None
    classifier_url: str | None = None
    jobs: int = 8
    format: str = "markdown"


def parse_config_file(path: Path) -> dict[str, str]:
    """Read the key=value configuration format. ``#`` starts a comment;
    ``source.<name> = <path>`` declares a report source."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(
                [f"{path}:{lineno}: expected key = value, got {raw!r}"]
            )
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_CONFIG_KEYS = {
    "workspace",
    "cve",
    "code_threshold",
    "text_threshold",
    "seed",
    "extractor_url",
    "classifier_url",
    "jobs",
    "format",
}


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge defaults, config file, environment, and flags (highest wins);
    report every validation failure at once."""
    errors: list[str] = []
    file_values: dict[str, str] = {}
    if args.config:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigurationError([f"config file not found: {config_path}"])
        file_values = parse_config_file(config_path)
        for key in file_values:
            if key not in _CONFIG_KEYS and not key.startswith("source."):
                errors.append(f"unknown config key: {key}")

    sources: list[tuple[str, str]] = [
        (key.split(".", 1)[1], value)
        for key, value in file_values.items()
        if key.startswith("source.")
    ]
    for item in args.source or []:
        name, sep, path = item.partition("=")
        if not sep or not name.strip() or not path.strip():
            errors.append(f"--source expects NAME=PATH, got {item!r}")
        else:
            sources.append((name.strip(), path.strip()))

    defaults = PipelineConfig()

    def pick(flag_value, env_name: str | None, file_key: str, default):
        if flag_value is not None:
            return flag_value
        if env_name and os.environ.get(env_name):
            return os.environ[env_name]
        if file_key in file_values:
            return file_values[file_key]
        return default

    workspace = pick(args.workspace, ENV_WORKSPACE, "workspace", defaults.workspace)
    cve_path = pick(args.cve, None, "cve", defaults.cve_path)
    extractor_url = pick(
        args.extractor_url, ENV_EXTRACTOR, "extractor_url", defaults.extractor_url
    )
    classifier_url = pick(
        args.classifier_url, ENV_CLASSIFIER, "classifier_url", defaults.classifier_url
    )
    raw_code = pick(args.code_threshold, None, "code_threshold", defaults.code_threshold)
    raw_text = pick(args.text_threshold, None, "text_threshold", defaults.text_threshold)
    raw_seed = pick(args.seed, None, "seed", defaults.seed)
    raw_jobs = pick(args.jobs, None, "jobs", defaults.jobs)
    out_format = pick(args.format, None, "format", defaults.format)

    def parse_threshold(name: str, raw) -> float:
        try:
            value = float(raw)
        except (TypeError, ValueError):
            errors.append(f"{name} is not a number: {raw!r}")
            return 0.0
        if not 0.0 <= value <= 1.0:
            errors.append(f"{name} must be in [0, 1], got {value}")
        return value

    code_threshold = parse_threshold("code-threshold", raw_code)
    text_threshold = parse_threshold("text-threshold", raw_text)

    try:
        seed = int(raw_seed)
        if not 0 <= seed < 2**63:
            errors.append(f"seed must fit in a 63-bit nonnegative integer: {seed}")
    except (TypeError, ValueError):
        errors.append(f"seed is not an integer: {raw_seed!r}")
        seed = 0
    try:
        jobs = int(raw_jobs)
        if jobs < 1:
            errors.append(f"jobs must be >= 1, got {jobs}")
    except (TypeError, ValueError):
        errors.append(f"jobs is not an integer: {raw_jobs!r}")
        jobs = 1

    if out_format not in ("markdown", "csv"):
        errors.append(f"format must be markdown or csv, got {out_format!r}")

    if workspace is None:
        errors.append("workspace is required (--workspace, config key, or env)")

    needs_sources = args.command in ("ingest", "run-all")
    if needs_sources and not sources:
        errors.append(f"{args.command} requires at least one --source NAME=PATH")
    if needs_sources:
        seen_names = set()
        for name, path in sources:
            if name.lower() in seen_names:
                errors.append(f"duplicate source name: {name}")
            seen_names.add(name.lower())
            if not Path(path).is_file():
                errors.append(f"source file not found: {path}")
        if cve_path is not None and not Path(cve_path).is_file():
            errors.append(f"cve file not found: {cve_path}")

    if errors:
        raise ConfigurationError(errors)
    return PipelineConfig(
        sources=tuple(sources),
        cve_path=cve_path,
        workspace=workspace,
        code_threshold=code_threshold,
        text_threshold=text_threshold,
        seed=seed,
        extractor_url=extractor_url,
        classifier_url=classifier_url,
        jobs=jobs,
        format=out_format,
    )


# --- workspace bookkeeping ---------------------------------------------------


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(config: PipelineConfig) -> str:
    # the workspace path is excluded so identical runs in different
    # directories produce identical bytes
    payload = {
        "sources": [[name, path] for name, path in config.sources],
        "cve": config.cve_path,
        "code_threshold": config.code_threshold,
        "text_threshold": config.text_threshold,
        "seed": config.seed,
        "extractor_url": config.extractor_url,
        "classifier_url": config.classifier_url,
        "jobs": config.jobs,
        "format": config.format,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def write_manifest(
    ws: Path,
    stage: str,
    config: PipelineConfig,
    inputs: dict[str, Path],
    outputs: list[str],
    extra: dict | None = None,
) -> None:
    manifest = {
        "stage": stage,
        "config_hash": config_hash(config),
        "seed": config.seed,
        "inputs": {name: _sha256_file(path) for name, path in sorted(inputs.items())},
        "outputs": {name: _sha256_file(ws / name) for name in sorted(outputs)},
    }
    if extra:
        manifest.update(extra)
    (ws / MANIFEST_DIR / f"{stage}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _require(ws: Path, filename: str, producing_command: str) -> Path:
    path = ws / filename
    if not path.is_file():
        raise PrerequisiteError(
            f"workspace is missing {filename}; run 'pocfusion {producing_command}' first"
        )
    return path


class WorkspaceLock:
    """Single-writer guard: a lock file created exclusively, removed on exit."""

    def __init__(self, ws: Path):
        self.path = ws / LOCK_FILE

    def __enter__(self) -> "WorkspaceLock":
        try:
            with self.path.open("x", encoding="utf-8") as handle:
                handle.write("locked\n")
        except FileExistsError:
            raise PrerequisiteError(
                f"workspace is locked by another run; remove {self.path} if stale"
            ) from None
        return self

    def __exit__(self, *exc_info) -> None:
        self.path.unlink(missing_ok=True)


# --- stages ---------------------------------------------------------------------


def stage_ingest(config: PipelineConfig, ws: Path) -> None:
    groups = []
    inputs: dict[str, Path] = {}
    for name, path in config.sources:
        source = SourceId.parse(name)
        groups.append(ingest_reports(path, source))
        inputs[f"source:{name}"] = Path(path)
    corpus = build_corpus(groups)
    if len(corpus) == 0:
        raise CorpusError("no reports survived ingestion")
    save_corpus(corpus, ws / INGESTED)
    entries = ingest_cve_entries(config.cve_path) if config.cve_path else {}
    if config.cve_path:
        inputs["cve"] = Path(config.cve_path)
    save_cve_db(entries, ws / CVE_DB)
    write_manifest(
        ws, "ingest", config, inputs, [INGESTED, CVE_DB],
        {"reports": len(corpus), "cve_entries": len(entries)},
    )


def stage_classify(config: PipelineConfig, ws: Path) -> None:
    source = _require(ws, INGESTED, "ingest")
    corpus = load_corpus(source)
    classified = Corpus(categorize(report) for report in corpus)
    save_corpus(classified, ws / CLASSIFIED)
    write_manifest(ws, "classify", config, {INGESTED: source}, [CLASSIFIED])


def stage_extract(config: PipelineConfig, ws: Path) -> None:
    source = _require(ws, CLASSIFIED, "classify")
    corpus = load_corpus(source)
    degraded = 0
    if config.extractor_url:
        extractor = ExternalStructuredExtractor(config.extractor_url)
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            reports = list(pool.map(lambda r: extract_all(r, extractor=extractor), corpus))
        degraded = len(extractor.degraded_ids)
    else:
        default = DefaultStructuredExtractor()
        reports = [extract_all(report, extractor=default) for report in corpus]
    save_corpus(Corpus(reports), ws / EXTRACTED)
    write_manifest(
        ws, "extract", config, {CLASSIFIED: source}, [EXTRACTED],
        {"degraded": {"extractor": degraded}},
    )


def _training_texts(corpus: Corpus) -> list[str]:
    texts = [r.raw_content for r in corpus if r.content_kind.is_text]
    texts.extend(t for r in corpus for t in r.aspects.texts("title"))
    return [t for t in texts if t.strip()]


def stage_link(config: PipelineConfig, ws: Path) -> None:
    source = _require(ws, EXTRACTED, "extract")
    # linking reads no CVE entries; the CVE db is still required and hashed
    # so the manifest ties the links to the ingest run that produced both
    cve_source = _require(ws, CVE_DB, "ingest")
    corpus = load_corpus(source)
    texts = _training_texts(corpus)
    embedding = None
    outputs = [LINKS]
    if texts:
        embedding = train_embeddings(texts, EmbeddingParams(), seed=config.seed)
        embedding.save(ws / EMBEDDING)
        outputs.append(EMBEDDING)
    else:
        logger.warning("no text content to train embeddings on; text pairs unscorable")
    models = ScoringModels(embedding)
    heuristic = HeuristicPairClassifier(models)
    external = (
        ExternalPairClassifier(config.classifier_url, heuristic)
        if config.classifier_url
        else None
    )
    links = build_link_graph(
        corpus, models, external or heuristic,
        CompletionConfig(config.code_threshold, config.text_threshold),
    )
    degraded = len(external.degraded_pairs) if external else 0
    save_links(links, ws / LINKS)
    write_manifest(
        ws, "link", config, {EXTRACTED: source, CVE_DB: cve_source}, outputs,
        {"links": len(links), "degraded": {"classifier": degraded}},
    )


def stage_complete(config: PipelineConfig, ws: Path) -> None:
    source = _require(ws, EXTRACTED, "extract")
    links_source = _require(ws, LINKS, "link")
    cve_source = _require(ws, CVE_DB, "ingest")
    corpus = load_corpus(source)
    cve_db = load_cve_db(cve_source)
    links = load_links(links_source)
    result = run_completion(
        corpus, cve_db, links,
        CompletionConfig(config.code_threshold, config.text_threshold),
    )
    save_corpus(result.corpus, ws / COMPLETED)
    save_completion_records(result.records, ws / RECORDS)
    write_manifest(
        ws, "complete", config,
        {EXTRACTED: source, LINKS: links_source, CVE_DB: cve_source},
        [COMPLETED, RECORDS],
        {
            "run_id": result.run_id,
            "records": len(result.records),
            "skipped_links": result.skipped_links,
            "failed_associations": len(result.failed_associations),
        },
    )


def stage_stats(config: PipelineConfig, ws: Path) -> None:
    extracted_source = _require(ws, EXTRACTED, "extract")
    completed_source = _require(ws, COMPLETED, "complete")
    records_source = _require(ws, RECORDS, "complete")
    extracted = load_corpus(extracted_source)
    completed = load_corpus(completed_source)
    records = load_completion_records(records_source)
    deficiency = deficiency_stats(extracted)
    if deficiency.empty:
        logger.warning("deficiency table computed over an empty corpus")
    completion = completion_stats(records, completed)
    extension = "md" if config.format == "markdown" else "csv"
    outputs = [f"deficiency.{extension}", f"completion.{extension}"]
    (ws / outputs[0]).write_text(
        render_report(deficiency, config.format), encoding="utf-8"
    )
    (ws / outputs[1]).write_text(
        render_report(completion, config.format), encoding="utf-8"
    )
    write_manifest(
        ws, "stats", config,
        {
            EXTRACTED: extracted_source,
            COMPLETED: completed_source,
            RECORDS: records_source,
        },
        outputs,
    )


_STAGE_FUNCTIONS = {
    "ingest": stage_ingest,
    "classify": stage_classify,
    "extract": stage_extract,
    "link": stage_link,
    "complete": stage_complete,
    "stats": stage_stats,
}
STAGES = tuple(_STAGE_FUNCTIONS)


def run_command(command: str, config: PipelineConfig) -> None:
    ws = Path(config.workspace)
    ws.mkdir(parents=True, exist_ok=True)
    (ws / MANIFEST_DIR).mkdir(exist_ok=True)
    with WorkspaceLock(ws):
        if command == "run-all":
            for stage in STAGES:
                logger.info("running stage %s", stage)
                _STAGE_FUNCTIONS[stage](config, ws)
        else:
            _STAGE_FUNCTIONS[command](config, ws)


# --- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pocfusion",
        description=(
            "Detect missing key aspects in vulnerability PoC reports and "
            "complete them from CVE entries and related reports."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "ingest": "load source report files and the CVE dump into the workspace",
        "classify": "categorize reports as code (with language) or text",
        "extract": "populate aspect slots by rule-based and structured extraction",
        "link": "build the cross-source association graph",
        "complete": "fill missing aspects from CVE entries and linked reports",
        "stats": "compute deficiency and completion tables",
        "run-all": "run every stage in order",
    }
    for command, description in descriptions.items():
        sub = subparsers.add_parser(command, help=description)
        sub.add_argument("--config", help="key=value configuration file")
        sub.add_argument("--workspace", help="workspace directory")
        sub.add_argument(
            "--source",
            action="append",
            metavar="NAME=PATH",
            help="report source file, repeatable",
        )
        sub.add_argument("--cve", help="CVE entries file")
        sub.add_argument("--code-threshold", dest="code_threshold")
        sub.add_argument("--text-threshold", dest="text_threshold")
        sub.add_argument("--seed")
        sub.add_argument("--extractor-url", dest="extractor_url")
        sub.add_argument("--classifier-url", dest="classifier_url")
        sub.add_argument("--jobs")
        sub.add_argument("--format", choices=("markdown", "csv"))
    return parser


def _fail(command: str, code: int, message: str) -> int:
    print(
        json.dumps({"error": {"code": code, "command": command, "message": message}}),
        file=sys.stderr,
    )
    return code


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
    except ConfigurationError as exc:
        for error in exc.errors:
            logger.error("%s", error)
        return _fail(args.command, EXIT_CONFIG, "; ".join(exc.errors))
    try:
        run_command(args.command, config)
    except PrerequisiteError as exc:
        return _fail(args.command, EXIT_PREREQ, str(exc))
    except (CorpusError, ExtractionError, ValueError, KeyError, OSError) as exc:
        return _fail(args.command, EXIT_DATA, str(exc))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
