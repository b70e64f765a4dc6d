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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

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
from .extract import DefaultStructuredExtractor, ExternalStructuredExtractor, extract_all
from .link import (
    ExternalPairClassifier,
    HeuristicPairClassifier,
    ScoringModels,
    build_link_graph,
    load_links,
    save_links,
)
from .report import completion_stats, deficiency_stats, render_report

# Not called by the pipeline: bench/tracing.py wraps this module attribute
# (its similarity.train layer), so it stays importable until that layer goes.
from .similarity import train_embeddings  # noqa: F401

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PREREQ = 3
EXIT_DATA = 4

INGESTED = "corpus_ingested.jsonl"
CVE_DB = "cve_db.jsonl"
CLASSIFIED = "corpus_classified.jsonl"
EXTRACTED = "corpus_extracted.jsonl"
LINKS = "links.jsonl"
COMPLETED = "corpus_completed.jsonl"
RECORDS = "completion_records.jsonl"
MANIFEST_DIR = "manifests"
LOCK_FILE = ".lock"

ENV_WORKSPACE = "POCFUSION_WORKSPACE"


class ConfigurationError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class PrerequisiteError(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    sources: tuple[tuple[str, str], ...] = ()
    cve: str | None = None
    workspace: str | None = None
    code_threshold: float = CompletionConfig.code_threshold
    text_threshold: float = CompletionConfig.text_threshold
    extractor_url: str | None = None
    classifier_url: str | None = None
    jobs: int = 8
    format: str = "markdown"


def parse_config_file(path: Path) -> dict[str, str]:
    """Read the key=value configuration format. ``#`` starts a comment;
    ``source.<name> = <path>`` declares a report source. A malformed line or
    a key set twice is a configuration error naming its lines."""
    values, errors = _read_config_file(path)
    if errors:
        raise ConfigurationError(errors)
    return values


def _read_config_file(path: Path) -> tuple[dict[str, str], list[str]]:
    """The values of a config file, and its malformed lines and repeated keys."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}  # key -> line that first set it
    errors: list[str] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"{path}:{lineno}: expected key = value, got {raw!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            errors.append(
                f"{path}:{lineno}: repeated config key {key}, first set on line {lines[key]}"
            )
            continue
        lines[key] = lineno
        values[key] = value.strip()
    return values, errors


def _unit_interval(value: float) -> str | None:
    return None if 0.0 <= value <= 1.0 else f"must be in [0, 1], got {value}"


# name -> (environment variable, type, range check returning the problem or
# None). The name is the config-file key and the PipelineConfig field; the
# flag is the name with "_" written as "-".
_SETTINGS: dict[str, tuple[str | None, type, Callable[..., str | None] | None]] = {
    "cve": (None, str, None),
    "workspace": (ENV_WORKSPACE, str, None),
    "code_threshold": (None, float, _unit_interval),
    "text_threshold": (None, float, _unit_interval),
    "extractor_url": ("POCFUSION_EXTRACTOR_URL", str, None),
    "classifier_url": ("POCFUSION_CLASSIFIER_URL", str, None),
    "jobs": (None, int, lambda v: None if v >= 1 else f"must be >= 1, got {v}"),
    "format": (None, str, lambda v: None if v in ("markdown", "csv")
               else f"must be markdown or csv, got {v!r}"),
}
_TYPE_NAMES = {float: "a number", int: "an integer"}
# Accepted as a config key and a flag so that existing configuration files
# keep working, then ignored with a warning: no stage draws random numbers.
_IGNORED = ("seed",)


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge defaults, config file, environment, and flags (highest wins);
    report every validation failure at once."""
    errors: list[str] = []
    file_values: dict[str, str] = {}
    if args.config:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigurationError([f"config file not found: {config_path}"])
        file_values, errors = _read_config_file(config_path)
        for key in file_values:
            if key not in _SETTINGS and key not in _IGNORED and not key.startswith("source."):
                errors.append(f"unknown config key: {key}")
    for name in _IGNORED:
        if getattr(args, name) is not None or name in file_values:
            logger.warning("%s has no effect and is ignored", name)

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
    values = {}
    for name, (env_name, kind, check) in _SETTINGS.items():
        raw = getattr(args, name)
        if raw is None and env_name and os.environ.get(env_name):
            raw = os.environ[env_name]
        if raw is None:
            raw = file_values.get(name)
        if raw is None:
            values[name] = getattr(defaults, name)
            continue
        label = name.replace("_", "-")
        try:
            values[name] = kind(raw)
        except ValueError:
            errors.append(f"{label} is not {_TYPE_NAMES[kind]}: {raw!r}")
            continue
        if check and (problem := check(values[name])):
            errors.append(f"{label} {problem}")

    if not values["workspace"]:
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
        if values["cve"] is not None and not Path(values["cve"]).is_file():
            errors.append(f"cve file not found: {values['cve']}")

    if errors:
        raise ConfigurationError(errors)
    return PipelineConfig(sources=tuple(sources), **values)


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
    payload = asdict(config)
    del payload["workspace"]
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
        "inputs": {name: _sha256_file(path) for name, path in sorted(inputs.items())},
        "outputs": {name: _sha256_file(ws / name) for name in sorted(outputs)},
    }
    if extra:
        manifest.update(extra)
    (ws / MANIFEST_DIR / f"{stage}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _require(ws: Path, filename: str) -> Path:
    path = ws / filename
    if not path.is_file():
        raise PrerequisiteError(
            f"workspace is missing {filename}; run 'pocfusion {_PRODUCERS[filename]}' first"
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
#
# A stage gets the config, the workspace and its inputs (name -> path, its
# declared workspace files already checked); it returns the workspace files it
# wrote and the extra manifest counters.
_StageResult = tuple[list[str], dict | None]


def stage_ingest(config: PipelineConfig, ws: Path, inputs: dict[str, Path]) -> _StageResult:
    groups = []
    for name, path in config.sources:
        source = SourceId.parse(name)
        groups.append(ingest_reports(path, source))
        inputs[f"source:{name}"] = Path(path)
    corpus = build_corpus(groups)
    if len(corpus) == 0:
        raise CorpusError("no reports survived ingestion")
    save_corpus(corpus, ws / INGESTED)
    entries = ingest_cve_entries(config.cve) if config.cve else {}
    if config.cve:
        inputs["cve"] = Path(config.cve)
    save_cve_db(entries, ws / CVE_DB)
    return [INGESTED, CVE_DB], {"reports": len(corpus), "cve_entries": len(entries)}


def stage_classify(config: PipelineConfig, ws: Path, inputs: dict[str, Path]) -> _StageResult:
    corpus = load_corpus(inputs[INGESTED])
    save_corpus(Corpus(categorize(report) for report in corpus), ws / CLASSIFIED)
    return [CLASSIFIED], None


def stage_extract(config: PipelineConfig, ws: Path, inputs: dict[str, Path]) -> _StageResult:
    corpus = load_corpus(inputs[CLASSIFIED])
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
    return [EXTRACTED], {"degraded": {"extractor": degraded}}


def stage_link(config: PipelineConfig, ws: Path, inputs: dict[str, Path]) -> _StageResult:
    corpus = load_corpus(inputs[EXTRACTED])
    models = ScoringModels()
    heuristic = HeuristicPairClassifier(models)
    external = (
        ExternalPairClassifier(config.classifier_url, heuristic)
        if config.classifier_url
        else None
    )
    links = build_link_graph(corpus, models, external or heuristic, config)
    degraded = len(external.degraded_pairs) if external else 0
    save_links(links, ws / LINKS)
    return [LINKS], {"links": len(links), "degraded": {"classifier": degraded}}


def stage_complete(config: PipelineConfig, ws: Path, inputs: dict[str, Path]) -> _StageResult:
    corpus = load_corpus(inputs[EXTRACTED])
    cve_db = load_cve_db(inputs[CVE_DB])
    links = load_links(inputs[LINKS])
    result = run_completion(corpus, cve_db, links, config)
    save_corpus(result.corpus, ws / COMPLETED)
    save_completion_records(result.records, ws / RECORDS)
    return [COMPLETED, RECORDS], {
        "run_id": result.run_id,
        "records": len(result.records),
        "skipped_links": result.skipped_links,
        "failed_associations": len(result.failed_associations),
    }


def stage_stats(config: PipelineConfig, ws: Path, inputs: dict[str, Path]) -> _StageResult:
    extracted = load_corpus(inputs[EXTRACTED])
    completed = load_corpus(inputs[COMPLETED])
    records = load_completion_records(inputs[RECORDS])
    deficiency = deficiency_stats(extracted)
    if deficiency.empty:
        logger.warning("deficiency table computed over an empty corpus")
    completion = completion_stats(records, completed)
    extension = "md" if config.format == "markdown" else "csv"
    outputs = [f"deficiency.{extension}", f"completion.{extension}"]
    for name, table in zip(outputs, (deficiency, completion)):
        (ws / name).write_text(render_report(table, config.format), encoding="utf-8")
    return outputs, None


# stage name -> (function, workspace files it reads, help text), in run order;
# a missing input is reported in the order listed
_STAGES = {
    "ingest": (stage_ingest, (),
               "load source report files and the CVE dump into the workspace"),
    "classify": (stage_classify, (INGESTED,),
                 "categorize reports as code (with language) or text"),
    "extract": (stage_extract, (CLASSIFIED,),
                "populate aspect slots by rule-based and structured extraction"),
    # link reads no CVE entries; the CVE db is still required and hashed so
    # the manifest ties the links to the ingest run that produced both
    "link": (stage_link, (EXTRACTED, CVE_DB),
             "build the cross-source association graph"),
    "complete": (stage_complete, (EXTRACTED, LINKS, CVE_DB),
                 "fill missing aspects from CVE entries and linked reports"),
    "stats": (stage_stats, (EXTRACTED, COMPLETED, RECORDS),
              "compute deficiency and completion tables"),
}
STAGES = tuple(_STAGES)
# workspace file -> the stage that writes it
_PRODUCERS = {
    INGESTED: "ingest", CVE_DB: "ingest", CLASSIFIED: "classify", EXTRACTED: "extract",
    LINKS: "link", COMPLETED: "complete", RECORDS: "complete",
}


def run_command(command: str, config: PipelineConfig) -> None:
    """Run one stage, or every stage for ``run-all``: check its declared
    inputs, run it, then write its manifest."""
    ws = Path(config.workspace)
    ws.mkdir(parents=True, exist_ok=True)
    (ws / MANIFEST_DIR).mkdir(exist_ok=True)
    with WorkspaceLock(ws):
        for stage in STAGES if command == "run-all" else (command,):
            logger.info("running stage %s", stage)
            run, reads, _help = _STAGES[stage]
            inputs = {name: _require(ws, name) for name in reads}
            outputs, extra = run(config, ws, inputs)
            write_manifest(ws, stage, config, inputs, outputs, extra)


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
    commands = {name: row[2] for name, row in _STAGES.items()}
    commands["run-all"] = "run every stage in order"
    for command, description in commands.items():
        sub = subparsers.add_parser(command, help=description)
        sub.add_argument("--config", help="key=value configuration file")
        sub.add_argument(
            "--source",
            action="append",
            metavar="NAME=PATH",
            help="report source file, repeatable",
        )
        for name in (*_SETTINGS, *_IGNORED):
            sub.add_argument("--" + name.replace("_", "-"))
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
    except (ValueError, KeyError, OSError) as exc:
        return _fail(args.command, EXIT_DATA, str(exc))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
