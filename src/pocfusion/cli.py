"""Pipeline driver: staged commands over a persistent workspace.

Each stage reads the previous stage's persisted corpus, writes its own
artifacts plus a manifest of input/output content hashes, and never embeds
timestamps or machine state, so reruns with unchanged inputs are
byte-identical. Within one ``run-all`` a stage is handed the objects earlier
stages wrote, so nothing written in the run is decoded again.
"""

from __future__ import annotations

import argparse
import codecs
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from .classify import categorize
from .complete import run_completion, save_completion_records
from .corpus import (
    Corpus,
    CorpusError,
    Skipped,
    ingest_cve_entries,
    ingest_reports,
    json_object,
    load_corpus,
    load_cve_db,
    save_corpus,
    save_cve_db,
    source_name,
    write_atomic,
)
from .extract import DefaultStructuredExtractor, ExternalStructuredExtractor, extract_all
from .link import (
    CompletionConfig,
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
class PipelineConfig(CompletionConfig):
    """A run's settings; as a :class:`CompletionConfig` it holds the link
    thresholds the link and complete stages read."""

    sources: tuple[tuple[str, str], ...] = ()
    cve: str | None = None
    workspace: str | None = None
    extractor_url: str | None = None
    classifier_url: str | None = None
    jobs: int = 8
    format: str = "markdown"


def parse_config_file(path: Path) -> dict[str, str]:
    """Read the key=value configuration format. ``#`` starts a comment;
    ``source.<name> = <path>`` declares a report source. A malformed line,
    a key set twice or a byte that is not UTF-8 is a configuration error
    naming its lines. The pipeline does not call it; ``bench/tests`` does."""
    values, errors = _read_config_file(path)
    if errors:
        raise ConfigurationError(errors)
    return values


def _read_config_file(path: Path) -> tuple[dict[str, str], list[str]]:
    """The values of a config file, and its malformed lines and repeated keys.
    A leading byte-order mark is dropped; a file that is not UTF-8 raises
    :class:`ConfigurationError`."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}  # key -> line that first set it
    errors: list[str] = []
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ConfigurationError([f"{path}:{lineno}: not valid UTF-8: {exc.reason}"]) from exc
    # lines end at "\n" only, as the not-UTF-8 error above counts them; any
    # other break str.splitlines knows, inside a line, makes it malformed
    for lineno, raw in enumerate(text.split("\n"), 1):
        raw = raw.removesuffix("\r")
        line = raw.strip()
        if len(line.splitlines()) > 1:
            errors.append(f"{path}:{lineno}: line break inside a line: {raw!r}")
            continue
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

    # a config file's source.NAME = PATH is checked as --source NAME=PATH is;
    # a flag replaces the file's source of the same platform, in its place
    needs_sources = args.command in ("ingest", "run-all")
    file_sources = [
        f"{key.split('.', 1)[1]}={value}"
        for key, value in file_values.items()
        if key.startswith("source.")
    ]
    by_platform: dict[str, tuple[str, str]] = {}
    for origin, items in (
        ("config key source.NAME", file_sources),
        ("--source", args.source or []),
    ):
        declared: dict[str, tuple[str, str]] = {}
        for item in items:
            name, sep, path = item.partition("=")
            if not sep or not name.strip() or not path.strip():
                errors.append(f"{origin} expects NAME=PATH, got {item!r}")
                continue
            if "".join(item.splitlines()) != item:  # a config file's lines hold none
                errors.append(f"{origin} holds a line break: {item!r}")
            platform = source_name(name).lower()
            if needs_sources and platform in declared:
                errors.append(f"duplicate source name: {name.strip()}")
            declared.setdefault(platform, (name.strip(), path.strip()))
        by_platform.update(declared)
    sources = list(by_platform.values())

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

    if needs_sources and not (file_sources or args.source):
        errors.append(f"{args.command} requires at least one --source NAME=PATH")
    if needs_sources:
        for _name, path in sources:
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
    digests: dict[str, str] | None = None,
) -> dict[str, str]:
    """Write a stage's manifest and return the SHA-256 of each output, by
    name. An input whose digest ``digests`` holds is not hashed again."""
    digests = digests or {}
    written = {name: _sha256_file(ws / name) for name in sorted(outputs)}
    manifest = {
        "stage": stage,
        "config_hash": config_hash(config),
        "inputs": {
            name: digests.get(name) or _sha256_file(path) for name, path in sorted(inputs.items())
        },
        "outputs": written,
    }
    if extra:
        manifest.update(extra)
    write_atomic(
        ws / MANIFEST_DIR / f"{stage}.json", [json.dumps(manifest, indent=2, sort_keys=True) + "\n"]
    )
    return written


def _manifest_digests(ws: Path, stage: str) -> tuple[Path, dict, dict]:
    """A stage's manifest path and its ``inputs`` and ``outputs`` digests."""
    manifest = ws / MANIFEST_DIR / f"{stage}.json"
    if not manifest.is_file():
        raise PrerequisiteError(
            f"workspace is missing {MANIFEST_DIR}/{stage}.json; run 'pocfusion {stage}' again"
        )
    try:
        listed = json_object(manifest.read_text(encoding="utf-8"))
        inputs, outputs = listed.get("inputs"), listed.get("outputs")
        if not isinstance(inputs, dict) or not isinstance(outputs, dict):
            raise ValueError("inputs and outputs must be objects")
    except ValueError as exc:
        raise CorpusError(f"{manifest}: unreadable manifest: {exc}") from exc
    return manifest, inputs, outputs


def _verified_digest(ws: Path, filename: str) -> str:
    """The SHA-256 of a workspace file, which must exist and be the digest
    its writer's manifest lists for it: a file cut or changed since its
    stage ran is refused. Back to ingest, each workspace file a stage in the
    chain declares as an input must be, by its manifest, the one its
    writer's manifest lists now: a stage that ran on an earlier input is
    named to run again."""
    writer = _FILES[filename][0]
    if not (ws / filename).is_file():
        raise PrerequisiteError(f"workspace is missing {filename}; run 'pocfusion {writer}' first")
    manifest, inputs, outputs = _manifest_digests(ws, writer)
    digest = _sha256_file(ws / filename)
    if outputs.get(filename) != digest:
        raise CorpusError(
            f"{ws / filename} does not match its digest in {manifest}; "
            f"run 'pocfusion {writer}' again"
        )
    chain = [(writer, inputs)]
    while chain:
        stage, inputs = chain.pop()
        for name in _STAGES[stage][1]:
            upstream = _FILES[name][0]
            _, upstream_inputs, outputs = _manifest_digests(ws, upstream)
            if outputs.get(name) != inputs.get(name):
                raise PrerequisiteError(
                    f"'{stage}' ran on an earlier {name}; run 'pocfusion {stage}' again"
                )
            chain.append((upstream, upstream_inputs))
    return digest


class WorkspaceLock:
    """Single-writer guard: a lock file created exclusively, holding the
    run's pid, removed on exit."""

    def __init__(self, ws: Path):
        self.path = ws / LOCK_FILE

    def __enter__(self) -> "WorkspaceLock":
        try:
            with self.path.open("x", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
        except FileExistsError:
            pid = self._dead_holder()
            held = (
                "workspace is locked by another run" if pid is None
                else f"workspace lock belongs to pid {pid}, which is not running"
            )
            raise PrerequisiteError(f"{held}; remove {self.path} if stale") from None
        return self

    def _dead_holder(self) -> int | None:
        """The positive pid the lock holds when no process has it, on POSIX
        only: 0 and negative pids address process groups, and on Windows
        ``os.kill`` ends the process. Otherwise None."""
        if os.name != "posix":
            return None
        try:
            text = self.path.read_text(encoding="ascii").strip()
        except (OSError, UnicodeDecodeError):
            return None
        if not (text.isdigit() and int(text) > 0):
            return None
        try:
            os.kill(int(text), 0)
        except ProcessLookupError:
            return int(text)
        except (OSError, OverflowError):  # another user's process, or no pid_t
            pass
        return None

    def __exit__(self, *exc_info) -> None:
        self.path.unlink(missing_ok=True)


# --- stages ---------------------------------------------------------------------
#
# A stage gets the config, the workspace and its declared workspace files,
# decoded (name -> object). It writes its outputs and returns them (name ->
# the object written) with the extra manifest counters.
_StageResult = tuple[dict[str, object], dict | None]


def _source_files(config: PipelineConfig) -> dict[str, Path]:
    """The files outside the workspace that ingest reads, by manifest name."""
    files = {f"source:{name}": Path(path) for name, path in config.sources}
    if config.cve:
        files["cve"] = Path(config.cve)
    return files


def stage_ingest(config: PipelineConfig, ws: Path, inputs: dict) -> _StageResult:
    skipped, seen_ids = Skipped(), set()
    corpus = Corpus(
        report
        for name, path in config.sources
        for report in ingest_reports(path, name, skipped, seen_ids)
    )
    if len(corpus) == 0:
        raise CorpusError("no reports survived ingestion")
    # every input is read before an output is written: a dump that cannot
    # be read leaves no corpus without its CVE database and manifest
    entries = ingest_cve_entries(config.cve, skipped) if config.cve else {}
    save_corpus(corpus, ws / INGESTED)
    save_cve_db(entries, ws / CVE_DB)
    return {INGESTED: corpus, CVE_DB: entries}, {
        "reports": len(corpus), "cve_entries": len(entries), "skipped": asdict(skipped),
    }


def stage_classify(config: PipelineConfig, ws: Path, inputs: dict) -> _StageResult:
    corpus = Corpus(categorize(report) for report in inputs[INGESTED])
    save_corpus(corpus, ws / CLASSIFIED)
    return {CLASSIFIED: corpus}, None


def stage_extract(config: PipelineConfig, ws: Path, inputs: dict) -> _StageResult:
    corpus = inputs[CLASSIFIED]
    degraded = 0
    default = DefaultStructuredExtractor()
    if config.extractor_url:
        from concurrent.futures import ThreadPoolExecutor

        extractor = ExternalStructuredExtractor(config.extractor_url, default)
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            reports = list(pool.map(lambda r: extract_all(r, extractor=extractor), corpus))
        degraded = len(extractor.degraded)
    else:
        reports = [extract_all(report, extractor=default) for report in corpus]
    extracted = Corpus(reports)
    save_corpus(extracted, ws / EXTRACTED)
    return {EXTRACTED: extracted}, {"degraded": {"extractor": degraded}}


def stage_link(config: PipelineConfig, ws: Path, inputs: dict) -> _StageResult:
    models = ScoringModels()
    heuristic = HeuristicPairClassifier(models)
    external = (
        ExternalPairClassifier(config.classifier_url, heuristic)
        if config.classifier_url
        else None
    )
    links = build_link_graph(inputs[EXTRACTED], models, external or heuristic, config)
    degraded = len(external.degraded) if external else 0
    save_links(links, ws / LINKS)
    return {LINKS: links}, {"links": len(links), "degraded": {"classifier": degraded}}


def stage_complete(config: PipelineConfig, ws: Path, inputs: dict) -> _StageResult:
    result = run_completion(inputs[EXTRACTED], inputs[CVE_DB], inputs[LINKS], config)
    save_corpus(result.corpus, ws / COMPLETED)
    save_completion_records(result.records, ws / RECORDS)
    return {COMPLETED: result.corpus, RECORDS: result.records}, {
        "records": len(result.records),
        "skipped_links": result.skipped_links,
        "failed_associations": len(result.failed_associations),
    }


def stage_stats(config: PipelineConfig, ws: Path, inputs: dict) -> _StageResult:
    completed = inputs[COMPLETED]
    extension = "md" if config.format == "markdown" else "csv"
    written = {
        f"deficiency.{extension}": render_report(deficiency_stats(completed), config.format),
        f"completion.{extension}": render_report(completion_stats(completed), config.format),
    }
    for name, text in written.items():
        write_atomic(ws / name, [text])
    return written, None


# stage name -> (function, workspace files it reads, help text), in run order;
# inputs are checked, then decoded, in the order listed
_STAGES = {
    "ingest": (stage_ingest, (),
               "load source report files and the CVE dump into the workspace"),
    "classify": (stage_classify, (INGESTED,),
                 "categorize reports as code (with language) or text"),
    "extract": (stage_extract, (CLASSIFIED,),
                "populate aspect slots by rule-based and structured extraction"),
    "link": (stage_link, (EXTRACTED,),
             "build the cross-source association graph"),
    "complete": (stage_complete, (EXTRACTED, LINKS, CVE_DB),
                 "fill missing aspects from CVE entries and linked reports"),
    "stats": (stage_stats, (COMPLETED,),
              "compute deficiency and completion tables"),
}
STAGES = tuple(_STAGES)
# workspace file a stage reads -> (the stage that writes it, its loader). A
# loader looks its function up in this module when it is called, so that a
# wrapper installed on the module attribute sees every load.
_FILES: dict[str, tuple[str, Callable[[Path], object]]] = {
    INGESTED: ("ingest", lambda path: load_corpus(path)),
    CVE_DB: ("ingest", lambda path: load_cve_db(path)),
    CLASSIFIED: ("classify", lambda path: load_corpus(path)),
    EXTRACTED: ("extract", lambda path: load_corpus(path)),
    LINKS: ("link", lambda path: load_links(path)),
    COMPLETED: ("complete", lambda path: load_corpus(path)),
}


def run_command(command: str, config: PipelineConfig) -> None:
    """Run one stage, or every stage for ``run-all``: check its declared
    inputs, run it, then write its manifest.

    A stage gets its inputs decoded. An input that an earlier stage of this
    command wrote is handed over as the object that stage saved, and is
    dropped after its last reader. Any other input is first checked against
    the digest its writer's manifest lists, and that writer's inputs against
    their writers' manifests, back to ingest; only then is it loaded. Only
    a command that starts with ingest creates the workspace."""
    ws = Path(config.workspace)
    stages = STAGES if command == "run-all" else (command,)
    if stages[0] == "ingest":
        (ws / MANIFEST_DIR).mkdir(parents=True, exist_ok=True)
    elif not ws.exists():
        # refused as a missing first input, naming the stage that writes it
        _verified_digest(ws, _STAGES[stages[0]][1][0])
    kept: dict[str, object] = {}  # written by this command, read by a later stage
    digests: dict[str, str] = {}  # workspace file -> SHA-256, as its manifest lists it
    with WorkspaceLock(ws):
        for at, stage in enumerate(stages):
            logger.info("running stage %s", stage)
            run, reads, _help = _STAGES[stage]
            for name in reads:
                if name not in kept:
                    digests[name] = _verified_digest(ws, name)
            paths = {name: ws / name for name in reads}
            inputs = {
                name: kept[name] if name in kept else _FILES[name][1](path)
                for name, path in paths.items()
            }
            written, extra = run(config, ws, inputs)
            if stage == "ingest":
                paths.update(_source_files(config))
            digests.update(write_manifest(ws, stage, config, paths, list(written), extra, digests))
            later = {name for after in stages[at + 1:] for name in _STAGES[after][1]}
            kept = {name: value for name, value in {**kept, **written}.items() if name in later}


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
