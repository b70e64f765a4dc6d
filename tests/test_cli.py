import hashlib
import json
import logging
import shutil
from pathlib import Path

import pytest

from pocfusion.cli import (
    ENV_WORKSPACE,
    build_parser,
    config_hash,
    main,
    parse_config_file,
    resolve_config,
    ConfigurationError,
)

PY_POC_A = """#!/usr/bin/env python3
# Exploit Title: AlphaServ 2.0 - Remote Overflow
# Author: alice
import socket
s = socket.socket()
s.connect(("127.0.0.1", 21))
s.send(b"A" * 2000)
print("sent")
"""

PY_POC_B = """#!/usr/bin/env python3
# Exploit Title: AlphaServ 2.1 - Remote Overflow (redo)
import socket
s = socket.socket()
s.connect(("127.0.0.1", 21))
s.send(b"B" * 4000)
print("sent payload")
"""

TEXT_ADVISORY = """AlphaServ FTP advisory

The AlphaServ remote overflow is reachable without credentials. Sending an
overlong USER argument crashes the AlphaServ service and the overflow then
redirects execution.
"""


def write_sources(tmp_path):
    edb = tmp_path / "edb.jsonl"
    rows = [
        {"id": "e1", "source": "ExploitDB", "content": PY_POC_A,
         "cve_ids": ["CVE-2020-1111"]},
        {"id": "e2", "source": "ExploitDB", "content": PY_POC_B,
         "cve_ids": ["CVE-2020-1111"]},
    ]
    edb.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    ps = tmp_path / "ps.jsonl"
    ps.write_text(
        json.dumps({"id": "p1", "source": "PacketStorm", "content": TEXT_ADVISORY}) + "\n",
        encoding="utf-8",
    )
    cve = tmp_path / "cve.jsonl"
    cve.write_text(
        json.dumps(
            {
                "cve_id": "CVE-2020-1111",
                "products": [{"name": "AlphaServ", "versions": ["2.0", "2.1"]}],
                "platforms": ["Windows"],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    return edb, ps, cve


def base_argv(command, tmp_path, ws="ws", fmt=None):
    edb, ps, cve = write_sources(tmp_path)
    argv = [
        command,
        "--workspace", str(tmp_path / ws),
        "--source", f"exploitdb={edb}",
        "--source", f"packetstorm={ps}",
        "--cve", str(cve),
        "--seed", "7",
    ]
    if fmt:
        argv += ["--format", fmt]
    return argv


def last_error(capsys):
    err = capsys.readouterr().err
    return json.loads(err.strip().splitlines()[-1])["error"]


# --- configuration -----------------------------------------------------------------


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n\nworkspace = out\nsource.exploitdb = a.jsonl\nseed=3\n",
        encoding="utf-8",
    )
    assert parse_config_file(cfg) == {
        "workspace": "out",
        "source.exploitdb": "a.jsonl",
        "seed": "3",
    }


def test_parse_config_file_reports_line_number(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workspace = out\nnonsense\n", encoding="utf-8")
    with pytest.raises(ConfigurationError) as err:
        parse_config_file(cfg)
    assert ":2:" in err.value.errors[0]


def resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


def test_config_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workspace = from-file\ncode_threshold = 0.25\n", encoding="utf-8")
    monkeypatch.delenv(ENV_WORKSPACE, raising=False)

    config = resolve(["stats", "--config", str(cfg)])
    assert config.workspace == "from-file"
    assert config.code_threshold == 0.25

    monkeypatch.setenv(ENV_WORKSPACE, "from-env")
    config = resolve(["stats", "--config", str(cfg)])
    assert config.workspace == "from-env"

    config = resolve(["stats", "--config", str(cfg), "--workspace", "from-flag"])
    assert config.workspace == "from-flag"
    # defaults fill whatever nothing set
    assert config.text_threshold == 0.65

    # the service URLs: flag > non-empty environment variable > file
    cfg.write_text(
        "workspace = w\nclassifier_url = http://file/c\nextractor_url = http://file/e\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("POCFUSION_CLASSIFIER_URL", "http://env/c")
    monkeypatch.setenv("POCFUSION_EXTRACTOR_URL", "http://env/e")
    config = resolve(["stats", "--config", str(cfg)])
    assert (config.classifier_url, config.extractor_url) == ("http://env/c", "http://env/e")
    config = resolve(["stats", "--config", str(cfg), "--classifier-url", "http://flag/c"])
    assert (config.classifier_url, config.extractor_url) == ("http://flag/c", "http://env/e")
    monkeypatch.setenv("POCFUSION_EXTRACTOR_URL", "")
    assert resolve(["stats", "--config", str(cfg)]).extractor_url == "http://file/e"


def test_config_errors_are_enumerated(tmp_path, capsys):
    code = main(
        [
            "ingest",
            "--source", "not-name-equals-path",
            "--code-threshold", "abc",
            "--text-threshold", "7",
            "--seed", "-2",
            "--jobs", "0",
        ]
    )
    assert code == 2
    error = last_error(capsys)
    assert error["code"] == 2 and error["command"] == "ingest"
    message = error["message"]
    assert "seed" not in message  # ignored, so never invalid
    for fragment in (
        "--source expects NAME=PATH",
        "code-threshold is not a number",
        "text-threshold must be in [0, 1]",
        "jobs must be >= 1",
        "workspace is required",
        "requires at least one --source",
    ):
        assert fragment in message, fragment


@pytest.mark.parametrize(
    "config_text, argv, fragments",
    [
        pytest.param(
            "workspace = ws\nseed = x\njobs = x\nformat = xml\n",
            ["ingest", "--source", "e=e.jsonl", "--cve", "missing.jsonl"],
            (
                "jobs is not an integer: 'x'",
                "format must be markdown or csv, got 'xml'",
                "cve file not found: missing.jsonl",
            ),
            id="config-file",
        ),
        pytest.param(
            None,
            ["stats", "--workspace", "ws", "--format", "xml"],
            ("format must be markdown or csv, got 'xml'",),
            id="format-flag",
        ),
        pytest.param(
            "workspace =\n",
            ["classify"],
            ("workspace is required",),
            id="config-empty-workspace",
        ),
        pytest.param(
            None,
            ["classify", "--workspace", ""],
            ("workspace is required",),
            id="flag-empty-workspace",
        ),
    ],
)
def test_file_and_format_errors_are_enumerated(
    tmp_path, capsys, monkeypatch, config_text, argv, fragments
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_WORKSPACE, raising=False)
    (tmp_path / "e.jsonl").write_text("", encoding="utf-8")
    if config_text is not None:
        (tmp_path / "run.cfg").write_text(config_text, encoding="utf-8")
        argv = [*argv, "--config", "run.cfg"]
    code = main(argv)
    assert code == 2
    error = last_error(capsys)
    assert error["code"] == 2 and error["command"] == argv[0]
    message = error["message"]
    for fragment in fragments:
        assert fragment in message, fragment
    # a configuration error stops the run before any workspace is touched
    assert not list(tmp_path.rglob("manifests"))


def test_config_file_not_found(tmp_path, capsys):
    assert main(["ingest", "--config", str(tmp_path / "no.cfg")]) == 2
    assert "not found" in last_error(capsys)["message"]


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workspace = ws\nthresold = 0.5\n", encoding="utf-8")
    assert main(["stats", "--config", str(cfg)]) == 2
    assert "unknown config key: thresold" in last_error(capsys)["message"]


def test_repeated_config_key_is_a_configuration_error(tmp_path, capsys):
    edb, _, _ = write_sources(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"workspace = ws\ntext_threshold = 0.5\nsource.exploitdb = {edb}\n"
        f"# a comment\ntext_threshold = 0.7\nsource.exploitdb = {edb}\n",
        encoding="utf-8",
    )
    assert main(["ingest", "--config", str(cfg), "--jobs", "0"]) == 2
    error = last_error(capsys)
    assert error["code"] == 2
    # listed with the other configuration errors
    assert error["message"] == "; ".join(
        [
            f"{cfg}:5: repeated config key text_threshold, first set on line 2",
            f"{cfg}:6: repeated config key source.exploitdb, first set on line 3",
            "jobs must be >= 1, got 0",
        ]
    )
    assert not (tmp_path / "ws").exists()
    with pytest.raises(ConfigurationError) as err:
        parse_config_file(cfg)
    assert len(err.value.errors) == 2


def test_duplicate_and_missing_sources(tmp_path, capsys):
    edb, _, _ = write_sources(tmp_path)
    code = main(
        [
            "ingest",
            "--workspace", str(tmp_path / "ws"),
            "--source", f"exploitdb={edb}",
            "--source", f"ExploitDB={edb}",
            "--source", f"seebug={tmp_path / 'missing.jsonl'}",
        ]
    )
    assert code == 2
    message = last_error(capsys)["message"]
    assert "duplicate source name: ExploitDB" in message
    assert "source file not found" in message


# --- prerequisites and locking ------------------------------------------------------


def test_prerequisite_names_producing_command(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert main(["classify", "--workspace", str(ws)]) == 3
    message = last_error(capsys)["message"]
    assert "run 'pocfusion ingest' first" in message

    assert main(["stats", "--workspace", str(ws)]) == 3
    assert "run 'pocfusion extract' first" in last_error(capsys)["message"]


def test_lock_conflict(tmp_path, capsys):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / ".lock").write_text("locked\n", encoding="utf-8")
    code = main(base_argv("ingest", tmp_path))
    assert code == 3
    assert "locked" in last_error(capsys)["message"]


def test_lock_released_after_success_and_failure(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert main(base_argv("ingest", tmp_path)) == 0
    assert not (ws / ".lock").exists()
    assert main(["extract", "--workspace", str(ws)]) == 3
    assert not (ws / ".lock").exists()


# --- data errors ---------------------------------------------------------------------


def test_empty_ingestion_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n", encoding="utf-8")
    code = main(
        ["ingest", "--workspace", str(tmp_path / "ws"), "--source", f"exploitdb={bad}"]
    )
    assert code == 4
    assert "no reports survived ingestion" in last_error(capsys)["message"]


def test_partial_ingestion_succeeds(tmp_path):
    mixed = tmp_path / "mixed.jsonl"
    good = {"id": "ok", "source": "ExploitDB", "content": "hello"}
    # U+2028 is written raw and must not split its line
    raw = {"id": "raw", "source": "ExploitDB", "content": "a\u2028b"}
    mixed.write_text(
        "not json\n" + json.dumps(good) + "\n" + json.dumps(raw, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--source", f"exploitdb={mixed}"]) == 0
    manifest = json.loads((ws / "manifests" / "ingest.json").read_text())
    assert manifest["reports"] == 2
    assert main(["classify", "--workspace", str(ws)]) == 0


def test_non_object_corpus_line_is_a_data_error(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert main(base_argv("ingest", tmp_path)) == 0
    corpus = ws / "corpus_ingested.jsonl"
    lines = corpus.read_text(encoding="utf-8").count("\n")
    with corpus.open("a", encoding="utf-8") as handle:
        handle.write("[1]\n")
    assert main(["classify", "--workspace", str(ws)]) == 4
    assert f"corpus_ingested.jsonl:{lines + 1}:" in last_error(capsys)["message"]


@pytest.fixture(scope="module")
def full_workspace(tmp_path_factory):
    """A workspace after run-all; tests that damage it work on a copy."""
    tmp = tmp_path_factory.mktemp("full")
    assert main(base_argv("run-all", tmp)) == 0
    return tmp / "ws"


def cut_in_half(line):
    return line[: len(line) // 2]


def set_field(field, value):
    return lambda line: json.dumps({**json.loads(line), field: value})


def set_aspect(slot, texts):
    def damage(line):
        record = json.loads(line)
        values = [{"text": t, "provenance": {"kind": "original"}} for t in texts]
        return json.dumps({**record, "aspects": {**record["aspects"], slot: values}})
    return damage


# every JSON-lines file each stage reads (link hashes cve_db.jsonl but does not read it)
STAGE_INPUTS = [
    ("classify", "corpus_ingested.jsonl"),
    ("extract", "corpus_classified.jsonl"),
    ("link", "corpus_extracted.jsonl"),
    ("complete", "corpus_extracted.jsonl"),
    ("complete", "links.jsonl"),
    ("complete", "cve_db.jsonl"),
    ("stats", "corpus_extracted.jsonl"),
    ("stats", "corpus_completed.jsonl"),
    ("stats", "completion_records.jsonl"),
]


@pytest.mark.parametrize(
    "stage, name, damage",
    [
        *(pytest.param(stage, name, cut_in_half, id=f"{stage}-{name}-cut")
          for stage, name in STAGE_INPUTS),
        pytest.param("link", "corpus_extracted.jsonl", set_field("aspects", []),
                     id="link-aspects-list"),
        pytest.param("complete", "links.jsonl", set_field("similarity", "x"),
                     id="complete-similarity-string"),
        pytest.param("stats", "completion_records.jsonl", set_field("origin", []),
                     id="stats-origin-list"),
        pytest.param("complete", "cve_db.jsonl", set_field("platforms", "Linux"),
                     id="complete-platforms-string"),
        pytest.param("link", "corpus_extracted.jsonl", set_aspect("bogus", ["x"]),
                     id="link-unknown-slot"),
        pytest.param("stats", "completion_records.jsonl", set_field("origin", {"kind": "bogus"}),
                     id="stats-unknown-origin-kind"),
        pytest.param("link", "corpus_extracted.jsonl", set_aspect("title", ["Foo", " foo"]),
                     id="link-duplicate-values"),
    ],
)
def test_broken_last_line_is_a_data_error(full_workspace, tmp_path, capsys, stage, name, damage):
    ws = tmp_path / "ws"
    shutil.copytree(full_workspace, ws)
    path = ws / name
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    lines[-1] = damage(lines[-1])
    path.write_text("\n".join(lines), encoding="utf-8")
    assert main([stage, "--workspace", str(ws)]) == 4
    assert f"{name}:{len(lines)}:" in last_error(capsys)["message"]


@pytest.mark.parametrize(
    "stage, name, marker",
    [
        ("link", "corpus_extracted.jsonl", b'"content": "'),
        ("complete", "cve_db.jsonl", b'"name": "'),
    ],
)
def test_invalid_utf8_is_a_data_error(full_workspace, tmp_path, capsys, stage, name, marker):
    ws = tmp_path / "ws"
    shutil.copytree(full_workspace, ws)
    path = ws / name
    data = path.read_bytes()
    at = data.index(marker) + len(marker)
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    assert main([stage, "--workspace", str(ws)]) == 4
    line = data[:at].count(b"\n") + 1
    assert f"{name}:{line}: not valid UTF-8" in last_error(capsys)["message"]


# the stage that writes each workspace file, written out by hand
PRODUCERS = {
    "corpus_ingested.jsonl": "ingest",
    "cve_db.jsonl": "ingest",
    "corpus_classified.jsonl": "classify",
    "corpus_extracted.jsonl": "extract",
    "links.jsonl": "link",
    "corpus_completed.jsonl": "complete",
    "completion_records.jsonl": "complete",
}


@pytest.mark.parametrize(
    "stage, name",
    [pytest.param(stage, name, id=f"{stage}-{name}")
     for stage, name in [*STAGE_INPUTS, ("link", "cve_db.jsonl")]],
)
def test_each_missing_input_names_its_producer(full_workspace, tmp_path, capsys, stage, name):
    ws = tmp_path / "ws"
    shutil.copytree(full_workspace, ws)
    (ws / name).unlink()
    assert main([stage, "--workspace", str(ws)]) == 3
    assert last_error(capsys)["message"] == (
        f"workspace is missing {name}; run 'pocfusion {PRODUCERS[name]}' first"
    )
    assert not (ws / ".lock").exists()


# --- pipeline stages ------------------------------------------------------------------


def run_stage(command, tmp_path, **kwargs):
    assert main(base_argv(command, tmp_path, **kwargs)) == 0


def test_staged_pipeline(tmp_path):
    ws = tmp_path / "ws"
    for command in ("ingest", "classify", "extract", "link", "complete", "stats"):
        run_stage(command, tmp_path)
    produced = {p.name for p in ws.iterdir()}
    assert {
        "corpus_ingested.jsonl",
        "cve_db.jsonl",
        "corpus_classified.jsonl",
        "corpus_extracted.jsonl",
        "links.jsonl",
        "corpus_completed.jsonl",
        "completion_records.jsonl",
        "deficiency.md",
        "completion.md",
        "manifests",
    } <= produced
    assert {p.name for p in (ws / "manifests").iterdir()} == {
        "ingest.json", "classify.json", "extract.json",
        "link.json", "complete.json", "stats.json",
    }
    # the two code reports share a CVE and nearly identical payloads
    links = (ws / "links.jsonl").read_text(encoding="utf-8").splitlines()
    assert any('"e1"' in line and '"e2"' in line for line in links)
    records = (ws / "completion_records.jsonl").read_text(encoding="utf-8")
    assert '"author"' in records and '"alice"' in records
    assert (ws / "deficiency.md").read_text(encoding="utf-8").startswith("| source |")


def test_run_all_matches_staged_runs(tmp_path):
    run_stage("run-all", tmp_path, ws="all-at-once")
    for command in ("ingest", "classify", "extract", "link", "complete", "stats"):
        run_stage(command, tmp_path, ws="staged")
    ws_a, ws_b = tmp_path / "all-at-once", tmp_path / "staged"
    files_a = sorted(p.name for p in ws_a.iterdir() if p.is_file())
    assert files_a == sorted(p.name for p in ws_b.iterdir() if p.is_file())
    for name in files_a:
        assert (ws_a / name).read_bytes() == (ws_b / name).read_bytes(), name
    for name in ("ingest.json", "stats.json"):
        assert (ws_a / "manifests" / name).read_bytes() == (
            ws_b / "manifests" / name
        ).read_bytes()


def test_rerun_is_byte_identical(tmp_path):
    ws = tmp_path / "ws"
    run_stage("run-all", tmp_path)
    snapshot = {
        path.relative_to(ws): path.read_bytes()
        for path in ws.rglob("*") if path.is_file()
    }
    run_stage("run-all", tmp_path)
    for path in ws.rglob("*"):
        if path.is_file():
            assert snapshot[path.relative_to(ws)] == path.read_bytes(), path


# (inputs, outputs) each stage's manifest hashes, written out by hand
MANIFEST_FILES = {
    "ingest": ({"cve", "source:exploitdb", "source:packetstorm"},
               {"corpus_ingested.jsonl", "cve_db.jsonl"}),
    "classify": ({"corpus_ingested.jsonl"}, {"corpus_classified.jsonl"}),
    "extract": ({"corpus_classified.jsonl"}, {"corpus_extracted.jsonl"}),
    "link": ({"corpus_extracted.jsonl", "cve_db.jsonl"}, {"links.jsonl"}),
    "complete": ({"corpus_extracted.jsonl", "links.jsonl", "cve_db.jsonl"},
                 {"corpus_completed.jsonl", "completion_records.jsonl"}),
    "stats": ({"corpus_extracted.jsonl", "corpus_completed.jsonl", "completion_records.jsonl"},
              {"deficiency.md", "completion.md"}),
}


def test_manifest_contents(tmp_path):
    ws = tmp_path / "ws"
    run_stage("run-all", tmp_path)
    manifest = json.loads((ws / "manifests" / "ingest.json").read_text())
    assert manifest["stage"] == "ingest"
    assert "seed" not in manifest
    assert manifest["reports"] == 3 and manifest["cve_entries"] == 1
    for stage, (inputs, outputs) in MANIFEST_FILES.items():
        manifest = json.loads((ws / "manifests" / f"{stage}.json").read_text())
        assert manifest["stage"] == stage
        assert set(manifest["inputs"]) == inputs, stage
        assert set(manifest["outputs"]) == outputs, stage
        hashed = {**manifest["outputs"], **{
            name: digest for name, digest in manifest["inputs"].items() if name in PRODUCERS
        }}
        for name, digest in hashed.items():
            assert digest == hashlib.sha256((ws / name).read_bytes()).hexdigest(), name
        assert not any("time" in key or "date" in key for key in manifest)

    run_stage("stats", tmp_path, fmt="csv")
    manifest = json.loads((ws / "manifests" / "stats.json").read_text())
    assert set(manifest["inputs"]) == MANIFEST_FILES["stats"][0]
    assert set(manifest["outputs"]) == {"deficiency.csv", "completion.csv"}


def test_config_hash_excludes_workspace(tmp_path):
    argv_a = base_argv("ingest", tmp_path, ws="ws-one")
    argv_b = [x if x != str(tmp_path / "ws-one") else str(tmp_path / "ws-two") for x in argv_a]
    assert main(argv_a) == 0 and main(argv_b) == 0
    manifest_a = (tmp_path / "ws-one" / "manifests" / "ingest.json").read_bytes()
    manifest_b = (tmp_path / "ws-two" / "manifests" / "ingest.json").read_bytes()
    assert manifest_a == manifest_b

    config_a = resolve(argv_a)
    assert config_hash(config_a) == json.loads(manifest_a)["config_hash"]

    # pinned so a change to how settings are declared cannot move the hash
    assert config_hash(resolve(["stats", "--workspace", "w"])) == (
        "b66af31e15fa9bcb06cb47ae52b2a8ecfb1e4b54207677e61d5037d6f1f13148"
    )
    argv = [
        "stats", "--workspace", "w", "--cve", "c.jsonl", "--seed", "3",
        "--code-threshold", "0.25", "--classifier-url", "http://h/c",
        "--source", "exploitdb=e.jsonl", "--jobs", "2", "--format", "csv",
    ]
    assert config_hash(resolve(argv)) == (
        "1fd73be5b63b868d414eb7ed7730cd610cdcb7c3cfb049fd8ebf064a8c2206d5"
    )
    # seed is ignored, so it does not move the hash
    without_seed = [x for x in argv if x not in ("--seed", "3")]
    assert config_hash(resolve(without_seed)) == config_hash(resolve(argv))


def test_seed_is_accepted_and_ignored(tmp_path, caplog):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workspace = w\nseed = x\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        config = resolve(["stats", "--config", str(cfg)])
    assert not hasattr(config, "seed")
    assert caplog.messages == ["seed has no effect and is ignored"]
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        resolve(["stats", "--workspace", "w", "--seed", "-2"])
    assert caplog.messages == ["seed has no effect and is ignored"]


def test_env_workspace(tmp_path, monkeypatch):
    edb, _, _ = write_sources(tmp_path)
    monkeypatch.setenv(ENV_WORKSPACE, str(tmp_path / "env-ws"))
    assert main(["ingest", "--source", f"exploitdb={edb}"]) == 0
    assert (tmp_path / "env-ws" / "corpus_ingested.jsonl").is_file()


def test_csv_format(tmp_path):
    ws = tmp_path / "ws"
    for command in ("ingest", "classify", "extract", "link", "complete"):
        run_stage(command, tmp_path)
    run_stage("stats", tmp_path, fmt="csv")
    assert (ws / "deficiency.csv").read_text(encoding="utf-8").startswith(
        "source,aspect,present,total,presence_rate"
    )
    assert (ws / "completion.csv").is_file()


def test_unreachable_extractor_degrades_but_succeeds(tmp_path):
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    ws = tmp_path / "ws"
    run_stage("ingest", tmp_path)
    run_stage("classify", tmp_path)
    argv = base_argv("extract", tmp_path) + [
        "--extractor-url", f"http://127.0.0.1:{port}/",
    ]
    assert main(argv) == 0
    manifest = json.loads((ws / "manifests" / "extract.json").read_text())
    assert manifest["degraded"] == {"extractor": 3}


def test_unreachable_classifier_degrades_to_the_same_links(tmp_path, monkeypatch):
    import socket

    from pocfusion import link as link_module

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    calls = []
    classify_pair = link_module.classify_pair

    def counted(*args, **kwargs):
        calls.append(args[1].id)
        return classify_pair(*args, **kwargs)

    monkeypatch.setattr(link_module, "classify_pair", counted)
    argv = ["run-all", "--config", "demo/config.cfg", "--workspace"]
    assert main([*argv, str(tmp_path / "plain")]) == 0
    candidates = len(calls)
    assert candidates == 1  # on the demo corpus
    url = f"http://127.0.0.1:{port}/"
    assert main([*argv, str(tmp_path / "down"), "--classifier-url", url]) == 0
    manifest = json.loads((tmp_path / "down" / "manifests" / "link.json").read_text())
    assert manifest["degraded"] == {"classifier": candidates}
    # the fallback heuristic scores every candidate from the block indexed for it
    links = [(tmp_path / ws / "links.jsonl").read_bytes() for ws in ("plain", "down")]
    assert links[0] == links[1]
