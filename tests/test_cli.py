import ast
import codecs
import hashlib
import json
import logging
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pocfusion.corpus as corpus_module
from pocfusion import cli
from pocfusion.cli import (
    ENV_WORKSPACE,
    build_parser,
    config_hash,
    main,
    parse_config_file,
    resolve_config,
    ConfigurationError,
)
from pocfusion.corpus import (
    MAX_JSON_DEPTH, FromCve, ingest_cve_entries, ingest_reports, load_corpus,
)
from pocfusion.extract import NER_SLOTS, StructuredExtraction
from pocfusion.link import load_links, software_names

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


def test_config_lines_end_at_newline_only(tmp_path):
    # a U+2028 or a lone "\r" does not end line 1: the line is malformed,
    # and the line after it is line 2, as the not-UTF-8 error and
    # read_jsonl count lines
    cfg = tmp_path / "run.cfg"

    def errors(data):
        cfg.write_bytes(data.encode("utf-8"))
        with pytest.raises(ConfigurationError) as err:
            parse_config_file(cfg)
        return err.value.errors

    def broken(lineno, line):
        return f"{cfg}:{lineno}: line break inside a line: {line!r}"

    assert errors("workspace = ws\u2028x\nnonsense\n") == [
        broken(1, "workspace = ws\u2028x"),
        f"{cfg}:2: expected key = value, got 'nonsense'",
    ]
    assert errors("workspace = out\rseed = 3\r") == [broken(1, "workspace = out\rseed = 3")]
    assert errors("# a comment\rworkspace = out\n") == [broken(1, "# a comment\rworkspace = out")]
    # a break at the end of a line is whitespace around its value
    cfg.write_text("workspace = ws\u2028\n", encoding="utf-8")
    assert parse_config_file(cfg) == {"workspace": "ws"}
    # a CRLF file parses as an LF file, malformed lines named the same way
    lf = "# comment\n\nworkspace = out\nsource.exploitdb = a.jsonl\nseed=3\n"
    cfg.write_bytes(lf.replace("\n", "\r\n").encode("utf-8"))
    assert parse_config_file(cfg) == {
        "workspace": "out",
        "source.exploitdb": "a.jsonl",
        "seed": "3",
    }
    cfg.write_bytes(b"workspace = out\r\nnonsense\r\n")
    with pytest.raises(ConfigurationError) as err:
        parse_config_file(cfg)
    assert err.value.errors == [f"{cfg}:2: expected key = value, got 'nonsense'"]


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
    ):
        assert fragment in message, fragment
    # the malformed source item counts as given
    assert "requires at least one --source" not in message


def test_a_malformed_source_item_is_the_one_source_error(tmp_path, capsys):
    ws = str(tmp_path / "ws")
    assert main(["ingest", "--workspace", ws, "--source", "bad"]) == 2
    assert last_error(capsys)["message"] == "--source expects NAME=PATH, got 'bad'"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("source.exploitdb =\n", encoding="utf-8")
    assert main(["run-all", "--workspace", ws, "--config", str(cfg)]) == 2
    assert last_error(capsys)["message"] == (
        "config key source.NAME expects NAME=PATH, got 'exploitdb='"
    )
    # with no item at all, the missing source is the error
    assert main(["ingest", "--workspace", ws]) == 2
    assert last_error(capsys)["message"] == "ingest requires at least one --source NAME=PATH"
    assert not (tmp_path / "ws").exists()


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


def test_config_file_that_is_not_utf8_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"workspace = ws\n# caf\xff\n")
    assert main(["classify", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    errors = [json.loads(line)["error"] for line in lines if line.startswith("{")]
    assert len(errors) == 1
    assert errors[0]["code"] == 2 and errors[0]["command"] == "classify"
    assert errors[0]["message"].startswith(f"{cfg}:2: not valid UTF-8")
    with pytest.raises(ConfigurationError) as err:
        parse_config_file(cfg)
    assert err.value.errors == [errors[0]["message"]]


@pytest.mark.parametrize(
    "text",
    ["# comment\nworkspace = {ws}\nsource.exploitdb = {edb}\n",
     "source.exploitdb = {edb}\nworkspace = {ws}\n"],
)
def test_config_file_drops_a_leading_byte_order_mark(tmp_path, text):
    edb, _, _ = write_sources(tmp_path)
    ws = tmp_path / "ws"
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(codecs.BOM_UTF8 + text.format(ws=ws, edb=edb).encode("utf-8"))
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert (ws / "corpus_ingested.jsonl").exists()
    # a bad byte is still counted from the first byte
    cfg.write_bytes(codecs.BOM_UTF8 + b"workspace = ws\n# caf\xff\n")
    with pytest.raises(ConfigurationError) as err:
        parse_config_file(cfg)
    assert err.value.errors[0].startswith(f"{cfg}:2: not valid UTF-8")


@pytest.mark.parametrize("line", ["source. = {edb}", "source.  = {edb}", "source.exploitdb ="])
def test_blank_source_in_config_file_is_a_configuration_error(tmp_path, capsys, line):
    edb, _, _ = write_sources(tmp_path)
    ws = tmp_path / "ws"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"workspace = {ws}\n{line.format(edb=edb)}\n", encoding="utf-8")
    assert main(["ingest", "--config", str(cfg)]) == 2
    error = last_error(capsys)
    assert error["code"] == 2
    assert "config key source.NAME expects NAME=PATH" in error["message"]
    assert not ws.exists()


@pytest.mark.parametrize("item", ["my\nsrc={edb}", "exploit\rdb={edb}", "exploitdb={edb}\u2028"])
def test_line_break_in_source_flag_is_a_configuration_error(tmp_path, capsys, item):
    # a source name is written into each report and table row as it is given
    edb, _, _ = write_sources(tmp_path)
    ws = tmp_path / "ws"
    item = item.format(edb=edb)
    assert main(["ingest", "--workspace", str(ws), "--source", item]) == 2
    assert last_error(capsys)["message"] == f"--source holds a line break: {item!r}"
    assert not ws.exists()


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
    # two aliases of one platform are one source declared twice
    code = main(
        [
            "ingest",
            "--workspace", str(tmp_path / "ws"),
            "--source", f"exploitdb={edb}",
            "--source", f"exploit-db={edb}",
        ]
    )
    assert code == 2
    assert last_error(capsys)["message"] == "duplicate source name: exploit-db"


def test_source_flag_replaces_config_file_source_of_its_platform(tmp_path, capsys):
    edb, ps, _ = write_sources(tmp_path)
    other = tmp_path / "other.jsonl"
    other.write_text(edb.read_text(encoding="utf-8"), encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"workspace = ws\nsource.exploitdb = {edb}\nsource.packetstorm = {ps}\n",
        encoding="utf-8",
    )
    # flags beat the file: the file's entry is replaced in its place
    config = resolve(["ingest", "--config", str(cfg), "--source", f"exploit-db={other}"])
    assert config.sources == (("exploit-db", str(other)), ("packetstorm", str(ps)))
    config = resolve(["ingest", "--config", str(cfg), "--source", f"seebug={other}"])
    assert config.sources == (
        ("exploitdb", str(edb)), ("packetstorm", str(ps)), ("seebug", str(other))
    )
    # the overridden path is never opened
    cfg.write_text(
        f"workspace = ws\nsource.exploitdb = {tmp_path / 'missing.jsonl'}\n", encoding="utf-8"
    )
    config = resolve(["ingest", "--config", str(cfg), "--source", f"exploitdb={edb}"])
    assert config.sources == (("exploitdb", str(edb)),)
    # a platform declared twice among the flags, or twice in the file, is still an error
    code = main(
        [
            "ingest", "--config", str(cfg),
            "--source", f"exploitdb={edb}", "--source", f"ExploitDB={other}",
        ]
    )
    assert code == 2
    assert last_error(capsys)["message"] == "duplicate source name: ExploitDB"
    cfg.write_text(
        f"workspace = ws\nsource.exploitdb = {edb}\nsource.exploit-db = {other}\n",
        encoding="utf-8",
    )
    code = main(["ingest", "--config", str(cfg), "--source", f"exploitdb={edb}"])
    assert code == 2
    assert last_error(capsys)["message"] == "duplicate source name: exploit-db"


# --- prerequisites and locking ------------------------------------------------------


def test_prerequisite_names_producing_command(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert main(["classify", "--workspace", str(ws)]) == 3
    message = last_error(capsys)["message"]
    assert "run 'pocfusion ingest' first" in message

    assert main(["stats", "--workspace", str(ws)]) == 3
    assert "run 'pocfusion complete' first" in last_error(capsys)["message"]
    # a refused stage leaves no workspace behind
    assert not ws.exists()


def test_lock_conflict(tmp_path, capsys):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / ".lock").write_text("locked\n", encoding="utf-8")
    code = main(base_argv("ingest", tmp_path))
    assert code == 3
    assert "locked" in last_error(capsys)["message"]


@pytest.mark.skipif(os.name != "posix", reason="a lock's pid is probed on POSIX only")
def test_lock_of_a_dead_pid_is_named(tmp_path, capsys):
    ws = tmp_path / "ws"
    ws.mkdir()
    # above Linux's PID_MAX_LIMIT (2**22), so no process has it
    (ws / ".lock").write_text("4194305\n", encoding="utf-8")
    assert main(base_argv("ingest", tmp_path)) == 3
    message = last_error(capsys)["message"]
    assert "belongs to pid 4194305, which is not running" in message
    assert "locked by another run" not in message
    assert (ws / ".lock").exists()


@pytest.mark.parametrize("content", [None, "locked\n", "0\n", "-1\n", "99999999999999999999\n"])
def test_lock_of_a_live_pid_or_other_content_is_held(tmp_path, capsys, monkeypatch, content):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / ".lock").write_text(content or f"{os.getpid()}\n", encoding="utf-8")
    probed = []
    kill = os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: probed.append(pid) or kill(pid, sig))
    assert main(base_argv("ingest", tmp_path)) == 3
    assert "locked by another run" in last_error(capsys)["message"]
    # 0 and negative numbers address process groups and are never probed
    assert all(pid > 0 for pid in probed)


def test_lock_holds_the_runs_pid(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    with cli.WorkspaceLock(ws) as lock:
        assert lock.path.read_text(encoding="utf-8") == f"{os.getpid()}\n"
    assert not lock.path.exists()


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


@pytest.mark.parametrize("products", [5, True, "abc", {"name": "x"}])
def test_cve_entry_with_products_not_a_list_is_skipped(tmp_path, caplog, products):
    edb, _, _ = write_sources(tmp_path)
    cve = tmp_path / "cve.jsonl"
    cve.write_text(
        json.dumps({"cve_id": "CVE-2020-1234", "products": products}) + "\n", encoding="utf-8"
    )
    ws = tmp_path / "ws"
    argv = ["ingest", "--workspace", str(ws), "--source", f"exploitdb={edb}", "--cve", str(cve)]
    assert main(argv) == 0
    assert f"{cve}:1: skipping record: products {products!r} is not a list" in caplog.messages
    assert json.loads((ws / "manifests" / "ingest.json").read_text())["cve_entries"] == 0


def test_non_json_constants_in_outside_input_skip_their_record(tmp_path, caplog):
    # NaN and Infinity are no JSON values, and 1e400 overflows a float: once
    # read as the texts "nan" and "inf"
    edb = tmp_path / "edb.jsonl"
    edb.write_text(
        '{"id": "ok", "source": "ExploitDB", "content": "x"}\n'
        '{"id": "v", "source": "ExploitDB", "content": "x", "version": NaN}\n'
        '{"id": "c", "source": "ExploitDB", "content": "x", "cve_ids": [Infinity]}\n'
        '{"id": "w", "source": "ExploitDB", "content": "x", "version": 1e400}\n'
        '{"id": "d", "source": "ExploitDB", "content": "x", "cve_ids": [-1e400]}\n',
        encoding="utf-8",
    )
    cve = tmp_path / "cve.jsonl"
    cve.write_text(
        '{"cve_id": "CVE-2020-1111", "products": [{"name": "A", "versions": [-Infinity]}]}\n',
        encoding="utf-8",
    )
    ws = tmp_path / "ws"
    argv = ["ingest", "--workspace", str(ws), "--source", f"exploitdb={edb}", "--cve", str(cve)]
    assert main(argv) == 0
    skips = [m for m in caplog.messages if "skipping malformed record" in m]
    assert [m.split(": skipping")[0] for m in skips] == [
        f"{edb}:2", f"{edb}:3", f"{edb}:4", f"{edb}:5", f"{cve}:1"
    ]
    manifest = json.loads((ws / "manifests" / "ingest.json").read_text())
    assert (manifest["reports"], manifest["cve_entries"]) == (1, 0)
    assert manifest["skipped"] == {"records": 5, "values": 0, "lone_surrogates": 0}


def test_outside_input_nested_past_the_bound_skips_its_record_at_any_call_depth(
    tmp_path, caplog
):
    # line n holds a title nested n deep in a record nested n + 1 deep. The
    # bound may not move with the caller's stack: a line the decoder reads
    # just within the recursion limit could not be logged, as repr recursed
    # past it, and ingest failed
    edb = tmp_path / "edb.jsonl"
    edb.write_text(
        "".join(
            '{"id": "r%d", "source": "ExploitDB", "content": "x", "title": %s}\n'
            % (n, "[" * n + "]" * n)
            for n in range(1, 1001)
        ),
        encoding="utf-8",
    )

    def ingest(ws, frames):
        if frames:
            return ingest(ws, frames - 1)
        caplog.clear()
        assert main(["ingest", "--workspace", str(ws), "--source", f"exploitdb={edb}"]) == 0
        manifest = json.loads((ws / "manifests" / "ingest.json").read_text())
        skips = [m for m in caplog.messages if m.endswith("JSON nested too deeply to decode")]
        return manifest["reports"], [m.split(": skipping")[0] for m in skips]

    expected = (MAX_JSON_DEPTH - 1, [f"{edb}:{n}" for n in range(MAX_JSON_DEPTH, 1001)])
    for frames in (0, 200):
        assert ingest(tmp_path / f"ws{frames}", frames) == expected


def test_unreadable_cve_dump_writes_no_ingest_output(tmp_path, capsys, monkeypatch):
    def unreadable(path, skipped):
        raise OSError(f"{path}: cannot read")

    monkeypatch.setattr(cli, "ingest_cve_entries", unreadable)
    ws = tmp_path / "ws"
    assert main(base_argv("ingest", tmp_path)) == 4
    assert "cannot read" in last_error(capsys)["message"]
    assert not (ws / "corpus_ingested.jsonl").exists()
    assert not (ws / "cve_db.jsonl").exists()


def test_lone_surrogate_escapes_in_outside_input_read_as_replacement_characters(
    tmp_path, monkeypatch, caplog
):
    # JSON can escape a lone surrogate, which no UTF-8 file can hold; it reads
    # as U+FFFD, as a byte that is not UTF-8 does
    shutil.copytree(Path(__file__).resolve().parent.parent / "demo", tmp_path / "demo")
    edb = tmp_path / "demo" / "exploitdb.jsonl"
    lines = edb.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = '{"\\udc00": 1, "title": "Lone \\ud800 title", ' + lines[0][1:]
    edb.write_text("".join(lines), encoding="utf-8")
    cve = tmp_path / "demo" / "cve_entries.jsonl"
    lines = cve.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace('"platforms": []', '"platforms": ["Linux \\udfff"]')
    cve.write_text("".join(lines), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run-all", "--config", "demo/config.cfg", "--workspace", "ws"]) == 0
    for path, line, count in (("exploitdb.jsonl", 1, 2), ("cve_entries.jsonl", 2, 1)):
        assert (
            f"{Path('demo', path)}:{line}: {count} lone surrogate(s) read as U+FFFD"
        ) in caplog.messages
    assert "Lone \ufffd title" in (tmp_path / "ws" / "corpus_ingested.jsonl").read_text("utf-8")
    assert "Linux \ufffd" in (tmp_path / "ws" / "cve_db.jsonl").read_text("utf-8")


# Outside input as the four platforms might send it: any JSON value in any
# field, including strings with lone surrogate escapes, byte-order marks,
# U+2028 and carriage returns.
_FUZZ_TEXT = st.lists(
    st.sampled_from([
        "a", " ", "ExploitDB", "CVE-2020-1111", "2020-1111", "é",
        "\ud800", "\udfff", "\ufeff", "\u2028", "\r",
    ]),
    max_size=4,
).map("".join)
_FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | _FUZZ_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_FUZZ_TEXT, inner, max_size=3),
    max_leaves=6,
)
_DEMO_SOURCES = ("exploitdb", "packetstorm", "seebug", "cxsecurity")
_FUZZ_FIELDS = {
    "source": ["id", "source", "content", "title", "author", "publish_time", "platform",
               "version", "references", "cve_ids", "other"],
    "cve": ["cve_id", "products", "platforms", "products.0.name", "products.0.versions",
            "other"],
}


def _deep_title(depth):
    # raw text, as json.dumps of a list this deep would itself raise
    return '{"title": ' + "[" * depth + "]" * depth + "}"


# title arrays nested deeper than MAX_JSON_DEPTH: one within the recursion
# limit and one far past it
_DEEP_TITLES = (_deep_title(981), _deep_title(100_000))


def _fuzz_edits(kind):
    """Up to three edits of one file: (line index, edit), where an edit sets
    a field, replaces the whole line (field None), is raw text that ends the
    line (a carriage return) or starts it (a byte-order mark), or is one of
    the raw lines :data:`_DEEP_TITLES`."""
    edit = (
        st.tuples(st.sampled_from(_FUZZ_FIELDS[kind]), _FUZZ_TEXT)
        | st.tuples(st.sampled_from([*_FUZZ_FIELDS[kind], None]), _FUZZ_VALUES)
        | st.sampled_from(["\r", "\ufeff", *_DEEP_TITLES])
    )
    return st.lists(st.tuples(st.integers(0, 5), edit), max_size=3)


def _fuzz_line(value):
    # a lone surrogate has no UTF-8 form; JSON holds it as a \u escape
    text = json.dumps(value, ensure_ascii=False)
    return re.sub("[\ud800-\udfff]", lambda m: f"\\u{ord(m.group()):04x}", text)


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.fixed_dictionaries({
    **{f"{name}.jsonl": _fuzz_edits("source") for name in _DEMO_SOURCES},
    "cve_entries.jsonl": _fuzz_edits("cve"),
}))
def test_outside_input_is_ingested_with_a_warning_per_skip(edits):
    demo = Path(__file__).resolve().parent.parent / "demo"
    with tempfile.TemporaryDirectory() as tmp:
        touched = {}  # file name -> indices of the lines edited
        for name, file_edits in edits.items():
            records = [json.loads(line) for line in (demo / name).read_text("utf-8").splitlines()]
            start, end = [""] * len(records), [""] * len(records)
            raw = [None] * len(records)
            for index, edit in file_edits:
                index %= len(records)
                touched.setdefault(name, set()).add(index + 1)
                if edit in _DEEP_TITLES:
                    raw[index] = edit
                elif edit == "\r":
                    end[index] += edit
                elif edit == "\ufeff":
                    start[index] += edit
                elif edit[0] is None:
                    records[index] = edit[1]
                elif isinstance(records[index], dict):
                    field, value = edit
                    record = records[index]
                    if field.startswith("products.0."):
                        products = record.get("products")
                        if not (isinstance(products, list) and products
                                and isinstance(products[0], dict)):
                            continue
                        record, field = products[0], field.removeprefix("products.0.")
                    record[field] = value
            text = "".join(a + (line or _fuzz_line(r)) + b + "\n"
                           for a, r, line, b in zip(start, records, raw, end))
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = ["ingest", "--workspace", str(Path(tmp, "ws"))]
        argv += ["--cve", str(Path(tmp, "cve_entries.jsonl"))]
        for name in _DEMO_SOURCES:
            argv += ["--source", f"{name}={Path(tmp, name + '.jsonl')}"]
        warnings = _Warnings()
        logging.getLogger("pocfusion").addHandler(warnings)
        try:
            assert main(argv) == 0
        finally:
            logging.getLogger("pocfusion").removeHandler(warnings)
        manifest = json.loads(Path(tmp, "ws", "manifests", "ingest.json").read_text("utf-8"))
        source_lines = sum(len((demo / f"{name}.jsonl").read_text("utf-8").splitlines())
                           for name in _DEMO_SOURCES)

    # every warning names the file and one of its edited lines
    counted = {"records": 0, "values": 0, "lone_surrogates": 0}
    source_records = 0
    for message in warnings.messages:
        where = re.match(r"(.*?):(\d+): ", message)
        assert where and int(where[2]) in touched.get(Path(where[1]).name, ()), message
        text = message[where.end():]
        if lone := re.fullmatch(r"(\d+) lone surrogate\(s\) read as U\+FFFD", text):
            counted["lone_surrogates"] += int(lone[1])
        elif re.match(r"skipping \w+ value |dropping malformed CVE id ", text):
            counted["values"] += 1
        else:
            counted["records"] += 1
            source_records += Path(where[1]).name != "cve_entries.jsonl"
    # one warning for each skip counted, and each source line is a report or
    # a skipped record
    assert manifest["skipped"] == counted
    assert manifest["reports"] + source_records == source_lines


def test_case_variant_header_labels_fill_their_slots(tmp_path):
    # each label matches ignoring case, though its lowercase is no label
    source = tmp_path / "edb.jsonl"
    content = "# Tıtle: Foo\nPubliſhed: 2020-01-01\nTİTLE: x\nsome words\n"
    source.write_text(
        json.dumps({"id": "v1", "source": "ExploitDB", "content": content}) + "\n",
        encoding="utf-8",
    )
    ws = tmp_path / "ws"
    assert main(["run-all", "--workspace", str(ws), "--source", f"exploitdb={source}"]) == 0
    (line,) = (ws / "corpus_extracted.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    aspects = json.loads(line)["aspects"]
    assert [v["text"] for v in aspects["title"]] == ["Foo", "x"]
    assert [v["text"] for v in aspects["publish_time"]] == ["2020-01-01"]


def test_non_object_corpus_line_is_a_data_error(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert main(base_argv("ingest", tmp_path)) == 0
    corpus = ws / "corpus_ingested.jsonl"
    lines = corpus.read_text(encoding="utf-8").count("\n")
    with corpus.open("a", encoding="utf-8") as handle:
        handle.write("[1]\n")
    list_own_digest(ws, corpus.name)
    assert main(["classify", "--workspace", str(ws)]) == 4
    assert f"corpus_ingested.jsonl:{lines + 1}:" in last_error(capsys)["message"]


@pytest.fixture(scope="module")
def full_workspace(tmp_path_factory):
    """A workspace after run-all; tests that damage it work on a copy."""
    tmp = tmp_path_factory.mktemp("full")
    assert main(base_argv("run-all", tmp)) == 0
    return tmp / "ws"


def list_own_digest(ws, name):
    """List a damaged workspace file's own SHA-256 wherever a manifest lists
    one for it, so that a stage gets past the digest check and decodes it."""
    digest = hashlib.sha256((ws / name).read_bytes()).hexdigest()
    for manifest in (ws / "manifests").glob("*.json"):
        listed = json.loads(manifest.read_text(encoding="utf-8"))
        for files in (listed["inputs"], listed["outputs"]):
            if name in files:
                files[name] = digest
        manifest.write_text(json.dumps(listed, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cut_in_half(line):
    return line[: len(line) // 2]


def set_field(field, value):
    return lambda line: json.dumps({**json.loads(line), field: value})


def set_aspect(slot, texts, provenance=None):
    def damage(line):
        record = json.loads(line)
        origin = {"kind": "original"} if provenance is None else provenance
        values = [{"text": t, "provenance": origin} for t in texts]
        return json.dumps({**record, "aspects": {**record["aspects"], slot: values}})
    return damage


# every JSON-lines file each stage reads
STAGE_INPUTS = [
    ("classify", "corpus_ingested.jsonl"),
    ("extract", "corpus_classified.jsonl"),
    ("link", "corpus_extracted.jsonl"),
    ("complete", "corpus_extracted.jsonl"),
    ("complete", "links.jsonl"),
    ("complete", "cve_db.jsonl"),
    ("stats", "corpus_completed.jsonl"),
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
        pytest.param("complete", "links.jsonl", set_field("similarity", True),
                     id="complete-similarity-bool"),
        pytest.param("stats", "corpus_completed.jsonl", set_aspect("title", ["T"], []),
                     id="stats-origin-list"),
        pytest.param("complete", "cve_db.jsonl", set_field("platforms", "Linux"),
                     id="complete-platforms-string"),
        pytest.param("link", "corpus_extracted.jsonl", set_aspect("bogus", ["x"]),
                     id="link-unknown-slot"),
        pytest.param("stats", "corpus_completed.jsonl",
                     set_aspect("title", ["T"], {"kind": "bogus"}),
                     id="stats-unknown-origin-kind"),
        pytest.param("stats", "corpus_completed.jsonl",
                     set_aspect("title", ["T"], {"kind": "from_poc", "donor_id": "e1",
                                                 "similarity": True, "basis": "classifier"}),
                     id="stats-similarity-bool"),
        pytest.param("link", "corpus_extracted.jsonl", set_aspect("title", ["Foo", " foo"]),
                     id="link-duplicate-values"),
        pytest.param("stats", "corpus_completed.jsonl", set_aspect("bogus", ["x"]),
                     id="stats-unknown-record-slot"),
        pytest.param("stats", "corpus_completed.jsonl",
                     set_aspect("title", ["T"], {"kind": "from_cve", "cve_id": "nonsense"}),
                     id="stats-non-canonical-cve-origin"),
        pytest.param("stats", "corpus_completed.jsonl",
                     set_aspect("title", ["T"], {"kind": "from_poc", "donor_id": "e1",
                                                 "similarity": 0.5, "basis": 7}),
                     id="stats-basis-number"),
        # the demo's last link is a shared_cve link
        pytest.param("complete", "links.jsonl", set_field("basis", "shared_cve:nonsense"),
                     id="complete-non-canonical-link-cve"),
        pytest.param("complete", "links.jsonl", set_field("basis", "shared_cve:"),
                     id="complete-null-link-cve"),
        # a links file from a build that wrote the shared id apart
        pytest.param("complete", "links.jsonl",
                     lambda line: json.dumps({**json.loads(line), "basis": "shared_cve",
                                              "cve_id": "CVE-2020-1111"}),
                     id="complete-old-link-basis"),
        # NaN and Infinity are no JSON values, wherever they stand
        pytest.param("link", "corpus_extracted.jsonl", set_field("content", float("nan")),
                     id="link-content-nan"),
        pytest.param("stats", "corpus_completed.jsonl", set_field("content", float("-inf")),
                     id="stats-content-minus-infinity"),
        # so are a number that overflows a float and nesting past
        # MAX_JSON_DEPTH, even under a key no record reads
        pytest.param("stats", "corpus_completed.jsonl",
                     lambda line: line[:-1] + ', "extra": 1e400}',
                     id="stats-extra-overflowing-number"),
        pytest.param("link", "corpus_extracted.jsonl",
                     lambda line: line[:-1] + ', "extra": %s}' % ("[" * 200 + "]" * 200),
                     id="link-extra-nested-past-the-bound"),
        pytest.param("complete", "links.jsonl", set_field("a", ""),
                     id="complete-empty-link-endpoint"),
    ],
)
def test_broken_last_line_is_a_data_error(full_workspace, tmp_path, capsys, stage, name, damage):
    ws = tmp_path / "ws"
    shutil.copytree(full_workspace, ws)
    path = ws / name
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    lines[-1] = damage(lines[-1])
    path.write_text("\n".join(lines), encoding="utf-8")
    # the digest refuses the file before it is decoded
    assert main([stage, "--workspace", str(ws)]) == 4
    assert f"{path} does not match its digest in " in last_error(capsys)["message"]
    # a file that matches its manifest is refused by its decoder
    list_own_digest(ws, name)
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
    list_own_digest(ws, name)
    assert main([stage, "--workspace", str(ws)]) == 4
    line = data[:at].count(b"\n") + 1
    assert f"{name}:{line}: not valid UTF-8" in last_error(capsys)["message"]


def test_stats_needs_only_the_completed_corpus(full_workspace, tmp_path):
    # both tables fold over the completed corpus, whose values carry their
    # provenance; the records file is an audit log no stage reads
    ws = tmp_path / "ws"
    shutil.copytree(full_workspace, ws)
    for name in ("deficiency.md", "completion.md", "corpus_extracted.jsonl",
                 "completion_records.jsonl"):
        (ws / name).unlink()
    assert main(["stats", "--workspace", str(ws)]) == 0
    for name in ("deficiency.md", "completion.md"):
        assert (ws / name).read_bytes() == (full_workspace / name).read_bytes(), name


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
     for stage, name in STAGE_INPUTS],
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


def count_loads(monkeypatch):
    """The names of the workspace files the stage loaders decode, in order."""
    loads = []
    for loader in ("load_corpus", "load_links", "load_cve_db"):
        def counted(path, load=getattr(cli, loader)):
            loads.append(Path(path).name)
            return load(path)
        monkeypatch.setattr(cli, loader, counted)
    return loads


@pytest.mark.parametrize(
    "stage, name",
    [pytest.param(stage, name, id=f"{stage}-{name}")
     for stage, name in STAGE_INPUTS],
)
def test_input_cut_on_a_line_boundary_is_a_data_error(
    full_workspace, tmp_path, capsys, monkeypatch, stage, name
):
    ws = tmp_path / "ws"
    shutil.copytree(full_workspace, ws)
    path = ws / name
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert lines
    # every line that is left decodes: only the writer's digest shows the
    # cut, and it does before any file is decoded
    path.write_text("".join(line + "\n" for line in lines[:-1]), encoding="utf-8")
    loads = count_loads(monkeypatch)
    assert main([stage, "--workspace", str(ws)]) == 4
    message = last_error(capsys)["message"]
    assert message.startswith(f"{path} does not match its digest in ")
    assert str(ws / "manifests" / f"{PRODUCERS[name]}.json") in message
    assert loads == []
    assert not (ws / ".lock").exists()


@pytest.mark.parametrize(
    "stage, name",
    [pytest.param(stage, name, id=f"{stage}-{name}")
     for stage, name in STAGE_INPUTS],
)
def test_missing_writer_manifest_names_the_stage_to_rerun(
    full_workspace, tmp_path, capsys, stage, name
):
    ws = tmp_path / "ws"
    shutil.copytree(full_workspace, ws)
    (ws / "manifests" / f"{PRODUCERS[name]}.json").unlink()
    assert main([stage, "--workspace", str(ws)]) == 3
    assert last_error(capsys)["message"] == (
        f"workspace is missing manifests/{PRODUCERS[name]}.json; "
        f"run 'pocfusion {PRODUCERS[name]}' again"
    )


def test_unreadable_writer_manifest_is_a_data_error(full_workspace, tmp_path, capsys):
    ws = tmp_path / "ws"
    shutil.copytree(full_workspace, ws)
    manifest = ws / "manifests" / "link.json"
    manifest.write_text("[]\n", encoding="utf-8")
    assert main(["complete", "--workspace", str(ws)]) == 4
    assert f"{manifest}: unreadable manifest" in last_error(capsys)["message"]


# --- the chain of manifests -----------------------------------------------------------

DEMO = Path(__file__).resolve().parent.parent / "demo"


def demo_argv(command, ws, *flags):
    return [command, "--config", str(DEMO / "config.cfg"), "--workspace", str(ws), *flags]


def test_loaders_read_files_line_by_line(tmp_path, monkeypatch):
    # no loader holds a whole file: each still reads the demo's inputs and
    # workspace with Path.read_bytes refused
    monkeypatch.chdir(DEMO.parent)
    ws = tmp_path / "ws"
    assert main(demo_argv("run-all", ws)) == 0

    def load_all():
        return [
            load_corpus(ws / "corpus_completed.jsonl"),
            load_links(ws / "links.jsonl"),
            ingest_reports(DEMO / "exploitdb.jsonl", "exploitdb"),
            ingest_cve_entries(DEMO / "cve_entries.jsonl"),
        ]

    def refused(self):
        raise AssertionError(f"read_bytes({self})")

    loaded = load_all()
    monkeypatch.setattr(Path, "read_bytes", refused)
    assert load_all() == loaded
    assert len(loaded[0]) == 20 and loaded[1] and loaded[2] and loaded[3]


def test_a_stage_run_on_an_earlier_input_is_named_to_run_again(tmp_path, monkeypatch, capsys):
    # ingest again with one source: the later stages' files were written from
    # the earlier 20-report ingest, and each stage that reads them says which
    # stage to run again, until the chain is current
    monkeypatch.chdir(DEMO.parent)
    ws = tmp_path / "ws"
    assert main(demo_argv("run-all", ws)) == 0
    assert main(["ingest", "--workspace", str(ws), "--source", "exploitdb=demo/exploitdb.jsonl",
                 "--cve", "demo/cve_entries.jsonl"]) == 0
    assert json.loads((ws / "manifests" / "ingest.json").read_text())["reports"] == 6
    # each is refused by reading manifests alone, before it decodes a file
    loads = count_loads(monkeypatch)
    for stage in ("link", "complete", "stats"):
        assert main([stage, "--workspace", str(ws)]) == 3, stage
        assert last_error(capsys)["message"] == (
            "'classify' ran on an earlier corpus_ingested.jsonl; run 'pocfusion classify' again"
        )
        assert loads == [], stage
    assert main(["classify", "--workspace", str(ws)]) == 0
    assert main(["link", "--workspace", str(ws)]) == 3
    assert last_error(capsys)["message"] == (
        "'extract' ran on an earlier corpus_classified.jsonl; run 'pocfusion extract' again"
    )
    for stage in ("extract", "link", "complete", "stats"):
        assert main([stage, "--workspace", str(ws)]) == 0, stage
    assert json.loads((ws / "manifests" / "link.json").read_text())["links"] == 1


def test_a_run_aborted_over_an_earlier_run_leaves_no_stage_runnable_on_its_files(
    tmp_path, monkeypatch, capsys
):
    # the 4th write of run-all is the classified corpus: ingest has written a
    # 16-report corpus, and every later file is the earlier run's
    shutil.copytree(DEMO, tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    ws = tmp_path / "ws"
    assert main(demo_argv("run-all", ws)) == 0
    source = tmp_path / "demo" / "exploitdb.jsonl"
    source.write_text("".join(source.read_text("utf-8").splitlines(True)[:2]), "utf-8")
    writes = []

    def failing(path, chunks, write=corpus_module.write_atomic):
        writes.append(path)
        if len(writes) == 4:
            raise OSError("disk full")
        write(path, chunks)

    with monkeypatch.context() as patch:
        patch.setattr(corpus_module, "write_atomic", failing)
        patch.setattr(cli, "write_atomic", failing)
        assert main(demo_argv("run-all", ws)) == 4
    assert Path(writes[-1]).name == "corpus_classified.jsonl"
    assert json.loads((ws / "manifests" / "ingest.json").read_text())["reports"] == 16
    for stage in ("link", "stats"):
        assert main([stage, "--workspace", str(ws)]) == 3, stage
        assert "run 'pocfusion classify' again" in last_error(capsys)["message"]
    assert main(demo_argv("run-all", ws)) == 0


def test_a_new_cve_dump_leaves_the_links_current(tmp_path, monkeypatch):
    # links use no CVE entry: after ingest with another dump, complete fills
    # from the new entries over the links already built, and link run again
    # writes the same links
    monkeypatch.chdir(DEMO.parent)
    ws = tmp_path / "ws"
    assert main(demo_argv("run-all", ws)) == 0
    entries = [json.loads(line) for line in (DEMO / "cve_entries.jsonl").read_text().splitlines()]
    entries[0]["platforms"] = ["Plan 9"]
    cve = tmp_path / "cve.jsonl"
    cve.write_text("".join(json.dumps(entry) + "\n" for entry in entries), encoding="utf-8")
    links = (ws / "links.jsonl").read_bytes()
    assert main(demo_argv("ingest", ws, "--cve", str(cve))) == 0
    assert "Plan 9" not in (ws / "corpus_completed.jsonl").read_text("utf-8")
    for stage in ("complete", "stats", "link"):
        assert main([stage, "--workspace", str(ws)]) == 0, stage
    assert (ws / "links.jsonl").read_bytes() == links
    completed = load_corpus(ws / "corpus_completed.jsonl")
    assert any(
        value.text == "Plan 9" and value.provenance == FromCve(entries[0]["cve_id"])
        for report in completed for value in report.aspects.values("test_platform")
    )


# --- metamorphic relations on the demo --------------------------------------------------


def demo_lines(name):
    return (DEMO / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()


def run_rewritten_demo(root, sources, cve):
    """run-all over rewritten demo inputs under ``root``: ``sources`` maps
    each source name to its lines, in config order, and ``cve`` holds the
    CVE dump's lines. Returns each workspace file's text, by path."""
    root.mkdir()
    config = [f"workspace = {root / 'ws'}", f"cve = {root / 'cve.jsonl'}"]
    for name, lines in {**sources, "cve": cve}.items():
        (root / f"{name}.jsonl").write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        if name != "cve":
            config.append(f"source.{name} = {root / f'{name}.jsonl'}")
    (root / "run.cfg").write_text("".join(line + "\n" for line in config), encoding="utf-8")
    assert main(["run-all", "--config", str(root / "run.cfg")]) == 0
    ws = root / "ws"
    return {path.relative_to(ws): path.read_text("utf-8") for path in ws.rglob("*") if path.is_file()}


def manifest_counters(text):
    # digests follow the bytes, and the config hash the input paths and order
    manifest = json.loads(text)
    del manifest["config_hash"]
    return {**manifest, "inputs": sorted(manifest["inputs"]), "outputs": sorted(manifest["outputs"])}


def test_demo_inputs_in_another_order_permute_every_workspace_file(tmp_path):
    rng = random.Random(7)
    sources = {name: demo_lines(name) for name in _DEMO_SOURCES}
    cve = demo_lines("cve_entries")
    first = run_rewritten_demo(tmp_path / "a", sources, cve)
    shuffled = {name: rng.sample(lines, len(lines)) for name, lines in reversed(sources.items())}
    second = run_rewritten_demo(tmp_path / "b", shuffled, rng.sample(cve, len(cve)))
    assert first.keys() == second.keys()
    for name, text in first.items():
        if name.parent.name == "manifests":
            assert manifest_counters(text) == manifest_counters(second[name]), name
        else:
            assert Counter(text.splitlines()) == Counter(second[name].splitlines()), name
    assert first[Path("corpus_completed.jsonl")] != second[Path("corpus_completed.jsonl")]


def test_demo_renamed_ids_rename_every_output(tmp_path):
    names = {}  # report id -> a hash-derived id, in another order

    def renamed(line):
        record = json.loads(line)
        names[record["id"]] = "id-" + hashlib.sha256(record["id"].encode()).hexdigest()[:12]
        return json.dumps({**record, "id": names[record["id"]]})

    sources = {name: demo_lines(name) for name in _DEMO_SOURCES}
    cve = demo_lines("cve_entries")
    first = run_rewritten_demo(tmp_path / "a", sources, cve)
    second = run_rewritten_demo(
        tmp_path / "b", {name: [renamed(line) for line in lines] for name, lines in sources.items()},
        cve,
    )
    assert sorted(names) != sorted(names, key=names.get)
    back = {new: old for old, new in names.items()}
    second = {name: re.sub(r"id-[0-9a-f]{12}", lambda m: back[m.group()], text)
              for name, text in second.items()}

    def links(text):  # each link with its ends in order
        return sorted(
            json.dumps({**link, "a": min(link["a"], link["b"]), "b": max(link["a"], link["b"])})
            for link in map(json.loads, text.splitlines())
        )

    assert first.keys() == second.keys()
    for name, text in first.items():
        if name.parent.name == "manifests":
            assert manifest_counters(text)["stage"] == manifest_counters(second[name])["stage"]
        elif name == Path("links.jsonl"):
            assert links(text) == links(second[name])
        elif name == Path("completion_records.jsonl"):
            # records are written in link order, which follows the ids
            assert Counter(text.splitlines()) == Counter(second[name].splitlines())
        else:
            assert text == second[name], name
    assert '"donor_id"' in first[Path("corpus_completed.jsonl")]


def test_demo_report_that_shares_nothing_leaves_every_other_report_alone(tmp_path):
    # the added advisory repeats words of cx-401's, so a corpus-wide term
    # weight would move the scores of the others
    lone = {
        "id": "cx-499", "source": "CXSecurity", "cve_ids": ["CVE-1999-0499"],
        "title": "Quokkaware 2 - Remote DoS",
        "content": "WLB-1999010001 Quokkaware remote DoS\n\nAuthor: q.author\n"
                   "Platform: Linux\n\nQuokkaware stops responding after a malformed status "
                   "probe. The vendor shipped release 2.\n",
    }
    sources = {name: demo_lines(name) for name in _DEMO_SOURCES}
    cve = demo_lines("cve_entries")
    first = run_rewritten_demo(tmp_path / "a", sources, cve)
    sources["cxsecurity"].insert(1, json.dumps(lone))
    second = run_rewritten_demo(tmp_path / "b", sources, cve)
    extracted = load_corpus(tmp_path / "b" / "ws" / "corpus_extracted.jsonl")
    others = [report for report in extracted if report.id != "cx-499"]
    assert not set(extracted.get("cx-499").cve_ids) & {c for r in others for c in r.cve_ids}
    assert not set(software_names(extracted.get("cx-499"))) & {
        name for r in others for name in software_names(r)
    }
    assert software_names(extracted.get("cx-499"))

    def without_lone(text):
        return [line for line in text.splitlines() if '"cx-499"' not in line]

    for name in ("corpus_completed.jsonl", "completion_records.jsonl", "links.jsonl"):
        assert without_lone(first[Path(name)]) == without_lone(second[Path(name)]), name


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


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
def test_run_all_matches_staged_runs(tmp_path, fmt):
    """run-all hands each stage the objects the earlier stages wrote; the six
    single-stage commands decode them from disk. Every file, manifests
    included, is the same byte for byte."""
    run_stage("run-all", tmp_path, ws="all-at-once", fmt=fmt)
    for command in ("ingest", "classify", "extract", "link", "complete", "stats"):
        run_stage(command, tmp_path, ws="staged", fmt=fmt)
    ws_a, ws_b = tmp_path / "all-at-once", tmp_path / "staged"
    files_a = sorted(p.relative_to(ws_a) for p in ws_a.rglob("*") if p.is_file())
    assert files_a == sorted(p.relative_to(ws_b) for p in ws_b.rglob("*") if p.is_file())
    assert sum(name.parent.name == "manifests" for name in files_a) == 6
    for name in files_a:
        assert (ws_a / name).read_bytes() == (ws_b / name).read_bytes(), name


def test_run_all_decodes_nothing_it_wrote(tmp_path, monkeypatch):
    calls = Counter()
    for name in ("load_corpus", "load_cve_db", "load_links"):
        def counted(path, name=name, load=getattr(cli, name)):
            calls[name] += 1
            return load(path)
        monkeypatch.setattr(cli, name, counted)
    run_stage("run-all", tmp_path)
    assert calls == Counter()
    # a single stage reads its inputs from the workspace
    assert main(["stats", "--workspace", str(tmp_path / "ws")]) == 0
    assert calls == Counter({"load_corpus": 1})


def test_each_stage_reads_exactly_the_inputs_it_declares(tmp_path, monkeypatch):
    # a declared input is decoded and, run alone, hashed and checked: one the
    # stage never reads costs both for nothing
    read = {}

    class Recorded(Mapping):
        def __init__(self, stage, inputs):
            self.stage, self.inputs = stage, inputs

        def __getitem__(self, name):
            read[self.stage].add(name)
            return self.inputs[name]

        def __iter__(self):
            return iter(self.inputs)

        def __len__(self):
            return len(self.inputs)

    def recording(stage, run):
        def recorded(config, ws, inputs):
            read[stage] = set()
            return run(config, ws, Recorded(stage, inputs))
        return recorded

    declared = {stage: set(reads) for stage, (_run, reads, _help) in cli._STAGES.items()}
    monkeypatch.setattr(cli, "_STAGES", {
        stage: (recording(stage, run), reads, help)
        for stage, (run, reads, help) in cli._STAGES.items()
    })
    monkeypatch.chdir(DEMO.parent)
    assert main(demo_argv("run-all", tmp_path / "ws")) == 0
    assert read == declared
    for stage in cli.STAGES:
        read.clear()
        assert main(demo_argv(stage, tmp_path / "ws")) == 0
        assert read == {stage: declared[stage]}


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


def test_run_all_is_byte_identical_under_any_hash_seed(tmp_path):
    # str hashes are salted per process: an iteration over a set of strings
    # that reached a file would order it differently under the two seeds
    root = Path(__file__).resolve().parent.parent
    script = "import sys; from pocfusion.cli import main; sys.exit(main(sys.argv[1:]))"
    workspaces = []
    for seed in ("0", "1"):
        ws = tmp_path / f"seed-{seed}"
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": seed}
        result = subprocess.run(
            [sys.executable, "-c", script, "run-all", "--config", "demo/config.cfg",
             "--workspace", str(ws)],
            cwd=root, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        workspaces.append(
            {path.relative_to(ws): path.read_bytes() for path in ws.rglob("*") if path.is_file()}
        )
    assert sum(name.parent.name == "manifests" for name in workspaces[0]) == 6
    assert workspaces[0] == workspaces[1]


def test_leftover_tmp_files_do_not_change_a_run(tmp_path):
    """A run cut off mid-write leaves ``<name>.tmp`` beside its outputs; the
    next run writes over them and leaves the workspace a clean run writes."""
    run_stage("run-all", tmp_path, ws="clean")
    clean = tmp_path / "clean"
    files = {path.relative_to(clean): path.read_bytes() for path in clean.rglob("*") if path.is_file()}
    assert sum(name.parent.name == "manifests" for name in files) == 6
    dirty = tmp_path / "dirty"
    for name in files:
        leftover = dirty / name.with_name(name.name + ".tmp")
        leftover.parent.mkdir(parents=True, exist_ok=True)
        leftover.write_bytes(b'{"half a line\xff')
    run_stage("run-all", tmp_path, ws="dirty")
    assert {
        path.relative_to(dirty): path.read_bytes() for path in dirty.rglob("*") if path.is_file()
    } == files


# (inputs, outputs) each stage's manifest hashes, written out by hand
MANIFEST_FILES = {
    "ingest": ({"cve", "source:exploitdb", "source:packetstorm"},
               {"corpus_ingested.jsonl", "cve_db.jsonl"}),
    "classify": ({"corpus_ingested.jsonl"}, {"corpus_classified.jsonl"}),
    "extract": ({"corpus_classified.jsonl"}, {"corpus_extracted.jsonl"}),
    "link": ({"corpus_extracted.jsonl"}, {"links.jsonl"}),
    "complete": ({"corpus_extracted.jsonl", "links.jsonl", "cve_db.jsonl"},
                 {"corpus_completed.jsonl", "completion_records.jsonl"}),
    "stats": ({"corpus_completed.jsonl"}, {"deficiency.md", "completion.md"}),
}


def test_manifest_contents(tmp_path):
    ws = tmp_path / "ws"
    run_stage("run-all", tmp_path)
    manifest = json.loads((ws / "manifests" / "ingest.json").read_text())
    assert manifest["stage"] == "ingest"
    assert "seed" not in manifest
    assert manifest["reports"] == 3 and manifest["cve_entries"] == 1
    assert manifest["skipped"] == {"records": 0, "values": 0, "lone_surrogates": 0}
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

    # ingest counts what it skipped: a line that is no object, a record
    # without content, a value of the wrong type, and a lone surrogate
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(line + "\n" for line in [
        "[1]",
        json.dumps({"id": "n", "source": "ExploitDB"}),
        json.dumps({"id": "v", "source": "ExploitDB", "content": "x", "title": {"k": 1}}),
        json.dumps({"id": "s", "source": "ExploitDB", "content": "x", "author": "\ud800"}),
    ]), encoding="utf-8")
    assert main(["ingest", "--workspace", str(ws), "--source", f"exploitdb={mixed}"]) == 0
    manifest = json.loads((ws / "manifests" / "ingest.json").read_text())
    assert manifest["reports"] == 2
    assert manifest["skipped"] == {"records": 2, "values": 1, "lone_surrogates": 1}


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
    assert len(calls) == 1  # the demo's pairs that pass the heuristic's title gate
    calls.clear()
    url = f"http://127.0.0.1:{port}/"
    assert main([*argv, str(tmp_path / "down"), "--classifier-url", url]) == 0
    candidates = len(calls)  # the external classifier sees every candidate
    assert candidates >= 1
    manifest = json.loads((tmp_path / "down" / "manifests" / "link.json").read_text())
    assert manifest["degraded"] == {"classifier": candidates}
    # the fallback heuristic gives every candidate the plain run's verdict
    links = [(tmp_path / ws / "links.jsonl").read_bytes() for ws in ("plain", "down")]
    assert links[0] == links[1]


def test_pipeline_runs_without_numpy(tmp_path):
    # the pipeline needs the standard library alone: under -S no
    # site-packages are importable, and a run with no service URL loads
    # neither requests nor the modules only a service call or the
    # training-set builder uses
    root = Path(__file__).resolve().parent.parent
    script = f"""
import sys
import pocfusion
from pocfusion.cli import main
code = main(["run-all", "--config", "demo/config.cfg", "--workspace", {str(tmp_path / "ws")!r}])
assert code == 0, code
loaded = {{"numpy", "requests", "concurrent.futures", "random"}} & set(sys.modules)
assert not loaded, f"run-all loaded {{sorted(loaded)}}"
"""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], cwd=root, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    imported = set()
    for path in (root / "src" / "pocfusion").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"pocfusion"}
    with (root / "pyproject.toml").open("rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in dependencies
    }
    assert third_party == declared == {"requests"}


def _imports_by_function(node, where):
    """(innermost enclosing function, top module name) for every import
    statement under ``node``; ``where`` names the scope ``node`` is in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports_by_function(child, f"{where.split('.')[0]}.{child.name}")
            continue
        if isinstance(child, ast.Import):
            yield from ((where, alias.name.split(".")[0]) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield where, child.module.split(".")[0]
        yield from _imports_by_function(child, where)


def test_requests_is_imported_in_one_function():
    # every service call goes through one path, which alone imports requests
    root = Path(__file__).resolve().parent.parent
    sites = [
        where
        for path in sorted((root / "src" / "pocfusion").glob("*.py"))
        for where, module in _imports_by_function(
            ast.parse(path.read_text(encoding="utf-8")), path.stem
        )
        if module == "requests"
    ]
    assert sites == ["corpus._call"]


def test_sources_parse_at_the_declared_python_floor():
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    # a regex, since tomllib is not in the standard library before 3.11
    floor = re.search(r'^requires-python\s*=\s*">=\s*3\.(\d+)"', pyproject, re.MULTILINE)
    assert floor is not None, "pyproject.toml declares no requires-python floor"
    for path in sorted((root / "src" / "pocfusion").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        ast.parse(source, str(path), feature_version=(3, int(floor.group(1))))


def test_readme_extractor_example_decodes():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n**Extractor**", 1)[1].split("\n**Pair classifier**", 1)[0]
    request, response = (block.split("```", 1)[0] for block in section.split("```json\n")[1:])
    request, response = json.loads(request), json.loads(response)
    assert set(request) == {"id", "content"}
    extraction = StructuredExtraction.decode(response, request["content"])
    assert extraction.texts("author") == ["alice"]
    # the section lists every slot a response may name
    assert all(f"`{slot}`" in section for slot in NER_SLOTS)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    workspace = tmp_path / "demo-workspace"
    assert main(["run-all", "--config", "demo/config.cfg", "--workspace", str(workspace)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    # the example repeats the link, complete and stats stages in process
    complete = json.loads((workspace / "manifests" / "complete.json").read_text())
    deficiency = (workspace / "deficiency.md").read_text(encoding="utf-8")
    completion = (workspace / "completion.md").read_text(encoding="utf-8")
    assert capsys.readouterr().out == (
        f"{complete['records']} {complete['skipped_links']}\n{deficiency}\n{completion}\n"
    )
