"""Both HTTP service contracts, exercised against a local stub server."""

import http.server
import json
import os
import socket
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from pocfusion import (
    CompletionConfig,
    Corpus,
    ExternalPairClassifier,
    ExternalStructuredExtractor,
    HeuristicPairClassifier,
    PocReport,
    ScoringModels,
    aspect_values,
    build_link_graph,
    build_pair_training_set,
    classify_pair,
)
from pocfusion.corpus import BREAKER_LIMIT, AspectSet, ContentKind
from pocfusion.extract import DefaultStructuredExtractor, SlotSpan

EDB = "ExploitDB"


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append(payload)
        status, body = self.server.script(payload)
        raw = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def service(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.script = lambda payload: (200, {})
    server.requests = []
    # a short poll interval: shutdown() waits for the next poll to return
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}/"
    yield server
    server.shutdown()
    server.server_close()


def closed_port_url():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    return f"http://127.0.0.1:{port}/"


def text_report(rid, content, title=None):
    aspects = AspectSet()
    if title:
        aspects = aspects.with_added(title=aspect_values([title]))
    return PocReport(
        id=rid,
        source=EDB,
        raw_content=content,
        content_kind=ContentKind.decode("text"),
        aspects=aspects,
    )


class StubExtractor:
    def __init__(self):
        self.calls = []

    def extract(self, report):
        self.calls.append(report.id)
        from pocfusion.extract import StructuredExtraction

        return StructuredExtraction({})


# --- structured extractor service -------------------------------------------------


CONTENT = "Exploit Title: Foo Bar\nAuthor: al\n"


def good_extraction_payload():
    start = CONTENT.index("Foo Bar")
    return {
        "title": [{"text": "Foo Bar", "start": start, "end": start + len("Foo Bar")}]
    }


def test_extractor_service_roundtrip(service):
    service.script = lambda payload: (200, good_extraction_payload())
    client = ExternalStructuredExtractor(service.url, DefaultStructuredExtractor())
    report = text_report("r1", CONTENT)
    extraction = client.extract(report)
    assert extraction.spans["title"] == (
        SlotSpan("Foo Bar", CONTENT.index("Foo Bar"), CONTENT.index("Foo Bar") + 7),
    )
    assert client.degraded == []
    assert service.requests == [{"id": "r1", "content": CONTENT}]


def test_extractor_service_rejects_lying_spans(service):
    # span text does not match the content at [start, end)
    service.script = lambda payload: (200, {"title": [{"text": "Foo Bar", "start": 0, "end": 7}]})
    fallback = StubExtractor()
    client = ExternalStructuredExtractor(service.url, fallback=fallback)
    client.extract(text_report("r1", CONTENT))
    assert client.degraded == ["r1"]
    assert fallback.calls == ["r1"]


def test_extractor_service_rejects_unknown_slot(service):
    service.script = lambda payload: (200, {"severity": [{"text": "E", "start": 0, "end": 1}]})
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    client.extract(text_report("r1", CONTENT))
    assert client.degraded == ["r1"]


@pytest.mark.parametrize(
    "span, typed",
    [
        ({"text": "b", "start": True, "end": 2}, {"text": "b", "start": 1, "end": 2}),
        ({"text": "ab", "start": "0", "end": 2}, {"text": "ab", "start": 0, "end": 2}),
        ({"text": "a", "start": 0, "end": 1.9}, {"text": "a", "start": 0, "end": 1}),
        ({"text": 7, "start": 2, "end": 3}, {"text": "7", "start": 2, "end": 3}),
    ],
    ids=["start-bool", "start-string", "end-real", "text-number"],
)
def test_extractor_service_rejects_wrong_json_types(service, span, typed):
    # each span would match the content once converted; the typed form is accepted
    report = text_report("r1", "ab7")
    service.script = lambda payload: (200, {"title": [typed]})
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    assert client.extract(report).texts("title") == [typed["text"]]
    service.script = lambda payload: (200, {"title": [span]})
    fallback = StubExtractor()
    client = ExternalStructuredExtractor(service.url, fallback=fallback)
    client.extract(report)
    assert client.degraded == ["r1"]
    assert fallback.calls == ["r1"]


def test_extractor_service_http_error(service):
    service.script = lambda payload: (500, {"error": "boom"})
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    client.extract(text_report("r1", CONTENT))
    assert client.degraded == ["r1"]


def test_extractor_service_garbage_body(service):
    service.script = lambda payload: (200, b"not json at all")
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    client.extract(text_report("r1", CONTENT))
    assert client.degraded == ["r1"]


@pytest.mark.parametrize("body", [[1], None, "x"], ids=["list", "null", "string"])
def test_extractor_service_non_object_body(service, body):
    service.script = lambda payload: (200, body)
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    client.extract(text_report("r1", CONTENT))
    assert client.degraded == ["r1"]


# NaN and Infinity are no JSON values, and a number that overflows a float
# or nesting too deep to decode is no answer; an extra key holds them, which
# a well-formed answer may have
_DEEP = b"[" * 100_000 + b"]" * 100_000
_NON_JSON = [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1e400", _DEEP]
_NON_JSON_IDS = ["nan", "infinity", "minus-infinity", "overflow", "minus-overflow", "too-deep"]


@pytest.mark.parametrize("value", _NON_JSON, ids=_NON_JSON_IDS)
def test_extractor_service_non_json_body(service, value):
    start = CONTENT.index("Foo Bar")
    body = b'{"title": [{"text": "Foo Bar", "start": %d, "end": %d, "score": %s}]}'
    service.script = lambda payload: (200, body % (start, start + 7, value))
    fallback = StubExtractor()
    client = ExternalStructuredExtractor(service.url, fallback=fallback)
    client.extract(text_report("r1", CONTENT))
    assert client.degraded == ["r1"]
    assert fallback.calls == ["r1"]


def test_extractor_service_unreachable():
    client = ExternalStructuredExtractor(closed_port_url(), DefaultStructuredExtractor())
    report = text_report("r1", CONTENT)
    extraction = client.extract(report)
    assert client.degraded == ["r1"]
    assert extraction == DefaultStructuredExtractor().extract(report)


def test_extractor_service_degrades_per_report(service):
    calls = iter([(500, {}), (200, good_extraction_payload())])
    service.script = lambda payload: next(calls)
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    client.extract(text_report("bad", CONTENT))
    client.extract(text_report("good", CONTENT))
    assert client.degraded == ["bad"]


# --- pair classifier service -------------------------------------------------------


class StubClassifier:
    def __init__(self, verdict=(False, 0.25)):
        self.verdict = verdict
        self.calls = []

    def classify(self, a, b):
        self.calls.append((a.id, b.id))
        return self.verdict


def pair():
    a = text_report("a1", "alpha content", title="FooServ 1.0 - RCE")
    b = text_report("b1", "beta content", title="FooServ 1.1 - DoS")
    return a, b


def test_classifier_service_roundtrip(service):
    service.script = lambda payload: (200, {"same": True, "confidence": 0.91})
    client = ExternalPairClassifier(service.url, fallback=StubClassifier())
    a, b = pair()
    assert client.classify(a, b) == (True, 0.91)
    assert client.degraded == []
    assert service.requests == [
        {
            "title_a": "FooServ 1.0 - RCE",
            "content_a": "alpha content",
            "title_b": "FooServ 1.1 - DoS",
            "content_b": "beta content",
        }
    ]


def test_classifier_request_carries_the_training_sample_texts(service):
    service.script = lambda payload: (200, {"same": True, "confidence": 0.91})
    a, b = (replace(r, cve_ids=("CVE-2020-0001",)) for r in pair())
    ExternalPairClassifier(service.url, fallback=StubClassifier()).classify(a, b)
    [sample] = build_pair_training_set(Corpus([a, b]), n_pos=1, n_neg=0)
    [request] = service.requests
    assert request == {key: sample[key] for key in request}
    assert sorted(request) == ["content_a", "content_b", "title_a", "title_b"]


def test_classifier_service_confidence_out_of_range(service):
    service.script = lambda payload: (200, {"same": True, "confidence": 1.5})
    fallback = StubClassifier()
    client = ExternalPairClassifier(service.url, fallback=fallback)
    a, b = pair()
    assert client.classify(a, b) == (False, 0.25)
    assert client.degraded == [("a1", "b1")]
    assert fallback.calls == [("a1", "b1")]


@pytest.mark.parametrize(
    "body",
    [{"same": "no", "confidence": 0.9}, {"same": True, "confidence": True}, [1]],
    ids=["same-string", "confidence-bool", "list"],
)
def test_classifier_service_verdict_out_of_contract(service, body):
    service.script = lambda payload: (200, body)
    client = ExternalPairClassifier(service.url, fallback=StubClassifier())
    a, b = pair()
    assert client.classify(a, b) == (False, 0.25)
    assert client.degraded == [("a1", "b1")]


@pytest.mark.parametrize("value", _NON_JSON, ids=_NON_JSON_IDS)
def test_classifier_service_non_json_body(service, value):
    service.script = lambda payload: (200, b'{"same": true, "confidence": 0.9, "x": %s}' % value)
    fallback = StubClassifier()
    client = ExternalPairClassifier(service.url, fallback=fallback)
    a, b = pair()
    assert client.classify(a, b) == (False, 0.25)
    assert client.degraded == [("a1", "b1")]
    assert fallback.calls == [("a1", "b1")]


def test_classifier_service_missing_key(service):
    service.script = lambda payload: (200, {"same": True})
    client = ExternalPairClassifier(service.url, fallback=StubClassifier())
    a, b = pair()
    client.classify(a, b)
    assert client.degraded == [("a1", "b1")]


def test_classifier_service_http_error(service):
    service.script = lambda payload: (503, {})
    client = ExternalPairClassifier(service.url, fallback=StubClassifier())
    a, b = pair()
    client.classify(a, b)
    assert client.degraded == [("a1", "b1")]


def test_classifier_service_unreachable():
    client = ExternalPairClassifier(closed_port_url(), fallback=StubClassifier())
    a, b = pair()
    assert client.classify(a, b) == (False, 0.25)
    assert client.degraded == [("a1", "b1")]


def test_classifier_service_via_classify_pair(service):
    service.script = lambda payload: (200, {"same": False, "confidence": 0.2})
    client = ExternalPairClassifier(service.url, fallback=StubClassifier())
    a, b = pair()
    assert classify_pair(client, a, b) == (False, 0.2)
    # the software-name precondition still applies in front of the service
    stranger = text_report("c1", "gamma", title="Unrelated 9 - RCE")
    with pytest.raises(ValueError):
        classify_pair(client, a, stranger)
    assert len(service.requests) == 1


def test_classifier_service_verdict_links_at_any_confidence(service):
    # a service verdict links the pair whatever its confidence, and the
    # confidence becomes the link's similarity
    service.script = lambda payload: (200, {"same": True, "confidence": 0.2})
    a, b = pair()
    models = ScoringModels()
    client = ExternalPairClassifier(service.url, fallback=HeuristicPairClassifier(models))
    links = build_link_graph(Corpus([a, b]), models, client, CompletionConfig())
    assert [(link.a, link.b, link.basis, link.similarity) for link in links] == [
        ("a1", "b1", None, 0.2)
    ]
    assert client.degraded == []
    assert len(service.requests) == 1


# --- circuit breaker ---------------------------------------------------------------------


def counted_posts(monkeypatch):
    """Count the posts every service client makes, passing each on."""
    import requests

    posts = []
    post = requests.post

    def counted(*args, **kwargs):
        posts.append(kwargs["json"])
        return post(*args, **kwargs)

    monkeypatch.setattr(requests, "post", counted)
    return posts


def pairs(n):
    return [
        (text_report(f"a{i}", "alpha", title="FooServ 1.0"), text_report(f"b{i}", "beta"))
        for i in range(n)
    ]


def test_breaker_stops_a_serial_client_calling_a_dead_service(monkeypatch, caplog):
    posts = counted_posts(monkeypatch)
    fallback = StubClassifier()
    client = ExternalPairClassifier(closed_port_url(), fallback=fallback)
    for a, b in pairs(12):
        assert client.classify(a, b) == (False, 0.25)
    assert len(posts) == BREAKER_LIMIT
    # every pair the breaker skipped is degraded and answered by the fallback
    keys = [(f"a{i}", f"b{i}") for i in range(12)]
    assert client.degraded == fallback.calls == keys
    # one warning per failed call, and one when the breaker trips
    assert len(caplog.records) == BREAKER_LIMIT + 1
    assert caplog.records[-1].getMessage() == (
        f"ExternalPairClassifier stops calling after {BREAKER_LIMIT} failures"
    )


def test_breaker_counts_failures_in_a_row(service):
    # a success between failures resets the count
    answers = iter(
        [(503, {})] * (BREAKER_LIMIT - 1)
        + [(200, {"same": True, "confidence": 0.9})]
        + [(503, {})] * BREAKER_LIMIT
    )
    service.script = lambda payload: next(answers)
    client = ExternalPairClassifier(service.url, fallback=StubClassifier())
    verdicts = [client.classify(a, b) for a, b in pairs(3 * BREAKER_LIMIT)]
    assert len(service.requests) == 2 * BREAKER_LIMIT
    assert verdicts.count((True, 0.9)) == 1
    assert len(client.degraded) == 3 * BREAKER_LIMIT - 1


@pytest.mark.parametrize("jobs", [1, 4])
def test_extract_stage_calls_a_dead_extractor_a_bounded_number_of_times(
    tmp_path, monkeypatch, jobs
):
    from pocfusion.cli import main

    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    argv = ["--config", "demo/config.cfg", "--workspace", str(tmp_path / "ws")]
    for command in ("ingest", "classify", "extract"):
        assert main([command, *argv]) == 0
    plain = (tmp_path / "ws" / "corpus_extracted.jsonl").read_bytes()
    posts = counted_posts(monkeypatch)
    dead = ["--extractor-url", closed_port_url(), "--jobs", str(jobs)]
    assert main(["extract", *argv, *dead]) == 0
    # a serial stage posts until the breaker trips; each other worker can
    # have one call in flight when it does
    if jobs == 1:
        assert len(posts) == BREAKER_LIMIT
    assert BREAKER_LIMIT <= len(posts) <= BREAKER_LIMIT + jobs - 1
    manifest = json.loads((tmp_path / "ws" / "manifests" / "extract.json").read_text())
    assert manifest["degraded"] == {"extractor": 20}
    assert (tmp_path / "ws" / "corpus_extracted.jsonl").read_bytes() == plain


# --- import cost -----------------------------------------------------------------------


def test_run_without_services_does_not_import_requests(tmp_path):
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from pocfusion.cli import main\n"
        "argv = ['run-all', '--config', 'demo/config.cfg', '--workspace', sys.argv[1]]\n"
        "assert main(argv) == 0\n"
        "print('requests' in sys.modules)\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("POCFUSION_")}
    env["PYTHONPATH"] = str(root / "src")
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "ws")],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"
