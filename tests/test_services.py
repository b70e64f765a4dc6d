"""Both HTTP service contracts, exercised against a local stub server."""

import http.server
import json
import os
import socket
import subprocess
import sys
import threading
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
    SourceId,
    aspect_values,
    build_link_graph,
    classify_pair,
)
from pocfusion.corpus import AspectSet, ContentKind
from pocfusion.extract import DefaultStructuredExtractor, SlotSpan

EDB = SourceId.parse("ExploitDB")


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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
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
        aspects = aspects.with_added("title", aspect_values([title]))
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
    client = ExternalStructuredExtractor(service.url)
    report = text_report("r1", CONTENT)
    extraction = client.extract(report)
    assert extraction.spans["title"] == (
        SlotSpan("Foo Bar", CONTENT.index("Foo Bar"), CONTENT.index("Foo Bar") + 7),
    )
    assert client.degraded_ids == []
    assert service.requests == [{"id": "r1", "content": CONTENT}]


def test_extractor_service_rejects_lying_spans(service):
    # span text does not match the content at [start, end)
    service.script = lambda payload: (200, {"title": [{"text": "Foo Bar", "start": 0, "end": 7}]})
    fallback = StubExtractor()
    client = ExternalStructuredExtractor(service.url, fallback=fallback)
    client.extract(text_report("r1", CONTENT))
    assert client.degraded_ids == ["r1"]
    assert fallback.calls == ["r1"]


def test_extractor_service_rejects_unknown_slot(service):
    service.script = lambda payload: (200, {"severity": [{"text": "E", "start": 0, "end": 1}]})
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    client.extract(text_report("r1", CONTENT))
    assert client.degraded_ids == ["r1"]


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
    assert client.degraded_ids == ["r1"]
    assert fallback.calls == ["r1"]


def test_extractor_service_http_error(service):
    service.script = lambda payload: (500, {"error": "boom"})
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    client.extract(text_report("r1", CONTENT))
    assert client.degraded_ids == ["r1"]


def test_extractor_service_garbage_body(service):
    service.script = lambda payload: (200, b"not json at all")
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    client.extract(text_report("r1", CONTENT))
    assert client.degraded_ids == ["r1"]


@pytest.mark.parametrize("body", [[1], None, "x"], ids=["list", "null", "string"])
def test_extractor_service_non_object_body(service, body):
    service.script = lambda payload: (200, body)
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    client.extract(text_report("r1", CONTENT))
    assert client.degraded_ids == ["r1"]


def test_extractor_service_unreachable():
    client = ExternalStructuredExtractor(closed_port_url(), deadline=2.0)
    report = text_report("r1", CONTENT)
    extraction = client.extract(report)
    assert client.degraded_ids == ["r1"]
    # default fallback is the pattern extractor
    assert extraction == DefaultStructuredExtractor().extract(report)


def test_extractor_service_degrades_per_report(service):
    calls = iter([(500, {}), (200, good_extraction_payload())])
    service.script = lambda payload: next(calls)
    client = ExternalStructuredExtractor(service.url, fallback=StubExtractor())
    client.extract(text_report("bad", CONTENT))
    client.extract(text_report("good", CONTENT))
    assert client.degraded_ids == ["bad"]


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
    assert client.degraded_pairs == []
    assert service.requests == [
        {
            "title_a": "FooServ 1.0 - RCE",
            "content_a": "alpha content",
            "title_b": "FooServ 1.1 - DoS",
            "content_b": "beta content",
        }
    ]


def test_classifier_service_confidence_out_of_range(service):
    service.script = lambda payload: (200, {"same": True, "confidence": 1.5})
    fallback = StubClassifier()
    client = ExternalPairClassifier(service.url, fallback=fallback)
    a, b = pair()
    assert client.classify(a, b) == (False, 0.25)
    assert client.degraded_pairs == [("a1", "b1")]
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
    assert client.degraded_pairs == [("a1", "b1")]


def test_classifier_service_missing_key(service):
    service.script = lambda payload: (200, {"same": True})
    client = ExternalPairClassifier(service.url, fallback=StubClassifier())
    a, b = pair()
    client.classify(a, b)
    assert client.degraded_pairs == [("a1", "b1")]


def test_classifier_service_http_error(service):
    service.script = lambda payload: (503, {})
    client = ExternalPairClassifier(service.url, fallback=StubClassifier())
    a, b = pair()
    client.classify(a, b)
    assert client.degraded_pairs == [("a1", "b1")]


def test_classifier_service_unreachable():
    client = ExternalPairClassifier(closed_port_url(), fallback=StubClassifier(), deadline=2.0)
    a, b = pair()
    assert client.classify(a, b) == (False, 0.25)
    assert client.degraded_pairs == [("a1", "b1")]


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
    assert client.degraded_pairs == []
    assert len(service.requests) == 1


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
