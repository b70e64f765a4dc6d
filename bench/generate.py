"""Seeded synthetic PoC corpus generator with planted ground truth.

A workload is a set of generator properties (see :class:`Workload`). For a
given workload and seed, :func:`generate` writes the pipeline inputs (four
source files, a CVE dump and a config file) into ``<out>/inputs`` and the
planted truth into ``<out>/truth.json``. The program only ever reads the
inputs; the truth stays with the benchmark.

Run ``python3 bench/generate.py --workload prose-cve --seed 1 --out DIR`` to
write one corpus by hand.
"""

from __future__ import annotations

import argparse
import json
import random
import re
from dataclasses import asdict, dataclass
from pathlib import Path

LANGUAGES = (
    "c_cpp", "html", "java", "javascript", "perl", "php", "python", "ruby", "shell",
)

# (config key, file name, source display name, report id prefix)
SOURCES = (
    ("exploitdb", "exploitdb.jsonl", "ExploitDB", "edb"),
    ("packetstorm", "packetstorm.jsonl", "PacketStorm", "ps"),
    ("seebug", "seebug.jsonl", "Seebug", "sb"),
    ("cxsecurity", "cxsecurity.jsonl", "CXSecurity", "cx"),
)

# The five slots whose values belong to the vulnerability rather than to one
# report; fill accuracy is judged on these only.
VULN_SLOTS = ("software_version", "test_platform", "trigger_step", "verification_oracle", "reference")


@dataclass(frozen=True)
class Workload:
    """The input properties the pipeline's cost depends on."""

    name: str
    why: str
    n_vulns: int  # planted vulnerabilities
    group_size: int  # reports describing one duplicated vulnerability
    dup_share: float  # share of vulnerabilities that get group_size reports (others get one)
    text_share: float  # share of vulnerabilities written as prose (others are code)
    block_vulns: int  # vulnerabilities sharing one software name (1 = own name)
    untagged_share: float  # share of reports after a vulnerability's first that carry no CVE id
    report_words: int  # prose body, or vulnerability-specific code notes, in words
    cve_versions: int  # versions listed by each CVE entry
    cve_platforms: int  # platforms listed by each CVE entry
    vocab: int  # pseudo-words available to prose bodies and titles
    languages: tuple[str, ...]  # language mix of code reports, cycled block by block
    block_languages: int  # languages used within one software-name block
    drop_share: float  # share of its optional aspects that each report omits
    word_noise: float  # share of a vulnerability's shared words rewritten in each report
    # Hard cases, so that some pairs score close to the link thresholds.
    # twin_topics: per twin planted in each block and language, how many of
    # its 8 topic words it takes from the vulnerability it mimics
    twin_topics: tuple[int, ...]
    drift_share: float  # share of the reports after a vulnerability's first that drift
    drift: float  # share of a drifting report's shared words rewritten to words of its own


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="prose-cve",
            why=(
                "prose reports in CVE groups of 4: skip-gram training and text-pair "
                "scoring do almost all the work; classifier and per-report stages idle"
            ),
            n_vulns=7, group_size=4, dup_share=1.0, text_share=0.86, block_vulns=1,
            untagged_share=0.1, report_words=40, cve_versions=3, cve_platforms=1,
            vocab=600, languages=("python",), block_languages=1, drop_share=0.35,
            word_noise=0.1, twin_topics=(), drift_share=0.0, drift=0.0,
        ),
        Workload(
            name="code-blocks",
            why=(
                "untagged code duplicates under shared software names: heuristic "
                "classifier, sparse token cosine and the donation pass dominate"
            ),
            n_vulns=90, group_size=5, dup_share=1.0, text_share=0.0, block_vulns=30,
            untagged_share=0.8, report_words=160, cve_versions=3, cve_platforms=1,
            vocab=3000, languages=LANGUAGES, block_languages=3, drop_share=0.35,
            word_noise=0.1, twin_topics=(3, 4, 5), drift_share=0.25, drift=0.45,
        ),
        Workload(
            name="wide-cve",
            why=(
                "one report per software with a rich CVE entry: ingest, classify, "
                "extract, corpus I/O, the CVE pass, hashing and stats dominate"
            ),
            n_vulns=800, group_size=2, dup_share=0.02, text_share=0.005, block_vulns=1,
            untagged_share=0.5, report_words=30, cve_versions=20, cve_platforms=1,
            vocab=20000, languages=LANGUAGES, block_languages=1, drop_share=0.35,
            word_noise=0.1, twin_topics=(), drift_share=0.0, drift=0.0,
        ),
    )
}

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_VULN_TYPES = (
    "Overflow", "Injection", "Traversal", "Bypass", "Disclosure", "Escalation",
    "Corruption", "Forgery", "Crash", "Leak", "Hijack", "Deserialization",
)
_PLATFORMS = ("Linux", "Windows", "FreeBSD", "macOS", "Android", "OpenBSD", "Solaris")

# Code templates, one per language; @@name@@ marks a substitution. Each is
# recognised as its language by the bundled signature table.
_CODE_TEMPLATES = {
    "c_cpp": """#include <stdio.h>
#include <string.h>
#include <sys/socket.h>

#define @@V1@@_LEN @@n@@

struct @@v1@@_packet {
    char @@v2@@[@@n@@];
    int @@v3@@;
};

int main(int argc, char **argv) {
    char buf[@@n@@];
    memset(buf, 0x41, sizeof(buf));
    strcpy(buf, "@@v4@@ /@@path@@");
    printf("sending %zu bytes to @@host@@:@@port@@\\n", sizeof(buf));
    return 0;
}
""",
    "html": """<!DOCTYPE html>
<html>
<head><title>@@v1@@ check</title></head>
<body>
<form action="http://@@host@@:@@port@@/@@path@@" method="POST">
<input type="hidden" name="@@v2@@" value="@@v3@@" />
<input type="hidden" name="@@v4@@" value="@@n@@" />
</form>
<script>document.forms[0].submit();</script>
</body>
</html>
""",
    "java": """import java.io.OutputStream;
import java.net.Socket;

public class @@V1@@Exploit {
    public static void main(String[] args) throws Exception {
        Socket s = new Socket("@@host@@", @@port@@);
        OutputStream out = s.getOutputStream();
        StringBuilder @@v2@@ = new StringBuilder();
        for (int i = 0; i < @@n@@; i++) { @@v2@@.append("A"); }
        out.write(("@@v3@@ /@@path@@ " + @@v2@@ + "\\r\\n").getBytes());
        System.out.println("sent @@v4@@");
        s.close();
    }
}
""",
    "javascript": """const http = require('http');
const @@v1@@ = 'A'.repeat(@@n@@);

function @@v2@@(path) {
  const options = { host: '@@host@@', port: @@port@@, path: '/' + path, method: 'GET' };
  const req = http.request(options, (res) => {
    console.log('status', res.statusCode);
  });
  req.end();
}

@@v2@@('@@path@@?@@v3@@=' + @@v1@@ + '&@@v4@@=1');
""",
    "perl": """use strict;
use warnings;
use IO::Socket::INET;

my $@@v1@@ = "A" x @@n@@;
my $sock = IO::Socket::INET->new(PeerAddr => "@@host@@", PeerPort => @@port@@) or die "connect";
sub @@v2@@ {
    my $data = shift;
    print $sock "@@v3@@ /@@path@@ $data\\r\\n";
}
@@v2@@($@@v1@@ . "@@v4@@");
close($sock);
""",
    "php": """$@@v1@@ = $_GET['@@v2@@'];
$url = "http://@@host@@:@@port@@/@@path@@?@@v3@@=" . str_repeat("A", @@n@@);
$resp = file_get_contents($url);
if (preg_match('/@@v4@@/', $resp)) {
    echo "vulnerable\\n";
}
?>
""",
    "python": """import socket

def @@v1@@(size):
    return b"A" * size + b"@@v2@@"

def main():
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.connect(("@@host@@", @@port@@))
    s.send(b"@@v3@@ /@@path@@ " + @@v1@@(@@n@@))
    print("sent @@v4@@")

if __name__ == "__main__":
    main()
""",
    "ruby": """require 'net/http'

def @@v1@@(path)
  uri = URI("http://@@host@@:@@port@@/" + path)
  Net::HTTP.get(uri)
end

[@@n@@, 1].each do |n|
  puts @@v1@@("@@path@@?@@v2@@=" + "A" * n)
end
puts "@@v3@@ @@v4@@"
""",
    "shell": """TARGET="@@host@@"
PORT=@@port@@
@@V1@@=$(printf 'A%.0s' $(seq 1 @@n@@))
if [ -z "$TARGET" ]; then
  exit 1
fi
for i in 1 2 3; do
  curl -s "http://$TARGET:$PORT/@@path@@?@@v2@@=$@@V1@@&@@v3@@=$i"
done
echo -n "@@v4@@"
""",
}

# First line before the comment header, the comment prefix and suffix, and
# the prefix of note lines. HTML notes are plain text: a comment's dashes
# would outweigh the words in the token vector.
_CODE_FRAMING = {
    "c_cpp": ("", "//", "", "// "),
    "html": ("", "<!--", " -->", ""),
    "java": ("", "//", "", "// "),
    "javascript": ("", "//", "", "// "),
    "perl": ("#!/usr/bin/perl\n", "#", "", "# "),
    "php": ("<?php\n", "//", "", "// "),
    "python": ("#!/usr/bin/env python3\n", "#", "", "# "),
    "ruby": ("#!/usr/bin/env ruby\n", "#", "", "# "),
    "shell": ("#!/bin/bash\n", "#", "", "# "),
}


def _pseudo_words(rng: random.Random, count: int, syllables: tuple[int, int]) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < count:
        n = rng.randint(*syllables)
        words.setdefault(
            "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n)), None
        )
    return list(words)


def _zipf_weights(n: int) -> list[float]:
    # cumulative 1/rank weights, so a few words are common as in real prose
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank
        out.append(total)
    return out


def _report_core(
    w: Workload, rng: random.Random, vocab: list[str], identifiers: int, topic: list[str]
) -> list[str]:
    """Words shared by every report of one vulnerability.

    Prose mixes common words with a few topic words that set one
    vulnerability's description apart. Code gets ``identifiers`` names for
    the template plus notes made of its topic words only, each as often, so
    that PoCs built on one template still differ by vulnerability, and a
    twin sharing k of the 8 topic words scores the same for every seed.
    """
    if identifiers:
        notes = [topic[k % len(topic)] for k in range(w.report_words)]
        rng.shuffle(notes)
        return rng.sample(vocab, identifiers) + notes
    common = rng.choices(vocab, cum_weights=_zipf_weights(len(vocab)), k=w.report_words)
    return [rng.choice(topic) if rng.random() < 0.3 else word for word in common]


def _substitute(template: str, values: dict[str, str]) -> str:
    for key, value in values.items():
        template = template.replace(f"@@{key}@@", value)
    return template


@dataclass
class _Vuln:
    index: int
    kind: str  # "text" or "code:<lang>"
    software: str
    cve_id: str
    versions: list[str]
    platforms: list[str]
    vuln_type: str
    component: str
    reference: str
    host: str  # target address in the code templates
    topic: list[str]  # words that set this vulnerability's reports apart
    words: list[str]  # prose core (text), or template identifiers then notes (code)
    steps: list[str]
    oracle: str


def _make_vulns(w: Workload, rng: random.Random, vocab: list[str]) -> list[_Vuln]:
    n_code = round(w.n_vulns * (1.0 - w.text_share))
    # prose first, then code, so that a block holds one kind where it can
    kinds = ["text"] * (w.n_vulns - n_code) + ["code"] * n_code
    n_blocks = -(-w.n_vulns // w.block_vulns)
    names: dict[str, None] = {}
    while len(names) < n_blocks:
        names.setdefault(rng.choice(vocab).capitalize(), None)
    software = list(names)
    vulns = []
    lang_offset = rng.randrange(len(w.languages))
    for index, kind in enumerate(kinds):
        if kind == "code":
            block, position = divmod(index, w.block_vulns)
            slot = block * w.block_languages + position % w.block_languages
            kind = "code:" + w.languages[(lang_offset + slot) % len(w.languages)]
        # wide ranges, so that a value donated across a wrong link is
        # seldom right by chance
        major = rng.randint(1, 99)
        versions = [f"{major}.{minor}" for minor in range(w.cve_versions)]
        rng.shuffle(versions)
        name = software[index // w.block_vulns]
        slug = name.lower().replace(" ", "-")
        topic = rng.sample(vocab, 8)
        cve_id = f"CVE-{rng.randint(2005, 2024)}-{10000 + index * 13 + rng.randint(0, 12)}"
        vulns.append(
            _Vuln(
                index=index,
                kind=kind,
                software=name,
                cve_id=cve_id,
                versions=versions,
                platforms=[
                    f"{p} {rng.randint(2, 40)}" for p in rng.sample(_PLATFORMS, w.cve_platforms)
                ],
                vuln_type=rng.choice(_VULN_TYPES),
                component=rng.choice(vocab),
                # no CVE id in the URL: the extractor's body scan would tag
                # the untagged duplicates with it
                reference=f"https://{slug}.example/advisories/adv-{rng.randint(100, 999)}-{index}",
                host=f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
                topic=topic,
                words=_report_core(w, rng, vocab, 0 if kind == "text" else 4, topic),
                steps=[
                    f"{rng.choice(vocab)} the {rng.choice(vocab)} {rng.choice(vocab)}"
                    for _ in range(3)
                ],
                oracle=f"the {rng.choice(vocab)} {rng.choice(vocab)} stops responding",
            )
        )
    _plant_twins(w, rng, vocab, vulns)
    return vulns


def _plant_twins(w: Workload, rng: random.Random, vocab: list[str], vulns: list[_Vuln]) -> None:
    """Turn some of each block's vulnerabilities of one kind into near twins of
    another of them: same component and type, so the same title words, and
    ``twin_topics[i]`` of its topic words. Twin and model are of one language,
    so they share a template too. Their reports are the hard negatives of the
    classifier. The twins' overlaps are graded and fixed per block and
    language, so some twins link and some do not, in nearly the same numbers
    for every seed."""
    groups: dict[tuple[int, str], list[_Vuln]] = {}
    for v in vulns:
        groups.setdefault((v.index // w.block_vulns, v.kind), []).append(v)
    for group in groups.values():
        shares = w.twin_topics[: len(group) // 2]
        chosen = rng.sample(group, 2 * len(shares))
        for model, twin, k in zip(chosen[::2], chosen[1::2], shares):
            twin.component, twin.vuln_type = model.component, model.vuln_type
            twin.topic = model.topic[:k] + twin.topic[k:]
            identifiers = 0 if twin.kind == "text" else 4
            twin.words = _report_core(w, rng, vocab, identifiers, twin.topic)


def _drifted(w: Workload, words: list[str], rng: random.Random, vocab: list[str], drifts: bool) -> list[str]:
    """A report's copy of its vulnerability's shared words: ``word_noise``
    of them rewritten at random and, in a drifting report, ``drift`` of them
    rewritten to a topic of the report's own. Drifting reports are the hard
    positives: they still describe their vulnerability, but score lower."""
    words = list(words)
    if drifts:
        # few words, so the report's word vector keeps its weight against
        # the template: the drift lowers its score with its own
        # vulnerability, not with every report of its language
        topic = rng.sample(vocab, 2)
        for k in rng.sample(range(len(words)), round(len(words) * w.drift)):
            words[k] = rng.choice(topic)
    return words


def _title(v: _Vuln, version: str) -> str:
    return f"{v.software} {version} - {v.component} {v.vuln_type}"


def _kept(w: Workload, rng: random.Random, optional: tuple[str, ...]) -> set[str]:
    # a fixed number of omissions per report keeps the work per report, and
    # so the run time, nearly the same from seed to seed
    dropped = round(len(optional) * w.drop_share)
    return set(rng.sample(optional, len(optional) - dropped))


def _prose_report(
    w: Workload, v: _Vuln, rng: random.Random, vocab: list[str], truth: dict, drifts: bool
) -> str:
    kept = _kept(w, rng, ("author", "date", "platform", "version", "steps", "oracle", "reference"))
    version = rng.choice(v.versions)
    lines = [f"Title: {_title(v, version)}"]
    if "author" in kept:
        lines.append(f"Author: {rng.choice(vocab)}")
    if "date" in kept:
        lines.append(f"Date: {rng.randint(2005, 2024)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
    if "platform" in kept:
        platform = rng.choice(v.platforms)
        lines.append(f"Tested on: {platform}")
        truth["test_platform"].add(platform)
    if "version" in kept:
        lines.append(f"Version: {version}")
        truth["software_version"].add(version)
    lines.append("")
    body = [
        rng.choices(vocab, cum_weights=_zipf_weights(len(vocab)))[0]
        if rng.random() < w.word_noise
        else word
        for word in _drifted(w, v.words, rng, vocab, drifts)
    ]
    lines.extend(" ".join(body[i : i + 12]) for i in range(0, len(body), 12))
    if "steps" in kept:
        block = "\n".join(["Steps to reproduce:"] + [f"{i}. {s}" for i, s in enumerate(v.steps, 1)])
        lines += ["", block]
        truth["trigger_step"].add(block)
    if "oracle" in kept:
        block = f"Expected output:\n  {v.oracle}"
        lines += ["", block]
        truth["verification_oracle"].add(block)
    if "reference" in kept:
        lines += ["", f"See {v.reference} for the vendor note."]
        truth["reference"].add(v.reference)
    return "\n".join(lines) + "\n"


def _code_report(
    w: Workload, v: _Vuln, rng: random.Random, vocab: list[str], truth: dict, drifts: bool
) -> str:
    lang = v.kind.split(":", 1)[1]
    first, open_, close, note = _CODE_FRAMING[lang]

    def comment(text: str) -> str:
        return f"{open_} {text}{close}"

    kept = _kept(w, rng, ("author", "platform", "version", "steps", "oracle", "reference"))
    version = rng.choice(v.versions)
    header = [comment(f"Title: {_title(v, version)}")]
    if "author" in kept:
        header.append(comment(f"Author: {rng.choice(vocab)}"))
    if "platform" in kept:
        platform = rng.choice(v.platforms)
        header.append(comment(f"Tested on: {platform}"))
        truth["test_platform"].add(platform)
    if "version" in kept:
        header.append(comment(f"Version: {version}"))
        truth["software_version"].add(version)
    if "steps" in kept:
        line = comment(f"Steps to reproduce: {v.steps[0]} then send the request")
        header.append(line)
        truth["trigger_step"].add(line)
    if "oracle" in kept:
        line = comment(f"Expected output: {v.oracle}")
        header.append(line)
        truth["verification_oracle"].add(line)
    if "reference" in kept:
        header.append(comment(f"See {v.reference}"))
        truth["reference"].add(v.reference)
    notes = [
        rng.choice(vocab) if rng.random() < w.word_noise else x
        for x in _drifted(w, v.words[4:], rng, vocab, drifts)
    ]
    header.extend(note + " ".join(notes[i : i + 8]) for i in range(0, len(notes), 8))
    v1, v2, v3, v4 = v.words[:4]
    body = _substitute(
        _CODE_TEMPLATES[lang],
        {
            "V1": v1.upper(),
            "v1": v1,
            "v2": v2,
            "v3": v3,
            "v4": v4,
            "n": str(rng.choice((256, 512, 1024, 2048, 4096))),
            "host": v.host,
            "port": str(1024 + v.index % 50000),
            "path": v.component,
        },
    )
    # target URLs in the template are the same in every report of the
    # vulnerability, so they are true references of it
    truth["reference"].update(_urls(body))
    return first + "\n".join(header) + "\n" + body


def _urls(text: str) -> list[str]:
    # web URLs with a literal host, as a reader would copy them
    urls = []
    for match in re.finditer(r"\b(?:https?|ftp)://[^\s<>\"']+", text):
        url = match.group(0).rstrip(".,;:!?'\"`)]}>")
        if url.split("://", 1)[1][:1].isalnum():
            urls.append(url)
    return urls


def generate(workload: Workload, seed: int, out: str | Path) -> dict:
    """Write inputs and truth for one workload and seed; return the truth."""
    out = Path(out)
    rng = random.Random(f"{workload.name}:{seed}")
    vocab = _pseudo_words(rng, workload.vocab, (2, 4))
    vulns = _make_vulns(workload, rng, vocab)

    duplicated = set(rng.sample(range(len(vulns)), round(len(vulns) * workload.dup_share)))
    planned: list[tuple[_Vuln, int]] = []  # (vuln, position within its group)
    for v in vulns:
        size = workload.group_size if v.index in duplicated else 1
        planned.extend((v, k) for k in range(size))
    rng.shuffle(planned)
    # the first report of a vulnerability always carries its CVE id
    later = [i for i, (_v, k) in enumerate(planned) if k > 0]
    untagged = set(rng.sample(later, round(len(later) * workload.untagged_share)))
    # the same number of drifting reports in every duplicated vulnerability
    n_drift = round((workload.group_size - 1) * workload.drift_share)
    drifting = {i for i, (_v, k) in enumerate(planned) if 0 < k <= n_drift}

    per_source: list[list[dict]] = [[] for _ in SOURCES]
    report_vuln: dict[str, int] = {}
    vuln_truth = [{slot: set() for slot in VULN_SLOTS} for _ in vulns]
    for seq, (v, k) in enumerate(planned):
        source_index = (v.index + k) % len(SOURCES)
        report_id = f"{SOURCES[source_index][3]}-{seq:06d}"
        report = _prose_report if v.kind == "text" else _code_report
        content = report(workload, v, rng, vocab, vuln_truth[v.index], seq in drifting)
        tagged = seq not in untagged
        per_source[source_index].append(
            {
                "id": report_id,
                "source": SOURCES[source_index][2],
                "content": content,
                "cve_ids": [v.cve_id.removeprefix("CVE-")] if tagged else [],
            }
        )
        report_vuln[report_id] = v.index

    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    config = ["# generated benchmark corpus"]
    for (key, filename, _display, _prefix), records in zip(SOURCES, per_source):
        _write_jsonl(inputs / filename, records)
        config.append(f"source.{key} = inputs/{filename}")
    _write_jsonl(
        inputs / "cve_entries.jsonl",
        [
            {
                "cve_id": v.cve_id,
                "products": [{"name": v.software, "versions": v.versions}],
                "platforms": v.platforms,
            }
            for v in vulns
        ],
    )
    config += ["cve = inputs/cve_entries.jsonl", "seed = 7", "jobs = 1", ""]
    (out / "config.cfg").write_text("\n".join(config), encoding="utf-8")

    truth = {
        "workload": asdict(workload),
        "seed": seed,
        "reports": report_vuln,
        "vulns": [
            {
                "index": v.index,
                "kind": v.kind,
                "software": v.software,
                "cve_id": v.cve_id,
                # CVE completion may add any version or platform of the entry
                "truth": {
                    slot: sorted(
                        vuln_truth[v.index][slot]
                        | (set(v.versions) if slot == "software_version" else set())
                        | (set(v.platforms) if slot == "test_platform" else set())
                    )
                    for slot in VULN_SLOTS
                },
            }
            for v in vulns
        ],
    }
    (out / "truth.json").write_text(
        json.dumps(truth, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return truth


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    truth = generate(WORKLOADS[args.workload], args.seed, args.out)
    print(f"{len(truth['reports'])} reports, {len(truth['vulns'])} vulnerabilities -> {args.out}")


if __name__ == "__main__":
    main()
