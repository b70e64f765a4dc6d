"""Benchmark of the pocfusion pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload prose-cve --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times ``pocfusion run-all`` children one after another
(a closed loop with one client) for ``--seconds`` and prints the end-to-end
metrics. With ``--trace 1`` it runs the stages in process under the span
wrappers of ``tracing.py`` and prints the per-layer metrics. Every run checks
the pipeline's outputs. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 bench/run.py --all`` runs every workload in both modes and writes
``bench/results/BENCH_<label>.json`` together with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5
# a child still running after this long is killed and counted as failed;
# it keeps a run inside its 180-second limit
CHILD_TIMEOUT_S = 60.0
# fresh interpreter -> CLI imported -> signature table loaded: the fixed
# cost every CLI invocation pays before its first stage
SETUP_CODE = (
    "import pocfusion.cli\n"
    "from pocfusion.classify import detect_language\n"
    "detect_language('x')\n"
)

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "reports_per_s": "reports/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "link_precision": "ratio",
    "link_recall": "ratio",
    "fill_accuracy": "ratio",
    "aspect_coverage": "ratio",
    "success_rate": "ratio",
}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    warnings: int


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn_and_wait(argv: list[str], cwd: Path, stderr_path: Path | None) -> Child:
    """Run one child to its end and account for it alone.

    CPU time and peak RSS come from ``os.wait4`` on this child's pid; the
    ``RUSAGE_CHILDREN`` totals would mix in every child reaped before it.
    """
    err = stderr_path.open("wb") if stderr_path else subprocess.DEVNULL
    try:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=_child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (proc.pid,))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stderr_path:
            err.close()
    warnings = 0
    if stderr_path:
        with stderr_path.open("rb") as handle:
            warnings = sum(line.startswith(b"WARNING") for line in handle)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        warnings=warnings,
    )


def run_pipeline(work: Path, ws_name: str) -> Child:
    """One ``pocfusion run-all`` child over the corpus generated in ``work``."""
    return _spawn_and_wait(
        [sys.executable, "-m", "pocfusion.cli", "run-all",
         "--config", "config.cfg", "--workspace", ws_name],
        work, work / f"{ws_name}.stderr",
    )


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _prepare(workload: str, seed: int, mode: str) -> tuple[Path, dict]:
    from generate import WORKLOADS, generate

    work = WORK / f"{workload}-seed{seed}-{mode}"
    if work.exists():
        shutil.rmtree(work)
    truth = generate(WORKLOADS[workload], seed, work)
    return work, truth


def evaluate_child(child: Child, ws: Path, reference: dict[str, str]) -> list[str]:
    """Failed checks of one ``run-all`` child; the run failed unless empty."""
    return ["exit"] if child.code != 0 else _check_outputs(ws, reference)


def _check_outputs(ws: Path, reference: dict[str, str]) -> list[str]:
    """Failed output checks of one finished workspace.

    ``reference`` holds the links and records digests of the first workspace
    of this invocation that passed; it is filled by that workspace, and every
    later one must reproduce it. It lives in memory only, so a run compares
    the code under test with itself, never with an earlier commit.
    """
    import checks
    from pocfusion.cli import PipelineConfig

    defaults = PipelineConfig()
    problems = checks.check_workspace(ws, defaults.code_threshold, defaults.text_threshold)
    if not problems:
        digests = checks.output_digests(ws)
        if not reference:
            reference.update(digests)
        elif digests != reference:
            problems.append("determinism")
    return problems


def timed_run(workload: str, seed: int, seconds: float, reference: dict[str, str]) -> dict:
    """Closed loop of ``run-all`` children for ``seconds``; end-to-end metrics."""
    import checks

    work, truth = _prepare(workload, seed, "timed")
    setup: list[float] = []
    failures: Counter = Counter()

    def measure_setup() -> None:
        child = _spawn_and_wait([sys.executable, "-c", SETUP_CODE], work, None)
        setup.append(child.wall_s)
        if child.code != 0:
            failures["setup"] += 1

    children: list[Child] = []
    quality = None
    started = time.perf_counter()
    while not children or time.perf_counter() - started < seconds:
        # set-up samples interleave with the pipelines, so both see the
        # same machine conditions
        measure_setup()
        ws_name = f"ws{len(children)}"
        child = run_pipeline(work, ws_name)
        children.append(child)
        problems = evaluate_child(child, work / ws_name, reference)
        if problems:
            failures.update(problems)
            failures["failed_runs"] += 1
            print(f"run {ws_name}: failed checks {problems}", file=sys.stderr)
        elif quality is None:
            quality = checks.quality(work / ws_name, truth)
        shutil.rmtree(work / ws_name, ignore_errors=True)
    while len(setup) < SETUP_SAMPLES:
        measure_setup()

    ok = [c for c in children if c.code == 0]
    basis = ok or children
    # Times are means over the run's children, not medians: the machine's
    # speed switches between states lasting tens of seconds, and a median
    # snaps to whichever state held most of the run, while the mean weighs
    # each by its share of the run (see README, "Run-to-run spread").
    pipeline_s = statistics.fmean(c.wall_s for c in basis)
    attempted = len(children)
    failed = failures["failed_runs"]
    metrics = {
        "pipeline_s": pipeline_s,
        "reports_per_s": len(truth["reports"]) / pipeline_s,
        "cpu_s": statistics.fmean(c.cpu_s for c in basis),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in basis),
        "setup_s": statistics.median(setup),
        **(quality or dict.fromkeys(("link_precision", "link_recall", "fill_accuracy", "aspect_coverage"), 0.0)),
        "success_rate": 1.0 - failed / attempted,
    }
    return {
        "correct": failed == 0 and not failures["setup"] and quality is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS},
        "detail": {
            "reports": len(truth["reports"]),
            "error_rate": failed / attempted,
            "failed_checks": dict(failures),
            "pipeline_s_samples": [c.wall_s for c in children],
            "setup_s_samples": setup,
            "child_warnings": [c.warnings for c in children],
        },
    }


# per-layer metrics whose value is a time, or derived from one; the others
# are counts that must repeat exactly across traced runs of one seed
_TIMED_UNITS = ("s", "us")


def traced_run(workload: str, seed: int, seconds: float, reference: dict[str, str]) -> dict:
    """In-process traced pipeline runs for ``seconds``; per-layer metrics."""
    from pocfusion import cli
    from tracing import layer_metrics, traced_pipeline

    work, _truth = _prepare(workload, seed, "traced")
    runs: list[dict] = []
    failures: Counter = Counter()
    attempted = 0
    tracer = None
    previous_cwd = os.getcwd()
    os.chdir(work)
    try:
        started = time.perf_counter()
        while attempted == 0 or time.perf_counter() - started < seconds:
            ws_name = f"ws{attempted}"
            attempted += 1
            args = cli.build_parser().parse_args(
                ["run-all", "--config", "config.cfg", "--workspace", ws_name]
            )
            try:
                tracer = traced_pipeline(cli.resolve_config(args), f"{workload}:{seed}:{ws_name}")
            except Exception:  # a failing pipeline is a failed run, not a crash of the benchmark
                traceback.print_exc()
                failures["failed_runs"] += 1
                continue
            problems = _check_outputs(work / ws_name, reference)
            metrics = layer_metrics(tracer)
            if runs and any(
                unit not in _TIMED_UNITS and value != runs[0][name][0]
                for name, (value, unit) in metrics.items()
            ):
                problems.append("counts")
            if problems:
                failures.update(problems)
                failures["failed_runs"] += 1
                print(f"traced {ws_name}: failed checks {problems}", file=sys.stderr)
            runs.append(metrics)
            shutil.rmtree(work / ws_name, ignore_errors=True)
    finally:
        os.chdir(previous_cwd)
    if tracer is not None:
        tracer.write(work / "trace.jsonl")

    out = {}
    for name, (value, unit) in (runs[0].items() if runs else ()):
        if unit in _TIMED_UNITS:
            value = statistics.median(r[name][0] for r in runs)
        out[name] = {"value": value, "unit": unit}
    failed = failures["failed_runs"]
    return {
        "correct": failed == 0 and bool(runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
        "detail": {"traced_runs": len(runs), "failed_checks": dict(failures)},
    }


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def _print_metrics(title: str, result: dict) -> None:
    print(f"# {title}: attempted {result['attempted']}, failed {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")


def run_all(seed: int, seconds: float, label: str) -> int:
    from generate import WORKLOADS

    report = {"label": label, "seed": seed, "seconds": seconds, "machine": machine(), "workloads": {}}
    print(json.dumps(report["machine"]))
    ok = True
    for name in WORKLOADS:
        # the traced run must reproduce the untraced children's outputs
        reference: dict[str, str] = {}
        timed = timed_run(name, seed, seconds, reference)
        traced = traced_run(name, seed, seconds, reference)
        _print_metrics(f"{name} end to end", timed)
        print(f"  {'error_rate':34s} {timed['detail']['error_rate']:>14.6g} ratio")
        _print_metrics(f"{name} per layer", traced)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        stage_sum = layer.get("cli.stage_sum_s", 0.0)
        link_s = layer.get("cli.link_s", 0.0)
        shape = {
            "untraced_pipeline_s": timed["metrics"]["pipeline_s"]["value"],
            "traced_stage_sum_s": stage_sum,
            "link_share_of_stages": link_s / stage_sum if stage_sum else 0.0,
            "train_share_of_link": layer.get("similarity.train_s", 0.0) / link_s if link_s else 0.0,
        }
        print("  " + json.dumps(shape))
        report["workloads"][name] = {"end_to_end": timed, "per_layer": traced, "shape": shape}
        ok = ok and timed["correct"] and traced["correct"]
    out = HERE / "results" / f"BENCH_{label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    from generate import WORKLOADS

    parser = argparse.ArgumentParser(description="pocfusion pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--label", default="local", help="results file label for --all")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload is required unless --all is given")
    if not (SRC / "pocfusion" / "cli.py").is_file():
        print(f"error: no pocfusion sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.all:
        return run_all(args.seed, args.seconds, args.label)
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, {})
    else:
        result = timed_run(args.workload, args.seed, args.seconds, {})
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed, **result["detail"]}))
    _print_metrics(args.workload, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
