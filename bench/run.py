"""Benchmark osir's user operations on seeded workloads.

    python3 bench/run.py --workload score-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                     # every workload, one table

Run from the repository root. Each run generates its workload's inputs from
the seed under ``.bench_work/``, measures set-up in fresh processes, times
``osir run`` (plus ``osir eval`` where there is gold) in a worker process for
the given seconds, checks every artifact against the generator's
expectations, and prints one JSON line last: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
It exits 1 when an output check fails or the run does not finish (a
crashed or overdue worker is reported as a failed run), and 2 when there is
no osir source tree to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
#: Wall-clock allowance of one workload beyond twice its measured seconds:
#: inputs, set-up probes, warm-up, the last operation's overrun and the
#: fuzzy_contains timings.
DEADLINE_MARGIN_S = 90

sys.path.insert(0, str(HERE))
from checks import check_aborted, check_completed  # noqa: E402
from synth import BUCKETS, generate  # noqa: E402
from workloads import OSIR_SETTINGS, WORKLOADS  # noqa: E402

#: Per-layer metrics read from one traced function's calls, arguments or
#: results. They are void (null) when that function is not found or its
#: counting hook fails, so a stale trace list cannot read as a speed-up.
DEPENDS_ON = {
    "normalize_text": ("text.normalize_calls", "text.normalize_chars"),
    "parse_extraction": ("extraction.parse_calls_per_completion",
                         "extraction.format_failures"),
    "build_prompt": ("corpus.truncated_prompts", "corpus.prompt_tokens_p50"),
    "embellishment_reward": ("grounding.candidates", "grounding.exact_share"),
    "match_sets": ("scoring.match_sets_calls",),
    "file_digest": ("pipeline.digest_s",),
    "ReplayBackend.complete": ("backend.request_ms_p50",
                               "backend.request_ms_p90",
                               "backend.inflight_utilization"),
    "HttpBackend.complete": ("backend.request_ms_p50",
                             "backend.request_ms_p90",
                             "backend.inflight_utilization"),
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _tree_digest() -> str:
    """Digest of the code whose outputs are compared across runs."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "requests": importlib.metadata.version("requests"),
            "platform": platform.platform()}


def _worker(job: dict, work: Path, deadline: float,
            stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    path = work / f"job-{job['mode']}.json"
    path.write_text(json.dumps(job), "utf-8")
    with (work / "worker.log").open("a", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), path.name], cwd=work,
                stdout=stdout, stderr=log, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc = None
    if proc is None or proc.returncode != 0:
        log_text = (work / "worker.log").read_text("utf-8")[-3000:]
        how = "overran the deadline" if proc is None else (
            f"exited {proc.returncode}")
        raise WorkerFailed(f"{job['mode']} worker {how}:\n{log_text}")
    return proc


class WorkerFailed(RuntimeError):
    """A worker process crashed or overran the run's deadline."""


def _cli_args(w) -> tuple[list[str], list[str]]:
    """The osir run and osir eval arguments of one operation. The worker
    replaces ENDPOINT with the stub's address."""
    k = w.synth.k
    run_args = ["run", "--corpus", "corpus.jsonl", "--out", "out",
                "--samples", str(k), "--config", "osir_config.json",
                "--backend", w.backend]
    if w.backend == "replay":
        run_args += ["--fixture", "completions_source.jsonl"]
    else:
        run_args += ["--endpoint", "ENDPOINT"]
    if w.synth.gold:
        run_args += ["--gold", "gold.jsonl"]
    eval_args = []
    if w.evaluate:
        eval_args = ["eval", "--completions", "out/completions.jsonl",
                     "--gold", "gold.jsonl", "--samples", str(k),
                     "--out", "out/report.json"]
    return run_args, eval_args


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run one workload in a fresh work directory; returns (result line,
    details)."""
    work = WORK / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(name: str, seed: int, seconds: int, trace: bool,
             work: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + 2 * seconds + DEADLINE_MARGIN_S
    w = WORKLOADS[name]
    expected = generate(w.synth, seed, work, name)
    config_path = work / "osir_config.json"
    config = json.loads(config_path.read_text("utf-8"))
    config.update(OSIR_SETTINGS)
    config_path.write_text(json.dumps(config, sort_keys=True), "utf-8")

    job = {"root": str(ROOT), "seed": seed, "config": "osir_config.json",
           "completions": "completions_source.jsonl",
           "stub": asdict(w.stub) if w.stub else None}
    probes = []
    for _ in range(SETUP_PROBES):
        proc = _worker({**job, "mode": "probe"}, work, deadline)
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    run_args, eval_args = _cli_args(w)
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    job.update(mode="run", seconds=seconds, trace=trace, run_args=run_args,
               eval_args=eval_args, articles=w.synth.articles, k=w.synth.k,
               max_in_flight=OSIR_SETTINGS["max_in_flight"],
               result="result.json",
               trace_path=str(trace_dir / f"{name}-s{seed}.jsonl"),
               micro=expected["micro"] if trace else [])
    _worker(job, work, deadline, stdout=subprocess.DEVNULL)
    result = json.loads((work / "result.json").read_text("utf-8"))

    reps = result["untraced"] + result.get("traced", [])
    problems = _check(work, expected, w, reps[-1])
    problems += _check_digests(name, seed, reps, w.backend == "http")
    articles = w.synth.articles
    untraced = result["untraced"]
    walls = [r["wall_s"] for r in untraced]
    metrics = {
        "ms_per_article": statistics.median(walls) / articles * 1000,
        "setup_s": statistics.median(probes),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if trace:
        metrics = _layer_metrics(result, articles, bool(expected["micro"]))
    units = {m["name"]: m["unit"] for m in
             _spec()["per_layer" if trace else "end_to_end"]}
    line = {
        "correct": not problems,
        "attempted": articles * len(reps),
        "failed": sum(articles - r["verdicts"] for r in reps),
        "metrics": {m: {"value": metrics[m], "unit": u}
                    for m, u in units.items()},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": _machine(), "problems": problems,
        "setup_probes_s": probes, "untraced_wall_s": walls,
        "traced_wall_s": [r["wall_s"] for r in result.get("traced", [])],
        "errors": sorted({r["error"] for r in reps if r["error"]}),
        "stub": reps[-1].get("stub"), "digests": reps[-1]["digests"],
        "trace_missing": result.get("trace_missing", []),
        "hook_errors": result.get("hook_errors", {}),
    }
    return line, details


def _check(work: Path, expected: dict, w, last: dict) -> list[str]:
    out = work / "out"
    try:
        if last["error"] is not None:
            return check_aborted(out, expected, last["error"],
                                 last["stub"]["status_counts"] if "stub" in last
                                 else {})
        served = None
        if w.backend == "http":
            served = json.loads((work / "served.json").read_text("utf-8"))
        return check_completed(out, expected, w.evaluate, served)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"malformed artifact: {type(exc).__name__}: {exc}"]


def _check_digests(name: str, seed: int, reps: list[dict],
                   http: bool) -> list[str]:
    """Artifacts must be byte-identical across the operations of this run and
    across runs of the same seed on the same code. The HTTP workload's
    manifest embeds the stub's ephemeral port (through the config digest), so
    it is left out there."""
    def comparable(rep):
        d = dict(rep["digests"])
        if http:
            d.pop("manifest.json", None)
        return d

    first = comparable(reps[0])
    problems = [f"artifacts of operation {i} differ from operation 0"
                for i, rep in enumerate(reps) if comparable(rep) != first]
    store = WORK / "digests" / f"{name}-s{seed}-{_tree_digest()[:16]}.json"
    if store.exists():
        if json.loads(store.read_text("utf-8")) != first:
            problems.append(f"artifacts differ from an earlier run of seed "
                            f"{seed} ({store.name})")
    elif not problems:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(first, sort_keys=True), "utf-8")
    return problems


def _layer_metrics(result: dict, articles: int, micro: bool) -> dict:
    traced = result["traced"]
    untraced = result["untraced"]
    metrics = {key: statistics.median(r["layers"][key] for r in traced)
               for key in traced[0]["layers"]}
    metrics["articles_per_s"] = statistics.median(
        r["verdicts"] / r["wall_s"] for r in untraced)
    metrics["failed_ratio"] = sum(articles - r["verdicts"] for r in untraced) / (
        articles * len(untraced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in untraced)
        / statistics.median(r["wall_s"] for r in traced))
    stub = untraced[-1].get("stub")
    counts = stub["status_counts"] if stub else {}
    requests = sum(counts.values())
    metrics["backend.requests"] = requests
    metrics["backend.retries"] = requests - (stub["prompts"] if stub else 0)
    metrics["backend.failed_requests.429"] = counts.get("429", 0)
    metrics["backend.failed_requests.503"] = counts.get("503", 0)
    metrics["backend.failed_requests.other"] = sum(
        v for k, v in counts.items() if k not in ("200", "429", "503"))
    for cls in ("exact", "near", "absent"):
        for bucket in BUCKETS:
            key = f"grounding.fuzzy_contains_ms.{cls}.{bucket}"
            metrics[key] = result["micro"].get(key, None if micro else 0.0)
    for name in _stale_functions(result):
        for key in DEPENDS_ON.get(name.split(": ")[0], ()):
            metrics[key] = None
    for entry in result.get("trace_missing", []):
        layer = entry.split(".")[0]
        metrics[f"{layer}.self_s"] = None
        if layer == "grounding":
            metrics["grounding.calls"] = metrics["grounding.self_share"] = None
    return metrics


def _stale_functions(result: dict) -> list[str]:
    """Traced functions not found ("layer.name" -> "name") or whose counting
    hook failed ("name: ExceptionType")."""
    missing = [m.split(".", 1)[1] for m in result.get("trace_missing", [])]
    return missing + list(result.get("hook_errors", {}))


def _failed_line(name: str, trace: bool, problem: str) -> tuple[dict, dict]:
    """The result of a run that did not finish: every article failed and no
    metric was measured."""
    articles = WORKLOADS[name].synth.articles
    units = {m["name"]: m["unit"] for m in
             _spec()["per_layer" if trace else "end_to_end"]}
    line = {"correct": False, "attempted": articles, "failed": articles,
            "metrics": {m: {"value": None, "unit": u}
                        for m, u in units.items()}}
    return line, {"workload": name, "problems": [problem]}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "osir" / "__init__.py").is_file():
        print(f"no osir source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds or _spec()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            line, details = run_workload(name, args.seed, seconds,
                                         bool(args.trace))
        except WorkerFailed as exc:
            line, details = _failed_line(name, bool(args.trace), str(exc))
        print(json.dumps(details, sort_keys=True))
        for metric, m in line["metrics"].items():
            value = "void" if m["value"] is None else f"{m['value']:.6g}"
            print(f"# {name:16s} {metric:44s} {value:>14s} {m['unit']}")
        for problem in details["problems"]:
            print(f"# {name:16s} PROBLEM {problem}")
        for stale in details.get("trace_missing", []):
            print(f"# {name:16s} NOT TRACED {stale} (not found)")
        for stale, count in details.get("hook_errors", {}).items():
            print(f"# {name:16s} NOT TRACED {stale} ({count} hook errors)")
        lines[name] = line
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{n}.{m}": v for n, line in lines.items()
                        for m, v in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
