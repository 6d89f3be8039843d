"""One process that sets osir up and times its user operations.

``python3 bench/worker.py JOB.json`` reads a job written by run.py and runs in
the job's work directory. In ``probe`` mode it only measures set-up (import
osir and its CLI, parse the config, start the stub) and prints it. In ``run``
mode it times ``osir run`` (and ``osir eval`` where the workload has gold),
called in-process through the CLI, repeatedly for the job's seconds; with
tracing on, half of the time is traced. It writes what it measured to the
job's result path. Output checks are run.py's job, so this process holds only
what osir and the stub hold, and its peak RSS is theirs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

OUT = "out"


def setup(job: dict):
    """Import osir, parse the config and start the stub: what a run needs
    before its first operation. Returns (osir CLI group, stub or None)."""
    root = Path(job["root"]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import osir.cli
    from osir.config import load_config

    if not Path(osir.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"osir imported from {osir.__file__}, not {root}/src")
    load_config(job["config"])
    stub = None
    if job["stub"] is not None:
        from stub import CompletionStub

        stub = CompletionStub(job["completions"], job["seed"],
                              **job["stub"]).start()
    return osir.cli.main, stub


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _verdict_rows(out: Path) -> int:
    path = out / "verdicts.jsonl"
    if not path.exists():
        return 0
    with path.open(encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    def __init__(self, job: dict, cli, stub):
        import click

        self.job, self.cli, self.stub = job, cli, stub
        self.click_error = click.ClickException
        run_args = [stub.endpoint if a == "ENDPOINT" and stub else a
                    for a in job["run_args"]]
        self.commands = [run_args]
        if job["eval_args"]:
            self.commands.append(job["eval_args"])

    def op(self, tracer=None) -> dict:
        """One user operation; only the CLI calls are inside the timing."""
        out = Path(OUT)
        shutil.rmtree(out, ignore_errors=True)
        if self.stub is not None:
            self.stub.reset()
        error = None
        start = time.perf_counter()
        try:
            for args in self.commands:
                call = (lambda a=args: self.cli.main(a, standalone_mode=False))
                if tracer is None:
                    call()
                else:
                    tracer.span(f"osir {args[0]}", "cli", call)
        except self.click_error as exc:
            error = exc.format_message()
        wall = time.perf_counter() - start
        rep = {"wall_s": wall, "error": error,
               "verdicts": _verdict_rows(out),
               "digests": _digests(out) if out.exists() else {}}
        if self.stub is not None:
            rep["stub"] = {
                "status_counts": {str(k): v for k, v in
                                  sorted(self.stub.status_counts.items())},
                "prompts": len(self.stub.attempts)}
        return rep

    def repeat(self, seconds: float, tracer=None) -> list[dict]:
        reps, start = [], time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.reset()
            reps.append(self.op(tracer))
            if tracer is not None:
                reps[-1]["layers"] = layer_metrics(self.job, tracer,
                                                   reps[-1])
        return reps


def layer_metrics(job: dict, tracer, rep: dict) -> dict:
    """Per-layer numbers of one traced operation."""
    selfs = tracer.self_times()
    c = tracer.counters
    completions = job["articles"] * job["k"]
    backend = [d for name in ("ReplayBackend.complete", "HttpBackend.complete")
               for d in tracer.durations(name)]
    total_self = sum(selfs.values())
    metrics = {
        f"{layer}.self_s": selfs.get(layer, 0.0)
        for layer in ("corpus", "backend", "extraction", "text", "grounding",
                      "scoring", "evaluation", "indicators", "pipeline")
    }
    metrics.update({
        "grounding.self_share": (selfs.get("grounding", 0.0) / total_self
                                 if total_self else 0.0),
        "grounding.calls": tracer.calls("grounding"),
        "grounding.candidates": c.grounding_candidates,
        "grounding.exact_share": (c.grounding_exact / c.grounding_candidates
                                  if c.grounding_candidates else 0.0),
        "text.normalize_calls": c.normalize_calls,
        "text.normalize_chars": c.normalize_chars,
        "extraction.parse_calls_per_completion": c.parse_calls / completions,
        "extraction.format_failures": len(c.format_failures),
        "corpus.truncated_prompts": c.truncated_prompts,
        "corpus.prompt_tokens_p50": (statistics.median(c.prompt_tokens)
                                     if c.prompt_tokens else 0),
        "scoring.match_sets_calls": tracer.calls(name="match_sets"),
        "pipeline.digest_s": sum(tracer.durations("file_digest")),
        "backend.request_ms_p50": _percentile(backend, 50) * 1000,
        "backend.request_ms_p90": _percentile(backend, 90) * 1000,
        "backend.inflight_utilization": sum(backend) / (
            rep["wall_s"] * job["max_in_flight"]),
    })
    return metrics


def micro(job: dict, budget_s: float = 1.0, max_calls: int = 3) -> dict:
    """p50 ms of osir's fuzzy_contains on the workload's own article and
    evidence strings, per (class, length bucket). Calls per cell stop at
    max_calls or once they have taken budget_s. Empty when osir.grounding no
    longer has fuzzy_contains."""
    try:
        from osir.grounding import fuzzy_contains
    except ImportError:
        return {}

    bodies = [json.loads(line)["body_markdown"]
              for line in Path("corpus.jsonl").read_text("utf-8").splitlines()]
    cells: dict[str, list[float]] = {}
    for item in job["micro"]:
        key = f"grounding.fuzzy_contains_ms.{item['class']}.{item['bucket']}"
        times = cells.setdefault(key, [])
        if len(times) >= max_calls or sum(times) >= budget_s * 1000:
            continue
        start = time.perf_counter()
        fuzzy_contains(bodies[item["article"]], item["text"],
                       item["threshold"])
        times.append((time.perf_counter() - start) * 1000)
    return {key: statistics.median(times) for key, times in cells.items()}


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    start = time.perf_counter()
    cli, stub = setup(job)
    setup_s = time.perf_counter() - start
    if job["mode"] == "probe":
        if stub is not None:
            stub.close()
        print(json.dumps({"setup_s": setup_s}))
        return
    try:
        runner = Runner(job, cli, stub)
        runner.op()  # warm-up: lazy imports, page cache, allocator
        seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
        result = {"untraced": runner.repeat(seconds)}
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                result["traced"] = runner.repeat(seconds, tracer)
            finally:
                tracer.uninstall()
            tracer.write(job["trace_path"])
            result["trace_missing"] = tracer.missing
            result["hook_errors"] = dict(tracer.hook_errors)
            result["micro"] = micro(job) if job["micro"] else {}
        if stub is not None:
            Path("served.json").write_text(json.dumps(stub.served), "utf-8")
    finally:
        if stub is not None:
            stub.close()
    Path(job["result"]).write_text(json.dumps(result), "utf-8")


if __name__ == "__main__":
    main()
