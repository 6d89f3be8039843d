"""Span tracer that wraps osir's public functions from outside the package.

Each listed function is looked up once in its layer's module and then
replaced, by object identity, wherever any loaded ``osir.*`` module or class
holds it, so a call keeps its span when a later change moves the call site to
another module. Spans (name, layer, parent, start, end) stay in memory until
the benchmark writes them out. A span opened on a thread with no open span of
its own (a worker of the complete stage) takes the main thread's innermost
open span as its parent.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Layer (module of src/osir) -> public functions traced in it.
LAYER_FUNCTIONS = {
    "corpus": ("load_corpus", "build_prompt", "truncate_middle",
               "save_corpus"),
    "backend": ("make_backend", "complete", "ReplayBackend.complete",
                "HttpBackend.complete"),
    "extraction": ("parse_extraction", "load_completions", "save_completions",
                   "load_records", "save_records", "load_gold", "save_gold"),
    "text": ("normalize_text", "levenshtein", "similarity"),
    "grounding": ("embellishment_reward", "fuzzy_contains", "filter_gold"),
    "scoring": ("total_reward", "accuracy_reward", "match_sets"),
    "evaluation": ("build_sample_sets", "build_eval_report",
                   "evaluate_boolean_field", "evaluate_list_field",
                   "flag_disagreements", "save_report",
                   "render_report_table"),
    "indicators": ("resolve_verdict", "aggregate_by", "trace_coverage",
                   "accession_stats", "save_indicator_rows", "save_summary",
                   "save_verdicts"),
    "pipeline": ("run_pipeline", "file_digest", "config_digest",
                 "manifest_to_payload"),
    # Thin layers: traced so their time is not charged to a caller's layer.
    "config": ("load_config",),
    "identifiers": ("canonicalize_identifier",),
}


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None


@dataclass
class Counters:
    """Counts taken from the arguments and results of traced calls."""

    normalize_calls: int = 0
    normalize_chars: int = 0
    parse_calls: int = 0
    format_failures: set = field(default_factory=set)
    truncated_prompts: int = 0
    prompt_tokens: list = field(default_factory=list)
    grounding_candidates: int = 0
    grounding_exact: int = 0


def _observe(counters: Counters, name: str, args: tuple, result) -> None:
    if name == "normalize_text":
        counters.normalize_calls += 1
        counters.normalize_chars += len(args[0])
    elif name == "parse_extraction":
        counters.parse_calls += 1
        if not result.parsed:
            raw = args[0]
            counters.format_failures.add((raw.article_id, raw.sample_index))
    elif name == "build_prompt":
        counters.truncated_prompts += bool(result.truncated)
        counters.prompt_tokens.append(result.token_count)
    elif name == "embellishment_reward":
        counters.grounding_candidates += result.total_count
        counters.grounding_exact += sum(
            1 for results in result.matches.values() for m in results
            if m.score == 1.0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters = Counters()
        self.missing: list[str] = []
        #: "name: ExceptionType" -> count, over every traced operation.
        self.hook_errors: Counter[str] = Counter()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counters()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = stack[-1] if stack else None
        if parent is None and tid != self._main:
            main_stack = self._stacks.get(self._main) or [None]
            parent = main_stack[-1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, layer, parent, time.perf_counter()))
        stack.append(index)
        return index

    def _close(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        self._stacks[threading.get_ident()].pop()

    def span(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of its own."""
        index = self._open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(index, type(exc).__name__)
            raise
        self._close(index)
        return result

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        short = name.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, layer, fn, *args, **kwargs)
            try:
                _observe(self.counters, short, args, result)
            except (AttributeError, TypeError, IndexError) as exc:
                self.hook_errors[f"{name}: {type(exc).__name__}"] += 1
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever an osir module holds it."""
        wrappers: dict[int, Callable] = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"osir.{layer}")
            for name in names:
                obj = module
                for part in name.split("."):
                    obj = getattr(obj, part, None)
                if not callable(obj):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrappers[id(obj)] = self._wrap(name, layer, obj)
        holders = [m for n, m in list(sys.modules.items())
                   if n == "osir" or n.startswith("osir.")]
        holders += [c for m in holders for c in vars(m).values()
                    if isinstance(c, type)
                    and getattr(c, "__module__", "").startswith("osir")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore = []

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's children."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children[i], key=lambda c: self.spans[c].start):
                lo = max(self.spans[c].start, reach)
                hi = min(self.spans[c].end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.layer] += (s.end - s.start) - covered
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def calls(self, layer: str | None = None, name: str | None = None) -> int:
        return sum(1 for s in self.spans
                   if (layer is None or s.layer == layer)
                   and (name is None or s.name == name))

    def write(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "layer": s.layer,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end, "error": s.error}) + "\n")
