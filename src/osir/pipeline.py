"""The indicator pipeline, one function per stage, with a digest manifest.

ingest -> prompt -> complete -> parse -> (score) -> verdicts -> aggregate.
Each stage is a function over in-memory values, paired with the writer of its
artifact, and fails with a PipelineError that names the stage. run_pipeline
chains the stages in one process and passes values from one to the next:
each completion is parsed once, and the files are outputs, not inputs. The
`extract`, `score` and `aggregate` subcommands call the same functions on
artifacts read back from disk, so running them in turn writes the same bytes
as `osir run`. Replay-mode runs are bit-reproducible: identical inputs and
config produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from .backend import make_backend
from .config import PipelineConfig
from .corpus import (
    PROMPT_TEMPLATE_VERSION,
    Article,
    PreparedPrompt,
    build_prompt,
    load_corpus,
)
from .evaluation import SampleSet, group_samples
from .extraction import (
    GoldAnnotation,
    ParseOutcome,
    RawCompletion,
    load_gold,
    parse_extraction,
    save_completions,
    save_records,
)
from .indicators import (
    ArticleVerdict,
    IndicatorRow,
    accession_stats,
    aggregate_by,
    resolve_verdict,
    save_indicator_rows,
    save_summary,
    save_verdicts,
    trace_coverage,
)
from .jsonl import field_dict, write_json, write_jsonl
from .scoring import outcome_reward

#: One parsed sample: (article_id, sample_index, outcome).
Parsed = tuple[str, int, ParseOutcome]

#: The samples of an article that has none, so that its verdict is unresolved.
NO_SAMPLES = (ParseOutcome(status="format_failure",
                           failure_reason="no parsed samples"),)


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str, article_id: str | None = None):
        self.stage = stage
        self.article_id = article_id
        where = f"stage {stage!r}"
        if article_id is not None:
            where += f", article {article_id!r}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class StageOutput:
    name: str
    paths: tuple[str, ...]  # relative to the manifest's directory
    digests: tuple[str, ...]


@dataclass(frozen=True)
class PipelineManifest:
    corpus_path: str
    corpus_digest: str
    gold_path: str | None
    gold_digest: str | None
    config_digest: str
    prompt_template_version: str
    stages: tuple[StageOutput, ...]


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_digest(config: PipelineConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def manifest_to_payload(manifest: PipelineManifest) -> dict:
    return {
        "corpus": {"path": manifest.corpus_path, "sha256": manifest.corpus_digest},
        "gold": (None if manifest.gold_path is None else
                 {"path": manifest.gold_path, "sha256": manifest.gold_digest}),
        "config_sha256": manifest.config_digest,
        "prompt_template_version": manifest.prompt_template_version,
        "stages": [
            {"name": s.name,
             "outputs": [{"path": p, "sha256": d}
                         for p, d in zip(s.paths, s.digests)]}
            for s in manifest.stages
        ],
    }


# ---------------------------------------------------------------------------
# Stages and their writers


@contextmanager
def _failing_as(stage: str, article_id: str | None = None):
    """Re-raise any error inside the block as a PipelineError of *stage*."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(stage, str(exc), article_id) from exc


def prompt_stage(articles: list[Article],
                 config: PipelineConfig) -> list[PreparedPrompt]:
    prompts = []
    for article in articles:
        with _failing_as("prompt", article.id):
            prompts.append(build_prompt(article, config.token_budget))
    return prompts


def complete_stage(prompts: list[PreparedPrompt],
                   config: PipelineConfig) -> list[RawCompletion]:
    """samples_per_article completions of every prompt, with at most
    max_in_flight requests at a time, in (article_id, sample_index) order.
    The first failed request aborts the stage."""
    n = config.samples_per_article
    with _failing_as("complete"):
        backend = make_backend(config)
        with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
            batches = list(pool.map(lambda p: backend.complete(p, n), prompts))
    return sorted((c for batch in batches for c in batch),
                  key=lambda c: (c.article_id, c.sample_index))


def parse_stage(completions: list[RawCompletion]) -> list[Parsed]:
    """Each completion parsed once, keyed by (article_id, sample_index)."""
    return [(c.article_id, c.sample_index, parse_extraction(c))
            for c in completions]


def save_parsed(parsed: list[Parsed], path: str | Path) -> None:
    """The records of the samples that parsed (records.jsonl)."""
    save_records(((article_id, sample_index, outcome.record)
                  for article_id, sample_index, outcome in parsed
                  if outcome.parsed), path)


def score_stage(parsed: list[Parsed], articles: dict[str, Article],
                gold: dict[str, GoldAnnotation],
                config: PipelineConfig) -> list[dict]:
    """One reward row (rewards.jsonl) per sample, in the order given."""
    thresholds = config.thresholds()
    rows = []
    for article_id, sample_index, outcome in parsed:
        if article_id not in articles:
            raise PipelineError("score", "unknown article", article_id)
        if article_id not in gold:
            raise PipelineError("score", "no gold annotation", article_id)
        with _failing_as("score", article_id):
            breakdown = outcome_reward(articles[article_id], outcome,
                                       gold[article_id], thresholds,
                                       config.embellishment_mode)
        rows.append({"article_id": article_id, "sample_index": sample_index,
                     **field_dict(breakdown)})
    return rows


def verdict_stage(parsed: list[Parsed],
                  articles: dict[str, Article]) -> list[ArticleVerdict]:
    """One verdict per article, in article-id order. An article without
    samples gets an unresolved verdict; a sample of an article outside
    *articles* fails the stage."""
    sets = {s.article_id: s for s in group_samples(parsed)}
    unknown = sorted(sets.keys() - articles.keys())
    if unknown:
        raise PipelineError("verdicts", "unknown article", unknown[0])
    return [resolve_verdict(sets.get(article_id)
                            or SampleSet(article_id, NO_SAMPLES))
            for article_id in sorted(articles)]


def aggregate_stage(verdicts: list[ArticleVerdict],
                    articles: dict[str, Article], config: PipelineConfig,
                    out_dir: Path) -> list[IndicatorRow]:
    """Write indicators.csv and summary.json under out_dir; return the
    indicator rows."""
    with _failing_as("aggregate"):
        rows = aggregate_by(verdicts, config.group_by, articles)
        trace, accessions = trace_coverage(verdicts), accession_stats(verdicts)
    save_indicator_rows(rows, out_dir / "indicators.csv")
    save_summary(trace, accessions, out_dir / "summary.json")
    return rows


def run_pipeline(
    corpus_path: str | Path,
    out_dir: str | Path,
    config: PipelineConfig,
    gold_path: str | Path | None = None,
) -> PipelineManifest:
    """Run every stage over the corpus and write all artifacts under out_dir.

    Any stage failure aborts with the stage name (and article id where
    known). Returns the manifest, which is also written to
    out_dir/manifest.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stages: list[StageOutput] = []

    def emit(name: str, *paths: Path) -> None:
        stages.append(StageOutput(
            name=name, paths=tuple(str(p.relative_to(out)) for p in paths),
            digests=tuple(file_digest(p) for p in paths)))

    with _failing_as("ingest"):
        articles = load_corpus(corpus_path)
        gold = None if gold_path is None else load_gold(gold_path)
    articles_by_id = {a.id: a for a in articles}

    prompts = prompt_stage(articles, config)
    write_jsonl(out / "prompts.jsonl", map(field_dict, prompts))
    emit("prompt", out / "prompts.jsonl")

    completions = complete_stage(prompts, config)
    save_completions(completions, out / "completions.jsonl")
    emit("complete", out / "completions.jsonl")

    parsed = parse_stage(completions)
    save_parsed(parsed, out / "records.jsonl")
    emit("parse", out / "records.jsonl")

    if gold is not None:
        write_jsonl(out / "rewards.jsonl",
                    score_stage(parsed, articles_by_id,
                                {g.article_id: g for g in gold}, config))
        emit("score", out / "rewards.jsonl")

    verdicts = verdict_stage(parsed, articles_by_id)
    save_verdicts(verdicts, out / "verdicts.jsonl")
    emit("verdicts", out / "verdicts.jsonl")

    aggregate_stage(verdicts, articles_by_id, config, out)
    emit("aggregate", out / "indicators.csv", out / "summary.json")

    manifest = PipelineManifest(
        corpus_path=str(corpus_path),
        corpus_digest=file_digest(corpus_path),
        gold_path=None if gold_path is None else str(gold_path),
        gold_digest=None if gold_path is None else file_digest(gold_path),
        config_digest=config_digest(config),
        prompt_template_version=PROMPT_TEMPLATE_VERSION,
        stages=tuple(stages),
    )
    write_json(out / "manifest.json", manifest_to_payload(manifest))
    return manifest
