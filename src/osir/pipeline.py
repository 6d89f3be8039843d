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
from contextlib import contextmanager
from pathlib import Path

from .backend import complete_all, make_backend
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
    Parsed,
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
from .jsonl import field_dict, file_digest, write_json, write_jsonl
from .scoring import outcome_reward

class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str, article_id: str | None = None):
        self.stage = stage
        self.article_id = article_id
        where = f"stage {stage!r}"
        if article_id is not None:
            where += f", article {article_id!r}"
        super().__init__(f"{where}: {message}")


def config_digest(config: PipelineConfig) -> str:
    canonical = json.dumps(field_dict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def manifest_to_payload(corpus_path: str | Path,
                        gold_path: str | Path | None,
                        config: PipelineConfig, stages: list[dict]) -> dict:
    """The manifest of a run: its inputs with their sha256, the config's
    sha256, the prompt template version and *stages*, each a name and its
    outputs (path relative to the manifest's directory, sha256)."""
    return {
        "corpus": {"path": str(corpus_path),
                   "sha256": file_digest(corpus_path)},
        "gold": None if gold_path is None else {
            "path": str(gold_path), "sha256": file_digest(gold_path)},
        "config_sha256": config_digest(config),
        "prompt_template_version": PROMPT_TEMPLATE_VERSION,
        "stages": stages,
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


def save_prompts(prompts: list[PreparedPrompt], path: str | Path) -> str:
    """One row per prompt (prompts.jsonl), without its text: the text is
    build_prompt's of the corpus article under the manifest's template
    version and token_budget, and prompt_sha256 is the sha256 of its UTF-8
    bytes. Each text is built for its hash and dropped."""
    return write_jsonl(path, ({"article_id": p.article_id,
                               "prompt_sha256": hashlib.sha256(
                                   p.text.encode("utf-8")).hexdigest(),
                               "token_count": p.token_count,
                               "truncated": p.truncated}
                              for p in prompts))


def complete_stage(prompts: list[PreparedPrompt],
                   config: PipelineConfig) -> list[RawCompletion]:
    """samples_per_article completions of every prompt, with at most
    max_in_flight requests at a time, in (article_id, sample_index) order.
    Failed requests are retried as complete_all schedules them; the first
    fatal error aborts the stage."""
    n = config.samples_per_article
    with _failing_as("complete"):
        batches = complete_all(make_backend(config), prompts, n, config)
    return sorted((c for batch in batches for c in batch),
                  key=lambda c: (c.article_id, c.sample_index))


def parse_stage(completions: list[RawCompletion]) -> list[Parsed]:
    """Each completion parsed once, keyed by (article_id, sample_index)."""
    return [(c.article_id, c.sample_index, parse_extraction(c))
            for c in completions]


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
    return [resolve_verdict(sets.get(article_id) or SampleSet(article_id, ()))
            for article_id in sorted(articles)]


def aggregate_stage(
    verdicts: list[ArticleVerdict], articles: dict[str, Article],
    config: PipelineConfig, out_dir: Path,
) -> tuple[list[IndicatorRow], dict[str, str]]:
    """Write indicators.csv and summary.json under out_dir; return the
    indicator rows and the sha256 of each file by its name."""
    with _failing_as("aggregate"):
        rows = aggregate_by(verdicts, config.group_by, articles)
        trace, accessions = trace_coverage(verdicts), accession_stats(verdicts)
    return rows, {
        "indicators.csv": save_indicator_rows(rows,
                                              out_dir / "indicators.csv"),
        "summary.json": save_summary(trace, accessions,
                                     out_dir / "summary.json")}


def run_pipeline(
    corpus_path: str | Path,
    out_dir: str | Path,
    config: PipelineConfig,
    gold_path: str | Path | None = None,
) -> dict:
    """Run every stage over the corpus and write all artifacts under out_dir.

    Any stage failure aborts with the stage name (and article id where
    known). Returns the manifest it writes to out_dir/manifest.json, as
    json.loads reads that file back.
    """
    out = Path(out_dir)
    stages: list[dict] = []

    def emit(name: str, written: dict[str, str]) -> None:
        """Record a stage's outputs: file name under out -> sha256."""
        stages.append({"name": name, "outputs": [
            {"path": path, "sha256": digest}
            for path, digest in written.items()]})

    with _failing_as("ingest"):
        out.mkdir(parents=True, exist_ok=True)
        articles = load_corpus(corpus_path)
        gold = None if gold_path is None else {
            g.article_id: g for g in load_gold(gold_path)}
    articles_by_id = {a.id: a for a in articles}
    gap = [a.id for a in articles if gold is not None and a.id not in gold]
    if gap:  # found before any completion is paid for
        raise PipelineError("ingest", "no gold annotation", gap[0])

    prompts = prompt_stage(articles, config)
    emit("prompt", {"prompts.jsonl": save_prompts(
        prompts, out / "prompts.jsonl")})

    completions = complete_stage(prompts, config)
    emit("complete", {"completions.jsonl": save_completions(
        completions, out / "completions.jsonl")})

    parsed = parse_stage(completions)
    del completions  # saved and parsed: nothing reads the texts again
    emit("parse", {"records.jsonl": save_records(
        parsed, out / "records.jsonl")})

    if gold is not None:
        emit("score", {"rewards.jsonl": write_jsonl(
            out / "rewards.jsonl",
            score_stage(parsed, articles_by_id, gold, config))})

    verdicts = verdict_stage(parsed, articles_by_id)
    emit("verdicts", {"verdicts.jsonl": save_verdicts(
        verdicts, out / "verdicts.jsonl")})

    _, written = aggregate_stage(verdicts, articles_by_id, config, out)
    emit("aggregate", written)

    manifest = manifest_to_payload(corpus_path, gold_path, config, stages)
    write_json(out / "manifest.json", manifest)
    return manifest
