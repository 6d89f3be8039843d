"""Command-line interface: every pipeline stage as a subcommand.

Each subcommand parses its options, calls the stage functions of
osir.pipeline and reports any failure as a ClickException. Options named
after a PipelineConfig field are passed on to load_config. Configuration
precedence: defaults < --config file < OSIR_* environment variables <
explicit flags.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import click

from .backend import BACKEND_MODES
from .config import load_config
from .corpus import load_corpus
from .evaluation import (
    PASS1_MODES,
    build_sample_sets,
    build_eval_report,
    flag_disagreements,
    render_report_table,
    save_report,
    score_samples,
)
from .extraction import (
    ParseOutcome,
    load_completions,
    load_gold,
    load_records,
    save_completions,
    save_gold,
)
from .grounding import EMBELLISHMENT_MODES, filter_gold
from .indicators import GROUPINGS
from .jsonl import write_jsonl
from .pipeline import (
    aggregate_stage,
    complete_stage,
    manifest_to_payload,
    parse_stage,
    prompt_stage,
    run_pipeline,
    save_parsed,
    score_stage,
    verdict_stage,
)


@contextmanager
def _user_errors():
    """Report any failure inside the block as a ClickException."""
    try:
        yield
    except click.ClickException:
        raise
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc


@click.group()
def main() -> None:
    """Measure research-data generation and reuse across an article corpus."""


@main.command()
@click.option("--corpus", "corpus_path", required=True,
              type=click.Path(exists=False), help="Line-delimited corpus file.")
def ingest(corpus_path: str) -> None:
    """Load a corpus file and report its composition.

    Exits non-zero on the first malformed article, naming its line.
    """
    with _user_errors():
        articles = load_corpus(corpus_path)
    by_discipline = Counter(a.discipline for a in articles)
    click.echo(f"{len(articles)} articles")
    for discipline, count in sorted(by_discipline.items()):
        click.echo(f"  {discipline}: {count}")
    click.echo("corpus OK")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--backend", "backend_mode", type=click.Choice(BACKEND_MODES),
              default=None, help="Completion backend.")
@click.option("--fixture", "fixture_path", type=click.Path(), default=None,
              help="Replay fixture file (replay mode).")
@click.option("--endpoint", default=None, help="Completion endpoint (http mode).")
@click.option("--samples", "samples_per_article", type=int, default=None,
              help="Samples per article.")
@click.option("--budget", "token_budget", type=int, default=None,
              help="Prompt token budget.")
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Where to write completions (JSONL).")
@click.option("--records", "records_path", type=click.Path(), default=None,
              help="Also write parsed records here (JSONL).")
@click.option("--config", "config_path", type=click.Path(), default=None)
def extract(corpus_path: str, out_path: str, records_path: str | None,
            config_path: str | None, **overrides) -> None:
    """Prompt the backend for every article and store raw completions."""
    with _user_errors():
        config = load_config(config_path, **overrides)
        prompts = prompt_stage(load_corpus(corpus_path), config)
        completions = complete_stage(prompts, config)
        save_completions(completions, out_path)
        if records_path is not None:
            save_parsed(parse_stage(completions), records_path)
    click.echo(f"{len(completions)} completions -> {out_path}")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--completions", "completions_path", required=True,
              type=click.Path())
@click.option("--gold", "gold_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--embellishment", "embellishment_mode",
              type=click.Choice(EMBELLISHMENT_MODES), default=None)
@click.option("--min-reward", type=float, default=None,
              help="Write only the rows whose reward r is >= this value.")
@click.option("--config", "config_path", type=click.Path(), default=None)
def score(corpus_path: str, completions_path: str, gold_path: str,
          out_path: str, min_reward: float | None,
          config_path: str | None, **overrides) -> None:
    """Score completions against gold: f, e, v and the composite reward."""
    with _user_errors():
        config = load_config(config_path, **overrides)
        articles = {a.id: a for a in load_corpus(corpus_path)}
        completions = sorted(load_completions(completions_path),
                             key=lambda c: (c.article_id, c.sample_index))
        gold = {g.article_id: g for g in load_gold(gold_path)}
        rows = score_stage(parse_stage(completions), articles, gold, config)
        if min_reward is not None:
            rows = [row for row in rows if row["r"] >= min_reward]
        write_jsonl(out_path, rows)
    click.echo(f"{len(rows)} reward rows -> {out_path}")


@main.command(name="eval")
@click.option("--completions", "completions_path", required=True,
              type=click.Path())
@click.option("--gold", "gold_path", required=True, type=click.Path())
@click.option("--samples", "samples_per_article", type=int, default=None,
              help="Expected samples per article.")
@click.option("--pass1", "pass1_mode", type=click.Choice(PASS1_MODES),
              default=None)
@click.option("--flag-floor", "f1_floor", type=float, default=None,
              help="Best-sample F1 floor below which articles get flagged.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
def eval_command(completions_path: str, gold_path: str, out_path: str,
                 config_path: str | None, **overrides) -> None:
    """Evaluate completions against gold and print the metrics table."""
    with _user_errors():
        config = load_config(config_path, **overrides)
        completions = load_completions(completions_path)
        gold = load_gold(gold_path)
        samples = build_sample_sets(completions,
                                    overrides["samples_per_article"])
        thresholds = config.thresholds()
        scores = score_samples(samples, gold, thresholds)
        report = build_eval_report(samples, gold, config.pass1_mode,
                                   thresholds, scores)
        flagged = flag_disagreements(samples, gold, config.f1_floor,
                                     thresholds, scores)
        save_report(report, out_path)
    click.echo(render_report_table(report))
    click.echo(f"\n{len(flagged)} articles flagged for review")
    for f in flagged:
        click.echo(f"  {f.article_id}: {'; '.join(f.reasons)}")
    click.echo(f"report -> {out_path}")


@main.command(name="filter-gold")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--gold", "gold_path", required=True, type=click.Path())
@click.option("--out-kept", "kept_path", required=True, type=click.Path())
@click.option("--out-removed", "removed_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
def filter_gold_command(corpus_path: str, gold_path: str, kept_path: str,
                        removed_path: str, config_path: str | None) -> None:
    """Drop gold annotations whose evidence is absent from the article text."""
    with _user_errors():
        config = load_config(config_path)
        corpus = load_corpus(corpus_path)
        annotations = load_gold(gold_path)
        kept, removed = filter_gold(corpus, annotations, config.thresholds())
        save_gold(kept, kept_path)
        with Path(removed_path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["article_id", "field", "string", "best_score", "threshold"])
            for r in removed:
                for d in r.diagnostics:
                    writer.writerow([d.article_id, d.field, d.string,
                                     f"{d.best_score:.6f}", d.threshold])
    click.echo(f"kept {len(kept)} -> {kept_path}")
    click.echo(f"removed {len(removed)} -> {removed_path}")


@main.command()
@click.option("--records", "records_path", required=True, type=click.Path())
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--by", "group_by",
              type=click.Choice(GROUPINGS), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
def aggregate(records_path: str, corpus_path: str, out_dir: str,
              config_path: str | None, **overrides) -> None:
    """Resolve verdicts from parsed records and emit indicator tables.

    Corpus articles with no parsed record at all become unresolved verdicts
    (counted under "neither").
    """
    with _user_errors():
        config = load_config(config_path, **overrides)
        articles = {a.id: a for a in load_corpus(corpus_path)}
        parsed = [(article_id, sample_index,
                   ParseOutcome(status="parsed", record=record))
                  for article_id, sample_index, record
                  in load_records(records_path)]
        verdicts = verdict_stage(parsed, articles)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = aggregate_stage(verdicts, articles, config, out)
    for row in rows:
        click.echo(f"{row.group}: {row.publications} publications, "
                   f"{row.generated_pct}% generated, {row.reused_pct}% reused, "
                   f"{row.neither_pct}% neither")
    click.echo(f"indicators -> {out_dir}")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--gold", "gold_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--backend", "backend_mode", type=click.Choice(BACKEND_MODES),
              default=None)
@click.option("--fixture", "fixture_path", type=click.Path(), default=None)
@click.option("--endpoint", default=None)
@click.option("--samples", "samples_per_article", type=int, default=None)
@click.option("--by", "group_by",
              type=click.Choice(GROUPINGS), default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
def run(corpus_path: str, gold_path: str | None, out_dir: str,
        config_path: str | None, **overrides) -> None:
    """Run the full pipeline and write a digest manifest."""
    with _user_errors():
        config = load_config(config_path, **overrides)
        manifest = run_pipeline(corpus_path, out_dir, config, gold_path)
    payload = manifest_to_payload(manifest)
    click.echo(f"{len(payload['stages'])} stages -> {out_dir}")
    for stage in payload["stages"]:
        for output in stage["outputs"]:
            click.echo(f"  {stage['name']}: {output['path']} "
                       f"sha256:{output['sha256'][:12]}")


if __name__ == "__main__":
    main()
