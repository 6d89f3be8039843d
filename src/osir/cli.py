"""Command-line interface: every pipeline stage as a subcommand.

Each subcommand parses its options and calls the stage functions of
osir.pipeline; the main group reports any failure of a command as a
ClickException. Each option named after a PipelineConfig field is built by
_setting, which types it from that field, and is passed on to load_config.
Configuration precedence: defaults < --config file < OSIR_* environment
variables < explicit flags.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from pathlib import Path

import click

from .config import CHOICES, FIELD_TYPES, load_config
from .corpus import load_corpus
from .evaluation import (
    build_sample_sets,
    build_eval_report,
    flag_disagreements,
    render_report_table,
    save_report,
    score_samples,
)
from .extraction import (
    load_completions,
    load_gold,
    load_records,
    save_completions,
    save_gold,
    save_records,
)
from .grounding import filter_gold
from .jsonl import write_csv, write_jsonl
from .pipeline import (
    aggregate_stage,
    complete_stage,
    parse_stage,
    prompt_stage,
    run_pipeline,
    score_stage,
    verdict_stage,
)


class _Group(click.Group):
    """A command group that reports str() of any failure of a command as
    a ClickException. Click's own exits (--help, Ctrl-C) pass through."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            raise click.ClickException(str(exc)) from exc


def _setting(flag: str, field: str, help: str | None = None):
    """An option that sets the PipelineConfig *field*, typed by that field."""
    kind = {"int": int, "float": float}.get(FIELD_TYPES[field], str)
    if field in CHOICES:
        kind = click.Choice(CHOICES[field])
    elif field.endswith("_path"):
        kind = click.Path()
    return click.option(flag, field, type=kind, default=None, help=help)


class _OutFile(click.Path):
    """An output file: not a directory, in a directory that exists, and a
    path that stats or is missing (a symlink loop is neither). Options are
    parsed before a command runs, so a bad path costs no request."""

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        try:
            os.stat(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            self.fail(f"{path!r}: {exc.strerror or exc}", param, ctx)
        parent = Path(os.path.realpath(path)).parent  # where it is written
        if not parent.is_dir():
            self.fail(f"no directory {str(parent)!r}", param, ctx)
        return path


_OUT_FILE = _OutFile(dir_okay=False)


@click.group(cls=_Group)
def main() -> None:
    """Measure research-data generation and reuse across an article corpus."""


@main.command()
@click.option("--corpus", "corpus_path", required=True,
              type=click.Path(exists=False), help="Line-delimited corpus file.")
def ingest(corpus_path: str) -> None:
    """Load a corpus file and report its composition.

    Exits non-zero on the first malformed article, naming its line.
    """
    articles = load_corpus(corpus_path)
    by_discipline = Counter(a.discipline for a in articles)
    click.echo(f"{len(articles)} articles")
    for discipline, count in sorted(by_discipline.items()):
        click.echo(f"  {discipline}: {count}")
    click.echo("corpus OK")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@_setting("--backend", "backend_mode", help="Completion backend.")
@_setting("--fixture", "fixture_path", help="Replay fixture file (replay mode).")
@_setting("--endpoint", "endpoint", help="Completion endpoint (http mode).")
@_setting("--samples", "samples_per_article", help="Samples per article.")
@_setting("--budget", "token_budget", help="Prompt token budget.")
@click.option("--out", "out_path", required=True, type=_OUT_FILE,
              help="Where to write completions (JSONL).")
@click.option("--records", "records_path", type=_OUT_FILE, default=None,
              help="Also write parsed records here (JSONL).")
@click.option("--config", "config_path", type=click.Path(), default=None)
def extract(corpus_path: str, out_path: str, records_path: str | None,
            config_path: str | None, **overrides) -> None:
    """Prompt the backend for every article and store raw completions."""
    config = load_config(config_path, **overrides)
    prompts = prompt_stage(load_corpus(corpus_path), config)
    completions = complete_stage(prompts, config)
    save_completions(completions, out_path)
    if records_path is not None:
        save_records(parse_stage(completions), records_path)
    click.echo(f"{len(completions)} completions -> {out_path}")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--completions", "completions_path", required=True,
              type=click.Path())
@click.option("--gold", "gold_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=_OUT_FILE)
@_setting("--embellishment", "embellishment_mode")
@click.option("--min-reward", type=float, default=None,
              help="Write only the rows whose reward r is >= this value.")
@click.option("--config", "config_path", type=click.Path(), default=None)
def score(corpus_path: str, completions_path: str, gold_path: str,
          out_path: str, min_reward: float | None,
          config_path: str | None, **overrides) -> None:
    """Score completions against gold: f, e, v and the composite reward."""
    if min_reward is not None and math.isnan(min_reward):
        raise click.BadParameter("NaN compares false with every reward",
                                 param_hint="'--min-reward'")
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
@click.option("--samples", "expected_samples", type=click.IntRange(min=1),
              help="Expected samples per article; not a configuration key.")
@_setting("--pass1", "pass1_mode")
@_setting("--flag-floor", "f1_floor",
          help="Best-sample F1 floor below which articles get flagged.")
@click.option("--out", "out_path", required=True, type=_OUT_FILE)
@click.option("--config", "config_path", type=click.Path(), default=None)
def eval_command(completions_path: str, gold_path: str, out_path: str,
                 expected_samples: int | None, config_path: str | None,
                 **overrides) -> None:
    """Evaluate completions against gold and print the metrics table."""
    config = load_config(config_path, **overrides)
    completions = load_completions(completions_path)
    gold = load_gold(gold_path)
    samples = build_sample_sets(parse_stage(completions), expected_samples)
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
@click.option("--out-kept", "kept_path", required=True, type=_OUT_FILE)
@click.option("--out-removed", "removed_path", required=True, type=_OUT_FILE)
@click.option("--config", "config_path", type=click.Path(), default=None)
def filter_gold_command(corpus_path: str, gold_path: str, kept_path: str,
                        removed_path: str, config_path: str | None) -> None:
    """Drop gold annotations whose evidence is absent from the article text."""
    config = load_config(config_path)
    corpus = load_corpus(corpus_path)
    annotations = load_gold(gold_path)
    kept, removed = filter_gold(corpus, annotations, config.thresholds())
    save_gold(kept, kept_path)
    write_csv(removed_path,
              ["article_id", "field", "string", "best_score", "threshold"],
              ([d.article_id, d.field, d.string, f"{d.best_score:.6f}",
                d.threshold] for r in removed for d in r.diagnostics))
    click.echo(f"kept {len(kept)} -> {kept_path}")
    click.echo(f"removed {len(removed)} -> {removed_path}")


@main.command()
@click.option("--records", "records_path", required=True, type=click.Path())
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@_setting("--by", "group_by")
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False))
@click.option("--config", "config_path", type=click.Path(), default=None)
def aggregate(records_path: str, corpus_path: str, out_dir: str,
              config_path: str | None, **overrides) -> None:
    """Resolve verdicts from parsed records and emit indicator tables.

    Corpus articles with no parsed record at all become unresolved verdicts
    (counted under "neither").
    """
    config = load_config(config_path, **overrides)
    articles = {a.id: a for a in load_corpus(corpus_path)}
    verdicts = verdict_stage(load_records(records_path), articles)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows, _ = aggregate_stage(verdicts, articles, config, out)
    for row in rows:
        click.echo(f"{row.group}: {row.publications} publications, "
                   f"{row.generated_pct}% generated, {row.reused_pct}% reused, "
                   f"{row.neither_pct}% neither")
    click.echo(f"indicators -> {out_dir}")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--gold", "gold_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False))
@_setting("--backend", "backend_mode")
@_setting("--fixture", "fixture_path")
@_setting("--endpoint", "endpoint")
@_setting("--samples", "samples_per_article")
@_setting("--by", "group_by")
@click.option("--config", "config_path", type=click.Path(), default=None)
def run(corpus_path: str, gold_path: str | None, out_dir: str,
        config_path: str | None, **overrides) -> None:
    """Run the full pipeline and write a digest manifest."""
    config = load_config(config_path, **overrides)
    manifest = run_pipeline(corpus_path, out_dir, config, gold_path)
    click.echo(f"{len(manifest['stages'])} stages -> {out_dir}")
    for stage in manifest["stages"]:
        for output in stage["outputs"]:
            click.echo(f"  {stage['name']}: {output['path']} "
                       f"sha256:{output['sha256'][:12]}")


if __name__ == "__main__":
    main()
