"""Seeded generator for the benchmark's inputs and their expected outcomes.

One call writes a corpus, the completions a backend will return (a replay
fixture, or the table the HTTP stub serves), optional gold annotations, an osir
config file and ``expected.json``. The expectations are known by construction
and never come from osir's own matchers:

* every evidence string carries a class and the grounding decision it must
  get: ``verbatim`` strings are copied from the article; ``near`` strings are
  an article string with ``s`` characters substituted, where ``1 - s/L`` stays
  above the field's threshold by ``NEAR_MARGIN``; ``absent`` strings carry
  more characters from ``ABSENT_CHARS`` than the threshold tolerates as edits.
  Article text never contains those characters, so every substring window
  needs at least one edit per such character;
* article labels fix the verdict of each article, so indicator counts follow;
* bodies longer than the token budget are made so by a wide margin, so the
  truncated-prompt count does not depend on the prompt preamble's length.

The same (workload, seed) gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

#: Lower-case letters that never occur in generated article text (before or
#: after case folding). Hallucinated strings are built from them.
ABSENT_CHARS = "qxz"
NEAR_MARGIN = 0.01
THRESHOLD_IDENTIFIER = 0.95
THRESHOLD_CITATION = 0.90
TOKEN_BUDGET = 25_000

DISCIPLINES = ("Health Sciences", "Life Sciences", "Physical Sciences",
               "Social Sciences", "Unknown")
REGIONS = ("Africa", "Asia", "Europe", "North America", "Oceania",
           "South America")

#: Length bucket -> (field kind, exact candidate length in characters).
BUCKETS = {
    "L10": ("accession", 10),
    "L25": ("doi", 25),
    "L40": ("url", 40),
    "L70": ("citation", 70),
    "L150": ("citation", 150),
}
#: Substitutions that make a near-miss of each bucket (see module docstring).
#: L10 admits none above the identifier threshold: its near string exists only
#: for the fuzzy_contains timing table and is expected ungrounded.
NEAR_SUBSTITUTIONS = {"L10": 1, "L25": 1, "L40": 1, "L70": 4, "L150": 9}
#: Share of articles whose last sample dissents on new_data_generated.
DISSENT_SHARE = 0.2
#: Evidence every article carries, per bucket.
POOL = {"L10": 2, "L25": 2, "L40": 2, "L70": 1, "L150": 1}

_CONSONANTS = "bcdfghklmnprstvw"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class SynthSettings:
    """What one workload's inputs look like.

    Shares are of all completions (``*_share`` of texts) or of all articles
    (``over_budget_share``); the generator turns each into an exact count so
    every seed yields the same amount of work.
    """

    articles: int
    k: int = 3
    words: tuple[int, int] = (700, 900)      # body words, inclusive range
    body_chars: int | None = None            # pin the body length instead
    over_budget_share: float = 0.0
    over_budget_words: tuple[int, int] = (25_500, 27_000)
    gold: bool = False
    verbatim_per_sample: int = 4
    near_buckets: tuple[str, ...] = ()       # near-miss strings per sample
    absent_buckets: tuple[str, ...] = ()     # hallucinated strings per sample
    prose_share: float = 0.0
    fence_share: float = 0.0
    unparseable_share: float = 0.0
    micro: bool = False                      # record fuzzy_contains timing strings


class _Text:
    """Seeded pseudo-words and the evidence strings built from them."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vocab = [self._word() for _ in range(3000)]

    def _word(self) -> str:
        syllables = self.rng.randint(2, 4)
        return "".join(self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS)
                       for _ in range(syllables))

    def words(self, n: int) -> list[str]:
        return [self.rng.choice(self.vocab) for _ in range(n)]

    def sentence(self) -> str:
        ws = self.words(self.rng.randint(8, 20))
        return " ".join([ws[0].capitalize()] + ws[1:]) + "."

    def digits(self, n: int) -> str:
        return "".join(self.rng.choice("0123456789") for _ in range(n))

    def alnum(self, n: int) -> str:
        return "".join(self.rng.choice(_CONSONANTS + _VOWELS + "0123456789")
                       for _ in range(n))

    def evidence(self, bucket: str) -> str:
        kind, length = BUCKETS[bucket]
        rng = self.rng
        if kind == "accession":
            prefix = rng.choice(("GSE", "SRR", "ERR", "PRJNA", "E-MTAB-"))
            s = prefix + self.digits(length - len(prefix))
        elif kind == "doi":
            prefix = rng.choice(("10.5061/dryad.", "10.17632/",
                                 "10.6084/m9.figshare."))
            s = prefix + self.alnum(length - len(prefix))
        elif kind == "url":
            prefix = rng.choice(("https://github.com/", "https://osf.io/",
                                 "https://figshare.com/articles/"))
            rest = length - len(prefix)
            cut = rng.randint(4, rest - 5)
            s = prefix + self.alnum(cut) + "/" + self.alnum(rest - cut - 1)
        else:
            authors = ", ".join(f"{w.capitalize()}, {rng.choice(_CONSONANTS).upper()}."
                                for w in self.words(rng.randint(2, 4)))
            title = " ".join(self.words(30)).capitalize()
            s = f"{authors} ({rng.randint(1990, 2024)}). {title}"
            s = s[:length - 1].rstrip() + "."
            s = s + self.alnum(length - len(s)) if len(s) < length else s
        assert len(s) == length, (bucket, s)
        return s

    def _replace(self, s: str, positions: list[int]) -> str:
        chars = list(s)
        for p in positions:
            c = self.rng.choice(ABSENT_CHARS)
            chars[p] = c.upper() if chars[p].isupper() else c
        return "".join(chars)

    def near(self, original: str, bucket: str) -> str:
        """*original* with NEAR_SUBSTITUTIONS[bucket] non-space characters
        replaced by absent characters."""
        candidates = [i for i, c in enumerate(original) if not c.isspace()]
        positions = self.rng.sample(candidates, NEAR_SUBSTITUTIONS[bucket])
        return self._replace(original, positions)

    def absent(self, bucket: str) -> str:
        """A string of the bucket's kind and length that no window of any
        generated article can match at the field's threshold."""
        base = self.evidence(bucket)
        if BUCKETS[bucket][0] == "doi":  # a registrant no article uses
            base = "10.9" + self.digits(3) + base[7:]
        candidates = [i for i, c in enumerate(base) if not c.isspace()]
        return self._replace(base, self.rng.sample(candidates,
                                                   absent_count(bucket)))


def threshold_for(bucket: str) -> float:
    kind = BUCKETS[bucket][0]
    return THRESHOLD_CITATION if kind == "citation" else THRESHOLD_IDENTIFIER


def absent_count(bucket: str) -> int:
    """Absent characters an ungrounded string of this bucket needs.

    A window is at most floor(1.2 L) long, so similarity stays below t when
    the edit distance exceeds (1 - t) * 1.2 L; each absent character costs at
    least one edit. One extra character is the margin.
    """
    length = BUCKETS[bucket][1]
    return math.floor((1 - threshold_for(bucket)) * 1.2 * length) + 2


def near_grounded(bucket: str) -> bool:
    length = BUCKETS[bucket][1]
    return 1 - NEAR_SUBSTITUTIONS[bucket] / length >= (
        threshold_for(bucket) + NEAR_MARGIN)


_SENTENCE = {
    "accession": "Raw reads were deposited under accession {}.",
    "doi": "The processed tables are archived as {} for reuse.",
    "url": "Analysis code is available at {} under an open licence.",
    "citation": "We reanalysed the dataset described in {}",
}


def _field(kind: str, reuse: bool) -> str:
    plural = {"accession": "accessions", "doi": "dois", "url": "urls",
              "citation": "citations"}[kind]
    return ("reuse_data_" if reuse else "new_data_") + plural


def _body(text: _Text, settings: SynthSettings, n_words: int,
          evidence: list[str], ref: str) -> str:
    """Markdown body of about *n_words* words (or exactly body_chars
    characters) with each evidence sentence in its own paragraph."""
    paragraphs: list[str] = [f"Study reference {ref}."]
    count = 0
    while count < n_words:
        sentences = [text.sentence() for _ in range(text.rng.randint(3, 7))]
        paragraphs.append(" ".join(sentences))
        count += sum(len(s.split()) for s in sentences)
    for s in evidence:
        paragraphs.insert(text.rng.randint(1, len(paragraphs) - 1), s)
    body = "\n\n".join(paragraphs)
    if settings.body_chars is not None:
        if len(body) > settings.body_chars:
            raise ValueError(f"{ref}: {len(body)} characters before padding "
                             f"exceed body_chars={settings.body_chars}")
        while len(body) < settings.body_chars:
            body += "\n\n" + " ".join(text.sentence() for _ in range(5))
        body = body[:settings.body_chars]
        body = body[:-1] + "e" if body[-1].isspace() else body
    return body


def _completion_text(record: dict, style: str) -> str:
    payload = json.dumps(record, sort_keys=True)
    if style == "unparseable":
        return ("Reasoning: the article mentions deposited data.\n"
                + payload[: len(payload) * 3 // 5])
    if style == "fence":
        return f"Here is the extraction.\n```json\n{payload}\n```\n"
    if style == "prose":
        return ("Reasoning: I read the methods and the data availability "
                f"statement before answering.\n{payload}\nThat is all.")
    return payload


def _styles(rng: random.Random, total: int,
            settings: SynthSettings) -> list[str]:
    n_bad = round(settings.unparseable_share * total)
    n_fence = round(settings.fence_share * total)
    n_prose = round(settings.prose_share * total)
    styles = (["unparseable"] * n_bad + ["fence"] * n_fence
              + ["prose"] * n_prose)
    styles += ["plain"] * (total - len(styles))
    rng.shuffle(styles)
    return styles


def _empty_record(generated: bool, reused: bool) -> dict:
    record = {"new_data_generated": generated, "reuse_data": reused}
    for kind in ("citation", "accession", "doi", "url"):
        record[_field(kind, False)] = []
        record[_field(kind, True)] = []
    record["new_data_description"] = (
        "new measurements were collected" if generated else None)
    record["reuse_data_description"] = (
        "existing data were reanalysed" if reused else None)
    return record


def generate(settings: SynthSettings, seed: int, out_dir: str | Path,
             name: str = "workload") -> dict:
    """Write every input file of one workload under *out_dir*.

    Returns the expectations (also written to ``expected.json``).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    text = _Text(rng)
    n = settings.articles
    n_over = round(settings.over_budget_share * n)
    over = set(rng.sample(range(n), n_over))
    styles = _styles(rng, n * settings.k, settings)
    dissenters = set(rng.sample(range(n), round(DISSENT_SHARE * n)))

    corpus, completions, gold = [], [], []
    articles, samples, micro = [], [], []
    for i in range(n):
        article_id = f"a{i:05d}"
        pool = {b: [text.evidence(b) for _ in range(c)]
                for b, c in POOL.items()}
        sentences = [_SENTENCE[BUCKETS[b][0]].format(s)
                     for b, strings in pool.items() for s in strings]
        if i in over:
            n_words = rng.randint(*settings.over_budget_words)
        else:
            n_words = rng.randint(*settings.words)
        body = _body(text, settings, n_words, sentences, article_id)
        discipline = rng.choice(DISCIPLINES)
        corpus.append({"id": article_id, "title": " ".join(text.words(6)),
                       "body_markdown": body, "discipline": discipline,
                       "region": rng.choice(REGIONS)})
        generated, reused = rng.random() < 0.6, rng.random() < 0.5
        verbatim = [(b, s) for b, strings in pool.items() for s in strings]

        if settings.gold:
            record = _empty_record(generated, reused)
            for b, s in verbatim:
                record[_field(BUCKETS[b][0], reused)].append(s)
            gold.append({"article_id": article_id, **record})

        # Near-misses repeat across an article's samples (a model tends to
        # make the same copying mistake); hallucinations differ per sample.
        near = [(b, text.near(pool[b][0], b)) for b in settings.near_buckets]
        parsed_votes = []
        for j in range(settings.k):
            style = styles[i * settings.k + j]
            g, r = generated, reused
            if i in dissenters and j == settings.k - 1:
                g = not g
            record = _empty_record(g, r)
            strings = []
            chosen = rng.sample(verbatim, min(settings.verbatim_per_sample,
                                              len(verbatim)))
            strings += [(b, s, "verbatim", True) for b, s in chosen]
            strings += [(b, s, "near", near_grounded(b)) for b, s in near]
            strings += [(b, text.absent(b), "absent", False)
                        for b in settings.absent_buckets]
            for b, s, _, _ in strings:
                record[_field(BUCKETS[b][0], rng.random() < 0.5)].append(s)
            completions.append({"article_id": article_id, "sample_index": j,
                                "text": _completion_text(record, style)})
            parseable = style != "unparseable"
            if parseable:
                parsed_votes.append((g, r))
            grounded = sum(1 for s in strings if s[3])
            sample = {
                "article_id": article_id, "sample_index": j,
                "parseable": parseable,
                "booleans": {"new_data_generated": g, "reuse_data": r},
                "e": (grounded / len(strings) if strings else 1.0)
                if parseable else 0.0,
            }
            if settings.gold:
                sample["strings"] = [
                    {"bucket": b, "class": c, "grounded": d, "text": s}
                    for b, s, c, d in strings]
            samples.append(sample)
        articles.append({
            "article_id": article_id, "discipline": discipline,
            "over_budget": i in over, "body_tokens": len(body.split()),
            "gold": {"new_data_generated": generated, "reuse_data": reused},
            "verdict": _verdict(parsed_votes),
        })
        if settings.micro:
            for b in BUCKETS:
                for cls, s in (("exact", pool[b][0]),
                               ("near", text.near(pool[b][-1], b)),
                               ("absent", text.absent(b))):
                    micro.append({"article": i, "bucket": b, "class": cls,
                                  "text": s, "threshold": threshold_for(b)})

    _write_jsonl(out / "corpus.jsonl", corpus)
    _write_jsonl(out / "completions_source.jsonl", completions)
    if settings.gold:
        _write_jsonl(out / "gold.jsonl", gold)
    config = {"token_budget": TOKEN_BUDGET,
              "samples_per_article": settings.k,
              "threshold_identifier": THRESHOLD_IDENTIFIER,
              "threshold_citation": THRESHOLD_CITATION,
              "group_by": "discipline"}
    _write_json(out / "osir_config.json", config)
    expected = {
        "workload": name, "seed": seed, "settings": asdict(settings),
        "articles": articles, "samples": samples, "micro": micro,
        "over_budget": n_over,
        "parseable_completions": sum(1 for s in samples if s["parseable"]),
        "indicator_rows": indicator_rows(articles),
    }
    _write_json(out / "expected.json", expected)
    return expected


def _verdict(votes: list[tuple[bool, bool]]) -> dict:
    """Majority of parsed samples; ties go to False; none parsed is unresolved."""
    if not votes:
        return {"new_data_generated": False, "data_reused": False,
                "neither": True, "unresolved": True}
    g = sum(v[0] for v in votes) * 2 > len(votes)
    r = sum(v[1] for v in votes) * 2 > len(votes)
    return {"new_data_generated": g, "data_reused": r,
            "neither": not g and not r, "unresolved": False}


def percent_half_up(count: int, total: int) -> int:
    return (200 * count + total) // (2 * total) if total else 0


def indicator_rows(articles: list[dict]) -> list[list[str]]:
    """Expected indicators.csv rows (group_by discipline, then Total)."""
    groups: dict[str, list[dict]] = {}
    for a in articles:
        groups.setdefault(a["discipline"], []).append(a["verdict"])
    groups = {g: groups[g] for g in sorted(groups)}
    groups["Total"] = [a["verdict"] for a in articles]
    rows = []
    for label, verdicts in groups.items():
        pubs = len(verdicts)
        counts = [sum(1 for v in verdicts if v[key])
                  for key in ("new_data_generated", "data_reused", "neither")]
        row = [label, str(pubs)]
        for c in counts:
            row += [str(c), str(percent_half_up(c, pubs))]
        rows.append(row)
    return rows


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")

