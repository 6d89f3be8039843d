"""Independent brute-force implementations used as test oracles.

These deliberately avoid the production code paths: the edit distance is a
full-matrix textbook DP, the window scan enumerates every window with no
short-circuits, the set matcher tries every one-to-one assignment (and a
second one walks Kuhn's augmenting paths by recursion), the
tokenizer lists the spans of a regular expression, and the percentages round
in decimal arithmetic.
"""

from __future__ import annotations

import itertools
import re
from decimal import ROUND_HALF_UP, Decimal

# The one production function the reference run calls (reference_run).
from osir.extraction import RawCompletion, parse_extraction

_TOKEN = re.compile(r"\S+")


def oracle_normalize(s: str) -> str:
    return " ".join(s.casefold().split())


def oracle_levenshtein(a: str, b: str) -> int:
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost)
    return d[m][n]


def oracle_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    return 1.0 - oracle_levenshtein(a, b) / max(len(a), len(b))


def oracle_windowed_score(article: str, candidate: str) -> float:
    """Maximum windowed similarity by enumerating every admissible window.

    Same contract as the production matcher: normalized inputs, window
    lengths ceil(0.8*L)..floor(1.2*L) at stride 1, similarity normalized by
    max(candidate length, window length); whole-article fallback when the
    article is shorter than the smallest window.
    """
    art = oracle_normalize(article)
    cand = oracle_normalize(candidate)
    n, length = len(art), len(cand)
    lo = max(1, -(-4 * length // 5))
    hi = 6 * length // 5
    if n < lo:
        return oracle_similarity(cand, art)
    hi = min(hi, n)
    best = -1.0
    for window_len in range(lo, hi + 1):
        for start in range(0, n - window_len + 1):
            window = art[start:start + window_len]
            sim = 1.0 - oracle_levenshtein(cand, window) / max(length, window_len)
            if sim > best:
                best = sim
    return best


def oracle_optimal_tp(predicted: list[str], gold: list[str],
                      threshold: float) -> int:
    """Maximum number of one-to-one pairs with similarity >= threshold,
    found by exhaustive search over assignments."""
    sims = [
        [oracle_similarity(oracle_normalize(p), oracle_normalize(g))
         for g in gold]
        for p in predicted
    ]
    qualifying = [
        [j for j in range(len(gold)) if sims[i][j] >= threshold]
        for i in range(len(predicted))
    ]

    best = 0

    def search(i: int, used: set[int], count: int) -> None:
        nonlocal best
        if count + (len(predicted) - i) <= best:
            return
        if i == len(predicted):
            best = max(best, count)
            return
        search(i + 1, used, count)  # leave predicted[i] unmatched
        for j in qualifying[i]:
            if j not in used:
                used.add(j)
                search(i + 1, used, count + 1)
                used.remove(j)

    search(0, set(), 0)
    return best


def oracle_greedy_pairs(predicted: list[str], gold: list[str],
                        threshold: float) -> dict[int, tuple[float, int]]:
    """The greedy matching match_sets starts from, as gold j -> (similarity,
    predicted i): pairs at or above *threshold* taken highest similarity
    first, ties broken by (predicted index, gold index)."""
    scored = sorted(
        (-oracle_similarity(oracle_normalize(p), oracle_normalize(g)), i, j)
        for i, p in enumerate(predicted) for j, g in enumerate(gold))
    owner: dict[int, tuple[float, int]] = {}
    used: set[int] = set()
    for neg_sim, i, j in scored:
        if -neg_sim >= threshold and i not in used and j not in owner:
            owner[j] = (-neg_sim, i)
            used.add(i)
    return owner


def oracle_recursive_pairs(predicted: list[str], gold: list[str],
                           threshold: float
                           ) -> tuple[tuple[str, str, float], ...]:
    """The pairs match_sets returns, found by recursion: the greedy
    matching, then for each unmatched predicted index in order, Kuhn's
    augmenting path by recursive depth-first search over its qualifying
    edges (similarity desc, gold index). Recursion depth grows with the
    path, so long paths need a high recursion limit."""
    owner = oracle_greedy_pairs(predicted, gold, threshold)
    edges: list[list[tuple[float, int]]] = [
        sorted(((oracle_similarity(oracle_normalize(p), oracle_normalize(g)),
                 j) for j, g in enumerate(gold)),
               key=lambda edge: (-edge[0], edge[1]))
        for p in predicted]
    edges = [[(sim, j) for sim, j in row if sim >= threshold]
             for row in edges]

    def augment(i: int, seen: set[int]) -> bool:
        for sim, j in edges[i]:
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j][1], seen):
                    owner[j] = (sim, i)
                    return True
        return False

    used = {i for _, i in owner.values()}
    for i in range(len(predicted)):
        if i not in used:
            augment(i, set())
    return tuple((predicted[i], gold[j], sim) for j, (sim, i) in sorted(
        owner.items(), key=lambda item: (-item[1][0], item[1][1], item[0])))


def oracle_f1(tp: int, fp: int, fn: int) -> float:
    """F1 via explicit precision/recall, the harmonic-mean route."""
    if tp + fp == 0 and tp + fn == 0:
        return 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def oracle_pairwise_sims(predicted: list[str], gold: list[str]) -> list[float]:
    return [
        oracle_similarity(oracle_normalize(p), oracle_normalize(g))
        for p, g in itertools.product(predicted, gold)
    ]


def oracle_count_tokens(text: str) -> int:
    return sum(1 for _ in _TOKEN.finditer(text))


def oracle_truncate_middle(text: str, budget: int,
                           marker: str) -> tuple[str, bool]:
    """Keep the first ceil and last floor of (budget - marker tokens) token
    spans, with the text between the kept spans of each side verbatim."""
    if oracle_count_tokens(text) <= budget:
        return text, False
    spans = [m.span() for m in _TOKEN.finditer(text)]
    keep = budget - oracle_count_tokens(marker)
    prefix = text[spans[0][0]:spans[(keep + 1) // 2 - 1][1]]
    suffix = text[spans[-(keep // 2)][0]:spans[-1][1]]
    return f"{prefix}\n{marker}\n{suffix}", True


def oracle_percent_half_up(count: int, total: int) -> int:
    if total == 0:
        return 0
    return int((Decimal(100 * count) / Decimal(total))
               .quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def oracle_percent_one_decimal(count: int, total: int) -> float:
    if total == 0:
        return 0.0
    return float((Decimal(100 * count) / Decimal(total))
                 .quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


# ---------------------------------------------------------------------------
# A whole run, from README "File formats" and the stage docstrings

BOOLEANS = ("new_data_generated", "reuse_data")
EVIDENCE = tuple(f"{side}_{kind}s" for side in ("new_data", "reuse_data")
                 for kind in ("citation", "accession", "doi", "url"))
_PUNCT = ".,;:!?)]}>\"'"


def _accession(value: str) -> str:
    """An accession's canonical form: surrounding punctuation stripped,
    whitespace collapsed, uppercased; "" names no accession."""
    return " ".join(value.strip().strip(_PUNCT + "([{<").split()).upper()


def _grounded(body: str, value: str, kind: str, threshold: float) -> bool:
    """Whether *value* is supported by *body*: an exact occurrence scores 1,
    else the best window of the brute-force scan. A URL loses its trailing
    slashes and punctuation first; a blank value is supported nowhere."""
    if kind == "url":
        value = value.rstrip(_PUNCT + "/") or value
    art, cand = oracle_normalize(body), oracle_normalize(value)
    if not cand:
        return False
    return cand in art or oracle_windowed_score(art, cand) >= threshold


def _reward(body: str, record: dict, want: dict, config: dict) -> dict:
    """f, e, v, r and sub_scores of a parsed sample against gold *want*."""
    def threshold(name: str) -> float:
        return config["threshold_citation" if name.endswith("citations")
                      else "threshold_identifier"]

    grounded = [_grounded(body, value, name.split("_")[-1][:-1],
                          threshold(name))
                for name in EVIDENCE for value in record[name]]
    if not grounded:
        e = 1.0
    elif config["embellishment_mode"] == "binary":
        e = float(all(grounded))
    else:
        e = sum(grounded) / len(grounded)
    sub = {name: float(record[name] == want[name]) for name in BOOLEANS}
    for name in EVIDENCE:
        got, gold = list(record[name]), list(want[name])
        tp = oracle_optimal_tp(got, gold, threshold(name))
        sub[name] = oracle_f1(tp, len(got) - tp, len(gold) - tp)
    v = sum(sub.values()) / len(sub)
    return {"f": 1, "e": e, "v": v, "r": e * v, "sub_scores": sub}


def _verdict(article_id: str, records: list[dict]) -> dict:
    """Majority votes (more than half; a tie is False), the union of the
    evidence, and the trace flags of an article's parsed samples."""
    def majority(name: str) -> bool:
        return 2 * sum(r[name] for r in records) > len(records)

    def accessions(name: str) -> set[str]:
        return {_accession(v) for r in records for v in r[name]} - {""}

    def traced(name: str) -> bool:
        return any((r[name] or "").strip() for r in records)

    generated, reused = majority("new_data_generated"), majority("reuse_data")
    reused_accessions = accessions("reuse_data_accessions")
    return {"article_id": article_id, "new_data_generated": generated,
            "data_reused": reused, "neither": not (generated or reused),
            "has_accession": bool(reused_accessions
                                  or accessions("new_data_accessions")),
            "has_generation_trace": traced("new_data_description"),
            "has_reuse_trace": traced("reuse_data_description"),
            "reused_accessions": sorted(reused_accessions),
            "unresolved": not records}


def _indicator_row(group: str, verdicts: list[dict]) -> dict:
    n = len(verdicts)
    row = {"group": group, "publications": n}
    for name, flag in (("generated", "new_data_generated"),
                       ("reused", "data_reused"), ("neither", "neither")):
        count = sum(v[flag] for v in verdicts)
        row[f"{name}_count"] = count
        row[f"{name}_pct"] = oracle_percent_half_up(count, n)
    return row


def reference_run(corpus: list[dict], completions: list[dict],
                  gold: list[dict] | None, config: dict) -> dict:
    """What a replay run writes, as parsed content by file name:
    rewards.jsonl (with gold only), verdicts.jsonl, indicators.csv (numbers
    as ints) and summary.json.

    *corpus*, *completions* and *gold* are the rows of those files, and
    *config* holds samples_per_article, the two thresholds,
    embellishment_mode and group_by. Each article's samples 0..k-1 are
    parsed with osir's parse_extraction (tested on its own); everything after
    the parse is computed here, every sample and string afresh, with the
    brute-force oracles above.
    """
    texts = {(c["article_id"], c["sample_index"]): c["text"]
             for c in completions}
    gold_by_id = {g["article_id"]: g for g in gold or ()}
    rewards, verdicts = [], []
    for article in sorted(corpus, key=lambda a: a["id"]):
        aid = article["id"]
        outcomes = (parse_extraction(RawCompletion(aid, i, texts[aid, i]))
                    for i in range(config["samples_per_article"]))
        records = [vars(o.record) if o.parsed else None for o in outcomes]
        verdicts.append(_verdict(aid, [r for r in records if r is not None]))
        for i, record in enumerate(records if gold is not None else ()):
            reward = ({"f": 0, "e": 0.0, "v": 0.0, "r": 0.0, "sub_scores": {}}
                      if record is None else
                      _reward(article["body_markdown"], record,
                              gold_by_id[aid], config))
            rewards.append({"article_id": aid, "sample_index": i, **reward})
    by = config["group_by"]
    rows = []
    if by != "total":
        labels = {a["id"]: a.get(by) or "Unknown" for a in corpus}
        for label in sorted(set(labels.values())):
            rows.append(_indicator_row(label, [
                v for v in verdicts if labels[v["article_id"]] == label]))
    rows.append(_indicator_row("Total", verdicts))
    n = len(verdicts)
    with_accession = sum(v["has_accession"] for v in verdicts)
    values = sorted(set().union(*(v["reused_accessions"] for v in verdicts)))
    summary = {
        "articles": n,
        "trace_coverage": {
            name: {"count": count, "pct": oracle_percent_half_up(count, n)}
            for name, count in (
                ("any", sum(v["has_generation_trace"] or v["has_reuse_trace"]
                            for v in verdicts)),
                ("generation", sum(v["has_generation_trace"]
                                   for v in verdicts)),
                ("reuse", sum(v["has_reuse_trace"] for v in verdicts)))},
        "accessions": {
            "articles_with_accession": with_accession,
            "articles_with_accession_pct": oracle_percent_one_decimal(
                with_accession, n),
            "unique_reused_accessions": len(values),
            "values": values,
        },
    }
    out = {"verdicts.jsonl": verdicts, "indicators.csv": rows,
           "summary.json": summary}
    if gold is not None:
        out["rewards.jsonl"] = rewards
    return out
