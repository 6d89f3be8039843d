"""The benchmark's workloads: what each generates, runs and stresses.

Each workload loads one part of osir and leaves the others nearly idle, so an
optimisation of one layer shows on one workload and is predicted flat on the
others. Why each was chosen is in BENCHMARK.json; README.md has the
prediction table.
"""

from __future__ import annotations

from dataclasses import dataclass

from synth import SynthSettings


@dataclass(frozen=True)
class StubSettings:
    """The HTTP stub's fixed service latency and first-attempt fault mix:
    the share of the articles before the last tail_429 whose first attempt
    gets 503, and the share of those last tail_429 that get 429."""

    latency_s: float = 0.020
    share_503: float = 0.10
    share_429: float = 0.5
    tail_429: int = 10


#: osir settings every workload pins on top of the generated config: two
#: requests in flight (a closed loop of two clients on a 2-core machine).
#: Everything else, the retry backoff included, is osir's default, so the
#: http-stub figures carry the sleep that each retried 503 costs.
OSIR_SETTINGS = {"max_in_flight": 2}


@dataclass(frozen=True)
class Workload:
    synth: SynthSettings
    backend: str = "replay"            # "replay" | "http"
    evaluate: bool = False             # also time `osir eval` (needs gold)
    stub: StubSettings | None = None


WORKLOADS = {
    "score-long": Workload(
        synth=SynthSettings(
            articles=1, k=3, words=(5000, 5000), body_chars=42_000, gold=True,
            verbatim_per_sample=6, near_buckets=("L25", "L40", "L70"),
            absent_buckets=("L10", "L25"), prose_share=0.3, fence_share=0.3,
            micro=True),
        evaluate=True,
    ),
    "indicators-bulk": Workload(
        synth=SynthSettings(
            articles=1000, k=3, words=(700, 900), over_budget_share=0.03,
            verbatim_per_sample=4, prose_share=0.4, fence_share=0.4,
            unparseable_share=0.05),
    ),
    "http-stub": Workload(
        synth=SynthSettings(articles=150, k=3, words=(150, 250),
                            verbatim_per_sample=3),
        backend="http",
        stub=StubSettings(),
    ),
}
