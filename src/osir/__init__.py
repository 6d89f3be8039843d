"""osir: open-science indicators for research-data generation and reuse.

The pipeline prepares article prompts, parses structured completions,
verifies extracted evidence against the source text, scores completions
against gold annotations, evaluates multi-sample accuracy, and aggregates
corpus-level indicators.
"""

from .corpus import (
    Article,
    PreparedPrompt,
    build_prompt,
    count_tokens,
    load_corpus,
    truncate_middle,
)
from .extraction import (
    ExtractionRecord,
    GoldAnnotation,
    ParseOutcome,
    RawCompletion,
    format_reward,
    parse_extraction,
)
from .grounding import (
    GroundingReport,
    MatchResult,
    Thresholds,
    embellishment_reward,
    filter_gold,
    fuzzy_contains,
    normalize_text,
)
from .identifiers import canonicalize_identifier
from .scoring import (
    RewardBreakdown,
    SetMatching,
    accuracy_reward,
    field_f1,
    match_sets,
    total_reward,
)
from .evaluation import (
    EvalReport,
    SampleSet,
    build_eval_report,
    build_sample_sets,
    evaluate_boolean_field,
    evaluate_list_field,
    flag_disagreements,
)
from .indicators import (
    ArticleVerdict,
    IndicatorRow,
    accession_stats,
    aggregate_by,
    resolve_verdict,
    trace_coverage,
)
from .backend import complete
from .config import PipelineConfig, load_config
from .pipeline import run_pipeline

__version__ = "0.1.0"
