"""Trace-driven cache replacement and prefetching laboratory."""

from .trace import (
    Trace,
    TraceEvent,
    LruCase,
    MalformedCase,
    MalformedLine,
    InvalidParam,
    emit_plain,
    gen_markov_trace,
    parse_lru_problem,
    parse_plain,
    parse_smpc,
)
from .policies import (
    ARC,
    FIFO,
    LIFO,
    LRU,
    MRU,
    ArcState,
    CacheConfig,
    CacheState,
    PreEvictConfig,
    PreEvictingCache,
    make_cache,
)
from .prefetch import (
    MarkovPredictor,
    PredictorConfig,
    PrefetchConfig,
    coverage,
    decide_prefetch,
)
from .simkit import (
    DuplicateLabel,
    RunConfig,
    SimReport,
    compare,
    emit_report,
    parse_report_csv,
    run_sim,
)

__version__ = "0.1.0"
