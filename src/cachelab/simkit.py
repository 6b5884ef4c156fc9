"""Trace-driven simulation runner, comparison harness, and report emission."""

import csv
import io
import json
import math
from dataclasses import dataclass, fields

from .policies import CacheConfig, PreEvictConfig, PreEvictingCache, make_cache
from .prefetch import PredictorConfig, PrefetchConfig, Prefetcher, coverage
from .trace import InvalidParam, Trace, shown


class DuplicateLabel(InvalidParam):
    pass


@dataclass(frozen=True)
class RunConfig:
    cache: CacheConfig
    pre: PreEvictConfig = None
    prefetch: PrefetchConfig = None
    predictor: PredictorConfig = None
    label: str = ""


@dataclass
class SimReport:
    label: str
    accesses: int
    demand_hits: int
    demand_misses: int
    compulsory_misses: int
    evictions: int
    timer_evictions: int
    halfway_evictions: int
    prefetch_issued: int
    prefetch_useful: int
    prefetch_useless: int
    prefetch_harmful: int
    prefetch_coverage: float
    hit_ratio: float
    distinct_keys: int


REPORT_FIELDS = [f.name for f in fields(SimReport)]
FLOAT_FIELDS = ("prefetch_coverage", "hit_ratio")


class _Run:
    """One configuration's replay, kept across the key blocks it is given: the
    pre-eviction wrapper over the policy replays each block, with the prefetcher's step
    inside the replay when prefetch is on, and both keep their state from block to block.
    A prefetch only inserts a key that an earlier access brought in, so a key's first
    access always misses: compulsory misses are the distinct keys on every path. Each
    demand miss and each prefetch inserts one key, so evictions of every cause are
    misses + issued - residents. Deterministic for identical inputs."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.cache = make_cache(config.cache)
        self.front = PreEvictingCache(self.cache, config.pre or PreEvictConfig())
        self.fetch = config.prefetch and Prefetcher(config.prefetch,
                                                    config.predictor or PredictorConfig())
        self.hits = 0

    def replay(self, keys):
        self.hits += self.front.replay(keys, fetch=self.fetch)

    def report(self, accesses, distinct) -> SimReport:
        """The report after accesses keys, distinct of them different, were replayed."""
        fetch, hits = self.fetch, self.hits
        issued, useful, harmful = ((fetch.issued, fetch.useful, fetch.harmful) if fetch
                                   else (0, 0, 0))
        misses = accesses - hits
        return SimReport(
            label=self.config.label,
            accesses=accesses,
            demand_hits=hits,
            demand_misses=misses,
            compulsory_misses=distinct,
            evictions=misses + issued - len(self.cache),
            timer_evictions=self.front.timer_evictions,
            halfway_evictions=self.front.halfway_evictions,
            prefetch_issued=issued,
            prefetch_useful=useful,
            prefetch_useless=issued - useful - harmful,
            prefetch_harmful=harmful,
            prefetch_coverage=coverage(useful, misses),
            hit_ratio=hits / accesses if accesses else 0.0,
            distinct_keys=distinct,
        )


def run_sim(trace: Trace, config: RunConfig) -> SimReport:
    """One pass over the trace's key column under one configuration."""
    run = _Run(config)
    run.replay(trace.keys)
    return run.report(len(trace.keys), trace.distinct)


def check_labels(configs):
    """Raise DuplicateLabel at the first label that an earlier config holds."""
    labels = set()
    for config in configs:
        if config.label in labels:
            raise DuplicateLabel(f"duplicate label {shown(config.label)}")
        labels.add(config.label)


def compare(trace: Trace, configs) -> list:
    """Independent run_sim per config over the same trace, reports in config order."""
    check_labels(configs)
    return [run_sim(trace, config) for config in configs]


def compare_blocks(blocks, configs) -> list:
    """compare over a trace given as its key blocks, checked as trace.key_blocks yields
    them: each block is replayed through every config before the next is taken, and
    only the running set of distinct keys is kept beside the runs, so no block needs
    to stay in memory once it is replayed. The reports equal compare's on the whole."""
    check_labels(configs)
    runs = [_Run(config) for config in configs]
    accesses, distinct = 0, set()
    for keys in blocks:
        accesses += len(keys)
        distinct.update(keys)
        for run in runs:
            run.replay(keys)
    return [run.report(accesses, len(distinct)) for run in runs]


def _cell(name, value):
    if name in FLOAT_FIELDS:
        return f"{value:.4f}"
    return str(value)


def emit_report(reports, format: str = "table") -> str:
    if format == "json":
        payload = [{name: getattr(r, name) for name in REPORT_FIELDS} for r in reports]
        return json.dumps(payload, indent=2) + "\n"
    rows = [REPORT_FIELDS, *([_cell(name, getattr(r, name)) for name in REPORT_FIELDS]
                             for r in reports)]
    if format == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    if format == "table":
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
                       for row in rows)
    raise ValueError(f"unknown report format {shown(format)}")


def parse_report_csv(text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != REPORT_FIELDS:
        raise ValueError(f"unexpected csv header {shown(header)}")
    reports = []
    for row in reader:
        if len(row) != len(REPORT_FIELDS):
            raise ValueError(f"csv line {reader.line_num}: expected {len(REPORT_FIELDS)} cells, "
                             f"got {len(row)}")
        values = {"label": row[0]}
        for name, cell in zip(REPORT_FIELDS[1:], row[1:]):
            try:
                value = float(cell) if name in FLOAT_FIELDS else int(cell)
            except ValueError:
                value = math.nan  # fails the check below
            if not 0 <= value < math.inf:
                raise ValueError(f"csv line {reader.line_num}: column {name!r}: "
                                 f"bad value {shown(cell)}")
            values[name] = value
        reports.append(SimReport(**values))
    return reports
