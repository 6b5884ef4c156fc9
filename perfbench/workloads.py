"""The benchmark's workloads: seeded inputs, one pass over the program, and the
checks on what the pass returned.

A workload hands the program only what a user would: plain trace text, a
`Trace`, or net JSON text. Every program call of a pass goes through `call`,
so the traced run can wrap each one in a span without a second code path.
"""

import dataclasses
import json
import random
import sys
import traceback
from collections import OrderedDict
from pathlib import Path
from typing import NamedTuple

from cachelab import (
    CacheConfig,
    PredictorConfig,
    PreEvictConfig,
    PrefetchConfig,
    RunConfig,
    emit_plain,
    emit_report,
    gen_markov_trace,
    parse_plain,
    run_sim,
)
from cachelab import bayes
from cachelab.policies import POLICIES
from cachelab.prefetch import ON_MISS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 0
COVERAGE_TOL = 1e-9
INFERENCE_TOL = 1e-9

# Input sizes. "full" is what the benchmark measures; "smoke" only exercises
# every code path quickly, for the benchmark's own tests.
SCALES = {
    "full": {
        "sweep_events": 40_000,
        "uplift_events": 20_000,
        "churn_events": 12_000,
        "net_sizes": (12, 14, 16),
        "queries_per_net": 4,
        "learn_rows": 2_000,
        "reference_events": 20_000,
        "reference_net_sizes": (12,),
    },
    "smoke": {
        "sweep_events": 3_000,
        "uplift_events": 4_000,
        "churn_events": 1_500,
        "net_sizes": (6, 7),
        "queries_per_net": 2,
        "learn_rows": 200,
        "reference_events": 2_000,
        "reference_net_sizes": (6,),
    },
}

SWEEP_CAPACITIES = (6, 32, 775)
CHURN_CAPACITY = 775
CHURN_KEYS = 4096
# At k=775 on the churn trace, 864 makes both the timer and the base policy
# evict (about a third of LRU's evictions and half of ARC's are timer evictions);
# 1024 leaves LRU with none and 512 leaves the base policy with almost none.
CHURN_TIMER_INIT = 864
CHURN_TIMER = PreEvictConfig(timer_enabled=True, timer_init=CHURN_TIMER_INIT)
CHURN_HALFWAY = PreEvictConfig(halfway_enabled=True, address_space_size=CHURN_KEYS)
CHURN_PREFETCH = PrefetchConfig(top_k=3, p_min=0.05, trigger=ON_MISS)
CHURN_PREDICTOR = PredictorConfig(order=2)


class TraceSpec(NamedTuple):
    num_keys: int
    length: int
    determinism: float


class NetCase(NamedTuple):
    """One net as the program receives it, plus what the benchmark asks of it."""
    text: str
    names: list
    structure: dict      # name -> parent names
    queries: list        # (query variable, evidence dict)
    rows: list           # sampled complete assignments for learn_cpts


class Inputs(NamedTuple):
    workload: str
    seed: int
    scale: str
    spec: TraceSpec = None
    text: str = None     # sweep: the trace as the CLI would read it
    trace: object = None
    configs: list = ()
    nets: list = ()


class OpResult(NamedTuple):
    label: str
    value: object        # what the program returned, or the exception it raised
    entry: dict = None   # the op's part of the emitted report


class PassResult(NamedTuple):
    ops: list
    output: str          # the emitted report bytes
    events: int          # simulated demand accesses, or enumerated joint assignments


def direct(name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------- inputs


def sweep_configs():
    return [RunConfig(cache=CacheConfig(k, p), label=f"{p}@{k}")
            for p in POLICIES for k in SWEEP_CAPACITIES]


def uplift_configs():
    return [
        RunConfig(cache=CacheConfig(32, "lru"), label="lru@32"),
        RunConfig(cache=CacheConfig(32, "lru"), prefetch=PrefetchConfig(),
                  predictor=PredictorConfig(), label="lru@32+pgm"),
    ]


def churn_configs():
    k = CHURN_CAPACITY
    return [
        RunConfig(cache=CacheConfig(k, "lru"), pre=CHURN_TIMER, label=f"lru@{k}+timer"),
        RunConfig(cache=CacheConfig(k, "arc"), pre=CHURN_TIMER, label=f"arc@{k}+timer"),
        RunConfig(cache=CacheConfig(k, "lru"), pre=CHURN_HALFWAY, label=f"lru@{k}+halfway"),
        RunConfig(cache=CacheConfig(k, "arc"), pre=CHURN_HALFWAY, label=f"arc@{k}+halfway"),
        RunConfig(cache=CacheConfig(k, "arc"), pre=CHURN_TIMER, prefetch=CHURN_PREFETCH,
                  predictor=CHURN_PREDICTOR, label=f"arc@{k}+timer+pgm2"),
    ]


def trace_specs(scale):
    s = SCALES[scale]
    return {
        "sweep": TraceSpec(2000, s["sweep_events"], 0.8),
        "uplift": TraceSpec(500, s["uplift_events"], 0.9),
        "churn": TraceSpec(CHURN_KEYS, s["churn_events"], 0.5),
        # bayes has no trace; its layer probes use a sweep-shaped one
        "bayes": TraceSpec(2000, s["reference_events"], 0.8),
    }


def random_net(rng, n):
    """Binary variables X0..X{n-1}; each takes up to three parents among the
    earlier ones, and every CPT entry lies in [0.05, 0.95] so no evidence has
    probability zero."""
    names = [f"X{i}" for i in range(n)]
    structure = {}
    cpts = []
    for i, name in enumerate(names):
        parents = sorted(rng.sample(names[:i], rng.randint(0, min(3, i))),
                         key=lambda p: int(p[1:]))
        structure[name] = parents
        rows = []
        for _ in range(2 ** len(parents)):
            p = round(rng.uniform(0.05, 0.95), 6)
            rows.append([p, 1.0 - p])
        cpts.append({"child": name, "parents": parents, "rows": rows})
    doc = {"variables": [{"name": v, "cardinality": 2} for v in names], "cpts": cpts}
    return doc, names, structure


def sample_rows(rng, doc, count):
    """Forward samples; the variables are listed in topological order."""
    cpts = doc["cpts"]
    rows = []
    for _ in range(count):
        row = {}
        for cpt in cpts:
            index = 0
            for p in cpt["parents"]:
                index = index * 2 + row[p]
            row[cpt["child"]] = 0 if rng.random() < cpt["rows"][index][0] else 1
        rows.append(row)
    return rows


def make_nets(seed, sizes, queries_per_net, learn_rows):
    rng = random.Random(seed)
    nets = []
    for n in sizes:
        doc, names, structure = random_net(rng, n)
        queries = []
        for _ in range(queries_per_net):
            query, *observed = rng.sample(names, 3)
            queries.append((query, {v: rng.randint(0, 1) for v in observed}))
        rows = sample_rows(rng, doc, learn_rows)
        nets.append(NetCase(json.dumps(doc), names, structure, queries, rows))
    return nets


def build_inputs(workload, seed, scale="full"):
    """Everything a workload's passes read, generated from the seed."""
    s = SCALES[scale]
    if workload == "bayes":
        nets = make_nets(seed, s["net_sizes"], s["queries_per_net"], s["learn_rows"])
        return Inputs(workload, seed, scale, spec=trace_specs(scale)["bayes"], nets=nets)
    spec = trace_specs(scale)[workload]
    trace = gen_markov_trace(seed, spec.num_keys, spec.length, spec.determinism)
    if workload == "sweep":
        return Inputs(workload, seed, scale, spec=spec, text=emit_plain(trace),
                      configs=sweep_configs())
    configs = uplift_configs() if workload == "uplift" else churn_configs()
    return Inputs(workload, seed, scale, spec=spec, trace=trace, configs=configs)


# ---------------------------------------------------------------- passes


def _guarded(label, fn, *args):
    """One op: its result, or the exception it raised (reported, then counted as failed)."""
    try:
        return OpResult(label, fn(*args))
    except Exception as exc:  # an op that raises is a failed op; the pass goes on
        traceback.print_exc(file=sys.stderr)
        return OpResult(label, exc)


def simulation_pass(inputs, call=direct):
    """The path of `cachelab compare`: parse the text (sweep only), one run_sim per
    config, then the JSON report."""
    trace = inputs.trace
    if inputs.text is not None:
        trace = call("trace.parse_plain", parse_plain, inputs.text)
    ops = [_guarded(c.label, call, "simkit.run_sim", run_sim, trace, c) for c in inputs.configs]
    reports = [op.value for op in ops if not isinstance(op.value, Exception)]
    output = call("simkit.emit_report", emit_report, reports, "json")
    entries = iter(json.loads(output))
    ops = [op if isinstance(op.value, Exception) else op._replace(entry=next(entries))
           for op in ops]
    return PassResult(ops, output, len(trace) * len(inputs.configs))


def _probs(dist):
    return [f"{float(p):.12f}" for p in dist]


def _answer(call, net, query, evidence):
    enum = call("bayes.infer_enumeration", bayes.infer_enumeration, net, query, evidence)
    ve = call("bayes.infer_variable_elimination", bayes.infer_variable_elimination,
              net, query, evidence)
    return enum, ve


def bayes_pass(inputs, call=direct):
    """Per net: parse the JSON, answer each query by enumeration and by variable
    elimination, learn the CPTs from sampled rows, and take every Markov blanket."""
    ops = []
    events = 0
    for index, case in enumerate(inputs.nets):
        net = call("bayes.parse_net", bayes.parse_net, case.text)
        for query, evidence in case.queries:
            op = _guarded(f"net{index}:query:{query}", _answer, call, net, query, evidence)
            if not isinstance(op.value, Exception):
                enum, ve = op.value
                op = op._replace(entry={"net": index, "query": query, "evidence": evidence,
                                        "enum": _probs(enum), "ve": _probs(ve)})
            ops.append(op)
            # complete assignments enumeration sums: every variable is binary
            events += 2 ** (len(case.names) - len(evidence))
        variables = [bayes.Variable(name, 2) for name in case.names]
        op = _guarded(f"net{index}:learn", call, "bayes.learn_cpts", bayes.learn_cpts,
                      variables, case.structure, case.rows)
        if not isinstance(op.value, Exception):
            op = op._replace(entry={"net": index, "learned": {
                name: [_probs(row) for row in op.value.cpts[name].rows] for name in case.names}})
        ops.append(op)
        for name in case.names:
            op = _guarded(f"net{index}:blanket:{name}", call, "bayes.markov_blanket",
                          bayes.markov_blanket, net, name)
            if not isinstance(op.value, Exception):
                op = op._replace(entry={"net": index, "var": name,
                                        "blanket": sorted(op.value, key=lambda v: int(v[1:]))})
            ops.append(op)
    output = json.dumps([op.entry for op in ops], separators=(",", ":")) + "\n"
    return PassResult(ops, output, events)


def run_pass(inputs, call=direct):
    if inputs.workload == "bayes":
        return bayes_pass(inputs, call)
    return simulation_pass(inputs, call)


def query_count(result):
    """Inference queries in a bayes pass; elsewhere every op is one run_sim call."""
    return sum(":query:" in op.label for op in result.ops) or len(result.ops)


# ---------------------------------------------------------------- checks


def check_report(r, config, n_events, distinct):
    """Problems with one SimReport: the report identities and, where the run has
    no pre-eviction, the exact eviction count a full cache implies."""
    problems = []
    if r.label != config.label:
        problems.append(f"label {r.label!r}")
    if r.demand_hits + r.demand_misses != r.accesses:
        problems.append("hits + misses != accesses")
    if r.accesses != n_events:
        problems.append(f"accesses {r.accesses} != trace length {n_events}")
    if r.distinct_keys != distinct:
        problems.append(f"distinct_keys {r.distinct_keys} != {distinct}")
    if r.compulsory_misses > r.distinct_keys:
        problems.append("compulsory misses exceed distinct keys")
    if r.prefetch_useful + r.prefetch_useless + r.prefetch_harmful != r.prefetch_issued:
        problems.append("useful + useless + harmful != issued")
    denom = r.prefetch_useful + r.demand_misses
    coverage = 100.0 * r.prefetch_useful / denom if denom else 0.0
    if r.prefetch_issued and abs(r.prefetch_coverage - coverage) > COVERAGE_TOL:
        problems.append(f"coverage {r.prefetch_coverage} != {coverage}")
    if r.accesses and abs(r.hit_ratio - r.demand_hits / r.accesses) > COVERAGE_TOL:
        problems.append("hit_ratio != hits / accesses")
    if r.timer_evictions + r.halfway_evictions > r.evictions:
        problems.append("timer + halfway evictions exceed evictions")
    if config.prefetch is None:
        if r.prefetch_issued or r.prefetch_coverage:
            problems.append("prefetch counts without a prefetcher")
        if r.compulsory_misses != r.distinct_keys:
            problems.append("compulsory misses != distinct keys")
    if config.pre is None:
        if r.timer_evictions or r.halfway_evictions:
            problems.append("pre-evictions without pre-eviction")
        # every demand miss and every prefetch inserts one key; once k are
        # resident each insertion evicts exactly one
        expected = max(0, r.demand_misses + r.prefetch_issued - config.cache.capacity)
        if r.evictions != expected:
            problems.append(f"evictions {r.evictions} != {expected}")
    return problems


def lru_hits(keys, capacity):
    """Independent LRU oracle: an OrderedDict in recency order."""
    cache = OrderedDict()
    hits = 0
    for key in keys:
        if key in cache:
            hits += 1
            cache.move_to_end(key)
        else:
            if len(cache) >= capacity:
                cache.popitem(last=False)
            cache[key] = None
    return hits


def learned_rows(case, name):
    """Count-based CPT rows for one variable, computed without the program."""
    parents = case.structure[name]
    counts = {}
    for row in case.rows:
        u = 0
        for p in parents:
            u = u * 2 + row[p]
        counts.setdefault(u, [0, 0])[row[name]] += 1
    rows = []
    for u in range(2 ** len(parents)):
        c = counts.get(u)
        total = sum(c) if c else 0
        rows.append([0.5, 0.5] if not total else [c[0] / total, c[1] / total])
    return rows


def blanket(case, name):
    result = set(case.structure[name])
    for child, parents in case.structure.items():
        if name in parents:
            result.add(child)
            result.update(parents)
    result.discard(name)
    return sorted(result, key=lambda v: int(v[1:]))


class Checker:
    """Judges every op of every pass. Oracles that cost a pass of their own run
    once per process, on the first pass, and their verdicts hold for every
    pass; later passes must match the reference report op by op. The reference
    is the first pass's report, or at the golden seed the report recorded from
    the seed commit."""

    def __init__(self, inputs, inject_fault=False):
        self.inputs = inputs
        self.inject_fault = inject_fault
        self.reference = None
        self.problems = []
        if inputs.text is not None:
            self.keys = [int(line) for line in inputs.text.split()]
        elif inputs.trace is not None:
            self.keys = [e.key for e in inputs.trace.events]
        golden = GOLDEN_DIR / f"{inputs.workload}.json"
        if inputs.seed == GOLDEN_SEED and inputs.scale == "full" and golden.exists():
            self.reference = golden.read_text()
        self._oracle = None

    def check(self, result):
        """Number of failed ops in this pass; each reason is kept in self.problems."""
        if self.inject_fault:
            result = self._corrupt(result)
        verdicts = [self._op_problems(op) for op in result.ops]
        if self._oracle is None:
            self._oracle = [[] for _ in result.ops]
            self._pass_oracles(result, self._oracle)
        # a later pass either repeats the first pass's report, and so its
        # verdicts, or differs from the reference and fails below
        for problems, oracle in zip(verdicts, self._oracle):
            problems.extend(oracle)
        if self.reference is None:
            self.reference = result.output
        elif result.output != self.reference:
            self._compare(result, verdicts)
        failed = 0
        for op, problems in zip(result.ops, verdicts):
            if problems:
                failed += 1
                self.problems.append(f"{op.label}: {'; '.join(problems)}")
        return failed

    def _corrupt(self, result):
        """Self-test hook: the first op's answer is made wrong after the program returns it."""
        first = result.ops[0]
        if self.inputs.workload == "bayes":
            enum, ve = first.value
            bad = first._replace(value=(enum + 0.01, ve))
        else:
            report = first.value
            bad = first._replace(value=dataclasses.replace(report,
                                                           demand_hits=report.demand_hits + 1))
        return result._replace(ops=[bad] + result.ops[1:])

    def _op_problems(self, op):
        if isinstance(op.value, Exception):
            return [f"raised {op.value!r}"]
        inputs = self.inputs
        if inputs.workload != "bayes":
            config = next(c for c in inputs.configs if c.label == op.label)
            return check_report(op.value, config, len(self.keys), len(set(self.keys)))
        if ":query:" not in op.label:
            return []  # learn and blanket ops are judged by the oracles
        enum, ve = op.value
        problems = []
        diff = max(abs(float(a) - float(b)) for a, b in zip(enum, ve))
        if len(enum) != len(ve) or diff > INFERENCE_TOL:
            problems.append(f"enumeration and elimination differ by {diff}")
        if abs(float(sum(enum)) - 1.0) > INFERENCE_TOL or min(enum) < 0:
            problems.append("posterior is not a distribution")
        return problems

    def _pass_oracles(self, result, verdicts):
        inputs = self.inputs
        if inputs.workload == "bayes":
            self._bayes_oracles(result, verdicts)
            return
        keys = self.keys
        lru = [(i, op) for i, op in enumerate(result.ops)
               if not isinstance(op.value, Exception)
               and inputs.configs[i].cache.policy == "lru" and inputs.configs[i].pre is None
               and inputs.configs[i].prefetch is None]
        for i, op in lru:
            expected = lru_hits(keys, inputs.configs[i].cache.capacity)
            if op.value.demand_hits != expected:
                verdicts[i].append(f"LRU hits {op.value.demand_hits} != oracle {expected}")
        hits = [op.value.demand_hits for _, op in lru]
        if inputs.workload == "sweep" and hits != sorted(hits):
            for i, _ in lru:
                verdicts[i].append(f"LRU hits {hits} decrease as k grows")

    def _bayes_oracles(self, result, verdicts):
        by_label = {op.label: i for i, op in enumerate(result.ops)}
        for index, case in enumerate(self.inputs.nets):
            i = by_label[f"net{index}:learn"]
            learned = result.ops[i].value
            if not isinstance(learned, Exception):
                for name in case.names:
                    if learned.cpts[name].rows != learned_rows(case, name):
                        verdicts[i].append(f"learned CPT of {name} differs from the counts")
            for name in case.names:
                i = by_label[f"net{index}:blanket:{name}"]
                op = result.ops[i]
                expected = blanket(case, name)
                if not isinstance(op.value, Exception) and op.entry["blanket"] != expected:
                    verdicts[i].append(f"blanket of {name} is {op.entry['blanket']}, "
                                       f"not {expected}")

    def _compare(self, result, verdicts):
        """The report differs from the reference: fail each op whose entry differs,
        or the first op when only the bytes around the entries changed."""
        try:
            expected = json.loads(self.reference)
        except ValueError:
            expected = []
        entries = [op.entry for op in result.ops]
        if len(expected) != len(entries):
            expected = [None] * len(entries)
        blamed = False
        for i, (got, want) in enumerate(zip(entries, expected)):
            if got != want:
                verdicts[i].append("report differs from the reference")
                blamed = True
        if not blamed:
            verdicts[0].append("report bytes differ from the reference")
