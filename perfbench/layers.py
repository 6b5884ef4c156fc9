"""The traced run: spans around the program calls of a pass, and per-layer probes.

Spans are kept in memory as [name, start_ns, end_ns, parent index] and written
out when the run ends. A layer's self time is its span's duration minus what its
child spans cover. A probe replays one layer's public calls, without run_sim
around them, over this workload's inputs inside one span; its metric is the
span's duration over the number of calls. Probe times are in reference units
(calib.py); the spans written out are raw host times. Probes run on every
workload, so each per-layer time is a measured number; the work counts
(evictions, prefetches, table sizes) come from the workload's own pass and read
zero where the pass bypasses a layer. A workload without a trace or a net probes a reference one
made from the same seed.
"""

import contextlib
import gc
import io
import json
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from time import perf_counter_ns
from typing import NamedTuple

from cachelab import (
    CacheConfig,
    MarkovPredictor,
    PredictorConfig,
    PreEvictConfig,
    PreEvictingCache,
    PrefetchConfig,
    RunConfig,
    decide_prefetch,
    emit_plain,
    emit_report,
    gen_markov_trace,
    make_cache,
    parse_plain,
    run_sim,
)
from cachelab import bayes, cli, simkit
from cachelab.policies import POLICIES

import calib
import workloads

EMIT_REPEATS = 20
PARSE_NET_REPEATS = 5
JOINT_ASSIGNMENTS = 500
IMPORT_SAMPLES = 5
# the timer wrapper scans every resident entry per access, so its probe stops here
PREEVICT_EVENTS = 12_000
IMPORT_CLI = ("import time; t = time.perf_counter(); import cachelab.cli; "
              "print(time.perf_counter() - t)")


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, perf_counter_ns(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def self_seconds(self):
        """Self time summed per span name and per layer (the name's first part)."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        by_name = {}
        by_layer = {}
        for (name, *_), ns in zip(self.spans, own):
            by_name[name] = by_name.get(name, 0) + ns / 1e9
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0) + ns / 1e9
        return by_name, by_layer

    def dump(self, path):
        by_name, by_layer = self.self_seconds()
        doc = {
            "spans": [{"name": n, "start_ns": s, "end_ns": e, "parent": p}
                      for n, s, e, p in self.spans],
            "self_s_by_name": by_name,
            "self_s_by_layer": by_layer,
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")


class Timed:
    ns = 0.0


@contextlib.contextmanager
def measured(tracer, name):
    """A probe span. Its .ns is the span's duration in reference nanoseconds,
    from reference loops run just outside the span (see calib.py)."""
    timed = Timed()
    before = calib.reference_loop()
    with tracer.span(name) as record:
        yield timed
    timed.ns = (record[2] - record[1]) * calib.scale(before, calib.reference_loop())


class Probe(NamedTuple):
    trace: object
    text: str
    capacities: tuple
    prefetch: PrefetchConfig
    predictor: PredictorConfig
    nets: list


def probe_inputs(inputs):
    """What the layer probes replay: the workload's own trace, capacities,
    prefetcher and nets, or reference ones from the same seed."""
    spec = inputs.spec
    if inputs.trace is not None:
        trace = inputs.trace
    elif inputs.text is not None:
        trace = parse_plain(inputs.text)
    else:
        trace = gen_markov_trace(inputs.seed, spec.num_keys, spec.length, spec.determinism)
    text = inputs.text if inputs.text is not None else emit_plain(trace)
    capacities = tuple(sorted({c.cache.capacity for c in inputs.configs})) or (32,)
    fetching = [c for c in inputs.configs if c.prefetch is not None]
    prefetch = fetching[0].prefetch if fetching else PrefetchConfig()
    predictor = (fetching[0].predictor if fetching else None) or PredictorConfig()
    nets = inputs.nets
    if not nets:
        s = workloads.SCALES[inputs.scale]
        nets = workloads.make_nets(inputs.seed, s["reference_net_sizes"],
                                   s["queries_per_net"], s["learn_rows"])
    return Probe(trace, text, capacities, prefetch, predictor, nets)


def _replay(tracer, name, cache, keys):
    """Bare access replay without run_sim; reference nanoseconds for the whole loop."""
    access = cache.access
    with measured(tracer, name) as timed:
        for seq, key in enumerate(keys):
            access(key, seq)
    return timed.ns


def trace_probes(tracer, inputs, probe):
    spec = inputs.spec
    m = {}
    with measured(tracer, "trace.gen_markov_trace") as timed:
        gen_markov_trace(inputs.seed, spec.num_keys, spec.length, spec.determinism)
    m["trace.gen_s"] = timed.ns / 1e9
    with measured(tracer, "trace.parse_plain") as timed:
        parse_plain(probe.text)
    m["trace.parse_s"] = timed.ns / 1e9
    m["trace.parse_ns_per_event"] = timed.ns / len(probe.trace)
    gc.collect()
    tracemalloc.start()
    try:
        parsed = parse_plain(probe.text)
        m["trace.bytes_per_event"] = tracemalloc.get_traced_memory()[0] / len(parsed)
    finally:
        tracemalloc.stop()
    return m


def policy_probes(tracer, probe, keys):
    """Bare policy replays, then the same configurations through run_sim."""
    m = {}
    bare = 0
    caches = {}
    for policy in POLICIES:
        total = 0
        for k in probe.capacities:
            cache = caches[policy, k] = make_cache(CacheConfig(k, policy))
            total += _replay(tracer, f"policies.{policy}.access", cache, keys)
        m[f"policies.{policy}.access_ns"] = total / (len(keys) * len(probe.capacities))
        bare += total
    configs = [RunConfig(cache=CacheConfig(k, p), label=f"{p}@{k}")
               for p in POLICIES for k in probe.capacities]
    reports = []
    driven = 0
    for config in configs:
        with measured(tracer, "simkit.run_sim") as timed:
            reports.append(run_sim(probe.trace, config))
        driven += timed.ns
    m["simkit.run_sim_s"] = driven / 1e9
    m["simkit.driver_overhead_x"] = driven / bare
    for fmt in ("json", "csv", "table"):
        with measured(tracer, f"simkit.emit_report.{fmt}") as timed:
            for _ in range(EMIT_REPEATS):
                emit_report(reports, fmt)
        m[f"simkit.emit_{fmt}_ms"] = timed.ns / EMIT_REPEATS / 1e6
    return m, reports, caches


@contextlib.contextmanager
def _spans_inside_cli(tracer):
    """Wrap the calls `cachelab compare` makes into the other layers in spans."""
    targets = [(cli, "parse_plain", "trace.parse_plain"), (cli, "compare", "simkit.compare"),
               (cli, "emit_report", "simkit.emit_report"), (simkit, "run_sim", "simkit.run_sim")]
    saved = [(module, attr, name, getattr(module, attr)) for module, attr, name in targets
             if hasattr(module, attr)]
    for module, attr, name, fn in saved:
        setattr(module, attr, lambda *a, _fn=fn, _name=name, **kw:
                tracer.call(_name, lambda: _fn(*a, **kw)))
    try:
        yield
    finally:
        for module, attr, _, fn in saved:
            setattr(module, attr, fn)


def cli_probe(tracer, probe, reports, trace_file):
    """In-process `cachelab compare` on the probe trace, stdout captured. Its
    report must equal run_sim's for the same configurations."""
    trace_file.write_text(probe.text)
    argv = ["compare", "--trace", str(trace_file), "--policies", ",".join(POLICIES),
            "--capacities", ",".join(map(str, probe.capacities)), "--out", "json"]
    out = io.StringIO()
    with _spans_inside_cli(tracer), contextlib.redirect_stdout(out):
        with measured(tracer, "cli.main") as timed:
            code = cli.main(argv)
    problems = []
    if code != 0 or out.getvalue() != emit_report(reports, "json"):
        problems.append(f"cli compare exit {code} or report differs from run_sim's")
    return {"cli.compare_s": timed.ns / 1e9}, problems


def preevict_probes(tracer, inputs, probe, keys):
    keys = keys[:PREEVICT_EVENTS]
    k = max(probe.capacities)
    plain = _replay(tracer, "policies.lru.access", make_cache(CacheConfig(k, "lru")), keys)
    halfway = PreEvictConfig(halfway_enabled=True, address_space_size=inputs.spec.num_keys)
    m = {}
    for name, config in (("timer", workloads.CHURN_TIMER), ("halfway", halfway)):
        cache = PreEvictingCache(make_cache(CacheConfig(k, "lru")), config)
        ns = _replay(tracer, f"preevict.{name}.access", cache, keys)
        m[f"preevict.{name}.access_ns"] = ns / len(keys)
        if name == "timer":
            m["preevict.overhead_x"] = ns / plain
    return m


def _record_log_calls(trace, config):
    """The PrefetchLog calls one run_sim makes, in order, for replay on a fresh log;
    no calls when run_sim no longer builds a PrefetchLog."""
    base = getattr(simkit, "PrefetchLog", None)
    calls = []
    if base is None:
        return base, calls

    def recorder(method):
        def record(self, *args, **kwargs):
            calls.append((method, args, kwargs))
            return getattr(base, method)(self, *args, **kwargs)
        return record

    methods = [m for m in ("issue", "resolve", "demand_miss", "demand_hit", "evicted")
               if hasattr(base, m)]
    simkit.PrefetchLog = type("RecordingLog", (base,), {m: recorder(m) for m in methods})
    try:
        run_sim(trace, config)
    finally:
        simkit.PrefetchLog = base
    return base, calls


def prefetch_probes(tracer, probe, keys, resident):
    cfg = probe.predictor
    predictor = MarkovPredictor(cfg.order, cfg.alpha, cfg.min_support)
    observe = predictor.observe
    with measured(tracer, "prefetch.observe") as timed:
        for key in keys:
            observe(key)
    m = {"prefetch.observe_ns": timed.ns / len(keys)}
    order = cfg.order
    # every context along the trace, asked of the fully trained table
    contexts = [tuple(keys[i - order + 1:i + 1]) for i in range(order - 1, len(keys))]
    predict = predictor.predict_next
    top_k = probe.prefetch.top_k
    with measured(tracer, "prefetch.predict_next") as timed:
        predictions = [predict(ctx, top_k=top_k) for ctx in contexts]
    m["prefetch.predict_ns"] = timed.ns / len(contexts)
    pcfg = probe.prefetch
    with measured(tracer, "prefetch.decide_prefetch") as timed:
        for ranked in predictions:
            decide_prefetch(ranked, pcfg, resident)
    m["prefetch.decide_ns"] = timed.ns / len(predictions)
    config = RunConfig(cache=CacheConfig(max(probe.capacities), "lru"),
                       prefetch=probe.prefetch, predictor=cfg)
    log_type, calls = _record_log_calls(probe.trace, config)
    log = log_type() if calls else None
    bound = {name: getattr(log, name) for name, _, _ in calls}
    with measured(tracer, "prefetch.log") as timed:
        for method, args, kwargs in calls:
            bound[method](*args, **kwargs)
    m["prefetch.log_ns"] = timed.ns / len(calls) if calls else 0.0
    return m


def bayes_probes(tracer, probe, seed):
    totals = {kind: [0.0, 0] for kind in ("parse", "enum", "ve", "joint", "learn", "blanket")}

    def add(kind, timed, calls):
        totals[kind][0] += timed.ns
        totals[kind][1] += calls

    rng = random.Random(seed)
    max_diff = 0.0
    for case in probe.nets:
        with measured(tracer, "bayes.parse_net") as timed:
            for _ in range(PARSE_NET_REPEATS):
                net = bayes.parse_net(case.text)
        add("parse", timed, PARSE_NET_REPEATS)
        with measured(tracer, "bayes.infer_enumeration") as timed:
            enum = [bayes.infer_enumeration(net, q, ev) for q, ev in case.queries]
        add("enum", timed, len(case.queries))
        with measured(tracer, "bayes.infer_variable_elimination") as timed:
            ve = [bayes.infer_variable_elimination(net, q, ev) for q, ev in case.queries]
        add("ve", timed, len(case.queries))
        max_diff = max([max_diff] + [float(abs(a - b).max()) for a, b in zip(enum, ve)])
        assignments = [{v: rng.randint(0, 1) for v in case.names}
                       for _ in range(JOINT_ASSIGNMENTS)]
        with measured(tracer, "bayes.joint_probability") as timed:
            for assignment in assignments:
                bayes.joint_probability(net, assignment)
        add("joint", timed, len(assignments))
        variables = [bayes.Variable(name, 2) for name in case.names]
        with measured(tracer, "bayes.learn_cpts") as timed:
            bayes.learn_cpts(variables, case.structure, case.rows)
        add("learn", timed, 1)
        with measured(tracer, "bayes.markov_blanket") as timed:
            for name in case.names:
                bayes.markov_blanket(net, name)
        add("blanket", timed, len(case.names))
    mean = {kind: ns / calls for kind, (ns, calls) in totals.items()}
    return {
        "bayes.parse_net_ms": mean["parse"] / 1e6,
        "bayes.enum_ms": mean["enum"] / 1e6,
        "bayes.ve_ms": mean["ve"] / 1e6,
        "bayes.joint_us": mean["joint"] / 1e3,
        "bayes.learn_ms": mean["learn"] / 1e6,
        "bayes.blanket_us": mean["blanket"] / 1e3,
        "bayes.max_abs_diff": max_diff,
    }


def probe_round(tracer, inputs, probe, trace_file):
    keys = [e.key for e in probe.trace.events]
    m = trace_probes(tracer, inputs, probe)
    policy, reports, caches = policy_probes(tracer, probe, keys)
    m.update(policy)
    cli_metrics, problems = cli_probe(tracer, probe, reports, trace_file)
    m.update(cli_metrics)
    m.update(preevict_probes(tracer, inputs, probe, keys))
    m.update(prefetch_probes(tracer, probe, keys, caches["lru", max(probe.capacities)]))
    m.update(bayes_probes(tracer, probe, inputs.seed))
    return m, problems


def work_counts(inputs, result, keys):
    """Exact work the pass did, per layer; zero where the pass bypasses the layer.
    Predictor table sizes are counted from the trace: distinct contexts, and
    distinct (context, successor) pairs."""
    m = {f"policies.{p}.evictions": 0 for p in POLICIES}
    timer = halfway = issued = useful = harmful = misses = contexts = successors = 0
    for config, op in zip(inputs.configs, result.ops):
        r = op.value
        if isinstance(r, Exception):
            continue
        m[f"policies.{config.cache.policy}.evictions"] += r.evictions
        timer += r.timer_evictions
        halfway += r.halfway_evictions
        if config.prefetch is not None:
            issued += r.prefetch_issued
            useful += r.prefetch_useful
            harmful += r.prefetch_harmful
            misses += r.demand_misses
            order = (config.predictor or PredictorConfig()).order
            windows = [tuple(keys[i:i + order + 1]) for i in range(len(keys) - order)]
            contexts += len({w[:-1] for w in windows})
            successors += len(set(windows))
    m.update({
        "preevict.timer_evictions": timer,
        "preevict.halfway_evictions": halfway,
        "prefetch.issued": issued,
        "prefetch.useful_ratio": useful / issued if issued else 0.0,
        "prefetch.harmful_ratio": harmful / issued if issued else 0.0,
        "prefetch.coverage_pct": 100.0 * useful / (useful + misses) if useful + misses else 0.0,
        "prefetch.contexts": contexts,
        "prefetch.successor_entries": successors,
    })
    return m


def import_ms():
    """`import cachelab.cli` in fresh interpreters, in reference milliseconds."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = calib.reference_loop()
        done = subprocess.run([sys.executable, "-c", IMPORT_CLI], capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(done.stdout) * 1e3 * calib.scale(before, calib.reference_loop()))
    return statistics.median(samples)


def timed_pass(inputs, tracer=None):
    """One pass, traced when a tracer is given, and the time of its program calls
    in reference seconds, clocked as the untraced measurement clocks them. The
    "pass" span's self time holds the reference loops."""
    gc.collect()
    clock = calib.Clock(inputs.workload in calib.SCANNING)
    if tracer is None:
        result = workloads.run_pass(inputs, clock.call)
    else:
        def call(name, fn, *args):
            return clock.call(name, tracer.call, name, fn, *args)
        with tracer.span("pass"):
            result = workloads.run_pass(inputs, call)
    clock.flush()
    return result, clock.reference


def trace_run(inputs, checker, seconds, out_dir):
    """Rounds of (untraced pass, traced pass, probes) until `seconds` have passed.
    Per-layer metrics are medians over rounds; tracing overhead is the traced
    pass's time minus the untraced one's."""
    tracer = Tracer()
    probe = probe_inputs(inputs)
    trace_file = out_dir / f"probe-{inputs.workload}-{inputs.seed}.txt"
    rounds = []
    overheads = []
    attempted = failed = 0
    identical = True
    problems = []
    counts = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain, untraced = timed_pass(inputs)
        traced, traced_s = timed_pass(inputs, tracer)
        overheads.append(traced_s - untraced)
        identical = identical and traced.output == plain.output
        attempted += len(plain.ops) + len(traced.ops)
        failed += checker.check(plain) + checker.check(traced)
        if counts is None:
            counts = work_counts(inputs, plain, [e.key for e in probe.trace.events])
        with tracer.span("probes"):
            metrics, round_problems = probe_round(tracer, inputs, probe, trace_file)
        if round_problems:
            failed += 1
            problems.extend(round_problems)
        attempted += 1
        rounds.append(metrics)
    trace_file.unlink()
    layer = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    layer.update(counts)
    layer["tracing.overhead_s"] = statistics.median(overheads)
    layer["cli.import_ms"] = import_ms()
    spans_path = out_dir / f"spans-{inputs.workload}-{inputs.seed}.json"
    tracer.dump(spans_path)
    _, by_layer = tracer.self_seconds()
    return {
        "layer": layer,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "traced_report_identical": identical,
        "self_s_by_layer": by_layer,
        "spans_file": spans_path.name,
    }
