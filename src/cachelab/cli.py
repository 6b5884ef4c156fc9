"""Command-line front end: run, compare, gen-trace, lru-sim, and bayes subcommands.

Exit codes: 0 success, 1 runtime error (I/O, parse, inference), 2 usage error.
"""

import argparse
import functools
import math
import sys

from . import bayes
from .policies import ARC, POLICIES, CacheConfig, CacheState, PreEvictConfig
from .prefetch import PredictorConfig, PrefetchConfig
from .simkit import DuplicateLabel, RunConfig, check_labels, compare, emit_report
from .trace import (
    InvalidParam,
    MalformedCase,
    MalformedLine,
    emit_plain,
    gen_markov_trace,
    key_letter,
    letter_key,
    parse_lru_problem,
    parse_plain,
    parse_smpc,
)


def _add_policy_flags(sub, many=False):
    sub.add_argument("--trace", required=True, help="trace file path")
    sub.add_argument("--format", choices=("plain", "smpc"), default="plain")
    if many:
        sub.add_argument("--policies", required=True,
                         help="comma list from fifo,lifo,lru,mru,arc")
        sub.add_argument("--capacities", required=True,
                         help="comma list of sizes; 'log' and 'sqrt' resolve against n")
    else:
        sub.add_argument("--policy", choices=POLICIES, required=True)
        sub.add_argument("--capacity", type=int, required=True)
    sub.add_argument("--arc-adaptation", choices=("unit", "ratio"))
    sub.add_argument("--pre-evict", choices=("halfway",))
    sub.add_argument("--address-space", type=int, help="key-space bound for the halfway rule")
    sub.add_argument("--pre-evict-timer", type=int, metavar="T",
                     help="expire entries unhit for T requests")
    sub.add_argument("--prefetch", choices=("pgm",))
    sub.add_argument("--order", type=int)
    sub.add_argument("--top-k", type=int)
    sub.add_argument("--p-min", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--min-support", type=int)
    sub.add_argument("--out", choices=("json", "csv", "table"), default="table")


def build_parser():
    """Each subparser's handler takes that subparser, so that a usage error a handler
    raises prints the subcommand's usage and prefix, as argparse's own errors do."""
    parser = argparse.ArgumentParser(prog="cachelab",
                                     description="cache replacement and prefetching lab")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, summary):
        sub = subs.add_parser(name, help=summary)
        sub.set_defaults(handler=functools.partial(handler, sub))
        return sub

    _add_policy_flags(add("run", cmd_run, "simulate one configuration over a trace"))
    _add_policy_flags(add("compare", cmd_compare,
                          "sweep policies x capacities over one trace"), many=True)

    gen = add("gen-trace", cmd_gen_trace, "write a seeded synthetic trace")
    gen.add_argument("--model", choices=("markov",), required=True)
    gen.add_argument("--states", type=int, required=True)
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--determinism", type=float, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output path")

    add("lru-sim", cmd_lru_sim, "LRU print-state simulator over standard input")

    bay = add("bayes", cmd_bayes, "query a Bayesian network file")
    bay.add_argument("--net", required=True, help="JSON net file")
    bay.add_argument("--query", required=True, help="query variable")
    bay.add_argument("--evidence", default="", help="VAR=VAL[,VAR=VAL...]")
    bay.add_argument("--method", choices=("enum", "ve"), default="ve")

    return parser


def _fail(message):
    print(message, file=sys.stderr)
    return 1


def _items(text):
    """A comma list's items, stripped, skipping empty ones."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _load_trace(args):
    with open(args.trace, "rb") as fh:
        data = fh.read()
    if args.format == "smpc":
        return parse_smpc(data)
    return parse_plain(data)


def _given(parser, args, enabled, needs, names):
    """Config fields for the given flags among names; a usage error without `needs`."""
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if given and not enabled:
        parser.error(f"--{next(iter(given)).replace('_', '-')} requires {needs}")
    return given


def _axis_configs(parser, args):
    """The pre-eviction, prefetch and predictor configs the flags build. The configs
    check the values; flags not given take the config classes' defaults."""
    _given(parser, args, args.pre_evict, "--pre-evict halfway", ["address_space"])
    if args.pre_evict == "halfway" and args.address_space is None:
        parser.error("--pre-evict halfway requires --address-space")
    enabled = args.prefetch is not None
    fetch = _given(parser, args, enabled, "--prefetch pgm", ["top_k", "p_min"])
    predict = _given(parser, args, enabled, "--prefetch pgm", ["order", "alpha", "min_support"])
    timer = args.pre_evict_timer
    try:
        pre = PreEvictConfig(halfway_enabled=args.pre_evict == "halfway",
                             address_space_size=args.address_space or 0,
                             timer_enabled=timer is not None,
                             timer_init=PreEvictConfig.timer_init if timer is None else timer)
        if not enabled:
            return pre, None, None
        return pre, PrefetchConfig(**fetch), PredictorConfig(**predict)
    except InvalidParam as exc:
        parser.error(str(exc))


def cmd_run(parser, args):
    """One policy at one capacity: the compare of a single configuration."""
    args.policies, args.capacities = args.policy, str(args.capacity)
    return cmd_compare(parser, args)


def cmd_compare(parser, args):
    """Every usage error that needs no trace is found before the trace is read: only
    the configs of 'log' and 'sqrt' capacities, which resolve against it, wait."""
    policies = _items(args.policies)
    if not policies:
        parser.error("--policies is empty")
    adaptation = _given(parser, args, ARC in policies, "an arc policy", ["arc_adaptation"])
    capacities = []
    for token in _items(args.capacities):
        if token not in ("log", "sqrt"):
            try:
                token = int(token, 10)
            except ValueError:
                parser.error(f"bad capacity {token!r}")
        capacities.append(token)
    if not capacities:
        parser.error("--capacities is empty")
    pre, prefetch, predictor = _axis_configs(parser, args)

    def run_configs(ks):
        try:
            # CacheConfig refuses a capacity below 1 and an unknown policy
            configs = [RunConfig(cache=CacheConfig(k, policy, **adaptation),
                                 pre=pre, prefetch=prefetch, predictor=predictor,
                                 label=f"{policy}@{k}")
                       for policy in policies for k in ks]
            check_labels(configs)
        except (InvalidParam, DuplicateLabel) as exc:
            parser.error(str(exc))
        return configs

    run_configs([k for k in capacities if k not in ("log", "sqrt")])
    try:
        trace = _load_trace(args)
    except OSError as exc:
        return _fail(f"{args.trace}: {exc.strerror or exc}")
    except MalformedLine as exc:
        return _fail(f"{args.trace}:{exc.line_no}: {exc.message}")
    except MemoryError:
        return _fail(f"{args.trace}: not enough memory to load the trace")
    n = len(trace)
    for i, token in enumerate(capacities):
        if token in ("log", "sqrt"):
            if n < 1:
                return _fail(f"cannot resolve {token!r} against an empty trace")
            scale = math.log10(n) if token == "log" else math.sqrt(n)
            capacities[i] = max(1, int(scale + 0.5))
    configs = run_configs(capacities)
    try:
        reports = compare(trace, configs)
    except MemoryError:
        return _fail(f"{args.command}: not enough memory to replay {args.trace}")
    sys.stdout.write(emit_report(reports, args.out))
    return 0


def cmd_gen_trace(parser, args):
    try:
        trace = gen_markov_trace(args.seed, args.states, args.length, args.determinism)
    except InvalidParam as exc:
        parser.error(str(exc))
    except MemoryError:
        return _fail(f"gen-trace: not enough memory for --length {args.length}")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(emit_plain(trace))
    except OSError as exc:
        return _fail(f"{args.out}: {exc.strerror or exc}")
    return 0


def cmd_lru_sim(parser, args):
    try:
        # bytes where the stream has them, so that undecodable input names its line
        cases = parse_lru_problem(getattr(sys.stdin, "buffer", sys.stdin).read())
    except (MalformedCase, MalformedLine) as exc:
        return _fail(f"stdin: {exc}")
    except MemoryError:
        return _fail("stdin: not enough memory to read the cases")
    out = sys.stdout
    for number, case in enumerate(cases, start=1):
        out.write(f"Simulation {number}\n")
        cache = CacheState(CacheConfig(case.capacity, "lru"))
        for accesses in case.script.split("!")[:-1]:  # letters after the last '!' print nothing
            cache.replay(map(letter_key, accesses))
            out.write("".join(map(key_letter, cache.entries)) + "\n")
    return 0


def cmd_bayes(parser, args):
    tokens = {}  # evidence name -> value token, checked for form before the net is read
    for item in _items(args.evidence):
        name, sep, token = item.partition("=")
        if not sep or not name or not token:
            parser.error(f"bad --evidence item {item!r}, expected VAR=VAL")
        if name in tokens:
            parser.error(f"--evidence names {name!r} twice")
        tokens[name] = token
    if args.query in tokens:
        parser.error(f"query variable {args.query!r} appears in --evidence")
    try:
        net = bayes.load_net(args.net)
    except OSError as exc:
        return _fail(f"{args.net}: {exc.strerror or exc}")
    except bayes.InvalidNet as exc:
        return _fail(f"{args.net}: {exc}")
    except MemoryError:
        return _fail(f"{args.net}: not enough memory to load the net")
    evidence = {}
    for name, token in tokens.items():
        if name not in net.variables:
            return _fail(f"unknown evidence variable {name!r}")
        try:
            evidence[name] = bayes.parse_value(net.variables[name], token)
        except bayes.BayesError as exc:
            return _fail(str(exc))
    if args.query not in net.variables:
        return _fail(f"unknown query variable {args.query!r}")
    infer = bayes.infer_enumeration if args.method == "enum" else bayes.infer_variable_elimination
    try:
        dist = infer(net, args.query, evidence)
    except (bayes.ZeroEvidence, bayes.TooLarge) as exc:
        return _fail(str(exc))
    except MemoryError:
        return _fail(f"bayes: not enough memory for --method {args.method}")
    variable = net.variables[args.query]
    for value, prob in enumerate(dist):
        sys.stdout.write(f"{bayes.value_label(variable, value)} {prob:.6f}\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def run_main():
    sys.exit(main())


if __name__ == "__main__":
    run_main()
