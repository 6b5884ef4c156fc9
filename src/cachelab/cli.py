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
from .simkit import DuplicateLabel, RunConfig, compare, emit_report
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


def _positive_int(text):
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(high):
    """argparse type: a finite number in [0, high]."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (0.0 <= value <= high and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be finite and in [0, {high:g}], got {value}")
        return value
    return parse


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
        sub.add_argument("--capacity", type=_positive_int, required=True)
    sub.add_argument("--arc-adaptation", choices=("unit", "ratio"))
    sub.add_argument("--pre-evict", choices=("halfway",), default=None)
    sub.add_argument("--address-space", type=_positive_int, default=None,
                     help="key-space bound for the halfway rule")
    sub.add_argument("--pre-evict-timer", type=_positive_int, default=None,
                     metavar="T", help="expire entries unhit for T requests")
    sub.add_argument("--prefetch", choices=("pgm",), default=None)
    sub.add_argument("--order", type=int, choices=(1, 2))
    sub.add_argument("--top-k", type=_positive_int)
    sub.add_argument("--p-min", type=_finite_float(1.0))
    sub.add_argument("--alpha", type=_finite_float(math.inf))
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
    gen.add_argument("--states", type=_positive_int, required=True)
    gen.add_argument("--length", type=_positive_int, required=True)
    gen.add_argument("--determinism", type=_finite_float(1.0), required=True)
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


def _pre_config(parser, args):
    _given(parser, args, args.pre_evict, "--pre-evict halfway", ["address_space"])
    if args.pre_evict is None and args.pre_evict_timer is None:
        return None
    if args.pre_evict == "halfway" and args.address_space is None:
        parser.error("--pre-evict halfway requires --address-space")
    try:
        return PreEvictConfig(
            halfway_enabled=args.pre_evict == "halfway",
            address_space_size=args.address_space or 0,
            timer_enabled=args.pre_evict_timer is not None,
            timer_init=args.pre_evict_timer or PreEvictConfig.timer_init,
        )
    except InvalidParam as exc:
        parser.error(str(exc))


def _prefetch_config(parser, args):
    """Flags not given take the config classes' defaults."""
    enabled = args.prefetch is not None
    fetch = _given(parser, args, enabled, "--prefetch pgm", ["top_k", "p_min"])
    predict = _given(parser, args, enabled, "--prefetch pgm", ["order", "alpha", "min_support"])
    if not enabled:
        return None, None
    try:
        return PrefetchConfig(**fetch), PredictorConfig(**predict)
    except InvalidParam as exc:
        parser.error(str(exc))


def _resolve_capacity(token, n):
    if n < 1:
        raise InvalidParam(f"cannot resolve {token!r} against an empty trace")
    if token == "log":
        return max(1, int(math.log10(n) + 0.5))
    return max(1, int(math.sqrt(n) + 0.5))


def cmd_run(parser, args):
    """One policy at one capacity: the compare of a single configuration."""
    args.policies, args.capacities = args.policy, str(args.capacity)
    return cmd_compare(parser, args)


def cmd_compare(parser, args):
    try:
        trace = _load_trace(args)
    except OSError as exc:
        return _fail(f"{args.trace}: {exc.strerror or exc}")
    except MalformedLine as exc:
        return _fail(f"{args.trace}:{exc.line_no}: {exc.message}")
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        parser.error("--policies is empty")
    for p in policies:
        if p not in POLICIES:
            parser.error(f"unknown policy {p!r}")
    adaptation = _given(parser, args, ARC in policies, "an arc policy", ["arc_adaptation"])
    capacities = []
    for token in args.capacities.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("log", "sqrt"):
            try:
                capacities.append(_resolve_capacity(token, len(trace)))
            except InvalidParam as exc:
                return _fail(str(exc))
        else:
            try:
                k = int(token, 10)
            except ValueError:
                parser.error(f"bad capacity {token!r}")
            if k < 1:
                parser.error(f"capacity must be >= 1, got {k}")
            capacities.append(k)
    if not capacities:
        parser.error("--capacities is empty")
    pre = _pre_config(parser, args)
    prefetch, predictor = _prefetch_config(parser, args)
    configs = [
        RunConfig(cache=CacheConfig(k, policy, **adaptation),
                  pre=pre, prefetch=prefetch, predictor=predictor,
                  label=f"{policy}@{k}")
        for policy in policies for k in capacities
    ]
    try:
        reports = compare(trace, configs)
    except DuplicateLabel as exc:
        parser.error(str(exc))
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
    out = sys.stdout
    for number, case in enumerate(cases, start=1):
        out.write(f"Simulation {number}\n")
        cache = CacheState(CacheConfig(case.capacity, "lru"))
        for accesses in case.script.split("!")[:-1]:  # letters after the last '!' print nothing
            cache.replay(map(letter_key, accesses))
            out.write("".join(map(key_letter, cache.entries)) + "\n")
    return 0


def cmd_bayes(parser, args):
    try:
        net = bayes.load_net(args.net)
    except OSError as exc:
        return _fail(f"{args.net}: {exc.strerror or exc}")
    except bayes.InvalidNet as exc:
        return _fail(f"{args.net}: {exc}")
    evidence = {}
    if args.evidence:
        for item in args.evidence.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, token = item.partition("=")
            if not sep or not name or not token:
                parser.error(f"bad --evidence item {item!r}, expected VAR=VAL")
            if name in evidence:
                parser.error(f"--evidence names {name!r} twice")
            if name not in net.variables:
                return _fail(f"unknown evidence variable {name!r}")
            try:
                evidence[name] = bayes.parse_value(net.variables[name], token)
            except bayes.BayesError as exc:
                return _fail(str(exc))
    if args.query not in net.variables:
        return _fail(f"unknown query variable {args.query!r}")
    if args.query in evidence:
        parser.error(f"query variable {args.query!r} appears in --evidence")
    infer = bayes.infer_enumeration if args.method == "enum" else bayes.infer_variable_elimination
    try:
        dist = infer(net, args.query, evidence)
    except bayes.ZeroEvidence as exc:
        return _fail(str(exc))
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
