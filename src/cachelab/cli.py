"""Command-line front end: run, compare, gen-trace, lru-sim, and bayes subcommands.

Exit codes: 0 success, 1 runtime error (I/O, parse, inference), 2 usage error.
"""

import argparse
import math
import sys

from . import bayes
from .policies import POLICIES, CacheConfig, CacheState
from .preevict import PreEvictConfig
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
    sub.add_argument("--arc-adaptation", choices=("unit", "ratio"), default="unit")
    sub.add_argument("--pre-evict", choices=("halfway",), default=None)
    sub.add_argument("--address-space", type=_positive_int, default=None,
                     help="key-space bound for the halfway rule")
    sub.add_argument("--pre-evict-timer", type=_positive_int, default=None,
                     metavar="T", help="expire entries unhit for T requests")
    sub.add_argument("--prefetch", choices=("pgm",), default=None)
    sub.add_argument("--order", type=int, choices=(1, 2), default=1)
    sub.add_argument("--top-k", type=_positive_int, default=1)
    sub.add_argument("--p-min", type=_finite_float(1.0), default=0.1)
    sub.add_argument("--alpha", type=_finite_float(math.inf), default=1.0)
    sub.add_argument("--min-support", type=int, default=2)
    sub.add_argument("--out", choices=("json", "csv", "table"), default="table")


def build_parser():
    parser = argparse.ArgumentParser(prog="cachelab",
                                     description="cache replacement and prefetching lab")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="simulate one configuration over a trace")
    _add_policy_flags(run)

    cmp_ = subs.add_parser("compare", help="sweep policies x capacities over one trace")
    _add_policy_flags(cmp_, many=True)

    gen = subs.add_parser("gen-trace", help="write a seeded synthetic trace")
    gen.add_argument("--model", choices=("markov",), required=True)
    gen.add_argument("--states", type=_positive_int, required=True)
    gen.add_argument("--length", type=_positive_int, required=True)
    gen.add_argument("--determinism", type=_finite_float(1.0), required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output path")

    subs.add_parser("lru-sim", help="LRU print-state simulator over standard input")

    bay = subs.add_parser("bayes", help="query a Bayesian network file")
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


def _pre_config(parser, args):
    if args.pre_evict is None and args.pre_evict_timer is None:
        return None
    if args.pre_evict == "halfway" and args.address_space is None:
        parser.error("--pre-evict halfway requires --address-space")
    try:
        return PreEvictConfig(
            halfway_enabled=args.pre_evict == "halfway",
            address_space_size=args.address_space or 0,
            timer_enabled=args.pre_evict_timer is not None,
            timer_init=args.pre_evict_timer or 2048,
        )
    except InvalidParam as exc:
        parser.error(str(exc))


def _prefetch_config(parser, args):
    if args.prefetch is None:
        return None, None
    if args.min_support < 0:
        parser.error(f"--min-support must be >= 0, got {args.min_support}")
    return (PrefetchConfig(top_k=args.top_k, p_min=args.p_min),
            PredictorConfig(order=args.order, alpha=args.alpha,
                            min_support=args.min_support))


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
        return _fail(f"{args.trace}:{exc.line_no}: {exc}")
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        parser.error("--policies is empty")
    for p in policies:
        if p not in POLICIES:
            parser.error(f"unknown policy {p!r}")
    capacities = []
    for token in args.capacities.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("log", "sqrt"):
            try:
                capacities.append(_resolve_capacity(token, len(trace.events)))
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
        RunConfig(cache=CacheConfig(k, policy, args.arc_adaptation),
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


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "gen-trace": cmd_gen_trace,
    "lru-sim": cmd_lru_sim,
    "bayes": cmd_bayes,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](parser, args)


def run_main():
    sys.exit(main())


if __name__ == "__main__":
    run_main()
