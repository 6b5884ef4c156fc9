"""Command-line front end: run, compare, gen-trace, lru-sim, and bayes subcommands.

Exit codes: 0 success, 1 runtime error (I/O, parse, inference), 2 usage error.
"""

import argparse
import math
import sys

from . import bayes
from .policies import ARC, POLICIES, CacheConfig, CacheState, PreEvictConfig
from .prefetch import PredictorConfig, PrefetchConfig
from .simkit import RunConfig, check_labels, compare, emit_report
from .trace import (
    InvalidParam,
    MalformedLine,
    emit_plain,
    gen_markov_trace,
    key_letter,
    letter_key,
    parse_lru_problem,
    parse_plain,
    parse_smpc,
    read_decimal,
    shown,
)


def _number(kind):
    """The type= of a numeric flag of the kind "int" or "float": read_decimal reads an
    int, float a float, and a bad token is refused in argparse's words, but shown."""
    def number(token):
        try:
            return (read_decimal if kind == "int" else float)(token)
        except (ValueError, OverflowError):
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {shown(token)}") from None
    return number


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
        sub.add_argument("--capacity", type=_number("int"), required=True)
    sub.add_argument("--arc-adaptation", choices=("unit", "ratio"))
    sub.add_argument("--pre-evict", choices=("halfway",))
    sub.add_argument("--address-space", type=_number("int"),
                     help="key-space bound for the halfway rule")
    sub.add_argument("--pre-evict-timer", type=_number("int"), metavar="T",
                     help="expire entries unhit for T requests")
    sub.add_argument("--prefetch", choices=("pgm",))
    sub.add_argument("--order", type=_number("int"))
    sub.add_argument("--top-k", type=_number("int"))
    sub.add_argument("--p-min", type=_number("float"))
    sub.add_argument("--alpha", type=_number("float"))
    sub.add_argument("--min-support", type=_number("int"))
    sub.add_argument("--out", choices=("json", "csv", "table"), default="table")


def build_parser():
    """Each subparser is stored beside its handler, so that a usage error a handler
    raises prints the subcommand's usage and prefix, as argparse's own errors do."""
    parser = argparse.ArgumentParser(prog="cachelab",
                                     description="cache replacement and prefetching lab")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, summary):
        sub = subs.add_parser(name, help=summary)
        sub.set_defaults(handler=handler, parser=sub)
        return sub

    _add_policy_flags(add("run", cmd_run, "simulate one configuration over a trace"))
    _add_policy_flags(add("compare", cmd_compare,
                          "sweep policies x capacities over one trace"), many=True)

    gen = add("gen-trace", cmd_gen_trace, "write a seeded synthetic trace")
    gen.add_argument("--model", choices=("markov",), required=True)
    gen.add_argument("--states", type=_number("int"), required=True)
    gen.add_argument("--length", type=_number("int"), required=True)
    gen.add_argument("--determinism", type=_number("float"), required=True)
    gen.add_argument("--seed", type=_number("int"), required=True)
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
    return (parse_smpc if args.format == "smpc" else parse_plain)(data)


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
    pre = PreEvictConfig(halfway_enabled=args.pre_evict == "halfway",
                         address_space_size=args.address_space or 0,
                         timer_enabled=timer is not None,
                         timer_init=PreEvictConfig.timer_init if timer is None else timer)
    if not enabled:
        return pre, None, None
    return pre, PrefetchConfig(**fetch), PredictorConfig(**predict)


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
                token = read_decimal(token)
            except (ValueError, OverflowError) as exc:
                parser.error(f"bad capacity {shown(token)}: {exc}")
        capacities.append(token)
    if not capacities:
        parser.error("--capacities is empty")
    pre, prefetch, predictor = _axis_configs(parser, args)

    def run_configs(ks):
        # CacheConfig refuses a capacity below 1 and an unknown policy
        return [RunConfig(cache=CacheConfig(k, policy, **adaptation),
                          pre=pre, prefetch=prefetch, predictor=predictor, label=f"{policy}@{k}")
                for policy in policies for k in ks]

    check_labels(run_configs([k for k in capacities if k not in ("log", "sqrt")]))
    trace = _load_trace(args)
    n = len(trace)
    for i, token in enumerate(capacities):
        if token in ("log", "sqrt"):
            if n < 1:
                return _fail(f"cannot resolve {token!r} against an empty trace")
            scale = math.log10(n) if token == "log" else math.sqrt(n)
            capacities[i] = max(1, int(scale + 0.5))
    reports = compare(trace, run_configs(capacities))
    sys.stdout.write(emit_report(reports, args.out))
    return 0


def cmd_gen_trace(parser, args):
    trace = gen_markov_trace(args.seed, args.states, args.length, args.determinism)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(emit_plain(trace))
    except OSError as exc:  # a failed write or close names no file; open's does
        exc.filename = args.out
        raise
    return 0


def cmd_lru_sim(parser, args):
    # bytes where the stream has them, so that undecodable input names its line
    cases = parse_lru_problem(getattr(sys.stdin, "buffer", sys.stdin).read())
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
            parser.error(f"bad --evidence item {shown(item)}, expected VAR=VAL")
        if name in tokens:
            parser.error(f"--evidence names {shown(name)} twice")
        tokens[name] = token
    if args.query in tokens:
        parser.error(f"query variable {shown(args.query)} appears in --evidence")
    net = bayes.load_net(args.net)
    evidence = {}
    for name, token in tokens.items():
        if name not in net.variables:
            return _fail(f"unknown evidence variable {shown(name)}")
        evidence[name] = bayes.parse_value(net.variables[name], token)
    infer = bayes.infer_enumeration if args.method == "enum" else bayes.infer_variable_elimination
    dist = infer(net, args.query, evidence)
    variable = net.variables[args.query]
    for value, prob in enumerate(dist):
        sys.stdout.write(f"{bayes.value_label(variable, value)} {prob:.6f}\n")
    return 0


def main(argv=None) -> int:
    """The one place a handler's failure becomes output: a refused config value is the
    subcommand's usage error, any other failure one line on stderr naming its input (a
    line of the trace or of standard input, the net, a path) and exit 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args.parser, args)
    except InvalidParam as exc:
        args.parser.error(str(exc))
    except MalformedLine as exc:
        return _fail(f"{getattr(args, 'trace', 'stdin')}:{exc.line_no}: {exc.message}")
    except OSError as exc:  # open() records the path it was given
        where = args.command if exc.filename is None else exc.filename
        return _fail(f"{where}: {exc.strerror or exc}")
    except bayes.InvalidNet as exc:
        return _fail(f"{args.net}: {exc}")
    except bayes.BayesError as exc:  # a bad value, an unknown variable, zero evidence, too large
        return _fail(str(exc))
    except MemoryError:
        return _fail(f"{args.command}: not enough memory")


if __name__ == "__main__":
    sys.exit(main())
