import argparse
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachelab.bayes import InvalidNet
from cachelab.cli import build_parser, main
from cachelab.policies import POLICIES
from cachelab.trace import MalformedLine

DATA = Path(__file__).parent / "data"
SPRINKLER = str(DATA / "sprinkler.json")

GOLDEN_LRU_INPUT = "5 GHI!JKGL!H!\n3 OPOQR!QROQP!PQPQ!\n5 KMKMN!\n0\n"
GOLDEN_LRU_OUTPUT = (
    "Simulation 1\n"
    "GHI\n"
    "IJKGL\n"
    "JKGLH\n"
    "Simulation 2\n"
    "OQR\n"
    "OQP\n"
    "OPQ\n"
    "Simulation 3\n"
    "KMN\n"
)


def write_trace(tmp_path, keys, name="t.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{k}\n" for k in keys))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_json_report(tmp_path, capsys):
    trace = write_trace(tmp_path, [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5])
    code, out, err = run_cli(
        ["run", "--trace", trace, "--format", "plain", "--policy", "lru",
         "--capacity", "4", "--out", "json"], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload[0]["demand_misses"] == 8
    assert payload[0]["label"] == "lru@4"


def test_run_capacity_zero_usage_error(tmp_path, capsys):
    trace = write_trace(tmp_path, [1])
    with pytest.raises(SystemExit) as err:
        main(["run", "--trace", trace, "--policy", "lru", "--capacity", "0"])
    assert err.value.code == 2


def test_run_missing_trace_file(capsys):
    code, out, err = run_cli(
        ["run", "--trace", "/nonexistent/x.txt", "--policy", "lru", "--capacity", "4"],
        capsys)
    assert code == 1
    assert out == ""
    assert "/nonexistent/x.txt" in err
    assert err.count("\n") == 1


def test_run_malformed_trace_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1\nzap\n")
    code, out, err = run_cli(
        ["run", "--trace", str(path), "--policy", "lru", "--capacity", "4"], capsys)
    assert code == 1
    assert f"{path}:2" in err


@pytest.mark.parametrize("text,fmt,message", [
    # the id this case had when it checked only the bad token
    pytest.param("\x00\n", "plain", "bad key '\\x00': not a decimal or 0x-hex integer",
                 id="\x00\n-plain-bad key '\\x00'"),
    ("0xzz\n", "plain", "bad key '0xzz': not a decimal or 0x-hex integer"),
    ("18446744073709551616\n", "plain",
     "bad key '18446744073709551616': key outside unsigned 64-bit range"),
    ("1 100\n", "smpc", "unknown op code '1'"),
    ("2 zz\n", "smpc", "bad address 'zz': not a decimal or 0x-hex integer"),
])
def test_trace_diagnostic_names_its_line_once(tmp_path, capsys, text, fmt, message):
    # the line once, and the bad token once: the message is the whole diagnostic
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli(["run", "--trace", str(path), "--format", fmt, "--policy", "lru",
                              "--capacity", "4"], capsys)
    assert code == 1 and out == ""
    assert err == f"{path}:1: {message}\n" and "line 1" not in err
    assert err.count("\n") == 1


NOT_UTF8 = b"1\n\xff\n"


@pytest.mark.parametrize("argv", [
    ["run", "--policy", "lru", "--capacity", "4"],
    ["compare", "--policies", "lru,fifo", "--capacities", "2,4"],
])
def test_non_utf8_trace_names_file_and_line(tmp_path, capsys, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(NOT_UTF8)
    code, out, err = run_cli(argv + ["--trace", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"{path}:2: ") and "0xff" in err
    assert "line 2" not in err
    assert err.count("\n") == 1


def test_lru_sim_non_utf8_input(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(NOT_UTF8)
    with open(path, encoding="utf-8") as stdin:
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(["lru-sim"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("stdin:2: ") and "0xff" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
def test_run_alpha_not_finite_nonnegative_usage_error(tmp_path, capsys, alpha):
    trace = write_trace(tmp_path, [1, 2, 1])
    with pytest.raises(SystemExit) as err:
        main(["run", "--trace", trace, "--policy", "lru", "--capacity", "2",
              "--prefetch", "pgm", f"--alpha={alpha}"])
    assert err.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"cachelab run: error: alpha must be finite and >= 0, got {float(alpha)!r}"


def test_run_unknown_flag_rejected(tmp_path):
    trace = write_trace(tmp_path, [1])
    with pytest.raises(SystemExit) as err:
        main(["run", "--trace", trace, "--policy", "lru", "--capacity", "4",
              "--frobnicate", "1"])
    assert err.value.code == 2


def test_run_smpc_format(tmp_path, capsys):
    path = tmp_path / "t.smpc"
    path.write_text("0 100\n2 100\n3 104\n")
    code, out, _ = run_cli(
        ["run", "--trace", str(path), "--format", "smpc", "--policy", "fifo",
         "--capacity", "2", "--out", "json"], capsys)
    assert code == 0
    assert json.loads(out)[0]["accesses"] == 3


def test_run_with_prefetch_flags(tmp_path, capsys):
    trace = write_trace(tmp_path, [0, 1, 2, 3] * 50)
    code, out, _ = run_cli(
        ["run", "--trace", trace, "--policy", "lru", "--capacity", "2",
         "--prefetch", "pgm", "--order", "1", "--top-k", "1", "--p-min", "0.1",
         "--alpha", "0", "--min-support", "1", "--out", "json"], capsys)
    assert code == 0
    payload = json.loads(out)[0]
    assert payload["prefetch_issued"] > 0
    assert payload["prefetch_useful"] > 0


def test_run_with_pre_evict_flags(tmp_path, capsys):
    trace = write_trace(tmp_path, [10, 200, 900, 10])
    code, out, _ = run_cli(
        ["run", "--trace", trace, "--policy", "lru", "--capacity", "8",
         "--pre-evict", "halfway", "--address-space", "1000",
         "--pre-evict-timer", "4", "--out", "json"], capsys)
    assert code == 0
    assert json.loads(out)[0]["halfway_evictions"] == 2


def test_run_halfway_requires_address_space(tmp_path):
    trace = write_trace(tmp_path, [1])
    with pytest.raises(SystemExit) as err:
        main(["run", "--trace", trace, "--policy", "lru", "--capacity", "4",
              "--pre-evict", "halfway"])
    assert err.value.code == 2


ORPHANS = [("--order", "2", "--prefetch pgm"), ("--top-k", "3", "--prefetch pgm"),
           ("--p-min", "0.5", "--prefetch pgm"), ("--alpha", "0", "--prefetch pgm"),
           ("--min-support", "1", "--prefetch pgm"),
           ("--address-space", "9", "--pre-evict halfway")]


OTHER_AXIS = {"--prefetch pgm": ["--pre-evict", "halfway", "--address-space", "8"],
              "--pre-evict halfway": ["--prefetch", "pgm"]}


@pytest.mark.parametrize("flag, value, needs", ORPHANS)
@pytest.mark.parametrize("command", [["run", "--policy", "lru", "--capacity", "2"],
                                     ["compare", "--policies", "lru,arc", "--capacities", "2"]])
@pytest.mark.parametrize("other", ["none", "timer", "other axis"])
def test_flag_without_its_axis_is_a_usage_error(tmp_path, capsys, flag, value, needs, command,
                                                other):
    other = {"none": [], "timer": ["--pre-evict-timer", "4"],
             "other axis": OTHER_AXIS[needs]}[other]
    trace = write_trace(tmp_path, [0, 1, 2, 3] * 5)
    with pytest.raises(SystemExit) as err:
        main([*command, "--trace", trace, *other, flag, value])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    assert err_text.splitlines()[-1].endswith(f"error: {flag} requires {needs}")


@pytest.mark.parametrize("command", [["run", "--policy", "lru", "--capacity", "2"],
                                     ["run", "--policy", "mru", "--capacity", "2"],
                                     ["compare", "--policies", "fifo,lifo,lru,mru",
                                      "--capacities", "2"]])
@pytest.mark.parametrize("value", ["unit", "ratio"])
def test_arc_adaptation_without_an_arc_policy_is_a_usage_error(tmp_path, capsys, command,
                                                               value):
    trace = write_trace(tmp_path, [0, 1, 2, 3] * 5)
    with pytest.raises(SystemExit) as err:
        main([*command, "--trace", trace, "--arc-adaptation", value])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    assert err_text.splitlines()[-1].endswith("error: --arc-adaptation requires an arc policy")


@pytest.mark.parametrize("command, flags, message", [
    ("run", ["--policy", "lru", "--capacity", "2", "--prefetch", "pgm", "--min-support", "-1"],
     "min_support must be >= 0, got -1"),
    ("run", ["--policy", "lru", "--capacity", "2", "--top-k", "2"],
     "--top-k requires --prefetch pgm"),
    ("compare", ["--policies", "lru", "--capacities", "2,0"], "capacity must be >= 1, got 0"),
    ("compare", ["--policies", "lru,lru", "--capacities", "2"], "duplicate label 'lru@2'"),
    ("compare", ["--policies", ",", "--capacities", "2"], "--policies is empty"),
    ("compare", ["--policies", "lru", "--capacities", ","], "--capacities is empty"),
    # argparse's own error, which the handlers' errors match
    ("run", ["--policy", "lru", "--capacity", "2", "--prefetch", "pgm", "--p-min", "abc"],
     "argument --p-min: invalid float value: 'abc'"),
    # each numeric flag's bad value, in the words of the config that holds it
    ("run", ["--policy", "lru", "--capacity", "0"], "capacity must be >= 1, got 0"),
    ("compare", ["--policies", "lru", "--capacities", "2", "--pre-evict", "halfway",
                 "--address-space", "0"], "address_space_size must be >= 2 with halfway enabled"),
    ("compare", ["--policies", "lru", "--capacities", "2", "--pre-evict-timer", "0"],
     "timer_init must be >= 1, got 0"),
    ("run", ["--policy", "lru", "--capacity", "2", "--prefetch", "pgm", "--top-k", "0"],
     "top_k must be >= 1, got 0"),
    ("run", ["--policy", "lru", "--capacity", "2", "--prefetch", "pgm", "--p-min", "2"],
     "p_min must be in [0, 1], got 2.0"),
    ("compare", ["--policies", "lru", "--capacities", "2", "--prefetch", "pgm", "--alpha", "-1"],
     "alpha must be finite and >= 0, got -1.0"),
    ("run", ["--policy", "lru", "--capacity", "2", "--prefetch", "pgm", "--order", "3"],
     "order must be 1 or 2, got 3"),
    ("compare", ["--policies", "bogus", "--capacities", "2"], "unknown policy 'bogus'"),
    # the configs of 'log' and 'sqrt' are checked once the trace's 20 keys resolve them
    ("compare", ["--policies", "lru", "--capacities", "4,sqrt"], "duplicate label 'lru@4'"),
    ("compare", ["--policies", "bogus", "--capacities", "log"], "unknown policy 'bogus'"),
    # an int flag's bad token, in argparse's words, as the float flag's above
    ("run", ["--policy", "lru", "--capacity", "x"], "argument --capacity: invalid int value: 'x'"),
])
def test_handler_usage_error_names_its_subcommand(tmp_path, capsys, command, flags, message):
    # as argparse's own errors do: the subcommand's usage, then its prefix
    trace = write_trace(tmp_path, [0, 1, 2, 3] * 5)
    with pytest.raises(SystemExit) as err:
        main([command, "--trace", trace, *flags])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    assert err_text.startswith(f"usage: cachelab {command} [-h] --trace TRACE")
    assert err_text.splitlines()[-1] == f"cachelab {command}: error: {message}"


@pytest.mark.parametrize("argv, code, message", [
    # usage errors that need no input are found before the input is read
    (["run", "--policy", "lru", "--capacity", "2", "--top-k", "3"], 2,
     "cachelab run: error: --top-k requires --prefetch pgm"),
    (["compare", "--policies", ",", "--capacities", "2"], 2,
     "cachelab compare: error: --policies is empty"),
    (["compare", "--policies", "lru", "--capacities", "2,x"], 2,
     "cachelab compare: error: bad capacity 'x': not a decimal integer"),
    (["compare", "--policies", "lru", "--capacities", "2", "--prefetch", "pgm", "--top-k", "0"],
     2, "cachelab compare: error: top_k must be >= 1, got 0"),
    (["bayes", "--query", "Rain", "--evidence", "Sprinkler=T,Rain"], 2,
     "cachelab bayes: error: bad --evidence item 'Rain', expected VAR=VAL"),
    (["bayes", "--query", "Rain", "--evidence", "Rain=T"], 2,
     "cachelab bayes: error: query variable 'Rain' appears in --evidence"),
    # 'log' and 'sqrt' resolve against the trace, so their configs, and a duplicate
    # label they may resolve into, are checked after the load
    (["compare", "--policies", "bogus", "--capacities", "log"], 1,
     "{missing}: No such file or directory"),
    (["compare", "--policies", "lru", "--capacities", "2,sqrt"], 1,
     "{missing}: No such file or directory"),
    # the configs of literal capacities are built and checked before the load
    (["compare", "--policies", "lru,lru", "--capacities", "2"], 2,
     "cachelab compare: error: duplicate label 'lru@2'"),
    (["compare", "--policies", "lru", "--capacities", "2,2"], 2,
     "cachelab compare: error: duplicate label 'lru@2'"),
    (["compare", "--policies", "bogus", "--capacities", "2"], 2,
     "cachelab compare: error: unknown policy 'bogus'"),
    (["run", "--policy", "lru", "--capacity", "0"], 2,
     "cachelab run: error: capacity must be >= 1, got 0"),
])
def test_usage_errors_come_before_the_input_is_read(tmp_path, capsys, argv, code, message):
    missing = str(tmp_path / "missing")
    try:
        got = main([*argv, "--net" if argv[0] == "bayes" else "--trace", missing])
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    assert err.splitlines()[-1] == message.format(missing=missing)


@pytest.mark.parametrize("command", ["run", "compare", "gen-trace", "lru-sim", "bayes"])
def test_help_lists_every_option(capsys, command):
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    options = [option for action in subs.choices[command]._actions
               for option in action.option_strings]
    assert "--help" in options
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    out, err_text = capsys.readouterr()
    assert out.startswith(f"usage: cachelab {command} [-h]") and err_text == ""
    assert [option for option in options if option not in out] == []


@pytest.mark.parametrize("command", [["run", "--policy", "arc", "--capacity", "2"],
                                     ["compare", "--policies", "lru,arc", "--capacities", "2"]])
def test_arc_adaptation_with_an_arc_policy_is_taken(tmp_path, capsys, command):
    trace = write_trace(tmp_path, [0, 1, 2, 0, 3, 1, 4, 0, 2] * 20)
    unit = run_cli([*command, "--trace", trace, "--out", "csv"], capsys)
    spelled = run_cli([*command, "--trace", trace, "--out", "csv", "--arc-adaptation", "unit"],
                      capsys)
    assert unit == spelled and unit[0] == 0


def test_prefetch_flags_left_out_take_the_defaults(tmp_path, capsys):
    trace = write_trace(tmp_path, [0, 1, 2, 3, 1, 0] * 20)
    common = ["run", "--trace", trace, "--policy", "lru", "--capacity", "2", "--prefetch", "pgm"]
    bare = run_cli(common, capsys)
    spelled = run_cli([*common, "--order", "1", "--top-k", "1", "--p-min", "0.1",
                       "--alpha", "1", "--min-support", "2"], capsys)
    assert bare == spelled
    assert bare[0] == 0 and "lru@2" in bare[1]


def test_compare_symbolic_capacities(tmp_path, capsys):
    trace = write_trace(tmp_path, list(range(600)) * 1000)  # n = 600000
    code, out, _ = run_cli(
        ["compare", "--trace", trace, "--policies", "lru", "--capacities",
         "log,32,sqrt", "--out", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["lru@6", "lru@32", "lru@775"]


@pytest.mark.parametrize("token", ["log", "sqrt"])
def test_symbolic_capacity_on_an_empty_trace_fails_in_one_line(tmp_path, capsys, token):
    trace = write_trace(tmp_path, [])
    code, out, err = run_cli(["compare", "--trace", trace, "--policies", "lru",
                              "--capacities", f"2,{token}"], capsys)
    assert (code, out, err) == (1, "", f"cannot resolve {token!r} against an empty trace\n")


def test_compare_skips_empty_capacity_tokens(tmp_path, capsys):
    trace = write_trace(tmp_path, [1, 2, 3, 1, 4, 2] * 5)
    common = ["compare", "--trace", trace, "--policies", "lru,arc", "--out", "csv"]
    skipped = run_cli([*common, "--capacities", "2,,4"], capsys)
    assert skipped == run_cli([*common, "--capacities", "2,4"], capsys)
    assert skipped[0] == 0 and "arc@4" in skipped[1]


def test_compare_policy_by_capacity_grid(tmp_path, capsys):
    trace = write_trace(tmp_path, [1, 2, 3, 1, 2, 3])
    code, out, _ = run_cli(
        ["compare", "--trace", trace, "--policies", "lru,fifo",
         "--capacities", "2,3", "--out", "csv"], capsys)
    assert code == 0
    labels = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert labels == ["lru@2", "lru@3", "fifo@2", "fifo@3"]


@pytest.mark.parametrize("extra", [[], ["--pre-evict-timer", "3"],
                                   ["--pre-evict", "halfway", "--address-space", "8"],
                                   ["--prefetch", "pgm"]])
@pytest.mark.parametrize("policy", ["lru", "arc"])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_run_prints_what_compare_prints_for_one_pair(tmp_path, capsys, fmt, policy, extra):
    trace = write_trace(tmp_path, [(i * 5 + i // 7) % 8 for i in range(200)])
    common = ["--trace", trace, "--out", fmt, *extra]
    run = run_cli(["run", "--policy", policy, "--capacity", "3", *common], capsys)
    both = run_cli(["compare", "--policies", policy, "--capacities", "3", *common], capsys)
    assert run == both
    assert run[0] == 0 and f"{policy}@3" in run[1]


def test_compare_rejects_unknown_policy(tmp_path):
    trace = write_trace(tmp_path, [1])
    with pytest.raises(SystemExit) as err:
        main(["compare", "--trace", trace, "--policies", "optimal",
              "--capacities", "2"])
    assert err.value.code == 2


def test_compare_rejects_bad_capacity(tmp_path):
    trace = write_trace(tmp_path, [1])
    for bad in ("0", "two"):
        with pytest.raises(SystemExit) as err:
            main(["compare", "--trace", trace, "--policies", "lru",
                  "--capacities", bad])
        assert err.value.code == 2


def test_compare_duplicate_pair_usage_error(tmp_path):
    trace = write_trace(tmp_path, [1, 2])
    with pytest.raises(SystemExit) as err:
        main(["compare", "--trace", trace, "--policies", "lru",
              "--capacities", "2,2"])
    assert err.value.code == 2


def test_run_halfway_address_space_too_small(tmp_path):
    trace = write_trace(tmp_path, [1])
    with pytest.raises(SystemExit) as err:
        main(["run", "--trace", trace, "--policy", "lru", "--capacity", "4",
              "--pre-evict", "halfway", "--address-space", "1"])
    assert err.value.code == 2


def test_run_negative_min_support_is_usage_error(tmp_path, capsys):
    trace = write_trace(tmp_path, [1])
    with pytest.raises(SystemExit) as err:
        main(["run", "--trace", trace, "--policy", "lru", "--capacity", "4",
              "--prefetch", "pgm", "--min-support", "-1"])
    assert err.value.code == 2
    assert "min_support must be >= 0, got -1" in capsys.readouterr().err


def test_gen_trace_negative_seed_is_valid(tmp_path, capsys):
    out = tmp_path / "neg.txt"
    code, _, _ = run_cli(
        ["gen-trace", "--model", "markov", "--states", "4", "--length", "8",
         "--determinism", "0.5", "--seed", "-3", "--out", str(out)], capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 8


def test_lru_sim_golden_table(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN_LRU_INPUT))
    code, out, err = run_cli(["lru-sim"], capsys)
    assert code == 0 and err == ""
    assert out == GOLDEN_LRU_OUTPUT


def test_lru_sim_singleton(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 A!\n0\n"))
    code, out, _ = run_cli(["lru-sim"], capsys)
    assert code == 0
    assert out == "Simulation 1\nA\n"


def test_lru_sim_capacity_two_eviction(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 ABC!\n0\n"))
    code, out, _ = run_cli(["lru-sim"], capsys)
    assert code == 0
    assert out == "Simulation 1\nBC\n"


def test_lru_sim_malformed_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 !ABC!\n0\n"))
    code, out, err = run_cli(["lru-sim"], capsys)
    assert code == 1
    assert out == "" and "stdin" in err


@pytest.mark.parametrize("data, message", [
    ("2 AB!\n3 !AB!\n0\n", "stdin:2: script must start with a letter"),
    ("2 AB!\n\n2 A\n0\n", "stdin:3: script has no '!'"),
    ("2 AB!\n", "stdin:2: missing '0' terminator line"),
    ("2 AB!\n\n", "stdin:3: missing '0' terminator line"),
    ("", "stdin:1: missing '0' terminator line"),
], ids=["bad-script", "after-blank", "no-terminator", "no-terminator-after-blank", "empty"])
def test_lru_sim_names_its_stdin_line_from_main(monkeypatch, capsys, data, message):
    # the handler lets the MalformedLine go, and main names the input and its line
    monkeypatch.setattr("sys.stdin", io.StringIO(data))
    args = build_parser().parse_args(["lru-sim"])
    with pytest.raises(MalformedLine):
        args.handler(args.parser, args)
    monkeypatch.setattr("sys.stdin", io.StringIO(data))
    assert run_cli(["lru-sim"], capsys) == (1, "", f"{message}\n")


LONG = "1" + "0" * 5000  # 5,001 digits: past the 4,300 int() reads from text
HUGE = "1" + "0" * 4000  # 4,001 digits: an int that reads, but too long to echo
RUN = ["run", "--trace", "t.txt", "--policy", "lru", "--capacity", "4", "--prefetch", "pgm"]
GEN = ["gen-trace", "--model", "markov", "--states", "5", "--length", "10",
       "--determinism", "0.5", "--seed", "1", "--out", "o.txt"]
NUMERIC_FLAGS = [  # (argv the flag completes, flag, the type argparse names)
    *[(RUN, flag, "int") for flag in ["--capacity", "--address-space", "--pre-evict-timer",
                                      "--order", "--top-k", "--min-support"]],
    (RUN, "--p-min", "float"), (RUN, "--alpha", "float"),
    *[(GEN, flag, "int") for flag in ["--states", "--length", "--seed"]],
    (GEN, "--determinism", "float"),
]
# a float flag reads the 5,001 digits as inf, which the config that holds it refuses
INF_REFUSED = {"--p-min": "p_min must be in [0, 1], got inf",
               "--alpha": "alpha must be finite and >= 0, got inf",
               "--determinism": "determinism must be in [0, 1], got inf"}
FLAG_TOKENS = {"digits": (LONG, "'1000000000000000'... (5001 chars)"),
               "letters": ("A" * 5001, "'AAAAAAAAAAAAAAAA'... (5001 chars)")}


@pytest.mark.parametrize("argv, data, message", [
    (["run", "--trace", "t.txt", "--policy", "lru", "--capacity", "4"], f"{LONG}\n",
     "t.txt:1: bad key '1000000000000000'... (5001 chars): key outside unsigned 64-bit range"),
    (["run", "--trace", "t.txt", "--format", "smpc", "--policy", "lru", "--capacity", "4"],
     f"2 {LONG}\n",
     "t.txt:1: bad address '1000000000000000'... (5001 chars): key outside unsigned 64-bit range"),
    (["lru-sim"], f"{LONG} AB!\n0\n",
     "stdin:1: bad capacity '1000000000000000'... (5001 chars): more than 4300 digits"),
    (["compare", "--trace", "t.txt", "--policies", "lru", "--capacities", f"2,{LONG}"], "1\n",
     "cachelab compare: error: bad capacity '1000000000000000'... (5001 chars): "
     "more than 4300 digits"),
    (["bayes", "--net", SPRINKLER, "--query", "Rain", "--evidence", f"Sprinkler={LONG}"], "",
     "'Sprinkler': bad value '1000000000000000'... (5001 chars): more than 4300 digits"),
    (["bayes", "--net", "t.txt", "--query", "A"],
     '{"variables": [{"name": "A", "cardinality": %s}]}' % LONG,
     "t.txt: number '1000000000000000'... (5001 chars): more than 4300 digits"),
    *[([*argv, flag, token], "1\n", "cachelab %s: error: %s" % (
        argv[0], INF_REFUSED.get(flag) if (kind, form) == ("float", "digits")
        else f"argument {flag}: invalid {kind} value: {text}"))
      for argv, flag, kind in NUMERIC_FLAGS for form, (token, text) in FLAG_TOKENS.items()],
    (["compare", "--trace", "t.txt", "--policies", "A" * 5000, "--capacities", "2"], "1\n",
     "cachelab compare: error: unknown policy 'AAAAAAAAAAAAAAAA'... (5000 chars)"),
    (["compare", "--trace", "t.txt", "--policies", "lru",  # a 4,000-digit capacity
      "--capacities", f"{HUGE[:-1]},{HUGE[:-1]}"], "1\n",
     "cachelab compare: error: duplicate label 'lru@100000000000'... (4004 chars)"),
    (["lru-sim"], f"-{HUGE} AB!\n0\n",
     "stdin:1: capacity must be >= 1, got -<int of 13288 bits>"),
    (["bayes", "--net", SPRINKLER, "--query", "Rain", "--evidence", f"Sprinkler={HUGE}"], "",
     "'Sprinkler': value <int of 13288 bits> outside 0..1"),
    (["bayes", "--net", "t.txt", "--query", "A"],
     '{"variables": [{"name": "%s", "cardinality": 1}]}' % ("A" * 5000),
     "t.txt: variables[0]: variable 'AAAAAAAAAAAAAAAA'... (5000 chars): "
     "cardinality must be >= 2"),
    # a JSON list where a field wants a string or a number: its repr runs 10,890 chars
    (["bayes", "--net", "t.txt", "--query", "A"],
     json.dumps({"variables": [{"name": list(range(2000)), "cardinality": 2}]}),
     "t.txt: variables[0]: name must be a string, got [0, 1, 2, 3, 4, ... (10890 chars)"),
    (["bayes", "--net", "t.txt", "--query", "A"],
     json.dumps({"variables": [{"name": "A", "cardinality": 2}],
                 "cpts": [{"child": "A", "parents": list(range(2000)), "rows": [[0.5, 0.5]]}]}),
     "t.txt: cpts[0]: cpt 'A': parents must be a list of strings, "
     "got [0, 1, 2, 3, 4, ... (10890 chars)"),
    (["bayes", "--net", "t.txt", "--query", "A"],
     json.dumps({"variables": [{"name": "A", "cardinality": 2}],
                 "cpts": [{"child": "A", "parents": [], "rows": [[list(range(2000)), 0.5]]}]}),
     "t.txt: cpts[0]: cpt 'A': probabilities must be numbers, "
     "got [0, 1, 2, 3, 4, ... (10890 chars)"),
], ids=["plain-key", "smpc-address", "lru-sim-capacity", "compare-capacity", "bayes-value",
        "net-int", *[f"{flag[2:]}-{form}" for _, flag, _ in NUMERIC_FLAGS for form in FLAG_TOKENS],
        "policies", "duplicate-label", "lru-sim-negative-capacity", "bayes-value-range",
        "net-variable-name", "net-list-name", "net-list-parents", "net-list-cell"])
def test_long_token_is_refused_in_one_short_line(tmp_path, monkeypatch, capsys, argv, data,
                                                 message):
    # the token is shortened where it is echoed, and the line names why it is refused
    monkeypatch.chdir(tmp_path)
    Path("t.txt").write_text(data)
    monkeypatch.setattr("sys.stdin", io.StringIO(data))
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error, which names the subcommand
        code = exc.code
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert (code, out, lines[-1]) == (2 if message.startswith("cachelab ") else 1, "", message)
    assert len(lines) == 1 or code == 2
    assert max(map(len, lines)) < 200


def test_zero_padded_flag_reads_as_its_value(tmp_path, capsys):
    # as a --capacities token does: leading zeros do not count toward int()'s digit limit
    padded = "0" * 5000
    trace = write_trace(tmp_path, [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5])
    run = ["run", "--trace", trace, "--policy", "lru", "--out", "json", "--capacity"]
    report = run_cli([*run, "8"], capsys)
    assert report[0] == 0 and run_cli([*run, padded + "8"], capsys) == report
    gen = ["gen-trace", "--model", "markov", "--length", "100", "--determinism", "0.8",
           "--seed", "1", "--states"]
    for states, name in [("50", "plain.txt"), (padded + "50", "padded.txt")]:
        assert run_cli([*gen, states, "--out", str(tmp_path / name)], capsys) == (0, "", "")
    assert (tmp_path / "padded.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()


NAME = "A" * 5001


@pytest.mark.parametrize("argv, code, message", [
    (["--query", NAME], 1, "unknown variable 'AAAAAAAAAAAAAAAA'... (5001 chars)"),
    (["--query", "Rain", "--evidence", f"{NAME}=1"], 1,
     "unknown evidence variable 'AAAAAAAAAAAAAAAA'... (5001 chars)"),
    (["--query", "Rain", "--evidence", NAME], 2,
     "cachelab bayes: error: bad --evidence item 'AAAAAAAAAAAAAAAA'... (5001 chars), "
     "expected VAR=VAL"),
    (["--query", NAME, "--evidence", f"{NAME}=1"], 2,
     "cachelab bayes: error: query variable 'AAAAAAAAAAAAAAAA'... (5001 chars) "
     "appears in --evidence"),
], ids=["query", "evidence-name", "evidence-item", "query-in-evidence"])
def test_long_variable_name_is_echoed_short(capsys, argv, code, message):
    try:
        result = main(["bayes", "--net", SPRINKLER, *argv])
    except SystemExit as exc:  # a malformed --evidence item is a usage error
        result = exc.code
    out, err = capsys.readouterr()
    assert (result, out, err.splitlines()[-1]) == (code, "", message)
    assert max(map(len, err.splitlines())) < 200


def test_gen_trace_cycle_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    for path in (out_a, out_b):
        code, _, _ = run_cli(
            ["gen-trace", "--model", "markov", "--states", "4", "--length", "10",
             "--determinism", "1.0", "--seed", "1", "--out", str(path)], capsys)
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    keys = [int(line) for line in out_a.read_text().splitlines()]
    assert len(keys) == 10
    for prev, cur in zip(keys, keys[1:]):
        assert cur == (prev + 1) % 4


@pytest.mark.parametrize("flag, value, message", [
    ("--determinism", "1.5", "determinism must be in [0, 1], got 1.5"),
    ("--states", "0", "num_keys must be in [2, 2**63], got 0"),
    ("--length", "0", f"length must be in [1, {np.iinfo(np.intp).max // 8 + 1}], got 0"),
])
def test_gen_trace_bad_determinism(tmp_path, capsys, flag, value, message):
    flags = {"--states": "4", "--length": "10", "--determinism": "0.5", flag: value}
    with pytest.raises(SystemExit) as err:
        main(["gen-trace", "--model", "markov", *itertools.chain(*flags.items()),
              "--seed", "1", "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == "" and not (tmp_path / "x").exists()
    assert err_text.startswith("usage: cachelab gen-trace [-h]")
    assert err_text.splitlines()[-1] == f"cachelab gen-trace: error: {message}"


def test_gen_trace_unwritable_out_fails_in_one_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.txt"
    code, stdout, err = run_cli(
        ["gen-trace", "--model", "markov", "--states", "4", "--length", "8",
         "--determinism", "0.5", "--seed", "1", "--out", str(out)], capsys)
    assert (code, stdout, err) == (1, "", f"{out}: No such file or directory\n")


GEN_TRACE = ["--model", "markov", "--states", "4", "--length", "8", "--determinism", "0.5",
             "--seed", "1"]


def test_gen_trace_failed_write_names_the_output(capsys):
    # a full device refuses the write or the close, whose error names no file
    code, stdout, err = run_cli(["gen-trace", *GEN_TRACE, "--out", "/dev/full"], capsys)
    assert (code, stdout, err) == (1, "", "/dev/full: No space left on device\n")


def test_gen_trace_too_long_to_draw_fails_in_one_line(tmp_path, capsys):
    # 10**17 float64s (711 PiB) exceed any x86-64 user address space, so numpy's
    # allocation fails at once; a length below about 1e15 could fit and fill memory
    out = tmp_path / "x.txt"
    code, stdout, err = run_cli(
        ["gen-trace", "--model", "markov", "--states", "4", "--length", str(10**17),
         "--determinism", "0.5", "--seed", "1", "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_bayes_prior_query(capsys):
    code, out, err = run_cli(["bayes", "--net", SPRINKLER, "--query", "Rain"], capsys)
    assert code == 0 and err == ""
    assert out == "T 0.200000\nF 0.800000\n"


def test_bayes_methods_agree_byte_for_byte(capsys):
    outputs = []
    for method in ("enum", "ve"):
        code, out, _ = run_cli(
            ["bayes", "--net", SPRINKLER, "--query", "Rain",
             "--evidence", "WetGrass=T", "--method", method], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("T 0.357688\n")


def test_bayes_skips_empty_evidence_items(capsys):
    common = ["bayes", "--net", SPRINKLER, "--query", "Rain", "--evidence"]
    skipped = run_cli([*common, "WetGrass=T,,"], capsys)
    assert skipped == run_cli([*common, "WetGrass=T"], capsys)
    assert skipped[0] == 0 and skipped[1].startswith("T 0.357688\n")


def test_bayes_bad_evidence_value_fails_in_one_line(capsys):
    code, out, err = run_cli(
        ["bayes", "--net", SPRINKLER, "--query", "Rain", "--evidence", "WetGrass=x"], capsys)
    assert (code, out, err) == (1, "", "'WetGrass': bad value 'x': not a decimal integer\n")


def test_bayes_query_in_evidence_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bayes", "--net", SPRINKLER, "--query", "Rain", "--evidence", "Rain=T"])
    assert err.value.code == 2


@pytest.mark.parametrize("evidence", ["Sprinkler=T,Sprinkler=F", "Sprinkler=T,Sprinkler=T"])
def test_bayes_duplicate_evidence_usage_error(evidence, capsys):
    with pytest.raises(SystemExit) as err:
        main(["bayes", "--net", SPRINKLER, "--query", "Rain", "--evidence", evidence])
    assert err.value.code == 2
    assert "--evidence names 'Sprinkler' twice" in capsys.readouterr().err


def test_bayes_unknown_variable(capsys):
    code, _, err = run_cli(
        ["bayes", "--net", SPRINKLER, "--query", "Snow"], capsys)
    assert code == 1 and "Snow" in err
    code, _, err = run_cli(
        ["bayes", "--net", SPRINKLER, "--query", "Rain", "--evidence", "Snow=T"], capsys)
    assert code == 1 and "Snow" in err


@pytest.mark.parametrize("method", ["ve", "enum"])
def test_bayes_unknown_query_is_refused_by_inference(capsys, method):
    assert run_cli(["bayes", "--net", SPRINKLER, "--query", "Snow", "--method", method],
                   capsys) == (1, "", "unknown variable 'Snow'\n")


def test_bayes_invalid_net_is_named_by_main(tmp_path, capsys):
    # the handler lets the InvalidNet go, and main prefixes the net file
    net = tmp_path / "net.json"
    net.write_text("[]")
    argv = ["bayes", "--net", str(net), "--query", "A"]
    args = build_parser().parse_args(argv)
    with pytest.raises(InvalidNet, match="^top level must be an object$"):
        args.handler(args.parser, args)
    assert run_cli(argv, capsys) == (1, "", f"{net}: top level must be an object\n")


def test_bayes_zero_evidence(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "variables": [{"name": "A", "cardinality": 2}, {"name": "B", "cardinality": 2}],
        "cpts": [
            {"child": "A", "parents": [], "rows": [[1.0, 0.0]]},
            {"child": "B", "parents": ["A"], "rows": [[0.5, 0.5], [0.5, 0.5]]},
        ],
    }))
    code, _, err = run_cli(
        ["bayes", "--net", str(net), "--query", "B", "--evidence", "A=F"], capsys)
    assert code == 1 and "zero" in err


def out_of_memory(*args):
    raise MemoryError  # as an allocation too large for the process's address space


@pytest.mark.parametrize("command, stage", [
    ("run", "cachelab.cli._load_trace"), ("run", "cachelab.cli.compare"),
    ("compare", "cachelab.cli._load_trace"), ("compare", "cachelab.cli.compare"),
    ("gen-trace", "cachelab.cli.gen_markov_trace"),
    ("lru-sim", "sys.stdin"),
    ("bayes", "cachelab.bayes.load_net"),  # as json's decoder
    ("bayes", "cachelab.bayes.infer_enumeration"),  # as numpy's allocation of a factor
    ("bayes", "cachelab.bayes.infer_variable_elimination"),
])
def test_out_of_memory_fails_in_one_line(command, stage, tmp_path, monkeypatch, capsys):
    if stage == "sys.stdin":
        monkeypatch.setattr(stage, mock.Mock(buffer=mock.Mock(read=out_of_memory)))
    else:
        monkeypatch.setattr(stage, out_of_memory)
    trace = write_trace(tmp_path, [1, 2, 1, 2])
    method = "enum" if stage.endswith("enumeration") else "ve"
    argv = {"run": ["--trace", trace, "--prefetch", "pgm", "--policy", "lru", "--capacity", "2"],
            "compare": ["--trace", trace, "--prefetch", "pgm", "--policies", "lru,arc",
                        "--capacities", "2"],
            "gen-trace": [*GEN_TRACE, "--out", str(tmp_path / "x.txt")],
            "lru-sim": [],
            "bayes": ["--net", SPRINKLER, "--query", "Rain", "--method", method]}[command]
    code, out, err = run_cli([command, *argv], capsys)
    assert (code, out, err) == (1, "", f"{command}: not enough memory\n")


def write_net(path, roots, pairs=False):
    """Binary roots R0.. and, with pairs, one child per pair of roots, as net JSON."""
    names = [f"R{i}" for i in range(roots)]
    children = list(itertools.combinations(names, 2)) if pairs else []
    path.write_text(json.dumps({
        "variables": [{"name": n, "cardinality": 2}
                      for n in names + [f"C{a}{b}" for a, b in children]],
        "cpts": [{"child": n, "parents": [], "rows": [[0.5, 0.5]]} for n in names]
        + [{"child": f"C{a}{b}", "parents": [a, b], "rows": [[0.3, 0.7]] * 4}
           for a, b in children],
    }))
    return str(path)


@pytest.mark.parametrize("method, roots, pairs, evidence, message", [
    # 40 independent roots: enumeration would sum 2**40 completions
    ("enum", 40, False, "", "enumeration over 40 variables would sum more than 16777216 "
                            "completions; use --method ve"),
    # 34 roots and a child per pair: eliminating a root joins all 34 roots
    ("ve", 34, True, "CR0R1=F", "variable elimination would build a factor over 34 "
                                "variables, more than 4194304 cells"),
])
def test_bayes_too_large_is_refused_in_one_line(tmp_path, capsys, method, roots, pairs,
                                                 evidence, message):
    net = write_net(tmp_path / "net.json", roots, pairs)
    # refused in 0.12-0.20 s (ve) and 0.003 s (enum) on 2 vCPU: a 5x margin or more
    start = time.perf_counter()
    code, out, err = run_cli(["bayes", "--net", net, "--query", "R0", "--method", method,
                              "--evidence", evidence], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", message + "\n")


def test_bayes_wide_net_answers_by_elimination(tmp_path, capsys):
    net = write_net(tmp_path / "net.json", 40)
    code, out, err = run_cli(["bayes", "--net", net, "--query", "R0"], capsys)
    assert (code, out, err) == (0, "T 0.500000\nF 0.500000\n", "")


def test_bayes_ternary_values_render_as_indices(tmp_path, capsys):
    net = tmp_path / "ternary.json"
    net.write_text(json.dumps({
        "variables": [{"name": "Level", "cardinality": 3},
                      {"name": "Alarm", "cardinality": 2}],
        "cpts": [
            {"child": "Level", "parents": [], "rows": [[0.5, 0.3, 0.2]]},
            {"child": "Alarm", "parents": ["Level"],
             "rows": [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]},
        ],
    }))
    code, out, _ = run_cli(["bayes", "--net", str(net), "--query", "Level"], capsys)
    assert code == 0
    assert out == "0 0.500000\n1 0.300000\n2 0.200000\n"
    outputs = []
    for method in ("enum", "ve"):
        code, out, _ = run_cli(
            ["bayes", "--net", str(net), "--query", "Level",
             "--evidence", "Alarm=T", "--method", method], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    code, _, err = run_cli(
        ["bayes", "--net", str(net), "--query", "Alarm", "--evidence", "Level=4"],
        capsys)
    assert code == 1 and "Level" in err


@pytest.mark.parametrize("method", ["ve", "enum"])
@pytest.mark.parametrize("value, variable, card", [("4", "Rain", 2), ("-1", "Sprinkler", 2)])
def test_bayes_out_of_range_evidence_one_line(capsys, method, value, variable, card):
    # the range is inference's rule, and cmd_bayes reports inference's BayesError
    code, out, err = run_cli(["bayes", "--net", SPRINKLER, "--query", "WetGrass",
                              "--evidence", f"{variable}={value}", "--method", method], capsys)
    assert (code, out) == (1, "")
    assert err == f"{variable!r}: value {value} outside 0..{card - 1}\n"


def test_bayes_invalid_net_file(tmp_path, capsys):
    net = tmp_path / "broken.json"
    net.write_text("{")
    code, _, err = run_cli(["bayes", "--net", str(net), "--query", "A"], capsys)
    assert code == 1 and str(net) in err


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_bayes_non_finite_cpt_rejected(tmp_path, capsys, value):
    net = tmp_path / "net.json"
    net.write_text('{"variables": [{"name": "A", "cardinality": 2}], '
                   f'"cpts": [{{"child": "A", "parents": [], "rows": [[{value}, 1.0]]}}]}}')
    code, out, err = run_cli(["bayes", "--net", str(net), "--query", "A"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"{net}: ") and "non-finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc, message", [
    ({"variables": 5}, "'variables' must be a list of objects"),
    ({"variables": [], "cpts": 3}, "'cpts' must be a list of objects"),
    ({"variables": ["A"]}, "'variables' must be a list of objects"),
    ({"variables": [{"name": "A", "cardinality": 2}], "cpts": [[0.5, 0.5]]},
     "'cpts' must be a list of objects"),
    ({"variables": [{"name": "A", "cardinality": math.inf}]}, "variables[0]: "),
    ({"variables": [{"name": "A", "cardinality": 2.7}]},
     "variables[0]: variable 'A': cardinality must be an int, got 2.7"),
    ({"variables": [{"name": n, "cardinality": 2} for n in "AB"],
      "cpts": [{"child": "A", "parents": [], "rows": [[0.5, 0.5]]},
               {"child": "B", "parents": "A", "rows": [[0.5, 0.5]] * 2}]},
     "cpts[1]: cpt 'B': parents must be a list of strings, got 'A'"),
], ids=["variables-int", "cpts-int", "variable-entry-str", "cpt-entry-list",
        "cardinality-inf", "cardinality-float", "parents-str"])
def test_bayes_malformed_net_one_line_diagnostic(tmp_path, capsys, doc, message):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    code, out, err = run_cli(["bayes", "--net", str(net), "--query", "A"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"{net}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("method", ["ve", "enum"])
def test_bayes_repeated_parent_one_line(tmp_path, capsys, method):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "variables": [{"name": n, "cardinality": 2} for n in "AC"],
        "cpts": [{"child": "A", "parents": [], "rows": [[0.5, 0.5]]},
                 {"child": "C", "parents": ["A", "A"], "rows": [[0.5, 0.5]] * 4}]}))
    code, out, err = run_cli(["bayes", "--net", str(net), "--query", "C", "--method", method],
                             capsys)
    assert (code, out) == (1, "")
    assert err == f"{net}: cpt 'C': parent 'A' named twice\n"


def test_bayes_cyclic_net_one_line(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "variables": [{"name": n, "cardinality": 2} for n in "AB"],
        "cpts": [{"child": "A", "parents": ["B"], "rows": [[0.5, 0.5]] * 2},
                 {"child": "B", "parents": ["A"], "rows": [[0.5, 0.5]] * 2}]}))
    code, out, err = run_cli(["bayes", "--net", str(net), "--query", "A"], capsys)
    assert (code, out) == (1, "")
    assert err == f"{net}: the parent graph has a cycle\n"


def test_bayes_non_utf8_net_file(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_bytes(b'{"variables": []\xff}')
    code, out, err = run_cli(["bayes", "--net", str(net), "--query", "A"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"{net}: ") and "0xff" in err
    assert err.count("\n") == 1


def test_bayes_missing_net_file(capsys):
    code, _, err = run_cli(["bayes", "--net", "/no/such.json", "--query", "A"], capsys)
    assert code == 1 and "/no/such.json" in err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_cli_deterministic_given_argv(tmp_path, capsys):
    trace = write_trace(tmp_path, [3, 1, 4, 1, 5, 9, 2, 6] * 40)
    argv = ["run", "--trace", trace, "--policy", "arc", "--capacity", "4",
            "--out", "csv"]
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# The CLI fuzz: argv and input bytes for every subcommand, drawn from small ranges
# and, about one time in sixteen per item, from tokens that a flag or a parser must
# refuse, 5,001-character ones and zero-padded values among them. Paths are
# placeholders that name the drawn input, the output file, a missing file or a directory.
def mostly(valid, refused):
    # not an end of the range, which Hypothesis draws more often
    return st.integers(0, 15).flatmap(lambda roll: refused if roll == 7 else valid)


def small_ints(low, high):
    return mostly(st.integers(low, high).map(str),
                  st.sampled_from(["-1", "0", "", "x", "1.5", "0x2", " 3", "9" * 5001])
                  | st.integers(low, high).map("{:05001d}".format))


def choice(valid, refused=("x",)):
    return mostly(st.sampled_from(valid), st.sampled_from(refused))


def comma_list(tokens):
    return st.lists(tokens, min_size=1, max_size=4).map(",".join)


PATHS = choice(["{input}"], ["{missing}", "{dir}"])
FLOATS = choice(["0", "0.1", "0.5", "1"],
                ["2", "-1", "nan", "inf", "1e309", "x", "", "9" * 5001, "x" * 5001,
                 "0" * 5000 + "0.5"])
POLICY_FLAGS = {
    "--format": choice(["plain", "smpc"]),
    "--arc-adaptation": choice(["unit", "ratio"]),
    "--pre-evict": choice(["halfway"]),
    "--address-space": small_ints(2, 40),
    "--pre-evict-timer": small_ints(1, 12),
    "--prefetch": choice(["pgm"]),
    "--order": small_ints(1, 2),
    "--top-k": small_ints(1, 4),
    "--p-min": FLOATS,
    "--alpha": FLOATS,
    "--min-support": small_ints(0, 4),
    "--out": choice(["json", "csv", "table"]),
}
FLAGS = {  # command -> (required flags, optional flags), each flag with its values
    "run": ({"--trace": PATHS, "--policy": choice(POLICIES),
             "--capacity": small_ints(1, 9)}, POLICY_FLAGS),
    "compare": ({"--trace": PATHS,
                 "--policies": comma_list(choice(POLICIES, ["x", "", " lru", "x" * 5001])),
                 "--capacities": comma_list(small_ints(1, 9) | st.just("log") | st.just("sqrt"))},
                POLICY_FLAGS),
    "gen-trace": ({"--model": choice(["markov"]),
                   "--states": small_ints(1, 20) | st.just(str(2**63 + 1)),
                   "--length": small_ints(1, 60) | st.just(str(10**17)), "--determinism": FLOATS,
                   "--seed": small_ints(-3, 3) | st.integers(-2**70, 2**70).map(str),
                   "--out": choice(["{output}"], ["{missing}/out.txt", "{dir}"])}, {}),
    "lru-sim": ({}, {}),
    "bayes": ({"--net": PATHS,
               "--query": choice(["Rain", "Sprinkler", "WetGrass"], ["x", ""])},
              {"--evidence": comma_list(choice(
                  ["Rain=T", "Rain=F", "Sprinkler=1", "WetGrass=0"],
                  ["Rain=2", "x=T", "Rain", "=T", ""])),
               "--method": choice(["enum", "ve"])}),
}

KEY_LINES = st.integers(0, 30).map(str)
ODD_LINES = st.sampled_from(["0x1f", "18446744073709551615", "# note", "", " 4 ",
                             "18446744073709551616", "-1", "zz", "\x00", "1 2 3", "7 4", "2"])
SPRINKLER_EDITS = [("0.2", "0.3"), ("0.2", "NaN"), ("0.8", "-0.2"), ("0.99", "1e999"),
                   ("2}", "1}"), ("2}", "3}"), ("2}", "true}"), ('"Rain"', '"Ra\\nin"'),
                   ('["Rain"]', '["Rain", "Rain"]'), ('["Rain"]', '["WetGrass"]'), ("[[", "[")]


@st.composite
def input_bytes(draw, command, smpc):
    """What a command reads: an lru-sim case list, the sprinkler net, or keys in the
    trace format asked for, each now and then edited or unfit; or raw bytes."""
    if draw(mostly(st.just(False), st.just(True))):
        return draw(st.binary(max_size=64))
    if command == "lru-sim":
        case = st.tuples(small_ints(1, 4), st.text("ABCZ!", min_size=1, max_size=12))
        lines = [*map(" ".join, draw(st.lists(case, max_size=4))), draw(choice(["0"], [""]))]
        return "\n".join(lines).encode()
    if command == "bayes":
        old, new = draw(choice([("", "")], SPRINKLER_EDITS))
        return Path(SPRINKLER).read_text().replace(old, new, 1).encode()
    prefix = draw(choice(["2 " if smpc else ""], ["", "2 ", "5 "]))
    lines = mostly(st.lists(KEY_LINES, max_size=200),
                   st.lists(KEY_LINES | ODD_LINES, max_size=200))
    return "".join(f"{prefix}{line}\n" for line in draw(lines)).encode()


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[command]
    names = [name for name in required if draw(st.integers(0, 19))]  # mostly present
    if optional:
        names += draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=6))
    argv = [command]
    for name in draw(st.permutations(names)):
        argv += [name, draw({**required, **optional}[name])]
    smpc = "--format" in argv and argv[argv.index("--format") + 1] == "smpc"
    return argv, draw(input_bytes(command, smpc))


@settings(max_examples=300, deadline=None, database=None)
@given(cli_calls())
def test_cli_fuzz_exit_codes_and_diagnostics(call):
    argv, data = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"input": f"{tmp}/input", "output": f"{tmp}/out.txt",
                 "missing": f"{tmp}/missing", "dir": tmp}
        Path(paths["input"]).write_bytes(data)
        argv = [arg.format(**paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert max(map(len, err.splitlines()), default=0) < 300, (argv, err)
    if code == 1:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    assert "Traceback" not in out + err
    assert "nan" not in out.lower(), (argv, out)


def test_cli_runs_as_a_process(tmp_path, capsys):
    # the entry module, its exit codes and its stderr, outside pytest's process; pip's
    # script for cachelab.cli:main runs sys.exit(main()) and must print the same
    trace = write_trace(tmp_path, [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    entries = [["-m", "cachelab.cli"],
               ["-c", "import sys; from cachelab.cli import main; sys.exit(main())"]]

    def cli(*argv):
        runs = [subprocess.run([sys.executable, *entry, *argv], env=env, capture_output=True,
                               text=True, timeout=60) for entry in entries]
        assert len({(run.returncode, run.stdout, run.stderr) for run in runs}) == 1
        return runs[0]

    argv = ["run", "--trace", trace, "--policy", "lru", "--capacity", "3", "--out", "json"]
    done = cli(*argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run_cli(argv, capsys)[1]
    done = cli("run", "--trace", trace, "--policy", "lru", "--capacity", "0")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines()[-1] == "cachelab run: error: capacity must be >= 1, got 0"
    missing = str(tmp_path / "missing.txt")
    done = cli("run", "--trace", missing, "--policy", "lru", "--capacity", "3")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"{missing}: No such file or directory\n"
    assert "Traceback" not in done.stderr

