import gc
import io
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cachelab.trace
from cachelab.trace import (
    MAX_KEY,
    InvalidParam,
    LruCase,
    MalformedLine,
    Trace,
    TraceEvent,
    emit_plain,
    gen_markov_trace,
    key_blocks,
    key_letter,
    letter_key,
    parse_lru_problem,
    parse_plain,
    parse_smpc,
)

from cachelab import CacheConfig, PredictorConfig, PreEvictConfig, PrefetchConfig
from cachelab.bayes import (CPT, BayesError, BayesNet, Variable, infer_enumeration,
                            joint_probability, learn_cpts)
from reference import ref_parse_plain


def assert_events_follow_keys(trace):
    # the reads perfbench makes of a trace outside its timed regions
    assert [e.key for e in trace.events] == trace.keys
    assert len(trace) == len(trace.keys)


def test_parse_plain_reference_string():
    trace = parse_plain("7\n0\n1\n2\n0\n3\n0\n4\n2\n3\n")
    assert trace.keys == [7, 0, 1, 2, 0, 3, 0, 4, 2, 3]
    assert [e.seq for e in trace.events] == list(range(10))


def test_trace_event_is_seq_and_key():
    # a trace is its key column: an event holds its place and its key, nothing more
    assert TraceEvent._fields == ("seq", "key")
    assert parse_smpc("3 9\n").events == [TraceEvent(0, 9)] == parse_plain("9\n").events


def test_parse_plain_empty():
    assert parse_plain("").keys == []


def test_parse_plain_hex_and_comments():
    assert parse_plain("0x10\n# note\n16\n").keys == [16, 16]


def test_parse_plain_blank_lines_and_crlf():
    assert parse_plain("1\r\n\r\n2\r\n").keys == [1, 2]


def test_parse_plain_accepts_bytes():
    assert parse_plain(b"3\n4\n").keys == [3, 4]


@pytest.mark.parametrize("parse", [parse_plain, parse_smpc, parse_lru_problem])
def test_parsers_reject_non_utf8_bytes_with_line(parse):
    # lines end where str.splitlines ends them, at \r and \x0b too; the first line is
    # one the parser reads, since a bad line ahead of the byte would be named instead
    first = {parse_smpc: b"0 1", parse_lru_problem: b"2 AB!"}.get(parse, b"1")
    for data in (b"1\n\xff\n", b"1\r\xff", b"1\x0b\xff", b"1\r\n\xff"):
        with pytest.raises(MalformedLine) as err:
            parse(first + data[1:])
        assert err.value.line_no == 2, data
        assert "0xff" in str(err.value)


def test_parse_plain_64bit_bounds():
    top = 2**64 - 1
    assert parse_plain(f"{top}\n").keys == [top]
    with pytest.raises(MalformedLine) as err:
        parse_plain(f"{2**64}\n")
    assert err.value.line_no == 1


@pytest.mark.parametrize("text,line", [("x\n", 1), ("1\n-5\n", 2), ("1 2\n", 1), ("3.5\n", 1)])
def test_parse_plain_malformed(text, line):
    with pytest.raises(MalformedLine) as err:
        parse_plain(text)
    assert err.value.line_no == line


# Named cases for each of parse_plain's paths: bare decimal lines take the first bulk
# path, which leaves whitespace, signs, underscores and non-ASCII digits to int();
# blank and comment lines take the second; hex and bad lines go line by line.
@pytest.mark.parametrize("text, keys", [
    (" 5\t\n", [5]),
    ("+5\n", [5]),
    ("1_000\n", [1000]),
    ("\u0663\n", [3]),
    ("\u20035\u3000\n6", [5, 6]),
    ("1\r\n2\r\n", [1, 2]),
    ("1\n2\n\n", [1, 2]),
    ("4\n \n5", [4, 5]),
    ("1\n# mid\n2\n", [1, 2]),
    ("1\n0x1f\n", [1, 31]),
], ids=["padded", "plus", "underscore", "arabic-indic", "unicode-space", "crlf",
        "trailing-blank", "blank-spaces", "mid-comment", "hex"])
def test_parse_plain_named_cases(text, keys):
    assert parse_plain(text).keys == keys


@pytest.mark.parametrize("text, line, message", [
    ("1 2\n", 1, "bad key '1 2': not a decimal or 0x-hex integer"),
    ("1\n2\n\n3 4\n", 4, "bad key '3 4': not a decimal or 0x-hex integer"),
    ("7\n8\n-9\n", 3, "bad key '-9': key outside unsigned 64-bit range"),
], ids=["two-tokens", "two-tokens-after-blank", "negative"])
def test_parse_plain_named_bad_lines(text, line, message):
    with pytest.raises(MalformedLine) as err:
        parse_plain(text)
    assert (err.value.line_no, err.value.message) == (line, message)


# Pieces of plain-trace text: digits, base prefixes and letters, signs, separators,
# line breaks, non-ASCII digits, keys at and past the 64-bit bounds, and tokens over
# int()'s 4,300-digit limit, zeros that pad a key among them.
TEXT_PIECES = st.sampled_from([
    *"0123456789", "0x", "0X", "0o", "a", "b", "F", "#", "_", "+", "-", " ", "\t", "\r", "\n",
    "\r\n", "\u0663", "\uff17", "\u0e52", "0", str(MAX_KEY), str(MAX_KEY + 1),
    hex(MAX_KEY), "9" * 4301, "0" * 4301, "\u0660" * 4301, "0_" * 2200, "\n1\n",
])
TRACE_TEXT = st.lists(TEXT_PIECES, max_size=40).map("".join)
TRACE_BYTES = st.binary(max_size=64) | st.lists(
    TRACE_TEXT.map(str.encode) | st.binary(max_size=3), max_size=4).map(b"".join)


@settings(max_examples=500, deadline=None, database=None)
@given(data=TRACE_TEXT | TRACE_BYTES)
def test_parse_plain_matches_naive_oracle(data):
    expected = ref_parse_plain(data)
    try:
        trace = parse_plain(data)
    except MalformedLine as exc:
        assert expected == ("bad", exc.line_no, exc.message)
    else:
        assert expected == ("ok", trace.keys)
        assert trace.events == [TraceEvent(i, k) for i, k in enumerate(trace.keys)]
        assert trace.distinct == len(set(trace.keys))


@settings(max_examples=300, deadline=None, database=None)
@given(data=TRACE_TEXT | TRACE_BYTES, block=st.integers(1, 64))
@example(data="1\r\n2\r\n", block=2)                # "\r" and "\n" in two blocks
@example(data="5\n\u0663\n".encode(), block=3)       # a 2-byte digit over two blocks
@example(data="1\n\uff17\n".encode(), block=3)       # a 3-byte digit over two blocks
@example(data=b"1\n\xe2\x82", block=3)               # cut short over two blocks
@example(data=b"x\n1\n\xff\n", block=2)             # a bad key before a bad byte
@example(data="1\r2\r3\r", block=2)                 # no "\n": the blocks are one piece
def test_streamed_keys_match_naive_oracle(data, block):
    # the blocked reader, over a str or a binary file read a few characters or bytes at
    # a time, gives the keys or the first diagnostic that the whole text gives
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cachelab.trace, "BLOCK", block)
        source = io.BytesIO(data) if isinstance(data, bytes) else data
        try:
            streamed = ("ok", [key for keys in key_blocks(source) for key in keys])
        except MalformedLine as exc:
            streamed = ("bad", exc.line_no, exc.message)
    assert streamed == ref_parse_plain(data)


# The first bad line in the file is the one named, whether a bad key or an undecodable
# byte makes it bad; when both are on one line, the byte is named.
@pytest.mark.parametrize("parse, data, line, message", [
    (parse_plain, b"x\n1\n\xff\n", 1, "bad key 'x': not a decimal or 0x-hex integer"),
    (parse_plain, b"1\n\xff\nx\n", 2, "not UTF-8: byte 0xff"),
    (parse_plain, b"1\nx\xff\n", 2, "not UTF-8: byte 0xff"),
    (parse_smpc, b"9 1\n0 1\n\xff\n", 1, "unknown op code '9'"),
    (parse_smpc, b"0 1\n\xff\n9 1\n", 2, "not UTF-8: byte 0xff"),
    (parse_smpc, b"0 1\n9 \xff\n", 2, "not UTF-8: byte 0xff"),
], ids=["plain-key-first", "plain-byte-first", "plain-same-line", "smpc-line-first",
        "smpc-byte-first", "smpc-same-line"])
@pytest.mark.parametrize("block", [1 << 16, 1, 4])
def test_first_bad_line_is_named(monkeypatch, parse, data, line, message, block):
    monkeypatch.setattr(cachelab.trace, "BLOCK", block)
    with pytest.raises(MalformedLine) as err:
        parse(data)
    assert (err.value.line_no, err.value.message) == (line, message)


def test_a_comment_sends_only_its_block_line_by_line(monkeypatch):
    # one "#" line ahead of 200k bare decimal lines: only the block that holds it takes
    # the line loop, and the others stay on the bulk int() map
    calls = []
    parse_key = cachelab.trace._parse_key
    monkeypatch.setattr(cachelab.trace, "_parse_key",
                        lambda token: calls.append(token) or parse_key(token))
    keys = gen_markov_trace(3, 2000, 200_000, 0.8).keys
    text = "# a trace\n" + emit_plain(Trace(keys))
    assert parse_plain(text).keys == keys
    assert 0 < len(calls) <= text[:cachelab.trace.BLOCK].count("\n")
    assert len(text) > 10 * cachelab.trace.BLOCK


def test_key_blocks_hold_at_most_one_block_of_lines():
    # a piece is one block plus the line carried into it, and each line is a digit
    # and its "\n", so no list holds more than half a block's keys
    text = emit_plain(gen_markov_trace(4, 2000, 50_000, 0.8))
    blocks = list(key_blocks(io.BytesIO(text.encode())))
    assert len(blocks) > 2
    assert all(len(keys) <= cachelab.trace.BLOCK // 2 for keys in blocks)
    assert [key for keys in blocks for key in keys] == parse_plain(text).keys


def test_key_blocks_refuse_an_unknown_format():
    with pytest.raises(InvalidParam, match="unknown trace format 'csv'"):
        list(key_blocks("1\n", "csv"))


@pytest.mark.parametrize("parse", [parse_smpc, parse_lru_problem])
@settings(max_examples=300, deadline=None, database=None)
@given(data=TRACE_TEXT | TRACE_BYTES | st.lists(
    st.sampled_from(["0 ", "2 ", "3 ", "4 ", "ABC!", "!", "Z", "0\n", "1 "]) | TEXT_PIECES,
    max_size=30).map("".join))
def test_other_parsers_raise_only_trace_errors(parse, data):
    try:
        parse(data)
    except MalformedLine:
        pass


def test_parse_smpc_field_mapping():
    trace = parse_smpc("0 100\n2 100\n3 104\n")
    assert trace.keys == [100, 100, 104]
    assert trace.events == [TraceEvent(0, 100), TraceEvent(1, 100), TraceEvent(2, 104)]


# Named cases for each diagnostic parse_smpc gives: the op code is checked though
# no trace keeps it, so an unknown code still names its line.
@pytest.mark.parametrize("data, line, message", [
    ("1 100\n", 1, "unknown op code '1'"),
    ("5 100\n", 1, "unknown op code '5'"),
    ("0 1\n4 100\n", 2, "unknown op code '4'"),
    ("0 1\n\nx 100\n", 3, "unknown op code 'x'"),
    ("0 1\n100\n", 2, "expected 'op address', got '100'"),
    (" 0 100 extra \n", 1, "expected 'op address', got '0 100 extra'"),
    ("0 abc\n", 1, "bad address 'abc': not a decimal or 0x-hex integer"),
    ("0 1\n3 -5\n", 2, "bad address '-5': key outside unsigned 64-bit range"),
    (b"0 1\n3 \xff\n", 2, "not UTF-8: byte 0xff"),
], ids=["op-1", "op-5", "op-4", "op-x", "one-field", "three-fields", "bad-address",
        "negative-address", "non-utf8"])
def test_parse_smpc_named_bad_lines(data, line, message):
    with pytest.raises(MalformedLine) as err:
        parse_smpc(data)
    assert (err.value.line_no, err.value.message) == (line, message)


def test_smpc_plain_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        lines = [f"{rng.choice([0, 2, 3])} {rng.randrange(10**6)}" for _ in range(rng.randrange(50))]
        text = "".join(line + "\n" for line in lines)
        smpc = parse_smpc(text)
        again = parse_plain(emit_plain(smpc))
        assert again.keys == smpc.keys
        assert smpc.distinct == again.distinct == len(set(smpc.keys))
        assert smpc.keys == [int(line.split()[1]) for line in lines]
        assert_events_follow_keys(smpc)
        assert_events_follow_keys(again)


def test_plain_emit_parse_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        keys = [rng.randrange(2**64) for _ in range(rng.randrange(100))]
        text = "".join(f"{k}\n" for k in keys)
        once = parse_plain(text)
        twice = parse_plain(emit_plain(once))
        assert twice.keys == once.keys == keys


def test_emit_plain_bytes():
    keys = [0, 7, MAX_KEY, 42, MAX_KEY, 3, 10**12]
    text = emit_plain(Trace(keys))
    assert text == "".join(f"{key}\n" for key in keys)
    assert text == "0\n7\n18446744073709551615\n42\n18446744073709551615\n3\n1000000000000\n"
    assert emit_plain(Trace([])) == ""


def test_parse_lru_problem_golden_input():
    cases = parse_lru_problem("5 GHI!JKGL!H!\n3 OPOQR!QROQP!PQPQ!\n5 KMKMN!\n0\n")
    assert cases == [
        LruCase(5, "GHI!JKGL!H!"),
        LruCase(3, "OPOQR!QROQP!PQPQ!"),
        LruCase(5, "KMKMN!"),
    ]


def test_parse_lru_problem_immediate_terminator():
    assert parse_lru_problem("0\n") == []


def test_parse_lru_problem_ignores_trailing_content():
    assert parse_lru_problem("2 AB!\n0\njunk after end\n") == [LruCase(2, "AB!")]


@pytest.mark.parametrize("text", [
    "3 !ABC!\n0\n",      # starts with '!'
    "0 AB!\n0\n",        # capacity < 1
    "2 AB\n0\n",         # no '!'
    "2 aB!\n0\n",        # lowercase
    "2 A1!\n0\n",        # digit in script
    "x AB!\n0\n",        # bad capacity
    "2\n0\n",            # missing script
    "2 AB!\n",           # missing terminator
])
def test_parse_lru_problem_malformed(text):
    with pytest.raises(MalformedLine):
        parse_lru_problem(text)


# lines are read in order: the first bad line is named, a bad script or an
# undecodable byte, and nothing after the terminator is decoded
@pytest.mark.parametrize("data, line, message", [
    (b"2 !A\n\xff\n0\n", 1, "script must start with a letter"),
    (b"2 AB!\n\xff\n0\n", 2, "not UTF-8: byte 0xff"),
    (b"2 AB!\n2 A\xff!\n0\n", 2, "not UTF-8: byte 0xff"),
])
def test_parse_lru_problem_names_the_first_bad_line(data, line, message):
    with pytest.raises(MalformedLine) as err:
        parse_lru_problem(data)
    assert (err.value.line_no, err.value.message) == (line, message)


@pytest.mark.parametrize("data", [b"2 AB!\n0\n\xff\n", b"2 AB!\r\n0\r\n\xff\xfe"])
def test_parse_lru_problem_stops_at_its_terminator(data):
    assert parse_lru_problem(data) == [LruCase(2, "AB!")]


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
def test_parse_lru_problem_reads_across_blocks(monkeypatch, block):
    monkeypatch.setattr(cachelab.trace, "BLOCK", block)
    data = "5 GHI!JKGL!H!\r\n3 OPOQR!QROQP!PQPQ!\n0\n".encode()
    assert parse_lru_problem(data) == parse_lru_problem(data.decode()) == [
        LruCase(5, "GHI!JKGL!H!"), LruCase(3, "OPOQR!QROQP!PQPQ!")]
    with pytest.raises(MalformedLine) as err:
        parse_lru_problem(b"2 AB!\n\n2 \xc3\xa9B!\n0\n")
    assert err.value.line_no == 3


@pytest.mark.parametrize("text, line", [("2 AB!\n", 2), ("2 AB!\n\n", 3), ("", 1)])
def test_parse_lru_problem_missing_terminator_names_the_next_line(text, line):
    with pytest.raises(MalformedLine) as err:
        parse_lru_problem(text)
    assert (err.value.line_no, err.value.message) == (line, "missing '0' terminator line")


# int() refuses a decimal of more than 4,300 digits, leading zeros included; a key,
# a capacity or a value that zeros pad is read as the value they pad
@pytest.mark.parametrize("parse, text, value", [
    (parse_plain, "0" * 5000 + "7\n", [7]),
    (parse_plain, "1\n" + "\u0660" * 5000 + "\u0663\n", [1, 3]),
    (parse_plain, "+" + "0_" * 3000 + "07\n", [7]),
    (parse_plain, "-" + "0" * 5000 + "\n", [0]),
    (parse_smpc, "2 " + "0" * 5000 + "7\n", [7]),
    (parse_lru_problem, "0" * 5000 + "2 AB!\n0\n", [LruCase(2, "AB!")]),
], ids=["plain", "arabic-indic", "underscores", "negative-zero", "smpc", "lru-capacity"])
def test_zero_padded_token_reads_as_its_value(parse, text, value):
    result = parse(text)
    assert (result if parse is parse_lru_problem else result.keys) == value


@pytest.mark.parametrize("text, message", [
    ("1" + "0" * 5000, "key outside unsigned 64-bit range"),
    ("-" + "0" * 4999 + "1", "key outside unsigned 64-bit range"),
    ("1" * 5000 + "x", "not a decimal or 0x-hex integer"),
    ("0" * 5000 + "_", "not a decimal or 0x-hex integer"),
], ids=["long-value", "padded-negative", "bad-tail", "trailing-underscore"])
def test_key_past_the_digit_limit_names_the_reason(text, message):
    with pytest.raises(MalformedLine) as err:
        parse_plain(text)
    assert err.value.message == f"bad key {text[:16]!r}... ({len(text)} chars): {message}"


def test_letter_key_round_trip():
    for ch in "AZM":
        assert key_letter(letter_key(ch)) == ch
    assert letter_key("A") == 0 and letter_key("Z") == 25


def test_gen_markov_deterministic_cycle():
    trace = gen_markov_trace(seed=1, num_keys=4, length=5, determinism=1.0)
    keys = trace.keys
    assert len(keys) == 5
    assert trace.events == [TraceEvent(i, k) for i, k in enumerate(keys)]
    assert all(type(e) is TraceEvent for e in trace.events)
    for prev, cur in zip(keys, keys[1:]):
        assert cur == (prev + 1) % 4


def test_gen_markov_same_seed_same_trace():
    a = gen_markov_trace(seed=1, num_keys=4, length=50, determinism=0.5)
    b = gen_markov_trace(seed=1, num_keys=4, length=50, determinism=0.5)
    assert a.keys == b.keys
    assert a == b
    c = gen_markov_trace(seed=2, num_keys=4, length=50, determinism=0.5)
    assert c.keys != a.keys


def test_gen_markov_transition_mass():
    # count successor transitions in the generated stream
    trace = gen_markov_trace(seed=2, num_keys=100, length=600_000, determinism=0.9)
    keys = trace.keys
    follow = [0] * 100
    total = [0] * 100
    for prev, cur in zip(keys, keys[1:]):
        total[prev] += 1
        if cur == (prev + 1) % 100:
            follow[prev] += 1
    for s in range(100):
        assert total[s] > 0
        assert follow[s] / total[s] >= 0.85


def test_gen_markov_emit_parse_round_trip():
    trace = gen_markov_trace(seed=3, num_keys=10, length=200, determinism=0.7)
    assert parse_plain(emit_plain(trace)).keys == trace.keys
    assert_events_follow_keys(trace)


def test_traces_hold_keys_not_per_event_objects():
    # a trace is its key column: building one leaves no per-event object for the
    # garbage collector to track
    text = "".join(f"{k}\n" for k in range(10_000))
    for build in (lambda: gen_markov_trace(seed=4, num_keys=500, length=10_000, determinism=0.9),
                  lambda: parse_plain(text)):
        gc.collect()
        before = len(gc.get_objects())
        trace = build()
        assert len(trace) == 10_000
        assert len(gc.get_objects()) - before < 100
        del trace


@pytest.mark.parametrize("kwargs", [
    dict(seed=1, num_keys=4, length=5, determinism=1.5),
    dict(seed=1, num_keys=4, length=5, determinism=-0.1),
    dict(seed=1, num_keys=1, length=5, determinism=0.5),
    dict(seed=1, num_keys=4, length=0, determinism=0.5),
    dict(seed=1, num_keys=2**63 + 1, length=5, determinism=0.5),  # past numpy's int64 draw
    dict(seed=1, num_keys=4, length=10**19, determinism=0.5),  # a draw numpy cannot size
    dict(seed=1, num_keys=10, length=5, determinism="0.5"),  # not a real number
    dict(seed=1, num_keys=10, length=5, determinism=None),
    dict(seed=1, num_keys=10, length=5, determinism=True),  # a bool, as keys refuse one
])
def test_gen_markov_invalid_params(kwargs):
    with pytest.raises(InvalidParam):
        gen_markov_trace(**kwargs)


INT_PARAMS = {  # name -> (build from the value, a valid value)
    "capacity": (lambda v: CacheConfig(v), 3),
    "timer_init": (lambda v: PreEvictConfig(timer_enabled=True, timer_init=v), 3),
    "address_space_size": (lambda v: PreEvictConfig(halfway_enabled=True, address_space_size=v), 3),
    "top_k": (lambda v: PrefetchConfig(top_k=v), 3),
    "order": (lambda v: PredictorConfig(order=v), 2),
    "min_support": (lambda v: PredictorConfig(min_support=v), 3),
    "seed": (lambda v: gen_markov_trace(v, 3, 5, 0.5), 3),
    "num_keys": (lambda v: gen_markov_trace(1, v, 5, 0.5), 3),
    "length": (lambda v: gen_markov_trace(1, 3, v, 0.5), 3),
}


@pytest.mark.parametrize("name", INT_PARAMS)
def test_integer_params_reject_non_integers(name):
    build, good = INT_PARAMS[name]
    for bad in (2.5, True):  # operator.index takes True; these refuse it, as Trace does
        with pytest.raises(InvalidParam, match=f"^{name} must be an integer, got {bad}$"):
            build(bad)
    built = build(np.int64(good))  # what operator.index takes passes, numpy ints too
    assert built == build(good)
    if isinstance(built, Trace):
        assert all(type(key) is int for key in built.keys)
    else:  # a config keeps the int, so no replay does numpy scalar arithmetic
        assert type(getattr(built, name)) is int


@pytest.mark.parametrize("keys, bad", [
    ([1.5, 2, 1.5], "1.5"), ([1, 1.0], "1.0"), ([1, True], "True"), ([False], "False"),
    ([3, "a"], "'a'"), ([np.int64(42)], repr(np.int64(42))), ([0, -1], "-1"),
    ([MAX_KEY, MAX_KEY + 1], str(MAX_KEY + 1)), ([2.0, -1], "2.0"),
])
def test_trace_refuses_keys_no_trace_file_holds(keys, bad):
    # a float, bool, str or numpy key would run, and emit_plain would write what
    # parse_plain refuses; the first such key is named, even where a set merges it
    with pytest.raises(InvalidParam, match=rf"^trace keys must be ints in \[0, 2\*\*64 - 1\], "
                                           rf"got {re.escape(bad)}$"):
        Trace(keys)


def test_trace_counts_its_distinct_keys():
    keys = [5, 1, 5, 2, 1, 5]
    trace = Trace(keys)
    assert trace.distinct == 3 and Trace([]).distinct == 0
    assert trace == Trace(list(keys)) == parse_plain("5\n1\n5\n2\n1\n5\n")
    assert trace != Trace([5, 1, 2])
    generated = gen_markov_trace(seed=5, num_keys=50, length=400, determinism=0.3)
    assert generated.distinct == len(set(generated.keys))
    with pytest.raises(AttributeError):  # frozen: neither field can be rebound
        trace.distinct = 0


def test_parsers_count_distinct_without_checking_the_keys_again(monkeypatch):
    # key_blocks checks every key as it reads it, so the parsers' Trace only counts
    # distinct; a Trace built in code still checks every key
    keys = [(7919 * i) % 5003 for i in range(20_000)]  # more than one 64 KiB block
    built = Trace(keys)

    def refuse(self):
        raise AssertionError("the keys were checked a second time")

    monkeypatch.setattr(Trace, "__post_init__", refuse)
    plain = parse_plain(emit_plain(built))
    smpc = parse_smpc("".join(f"2 {key}\n" for key in keys))
    assert plain == smpc == built and plain.distinct == smpc.distinct == 5003
    monkeypatch.undo()
    with pytest.raises(InvalidParam, match="got -1$"):
        Trace([*keys, -1])


HUGE = 10**5000  # past the 4,300 digits str() and repr() print by default
_NET = BayesNet([Variable("A", 2)], [CPT("A", [], [[0.5, 0.5]])])


@pytest.mark.parametrize("build, error, field, value", [
    (lambda v: CacheConfig(v), InvalidParam, "capacity", -HUGE),
    (lambda v: PreEvictConfig(timer_init=v), InvalidParam, "timer_init", -HUGE),
    (lambda v: PredictorConfig(order=v), InvalidParam, "order", HUGE),
    (lambda v: PredictorConfig(alpha=v), InvalidParam, "alpha", HUGE),
    (lambda v: PredictorConfig(min_support=v), InvalidParam, "min_support", -HUGE),
    (lambda v: PrefetchConfig(top_k=v), InvalidParam, "top_k", -HUGE),
    (lambda v: PrefetchConfig(p_min=v), InvalidParam, "p_min", HUGE),
    (lambda v: Trace([1, v]), InvalidParam, "trace keys", HUGE),
    (lambda v: gen_markov_trace(0, 10, 10, v), InvalidParam, "determinism", -HUGE),
    (lambda v: gen_markov_trace(0, v, 10, 0.5), InvalidParam, "num_keys", HUGE),
    (lambda v: gen_markov_trace(0, 10, v, 0.5), InvalidParam, "length", HUGE),
    (lambda v: learn_cpts([Variable("A", 2)], {}, [], v), BayesError, "pseudocount", HUGE),
    (lambda v: learn_cpts([Variable("A", 2)], {}, [{"A": v}]), BayesError, "'A'", HUGE),
    (lambda v: joint_probability(_NET, {"A": v}), BayesError, "'A'", -HUGE),
    (lambda v: infer_enumeration(_NET, "A", {"A": v}), BayesError, "'A'", HUGE),
], ids=["capacity", "timer_init", "order", "alpha", "min_support", "top_k", "p_min",
        "trace key", "determinism", "num_keys", "length", "pseudocount", "data value",
        "assignment value", "evidence value"])
def test_refusal_names_an_int_too_long_to_print(build, error, field, value):
    # each refusal is its own, naming the field and the int by sign and bit length,
    # where printing the int would raise ValueError: Exceeds the limit (4300 digits)
    with pytest.raises(error) as err:
        build(value)
    assert err.type is error
    message = str(err.value)
    assert field in message
    assert f" {'-' if value < 0 else ''}<int of 16610 bits>" in message
