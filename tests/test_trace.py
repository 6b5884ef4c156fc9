import random

import pytest
from hypothesis import given, settings, strategies as st

from cachelab.trace import (
    MAX_KEY,
    InvalidParam,
    LruCase,
    MalformedCase,
    MalformedLine,
    Op,
    TraceError,
    TraceEvent,
    emit_plain,
    gen_markov_trace,
    key_letter,
    letter_key,
    parse_lru_problem,
    parse_plain,
    parse_smpc,
)

from reference import ref_parse_plain


def test_parse_plain_reference_string():
    trace = parse_plain("7\n0\n1\n2\n0\n3\n0\n4\n2\n3\n")
    assert trace.keys() == [7, 0, 1, 2, 0, 3, 0, 4, 2, 3]
    assert [e.seq for e in trace.events] == list(range(10))
    assert all(e.op is Op.UNSPECIFIED for e in trace.events)


def test_parse_plain_empty():
    assert parse_plain("").keys() == []


def test_parse_plain_hex_and_comments():
    assert parse_plain("0x10\n# note\n16\n").keys() == [16, 16]


def test_parse_plain_blank_lines_and_crlf():
    assert parse_plain("1\r\n\r\n2\r\n").keys() == [1, 2]


def test_parse_plain_accepts_bytes():
    assert parse_plain(b"3\n4\n").keys() == [3, 4]


@pytest.mark.parametrize("parse", [parse_plain, parse_smpc, parse_lru_problem])
def test_parsers_reject_non_utf8_bytes_with_line(parse):
    # lines end where str.splitlines ends them, at \r and \x0b too
    for data in (b"1\n\xff\n", b"1\r\xff", b"1\x0b\xff", b"1\r\n\xff"):
        with pytest.raises(MalformedLine) as err:
            parse(data)
        assert err.value.line_no == 2, data
        assert "0xff" in str(err.value)


def test_parse_plain_64bit_bounds():
    top = 2**64 - 1
    assert parse_plain(f"{top}\n").keys() == [top]
    with pytest.raises(MalformedLine) as err:
        parse_plain(f"{2**64}\n")
    assert err.value.line_no == 1


@pytest.mark.parametrize("text,line", [("x\n", 1), ("1\n-5\n", 2), ("1 2\n", 1), ("3.5\n", 1)])
def test_parse_plain_malformed(text, line):
    with pytest.raises(MalformedLine) as err:
        parse_plain(text)
    assert err.value.line_no == line


# Pieces of plain-trace text: digits, base prefixes and letters, signs, separators,
# line breaks, non-ASCII digits, keys at and past the 64-bit bounds, and a token
# over int()'s 4,300-digit limit.
TEXT_PIECES = st.sampled_from([
    *"0123456789", "0x", "0X", "0o", "a", "b", "F", "#", "_", "+", "-", " ", "\t", "\r", "\n",
    "\r\n", "\u0663", "\uff17", "\u0e52", "0", str(MAX_KEY), str(MAX_KEY + 1),
    hex(MAX_KEY), "9" * 4301, "\n1\n",
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
        assert expected == ("bad", exc.line_no)
    else:
        assert expected == ("ok", trace.keys())
        assert trace.events == [TraceEvent(i, k) for i, k in enumerate(trace.keys())]


@pytest.mark.parametrize("parse", [parse_smpc, parse_lru_problem])
@settings(max_examples=300, deadline=None, database=None)
@given(data=TRACE_TEXT | TRACE_BYTES | st.lists(
    st.sampled_from(["0 ", "2 ", "3 ", "4 ", "ABC!", "!", "Z", "0\n", "1 "]) | TEXT_PIECES,
    max_size=30).map("".join))
def test_other_parsers_raise_only_trace_errors(parse, data):
    try:
        parse(data)
    except TraceError:  # MalformedLine and MalformedCase are TraceErrors
        pass


def test_parse_smpc_field_mapping():
    trace = parse_smpc("0 100\n2 100\n3 104\n")
    assert trace.keys() == [100, 100, 104]
    assert [e.op for e in trace.events] == [Op.INSTR_FETCH, Op.DATA_READ, Op.DATA_WRITE]


def test_parse_smpc_unknown_op():
    with pytest.raises(MalformedLine) as err:
        parse_smpc("5 100\n")
    assert err.value.line_no == 1


def test_parse_smpc_bad_address():
    with pytest.raises(MalformedLine):
        parse_smpc("0 abc\n")
    with pytest.raises(MalformedLine):
        parse_smpc("0 100 extra\n")


def test_smpc_plain_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        lines = [f"{rng.choice([0, 2, 3])} {rng.randrange(10**6)}" for _ in range(rng.randrange(50))]
        text = "".join(line + "\n" for line in lines)
        smpc = parse_smpc(text)
        again = parse_plain(emit_plain(smpc))
        assert again.keys() == smpc.keys()


def test_plain_emit_parse_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        keys = [rng.randrange(2**64) for _ in range(rng.randrange(100))]
        text = "".join(f"{k}\n" for k in keys)
        once = parse_plain(text)
        twice = parse_plain(emit_plain(once))
        assert twice.keys() == once.keys() == keys


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
    with pytest.raises(MalformedCase):
        parse_lru_problem(text)


def test_letter_key_round_trip():
    for ch in "AZM":
        assert key_letter(letter_key(ch)) == ch
    assert letter_key("A") == 0 and letter_key("Z") == 25


def test_gen_markov_deterministic_cycle():
    trace = gen_markov_trace(seed=1, num_keys=4, length=5, determinism=1.0)
    keys = trace.keys()
    assert len(keys) == 5
    assert trace.events == [TraceEvent(i, k) for i, k in enumerate(keys)]
    assert all(type(e) is TraceEvent and e.op is Op.UNSPECIFIED for e in trace.events)
    for prev, cur in zip(keys, keys[1:]):
        assert cur == (prev + 1) % 4


def test_gen_markov_same_seed_same_trace():
    a = gen_markov_trace(seed=1, num_keys=4, length=50, determinism=0.5)
    b = gen_markov_trace(seed=1, num_keys=4, length=50, determinism=0.5)
    assert a.keys() == b.keys()
    c = gen_markov_trace(seed=2, num_keys=4, length=50, determinism=0.5)
    assert c.keys() != a.keys()


def test_gen_markov_transition_mass():
    # count successor transitions in the generated stream
    trace = gen_markov_trace(seed=2, num_keys=100, length=600_000, determinism=0.9)
    keys = trace.keys()
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
    assert parse_plain(emit_plain(trace)).keys() == trace.keys()


@pytest.mark.parametrize("kwargs", [
    dict(seed=1, num_keys=4, length=5, determinism=1.5),
    dict(seed=1, num_keys=4, length=5, determinism=-0.1),
    dict(seed=1, num_keys=1, length=5, determinism=0.5),
    dict(seed=1, num_keys=4, length=0, determinism=0.5),
])
def test_gen_markov_invalid_params(kwargs):
    with pytest.raises(InvalidParam):
        gen_markov_trace(**kwargs)
