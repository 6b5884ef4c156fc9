"""Access-trace parsing, emission, and seeded synthetic workload generation."""

import math
import numbers
import operator
import re
import sys
from dataclasses import dataclass, field
from itertools import count
from typing import NamedTuple, Union

import numpy as np

MAX_KEY = 2**64 - 1


class MalformedLine(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message  # without the line, for callers that name it themselves


class InvalidParam(ValueError):
    pass


def require_ints(**params):
    """The values as ints, taking whatever operator.index takes (numpy integers
    among them) but bools; InvalidParam names the first value that is not an integer."""
    ints = []
    for name, value in params.items():
        try:
            if isinstance(value, bool):  # operator.index takes True as 1; Trace refuses it too
                raise TypeError
            ints.append(operator.index(value))
        except TypeError:
            raise InvalidParam(f"{name} must be an integer, got {shown(value)}") from None
    return ints


def shown(value):
    """repr(value) for a refusal to name, but a str of more than 40 characters as the
    repr of its first 16, '...' and its length, an int of more than 40 digits as its
    sign and bit length, and any other value whose repr runs past 40 characters as
    that repr's first 16 characters, '...' and its length."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:16]!r}... ({len(value)} chars)"
    if isinstance(value, int) and not -10**40 < value < 10**40:
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:16]}... ({len(text)} chars)"


def as_float(value):
    """value as a float if it is a real number but not a bool, an int past the float
    range as inf or -inf; anything else as nan, which no range check passes."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class TraceEvent(NamedTuple):
    seq: int
    key: int


@dataclass(frozen=True, slots=True)
class Trace:
    """The requested keys in order, each an int in [0, MAX_KEY] as a trace file holds
    them; distinct, len(set(keys)), counted once when built. Every run shares the key
    list, so it must not be changed after the trace is built: distinct would not follow it."""
    keys: list
    distinct: int = field(init=False)

    def __post_init__(self):
        keys = self.keys
        # types over the whole list: 1, 1.0 and True are one element of a set
        distinct = set(keys) if set(map(type, keys)) <= {int} else None
        if distinct is None or distinct and not 0 <= min(distinct) <= max(distinct) <= MAX_KEY:
            bad = next(k for k in keys if type(k) is not int or not 0 <= k <= MAX_KEY)
            raise InvalidParam(f"trace keys must be ints in [0, 2**64 - 1], got {shown(bad)}")
        object.__setattr__(self, "distinct", len(distinct))

    @property
    def events(self) -> list:
        """TraceEvents numbered from 0, built on each read."""
        return list(map(TraceEvent, count(), self.keys))

    def __len__(self):
        return len(self.keys)


class LruCase(NamedTuple):
    capacity: int
    script: str


# SMPCache-style op codes: instruction fetch / data read / data write; checked, not kept.
_SMPC_OPS = ("0", "2", "3")


def _as_text(data: Union[str, bytes]) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bad byte's line, with lines split by str.splitlines as the parsers split
            line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
            raise MalformedLine(line_no, f"not UTF-8: byte {data[exc.start]:#04x}") from None
    return data


def read_decimal(token: str) -> int:
    """int(token, 10), but leading zeros do not count toward int()'s limit of
    sys.get_int_max_str_digits() digits: ValueError("not a decimal integer") for what
    int() cannot read, an OverflowError naming the limit for a value of more digits."""
    try:
        return int(token, 10)
    except ValueError:
        match = re.fullmatch(r"([+-]?)(\d+(?:_\d+)*)", token.strip())  # what int() reads
        if match is None:
            raise ValueError("not a decimal integer") from None
    digits = match[2].replace("_", "")
    digits = digits.translate({ord(d): str(int(d)) for d in set(digits)}).lstrip("0")
    if len(digits) > sys.get_int_max_str_digits():
        raise OverflowError(f"more than {sys.get_int_max_str_digits()} digits")
    return int(match[1] + (digits or "0"))


def _parse_key(token: str) -> int:
    try:
        value = int(token, 16) if token[:2].lower() == "0x" else read_decimal(token)
    except ValueError:
        raise ValueError("not a decimal or 0x-hex integer") from None
    except OverflowError:  # more digits than int() reads: far past MAX_KEY
        value = MAX_KEY + 1
    if not 0 <= value <= MAX_KEY:
        raise ValueError("key outside unsigned 64-bit range")
    return value


def parse_plain(text: Union[str, bytes]) -> Trace:
    """One key per line, decimal or 0x-hex; '#' comments and blank lines allowed."""
    text = _as_text(text)
    # the bulk path: int(t) takes exactly the tokens int(t, 10) takes, and strips the
    # whitespace around them itself, so a file of bare decimal lines is one map
    try:
        return Trace(list(map(int, text.splitlines())))
    except ValueError:  # a blank, comment, hex or bad line, or a key out of range
        pass
    # the rest go line by line, which skips blanks and comments and names the first bad line
    keys = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token or token.startswith("#"):
            continue
        try:
            keys.append(_parse_key(token))
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad key {shown(token)}: {exc}") from None
    return Trace(keys)


def parse_smpc(text: Union[str, bytes]) -> Trace:
    """Two-column 'op address' lines with op in {0,2,3}; all accesses hit the cache."""
    keys = []
    for line_no, line in enumerate(_as_text(text).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedLine(line_no, f"expected 'op address', got {shown(line.strip())}")
        if fields[0] not in _SMPC_OPS:
            raise MalformedLine(line_no, f"unknown op code {shown(fields[0])}")
        try:
            keys.append(_parse_key(fields[1]))
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad address {shown(fields[1])}: {exc}") from None
    return Trace(keys)


def emit_plain(trace: Trace) -> str:
    """One key per line, as str() writes it: decimal for the int keys parse_plain reads."""
    keys = trace.keys
    return ("%s\n" * len(keys)) % tuple(keys)


def parse_lru_problem(text: Union[str, bytes]) -> list:
    """Cases of 'N SCRIPT' per line, terminated by a line holding exactly '0'."""
    cases = []
    lines = _as_text(text).splitlines()
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped == "0":
            return cases
        fields = stripped.split()
        if len(fields) != 2:
            raise MalformedLine(line_no, f"expected 'N SCRIPT', got {shown(stripped)}")
        try:
            capacity = read_decimal(fields[0])
        except (ValueError, OverflowError) as exc:
            raise MalformedLine(line_no, f"bad capacity {shown(fields[0])}: {exc}") from None
        if capacity < 1:
            raise MalformedLine(line_no, f"capacity must be >= 1, got {shown(capacity)}")
        script = fields[1]
        if any(ch != "!" and not ("A" <= ch <= "Z") for ch in script):
            raise MalformedLine(line_no, "script has characters outside [A-Z!]")
        if not ("A" <= script[0] <= "Z"):
            raise MalformedLine(line_no, "script must start with a letter")
        if "!" not in script:
            raise MalformedLine(line_no, "script has no '!'")
        cases.append(LruCase(capacity, script))
    raise MalformedLine(len(lines) + 1, "missing '0' terminator line")


def letter_key(letter: str) -> int:
    return ord(letter) - ord("A")


def key_letter(key: int) -> str:
    return chr(key + ord("A"))


def gen_markov_trace(seed: int, num_keys: int, length: int, determinism: float) -> Trace:
    """Order-1 chain over {0..num_keys-1}: follow s -> (s+1) mod num_keys with the
    given probability, otherwise jump to a uniformly random key."""
    seed, num_keys, length = require_ints(seed=seed, num_keys=num_keys, length=length)
    if not 0.0 <= as_float(determinism) <= 1.0:
        raise InvalidParam(f"determinism must be in [0, 1], got {shown(determinism)}")
    if not 2 <= num_keys <= 2**63:  # numpy draws the jumps as int64
        raise InvalidParam(f"num_keys must be in [2, 2**63], got {shown(num_keys)}")
    max_length = np.iinfo(np.intp).max // 8 + 1  # numpy cannot size a longer float64 draw
    if not 1 <= length <= max_length:
        raise InvalidParam(f"length must be in [1, {max_length}], got {shown(length)}")
    rng = np.random.default_rng(seed & MAX_KEY)  # seed taken as unsigned 64-bit
    state = int(rng.integers(num_keys))
    follow = (rng.random(length - 1) < determinism).tolist()
    jumps = rng.integers(0, num_keys, size=length - 1).tolist()
    keys = [state]
    for f, j in zip(follow, jumps):
        state = (state + 1) % num_keys if f else j
        keys.append(state)
    return Trace(keys)
