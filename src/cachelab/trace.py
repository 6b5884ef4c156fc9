"""Access-trace parsing, emission, and seeded synthetic workload generation."""

import numbers
import operator
from dataclasses import dataclass, field
from itertools import count
from typing import NamedTuple, Union

import numpy as np

MAX_KEY = 2**64 - 1


class TraceError(ValueError):
    pass


class MalformedLine(TraceError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message  # without the line, for callers that name it themselves


class MalformedCase(TraceError):
    pass


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
            raise InvalidParam(f"{name} must be an integer, got {value!r}") from None
    return ints


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
            raise InvalidParam(f"trace keys must be ints in [0, 2**64 - 1], got {bad!r}")
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


def _parse_key(token: str) -> int:
    try:
        value = int(token, 16) if token[:2].lower() == "0x" else int(token, 10)
    except ValueError:
        raise ValueError("not a decimal or 0x-hex integer") from None
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
            raise MalformedLine(line_no, f"bad key {token!r}: {exc}") from None
    return Trace(keys)


def parse_smpc(text: Union[str, bytes]) -> Trace:
    """Two-column 'op address' lines with op in {0,2,3}; all accesses hit the cache."""
    keys = []
    for line_no, line in enumerate(_as_text(text).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedLine(line_no, f"expected 'op address', got {line.strip()!r}")
        if fields[0] not in _SMPC_OPS:
            raise MalformedLine(line_no, f"unknown op code {fields[0]!r}")
        try:
            keys.append(_parse_key(fields[1]))
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad address {fields[1]!r}: {exc}") from None
    return Trace(keys)


def emit_plain(trace: Trace) -> str:
    """One key per line, as str() writes it: decimal for the int keys parse_plain reads."""
    keys = trace.keys
    return ("%s\n" * len(keys)) % tuple(keys)


def parse_lru_problem(text: Union[str, bytes]) -> list:
    """Cases of 'N SCRIPT' per line, terminated by a line holding exactly '0'."""
    cases = []
    terminated = False
    for line_no, line in enumerate(_as_text(text).splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped == "0":
            terminated = True
            break
        fields = stripped.split()
        if len(fields) != 2:
            raise MalformedCase(f"line {line_no}: expected 'N SCRIPT', got {stripped!r}")
        try:
            capacity = int(fields[0], 10)
        except ValueError:
            raise MalformedCase(f"line {line_no}: bad capacity {fields[0]!r}") from None
        if capacity < 1:
            raise MalformedCase(f"line {line_no}: capacity must be >= 1, got {capacity}")
        script = fields[1]
        if any(ch != "!" and not ("A" <= ch <= "Z") for ch in script):
            raise MalformedCase(f"line {line_no}: script has characters outside [A-Z!]")
        if not ("A" <= script[0] <= "Z"):
            raise MalformedCase(f"line {line_no}: script must start with a letter")
        if "!" not in script:
            raise MalformedCase(f"line {line_no}: script has no '!'")
        cases.append(LruCase(capacity, script))
    if not terminated:
        raise MalformedCase("missing '0' terminator line")
    return cases


def letter_key(letter: str) -> int:
    return ord(letter) - ord("A")


def key_letter(key: int) -> str:
    return chr(key + ord("A"))


def gen_markov_trace(seed: int, num_keys: int, length: int, determinism: float) -> Trace:
    """Order-1 chain over {0..num_keys-1}: follow s -> (s+1) mod num_keys with the
    given probability, otherwise jump to a uniformly random key."""
    seed, num_keys, length = require_ints(seed=seed, num_keys=num_keys, length=length)
    if isinstance(determinism, bool) or not (isinstance(determinism, numbers.Real)
                                             and 0.0 <= determinism <= 1.0):
        raise InvalidParam(f"determinism must be in [0, 1], got {determinism!r}")
    if not 2 <= num_keys <= 2**63:  # numpy draws the jumps as int64
        raise InvalidParam(f"num_keys must be in [2, 2**63], got {num_keys}")
    max_length = np.iinfo(np.intp).max // 8 + 1  # numpy cannot size a longer float64 draw
    if not 1 <= length <= max_length:
        raise InvalidParam(f"length must be in [1, {max_length}], got {length}")
    rng = np.random.default_rng(seed & MAX_KEY)  # seed taken as unsigned 64-bit
    state = int(rng.integers(num_keys))
    follow = (rng.random(length - 1) < determinism).tolist()
    jumps = rng.integers(0, num_keys, size=length - 1).tolist()
    keys = [state]
    for f, j in zip(follow, jumps):
        state = (state + 1) % num_keys if f else j
        keys.append(state)
    return Trace(keys)
