"""Access-trace parsing, emission, and seeded synthetic workload generation."""

import enum
from itertools import count, repeat
from typing import NamedTuple, Union

import numpy as np

MAX_KEY = 2**64 - 1


class TraceError(ValueError):
    pass


class MalformedLine(TraceError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedCase(TraceError):
    pass


class InvalidParam(ValueError):
    pass


class Op(enum.Enum):
    INSTR_FETCH = "instr_fetch"
    DATA_READ = "data_read"
    DATA_WRITE = "data_write"
    UNSPECIFIED = "unspecified"


class TraceEvent(NamedTuple):
    seq: int
    key: int
    op: Op = Op.UNSPECIFIED


class Trace(NamedTuple):
    events: list

    def keys(self):
        return [e.key for e in self.events]

    def __len__(self):
        return len(self.events)


class LruCase(NamedTuple):
    capacity: int
    script: str


# SMPCache-style op codes: instruction fetch / data read / data write.
_SMPC_OPS = {"0": Op.INSTR_FETCH, "2": Op.DATA_READ, "3": Op.DATA_WRITE}


def _as_text(data: Union[str, bytes]) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bad byte's line, with lines split by str.splitlines as the parsers split
            line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
            raise MalformedLine(line_no, f"not UTF-8: byte {data[exc.start]:#04x}") from None
    return data


def _events(keys) -> list:
    """TraceEvents numbered from 0, built in C without TraceEvent's Python __new__."""
    return list(map(tuple.__new__, repeat(TraceEvent), zip(count(), keys,
                                                            repeat(Op.UNSPECIFIED))))


def _parse_key(token: str) -> int:
    if token[:2].lower() == "0x":
        value = int(token, 16)
    else:
        value = int(token, 10)
    if not 0 <= value <= MAX_KEY:
        raise ValueError("key outside unsigned 64-bit range")
    return value


def parse_plain(text: Union[str, bytes]) -> Trace:
    """One key per line, decimal or 0x-hex; '#' comments and blank lines allowed."""
    text = _as_text(text)
    try:  # the bulk path: int(t) takes exactly the tokens int(t, 10) takes
        keys = [int(t) for t in map(str.strip, text.splitlines()) if t and t[0] != "#"]
        if not keys or 0 <= min(keys) and max(keys) <= MAX_KEY:
            return Trace(_events(keys))
    except ValueError:
        pass
    # hex keys and bad lines go line by line, which names the first bad line
    keys = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token or token.startswith("#"):
            continue
        try:
            keys.append(_parse_key(token))
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad key {token!r}: {exc}") from None
    return Trace(_events(keys))


def parse_smpc(text: Union[str, bytes]) -> Trace:
    """Two-column 'op address' lines with op in {0,2,3}; all accesses hit the cache."""
    events = []
    for line_no, line in enumerate(_as_text(text).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedLine(line_no, f"expected 'op address', got {line.strip()!r}")
        op = _SMPC_OPS.get(fields[0])
        if op is None:
            raise MalformedLine(line_no, f"unknown op code {fields[0]!r}")
        try:
            key = _parse_key(fields[1])
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad address {fields[1]!r}: {exc}") from None
        events.append(TraceEvent(len(events), key, op))
    return Trace(events)


def emit_plain(trace: Trace) -> str:
    return "".join(f"{e.key}\n" for e in trace.events)


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
    if not 0.0 <= determinism <= 1.0:
        raise InvalidParam(f"determinism must be in [0, 1], got {determinism}")
    if num_keys < 2:
        raise InvalidParam(f"num_keys must be >= 2, got {num_keys}")
    if length < 1:
        raise InvalidParam(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed & MAX_KEY)  # seed taken as unsigned 64-bit
    state = int(rng.integers(num_keys))
    follow = (rng.random(length - 1) < determinism).tolist()
    jumps = rng.integers(0, num_keys, size=length - 1).tolist()
    keys = [state]
    for f, j in zip(follow, jumps):
        state = (state + 1) % num_keys if f else int(j)
        keys.append(state)
    return Trace(_events(keys))
