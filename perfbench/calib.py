"""Host-speed calibration for every time the benchmark reports.

On a shared 2-vCPU host the speed of identical Python work drifts by up to 2x
over tens of seconds, and CPU time drifts with wall time, so the noise is the
host's. Raw pass times of one commit then spread by half from run to run. So
each timed interval is bracketed by a fixed pure-Python reference loop that
runs no cachelab code, and is reported in reference seconds:

    host seconds * REFERENCE_S / (mean host time of the loop before and after)

A reference second is a host second on a machine where the loop takes
REFERENCE_S. Raw host seconds are reported beside every scaled figure.
"""

import time
from collections import OrderedDict

REFERENCE_S = 0.010
# The loop tracks the host's speed best when it resembles the measured work.
# churn's timers walk every resident entry per access, so its loop also walks
# the entries every SCAN_EVERY steps; with that, churn runs of one commit spread
# by 4% instead of 11%. The walking loop takes 2.43 times as long as the plain
# one, so its reference time is scaled to match.
SCANNING = ("churn",)
SCAN_EVERY = 16
SCAN_REFERENCE_S = 0.0243
# measured time accumulates across calls until it reaches this, then the loop
# runs again; shorter segments track the drift more closely but cost more loops
SEGMENT_S = 0.05
LOOP_KEYS = 12_000
LOOP_CAPACITY = 400


class _Entry:
    __slots__ = ("key", "seq", "uses")

    def __init__(self, key, seq):
        self.key = key
        self.seq = seq
        self.uses = 1


def _loop_keys():
    keys = []
    x = 12345
    for i in range(LOOP_KEYS):
        x = (x * 1103515245 + 12345) % 2**31
        keys.append(x % 3000 if x % 5 else i % 3000)
    return keys


_KEYS = _loop_keys()


def reference_loop(scanning=False):
    """Host seconds for a fixed LRU-style dict and object workload; scanning
    adds a walk over the resident entries, like a timer tick."""
    t0 = time.perf_counter()
    order = OrderedDict()
    entries = {}
    for seq, key in enumerate(_KEYS):
        entry = entries.get(key)
        if entry is not None:
            entry.uses += 1
            order.move_to_end(key)
        else:
            if len(entries) >= LOOP_CAPACITY:
                victim, _ = order.popitem(last=False)
                del entries[victim]
            entries[key] = _Entry(key, seq)
            order[key] = None
        if scanning and seq % SCAN_EVERY == 0:
            for entry in entries.values():
                entry.seq -= 1
    return time.perf_counter() - t0


def scale(before, after, scanning=False):
    """Reference seconds per host second between two reference loops."""
    return 2 * (SCAN_REFERENCE_S if scanning else REFERENCE_S) / (before + after)


class Clock:
    """Host time of the program calls made through `call`, and the same time in
    reference seconds. `call` has the signature of workloads.direct."""

    def __init__(self, scanning=False):
        self.host = 0.0
        self.reference = 0.0
        self._scanning = scanning
        self._segment = 0.0
        self._before = reference_loop(scanning)

    def call(self, name, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self._segment += time.perf_counter() - t0
        if self._segment >= SEGMENT_S:
            self.flush()
        return result

    def flush(self):
        if not self._segment:
            return
        after = reference_loop(self._scanning)
        self.host += self._segment
        self.reference += self._segment * scale(self._before, after, self._scanning)
        self._segment = 0.0
        self._before = after
