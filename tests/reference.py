"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive (plain lists, linear scans) and shares no
code with the package under test.
"""

import itertools


def ref_policy_run(keys, capacity, policy):
    """Step a classical policy over a key sequence.

    Returns (hits, misses, outcome list of 'H'/'M', final resident set).
    """
    resident = []
    inserted = {}
    last_used = {}
    outcomes = []
    hits = misses = 0
    for t, key in enumerate(keys):
        if key in resident:
            hits += 1
            outcomes.append("H")
            last_used[key] = t
            continue
        misses += 1
        outcomes.append("M")
        if len(resident) == capacity:
            if policy == "fifo":
                victim = min(resident, key=lambda k: inserted[k])
            elif policy == "lifo":
                victim = max(resident, key=lambda k: inserted[k])
            elif policy == "lru":
                victim = min(resident, key=lambda k: last_used[k])
            elif policy == "mru":
                victim = max(resident, key=lambda k: last_used[k])
            else:
                raise ValueError(policy)
            resident.remove(victim)
        resident.append(key)
        inserted[key] = t
        last_used[key] = t
    return hits, misses, outcomes, set(resident)


def ref_lru_order(keys, capacity):
    """Resident keys after the sequence, least recently used first."""
    resident = []
    for key in keys:
        if key in resident:
            resident.remove(key)
        elif len(resident) == capacity:
            resident.pop(0)
        resident.append(key)
    return resident


def ref_arc_run(keys, capacity, adaptation="unit"):
    """Step the adaptive two-list policy: t1/t2 resident, b1/b2 ghosts, target p.

    Lists are ordered least to most recent. Ghost hits adapt p (by 1, or by the
    ghost-size ratio); replacement takes the t1 LRU into b1 while |t1| >= max(1, p),
    otherwise the t2 LRU into b2. A cold miss with t1 and b1 jointly at capacity
    and b1 empty drops the t1 LRU without ghosting it.
    """
    t1, t2, b1, b2 = [], [], [], []
    p = 0
    hits = misses = 0
    outcomes = []

    def replace():
        if len(t1) >= max(1, p):
            victim = t1.pop(0)
            b1.append(victim)
        else:
            victim = t2.pop(0)
            b2.append(victim)
        return victim

    for key in keys:
        if key in t1:
            hits += 1
            outcomes.append("H")
            t1.remove(key)
            t2.append(key)
        elif key in t2:
            hits += 1
            outcomes.append("H")
            t2.remove(key)
            t2.append(key)
        elif key in b1:
            misses += 1
            outcomes.append("M")
            delta = 1 if adaptation == "unit" else max(1, len(b2) // len(b1))
            p = min(p + delta, capacity)
            if len(t1) + len(t2) >= capacity:
                replace()
            b1.remove(key)
            t2.append(key)
        elif key in b2:
            misses += 1
            outcomes.append("M")
            delta = 1 if adaptation == "unit" else max(1, len(b1) // len(b2))
            p = max(p - delta, 0)
            if len(t1) + len(t2) >= capacity:
                replace()
            b2.remove(key)
            t2.append(key)
        else:
            misses += 1
            outcomes.append("M")
            if len(t1) + len(b1) == capacity:
                if len(t1) < capacity:
                    b1.pop(0)
                    if len(t1) + len(t2) >= capacity:
                        replace()
                else:
                    t1.pop(0)
            else:
                total = len(t1) + len(t2) + len(b1) + len(b2)
                if total >= capacity:
                    if total >= 2 * capacity:
                        b2.pop(0)
                    if len(t1) + len(t2) >= capacity:
                        replace()
            t1.append(key)
    return hits, misses, outcomes, (t1, t2, b1, b2, p)


def ref_preevict_run(steps, capacity, policy, adaptation="unit",
                     address_space=None, timer_init=None):
    """Step a base policy under the pre-eviction rules, one step at a time.

    steps: ("access", key) for a demand access, or ("insert", key) for a
    prefetch insertion (skipped while the key is resident). address_space turns
    the halfway rule on; timer_init turns the expiry timers on.

    Before each access every resident timer drops by one and those at zero or
    below are evicted in ascending key order. A demand miss at or above halfway
    then evicts every resident below halfway, in ascending key order. Each
    access and each insertion sets its key's timer to timer_init; inserts do not
    tick. Returns one record per step:
    (hit or None for an insert, evicted keys in order, prefetched hit,
    resident set, timer evictions so far, halfway evictions so far).
    """
    resident = []    # classical policies: resident keys
    stamp = {}       # key -> time of insertion (fifo, lifo) or last use (lru, mru)
    t1, t2, b1, b2 = [], [], [], []
    p = 0
    prefetched = set()
    timers = {}
    timer_evictions = halfway_evictions = 0
    clock = 0
    records = []

    def residents():
        return t1 + t2 if policy == "arc" else list(resident)

    def remove(key):
        if key in t1:
            t1.remove(key)
        elif key in t2:
            t2.remove(key)
        else:
            resident.remove(key)
        prefetched.discard(key)

    def replace():
        if len(t1) >= max(1, p):
            victim = t1.pop(0)
            b1.append(victim)
        else:
            victim = t2.pop(0)
            b2.append(victim)
        return victim

    def insert(key):
        nonlocal clock, p
        clock += 1
        victims = []
        if policy != "arc":
            if len(resident) == capacity:
                pick = min if policy in ("fifo", "lru") else max
                victims.append(pick(resident, key=lambda k: stamp[k]))
                resident.remove(victims[0])
            resident.append(key)
            stamp[key] = clock
        else:
            full = len(t1) + len(t2) >= capacity
            if key in b1 or key in b2:
                if key in b1:
                    delta = 1 if adaptation == "unit" else max(1, len(b2) // len(b1))
                    p = min(p + delta, capacity)
                else:
                    delta = 1 if adaptation == "unit" else max(1, len(b1) // len(b2))
                    p = max(p - delta, 0)
                if full:
                    victims.append(replace())
                (b1 if key in b1 else b2).remove(key)
                t2.append(key)
            else:
                if len(t1) + len(b1) == capacity:
                    if len(t1) < capacity:
                        b1.pop(0)
                        if full:
                            victims.append(replace())
                    else:
                        victims.append(t1.pop(0))
                else:
                    total = len(t1) + len(t2) + len(b1) + len(b2)
                    if total >= capacity:
                        if total >= 2 * capacity:
                            b2.pop(0)
                        if full:
                            victims.append(replace())
                t1.append(key)
        for victim in victims:
            prefetched.discard(victim)
        return victims

    def hit(key):
        nonlocal clock
        clock += 1
        was_prefetched = key in prefetched
        prefetched.discard(key)
        if key in t1 or key in t2:
            (t1 if key in t1 else t2).remove(key)
            t2.append(key)
        elif policy in ("lru", "mru"):
            stamp[key] = clock
        return was_prefetched

    for op, key in steps:
        if op == "insert":
            evicted = []
            if key not in residents():
                evicted = insert(key)
                prefetched.add(key)
                timers[key] = timer_init
            records.append((None, tuple(evicted), False, set(residents()),
                            timer_evictions, halfway_evictions))
            continue
        evicted = []
        if timer_init is not None:
            expired = []
            for k in residents():
                timers[k] -= 1
                if timers[k] <= 0:
                    expired.append(k)
            for k in sorted(expired):
                remove(k)
                evicted.append(k)
            timer_evictions += len(expired)
        is_hit = key in residents()
        if address_space is not None and not is_hit and key >= address_space // 2:
            low = sorted(k for k in residents() if k < address_space // 2)
            for k in low:
                remove(k)
                evicted.append(k)
            halfway_evictions += len(low)
        if is_hit:
            was_prefetched = hit(key)
        else:
            was_prefetched = False
            evicted += insert(key)
        timers[key] = timer_init
        records.append((is_hit, tuple(evicted), was_prefetched, set(residents()),
                        timer_evictions, halfway_evictions))
    return records


def ref_joint(variables, parents, cpts, assignment):
    """Joint probability from raw CPT tables.

    variables: {name: cardinality}; parents: {name: [parent names]};
    cpts: {name: rows}, rows indexed lexicographically by parent values.
    """
    prob = 1.0
    for name, card in variables.items():
        row = 0
        for parent in parents[name]:
            row = row * variables[parent] + assignment[parent]
        prob *= cpts[name][row][assignment[name]]
    return prob


def ref_posterior(variables, parents, cpts, query, evidence):
    """Exhaustive-sum posterior over the query variable given evidence."""
    names = list(variables)
    totals = [0.0] * variables[query]
    for combo in itertools.product(*(range(variables[n]) for n in names)):
        assignment = dict(zip(names, combo))
        if any(assignment[k] != v for k, v in evidence.items()):
            continue
        totals[assignment[query]] += ref_joint(variables, parents, cpts, assignment)
    denom = sum(totals)
    return [t / denom for t in totals]


def ref_learn_rows(variables, parents, data, pseudocount):
    """CPT rows by counting with dicts: (count(v, u) + a) / (count(u) + a * card),
    or the uniform row when that denominator is 0; rows in lexicographic order of
    the parent values u.

    variables: {name: cardinality}; parents: {name: [parent names]};
    data: complete assignments as dicts. Returns {name: rows}.
    """
    learned = {}
    for name, card in variables.items():
        joint = {}
        context = {}
        for row in data:
            u = tuple(row[p] for p in parents[name])
            joint[u, row[name]] = joint.get((u, row[name]), 0) + 1
            context[u] = context.get(u, 0) + 1
        rows = []
        for u in itertools.product(*(range(variables[p]) for p in parents[name])):
            denom = context.get(u, 0) + pseudocount * card
            if denom == 0:
                rows.append([1.0 / card] * card)
            else:
                rows.append([(joint.get((u, v), 0) + pseudocount) / denom
                             for v in range(card)])
        learned[name] = rows
    return learned


# the characters str.splitlines ends a line at; "\r\n" ends one line
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def ref_parse_plain(data):
    """Read a plain trace line by line: one key per line, decimal or hex after
    "0x"/"0X", each in 0..2**64-1; blank lines and lines starting with "#" skip.

    Lines are those of str.splitlines, stripped of whitespace. Bytes must be
    UTF-8; an undecodable byte is on the line after the last line break before
    it, counting breaks as str.splitlines does.
    Returns ("ok", keys), or ("bad", line number) for the first bad line.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = data[:exc.start].decode("utf-8")
            line_no = 1
            for i, ch in enumerate(prefix):
                if ch in LINE_BREAKS and not (ch == "\n" and prefix[i - 1:i] == "\r"):
                    line_no += 1
            return "bad", line_no
    keys = []
    line_no = 0
    for line in data.splitlines():
        line_no += 1
        token = line.strip()
        if token == "" or token[0] == "#":
            continue
        base = 16 if token[:2] in ("0x", "0X") else 10
        try:
            key = int(token, base)
        except ValueError:
            return "bad", line_no
        if key < 0 or key >= 2**64:
            return "bad", line_no
        keys.append(key)
    return "ok", keys
