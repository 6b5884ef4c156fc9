"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive (plain lists, linear scans) and shares no
code with the package under test.
"""

import itertools
import sys

import numpy as np


def resident(cache):
    """The keys a package cache holds, read from its own lists: t1 and t2 for arc,
    the ordered book `entries` for the classical policies."""
    if hasattr(cache, "t1"):
        return set(cache.t1) | set(cache.t2)
    return set(cache.entries)


def book(cache):
    """Everything replay must leave as stepped access would: the entries in order,
    or for arc the four lists and p."""
    if hasattr(cache, "t1"):
        return list(cache.t1), list(cache.t2), list(cache.b1), list(cache.b2), cache.p
    return list(cache.entries)


def predictor_state(pred):
    """Everything counting leaves in a predictor: each row's counts in first-seen order,
    read through its dict view, with its total and ranking head, and the context. Each
    row's width is its view's length."""
    rows = {}
    for ctx, row in pred.counts.items():
        successors = row.successors()
        assert row.width == len(successors)
        rows[ctx] = (list(successors.items()), row.total, row.leader, row.top)
    return rows, pred.context


def ref_policy_run(keys, capacity, policy):
    """Step a classical policy over a key sequence.

    Returns (hits, misses, outcome list of 'H'/'M', final resident set, victims,
    book): victims holds each access's evicted keys, () for a hit or a miss with
    room; book lists the residents in insertion order for fifo and lifo, and least
    recently used first for lru and mru.
    """
    resident = []
    inserted = {}
    last_used = {}
    outcomes = []
    victims = []
    hits = misses = 0
    for t, key in enumerate(keys):
        if key in resident:
            hits += 1
            outcomes.append("H")
            victims.append(())
            last_used[key] = t
            continue
        misses += 1
        outcomes.append("M")
        victims.append(())
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
            victims[-1] = (victim,)
        resident.append(key)
        inserted[key] = t
        last_used[key] = t
    stamp = inserted if policy in ("fifo", "lifo") else last_used
    book = sorted(resident, key=lambda k: stamp[k])
    return hits, misses, outcomes, set(resident), victims, book


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

    Returns (hits, misses, outcome list of 'H'/'M', (t1, t2, b1, b2, p), victims):
    victims holds each access's evicted keys, the replaced or dropped key or ().
    """
    t1, t2, b1, b2 = [], [], [], []
    p = 0
    hits = misses = 0
    outcomes = []
    victims = []

    def replace():
        if len(t1) >= max(1, p):
            victim = t1.pop(0)
            b1.append(victim)
        else:
            victim = t2.pop(0)
            b2.append(victim)
        victims[-1] = (victim,)

    for key in keys:
        victims.append(())
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
                    victims[-1] = (t1.pop(0),)
            else:
                total = len(t1) + len(t2) + len(b1) + len(b2)
                if total >= capacity:
                    if total >= 2 * capacity:
                        b2.pop(0)
                    if len(t1) + len(t2) >= capacity:
                        replace()
            t1.append(key)
    return hits, misses, outcomes, (t1, t2, b1, b2, p), victims


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
    (hit or None for an insert, evicted keys in order, resident set,
    timer evictions so far, halfway evictions so far).
    """
    stepper = ref_preevict_stepper(capacity, policy, adaptation, address_space, timer_init)
    next(stepper)
    return [stepper.send(step) for step in steps]


def ref_preevict_stepper(capacity, policy, adaptation="unit", address_space=None,
                         timer_init=None):
    """ref_preevict_run as a generator: send it each step, get back its record. A
    ("book", None) step changes nothing and gets back the book as `book` reads a
    package cache: for arc copies of t1, t2, b1 and b2 with p, otherwise the
    residents oldest first, by insertion for fifo and lifo, by last use for lru and mru.
    A ("deadlines", None) step changes nothing and gets back the timer book as a list
    of (key, deadline), one per resident, its deadline the accesses so far plus its
    timer, ordered by deadline and then by touch: an access before the inserts after
    it, and inserts in issue order. With the timers off it is empty."""
    resident = []    # classical policies: resident keys
    stamp = {}       # key -> time of insertion (fifo, lifo) or last use (lru, mru)
    t1, t2, b1, b2 = [], [], [], []
    p = 0
    timers = {}
    touched = {}     # key -> number of the last access or insertion that set its timer
    touches = itertools.count()
    ticks = 0        # accesses so far
    timer_evictions = halfway_evictions = 0
    clock = 0

    def residents():
        return t1 + t2 if policy == "arc" else list(resident)

    def remove(key):
        if key in t1:
            t1.remove(key)
        elif key in t2:
            t2.remove(key)
        else:
            resident.remove(key)

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
        return victims

    def hit(key):
        nonlocal clock
        clock += 1
        if key in t1 or key in t2:
            (t1 if key in t1 else t2).remove(key)
            t2.append(key)
        elif policy in ("lru", "mru"):
            stamp[key] = clock

    record = None
    while True:
        op, key = yield record
        evicted = []
        if op == "book":
            record = ((list(t1), list(t2), list(b1), list(b2), p) if policy == "arc"
                      else sorted(resident, key=stamp.get))
            continue
        if op == "deadlines":
            record = [] if timer_init is None else sorted(
                ((k, ticks + timers[k]) for k in residents()),
                key=lambda pair: (pair[1], touched[pair[0]]))
            continue
        if op == "insert":
            if key not in residents():
                evicted = insert(key)
                timers[key], touched[key] = timer_init, next(touches)
            record = (None, tuple(evicted), set(residents()),
                      timer_evictions, halfway_evictions)
            continue
        ticks += 1
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
            hit(key)
        else:
            evicted += insert(key)
        timers[key], touched[key] = timer_init, next(touches)
        record = (is_hit, tuple(evicted), set(residents()),
                  timer_evictions, halfway_evictions)


def ref_prefetch_ledger(steps):
    """Judge prefetches with one plain record list, resolved by linear scans.

    steps: ("issue", key, victim or None), or ("demand_hit" | "demand_miss" |
    "evicted", key, None). An issue of a key that has a pending prefetch is
    skipped, as the ledger is only asked to issue keys with none. A demand hit on
    a pending key makes it useful and its eviction useless; a demand miss on a
    victim makes every pending prefetch that evicted it harmful. Whatever is
    pending at the end is useless. Returns (the steps taken, (issued, useful,
    useless, harmful, demand misses)).
    """
    records = []  # [key, victim, outcome]
    pending = []  # the records whose outcome is still "pending"
    taken = []
    misses = 0
    for op, key, victim in steps:
        if op == "issue":
            if any(r[0] == key for r in pending):
                continue
            records.append([key, victim, "pending"])
            pending.append(records[-1])
        elif op == "demand_miss":
            misses += 1
            for r in pending:
                if r[1] == key:
                    r[2] = "harmful"
        else:
            for r in pending:
                if r[0] == key:
                    r[2] = "useful" if op == "demand_hit" else "useless"
        pending = [r for r in pending if r[2] == "pending"]
        taken.append((op, key, victim))
    outcomes = [r[2] if r[2] != "pending" else "useless" for r in records]
    return taken, (len(records), outcomes.count("useful"), outcomes.count("useless"),
                   outcomes.count("harmful"), misses)


def ref_predict(history, order, alpha, min_support, top_k):
    """The top_k (key, probability) pairs after the last `order` keys of history,
    recounted from the whole history: each earlier occurrence of that context
    counts its successor. Ranked by count, ties by ascending key; probabilities
    are (count + alpha) / (total + alpha * successors). Empty below min_support."""
    if len(history) < order:
        return []
    context = history[len(history) - order:]
    counts = {}
    end = order - 1
    while True:  # each earlier position where the context could end, left to right
        try:
            end = history.index(context[-1], end, len(history) - 1)
        except ValueError:
            break
        if history[end + 1 - order:end + 1] == context:
            counts[history[end + 1]] = counts.get(history[end + 1], 0) + 1
        end += 1
    total = sum(counts.values())
    if not counts or total < min_support:
        return []
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    denom = total + alpha * len(counts)
    return [(key, (count + alpha) / denom) for key, count in ranked[:top_k]]


def ref_run_sim(keys, config, hit_log=None, book_log=None):
    """The SimReport fields of one run, as a dict, from the naive parts above.

    config is read by attribute: cache (capacity, policy, arc_adaptation), pre
    (None, or its halfway and timer settings), prefetch (None, or top_k, p_min,
    trigger) and predictor (None for order 1, alpha 1.0, min_support 2). Per
    access: step the pre-eviction oracle; then, unless the trigger is on a miss
    and the access hit, predict from the history so far and insert, in rank
    order, each predicted key at or above p_min that was not resident after the
    access. The ledger oracle judges the prefetches from the hits, misses,
    evictions and issues in the order they happened. A compulsory miss is a
    miss on a key's first access. hit_log, a list, gets each access's hit or miss,
    and book_log, a list, the final book as `book` reads it (for arc the oracle's
    (t1, t2, b1, b2, p)) and then the final timer book as (key, deadline) pairs.
    """
    cache, pre, prefetch = config.cache, config.pre, config.prefetch
    halfway = pre is not None and pre.halfway_enabled
    timer = pre is not None and pre.timer_enabled
    stepper = ref_preevict_stepper(cache.capacity, cache.policy, cache.arc_adaptation,
                                   pre.address_space_size if halfway else None,
                                   pre.timer_init if timer else None)
    next(stepper)
    order, alpha, min_support = 1, 1.0, 2
    if config.predictor is not None:
        predictor = config.predictor
        order, alpha, min_support = predictor.order, predictor.alpha, predictor.min_support
    ledger = []
    hits = compulsory = evictions = timer_evictions = halfway_evictions = 0
    for t, key in enumerate(keys):
        hit, evicted, held, timer_evictions, halfway_evictions = stepper.send(("access", key))
        hits += hit
        if hit_log is not None:
            hit_log.append(hit)
        compulsory += not hit and keys.index(key) == t
        evictions += len(evicted)
        ledger.append(("demand_hit" if hit else "demand_miss", key, None))
        ledger += [("evicted", victim, None) for victim in evicted]
        if prefetch is None or (hit and prefetch.trigger == "on_miss"):
            continue
        ranked = ref_predict(keys[:t + 1], order, alpha, min_support, prefetch.top_k)
        for fetched in [k for k, prob in ranked if prob >= prefetch.p_min and k not in held]:
            _, victims, _, timer_evictions, halfway_evictions = stepper.send(("insert", fetched))
            evictions += len(victims)
            ledger.append(("issue", fetched, victims[0] if victims else None))
            ledger += [("evicted", victim, None) for victim in victims]
    if book_log is not None:
        book_log += [stepper.send(("book", None)), stepper.send(("deadlines", None))]
    issued, useful, useless, harmful, misses = ref_prefetch_ledger(ledger)[1]
    accesses = len(keys)
    return {
        "label": config.label,
        "accesses": accesses,
        "demand_hits": hits,
        "demand_misses": misses,
        "compulsory_misses": compulsory,
        "evictions": evictions,
        "timer_evictions": timer_evictions,
        "halfway_evictions": halfway_evictions,
        "prefetch_issued": issued,
        "prefetch_useful": useful,
        "prefetch_useless": useless,
        "prefetch_harmful": harmful,
        "prefetch_coverage": 100.0 * useful / (useful + misses) if useful + misses else 0.0,
        "hit_ratio": hits / accesses if accesses else 0.0,
        "distinct_keys": len(set(keys)),
    }


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


def ref_min_scope_order(parents, query, evidence):
    """Greedy elimination order over the variables outside query and evidence. Each
    step recomputes, from every CPT scope (child and parents, evidence removed, the
    scopes eliminated so far merged), each candidate's joined scope, and takes the
    smallest; ties go to the first name in sorted order.

    parents: {name: [parent names]}; evidence: {name: value}.
    """
    scopes = [{child, *ps} - set(evidence) for child, ps in parents.items()]
    hidden = sorted(n for n in parents if n != query and n not in evidence)
    order = []
    while hidden:
        best = None
        for var in hidden:
            joined = set()
            for scope in scopes:
                if var in scope:
                    joined |= scope
            if best is None or len(joined) < len(best[1]):
                best = (var, joined)
        var, joined = best
        scopes = [scope for scope in scopes if var not in scope] + [joined - {var}]
        hidden.remove(var)
        order.append(var)
    return order


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


def ref_learn_error(variables, data, pseudocount):
    """The error learn_cpts raises for these data rows, as (exception class name,
    message), or None when the rows are accepted.

    Checked in this order: no rows at pseudocount 0; then every row, first to last,
    must have exactly the variables as its keys; then, variable by variable and row by
    row within each, every value must be an int (bool included) or a numpy integer
    (np.bool_ is neither) in 0..cardinality-1. variables: {name: cardinality}.
    """
    if not data and pseudocount == 0:
        return "EmptyData", "no data and no pseudocount: rows are undefined"
    for i, row in enumerate(data):
        if sorted(row.keys()) != sorted(variables):
            return "IncompleteAssignment", f"data row {i} does not assign every variable"
    for name, card in variables.items():
        for i, row in enumerate(data):
            x = row[name]
            integral = isinstance(x, bool) or type(x) is int or isinstance(x, np.integer)
            if not (integral and 0 <= x <= card - 1):
                return "BayesError", (f"data row {i}: {name!r} has value {x!r}, "
                                      f"not an int in 0..{card - 1}")
    return None


# the characters str.splitlines ends a line at; "\r\n" ends one line
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def ref_echo(token):
    """A token as a diagnostic quotes it: its repr, or past 40 characters the repr of
    its first 16, "..." and its length."""
    return repr(token) if len(token) <= 40 else f"{token[:16]!r}... ({len(token)} chars)"


def ref_parse_plain(data):
    """Read a plain trace line by line: one key per line, decimal or hex after
    "0x"/"0X", each in 0..2**64-1; blank lines and lines starting with "#" skip.

    Lines are those of str.splitlines, stripped of whitespace. Bytes must be
    UTF-8; an undecodable byte is on the line after the last line break before
    it, counting breaks as str.splitlines does. A key is its value however many
    digits spell it, so int() reads with its digit limit lifted.
    Returns ("ok", keys), or ("bad", line number, message) for the first bad line
    in the file, a bad key or the first undecodable byte; on one line the byte wins.
    """
    byte_line = None
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = data[:exc.start].decode("utf-8")
            byte_line = 1
            for i, ch in enumerate(prefix):
                if ch in LINE_BREAKS and not (ch == "\n" and prefix[i - 1:i] == "\r"):
                    byte_line += 1
            byte_error = ("bad", byte_line, f"not UTF-8: byte 0x{data[exc.start]:02x}")
            data = prefix
    keys = []
    line_no = 0
    for line in data.splitlines():
        line_no += 1
        if line_no == byte_line:
            break
        token = line.strip()
        if token == "" or token[0] == "#":
            continue
        base = 16 if token[:2] in ("0x", "0X") else 10
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            key = int(token, base)
        except ValueError:
            return "bad", line_no, f"bad key {ref_echo(token)}: not a decimal or 0x-hex integer"
        finally:
            sys.set_int_max_str_digits(limit)
        if key < 0 or key >= 2**64:
            return "bad", line_no, f"bad key {ref_echo(token)}: key outside unsigned 64-bit range"
        keys.append(key)
    if byte_line is not None:
        return byte_error
    return "ok", keys
