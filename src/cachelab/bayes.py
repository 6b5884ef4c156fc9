"""Discrete Bayesian networks: joint probability, inference by enumeration and by
variable elimination, Markov blankets, and CPT learning by counting.

Variable values are integer indices 0..cardinality-1. Binary variables follow the
T-first convention used throughout this package: index 0 renders as "T", index 1
as "F".
"""

import contextlib
import graphlib
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .trace import as_float, read_decimal, shown

ROW_SUM_TOL = 1e-9
ENUM_BLOCK = 4096  # most hidden completions infer_enumeration holds at once
MAX_ENUM_COMPLETIONS = 2**24  # most completions infer_enumeration sums (0.7 s for 2**24)
MAX_FACTOR_CELLS = 2**22  # most cells of a product variable elimination builds (32 MiB)


class BayesError(ValueError):
    pass


class UnknownVariable(BayesError):
    pass


class IncompleteAssignment(BayesError):
    pass


class InvalidQuery(BayesError):
    pass


class InvalidOrder(BayesError):
    pass


class ZeroEvidence(BayesError):
    pass


class EmptyData(BayesError):
    pass


class InvalidNet(BayesError):
    pass


class TooLarge(BayesError):
    """An inference refused before it starts work that would not finish or fit."""


@dataclass(frozen=True)
class Variable:
    name: str
    cardinality: int

    def __post_init__(self):
        if not isinstance(self.name, str):  # not str(): null would name a variable "None"
            raise InvalidNet(f"name must be a string, got {self.name!r}")
        card = self.cardinality  # not int(): 2.7 would pass as 2, True as 1
        if isinstance(card, bool) or not isinstance(card, (int, np.integer)):
            raise InvalidNet(f"variable {self.name!r}: cardinality must be an int, got {card!r}")
        if card < 2:
            raise InvalidNet(f"variable {self.name!r}: cardinality must be >= 2")
        object.__setattr__(self, "cardinality", int(card))  # not a numpy scalar


@dataclass
class CPT:
    child: str
    parents: list
    rows: list  # one distribution over the child per parent assignment, lexicographic

    def __post_init__(self):
        if not isinstance(self.child, str):
            raise InvalidNet(f"child must be a string, got {self.child!r}")
        if not (isinstance(self.parents, list) and all(isinstance(p, str) for p in self.parents)):
            raise InvalidNet(f"cpt {self.child!r}: parents must be a list of strings, "
                             f"got {self.parents!r}")  # a string would be read as its letters
        bad = [x for row in self.rows for x in row if type(x) not in (float, int)
               and (isinstance(x, bool) or not isinstance(x, numbers.Real))]
        if bad:  # not float(): "0.2" would pass as 0.2, True as 1.0
            raise InvalidNet(f"cpt {self.child!r}: probabilities must be numbers, got {bad[0]!r}")
        self.parents = list(self.parents)  # the net's own, as rows are
        try:
            self.rows = [[float(x) for x in row] for row in self.rows]
        except OverflowError:  # an int past the float range is infinite, as JSON's 1e400
            self.rows = [[as_float(x) for x in row] for row in self.rows]

    def validate(self, cards):
        expected_rows = 1
        for p in self.parents:
            expected_rows *= cards[p]
        if len(self.rows) != expected_rows:
            raise InvalidNet(
                f"cpt {self.child!r}: expected {expected_rows} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if len(row) != cards[self.child]:
                raise InvalidNet(
                    f"cpt {self.child!r} row {i}: expected {cards[self.child]} values")
            if not all(0 <= v < math.inf for v in row):
                raise InvalidNet(f"cpt {self.child!r} row {i}: negative or non-finite probability")
            if abs(sum(row) - 1.0) > ROW_SUM_TOL:
                raise InvalidNet(f"cpt {self.child!r} row {i}: sums to {sum(row)!r}, not 1")


class Factor:
    """Nonnegative dense table over an ordered variable scope.

    values has one axis per scope variable, so the C-order flattening enumerates
    assignments lexicographically.
    """

    def __init__(self, scope, values):
        self.scope = list(scope)
        self.names = [v.name for v in self.scope]
        self.values = np.asarray(values, dtype=float)
        shape = tuple(v.cardinality for v in self.scope)
        if self.values.shape != shape:
            self.values = self.values.reshape(shape)

    def __mul__(self, other):
        scope = self.scope + [v for v in other.scope if v.name not in self.names]
        return Factor(scope, _aligned(self, scope) * _aligned(other, scope))

    def sum_out(self, name):
        axis = self.names.index(name)
        scope = [v for v in self.scope if v.name != name]
        return Factor(scope, self.values.sum(axis=axis))

    def restrict(self, name, value):
        if name not in self.names:
            return self
        axis = self.names.index(name)
        scope = [v for v in self.scope if v.name != name]
        return Factor(scope, np.take(self.values, value, axis=axis))


def _aligned(factor, scope):
    """View of factor.values broadcastable over the union scope's axes."""
    names = factor.names
    shape = tuple(v.cardinality if v.name in names else 1 for v in scope)
    order = [names.index(v.name) for v in scope if v.name in names]
    return factor.values.transpose(order).reshape(shape)


def _check_parents(cpt, names):
    for i, p in enumerate(cpt.parents):
        if p not in names:
            raise InvalidNet(f"cpt {cpt.child!r}: unknown parent {p!r}")
        if p in cpt.parents[:i]:
            raise InvalidNet(f"cpt {cpt.child!r}: parent {p!r} named twice")


class BayesNet:
    def __init__(self, variables, cpts):
        self.variables = {}
        for v in variables:
            if v.name in self.variables:
                raise InvalidNet(f"duplicate variable {v.name!r}")
            self.variables[v.name] = v
        cards = {name: v.cardinality for name, v in self.variables.items()}
        self.cpts = {}
        for cpt in cpts:
            if cpt.child not in self.variables:
                raise InvalidNet(f"cpt for unknown variable {cpt.child!r}")
            if cpt.child in self.cpts:
                raise InvalidNet(f"duplicate cpt for {cpt.child!r}")
            _check_parents(cpt, cards)
            cpt.validate(cards)
            self.cpts[cpt.child] = cpt
        missing = set(self.variables) - set(self.cpts)
        if missing:
            raise InvalidNet(f"variables without a cpt: {sorted(missing)}")
        try:  # a cpt that names its own child is a cycle too
            graphlib.TopologicalSorter(
                {child: cpt.parents for child, cpt in self.cpts.items()}).prepare()
        except graphlib.CycleError:
            raise InvalidNet("the parent graph has a cycle") from None

    def factor(self, name) -> Factor:
        """The CPT as a factor with scope parents + [child]."""
        cpt = self.cpts[name]
        scope = [self.variables[p] for p in cpt.parents] + [self.variables[name]]
        return Factor(scope, np.asarray(cpt.rows, dtype=float))

    def _require(self, name):
        if name not in self.variables:
            raise UnknownVariable(f"unknown variable {shown(name)}")

    def _check_values(self, assignment):
        for name, value in assignment.items():
            self._require(name)
            card = self.variables[name].cardinality
            if not isinstance(value, (int, np.integer)):  # numpy would index 0.5 as 0
                raise BayesError(f"{name!r}: value {value!r} is not an int")
            if not 0 <= value < card:
                raise BayesError(f"{name!r}: value {shown(value, str)} outside 0..{card - 1}")


def joint_probability(net: BayesNet, assignment: dict) -> float:
    """Product over variables of P(child = assigned | parents = assigned)."""
    net._check_values(assignment)
    missing = set(net.variables) - set(assignment)
    if missing:
        raise IncompleteAssignment(f"unassigned variables: {sorted(missing)}")
    prob = 1.0
    for name, cpt in net.cpts.items():
        row = 0
        for p in cpt.parents:
            row = row * net.variables[p].cardinality + assignment[p]
        prob *= cpt.rows[row][assignment[name]]
    return prob


def _check_query(net, query_var, evidence):
    net._require(query_var)
    net._check_values(evidence)
    if query_var in evidence:
        raise InvalidQuery(f"query variable {query_var!r} appears in the evidence")


def _restricted(net, names, evidence):
    """The CPT factors of the names, in their order, with the evidence values fixed."""
    factors = [net.factor(name) for name in names]
    for ev_name, ev_value in evidence.items():
        factors = [f.restrict(ev_name, ev_value) for f in factors]
    return factors


def _normalized(values):
    denom = values.sum()
    if denom <= 0.0:
        raise ZeroEvidence("evidence has probability zero")
    return values / denom


def infer_enumeration(net: BayesNet, query_var: str, evidence: dict) -> np.ndarray:
    """Sum the joint over all completions consistent with the evidence; normalize.
    Completions go in lexicographic order, ENUM_BLOCK or fewer at a time, each the
    product of the factors in cpt order, added one by one as a plain loop would."""
    _check_query(net, query_var, evidence)
    hidden = [v for n, v in net.variables.items() if n != query_var and n not in evidence]
    completions = net.variables[query_var].cardinality * math.prod(v.cardinality for v in hidden)
    if completions > MAX_ENUM_COMPLETIONS:
        raise TooLarge(f"enumeration over {len(hidden) + 1} variables would sum more than "
                       f"{MAX_ENUM_COMPLETIONS} completions; use --method ve")
    split = len(hidden)
    while split and math.prod(v.cardinality for v in hidden[split - 1:]) <= ENUM_BLOCK:
        split -= 1
    outer, block_scope = hidden[:split], [net.variables[query_var]] + hidden[split:]
    factors = []
    for f in _restricted(net, net.cpts, evidence):
        pos = [i for i, v in enumerate(outer) if v.name in f.names]
        factors.append((_aligned(f, [outer[i] for i in pos] + block_scope), pos))
    shape = tuple(v.cardinality for v in block_scope)
    totals = np.zeros(shape[0])
    for combo in itertools.product(*(range(v.cardinality) for v in outer)):
        block = np.ones(shape)
        for values, pos in factors:
            block *= values[tuple([combo[i] for i in pos])]
        block = block.reshape(shape[0], -1)
        block[:, 0] += totals  # carry the running total
        totals = np.add.accumulate(block, axis=1, out=block)[:, -1]  # in order, unlike np.sum
    return _normalized(totals)


def _product(factors):
    """The product of the factors, refused when its scope exceeds MAX_FACTOR_CELLS;
    every partial product's scope is part of that one."""
    cards = {v.name: v.cardinality for f in factors for v in f.scope}
    cells = math.prod(cards.values())
    if cells > MAX_FACTOR_CELLS:
        raise TooLarge(f"variable elimination would build a factor over {len(cards)} "
                       f"variables, more than {MAX_FACTOR_CELLS} cells")
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    return product


def eliminate_variable(factors, var: str):
    """Multiply every factor mentioning var, sum var out, pass the rest through."""
    touched = [f for f in factors if var in f.names]
    if not touched:
        raise UnknownVariable(f"{var!r} appears in no factor")
    rest = [f for f in factors if var not in f.names]
    rest.append(_product(touched).sum_out(var))
    return rest


def infer_variable_elimination(net: BayesNet, query_var: str, evidence: dict,
                               order=None) -> np.ndarray:
    """Evidence-restricted factors, eliminate, multiply, normalize. Matches
    infer_enumeration within 1e-9 for any valid elimination order."""
    _check_query(net, query_var, evidence)
    factors = _restricted(net, net.variables, evidence)
    eliminable = [n for n in net.variables if n != query_var and n not in evidence]
    if order is not None and sorted(order) != sorted(eliminable):
        raise InvalidOrder(
            f"order must cover exactly {sorted(eliminable)}, got {sorted(order)}")
    # greedy without an order: the variable whose factors join into the smallest
    # scope, ties by name; the factors name only the query and the variables still
    # to go, and a step changes the joined scopes of only the names it joined
    joined = {name: set() for name in eliminable} if order is None else {}
    stale = set(joined)
    for step in range(len(eliminable)):
        if order is None:
            for f in factors:
                for name in f.names:
                    if name in stale:
                        joined[name].update(f.names)
            var = min(sorted(joined), key=lambda name: len(joined[name]))
            stale = joined.pop(var) - {var, query_var}
            for name in stale:
                joined[name] = set()
        else:
            var = order[step]
        factors = eliminate_variable(factors, var)
    # what is left spans only the query, and the query's own cpt leaves a factor over it
    return _normalized(_product(factors).values.reshape(-1))


def markov_blanket(net: BayesNet, var: str) -> set:
    """Parents, children, and the children's other parents."""
    net._require(var)
    blanket = set(net.cpts[var].parents)
    for child, cpt in net.cpts.items():
        if var in cpt.parents:
            blanket.add(child)
            blanket.update(cpt.parents)
    blanket.discard(var)
    return blanket


def learn_cpts(variables, structure: dict, data, pseudocount: float = 0.0) -> BayesNet:
    """Count-based CPT estimation over complete assignments:
    P(v | u) = (count(v, u) + a) / (count(u) + a * cardinality(child)).
    Every data value must be an int in 0..cardinality-1."""
    if not 0 <= as_float(pseudocount) < math.inf:
        raise BayesError(f"pseudocount must be finite and >= 0, got {shown(pseudocount)}")
    pseudocount = as_float(pseudocount)  # a float32 would count, and sum its rows, in float32
    variables = list(variables)
    cards = {v.name: v.cardinality for v in variables}
    data = list(data)
    if not data and pseudocount == 0:
        raise EmptyData("no data and no pseudocount: rows are undefined")
    for child in structure:
        if child not in cards:
            raise BayesError(f"structure names unknown child {child!r}")
    cpts = [CPT(v.name, structure.get(v.name, []), []) for v in variables]  # rows come last
    for cpt in cpts:
        _check_parents(cpt, cards)
    columns = None  # every value in one C-level pull; any doubt leaves it to the loops below
    with contextlib.suppress(KeyError, TypeError, OverflowError):  # no name, no names, 2**70
        # plain dicts only: a defaultdict would fill a missing name when read
        if set(map(type, data)) <= {dict} and set(map(len, data)) <= {len(cards)}:
            pull = map(operator.itemgetter(*cards), data)  # one name: bare values
            flat = list(pull if len(cards) == 1 else itertools.chain.from_iterable(pull))
            if set(map(type, flat)) <= {int}:
                table = np.fromiter(flat, np.intp, len(flat)).reshape(len(data), len(cards))
                if ((table >= 0) & (table < list(cards.values()))).all():
                    columns = dict(zip(cards, table.T))
    if columns is None:  # names the first bad row, or takes bools and numpy integers
        for i, row in enumerate(data):
            if set(row) != set(cards):
                raise IncompleteAssignment(f"data row {i} does not assign every variable")
        columns = {}
        for name, card in cards.items():
            values = [row[name] for row in data]
            for i, x in enumerate(values):  # before the cast: np.intp turns 0.5 into 0
                if not (isinstance(x, (int, np.integer)) and 0 <= x < card):
                    raise BayesError(f"data row {i}: {name!r} has value {shown(x)}, "
                                     f"not an int in 0..{card - 1}")
            columns[name] = np.fromiter(values, np.intp, len(values))
    for cpt in cpts:
        card, n_rows, cell = cards[cpt.child], 1, np.zeros(len(data), np.intp)
        for p in cpt.parents:
            cell = cell * cards[p] + columns[p]
            n_rows *= cards[p]
        counts = np.bincount(cell * card + columns[cpt.child], minlength=n_rows * card)
        counts = counts.reshape(n_rows, card)
        for row_counts, n in zip(counts.tolist(), counts.sum(axis=1).tolist()):
            denom = n + pseudocount * card
            cpt.rows.append([(c + pseudocount) / denom for c in row_counts] if denom != 0
                            else [1.0 / card] * card)
    return BayesNet(variables, cpts)


def parse_net(text: str) -> BayesNet:
    """JSON net: {"variables": [{"name", "cardinality"}],
    "cpts": [{"child", "parents", "rows"}]} with rows in lexicographic parent order."""
    try:
        doc = json.loads(text, parse_int=_json_int)  # _json_int names an over-long int
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidNet(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidNet("top level must be an object")
    for key in ("variables", "cpts"):
        entries = doc.get(key, [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise InvalidNet(f"{key!r} must be a list of objects")
    variables = []
    for i, entry in enumerate(doc.get("variables", [])):
        try:
            variables.append(Variable(entry["name"], entry["cardinality"]))
        except (KeyError, InvalidNet) as exc:
            raise InvalidNet(f"variables[{i}]: {exc}") from None
    cpts = []
    for i, entry in enumerate(doc.get("cpts", [])):
        try:  # a row that is not a list fails to iterate
            cpts.append(CPT(entry["child"], entry["parents"], entry["rows"]))
        except (KeyError, TypeError, InvalidNet) as exc:
            raise InvalidNet(f"cpts[{i}]: {exc}") from None
    return BayesNet(variables, cpts)


def _json_int(token: str) -> int:
    try:
        return read_decimal(token)
    except OverflowError as exc:
        raise InvalidNet(f"number {shown(token, str)}: {exc}") from None


def load_net(path) -> BayesNet:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_net(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InvalidNet(f"not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}") from None


def value_label(variable: Variable, value: int) -> str:
    if variable.cardinality == 2:
        return "T" if value == 0 else "F"
    return str(value)


def parse_value(variable: Variable, token: str) -> int:
    if variable.cardinality == 2:
        if token == "T":
            return 0
        if token == "F":
            return 1
    try:  # the range is inference's to check
        return read_decimal(token)
    except ValueError:
        raise BayesError(f"{variable.name!r}: bad value {shown(token)}") from None
    except OverflowError as exc:
        raise BayesError(f"{variable.name!r}: bad value {shown(token)}: {exc}") from None
