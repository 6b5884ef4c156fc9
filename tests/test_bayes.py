import collections
import itertools
import json
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cachelab import bayes
from cachelab.bayes import (
    CPT,
    BayesError,
    BayesNet,
    EmptyData,
    Factor,
    IncompleteAssignment,
    InvalidNet,
    InvalidOrder,
    InvalidQuery,
    TooLarge,
    UnknownVariable,
    Variable,
    ZeroEvidence,
    eliminate_variable,
    infer_enumeration,
    infer_variable_elimination,
    joint_probability,
    learn_cpts,
    load_net,
    markov_blanket,
    parse_net,
    parse_value,
    value_label,
)

from reference import ref_learn_error, ref_learn_rows, ref_min_scope_order, ref_posterior

TOL = 1e-9

# Figure-style sprinkler fixture; binary values use T=0, F=1.
SPRINKLER_VARS = [Variable("Rain", 2), Variable("Sprinkler", 2), Variable("WetGrass", 2)]
SPRINKLER_CPTS = [
    CPT("Rain", [], [[0.2, 0.8]]),
    CPT("Sprinkler", ["Rain"], [[0.01, 0.99], [0.4, 0.6]]),
    CPT("WetGrass", ["Sprinkler", "Rain"],
        [[0.99, 0.01], [0.9, 0.1], [0.8, 0.2], [0.0, 1.0]]),
]

# frozen from the exhaustive-sum oracle in reference.py
RAIN_GIVEN_WET = 0.35768767563227616


def sprinkler():
    return BayesNet(SPRINKLER_VARS, [CPT(c.child, list(c.parents), [list(r) for r in c.rows])
                                     for c in SPRINKLER_CPTS])


def chain_net():
    # W -> X -> Y -> Z with fixed non-degenerate tables
    return BayesNet(
        [Variable("W", 2), Variable("X", 2), Variable("Y", 2), Variable("Z", 2)],
        [
            CPT("W", [], [[0.6, 0.4]]),
            CPT("X", ["W"], [[0.7, 0.3], [0.2, 0.8]]),
            CPT("Y", ["X"], [[0.9, 0.1], [0.35, 0.65]]),
            CPT("Z", ["Y"], [[0.5, 0.5], [0.1, 0.9]]),
        ],
    )


def diamondish_net(seed=0):
    # A -> C, B -> D, C -> E, D -> E with seeded random tables
    rng = random.Random(seed)

    def dist(n):
        raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
        total = sum(raw)
        row = [x / total for x in raw]
        row[-1] = 1.0 - sum(row[:-1])
        return row

    return BayesNet(
        [Variable(n, 2) for n in "ABCDE"],
        [
            CPT("A", [], [dist(2)]),
            CPT("B", [], [dist(2)]),
            CPT("C", ["A"], [dist(2) for _ in range(2)]),
            CPT("D", ["B"], [dist(2) for _ in range(2)]),
            CPT("E", ["C", "D"], [dist(2) for _ in range(4)]),
        ],
    )


def random_net(rng, n_vars):
    names = [f"V{i}" for i in range(n_vars)]
    parents = {}
    for i, name in enumerate(names):
        pool = names[:i]
        parents[name] = rng.sample(pool, rng.randrange(0, min(len(pool), 3) + 1))

    def dist():
        a = rng.uniform(0.01, 1.0)
        b = rng.uniform(0.01, 1.0)
        return [a / (a + b), b / (a + b)]

    cpts = [CPT(name, parents[name], [dist() for _ in range(2 ** len(parents[name]))])
            for name in names]
    return BayesNet([Variable(n, 2) for n in names], cpts)


@st.composite
def structures(draw, max_vars):
    """Variable cardinalities 2-4 and up to three earlier parents per variable."""
    names = [f"V{i}" for i in range(draw(st.integers(1, max_vars)))]
    cards = {name: draw(st.integers(2, 4)) for name in names}
    parents = {name: draw(st.lists(st.sampled_from(names[:i]), max_size=3, unique=True))
               if i else [] for i, name in enumerate(names)}
    return cards, parents


@st.composite
def queries(draw):
    """A net with CPTs in variable order (small integer weights, zeros included),
    a query variable and random evidence."""
    cards, parents = draw(structures(5))
    rows = {}
    for name, card in cards.items():
        rows[name] = []
        for _ in range(math.prod(cards[p] for p in parents[name])):
            weights = draw(st.lists(st.integers(0, 9), min_size=card, max_size=card)
                           .filter(any))
            rows[name].append([w / sum(weights) for w in weights])
    names = list(cards)
    query = draw(st.sampled_from(names))
    others = [n for n in names if n != query]
    observed = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    evidence = {n: draw(st.integers(0, cards[n] - 1)) for n in observed}
    return cards, parents, rows, query, evidence


@st.composite
def learning_cases(draw):
    cards, parents = draw(structures(4))
    data = draw(st.lists(st.fixed_dictionaries(
        {name: st.integers(0, card - 1) for name, card in cards.items()}), max_size=40))
    pseudocount = draw(st.sampled_from([0, 1, 0.5, 2.25]))
    return cards, parents, data, pseudocount


@st.composite
def raw_learning_cases(draw):
    """Rows as a caller might pass them: valid values as ints, True or np.int64, in
    about half the cases mixed with values learn_cpts rejects, and at most one row
    that misses a name, carries an extra one, or swaps one for a wrong one."""
    cards, parents = draw(structures(4))
    clean = draw(st.booleans())

    def value(card):
        good = st.integers(0, card - 1)
        good = st.one_of(good, st.just(True), good.map(np.int64))
        bad = st.sampled_from([np.bool_(True), np.bool_(False), -1, card, 0.5, 1.0, "1",
                               2 ** 70, None])
        return good if clean else st.integers(0, 5).flatmap(lambda r: bad if r == 0 else good)

    data = draw(st.lists(st.fixed_dictionaries(
        {name: value(card) for name, card in cards.items()}), max_size=12))
    damage = draw(st.sampled_from(["none"] * 3 + ["missing", "extra", "wrong"]))
    if data and damage != "none":
        row = data[draw(st.integers(0, len(data) - 1))]
        if damage != "extra":
            del row[draw(st.sampled_from(sorted(row)))]
        if damage != "missing":
            row["Z"] = 0
    pseudocount = draw(st.sampled_from([0, 1, 0.5]))
    return cards, parents, data, pseudocount


# --- construction and validation ---


def test_variable_cardinality_bound():
    with pytest.raises(InvalidNet):
        Variable("X", 1)


@pytest.mark.parametrize("card", [2.5, 3.0, "2", None, np.float64(2.0), np.bool_(True)],
                         ids=["fraction", "integral-float", "str", "none", "np-float",
                              "np-bool"])
def test_variable_rejects_non_integer_cardinality(card):
    # a float reached numpy and a str reached `<`, each as a bare TypeError
    with pytest.raises(InvalidNet) as err:
        Variable("A", card)
    assert str(err.value) == f"variable 'A': cardinality must be an int, got {card!r}"


def test_variable_accepts_numpy_integer_cardinality():
    # stored as an int, so the rows are Python floats as with a plain int
    variable = Variable("A", np.int64(3))
    assert type(variable.cardinality) is int and variable.cardinality == 3
    net = learn_cpts([variable], {"A": []}, [{"A": 2}], pseudocount=1)
    assert net.cpts["A"].rows == [[0.25, 0.25, 0.5]]
    assert all(type(cell) is float for row in net.cpts["A"].rows for cell in row)


def test_net_rejects_bad_row_sum():
    with pytest.raises(InvalidNet):
        BayesNet([Variable("A", 2)], [CPT("A", [], [[0.5, 0.4]])])


def test_net_rejects_negative_probability():
    with pytest.raises(InvalidNet):
        BayesNet([Variable("A", 2)], [CPT("A", [], [[1.2, -0.2]])])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_net_rejects_non_finite_probability(bad):
    with pytest.raises(InvalidNet, match="non-finite"):
        BayesNet([Variable("A", 2)], [CPT("A", [], [[bad, 1.0]])])
    with pytest.raises(InvalidNet, match="non-finite"):
        parse_net(json.dumps({"variables": [{"name": "A", "cardinality": 2}],
                              "cpts": [{"child": "A", "parents": [], "rows": [[bad, 1.0]]}]}))


def test_net_rejects_wrong_row_count():
    with pytest.raises(InvalidNet):
        BayesNet([Variable("A", 2), Variable("B", 2)],
                 [CPT("A", [], [[0.5, 0.5]]), CPT("B", ["A"], [[0.5, 0.5]])])


def test_net_rejects_unknown_parent():
    with pytest.raises(InvalidNet):
        BayesNet([Variable("A", 2)], [CPT("A", ["Ghost"], [[0.5, 0.5], [0.5, 0.5]])])


def test_net_rejects_cycle():
    for parents in ({"A": ["B"], "B": ["A"]},
                    {"A": ["C"], "B": ["A"], "C": ["B"]},
                    {"A": [], "B": ["A", "B"]}):  # a cpt that names its own child
        with pytest.raises(InvalidNet, match="^the parent graph has a cycle$"):
            BayesNet([Variable(name, 2) for name in parents],
                     [CPT(child, named, [[0.5, 0.5]] * 2 ** len(named))
                      for child, named in parents.items()])


def test_net_rejects_missing_cpt_and_duplicates():
    with pytest.raises(InvalidNet, match=r"^variables without a cpt: \['B'\]$"):
        BayesNet([Variable("A", 2), Variable("B", 2)], [CPT("A", [], [[0.5, 0.5]])])
    # of many missing, the first in sorted order and the count: not a line of every name
    with pytest.raises(InvalidNet) as err:
        BayesNet([Variable(f"V{i}", 2) for i in range(2000, 0, -1)], [])
    assert str(err.value) == "variables without a cpt: ['V1', ...] (2000 missing)"
    with pytest.raises(InvalidNet):
        BayesNet([Variable("A", 2), Variable("A", 2)],
                 [CPT("A", [], [[0.5, 0.5]])])


# --- joint probability ---


def test_joint_sprinkler_known_values():
    net = sprinkler()
    # T=0, F=1
    assert joint_probability(net, {"Rain": 0, "Sprinkler": 0, "WetGrass": 0}) == pytest.approx(
        0.2 * 0.01 * 0.99, abs=1e-15)
    assert joint_probability(net, {"Rain": 1, "Sprinkler": 1, "WetGrass": 0}) == 0.0


def test_joint_sums_to_one():
    net = sprinkler()
    total = sum(
        joint_probability(net, dict(zip(("Rain", "Sprinkler", "WetGrass"), combo)))
        for combo in itertools.product(range(2), repeat=3)
    )
    assert total == pytest.approx(1.0, abs=TOL)


def test_joint_errors():
    net = sprinkler()
    with pytest.raises(IncompleteAssignment):
        joint_probability(net, {"Rain": 0})
    with pytest.raises(UnknownVariable):
        joint_probability(net, {"Rain": 0, "Sprinkler": 0, "WetGrass": 0, "Snow": 1})
    # a fractional value is no list index; it fails as it does in a query
    with pytest.raises(BayesError, match="'Rain': value 0.5 is not an int"):
        joint_probability(net, {"Rain": 0.5, "Sprinkler": 0, "WetGrass": 0})
    with pytest.raises(BayesError, match=r"^'Rain': value 5 outside 0\.\.1$"):
        joint_probability(net, {"Rain": 5, "Sprinkler": 0, "WetGrass": 0})


# --- enumeration ---


def test_enumeration_prior_rain():
    dist = infer_enumeration(sprinkler(), "Rain", {})
    assert dist[0] == pytest.approx(0.2, abs=TOL)
    assert dist[1] == pytest.approx(0.8, abs=TOL)


def test_enumeration_rain_given_wet_matches_oracle():
    dist = infer_enumeration(sprinkler(), "Rain", {"WetGrass": 0})
    assert dist[0] == pytest.approx(RAIN_GIVEN_WET, abs=TOL)
    # recompute with the independent exhaustive-sum oracle
    oracle = ref_posterior(
        {"Rain": 2, "Sprinkler": 2, "WetGrass": 2},
        {"Rain": [], "Sprinkler": ["Rain"], "WetGrass": ["Sprinkler", "Rain"]},
        {c.child: c.rows for c in SPRINKLER_CPTS},
        "Rain", {"WetGrass": 0},
    )
    assert dist[0] == pytest.approx(oracle[0], abs=TOL)


def test_enumeration_single_variable_identity():
    net = BayesNet([Variable("A", 2)], [CPT("A", [], [[0.3, 0.7]])])
    dist = infer_enumeration(net, "A", {})
    assert np.allclose(dist, [0.3, 0.7], atol=TOL)


def test_enumeration_zero_evidence():
    net = BayesNet(
        [Variable("A", 2), Variable("B", 2)],
        [CPT("A", [], [[1.0, 0.0]]), CPT("B", ["A"], [[0.5, 0.5], [0.5, 0.5]])],
    )
    with pytest.raises(ZeroEvidence):
        infer_enumeration(net, "B", {"A": 1})


@pytest.mark.parametrize("infer", [infer_enumeration, infer_variable_elimination])
def test_fractional_evidence_rejected(infer):
    # numpy indexing would truncate 0.5 to 0 and answer for WetGrass=T
    with pytest.raises(BayesError, match="'WetGrass': value 0.5 is not an int"):
        infer(sprinkler(), "Rain", {"WetGrass": 0.5})
    with pytest.raises(BayesError, match=r"^'WetGrass': value 2 outside 0\.\.1$"):
        infer(sprinkler(), "Rain", {"WetGrass": 2})


def test_query_in_evidence_rejected():
    with pytest.raises(InvalidQuery):
        infer_enumeration(sprinkler(), "Rain", {"Rain": 0})


@pytest.mark.parametrize("block", [None, 1, 2, 5])
@settings(max_examples=100, deadline=None, database=None)
@given(case=queries())
def test_enumeration_equals_oracle_bit_for_bit(block, case):
    # blocks of 1, 2 and 5 completions carry the running total across many blocks
    cards, parents, rows, query, evidence = case
    net = BayesNet([Variable(n, c) for n, c in cards.items()],
                   [CPT(n, parents[n], rows[n]) for n in cards])
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(bayes, "ENUM_BLOCK", block)
        try:
            got = infer_enumeration(net, query, evidence).tolist()
        except ZeroEvidence:
            with pytest.raises(ZeroDivisionError):
                ref_posterior(cards, parents, rows, query, evidence)
            return
    assert got == ref_posterior(cards, parents, rows, query, evidence)


def test_enumeration_memory_is_bounded_by_the_block():
    # 20 binary variables and no evidence: 2^20 joint entries (8 MiB as floats),
    # summed ENUM_BLOCK completions at a time
    net = random_net(random.Random(20), 20)
    tracemalloc.start()
    try:
        dist = infer_enumeration(net, "V0", {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert np.allclose(dist, infer_variable_elimination(net, "V0", {}), atol=TOL)


# --- factors and elimination ---


def test_eliminate_variable_keeps_joint_scope():
    net = BayesNet(
        [Variable("C", 2), Variable("R", 2), Variable("W", 2)],
        [
            CPT("C", [], [[0.5, 0.5]]),
            CPT("R", [], [[0.2, 0.8]]),
            CPT("W", ["C", "R"], [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.1, 0.9]]),
        ],
    )
    factors = [net.factor("C"), net.factor("W")]
    out = eliminate_variable(factors, "C")
    assert len(out) == 1
    # the defining sum keeps both remaining variables in scope
    assert sorted(out[0].names) == ["R", "W"]


def test_eliminate_lone_variable_gives_scalar():
    f = Factor([Variable("A", 2)], np.array([0.25, 0.5]))
    out = eliminate_variable([f], "A")
    assert out[0].scope == []
    assert out[0].values == pytest.approx(0.75)


def test_eliminate_unknown_variable():
    f = Factor([Variable("A", 2)], np.array([0.5, 0.5]))
    with pytest.raises(UnknownVariable):
        eliminate_variable([f], "B")


def test_chain_elimination_reproduces_marginal():
    net = chain_net()
    factors = [net.factor(n) for n in "WXYZ"]
    for var in ("W", "X", "Z"):
        factors = eliminate_variable(factors, var)
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    marg = product.values.reshape(-1)
    assert np.allclose(marg / marg.sum(), infer_enumeration(net, "Y", {}), atol=TOL)


# --- variable elimination ---


def test_ve_matches_enumeration_on_sprinkler():
    dist = infer_variable_elimination(sprinkler(), "Rain", {"WetGrass": 0})
    assert dist[0] == pytest.approx(RAIN_GIVEN_WET, abs=TOL)


def test_ve_chain_marginal():
    net = chain_net()
    assert np.allclose(
        infer_variable_elimination(net, "Y", {}),
        infer_enumeration(net, "Y", {}),
        atol=TOL,
    )


def test_ve_all_evidence_pointwise_product():
    net = chain_net()
    dist = infer_variable_elimination(net, "Y", {"W": 0, "X": 1, "Z": 0})
    assert dist.sum() == pytest.approx(1.0, abs=TOL)
    assert np.allclose(dist, infer_enumeration(net, "Y", {"W": 0, "X": 1, "Z": 0}), atol=TOL)


def test_ve_explicit_orders_all_agree():
    net = chain_net()
    expected = infer_enumeration(net, "Y", {"Z": 1})
    for order in itertools.permutations(["W", "X"]):
        dist = infer_variable_elimination(net, "Y", {"Z": 1}, order=list(order))
        assert np.allclose(dist, expected, atol=TOL)


def test_ve_invalid_order():
    net = chain_net()
    with pytest.raises(InvalidOrder):
        infer_variable_elimination(net, "Y", {}, order=["W", "X"])  # missing Z
    with pytest.raises(InvalidOrder):
        infer_variable_elimination(net, "Y", {}, order=["W", "X", "Z", "Y"])


def test_listed_names_are_echoed_short():
    # a short list prints whole; a 2,000-name list as its repr's first 16 characters
    with pytest.raises(IncompleteAssignment,
                       match=r"^unassigned variables: \['Sprinkler', 'WetGrass'\]$"):
        joint_probability(sprinkler(), {"Rain": 0})
    with pytest.raises(InvalidOrder, match=r"^order must cover exactly \['W', 'X', 'Z'\], "
                                           r"got \['W', 'X'\]$"):
        infer_variable_elimination(chain_net(), "Y", {}, order=["W", "X"])
    names = [f"V{i:04}" for i in range(2000)]
    net = BayesNet([Variable(n, 2) for n in names], [CPT(n, [], [[0.5, 0.5]]) for n in names])
    refusals = []
    for call, error in [(lambda: joint_probability(net, {}), IncompleteAssignment),
                        (lambda: infer_variable_elimination(net, "V0000", {}, order=names),
                         InvalidOrder)]:
        with pytest.raises(error) as refused:
            call()
        refusals.append(str(refused.value))
    assert refusals == [
        "unassigned variables: ['V0000', 'V0001... (18000 chars)",
        "order must cover exactly ['V0001', 'V0002... (17991 chars), "
        "got ['V0000', 'V0001... (18000 chars)"]


def test_ve_zero_evidence():
    net = BayesNet(
        [Variable("A", 2), Variable("B", 2)],
        [CPT("A", [], [[1.0, 0.0]]), CPT("B", ["A"], [[0.5, 0.5], [0.5, 0.5]])],
    )
    with pytest.raises(ZeroEvidence):
        infer_variable_elimination(net, "B", {"A": 1})


def test_random_nets_enumeration_equals_ve():
    rng = random.Random(2024)
    for _ in range(40):
        net = random_net(rng, rng.randrange(3, 7))
        names = list(net.variables)
        query = rng.choice(names)
        others = [n for n in names if n != query]
        evidence = {n: rng.randrange(2) for n in rng.sample(others, rng.randrange(len(others) + 1))}
        try:
            expected = infer_enumeration(net, query, evidence)
        except ZeroEvidence:
            continue
        eliminable = [n for n in others if n not in evidence]
        assert np.allclose(
            infer_variable_elimination(net, query, evidence), expected, atol=TOL)
        for _ in range(5):
            order = eliminable[:]
            rng.shuffle(order)
            assert np.allclose(
                infer_variable_elimination(net, query, evidence, order=order),
                expected, atol=TOL)


# --- size bounds ---


def roots_net(n):
    """n independent binary roots: 2**n completions, and no factor larger than 2."""
    names = [f"R{i}" for i in range(n)]
    return BayesNet([Variable(r, 2) for r in names], [CPT(r, [], [[0.5, 0.5]]) for r in names])


def dense_net(n):
    """n binary roots and one child per pair of them: once the children are summed
    out, eliminating any root joins all n roots, a factor of 2**n cells."""
    roots = [f"R{i}" for i in range(n)]
    pairs = list(itertools.combinations(roots, 2))
    return BayesNet(
        [Variable(r, 2) for r in roots] + [Variable(f"C{a}{b}", 2) for a, b in pairs],
        [CPT(r, [], [[0.5, 0.5]]) for r in roots]
        + [CPT(f"C{a}{b}", [a, b], [[0.3, 0.7]] * 4) for a, b in pairs])


def refused_in(seconds, infer, *args):
    # through `cachelab bayes`, the dense net is refused in 0.12-0.20 s and the 40-root
    # net in 0.003 s (2 vCPU, Python 3.11.7), so a second leaves a margin of 5x or more
    start = time.perf_counter()
    with pytest.raises(TooLarge) as err:
        infer(*args)
    assert time.perf_counter() - start < seconds
    return str(err.value)


def test_enumeration_refuses_above_the_completion_bound(monkeypatch):
    # 40 roots: 2**40 completions, which VE answers at once
    with monkeypatch.context() as mp:  # refused before a single factor is built
        mp.setattr(BayesNet, "factor", lambda *a: pytest.fail("built a factor"))
        message = refused_in(1.0, infer_enumeration, roots_net(40), "R0", {})
    assert message == (f"enumeration over 40 variables would sum more than "
                       f"{bayes.MAX_ENUM_COMPLETIONS} completions; use --method ve")
    assert infer_variable_elimination(roots_net(40), "R0", {}).tolist() == [0.5, 0.5]


def test_enumeration_bound_counts_query_and_hidden_but_not_evidence(monkeypatch):
    monkeypatch.setattr(bayes, "MAX_ENUM_COMPLETIONS", 8)
    net = roots_net(4)
    assert infer_enumeration(net, "R0", {"R3": 1}).tolist() == [0.5, 0.5]  # 2**3
    refused_in(1.0, infer_enumeration, net, "R0", {})  # 2**4


def test_elimination_refuses_a_factor_above_the_cell_bound(monkeypatch):
    # 34 roots and 561 children; evidence on one child, as an observed pair would be.
    # Each child is summed out of its own factor alone, so the refused product, the
    # first root's, comes before any product is built
    net = dense_net(34)
    monkeypatch.setattr(Factor, "__mul__", lambda *a: pytest.fail("built a product"))
    message = refused_in(1.0, infer_variable_elimination, net, "R0", {"CR0R1": 1})
    assert message == ("variable elimination would build a factor over 34 variables, "
                       f"more than {bayes.MAX_FACTOR_CELLS} cells")


def test_elimination_bound_admits_a_factor_at_the_bound(monkeypatch):
    # with R1 first, each root's product joins three roots and two children: 2**5 cells
    net = dense_net(3)
    order = ["R1", "R2", "CR0R1", "CR0R2", "CR1R2"]
    monkeypatch.setattr(bayes, "MAX_FACTOR_CELLS", 2**5)
    assert np.allclose(infer_variable_elimination(net, "R0", {}, order), [0.5, 0.5], atol=TOL)
    monkeypatch.setattr(bayes, "MAX_FACTOR_CELLS", 2**5 - 1)
    refused_in(1.0, infer_variable_elimination, net, "R0", {}, order)


@pytest.mark.parametrize("bound", [2, 4, 8, 16, 64])
@settings(max_examples=60, deadline=None, database=None)
@given(case=queries())
def test_ve_refuses_exactly_the_nets_whose_greedy_product_exceeds_the_bound(bound, case):
    # the oracle's greedy order gives each product's scope; under the bound, VE still
    # equals the naive posterior
    cards, parents, rows, query, evidence = case
    net = BayesNet([Variable(n, c) for n, c in cards.items()],
                   [CPT(n, parents[n], rows[n]) for n in cards])
    scopes = [{child, *ps} - set(evidence) for child, ps in parents.items()]
    largest = cards[query]  # the final product's scope is the query alone
    for var in ref_min_scope_order(parents, query, evidence):
        joined = set().union(*(scope for scope in scopes if var in scope))
        largest = max(largest, math.prod(cards[n] for n in joined))
        scopes = [scope for scope in scopes if var not in scope] + [joined - {var}]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bayes, "MAX_FACTOR_CELLS", bound)
        if largest > bound:
            with pytest.raises(TooLarge):
                infer_variable_elimination(net, query, evidence)
            return
        try:
            got = infer_variable_elimination(net, query, evidence)
        except ZeroEvidence:
            with pytest.raises(ZeroDivisionError):
                ref_posterior(cards, parents, rows, query, evidence)
            return
    assert np.allclose(got, ref_posterior(cards, parents, rows, query, evidence), atol=TOL)


def test_ve_default_order_is_min_scope(monkeypatch):
    """The default order is the greedy smallest-joined-scope order, ties by name."""
    eliminated = []

    def recording(factors, var):
        eliminated.append(var)
        return eliminate_variable(factors, var)

    rng = random.Random(77)
    checked = 0
    for _ in range(80):
        net = random_net(rng, rng.randrange(2, 10))
        names = list(net.variables)
        query = rng.choice(names)
        others = [n for n in names if n != query]
        evidence = {n: rng.randrange(2) for n in rng.sample(others, rng.randrange(len(others)))}
        order = ref_min_scope_order({n: cpt.parents for n, cpt in net.cpts.items()},
                                    query, evidence)
        eliminated.clear()
        with monkeypatch.context() as m:
            m.setattr(bayes, "eliminate_variable", recording)
            default = infer_variable_elimination(net, query, evidence)
        assert eliminated == order
        assert np.array_equal(default,
                              infer_variable_elimination(net, query, evidence, order=order))
        checked += len(order) > 1
    assert checked > 40


# --- markov blanket ---


def test_blanket_diamondish():
    net = diamondish_net()
    assert markov_blanket(net, "C") == {"A", "E", "D"}


def test_blanket_isolated_and_chain():
    net = BayesNet(
        [Variable("A", 2), Variable("B", 2)],
        [CPT("A", [], [[0.5, 0.5]]), CPT("B", [], [[0.5, 0.5]])],
    )
    assert markov_blanket(net, "A") == set()
    chain = chain_net()
    assert markov_blanket(chain, "X") == {"W", "Y"}
    with pytest.raises(UnknownVariable):
        markov_blanket(chain, "Q")


def test_conditional_independence_of_nondescendants():
    # P(E | C, D, A) == P(E | C, D) for every value combination
    net = diamondish_net(seed=5)
    for c, d, a in itertools.product(range(2), repeat=3):
        with_a = infer_enumeration(net, "E", {"C": c, "D": d, "A": a})
        without = infer_enumeration(net, "E", {"C": c, "D": d})
        assert np.allclose(with_a, without, atol=TOL)


def test_blanket_screens_off_other_variables():
    # P(C | blanket(C), B) == P(C | blanket(C))
    net = diamondish_net(seed=6)
    for a, d, e, b in itertools.product(range(2), repeat=4):
        blanket_ev = {"A": a, "D": d, "E": e}
        base = infer_enumeration(net, "C", blanket_ev)
        extra = infer_enumeration(net, "C", {**blanket_ev, "B": b})
        assert np.allclose(base, extra, atol=TOL)


# --- learning ---


def test_learn_single_binary_frequency():
    net = learn_cpts([Variable("A", 2)], {"A": []},
                     [{"A": 0}, {"A": 0}, {"A": 1}, {"A": 0}], pseudocount=0)
    assert net.cpts["A"].rows[0] == pytest.approx([0.75, 0.25])


def test_learn_single_binary_laplace():
    net = learn_cpts([Variable("A", 2)], {"A": []},
                     [{"A": 0}, {"A": 0}, {"A": 1}, {"A": 0}], pseudocount=1)
    assert net.cpts["A"].rows[0] == pytest.approx([4 / 6, 2 / 6])


def test_learn_empty_data_alpha_zero():
    with pytest.raises(EmptyData):
        learn_cpts([Variable("A", 2)], {"A": []}, [], pseudocount=0)


def test_learn_empty_data_with_alpha_is_uniform():
    net = learn_cpts([Variable("A", 2)], {"A": []}, [], pseudocount=1)
    assert net.cpts["A"].rows[0] == pytest.approx([0.5, 0.5])


def test_learn_incomplete_row():
    with pytest.raises(IncompleteAssignment):
        learn_cpts([Variable("A", 2), Variable("B", 2)], {"A": [], "B": ["A"]},
                   [{"A": 0}], pseudocount=1)


def test_learn_rejects_unknown_parent():
    with pytest.raises(BayesError, match=re.escape("cpt 'A': unknown parent 'Z'")):
        learn_cpts([Variable("A", 2)], {"A": ["Z"]}, [{"A": 0}], 1)


def test_learn_rejects_repeated_parent():
    # counted as given, it builds a net whose factor has two axes for one variable
    with pytest.raises(BayesError, match=re.escape("cpt 'C': parent 'A' named twice")):
        learn_cpts([Variable("A", 2), Variable("C", 2)], {"C": ["A", "A"]},
                   [{"A": 0, "C": 1}], 1)


def test_learn_checks_the_structure_before_the_data():
    # the repeated parent is the structure's fault; the bad value would be reported first
    # if the parents were checked only by the net learn_cpts builds after counting
    for structure, message in [({"C": ["A", "A"]}, "cpt 'C': parent 'A' named twice"),
                               ({"C": ["Z"]}, "cpt 'C': unknown parent 'Z'")]:
        with pytest.raises(InvalidNet, match=re.escape(message)):
            learn_cpts([Variable("A", 2), Variable("C", 2)], structure,
                       [{"A": 0, "C": 1}, {"A": 7, "C": 0}], 1)


def test_learn_counts_a_float32_pseudocount_as_a_float():
    # in float32 the row would sum to 0.99999994 and the learned net would be refused
    data = [{"A": 0}, {"A": 1}, {"A": 0}]
    net = learn_cpts([Variable("A", 2)], {}, data, np.float32(0.1))
    assert net.cpts["A"].rows == learn_cpts([Variable("A", 2)], {}, data,
                                            float(np.float32(0.1))).cpts["A"].rows
    assert {type(x) for x in net.cpts["A"].rows[0]} == {float}


def test_learn_rejects_unknown_child():
    with pytest.raises(BayesError, match=re.escape("structure names unknown child 'Z'")):
        learn_cpts([Variable("A", 2), Variable("B", 2)], {"Z": ["A"], "B": ["A"]},
                   [{"A": 0, "B": 1}], 1)


def test_learn_rejects_string_parents():
    # a string would be read as its characters, the parents A and B
    with pytest.raises(BayesError, match=re.escape(
            "cpt 'C': parents must be a list of strings, got 'AB'")):
        learn_cpts([Variable("A", 2), Variable("B", 2), Variable("C", 2)], {"C": "AB"},
                   [{"A": 0, "B": 1, "C": 0}], 1)


@pytest.mark.parametrize("value", [2, -1, 0.5, 1.0, "1", 2 ** 70, np.bool_(True)])
def test_learn_rejects_bad_data_values(value):
    # out of range, negative, fractional, integral float, string, past np.intp,
    # numpy's bool (not a numpy integer)
    with pytest.raises(BayesError, match=re.escape(
            f"data row 1: 'B' has value {value!r}, not an int in 0..1")):
        learn_cpts([Variable("A", 2), Variable("B", 2)], {"A": [], "B": ["A"]},
                   [{"A": 0, "B": 1}, {"A": 1, "B": value}], pseudocount=1)


@pytest.mark.parametrize("pseudocount",
                         [math.nan, math.inf, -math.inf, -1, -0.5, "1", None, True],
                         ids=["nan", "inf", "-inf", "-1", "-0.5", "str", "none", "bool"])
def test_learn_rejects_bad_pseudocount(pseudocount):
    # checked first: the unknown parent and the bad value go unreported
    with pytest.raises(BayesError) as err:
        learn_cpts([Variable("A", 2)], {"A": ["Z"]}, [{"A": 5}], pseudocount)
    assert type(err.value) is BayesError
    assert str(err.value) == f"pseudocount must be finite and >= 0, got {pseudocount!r}"


def test_learn_rejects_pseudocount_past_the_float_range():
    with pytest.raises(BayesError) as err:
        learn_cpts([Variable("A", 2)], {}, [{"A": 0}], 10**400)
    assert str(err.value) == "pseudocount must be finite and >= 0, got <int of 1329 bits>"


@pytest.mark.parametrize("cell", [10**400, -10**400], ids=["10**400", "-10**400"])
def test_probability_past_the_float_range_reads_as_json_1e400(cell):
    message = "cpt 'A' row 0: negative or non-finite probability"
    with pytest.raises(InvalidNet) as err:
        BayesNet([Variable("A", 2)], [CPT("A", [], [[cell, 0]])])
    assert str(err.value) == message
    doc = '{"variables": [{"name": "A", "cardinality": 2}], "cpts": [{"child": "A", ' \
          '"parents": [], "rows": [[%s, 0]]}]}'
    for text in (str(cell), "1e400"):
        with pytest.raises(InvalidNet) as err:
            parse_net(doc % text)
        assert str(err.value) == message


@pytest.mark.parametrize("names, data, error, message", [
    ("AB", [{"A": 5, "B": 0}, {"A": 0}], IncompleteAssignment,
     "data row 1 does not assign every variable"),
    ("AB", [{"A": 0, "B": 0}, {"A": 0, "B": 0, "C": 0}], IncompleteAssignment,
     "data row 1 does not assign every variable"),
    ("AB", [{"A": 0, "B": 0}, {"A": 0, "C": 0}], IncompleteAssignment,
     "data row 1 does not assign every variable"),
    ("AB", [{"A": 0, "B": 0}, collections.defaultdict(int, A=0, C=0)], IncompleteAssignment,
     "data row 1 does not assign every variable"),
    ("AB", [{"A": 0, "B": 5}, {"A": 7, "B": 0}], BayesError,
     "data row 1: 'A' has value 7, not an int in 0..1"),
    ("AB", [{"A": 0, "B": 5}, {"A": 0, "B": 7}], BayesError,
     "data row 0: 'B' has value 5, not an int in 0..1"),
    ("A", [{"A": 0}, {"A": 2}], BayesError, "data row 1: 'A' has value 2, not an int in 0..1"),
    ("A", [{"A": (0,)}, {"A": (1,)}], BayesError,
     "data row 0: 'A' has value (0,), not an int in 0..1"),
    ("A", [{"A": 0}, {"B": 0}], IncompleteAssignment,
     "data row 1 does not assign every variable"),
], ids=["rows-before-values", "extra-name", "wrong-name", "defaultdict-wrong-name",
        "variable-before-row",
        "row-order", "one-variable", "one-variable-tuple",
        "one-variable-wrong-name"])
def test_learn_diagnostic_order(names, data, error, message):
    # completeness over all rows first; then the first bad value in variable order,
    # then in row order
    with pytest.raises(BayesError) as err:
        learn_cpts([Variable(n, 2) for n in names], {}, data, pseudocount=1)
    assert type(err.value) is error and str(err.value) == message


@settings(max_examples=300, deadline=None, database=None)
@given(case=raw_learning_cases())
def test_learn_matches_reference_on_raw_rows(case):
    cards, parents, data, pseudocount = case
    expected = ref_learn_error(cards, data, pseudocount)
    try:
        net = learn_cpts([Variable(n, c) for n, c in cards.items()], parents, data,
                         pseudocount)
    except BayesError as exc:
        assert (type(exc).__name__, str(exc)) == expected
    else:
        assert expected is None
        learned = {name: cpt.rows for name, cpt in net.cpts.items()}
        assert learned == ref_learn_rows(cards, parents, data, pseudocount)


@settings(max_examples=200, deadline=None, database=None)
@given(case=learning_cases())
def test_learned_rows_equal_dict_counting_oracle(case):
    cards, parents, data, pseudocount = case
    if not data and pseudocount == 0:
        return
    net = learn_cpts([Variable(n, c) for n, c in cards.items()], parents, data, pseudocount)
    learned = {name: cpt.rows for name, cpt in net.cpts.items()}
    assert learned == ref_learn_rows(cards, parents, data, pseudocount)


def test_learn_recovers_known_two_variable_net():
    rng = np.random.default_rng(7)
    p_a = [0.3, 0.7]
    p_b_given_a = [[0.9, 0.1], [0.25, 0.75]]
    n = 100_000
    a = rng.choice(2, size=n, p=p_a)
    b = np.empty(n, dtype=int)
    for value in (0, 1):
        mask = a == value
        b[mask] = rng.choice(2, size=mask.sum(), p=p_b_given_a[value])
    data = [{"A": int(x), "B": int(y)} for x, y in zip(a, b)]
    net = learn_cpts([Variable("A", 2), Variable("B", 2)], {"A": [], "B": ["A"]},
                     data, pseudocount=1)
    assert net.cpts["A"].rows[0] == pytest.approx(p_a, abs=0.02)
    for row in (0, 1):
        assert net.cpts["B"].rows[row] == pytest.approx(p_b_given_a[row], abs=0.02)


def test_learned_joint_matches_empirical_frequencies():
    rng = np.random.default_rng(11)
    n = 50_000
    a = rng.choice(2, size=n, p=[0.4, 0.6])
    b = np.where(rng.random(n) < np.where(a == 0, 0.8, 0.3), 0, 1)
    data = [{"A": int(x), "B": int(y)} for x, y in zip(a, b)]
    net = learn_cpts([Variable("A", 2), Variable("B", 2)], {"A": [], "B": ["A"]},
                     data, pseudocount=0)
    for va in (0, 1):
        for vb in (0, 1):
            empirical = sum(1 for row in data if row["A"] == va and row["B"] == vb) / n
            assert joint_probability(net, {"A": va, "B": vb}) == pytest.approx(
                empirical, abs=3 / np.sqrt(n))


# --- net files ---


def sprinkler_json():
    return json.dumps({
        "variables": [{"name": v.name, "cardinality": v.cardinality} for v in SPRINKLER_VARS],
        "cpts": [{"child": c.child, "parents": c.parents, "rows": c.rows}
                 for c in SPRINKLER_CPTS],
    })


def test_parse_net_round_trip(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(sprinkler_json())
    net = load_net(path)
    dist = infer_enumeration(net, "Rain", {"WetGrass": 0})
    assert dist[0] == pytest.approx(RAIN_GIVEN_WET, abs=TOL)


def test_parse_net_diagnostics():
    with pytest.raises(InvalidNet):
        parse_net("not json")
    with pytest.raises(InvalidNet):
        parse_net('{"variables": [{"name": "A"}], "cpts": []}')
    with pytest.raises(InvalidNet) as err:
        parse_net(json.dumps({
            "variables": [{"name": "A", "cardinality": 2}],
            "cpts": [{"child": "A", "parents": [], "rows": [[0.7, 0.7]]}],
        }))
    assert "row 0" in str(err.value)
    variables = [{"name": "A", "cardinality": 2}]
    with pytest.raises(InvalidNet, match=r"^cpt 'A' row 0: expected 2 values$"):
        parse_net(json.dumps({"variables": variables,
                              "cpts": [{"child": "A", "parents": [], "rows": [[1.0]]}]}))
    with pytest.raises(InvalidNet, match=r"^duplicate cpt for 'A'$"):
        parse_net(json.dumps({"variables": variables,
                              "cpts": [{"child": "A", "parents": [], "rows": [[0.5, 0.5]]}] * 2}))


RESHAPED_FIELDS = pytest.mark.parametrize("doc, message", [
    ({"variables": [{"name": "A", "cardinality": 2.7}]},
     "variables[0]: variable 'A': cardinality must be an int, got 2.7"),
    ({"variables": [{"name": n, "cardinality": 2} for n in "ABC"],
      "cpts": [{"child": "A", "parents": [], "rows": [[0.5, 0.5]]},
               {"child": "B", "parents": [], "rows": [[0.5, 0.5]]},
               {"child": "C", "parents": "AB", "rows": [[0.5, 0.5]] * 4}]},
     "cpts[2]: cpt 'C': parents must be a list of strings, got 'AB'"),
    ({"variables": [{"name": n, "cardinality": 2} for n in "AC"],
      "cpts": [{"child": "A", "parents": [], "rows": [[0.5, 0.5]]},
               {"child": "C", "parents": ["A", "A"], "rows": [[0.5, 0.5]] * 4}]},
     "cpt 'C': parent 'A' named twice"),
    ({"variables": [{"name": None, "cardinality": 2}, {"name": "B", "cardinality": 2}],
      "cpts": [{"child": "None", "parents": [], "rows": [[0.5, 0.5]]},
               {"child": "B", "parents": ["None"], "rows": [[0.5, 0.5]] * 2}]},
     "variables[0]: name must be a string, got None"),
    ({"variables": [{"name": ["A"], "cardinality": 2}]},
     "variables[0]: name must be a string, got ['A']"),
    ({"variables": [{"name": "A", "cardinality": 2}],
      "cpts": [{"child": None, "parents": [], "rows": [[0.5, 0.5]]}]},
     "cpts[0]: child must be a string, got None"),
    ({"variables": [{"name": "A", "cardinality": 2}],
      "cpts": [{"child": "A", "parents": [], "rows": [["0.2", "0.8"]]}]},
     "cpts[0]: cpt 'A': probabilities must be numbers, got '0.2'"),
    ({"variables": [{"name": "A", "cardinality": 2}],
      "cpts": [{"child": "A", "parents": [], "rows": [[True, False]]}]},
     "cpts[0]: cpt 'A': probabilities must be numbers, got True"),
], ids=["cardinality-float", "parents-str", "parent-twice", "name-null", "name-list",
        "child-null", "cell-str", "cell-bool"])


@RESHAPED_FIELDS
def test_parse_net_rejects_fields_it_would_reshape(doc, message):
    # int() would read 2.7 as 2, iterating "AB" would give the parents A and B, str()
    # would name a variable "None" or "['A']", and float() would read "0.2" and true
    with pytest.raises(InvalidNet, match=re.escape(message)):
        parse_net(json.dumps(doc))


@RESHAPED_FIELDS
def test_net_built_in_code_rejects_what_parse_net_rejects(doc, message):
    # the types hold the rules, so the code door refuses each field in the same words,
    # without the JSON entry's locator
    with pytest.raises(InvalidNet) as err:
        BayesNet([Variable(**v) for v in doc.get("variables", [])],
                 [CPT(**c) for c in doc.get("cpts", [])])
    assert re.fullmatch(r"((variables|cpts)\[\d+\]: )?" + re.escape(str(err.value)), message)


def test_cpt_stores_its_cells_as_python_floats():
    cpt = CPT("A", ["B"], [[np.float32(0.25), 0.75], (1, np.float64(0.0))])
    assert cpt.rows == [[0.25, 0.75], [1.0, 0.0]]
    assert {type(x) for row in cpt.rows for x in row} == {float}
    for cell in (np.True_, None, "0.5", [0.5]):
        with pytest.raises(InvalidNet, match=re.escape(
                f"cpt 'A': probabilities must be numbers, got {cell!r}")):
            CPT("A", [], [[cell, 0.5]])


NET_KEYS = ["variables", "cpts", "name", "cardinality", "child", "parents", "rows"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NET_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=20)
NEAR_NETS = st.fixed_dictionaries({
    "variables": st.lists(st.fixed_dictionaries({
        "name": st.sampled_from("AB"), "cardinality": st.integers(1, 3) | JSON_VALUES})),
    "cpts": st.lists(st.fixed_dictionaries({
        "child": st.sampled_from("AB"),
        "parents": st.lists(st.sampled_from("AB"), max_size=2) | JSON_VALUES,
        "rows": st.lists(st.lists(st.floats(0, 1), max_size=3), max_size=3) | JSON_VALUES})),
})


@settings(max_examples=200, deadline=None, database=None)
@given(doc=JSON_VALUES | NEAR_NETS)
def test_parse_net_raises_only_invalid_net(doc):
    try:
        parse_net(json.dumps(doc))
    except InvalidNet:
        pass


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=64) | (JSON_VALUES | NEAR_NETS).map(
    lambda doc: json.dumps(doc).encode()))
def test_load_net_raises_only_invalid_net(tmp_path, data):
    path = tmp_path / "net.json"
    path.write_bytes(data)
    try:
        load_net(path)
    except InvalidNet:
        pass


def test_value_labels():
    binary = Variable("A", 2)
    assert value_label(binary, 0) == "T" and value_label(binary, 1) == "F"
    assert parse_value(binary, "T") == 0 and parse_value(binary, "F") == 1
    assert parse_value(binary, "1") == 1
    ternary = Variable("B", 3)
    assert value_label(ternary, 2) == "2"
    assert parse_value(ternary, "2") == 2
    assert parse_value(ternary, "9") == 9  # inference holds the range rule
    net = BayesNet([binary, ternary],
                   [CPT("A", [], [[0.5, 0.5]]), CPT("B", [], [[0.2, 0.3, 0.5]])])
    for infer in (infer_enumeration, infer_variable_elimination):
        with pytest.raises(BayesError, match=r"^'B': value 9 outside 0\.\.2$"):
            infer(net, "A", {"B": 9})
