"""Identities that hold across whole families of Coxeter systems and that
no automaton builds in: Q = 1 where the fully commutative elements are
finite, the Coxeter elements of a tree, and the shape of Q on affine
systems, and the product a reducible system is.  Systems without a preset
are built from their diagrams."""

import random
from functools import lru_cache
from math import comb

import pytest

from cfcgf import cfc_automaton, fsa, lexnf
from cfcgf.core import INF, diagram, preset_system
from cfcgf.genfun import counted_genfun
from helpers import count_words

slow = pytest.mark.slow


def _path(*labels):
    return diagram(len(labels) + 1, [(i, i + 1, m) for i, m in enumerate(labels)])


def _e(n):
    """E<n>: the path 0 - ... - n-2 with node n-1 on node 2."""
    return diagram(n, [(i, i + 1, 3) for i in range(n - 2)] + [(2, n - 1, 3)])


DIAGRAMS = {
    **{f"E{n}": _e(n) for n in (6, 7, 8, 9, 10)},
    "F4": _path(3, 4, 3),
    "F5": _path(3, 3, 4, 3),  # the affine F4
    "H3": _path(5, 3),
    "H4": _path(5, 3, 3),
    "tB3": diagram(4, [(0, 2, 3), (1, 2, 3), (2, 3, 4)]),
    "tC3": _path(4, 3, 4),
    "tD4": diagram(5, [(leaf, 2, 3) for leaf in (0, 1, 3, 4)]),
    "tG2": _path(3, 6),
}


def system(name):
    return DIAGRAMS[name] if name in DIAGRAMS else preset_system(name)


@lru_cache(maxsize=None)
def series(name):
    """(counts, P/Q) of the pipeline machine of the named system."""
    return counted_genfun(cfc_automaton.build(system(name), "pipeline"))


FINITE_TREES = [
    *(f"A{k}" for k in range(2, 9)),
    *(f"B{k}" for k in range(2, 9)),
    *(f"D{k}" for k in range(4, 9)),
    "E6", "E7", "E8", "F4",
    pytest.param("E9", marks=slow),
    pytest.param("E10", marks=slow),
    pytest.param("F5", marks=slow),
]
AFFINE_TREES = ["tB3", "tC3", "tD4", "tG2"]


@pytest.mark.parametrize(
    "name", [*FINITE_TREES, *(f"I2:{m}" for m in range(3, 9)), "H3", "H4"]
)
def test_fc_finite_systems_have_q_1(name):
    # finitely many fully commutative elements (Stembridge, J. Algebraic
    # Combin. 5, 1996), so finitely many CFC ones: P/Q is a polynomial
    assert series(name)[1].den == (1,)


@pytest.mark.parametrize("name", [*FINITE_TREES, *AFFINE_TREES, "H3", "H4"])
def test_a_tree_has_2_to_the_rank_minus_1_coxeter_elements(name):
    # a Coxeter element, each generator once, is CFC: its rotations are
    # Coxeter elements too.  A tree's are one per acyclic orientation of
    # its edges (J.-Y. Shi, The enumeration of Coxeter elements), 2^(r-1)
    # for rank r.  That no other CFC element has length r is measured,
    # not proven, and fails on H4 (10 of length 4)
    r = system(name).rank
    count = series(name)[0][r]
    if name.startswith("H"):
        assert count >= 2 ** (r - 1)
    else:
        assert count == 2 ** (r - 1)


@pytest.mark.parametrize("name", FINITE_TREES)
def test_a_finite_trees_longest_cfc_elements_are_its_coxeter_elements(name):
    # measured, not proven: P has degree r, and its top coefficient
    # counts the Coxeter elements
    r = system(name).rank
    assert series(name)[1].num[r:] == (2 ** (r - 1),)


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


# the FC elements of the irreducible FC-finite systems (Stembridge,
# J. Algebraic Combin. 7, 1998): proven totals
FC_TOTALS = {
    **{f"A{n}": _catalan(n + 1) for n in range(2, 11)},
    **{f"B{n}": (n + 2) * _catalan(n) - 1 for n in range(2, 10)},
    **{f"D{n}": (n + 3) * _catalan(n) // 2 - 1 for n in range(4, 10)},
    "E6": 662, "E7": 2670, "E8": 10846, "F4": 106, "H3": 44, "H4": 195,
    **{f"I2:{m}": 2 * m - 1 for m in range(3, 9)},
}


@pytest.mark.parametrize("name", FC_TOTALS)
def test_the_fc_element_machine_counts_stembridges_totals(name):
    # one word per FC element: the linear recognizer cut by lexnf, with
    # no rotation closure
    s = system(name)
    gf = counted_genfun(fsa.product(cfc_automaton.factors(s) + [lexnf.build(s)]))[1]
    assert gf.den == (1,)
    assert sum(gf.num) == FC_TOTALS[name]


# the raw pipeline's states less its sink
TREE_PIPELINES = {"A6": 233, "B5": 110, "D5": 98, "E6": 249, "F4": 49,
                  "H3": 27, "H4": 68, "I2:5": 9}


@pytest.mark.parametrize("name", TREE_PIPELINES)
def test_a_depth_first_walk_of_the_closure_counts_the_pipeline(name):
    # measured, not proven (ROADMAP baseline): on these FC-finite systems
    # the raw pipeline is a tree, so a depth-first walk over the closure's
    # step, with no search and no registry of found states, visits each
    # state but the sink once and counts the accepted words by depth
    s = system(name)
    start, step, accepts = fsa._closure(cfc_automaton.factors(s), lexnf.build(s),
                                        fsa.DEFAULT_STATE_BUDGET)
    counts, visits = [], 0
    path = [(start, 0)]
    while path:
        q, depth = path.pop()
        visits += 1
        if depth == len(counts):
            counts.append(0)
        counts[depth] += accepts(q)
        path.extend((r, depth + 1) for c in range(s.rank)
                    if (r := step(q, c)) is not None)
    pipeline = cfc_automaton.build(s, "pipeline")
    assert visits == pipeline.num_states - 1 == TREE_PIPELINES[name]
    assert count_words(pipeline, len(counts)) == counts + [0]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, pytest.param(8, marks=slow),
                               pytest.param(9, marks=slow)])
def test_affine_a_past_length_n_counts_only_powers_of_coxeter_elements(n):
    """Measured, not proven: past length n, tA<n> has 2^(n+1) - 2 CFC
    elements at each multiple of n+1, one per Coxeter element of the
    cycle, and none at any other length, so Q = 1 - x^(n+1).  Speyer
    (Proc. AMS 2009) proves only that powers of Coxeter elements are
    reduced."""
    h = n + 1
    gf = series(f"tA{n}")[1]
    assert gf.den == (1,) + (0,) * n + (-1,)
    assert gf.expand(6 * h)[h:] == [
        2 ** h - 2 if k % h == 0 else 0 for k in range(h, 6 * h + 1)
    ]


def _divide(p, d):
    """p/d for polynomials listed from the constant term, d[0] = 1, or
    None unless d divides p."""
    p, q = list(p), []
    for i in range(len(p) - len(d) + 1):
        q.append(p[i])
        for j, c in enumerate(d):
            p[i + j] -= q[i] * c
    return tuple(q) if q and not any(p) else None


@lru_cache(maxsize=None)
def _cyclotomic(k):
    """The k-th cyclotomic polynomial, negated for k = 1 to make the
    constant term 1: 1 - x^k over those of the proper divisors of k."""
    phi = (1,) + (0,) * (k - 1) + (-1,)
    for d in range(1, k):
        if k % d == 0:
            phi = _divide(phi, _cyclotomic(d))
    return phi


def test_cyclotomic_polynomials():
    assert [_cyclotomic(k) for k in (1, 2, 3, 4, 6, 12)] == [
        (1, -1), (1, 1), (1, 1, 1), (1, 0, 1), (1, -1, 1), (1, 0, -1, 0, 1)
    ]
    assert _divide((1, 0, 0, -1), (1, 1)) is None
    assert _divide((1, 1), (1, 1, 1)) is None


AFFINE_TREE_DENS = {
    "tB3": (1, 1, 1, 1, 1, 0, -1, -1, -1, -1, -1),  # (1+x+...+x^4)(1-x^6)
    "tC3": (1, 0, 1, 0, 0, 0, -1, 0, -1),  # (1+x^2)(1-x^6)
    "tD4": (1, 0, 0, 0, 0, 0, -1),
    "tG2": (1, 0, 0, 0, 0, -1),
}


@pytest.mark.parametrize("name", [*(f"tA{k}" for k in range(1, 8)), *AFFINE_TREES])
def test_affine_q_is_a_product_of_cyclotomic_polynomials(name):
    # measured, not proven: Q's roots are roots of unity
    den = series(name)[1].den
    if name in AFFINE_TREE_DENS:
        assert den == AFFINE_TREE_DENS[name]
    rest = den
    for k in range(1, len(den)):
        while (quotient := _divide(rest, _cyclotomic(k))) is not None:
            rest = quotient
    assert rest == (1,)


def _component(rng, rank):
    """A system of the given rank with a label from 3, 4, 5, 6 and
    infinity on every pair of generators."""
    return diagram(rank, [(i, j, rng.choice((3, 4, 5, 6, INF)))
                          for i in range(rank) for j in range(i + 1, rank)])


@pytest.mark.parametrize("seed", range(12))
def test_a_reducible_system_counts_as_the_product_of_its_components(seed):
    """Letters of different components commute, so an element of W1 x W2
    is a pair of elements, and it is CFC iff both are: CFC(W1 x W2) =
    CFC(W1) x CFC(W2).  Element counts are then the Cauchy product of the
    components' counts, and reduced words, being shuffles of one word of
    each, their binomial convolution.  The automata know none of this:
    they close the joint product of all factors under rotation."""
    rng = random.Random(seed)
    parts = [_component(rng, rng.randint(2, 3)), _component(rng, 2)]
    # the union's generators, the components' interleaved at random
    places = rng.sample(range(parts[0].rank + 2), parts[0].rank + 2)
    homes = places[:parts[0].rank], places[parts[0].rank:]
    union = diagram(len(places), [(at[i], at[j], part.m(i, j))
                                  for part, at in zip(parts, homes)
                                  for i in range(part.rank)
                                  for j in range(i + 1, part.rank)])
    n = 30

    def counts(system, stage):
        return count_words(cfc_automaton.build(system, stage), n)

    b, c = (counts(part, "pipeline") for part in parts)
    assert counts(union, "pipeline") == [
        sum(b[i] * c[k - i] for i in range(k + 1)) for k in range(n + 1)
    ]
    b, c = (counts(part, "cfc") for part in parts)
    assert counts(union, "cfc") == [
        sum(comb(k, i) * b[i] * c[k - i] for i in range(k + 1)) for k in range(n + 1)
    ]
