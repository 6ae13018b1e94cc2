from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cfcgf.errors import InputError
from cfcgf.fsa import (
    Dfa,
    accepted_words,
    complement,
    difference_witness,
    equivalent,
    intersect,
    is_subset,
    minimize,
    rotation_closure,
    subset_counterexample,
    trim,
)


def even_ones() -> Dfa:
    # parity of the number of 1s over {0,1}
    return Dfa(2, ((0, 1), (1, 0)), 0, frozenset({0}))


def ends_with_zero() -> Dfa:
    return Dfa(2, ((1, 0), (1, 0)), 0, frozenset({1}))


def test_validation():
    with pytest.raises(InputError):
        Dfa(2, (), 0, frozenset())
    with pytest.raises(InputError):
        Dfa(2, ((0,),), 0, frozenset())
    with pytest.raises(InputError):
        Dfa(1, ((5,),), 0, frozenset())
    with pytest.raises(InputError):
        Dfa(1, ((0,),), 3, frozenset())
    with pytest.raises(InputError):
        Dfa(1, ((0,),), 0, frozenset({2}))
    with pytest.raises(InputError):
        Dfa(1, ((0,),), 0, frozenset({0}), dead=0)


def test_accepts():
    d = even_ones()
    assert d.accepts(())
    assert d.accepts((1, 1, 0))
    assert not d.accepts((1, 0))


def test_intersect_matches_conjunction():
    a, b = even_ones(), ends_with_zero()
    c = intersect(a, b)
    for w in [(w1, w2, w3) for w1 in (0, 1) for w2 in (0, 1) for w3 in (0, 1)]:
        assert c.accepts(w) == (a.accepts(w) and b.accepts(w))
    assert not c.accepts(())


def test_intersect_alphabet_mismatch():
    with pytest.raises(InputError):
        intersect(even_ones(), Dfa(3, ((0, 0, 0),), 0, frozenset({0})))


def test_complement_flips():
    d = complement(even_ones())
    assert not d.accepts(())
    assert d.accepts((1,))
    assert equivalent(complement(d), even_ones())


def test_trim_drops_unreachable_and_hopeless():
    # state 2 unreachable, state 3 a trap reachable on letter 1
    d = Dfa(2, ((0, 3), (0, 1), (2, 2), (3, 3)), 0, frozenset({0}))
    t = trim(d)
    assert t.num_states == 2  # the live state plus a fresh dead state
    assert t.dead == 1
    assert equivalent(d, t)


def test_trim_empty_language():
    d = Dfa(1, ((1,), (0,)), 0, frozenset())
    t = trim(d)
    assert t.num_states == 1
    assert t.finals == frozenset()
    assert t.dead == 0


def test_trim_complete_automaton_unchanged_size():
    d = even_ones()
    assert trim(d).num_states == 2


def test_minimize_merges_equivalent_states():
    # states 1 and 2 both accept exactly words ending in at least one 1
    d = Dfa(2, ((0, 1), (0, 2), (0, 1)), 0, frozenset({1, 2}))
    m = minimize(d)
    assert m.num_states == 2
    assert equivalent(m, d)


def test_minimize_is_deterministic_and_idempotent():
    d = Dfa(2, ((0, 1), (0, 2), (0, 1)), 0, frozenset({1, 2}))
    m1, m2 = minimize(d), minimize(minimize(d))
    assert m1.to_json() == m2.to_json()


def test_minimize_sets_dead_hint():
    d = Dfa(2, ((1, 2), (1, 2), (2, 2)), 0, frozenset({1}))
    m = minimize(d)
    assert m.dead is not None
    assert m.dead not in m.finals


def test_difference_witness_shortest_lex():
    a = even_ones()
    b = complement(even_ones())
    assert difference_witness(a, b) == ()
    assert difference_witness(a, a) is None
    c = intersect(a, ends_with_zero())
    # first disagreement with a: the empty word is accepted by a only
    assert difference_witness(a, c) == ()


def test_subset():
    a, b = even_ones(), ends_with_zero()
    c = intersect(a, b)
    assert is_subset(c, a) and is_subset(c, b)
    assert not is_subset(a, c)
    assert subset_counterexample(a, c) == ()
    assert subset_counterexample(c, a) is None


def test_accepted_words_order():
    ws = accepted_words(ends_with_zero(), 2)
    assert ws == [(0,), (0, 0), (1, 0)]


def test_accepted_words_skips_dead():
    d = Dfa(2, ((0, 1), (1, 1)), 0, frozenset({0}), dead=1)
    assert accepted_words(d, 3) == [(), (0,), (0, 0), (0, 0, 0)]


def test_json_round_trip():
    d = intersect(even_ones(), ends_with_zero())
    doc = d.to_json_dict()
    e = Dfa.from_json_dict(doc)
    assert e.delta == d.delta and e.finals == d.finals and e.dead == d.dead


def test_json_malformed():
    with pytest.raises(InputError):
        Dfa.from_json_dict({"alphabet": ["0"]})


def test_rotation_closure_of_a_small_language():
    # words over {0,1} with no factor 11: the closure also forbids a word
    # that starts and ends with 1, whose rotation joins the two
    no_11 = Dfa(2, ((0, 1), (0, 2), (2, 2)), 0, frozenset({0, 1}), dead=2)
    c = rotation_closure(no_11)
    assert c.accepts((1, 0)) and c.accepts((0, 1, 0))
    assert not c.accepts((1, 0, 1)) and not c.accepts((1, 1))
    assert c.accepts((1,))  # its only rotation is itself
    # guided, only words of even length remain
    even = Dfa(2, ((1, 1), (0, 0)), 0, frozenset({0}))
    g = rotation_closure(no_11, even)
    assert g.accepts((1, 0)) and not g.accepts((1,)) and not g.accepts((0, 1, 0))


def test_rotation_closure_needs_a_prefix_closed_machine():
    with pytest.raises(InputError):
        rotation_closure(even_ones())  # rejects 1, accepts 11
    leaky = Dfa(1, ((1,), (0,)), 0, frozenset({0}), dead=1)
    with pytest.raises(InputError):
        rotation_closure(leaky)  # its "dead" state leads back to acceptance


def test_dot_output():
    d = Dfa(2, ((1, 2), (1, 2), (2, 2)), 0, frozenset({1}), dead=2)
    dot = d.to_dot()
    assert "q2" not in dot
    assert "doublecircle" in dot
    full = d.to_dot(keep_dead=True)
    assert "q2" in full


# randomized -----------------------------------------------------------------


@st.composite
def dfas(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(k)) for _ in range(n)
    )
    finals = frozenset(
        q for q in range(n) if draw(st.booleans())
    )
    return Dfa(k, delta, 0, finals)


@given(dfas())
@settings(max_examples=80, deadline=None)
def test_minimize_preserves_language(d):
    m = minimize(d)
    assert difference_witness(d, m) is None
    assert m.num_states <= d.num_states


@given(dfas())
@settings(max_examples=80, deadline=None)
def test_trim_preserves_language(d):
    assert difference_witness(d, trim(d)) is None


@given(dfas(), dfas())
@settings(max_examples=40, deadline=None)
def test_intersection_is_lower_bound(a, b):
    if a.alphabet_size != b.alphabet_size:
        return
    c = intersect(a, b)
    assert is_subset(c, a) and is_subset(c, b)


@given(dfas())
@settings(max_examples=40, deadline=None)
def test_minimize_reaches_fixed_point(d):
    m = minimize(d)
    assert minimize(m).to_json() == m.to_json()


@st.composite
def prefix_closed_dfas(draw, k):
    """A machine that accepts exactly the words avoiding its dead state,
    the last of its states."""
    n = draw(st.integers(1, 4))
    delta = tuple(
        tuple(draw(st.integers(0, n)) for _ in range(k)) for _ in range(n)
    ) + ((n,) * k,)
    return Dfa(k, delta, 0, frozenset(range(n)), dead=n)


@st.composite
def closure_inputs(draw):
    k = draw(st.integers(1, 3))
    a = draw(prefix_closed_dfas(k))
    guide = None
    if draw(st.booleans()):
        m = draw(st.integers(1, 4))
        delta = tuple(
            tuple(draw(st.integers(0, m - 1)) for _ in range(k)) for _ in range(m)
        )
        finals = frozenset(q for q in range(m) if draw(st.booleans()))
        guide = Dfa(k, delta, 0, finals)
    return a, guide


@given(closure_inputs())
@settings(max_examples=100, deadline=None)
def test_rotation_closure_is_its_definition(inputs):
    # on every word up to length 6: accepted iff every rotation is in L(a)
    # (and the word in L(guide))
    a, guide = inputs
    c = rotation_closure(a, guide)
    for n in range(7):
        for w in product(range(a.alphabet_size), repeat=n):
            rotations = [w[i:] + w[:i] for i in range(max(n, 1))]
            want = all(a.accepts(r) for r in rotations) and (
                guide is None or guide.accepts(w)
            )
            assert c.accepts(w) == want, w
