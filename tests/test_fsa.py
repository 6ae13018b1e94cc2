from __future__ import annotations

import gc
import json
import pickle
import random
import re
import sys
import tracemalloc
import types
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from cfcgf import cfc_automaton, fsa
from cfcgf.core import parse_system
from cfcgf.errors import BudgetError, InputError
from cfcgf.fsa import (
    Dfa,
    coreachable,
    difference_witness,
    minimize,
    rotation_closure,
    trim,
)
from helpers import (
    accepted_words,
    equivalent,
    is_subset,
    subset_counterexample,
    to_json,
    to_json_dict,
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
    with pytest.raises(InputError):  # the dead state leads back to acceptance
        Dfa(1, ((1,), (0,)), 0, frozenset({0}), dead=1)
    with pytest.raises(InputError, match="dead state out of range"):
        Dfa(1, ((0,),), 0, frozenset(), dead=1)


def test_a_valid_table_passes_the_range_check():
    d = Dfa(3, ((1, 2, 0), (2, 2, 2), (0, 1, 2)), 0, frozenset({0, 1}))
    assert d.num_states == 3 and d.delta[2] == (0, 1, 2)


@pytest.mark.parametrize("delta, bad", [
    (((0, 1), (1, 2), (3, 0)), "transition 2 --0--> 3 leaves the state set"),
    (((0, 1), (1, 0), (0, -1)), "transition 2 --1--> -1 leaves the state set"),
    (((5, -1), (0, 0)), "transition 0 --0--> 5 leaves the state set"),
])
def test_an_out_of_range_transition_is_named(delta, bad):
    # the first bad transition, by state and then letter
    with pytest.raises(InputError, match=re.escape(bad)):
        Dfa(2, delta, 0, frozenset())


def test_zero_letter_machines_are_valid():
    assert Dfa(0, ((),), 0, frozenset({0})).accepts(())
    d = Dfa(0, ((), ()), 0, frozenset({1}))
    assert not d.accepts(()) and json.loads(to_json(d, ()))["delta"] == [[], []]
    assert Dfa(0, ((),), 0, frozenset(), dead=0).dead == 0
    with pytest.raises(InputError):
        Dfa(0, ((),), 0, frozenset({1}))


def test_equality_compares_every_field():
    d = even_ones()
    same = Dfa(2, ((0, 1), (1, 0)), 0, frozenset({0}))
    assert d == same and hash(d) == hash(same) and len({d, same}) == 1
    assert d != ends_with_zero()
    assert d != Dfa(2, ((0, 1), (1, 0)), 0, frozenset({1}))
    assert Dfa(1, ((0,),), 0, frozenset()) != Dfa(1, ((0,),), 0, frozenset(), dead=0)
    assert pickle.loads(pickle.dumps(d)) == d
    # a value of another class is left to Python's fallback
    assert parse_system("A2").__eq__(3) is NotImplemented
    assert (parse_system("A2") == 3) is False
    with pytest.raises(AttributeError):
        d.initial = 1


def test_accepts():
    d = even_ones()
    assert d.accepts(())
    assert d.accepts((1, 1, 0))
    assert not d.accepts((1, 0))


def explore_short_words(log: list, state_budget: int = 10, empty=()) -> Dfa:
    """The words of length at most 2 over {0, 1} as states, of the type of
    empty (tuples, or bytes of one byte per letter), the longer ones in the
    sink; the words of length 1 accept.  log records each call to accepts
    and step."""
    def step(q, c):
        log.append(("step", q, c))
        return q + type(q)([c]) if len(q) < 2 else None

    def accepts(q):
        log.append(("accepts", q))
        return len(q) == 1

    return fsa.explore(empty, step, accepts, 2, state_budget)


def test_explore_numbers_states_in_discovery_order():
    log = []
    a = explore_short_words(log)
    # the start at 0, the sink at 1, then each word as it is found
    rows = ((2, 3), (1, 1), (4, 5), (6, 7)) + ((1, 1),) * 4
    assert a == Dfa(2, rows, 0, frozenset({2, 3}), 1)
    # accepts is asked once of each found state, as it is expanded, and
    # never of the sink
    found = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert log == [e for q in found for e in [("accepts", q), ("step", q, 0),
                                               ("step", q, 1)]]


def test_explore_budget_counts_the_sink():
    assert explore_short_words([], 8).num_states == 8
    for budget in (7, 1):
        with pytest.raises(BudgetError, match=f"state budget {budget} exceeded"):
            explore_short_words([], budget)


def test_explore_without_letters_gives_the_start_and_the_sink():
    asked = []
    a = fsa.explore("q", None, lambda q: asked.append(q) or True, 0, 2)
    assert a == Dfa(0, ((), ()), 0, frozenset({0}), 1)
    assert asked == ["q"]


def test_explore_numbers_int_tuple_and_bytes_states_alike():
    words = explore_short_words([])
    assert explore_short_words([], empty=b"") == words

    def step(q, c):  # a word as the int of its letters' bits after a 1 bit
        return 2 * q + c if q < 4 else None

    assert fsa.explore(1, step, lambda q: 2 <= q < 4, 2, 10) == words
    with pytest.raises(TypeError):  # a step to a list
        fsa.explore((), lambda q, c: [c], lambda q: True, 1, 10)


def test_explore_rows_share_one_int_per_state_id():
    # ids past 256 are not cached by the interpreter: a table that held a
    # new int for every entry would take far more memory
    a = fsa.explore(0, lambda q, c: (q + 1 + c * 7) % 300, lambda q: q % 2 == 0,
                    2, 1000)
    assert a.num_states == 301
    entries = [r for row in a.delta for r in row] + list(a.finals)
    assert len({id(r) for r in entries}) == len(set(entries)) == a.num_states


def dict_explore(start, step, accepts, k):
    """`fsa._explore`'s rows, flags and states by a plain breadth-first
    search with a dict of found states, the sink as None."""
    states, ids, rows, flags = [start, None], {start: 0}, [], []
    for q in states:
        if q is None:
            rows += [1] * k
            flags.append(0)
            continue
        flags.append(int(bool(accepts(q))))
        for c in range(k):
            r = step(q, c)
            if r is not None and r not in ids:
                ids[r] = len(states)
                states.append(r)
            rows.append(1 if r is None else ids[r])
    return rows, flags, states


def assert_explores_as_a_dict_search(keys, succ, accepting):
    """_explore over states keys, where keys[i] goes to keys[succ[i][c]] on
    letter c, or to the sink where that is None, and accepts iff
    accepting[i], finds what dict_explore finds."""
    index = {q: i for i, q in enumerate(keys)}
    k = len(succ[0])

    def step(q, c):
        j = succ[index[q]][c]
        return None if j is None else keys[j]

    def accepts(q):
        return accepting[index[q]]

    rows, flags, states = dict_explore(keys[0], step, accepts, k)
    flat, got_flags, got_states = fsa._explore(keys[0], step, accepts, k, 10**6)
    assert list(flat) == rows
    assert list(got_flags) == flags
    assert got_states == states  # None, the sink, at 1


@st.composite
def searches(draw):
    """Distinct bytes states, of any length from 0, with a successor or
    None per letter and a flag each."""
    keys = draw(st.lists(st.binary(max_size=9), min_size=1, max_size=60,
                         unique=True))
    k = draw(st.integers(1, 4))
    targets = st.none() | st.integers(0, len(keys) - 1)
    succ = draw(st.lists(st.lists(targets, min_size=k, max_size=k),
                         min_size=len(keys), max_size=len(keys)))
    accepting = draw(st.lists(st.booleans(), min_size=len(keys),
                              max_size=len(keys)))
    return keys, succ, accepting


@given(searches())
@settings(max_examples=150, deadline=None)
# every length from 0 to 9, each key a prefix of the longer ones; then
# the empty key as the start
@example(([b"\0"] + [bytes(n) for n in range(10) if n != 1],
          [[(i + 1) % 10, i // 2] for i in range(10)], [i % 3 == 0 for i in range(10)]))
@example(([b"", b"\0", b"\0\0", b"ab", b"a"],
          [[1, 2], [3, None], [4, 0], [None, None], [2, 4]],
          [True, False, True, False, True]))
@example(([b"a", b"\0", b"", b"\0\0", b"ab", b"b"],
          [[1, 2], [3, 4], [1, 5], [None, 0], [5, 1], [None, None]],
          [True, False, True, False, True, False]))
def test_explore_finds_what_a_dict_search_finds(search):
    assert_explores_as_a_dict_search(*search)


def test_explore_matches_a_dict_search_on_12000_states():
    # the keys have every length from 0 to 12, the empty one among them
    rng = random.Random(20241020)
    keys = list(dict.fromkeys(
        [b""] + [rng.randbytes(rng.randint(1, 12)) for _ in range(12500)]))[:12000]
    succ = [[rng.choice([None, *rng.choices(range(len(keys)), k=6)])
             for _ in range(3)] for _ in keys]
    for i in range(len(keys) - 1):  # every key is found
        succ[i][0] = i + 1
    accepting = [rng.random() < 0.5 for _ in keys]
    assert {len(q) for q in keys} == set(range(13))
    assert_explores_as_a_dict_search(keys, succ, accepting)


def test_explore_keeps_under_160_bytes_per_state_beyond_its_rows():
    # the registry of 40-byte keys, with a dict entry and an int per id and
    # a list of the states, takes about 139 bytes per state, the keys
    # included
    size = 20_000

    def step(q, c):
        return ((int.from_bytes(q, "little") * 2 + 1 + c) % size).to_bytes(40, "little")

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        flat, flags = fsa._explore(bytes(40), step, lambda q: q[0] & 1, 2, 10**6)[:2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(flags) == size + 1  # the states and the sink
    beyond = peak - before - sys.getsizeof(flat) - sys.getsizeof(flags)
    assert beyond / size < 160


def test_intersect_matches_conjunction():
    a, b = even_ones(), ends_with_zero()
    c = fsa.product([a, b])
    for w in [(w1, w2, w3) for w1 in (0, 1) for w2 in (0, 1) for w3 in (0, 1)]:
        assert c.accepts(w) == (a.accepts(w) and b.accepts(w))
    assert not c.accepts(())


def test_product_sends_any_dead_machine_to_its_one_sink():
    # no 11, with a dead state, and even_ones, which letter 0 does not move
    no_11 = Dfa(2, ((0, 1), (0, 2), (2, 2)), 0, frozenset({0, 1}), 2)
    parts = [even_ones(), no_11, ends_with_zero()]
    c = fsa.product(parts)
    assert c.dead == 1
    assert c.delta[c.delta[c.initial][1]][1] == 1
    assert c.num_states == fsa.minimize(c).num_states == 6
    for n in range(7):
        for w in product((0, 1), repeat=n):
            assert c.accepts(w) == all(a.accepts(w) for a in parts), w


def test_intersect_alphabet_mismatch():
    three = Dfa(3, ((0, 0, 0),), 0, frozenset({0}))
    with pytest.raises(InputError, match="cannot intersect automata over different"):
        fsa.product([even_ones(), three])
    with pytest.raises(InputError, match="cannot compare automata over different"):
        difference_witness(even_ones(), three)


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
    assert m1 == m2


def test_minimize_sets_dead_hint():
    d = Dfa(2, ((1, 2), (1, 2), (2, 2)), 0, frozenset({1}))
    m = minimize(d)
    assert m.dead is not None
    assert m.dead not in m.finals


def test_difference_witness_shortest_lex():
    a = even_ones()
    b = Dfa(2, ((0, 1), (1, 0)), 0, frozenset({1}))  # odd number of 1s
    assert difference_witness(a, b) == ()
    assert difference_witness(a, a) is None
    c = fsa.product([a, ends_with_zero()])
    # first disagreement with a: the empty word is accepted by a only
    assert difference_witness(a, c) == ()


def test_subset():
    a, b = even_ones(), ends_with_zero()
    c = fsa.product([a, b])
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


def test_rotation_closure_of_a_small_language():
    # words over {0,1} with no factor 11: the closure also forbids a word
    # that starts and ends with 1, whose rotation joins the two
    no_11 = Dfa(2, ((0, 1), (0, 2), (2, 2)), 0, frozenset({0, 1}), dead=2)
    c = rotation_closure([no_11])
    assert c.accepts((1, 0)) and c.accepts((0, 1, 0))
    assert not c.accepts((1, 0, 1)) and not c.accepts((1, 1))
    assert c.accepts((1,))  # its only rotation is itself
    # guided by the words with at most two 1s, only those remain
    at_most_two = Dfa(2, ((0, 1), (1, 2), (2, 3), (3, 3)), 0,
                      frozenset({0, 1, 2}), dead=3)
    g = rotation_closure([no_11], at_most_two)
    assert g.accepts((1, 0, 1, 0)) and g.accepts((0, 1, 0))
    assert not g.accepts((1, 0, 1, 0, 1, 0)) and not g.accepts((1, 1))
    # a guide that starts in its dead state keeps no word, not even ()
    empty = Dfa(2, ((0, 0),), 0, frozenset(), dead=0)
    assert rotation_closure([no_11], empty).finals == frozenset()


def test_rotation_closure_needs_a_prefix_closed_machine():
    with pytest.raises(InputError):
        rotation_closure([even_ones()])  # rejects 1, accepts 11
    with pytest.raises(InputError):  # its "dead" state leads back to acceptance
        rotation_closure([Dfa(1, ((1,), (0,)), 0, frozenset({0}), dead=1)])
    with pytest.raises(InputError):  # the guide must be prefix-closed too
        rotation_closure([Dfa(2, ((0, 0),), 0, frozenset({0}))], even_ones())
    with pytest.raises(InputError, match="cannot guide over a different alphabet"):
        rotation_closure([Dfa(2, ((0, 0),), 0, frozenset({0}))],
                         Dfa(3, ((0, 0, 0),), 0, frozenset({0})))



def test_no_closure_table_outlives_the_search(monkeypatch):
    # the functions _closure defines hold its tables: they must be alive
    # while its own search runs, the last one, and none may be alive while
    # any machine is assembled, the closure's own one included
    def closure_functions():
        return [f.__qualname__ for f in gc.get_objects()
                if isinstance(f, types.FunctionType) and f.__module__ == "cfcgf.fsa"
                and f.__qualname__.startswith("_closure.<locals>")]

    searching, assembling = [], []
    explore, machine = fsa._explore, fsa._machine

    def checked_explore(*args):
        searching.append(closure_functions())
        return explore(*args)

    def checked_machine(*args):
        assembling.append(closure_functions())
        return machine(*args)

    gc.collect()  # leftovers of earlier tests
    monkeypatch.setattr(fsa, "_explore", checked_explore)
    monkeypatch.setattr(fsa, "_machine", checked_machine)
    a = cfc_automaton.build(parse_system("tA3"), "pipeline")
    assert a.num_states == 112  # the closure's machine, the last one made
    assert "_closure.<locals>.step" in searching[-1], searching
    assert not any(searching[:-1]), searching
    assert len(assembling) > 1 and not any(assembling), assembling


def test_dot_output():
    d = Dfa(2, ((1, 2), (1, 2), (2, 2)), 0, frozenset({1}), dead=2)
    pieces = list(d.to_dot(("a", "b")))
    assert all(p.count("\n") == 1 and p.endswith("\n") for p in pieces)
    dot = "".join(pieces)
    assert "q2" not in dot
    assert "doublecircle" in dot
    assert 'q0 -> q1 [label="a"];' in dot


def test_dot_labels_escape_quotes_and_backslashes():
    # a rank-3 system whose generator names hold DOT's special characters
    system = parse_system(json.dumps({
        "generators": ['b"q', "back\\slash", 'line\nbreak'],
        "matrix": [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
    }))
    a = cfc_automaton.build(system, "pipeline")
    dot = "".join(a.to_dot(system.names))
    labels = [line.split("label=", 1)[1] for line in dot.splitlines()
              if "label=" in line]
    assert len(labels) > 3
    for label in labels:
        assert re.fullmatch(r'"(?:[^"\\]|\\.)*"\];', label), label
    assert r'label="b\"q"' in dot
    assert r'label="back\\slash"' in dot
    assert r'label="line\nbreak"' in dot


# randomized -----------------------------------------------------------------


# letter names that JSON must escape: quotes, backslashes, control and
# non-ASCII characters
awkward_names = st.text(st.one_of(st.sampled_from('"\\\n'), st.characters()))


@st.composite
def dfas(draw):
    """A random machine, with its dead state either unset or some state
    made rejecting and absorbing."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    delta = [
        tuple(draw(st.integers(0, n - 1)) for _ in range(k)) for _ in range(n)
    ]
    finals = frozenset(
        q for q in range(n) if draw(st.booleans())
    )
    dead = draw(st.none() | st.integers(0, n - 1))
    if dead is not None:
        delta[dead] = (dead,) * k
        finals -= {dead}
    return Dfa(k, tuple(delta), 0, finals, dead)


@given(dfas(), st.data())
@settings(max_examples=80, deadline=None)
def test_to_json_is_the_indented_dump(d, data):
    # json_pieces is written by hand; this is the text it documents
    k = d.alphabet_size
    names = data.draw(st.lists(awkward_names, min_size=k, max_size=k))
    want = json.dumps(to_json_dict(d, names), indent=2, sort_keys=True) + "\n"
    assert to_json(d, names) == want


@given(dfas(), st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_accepted_words_are_the_accepted_words(d, n):
    assert accepted_words(d, n) == [
        w for length in range(n + 1)
        for w in product(range(d.alphabet_size), repeat=length)
        if d.accepts(w)
    ]


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


@given(dfas())
@settings(max_examples=80, deadline=None)
def test_minimize_needs_no_trim_first(d):
    # every state with an empty language falls into one block, numbered
    # in breadth-first order like the rest
    assert minimize(d) == minimize(trim(d))


@given(dfas())
# state 2 is unreachable; then a machine whose language is empty
@example(Dfa(2, ((1, 0), (0, 3), (2, 2), (3, 3)), 0, frozenset({1, 2}), 3))
@example(Dfa(2, ((1, 0), (2, 1), (2, 2)), 0, frozenset()))
@settings(max_examples=80, deadline=None)
def test_state_counts_match_trim_and_minimize(d):
    trimmed = trim(d)
    assert fsa.state_counts(d) == (
        d.num_states, trimmed.num_states, minimize(trimmed).num_states)


@given(dfas(), dfas())
@settings(max_examples=40, deadline=None)
def test_intersection_is_lower_bound(a, b):
    if a.alphabet_size != b.alphabet_size:
        return
    c = fsa.product([a, b])
    assert is_subset(c, a) and is_subset(c, b)
    # and no more: every short word both accept is accepted
    for n in range(5):
        for w in product(range(a.alphabet_size), repeat=n):
            assert c.accepts(w) == (a.accepts(w) and b.accepts(w)), w


@given(dfas(), st.data())
@settings(max_examples=40, deadline=None)
def test_minimize_reaches_fixed_point(d, data):
    m = minimize(d)
    assert minimize(m) == m
    # the output is canonical: trimming first, or numbering the states
    # another way with the initial state kept at 0, changes nothing
    assert minimize(trim(d)) == m
    new = [0] + data.draw(st.permutations(range(1, d.num_states)))
    delta = [()] * d.num_states
    for q, row in enumerate(d.delta):
        delta[new[q]] = tuple(new[r] for r in row)
    renumbered = Dfa(
        d.alphabet_size, tuple(delta), 0, frozenset(new[q] for q in d.finals),
    )
    assert minimize(renumbered) == m


def _run(d: Dfa, q: int, word) -> int:
    for c in word:
        q = d.delta[q][c]
    return q


@given(dfas())
@settings(max_examples=80, deadline=None)
def test_minimize_names_a_dead_state_iff_one_has_an_empty_language(d):
    # every reachable state is reached by a word of fewer than n letters
    reachable = {
        _run(d, d.initial, w) for length in range(d.num_states)
        for w in product(range(d.alphabet_size), repeat=length)
    }
    live = coreachable(d)
    m = minimize(d)
    assert (m.dead is not None) == any(not live[q] for q in reachable)
    assert m.dead is None or not coreachable(m)[m.dead]


@given(dfas())
@settings(max_examples=80, deadline=None)
def test_minimize_is_minimal(d):
    # every state is reachable, and no two states accept the same words up
    # to length n, which is long enough to separate any two states of an
    # n-state machine that accept different languages
    m = minimize(d)
    n = m.num_states
    words = [
        w for length in range(n + 1)
        for w in product(range(m.alphabet_size), repeat=length)
    ]
    assert {_run(m, m.initial, w) for w in words} == set(range(n))
    languages = {tuple(_run(m, q, w) in m.finals for w in words) for q in range(n)}
    assert len(languages) == n


@pytest.mark.parametrize("n", [1, 5, 30])
def test_minimize_collapses_a_long_chain(n):
    # exactly the words of length n over {0, 1}, with two copies of every
    # level: letter 0 leads to copy 0 of the next level and letter 1 to
    # copy 1.  Only suffixes of n letters tell the start from the dead
    # state, so the refinement needs a round per level; the copies merge,
    # leaving the n+1 levels and the dead state.
    dead = 2 * n + 1

    def level(i: int) -> tuple[int, int]:
        return (2 * i - 1, 2 * i) if i <= n else (dead, dead)

    delta = [level(1)]  # the start, level 0
    for i in range(1, n + 1):
        delta += [level(i + 1)] * 2
    delta.append((dead, dead))
    d = Dfa(2, tuple(delta), 0, frozenset(level(n)))
    m = minimize(d)
    assert m.num_states == n + 2
    assert m.dead == n + 1
    assert m.delta == tuple((i + 1, i + 1) for i in range(n + 1)) + ((n + 1, n + 1),)
    assert m.finals == frozenset({n})


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
    machines = draw(st.lists(prefix_closed_dfas(k), min_size=1, max_size=3))
    guide = draw(st.none() | prefix_closed_dfas(k))
    return machines, guide


@given(closure_inputs())
@settings(max_examples=100, deadline=None)
def test_rotation_closure_is_its_definition(inputs):
    # on every word up to length 6: accepted iff every rotation is in
    # every L(machine) (and the word in L(guide))
    machines, guide = inputs
    c = rotation_closure(machines, guide)
    for n in range(7):
        for w in product(range(c.alphabet_size), repeat=n):
            rotations = [w[i:] + w[:i] for i in range(max(n, 1))]
            want = all(a.accepts(r) for a in machines for r in rotations) and (
                guide is None or guide.accepts(w)
            )
            assert c.accepts(w) == want, w
