"""Recognizer for reduced expressions of cyclically fully commutative
elements, checked word-for-word against the brute-force oracle."""

import functools
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cfcgf import fsa, genfun, lexnf
from cfcgf.cfc_automaton import (
    EMPTY_CHAIN,
    build,
    finite_pairs,
    initial_state,
    transition,
)
from cfcgf.core import CoxeterSystem, INF, cyclic_shifts, parse_system, preset_system
from cfcgf.errors import BudgetError
from cfcgf.genfun import RationalGF
from cfcgf.oracle import count_elements, is_cfc, is_reduced_fc

INF_TRIANGLE = parse_system(
    '{"matrix": [[1, "inf", "inf"], ["inf", 1, "inf"], ["inf", "inf", 1]]}'
)
# finite and infinite labels meeting at one generator; braids here can close
# around the word's ends through letters commuting with only one chain end
MIXED_EDGE = parse_system('{"matrix": [[1, 3, 2], [3, 1, "inf"], [2, "inf", 1]]}')
TRIANGLE_4_INF_2 = parse_system(
    '{"matrix": [[1, 4, 2], [4, 1, "inf"], [2, "inf", 1]]}'
)

# discovery-order builds are reproducible, so the census is a stable
# artifact: raw states of the rotation closure, its sink included
EXPECTED_STATES = {
    "A1": 3,
    "A2": 6,
    "A3": 19,
    "A4": 100,
    "B2": 8,
    "B3": 34,
    "B4": 246,
    "D4": 96,
    "I2:5": 10,
    "I2:6": 12,
    "I2:7": 14,
    "tA1": 8,
    "tA2": 35,
    "tA3": 178,
}


def test_state_census_frozen():
    for name, expected in EXPECTED_STATES.items():
        assert build(preset_system(name)).num_states == expected, name
    assert build(INF_TRIANGLE).num_states == 14


def test_builds_are_reproducible():
    a = build(preset_system("B3"))
    b = build(preset_system("B3"))
    assert a.delta == b.delta
    assert a.finals == b.finals
    assert a.to_json() == b.to_json()


def test_a1_has_three_states():
    # initial, sink, and the state after reading the only generator
    a = build(preset_system("A1"))
    assert a.num_states == 3
    assert a.accepts(())
    assert a.accepts((0,))
    assert not a.accepts((0, 0))


def test_a2_language_is_exactly_five_words():
    a = build(preset_system("A2"))
    words = set(fsa.accepted_words(a, 8))
    assert words == {(), (0,), (1,), (0, 1), (1, 0)}


def test_a2_state_after_one_letter():
    # only 1 may follow; no watch; the chain of the pair {0,1} is "0"
    system = preset_system("A2")
    q = transition(system, finite_pairs(system), initial_state(system), 0)
    assert q == (0b10, 0, ((0, 1),))


def test_a2_accepts_01():
    assert build(preset_system("A2")).accepts((0, 1))


def test_i25_rejects_010_without_sinking():
    system = preset_system("I2:5")
    q = initial_state(system)
    for s in (0, 1, 0):
        q = transition(system, finite_pairs(system), q, s)
        assert q is not None
    assert not build(system).accepts((0, 1, 0))


EXHAUSTIVE = [
    ("A2", 8),
    ("A3", 7),
    ("B2", 8),
    ("B3", 6),
    ("I2:5", 8),
    ("I2:6", 8),
    ("I2:7", 8),
    ("tA1", 8),
    ("tA2", 6),
]


@pytest.mark.parametrize("name,max_len", EXHAUSTIVE)
def test_agrees_with_oracle_exhaustively(name, max_len):
    system = preset_system(name)
    a = build(system)
    for n in range(max_len + 1):
        for w in product(system.generators, repeat=n):
            assert a.accepts(w) == is_cfc(system, w), w


def test_agrees_with_oracle_on_infinite_labels():
    a = build(INF_TRIANGLE)
    for n in range(7):
        for w in product(INF_TRIANGLE.generators, repeat=n):
            assert a.accepts(w) == is_cfc(INF_TRIANGLE, w), w


def test_fc_mode_recognizes_reduced_fc_words():
    system = preset_system("A3")
    a = build(system, mode="fc")
    for n in range(7):
        for w in product(system.generators, repeat=n):
            assert a.accepts(w) == is_reduced_fc(system, w), w


def test_fc_mode_contains_cfc_mode():
    for name in ("A3", "B3", "I2:5", "tA2"):
        system = preset_system(name)
        assert fsa.is_subset(build(system), build(system, mode="fc"))


def test_accepted_language_is_rotation_closed():
    for name in ("A2", "B2", "I2:5", "I2:6", "tA1", "tA2"):
        system = preset_system(name)
        a = build(system)
        for w in fsa.accepted_words(a, 8):
            for r in cyclic_shifts(w):
                assert a.accepts(r), (w, r)


def _reachable_states(system, max_depth):
    pairs = finite_pairs(system)
    seen = {initial_state(system)}
    frontier = list(seen)
    for _ in range(max_depth):
        nxt = []
        for q in frontier:
            for s in system.generators:
                r = transition(system, pairs, q, s)
                if r is not None and r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return pairs, seen


@pytest.mark.parametrize("name", ["A3", "B3", "I2:5", "tA2", "tA3"])
def test_chain_record_invariants(name):
    system = preset_system(name)
    pairs, states = _reachable_states(system, 12)
    for e, watch, chains in states:
        # a watched letter is legal: reading it is reduced but not FC
        assert watch & ~e == 0
        for pair, (last, n) in zip(pairs, chains):
            assert 0 <= n <= pair.m - 1
            assert (n == 0) == ((last, n) == EMPTY_CHAIN)
            if n:
                assert last in (pair.s, pair.t)
                # the chain's last letter ends some word of the class
                assert not (e >> last) & 1
            if n == pair.m - 1:
                other = pair.t if last == pair.s else pair.s
                assert (watch >> other) & 1


def _state_after(system, word):
    q = initial_state(system)
    for s in word:
        q = transition(system, finite_pairs(system), q, s)
    return q


def test_watch_flag_semantics_differ_from_marking_of_last_letter():
    # 021 in A3: both chains reach length 2 on the final 1, which arms
    # watches on 0 and 2, so neither may follow; rotating the word's head
    # away never yields a braid, and the word is accepted.
    system = preset_system("A3")
    assert is_cfc(system, (0, 2, 1))
    assert _state_after(system, (0, 2, 1))[1] == 0b101
    assert build(system).accepts((0, 2, 1))
    # same story one rank up, with one watch
    system = preset_system("A4")
    assert is_cfc(system, (1, 3, 0, 2))
    assert _state_after(system, (1, 3, 0, 2))[1] == 0b1000
    assert build(system).accepts((1, 3, 0, 2))


def test_wrap_check_keeps_separated_chain_words():
    # no rotation of 0201 brings its two 0s together
    assert is_cfc(INF_TRIANGLE, (0, 2, 0, 1))
    assert build(INF_TRIANGLE).accepts((0, 2, 0, 1))


def test_braid_closing_through_a_one_sided_commuter_is_rejected():
    # in the rank-4 path with labels 3,3,4 the final 2 of 01232 rotates to
    # the front, slides past the 0 (which commutes with 2 but not 1), and
    # completes the braid 212; the word itself is reduced and FC
    system = preset_system("B4")
    word = (0, 1, 2, 3, 2)
    assert not is_cfc(system, word)
    assert build(system, "fc").accepts(word)
    assert not build(system).accepts(word)
    # same mechanism with an infinite label in the way
    for word in ((2, 1, 0, 2, 1, 2, 1, 0), (2, 1, 2, 0, 1, 2, 1, 0)):
        assert not is_cfc(MIXED_EDGE, word)
        assert not build(MIXED_EDGE).accepts(word)


def test_agrees_with_oracle_on_mixed_labels_exhaustively():
    a = build(MIXED_EDGE)
    for n in range(9):
        for w in product(MIXED_EDGE.generators, repeat=n):
            assert a.accepts(w) == is_cfc(MIXED_EDGE, w), w


def test_agrees_with_oracle_on_b4_exhaustively():
    system = preset_system("B4")
    a = build(system)
    for n in range(7):
        for w in product(system.generators, repeat=n):
            assert a.accepts(w) == is_cfc(system, w), w


def test_known_limit_of_the_bounded_summaries():
    # with labels 4/inf/2 an earlier builder drove the words
    # (2,1,0,1,2,1,0) [not cyclically fine] and (2,1,2,1,0,1,2,1,0)
    # [cyclically fine] into one state and rejected both.  The rotation
    # closure keeps every split of the word, so it tells them apart.
    bad, good = (2, 1, 0, 1, 2, 1, 0), (2, 1, 2, 1, 0, 1, 2, 1, 0)
    assert not is_cfc(TRIANGLE_4_INF_2, bad) and is_cfc(TRIANGLE_4_INF_2, good)
    for mode in ("cfc", "pipeline"):
        a = build(TRIANGLE_4_INF_2, mode)
        assert not a.accepts(bad)
        assert a.accepts(good)


# the six length-11 words an earlier tA5 pipeline accepted, although brute
# force counts no CFC element of that length
TA5_WRONG_WORDS = [
    (0, 1, 2, 5, 0, 1, 4, 3, 2, 5, 4),
    (1, 0, 2, 1, 3, 2, 5, 0, 4, 3, 5),
    (2, 1, 0, 3, 2, 1, 4, 3, 5, 0, 4),
    (3, 2, 1, 4, 3, 2, 5, 0, 1, 4, 5),
    (4, 3, 2, 5, 0, 1, 4, 3, 2, 5, 0),
    (5, 0, 1, 4, 3, 2, 5, 0, 1, 4, 3),
]


def test_wrong_words_of_the_rank_6_cycle_found_on_live_prefixes():
    # the pipeline rejects them and accepts no word of length 11 at all.
    # Trimmed, it has one dead state, so the witness search behind
    # `verify` walks only prefixes of accepted words.
    system = preset_system("tA5")
    a = fsa.trim(build(system, "pipeline"))
    assert not any(a.accepts(w) for w in TA5_WRONG_WORDS)
    assert not [w for w in fsa.accepted_words(a, 11) if len(w) == 11]
    assert not any(is_cfc(system, w) for w in TA5_WRONG_WORDS)


@functools.cache
def _pipeline(name):
    return fsa.minimize(fsa.trim(build(preset_system(name), "pipeline")))


# the shortest words an earlier pipeline wrongly accepted on the affine
# cycles tA_n, each of length 2n+1.  oracle.is_cfc rejects them, but takes
# seconds on the tA6 word and about a minute on the tA7 one, so those
# verdicts run only with the slow marker
AFFINE_WRONG_WORDS = {
    "tA5": (0, 1, 2, 5, 0, 1, 4, 3, 2, 5, 4),
    "tA6": (0, 1, 2, 3, 6, 0, 1, 2, 5, 4, 3, 6, 5),
    "tA7": (0, 1, 2, 3, 4, 7, 0, 1, 2, 3, 6, 5, 4, 7, 6),
}


@pytest.mark.parametrize("name", sorted(AFFINE_WRONG_WORDS))
def test_pipeline_rejects_the_affine_defect_words(name):
    assert not _pipeline(name).accepts(AFFINE_WRONG_WORDS[name])


@pytest.mark.slow
@pytest.mark.parametrize("name", ["tA6", "tA7"])
def test_affine_defect_words_are_not_cfc(name):
    assert not is_cfc(preset_system(name), AFFINE_WRONG_WORDS[name])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_affine_cycle_counts_are_periodic(n):
    # past length n+1 the CFC elements of tA_n come only at the multiples
    # of n+1, always 2^(n+1) - 2 of them
    counts = genfun.count_by_length(_pipeline(f"tA{n}"), 4 * (n + 1))
    for length in range(n + 1, len(counts)):
        want = 2 ** (n + 1) - 2 if length % (n + 1) == 0 else 0
        assert counts[length] == want, length


def test_exact_generating_function_of_the_rank_6_cycle():
    gf = genfun.genfun_of_dfa(_pipeline("tA5"))
    num = (1, 6, 21, 50, 84, 96, 61, -6, -21, -50, -84, -96)
    assert gf == RationalGF(num, (1, 0, 0, 0, 0, 0, -1))


def test_triangle_4_inf_2_counts_past_the_brute_force_suite():
    # an earlier builder found 23, 48 and 81 here
    counts = genfun.count_by_length(build(TRIANGLE_4_INF_2, "pipeline"), 12)
    assert (counts[9], counts[11], counts[12]) == (24, 50, 82)


def test_mixed_edge_counts_agree_with_brute_force():
    # an earlier builder found 7 at length 10 and 14 at length 12
    a = build(MIXED_EDGE, "pipeline")
    counts = genfun.count_by_length(a, 12)
    assert counts == count_elements(MIXED_EDGE, 12).counts()
    assert (counts[10], counts[12]) == (8, 16)
    witness = (2, 1, 2, 1, 0, 2, 1, 2, 1, 0)
    assert is_cfc(MIXED_EDGE, witness)
    assert a.accepts(witness)


def test_state_budget_is_enforced():
    with pytest.raises(BudgetError):
        build(preset_system("B3"), state_budget=5)


@pytest.mark.parametrize("mode", ["cfc", "fc"])
def test_state_budget_counts_every_state(mode):
    # B3 needs 34 states in cfc mode and 16 in fc mode, the sink among them
    states = {"cfc": 34, "fc": 16}[mode]
    assert build(preset_system("B3"), mode, state_budget=states).num_states == states
    with pytest.raises(BudgetError):
        build(preset_system("B3"), mode, state_budget=states - 1)


def _closure_over_transition(system):
    """Reference for the linear recognizer: a plain breadth-first closure,
    one `transition` call per state and letter, with the same numbering."""
    pairs = finite_pairs(system)
    start = initial_state(system)
    numbered = {start: 0}
    order = [start, None]  # id 1 is the sink
    delta = []
    for q in order:
        if q is None:
            delta.append((1,) * system.rank)
            continue
        row = []
        for s in system.generators:
            r = transition(system, pairs, q, s)
            if r is None:
                row.append(1)
                continue
            if r not in numbered:
                numbered[r] = len(order)
                order.append(r)
            row.append(numbered[r])
        delta.append(tuple(row))
    return tuple(delta), frozenset(range(len(order))) - {1}


def _survives_every_rotation(system, word):
    for rotated in cyclic_shifts(word):
        q = initial_state(system)
        for s in rotated:
            q = transition(system, finite_pairs(system), q, s)
            if q is None:
                return False
    return True


@pytest.mark.parametrize("mode", ["cfc", "fc"])
@pytest.mark.parametrize(
    "system",
    [preset_system(n) for n in ("tA4", "tA5", "A6", "B5", "D5", "I2:inf")]
    + [INF_TRIANGLE, TRIANGLE_4_INF_2, MIXED_EDGE],
    ids=["tA4", "tA5", "A6", "B5", "D5", "I2:inf", "inf-triangle",
         "4-inf-2-triangle", "mixed-edge"],
)
def test_build_equals_the_closure_over_transition(system, mode):
    linear = build(system, "fc")
    if mode == "fc":
        assert (linear.delta, linear.finals) == _closure_over_transition(system)
        return
    # the cyclic machine accepts exactly the words all of whose rotations
    # `transition` reads without reaching the sink
    cyclic = build(system, "cfc")
    want = [
        w for w in fsa.accepted_words(linear, 6)
        if _survives_every_rotation(system, w)
    ]
    assert fsa.accepted_words(cyclic, 6) == want


def test_rejects_bad_mode():
    with pytest.raises(ValueError):
        build(preset_system("A2"), mode="nonsense")


@st.composite
def small_systems(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    labels = {}
    for a in range(rank):
        for b in range(a + 1, rank):
            labels[(a, b)] = draw(
                st.sampled_from([2, 2, 3, 3, 4, 5, INF])
            )
    rows = []
    for a in range(rank):
        row = []
        for b in range(rank):
            if a == b:
                row.append(1)
            else:
                row.append(labels[(min(a, b), max(a, b))])
        rows.append(tuple(row))
    return CoxeterSystem(matrix=tuple(rows))


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.data())
def test_agrees_with_oracle_on_random_systems(system, data):
    word = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=system.rank - 1),
                max_size=7,
            )
        )
    )
    assert build(system).accepts(word) == is_cfc(system, word)


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.data())
def test_acceptance_is_rotation_invariant_on_random_systems(system, data):
    word = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=system.rank - 1),
                min_size=1,
                max_size=7,
            )
        )
    )
    a = build(system)
    shifted = word[1:] + word[:1]
    assert a.accepts(word) == a.accepts(shifted)
