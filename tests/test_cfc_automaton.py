"""Recognizer for reduced expressions of cyclically fully commutative
elements, checked word-for-word against the brute-force oracle."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cfcgf import fsa, lexnf
from cfcgf.cfc_automaton import (
    build,
    initial_state,
    state_debug_dict,
    transition,
)
from cfcgf.core import CoxeterSystem, INF, cyclic_shifts, parse_system, preset_system
from cfcgf.errors import BudgetError
from cfcgf.oracle import is_cfc, is_reduced_fc

INF_TRIANGLE = parse_system(
    '{"matrix": [[1, "inf", "inf"], ["inf", 1, "inf"], ["inf", "inf", 1]]}'
)
# finite and infinite labels meeting at one generator; braids here can close
# around the word's ends through letters commuting with only one chain end
MIXED_EDGE = parse_system('{"matrix": [[1, 3, 2], [3, 1, "inf"], [2, "inf", 1]]}')
TRIANGLE_4_INF_2 = parse_system(
    '{"matrix": [[1, 4, 2], [4, 1, "inf"], [2, "inf", 1]]}'
)

# discovery-order builds are reproducible, so the census is a stable artifact
EXPECTED_STATES = {
    "A1": 3,
    "A2": 6,
    "A3": 15,
    "A4": 43,
    "B2": 8,
    "B3": 25,
    "B4": 84,
    "D4": 49,
    "I2:5": 10,
    "I2:6": 12,
    "I2:7": 14,
    "tA1": 8,
    "tA2": 29,
    "tA3": 104,
}


def test_state_census_frozen():
    for name, expected in EXPECTED_STATES.items():
        assert build(preset_system(name)).num_states == expected, name
    assert build(INF_TRIANGLE).num_states == 161


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
    system = preset_system("A2")
    tracked = system.tracked_pairs()
    q = transition(system, tracked, initial_state(system, tracked), 0)
    assert q is not None
    assert state_debug_dict(system, tracked, q) == {
        "e": ["1"],
        "eprime": [],
        "pairs": {"0-1": {"cc": ["_0"], "ic": ["0"], "b": [True, True]}},
    }


def test_a2_accepts_01():
    assert build(preset_system("A2")).accepts((0, 1))


def test_i25_rejects_010_without_sinking():
    system = preset_system("I2:5")
    tracked = system.tracked_pairs()
    q = initial_state(system, tracked)
    for s in (0, 1, 0):
        q = transition(system, tracked, q, s)
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
    tracked = system.tracked_pairs()
    seen = {initial_state(system, tracked)}
    frontier = list(seen)
    for _ in range(max_depth):
        nxt = []
        for q in frontier:
            for s in system.generators:
                r = transition(system, tracked, q, s)
                if r is not None and r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return tracked, seen


@pytest.mark.parametrize("name", ["A3", "B3", "I2:5", "tA2", "tA3"])
def test_chain_record_invariants(name):
    system = preset_system(name)
    tracked, states = _reachable_states(system, 12)
    for q in states:
        for pair, rec in zip(tracked, q.pairs):
            if pair.unbounded:
                continue
            marks = [u for _, u in rec.cc]
            letters = [g for g, _ in rec.cc]
            # underlines are a prefix of the chain and letters alternate
            assert marks == sorted(marks, reverse=True)
            assert all(a != b for a, b in zip(letters, letters[1:]))
            assert all(a != b for a, b in zip(rec.ic, rec.ic[1:]))
            assert len(rec.cc) <= pair.m - 1
            assert len(rec.ic) <= pair.m - 1
            # a live completion flag promises the whole chain moves to IC
            if rec.b_s or rec.b_t:
                assert all(marks)
            shared = sum(1 for u in marks if u)
            assert tuple(letters[:shared]) == rec.ic[len(rec.ic) - shared:]


def _state_after(system, word):
    tracked = system.tracked_pairs()
    q = initial_state(system, tracked)
    for s in word:
        q = transition(system, tracked, q, s)
    return q


def test_watch_flag_semantics_differ_from_marking_of_last_letter():
    # 021 in A3: the completed chain swallowed the whole initial chain, so
    # rotating its head away never yields a braid.  The watches the final,
    # unmarked 1 arms are exempt, and the word is accepted.
    system = preset_system("A3")
    assert is_cfc(system, (0, 2, 1))
    assert _state_after(system, (0, 2, 1)).eprime == {(0, 1, True), (2, 1, True)}
    assert build(system).accepts((0, 2, 1))
    # same story one rank up
    system = preset_system("A4")
    assert is_cfc(system, (1, 3, 0, 2))
    assert _state_after(system, (1, 3, 0, 2)).eprime == {(3, 2, True)}
    assert build(system).accepts((1, 3, 0, 2))


def test_wrap_check_keeps_separated_chain_words():
    # the cyclic closure only matters when the whole chain sits in IC;
    # here the chain is split around interior letters and the word is fine
    assert is_cfc(INF_TRIANGLE, (0, 2, 0, 1))
    assert build(INF_TRIANGLE).accepts((0, 2, 0, 1))


def test_braid_closing_through_a_one_sided_commuter_is_rejected():
    # in the rank-4 path with labels 3,3,4 the final 2 of 01232 rotates to
    # the front, slides past the 0 (which commutes with 2 but not 1), and
    # completes the braid 212; the chain records alone cannot see this
    system = preset_system("B4")
    word = (0, 1, 2, 3, 2)
    assert not is_cfc(system, word)
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
    # with labels 4/inf/2 the words (2,1,0,1,2,1,0) [not cyclically fine]
    # and (2,1,2,1,0,1,2,1,0) [cyclically fine] drive the automaton into
    # the same state: the bounded summary for the infinite pair forgets how
    # much of the front run lies beyond the blocked initial chain, so no
    # acceptance rule over these states can get both words right.  The
    # build keeps the conservative verdict; the verifier reports the
    # disagreement rather than hiding it.
    system = parse_system('{"matrix": [[1, 4, 2], [4, 1, "inf"], [2, "inf", 1]]}')
    tracked = system.tracked_pairs()
    bad, good = (2, 1, 0, 1, 2, 1, 0), (2, 1, 2, 1, 0, 1, 2, 1, 0)
    assert not is_cfc(system, bad) and is_cfc(system, good)
    states = []
    for word in (bad, good):
        q = initial_state(system, tracked)
        for s in word:
            q = transition(system, tracked, q, s)
        states.append(q)
    assert states[0] == states[1]  # provably inseparable here
    a = build(system)
    assert not a.accepts(bad)  # the witness-first rule stays conservative
    assert not a.accepts(good)  # ... at the documented cost of this word


def test_wrong_words_of_the_rank_6_cycle_found_on_live_prefixes():
    # the tA5 pipeline accepts six length-11 words although no CFC element
    # of that length exists (brute force counts 0).  Trimmed, the pipeline
    # has one dead state, so the witness search behind `verify` walks only
    # prefixes of accepted words; on the raw product it walked all 6^11
    # words and ran out of memory.
    system = preset_system("tA5")
    a = fsa.trim(fsa.intersect(build(system), lexnf.build(system)))
    wrong = [w for w in fsa.accepted_words(a, 11) if len(w) == 11]
    assert len(wrong) == 6
    assert (0, 1, 2, 5, 0, 1, 4, 3, 2, 5, 4) in wrong
    assert not any(is_cfc(system, w) for w in wrong)


def test_state_budget_is_enforced():
    with pytest.raises(BudgetError):
        build(preset_system("B3"), state_budget=5)


@pytest.mark.parametrize("mode", ["cfc", "fc"])
def test_state_budget_counts_every_state(mode):
    # B3 needs 25 states, the sink among them
    assert build(preset_system("B3"), mode, state_budget=25).num_states == 25
    with pytest.raises(BudgetError):
        build(preset_system("B3"), mode, state_budget=24)


def _closure_over_transition(system, mode):
    """Reference for `build`: the same closure, one `transition` call per
    state and letter, with the same numbering and acceptance rule."""
    tracked = system.tracked_pairs()
    start = initial_state(system, tracked)
    numbered = {start: 0}
    order = [start, None]  # id 1 is the sink
    words = {0: ()}
    delta = []
    for qid, q in enumerate(order):
        if q is None:
            delta.append((1,) * system.rank)
            continue
        row = []
        for s in system.generators:
            r = transition(system, tracked, q, s)
            if r is None:
                row.append(1)
                continue
            if r not in numbered:
                numbered[r] = len(order)
                words[len(order)] = words[qid] + (s,)
                order.append(r)
            row.append(numbered[r])
        delta.append(tuple(row))

    def survives(word):
        for rotated in cyclic_shifts(word):
            q = 0
            for s in rotated:
                q = delta[q][s]
            if q == 1:
                return False
        return True

    if mode == "fc":
        finals = set(range(len(order))) - {1}
    else:
        finals = {qid for qid, word in words.items() if survives(word)}
    return tuple(delta), frozenset(finals)


@pytest.mark.parametrize("mode", ["cfc", "fc"])
@pytest.mark.parametrize(
    "system",
    [preset_system(n) for n in ("tA4", "tA5", "A6", "B5", "D5", "I2:inf")]
    + [INF_TRIANGLE, TRIANGLE_4_INF_2, MIXED_EDGE],
    ids=["tA4", "tA5", "A6", "B5", "D5", "I2:inf", "inf-triangle",
         "4-inf-2-triangle", "mixed-edge"],
)
def test_build_equals_the_closure_over_transition(system, mode):
    a = build(system, mode)
    assert (a.delta, a.finals) == _closure_over_transition(system, mode)


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
