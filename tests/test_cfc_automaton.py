"""Recognizer for reduced expressions of cyclically fully commutative
elements, checked word-for-word against the brute-force oracle."""

import functools
import hashlib
import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from cfcgf import cfc_automaton, fsa, genfun, lexnf
from cfcgf.cfc_automaton import (
    EMPTY_CHAIN,
    _letter_step,
    _pair_step,
    build,
    finite_pairs,
)
from cfcgf.core import (
    CoxeterSystem,
    INF,
    cyclic_shifts,
    diagram,
    parse_system,
    preset_system,
)
from cfcgf.errors import BudgetError
from cfcgf.genfun import RationalGF
from cfcgf.oracle import count_elements, is_cfc, is_reduced_fc
from helpers import accepted_words, count_words, is_subset, to_json

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
# artifact: raw states of the product of the closed factors, its sink
# included
EXPECTED_STATES = {
    "A1": 3,
    "A2": 5,
    "A3": 15,
    "A4": 43,
    "B2": 5,
    "B3": 25,
    "B4": 84,
    "D4": 49,
    "I2:5": 9,
    "I2:6": 9,
    "I2:7": 13,
    "tA1": 8,
    "tA2": 29,
    "tA3": 100,
}


def test_state_census_frozen():
    for name, expected in EXPECTED_STATES.items():
        assert build(preset_system(name)).num_states == expected, name
    assert build(INF_TRIANGLE).num_states == 14
    # a rank-2 system with a finite label has one factor, its pair
    # factor, and the product of that one closed factor is minimal
    for name in ("A2", "B2", "I2:5", "I2:6", "I2:7"):
        a = build(preset_system(name))
        assert a.num_states == fsa.minimize(a).num_states, name
    assert build(preset_system("A6"), "cfc").num_states == 430
    # states with no accepting future are cut while the closure is built
    assert build(preset_system("A7"), "pipeline").num_states == 611
    # on a cycle the cut must follow the guide to remove anything
    for name, expected in (("tA5", 992), ("tA6", 2765), ("tA7", 7477)):
        assert build(preset_system(name), "pipeline").num_states == expected, name


# the raw machines the benchmark's build workload emits, for their preset
# names: fsa.state_counts and the SHA-256 of the JSON of the pipeline,
# then of the fc machine
BUILD_CENSUS = {
    "tA6": ((2765, 2754, 1292),
            "5727dd29168c4c363fc9f796052473eeb841d8e0ba1395e39aa08785da9baf33",
            (366, 366, 366),
            "66fbe5868a4e70a9504c5572dbe7f103109994af573a3c3578698f30cf35df66"),
    "tA7": ((7477, 7403, 2884),
            "578c2f08fbcf7ad54f16242035ccd013cdcd391dad08664d599069de2430051f",
            (852, 852, 852),
            "9e01981df4ebcf6d59b64e51a3ce1a9ce27cb1e8da2acd34bddb233d4244b44b"),
    "A8": ((1598, 1598, 94),
           "b145579538dfe632036a1e9d4d136d426cc2fc18611b28b365389fee67606407",
           (817, 817, 810),
           "92d738b4c66474948f2fef77242512efeecebe5ce56793b979eb524fdb46d345"),
    "A9": ((4182, 4182, 131),
           "c668f9dd05448c890e6eb150fb5f5a7cfcb3174c11536d6c159ce10f7fc266c5",
           (1898, 1898, 1890),
           "516c457a149e409cae0bdff1d1382b116732d9e4820a9d0783db1651cf868581"),
    "B7": ((755, 611, 65),
           "311c1b2bee1611f14d7ad59ae26a596a7b5cfe2091d3113d8eab4a3ca7df510f",
           (445, 445, 440),
           "35030ec88039148f781122e9ee2e81207daa26c9e88d8ee2e66c15a79899ea68"),
    "D7": ((734, 632, 75),
           "49ad3ebe602c2ea06f0bc8b623b63cbb9186b2706f443d96279f035938cb869e",
           (393, 393, 387),
           "278200479ff1c019388a3b02fb222708a75f1595d64b4436dec0c749bf4263ec"),
}


@pytest.mark.parametrize("name", BUILD_CENSUS)
def test_build_workload_machines_frozen(name):
    pipeline_counts, pipeline_digest, fc_counts, fc_digest = BUILD_CENSUS[name]
    system = preset_system(name)
    for stage, counts, digest in [("pipeline", pipeline_counts, pipeline_digest),
                                  ("fc", fc_counts, fc_digest)]:
        a = build(system, stage)
        assert fsa.state_counts(a) == counts, stage
        assert hashlib.sha256(to_json(a, system.names).encode()).hexdigest() == digest


# the raw cfc-stage machines, for their preset names: the number of
# states and the SHA-256 of the JSON
CFC_CENSUS = {
    "tA5": (1349, "944e27fdb9f357743194309aa61780d859eefefa1faf3ad9e9a811579438dc79"),
    "tA6": (5007, "9c5eba9866f5d1358531b5b23865ae899b7f9666c040f1a425cfa030152ad3e1"),
    "A7": (1431, "6db537806665f12a873796b466b32fb151a66b5a73dc84c8546f6a6ed4100753"),
    "B6": (1056, "3afaad4419f24faeb31187979c4c6fa15f142ab465707251a819d59b9ad278ac"),
}


@pytest.mark.parametrize("name", CFC_CENSUS)
def test_cfc_stage_machines_frozen(name):
    states, digest = CFC_CENSUS[name]
    system = preset_system(name)
    a = build(system, "cfc")
    assert a.num_states == states
    assert hashlib.sha256(to_json(a, system.names).encode()).hexdigest() == digest


# no preset's pipeline merges two packed Ts into one T class, so only
# these systems, two of 150 seeded random ones, test that merge: 595
# packed Ts fall into 584 classes, and 152 into 146.  For each, as in
# BUILD_CENSUS, the raw pipeline then the raw cfc-stage machine
MERGE_CENSUS = {
    '[[1, 6, 2, 5], [6, 1, "inf", 4], [2, "inf", 1, "inf"], [5, 4, "inf", 1]]':
        ((709, 709, 551),
         "76f99a64f3038f7adcc621d97171614415e89a2b20d2ae52a26c3ec06195d5d2",
         (625, 625, 576),
         "0810688e17677f4cd34d0a2dc3b29035b663a07f322395792fcd1d18d5fb0f19"),
    '[[1, 4, 2, 3], [4, 1, "inf", "inf"], [2, "inf", 1, "inf"], [3, "inf", "inf", 1]]':
        ((181, 181, 130),
         "9cec923caee566d64158a3f52750b1cd87c5dae953c30c1454c96cc5872e5044",
         (168, 168, 143),
         "48e80421f05acff708afa9e396a29c667a09838f37c67639b763b1dde587d855"),
}


@pytest.mark.parametrize("matrix", MERGE_CENSUS)
def test_machines_that_merge_t_classes_frozen(matrix):
    pipeline_counts, pipeline_digest, cfc_counts, cfc_digest = MERGE_CENSUS[matrix]
    system = parse_system(f'{{"matrix": {matrix}}}')
    for stage, counts, digest in [("pipeline", pipeline_counts, pipeline_digest),
                                  ("cfc", cfc_counts, cfc_digest)]:
        a = build(system, stage)
        assert fsa.state_counts(a) == counts, stage
        assert hashlib.sha256(to_json(a, system.names).encode()).hexdigest() == digest


def _random_system(rng):
    rank = rng.randint(2, 4)
    m = [[1] * rank for _ in range(rank)]
    for a in range(rank):
        for b in range(a + 1, rank):
            m[a][b] = m[b][a] = rng.choice([2, 2, 3, 3, 4, 5, 6, INF])
    return CoxeterSystem(tuple(map(tuple, m)))


RAW_PRESETS = [*(f"tA{n}" for n in range(1, 8)), *(f"A{n}" for n in range(1, 10)),
               *(f"B{n}" for n in range(2, 8)), *(f"D{n}" for n in range(4, 8)),
               "I2:5", "I2:6", "I2:inf"]
RAW_DIGEST = "71cc89d295624a70eaa767de5025036614529eeca005963448efca0bcd88f2db"


@pytest.mark.slow
def test_raw_machines_frozen_on_presets_triangles_and_random_systems():
    # one SHA-256 over the JSON and fsa.state_counts of the raw machine
    # of every stage, on 29 presets, two triangles and 300 systems drawn
    # from seed 0: any change to a builder's states or their numbering
    # shows here
    rng = random.Random(0)
    systems = ([preset_system(n) for n in RAW_PRESETS]
               + [TRIANGLE_4_INF_2, diagram(3, [(0, 1, 3), (1, 2, 3), (0, 2, 4)])]
               + [_random_system(rng) for _ in range(300)])
    digest = hashlib.sha256()
    for system in systems:
        for stage in ("fc", "cfc", "pipeline", "lexnf"):
            a = build(system, stage)
            for piece in a.json_pieces(system.names):
                digest.update(piece.encode())
            digest.update(repr(fsa.state_counts(a)).encode())
    assert digest.hexdigest() == RAW_DIGEST


def test_builds_are_reproducible():
    a = build(preset_system("B3"))
    b = build(preset_system("B3"))
    assert a.delta == b.delta
    assert a.finals == b.finals
    assert a == b


def test_a1_has_three_states():
    # initial, sink, and the state after reading the only generator
    a = build(preset_system("A1"))
    assert a.num_states == 3
    assert a.accepts(())
    assert a.accepts((0,))
    assert not a.accepts((0, 0))


def test_a2_language_is_exactly_five_words():
    a = build(preset_system("A2"))
    words = set(accepted_words(a, 8))
    assert words == {(), (0,), (1,), (0, 1), (1, 0)}


def _start(system):
    """The factor states of the empty word: every letter legal, and every
    pair with an empty chain and no watch."""
    return (1,) * system.rank, ((EMPTY_CHAIN, 0),) * len(finite_pairs(system))


def _step(system, q, c):
    """The factor states q after reading c, each factor stepped by its own
    rule, or None once some factor reaches its sink."""
    legal, pairs = q
    legal = tuple(_letter_step(system, s, b, c) for s, b in enumerate(legal))
    pairs = tuple(_pair_step(system, pair, x, c)
                  for pair, x in zip(finite_pairs(system), pairs))
    return None if None in legal or None in pairs else (legal, pairs)


def _meaning(q):
    """(e, watch, chains) of the factor states q: the mask of legal
    letters, the union of the pair watches, and the pair chains."""
    legal, pairs = q
    watch = 0
    for _, pair_watch in pairs:
        watch |= pair_watch
    return (sum(b << s for s, b in enumerate(legal)), watch,
            tuple(chain for chain, _ in pairs))


def _state_after(system, word):
    q = _start(system)
    for s in word:
        q = _step(system, q, s)
        if q is None:
            return None
    return _meaning(q)


def test_a2_state_after_one_letter():
    # only 1 may follow; no watch; the chain of the pair {0,1} is "0"
    system = preset_system("A2")
    assert _step(system, _start(system), 0) == ((0, 1), (((0, 1), 0),))
    assert _state_after(system, (0,)) == (0b10, 0, ((0, 1),))


def test_a2_accepts_01():
    assert build(preset_system("A2")).accepts((0, 1))


def test_i25_rejects_010_without_sinking():
    system = preset_system("I2:5")
    q = _start(system)
    for s in (0, 1, 0):
        q = _step(system, q, s)
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
        assert is_subset(build(system), build(system, mode="fc"))


def test_accepted_language_is_rotation_closed():
    for name in ("A2", "B2", "I2:5", "I2:6", "tA1", "tA2"):
        system = preset_system(name)
        a = build(system)
        for w in accepted_words(a, 8):
            for r in cyclic_shifts(w):
                assert a.accepts(r), (w, r)


def _reachable_states(system, max_depth):
    seen = {_start(system)}
    frontier = list(seen)
    for _ in range(max_depth):
        nxt = []
        for q in frontier:
            for s in system.generators:
                r = _step(system, q, s)
                if r is not None and r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


@pytest.mark.parametrize("name", ["A3", "B3", "I2:5", "tA2", "tA3"])
def test_chain_record_invariants(name):
    system = preset_system(name)
    pairs = finite_pairs(system)
    for q in _reachable_states(system, 12):
        e, watch, chains = _meaning(q)
        # a watched letter is legal: reading it is reduced but not FC
        assert watch & ~e == 0
        for pair, (last, n), (_, pair_watch) in zip(pairs, chains, q[1]):
            # a pair watches only its own letters
            assert pair_watch & ~(1 << pair.s | 1 << pair.t) == 0
            assert 0 <= n <= pair.m - 1
            assert (n == 0) == ((last, n) == EMPTY_CHAIN)
            if n:
                assert last in (pair.s, pair.t)
                # the chain's last letter ends some word of the class
                assert not (e >> last) & 1
            if n == pair.m - 1:
                other = pair.t if last == pair.s else pair.s
                assert (pair_watch >> other) & 1


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
    assert not [w for w in accepted_words(a, 11) if len(w) == 11]
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
    counts = count_words(_pipeline(f"tA{n}"), 4 * (n + 1))
    for length in range(n + 1, len(counts)):
        want = 2 ** (n + 1) - 2 if length % (n + 1) == 0 else 0
        assert counts[length] == want, length


def test_exact_generating_function_of_the_rank_6_cycle():
    gf = genfun.counted_genfun(_pipeline("tA5"))[1]
    num = (1, 6, 21, 50, 84, 96, 61, -6, -21, -50, -84, -96)
    assert gf == RationalGF(num, (1, 0, 0, 0, 0, 0, -1))


def test_triangle_4_inf_2_counts_past_the_brute_force_suite():
    # an earlier builder found 23, 48 and 81 here
    counts = count_words(build(TRIANGLE_4_INF_2, "pipeline"), 12)
    assert (counts[9], counts[11], counts[12]) == (24, 50, 82)


def test_mixed_edge_counts_agree_with_brute_force():
    # an earlier builder found 7 at length 10 and 14 at length 12
    a = build(MIXED_EDGE, "pipeline")
    counts = count_words(a, 12)
    assert counts == count_elements(MIXED_EDGE, 12).counts()
    assert (counts[10], counts[12]) == (8, 16)
    witness = (2, 1, 2, 1, 0, 2, 1, 2, 1, 0)
    assert is_cfc(MIXED_EDGE, witness)
    assert a.accepts(witness)


def test_state_budget_is_enforced():
    with pytest.raises(BudgetError):
        build(preset_system("B3"), state_budget=5)
    # a pair factor grows with its label, and is built under the budget too
    with pytest.raises(BudgetError):
        build(preset_system("I2:1000000"), "fc", state_budget=100)


def test_letter_factors_are_built_under_the_state_budget():
    # tA1 has no finite pair, so its factors are two 3-state letter factors
    with pytest.raises(BudgetError):
        cfc_automaton.factors(preset_system("tA1"), state_budget=2)


@pytest.mark.parametrize("mode", ["cfc", "fc"])
def test_state_budget_counts_every_state(mode):
    # in fc mode the largest machine B3 needs is the product, 16 states; in
    # cfc mode it is the raw closure of the label-4 pair factor, 89 states,
    # and the product has 25.  The sink is counted in each.
    budget, states = {"cfc": (89, 25), "fc": (16, 16)}[mode]
    assert build(preset_system("B3"), mode, state_budget=budget).num_states == states
    with pytest.raises(BudgetError):
        build(preset_system("B3"), mode, state_budget=budget - 1)


def _closure_over_transition(system):
    """Reference for the linear recognizer: a plain breadth-first product
    of the factor steps, its states tuples, one `_step` call per state and
    letter, with the same numbering."""
    start = _start(system)
    numbered = {start: 0}
    order = [start, None]  # id 1 is the sink
    delta = []
    for q in order:
        if q is None:
            delta.append((1,) * system.rank)
            continue
        row = []
        for s in system.generators:
            r = _step(system, q, s)
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
    return all(_state_after(system, rotated) is not None
               for rotated in cyclic_shifts(word))


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
    # the factor steps read without reaching a sink
    cyclic = build(system, "cfc")
    want = [
        w for w in accepted_words(linear, 6)
        if _survives_every_rotation(system, w)
    ]
    assert accepted_words(cyclic, 6) == want


def test_rejects_bad_mode():
    with pytest.raises(ValueError):
        build(preset_system("A2"), mode="nonsense")


def test_lexnf_stage_is_the_guide():
    system = preset_system("B4")
    assert build(system, "lexnf") == lexnf.build(system)


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


@settings(max_examples=40, deadline=None)
@given(small_systems())
def test_counted_genfun_is_the_cayley_hamilton_answer_on_every_stage(system):
    # counting 2l+2 terms for the l live states fixes P/Q with no
    # certificate: the series obeys a recurrence of order at most l
    for mode in ("fc", "cfc", "pipeline"):
        a = build(system, mode)
        live = sum(fsa.coreachable(a))
        want = genfun.to_rational(count_words(a, 2 * live + 2))
        assert genfun.counted_genfun(a)[1] == want


@settings(max_examples=60, deadline=None)
@given(small_systems())
@example(preset_system("tA4"))
@example(preset_system("tA5"))
@example(preset_system("tA6"))
@example(preset_system("A7"))
@example(preset_system("B6"))
@example(preset_system("D6"))
def test_guided_cut_drops_no_accepted_word(system):
    # two independent constructions of one language: the pipeline closes
    # the whole linear recognizer under the guide and cuts by the guide's
    # future, and the cfc stage closes each factor alone and is cut by
    # the guide afterwards
    cut = fsa.product([build(system, "cfc"), lexnf.build(system)])
    assert fsa.difference_witness(build(system, "pipeline"), cut) is None


def _assert_factored_closure_is_the_product_closure(system):
    # T kept per factor and T kept over the whole product give one machine,
    # raw states and numbering included
    parts = cfc_automaton.factors(system)
    guide = lexnf.build(system)
    assert (fsa.rotation_closure(parts, guide)
            == fsa.rotation_closure([fsa.product(parts)], guide))


CLOSURE_PRESETS = ["tA3", "tA4", "tA5", "A4", "A5", "A6", "B4", "D5", "I2:5"]
# no preset needs the merge of packed Ts into one class; without it this
# system's factored closure has more states than the product closure
T_MERGE = CoxeterSystem(((1, 3, INF), (3, 1, INF), (INF, INF, 1)))


@pytest.mark.parametrize(
    "system",
    [preset_system(n) for n in CLOSURE_PRESETS]
    + [INF_TRIANGLE, TRIANGLE_4_INF_2, T_MERGE],
    ids=CLOSURE_PRESETS + ["inf-triangle", "4-inf-2-triangle", "3-inf-inf-triangle"],
)
def test_factored_closure_is_the_product_closure(system):
    _assert_factored_closure_is_the_product_closure(system)


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_factored_closure_is_the_product_closure_on_random_systems(system):
    _assert_factored_closure_is_the_product_closure(system)


def _assert_covered_letter_factors_are_redundant(system):
    # a pair factor's language lies in the letter factors' languages of
    # both its letters, so leaving those letter factors out of the product
    # changes neither the linear recognizer nor the guided closure, raw
    # states and numbering included
    for p in finite_pairs(system):
        pair = cfc_automaton.pair_factor(system, p)
        for x in (p.s, p.t):
            assert is_subset(pair, cfc_automaton.letter_factor(system, x)), (p, x)
    parts = cfc_automaton.factors(system)
    every = ([cfc_automaton.letter_factor(system, s) for s in system.generators]
             + [cfc_automaton.pair_factor(system, p) for p in finite_pairs(system)])
    assert fsa.product(parts) == fsa.product(every)
    guide = lexnf.build(system)
    assert fsa.rotation_closure(parts, guide) == fsa.rotation_closure(every, guide)


@pytest.mark.parametrize(
    "system",
    [preset_system(n) for n in CLOSURE_PRESETS]
    + [INF_TRIANGLE, TRIANGLE_4_INF_2, T_MERGE],
    ids=CLOSURE_PRESETS + ["inf-triangle", "4-inf-2-triangle", "3-inf-inf-triangle"],
)
def test_covered_letter_factors_are_redundant(system):
    _assert_covered_letter_factors_are_redundant(system)


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_covered_letter_factors_are_redundant_on_random_systems(system):
    _assert_covered_letter_factors_are_redundant(system)


def _assert_lexnf_is_minimal(system):
    # minimal but for its sink, which it lists even when no word reaches it
    a = lexnf.build(system)
    sink_reached = any(1 in row for q, row in enumerate(a.delta) if q != 1)
    assert a.num_states == fsa.minimize(a).num_states + (not sink_reached)


LEXNF_PRESETS = ["A1", "A3", "A9", "B3", "B7", "D4", "D7", "I2:5", "I2:inf",
                 "tA1", "tA2", "tA7"]


@pytest.mark.parametrize(
    "system",
    [preset_system(n) for n in LEXNF_PRESETS]
    + [INF_TRIANGLE, TRIANGLE_4_INF_2, MIXED_EDGE],
    ids=LEXNF_PRESETS + ["inf-triangle", "4-inf-2-triangle", "mixed-edge"],
)
def test_lexnf_build_is_minimal(system):
    _assert_lexnf_is_minimal(system)


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_lexnf_build_is_minimal_on_random_systems(system):
    _assert_lexnf_is_minimal(system)


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_minimize_needs_no_trim_first_on_random_systems(system):
    for stage in ("pipeline", "fc"):
        a = build(system, stage)
        assert fsa.minimize(a) == fsa.minimize(fsa.trim(a))
