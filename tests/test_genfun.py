"""Series extraction: exact counting, recurrence recovery, rational forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfcgf import cfc_automaton, fsa, genfun, lexnf
from cfcgf.core import CoxeterSystem, parse_system, preset_system
from cfcgf.errors import InputError, InternalError
from cfcgf.genfun import (
    PRIMES,
    RationalGF,
    counted_genfun,
    find_recurrence,
    to_rational,
)
from helpers import accepted_words, count_words


def pipeline(system):
    return cfc_automaton.build(system, "pipeline")


def test_recurrence_of_eventually_constant_series():
    for p in PRIMES:
        assert find_recurrence([1, 2, 2, 2, 2, 2, 2, 2], p) == (1, 0)


def test_recurrence_of_polynomial_series_is_zero_recurrence():
    for p in PRIMES:
        assert find_recurrence([1, 2, 2, 0, 0, 0, 0, 0], p) == (0, 0, 0)


def test_recurrence_of_fibonacci():
    for p in PRIMES:
        assert find_recurrence([1, 1, 2, 3, 5, 8, 13, 21], p) == (1, 1)
        assert find_recurrence([1, -1, 2, -3, 5, -8, 13, -21], p) == (p - 1, 1)


def test_recurrence_of_constant_and_zero_series():
    for p in PRIMES:
        assert find_recurrence([1, 1, 1, 1, 1], p) == (1,)
        assert find_recurrence([0, 0, 0, 0], p) == ()


def test_recurrence_must_have_integer_coefficients():
    # 2, 1: the shortest recurrence is a_n = a_{n-1}/2, which exists mod
    # every odd p but lifts to no integer one
    for p in PRIMES:
        assert find_recurrence([2, 1], p) == ((p + 1) // 2,)
    with pytest.raises(InternalError):
        to_rational([2, 1])


def fraction_berlekamp_massey(seq):
    """Textbook Berlekamp-Massey over Q, the reference for the one over
    GF(p): (c_1..c_L) of the shortest recurrence."""
    s = [Fraction(x) for x in seq]
    conn, prev = [Fraction(1)], [Fraction(1)]  # constant terms 1
    order, shift, prev_delta = 0, 1, Fraction(1)
    for n in range(len(s)):
        delta = sum(c * s[n - i] for i, c in enumerate(conn))
        if delta == 0:
            shift += 1
            continue
        old = conn[:]
        conn += [Fraction(0)] * (shift + len(prev) - len(conn))
        for i, c in enumerate(prev):
            conn[i + shift] -= delta / prev_delta * c
        if 2 * order <= n:
            order, prev, prev_delta, shift = n + 1 - order, old, delta, 1
        else:
            shift += 1
    conn += [Fraction(0)] * (order + 1 - len(conn))
    assert not any(conn[order + 1:])
    return tuple(-c for c in conn[1:order + 1])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_recurrence_matches_fraction_berlekamp_massey(data):
    order = data.draw(st.integers(min_value=0, max_value=6))
    coeffs = data.draw(st.lists(st.integers(min_value=-5, max_value=5),
                                min_size=order, max_size=order))
    seq = data.draw(st.lists(st.integers(min_value=-9, max_value=9),
                             min_size=order, max_size=order))
    length = data.draw(st.integers(min_value=2 * order + 2, max_value=2 * order + 8))
    while len(seq) < length:
        seq.append(sum(c * seq[-1 - i] for i, c in enumerate(coeffs)))
    want = fraction_berlekamp_massey(seq)
    for p in PRIMES[:3]:
        rec = find_recurrence(seq, p)
        assert rec == tuple(c.numerator * pow(c.denominator, -1, p) % p for c in want)
        assert all(type(c) is int for c in rec)
    # an integer recurrence of order k fixes the series from 2k + 2 terms,
    # so the shortest one has integer coefficients (Fatou's lemma)
    den = to_rational(seq).den
    assert den + (0,) * (len(want) + 1 - len(den)) == (1, *(-c for c in want))
    assert all(type(c) is int for c in den)


def test_rational_form_of_eventually_constant_series():
    gf = to_rational([1, 2, 2, 2, 2, 2, 2, 2])
    assert (gf.num, gf.den) == ((1, 1), (1, -1))
    assert str(gf) == "(1 + x)/(1 - x)"


def test_rational_form_of_polynomial_series():
    gf = to_rational([1, 2, 2, 0, 0, 0, 0, 0])
    assert (gf.num, gf.den) == ((1, 2, 2), (1,))


def test_rational_form_of_fibonacci():
    gf = to_rational([1, 1, 2, 3, 5, 8, 13, 21])
    assert (gf.num, gf.den) == ((1,), (1, -1, -1))


def test_rational_form_of_zero_series():
    gf = to_rational([0, 0, 0, 0])
    assert (gf.num, gf.den) == ((0,), (1,))
    assert str(gf) == "(0)/(1)"


def test_rational_form_is_checked_by_reexpansion(monkeypatch):
    # a recurrence that does not annihilate the tail: 1/(1 - 2x) gives
    # 1, 2, 4, 8, not 1, 2, 2, 2
    monkeypatch.setattr(genfun, "find_recurrence", lambda seq, p: (2,))
    with pytest.raises(InternalError, match="re-expands"):
        to_rational([1, 2, 2, 2])


def test_an_unlucky_first_prime_is_combined_with_the_next():
    # s_n = p^n + 1 has den (1 - x)(1 - p x): mod p = 2^61 - 1 it is
    # 1 - x, whose lift is not the den over Z
    p = PRIMES[0]
    seq = [p**n + 1 for n in range(8)]
    assert find_recurrence(seq, p) == (1, 0)
    assert to_rational(seq).den == (1, -(p + 1), p)


def _primes_run(monkeypatch, seq):
    """to_rational(seq), or the InternalError it raised, and the primes it
    ran find_recurrence modulo."""
    moduli = []
    plain = genfun.find_recurrence

    def counted(s, p):
        moduli.append(p)
        return plain(s, p)

    monkeypatch.setattr(genfun, "find_recurrence", counted)
    try:
        return to_rational(seq), moduli
    except InternalError as exc:
        return exc, moduli


def test_coefficients_above_one_prime_are_combined_by_crt(monkeypatch):
    gf = RationalGF((1, -3), (1, -(2**70 + 1), 3**50, -(2**100)))
    assert _primes_run(monkeypatch, gf.expand(12)) == (gf, list(PRIMES[:2]))


def test_a_prime_that_lowers_the_order_is_passed_over(monkeypatch):
    # c a^n + 1 has den (1 - x)(1 - a x), but modulo a prime that divides
    # c it is 1, 1, 1, ..., of order 1
    p0, p1, p2 = PRIMES[:3]
    a = 2**120
    # order 2 mod p0, too few bits; order 1 mod p1; p0 and p2 combined
    gf, moduli = _primes_run(monkeypatch, [p1 * a**n + 1 for n in range(8)])
    assert gf.den == (1, -(a + 1), a) and moduli == [p0, p1, p2]
    # order 1 mod p0, so p1 starts the combination again
    gf, moduli = _primes_run(monkeypatch, [p0 * 2**n + 1 for n in range(8)])
    assert gf.den == (1, -3, 2) and moduli == [p0, p1]


def test_a_prefix_too_short_for_its_recurrence_runs_one_prime(monkeypatch):
    # the first prime finds order 3 in 7 terms, and 2*3 >= 7 - 1: the
    # prefix cannot fix that recurrence, so no other prime is tried
    seq = RationalGF((1,), (1, -1, -1, -1)).expand(6)
    err, moduli = _primes_run(monkeypatch, seq)
    assert isinstance(err, InternalError) and moduli == [PRIMES[0]]
    assert "too few terms" in str(err)
    # one term more fixes it
    gf, moduli = _primes_run(monkeypatch, seq + [seq[-1] + seq[-2] + seq[-3]])
    assert gf.den == (1, -1, -1, -1) and moduli[0] == PRIMES[0]


def test_expansion_guards_against_non_integer_coefficients():
    # a constant term other than 1 could take the expansion out of Z, so
    # the constructor refuses it
    with pytest.raises(InputError):
        RationalGF((1,), (2,))
    with pytest.raises(InputError):
        RationalGF((1,), ())


def test_rational_gf_is_a_hashable_value():
    gf = to_rational([1, 1, 2, 3, 5, 8, 13, 21])
    same = RationalGF((1,), (1, -1, -1))
    assert gf == same and hash(gf) == hash(same)
    assert gf != RationalGF((1,), (1, -1)) and len({gf, same}) == 1
    assert repr(gf) == "RationalGF(num=(1,), den=(1, -1, -1))"
    with pytest.raises(AttributeError):
        gf.num = (2,)


def test_json_uses_decimal_strings():
    gf = to_rational([1, 1, 2, 3, 5, 8, 13, 21])
    assert gf.to_json_dict() == {"num": ["1"], "den": ["1", "-1", "-1"]}


PIPELINE_GFS = {
    "A1": ((1, 1), (1,)),
    "A2": ((1, 2, 2), (1,)),
    "A3": ((1, 3, 5, 4), (1,)),
    "B3": ((1, 3, 5, 4), (1,)),
    "I2:5": ((1, 2, 2, 0, 2), (1,)),
    "I2:7": ((1, 2, 2, 0, 2, 0, 2), (1,)),
    "tA1": ((1, 2, 1, -2), (1, 0, -1)),
    "tA2": ((1, 3, 6, 5, -3, -6), (1, 0, 0, -1)),
    "tA3": ((1, 4, 10, 16, 13, -4, -10, -16), (1, 0, 0, 0, -1)),
}


@pytest.mark.parametrize("name", sorted(PIPELINE_GFS))
def test_pipeline_generating_functions_frozen(name):
    gf = counted_genfun(pipeline(preset_system(name)))[1]
    assert (gf.num, gf.den) == PIPELINE_GFS[name]


@pytest.mark.parametrize("name", ["A3", "tA2", "tA3"])
def test_rational_form_reexpands_to_the_direct_count(name):
    a = pipeline(preset_system(name))
    gf = counted_genfun(a)[1]
    assert gf.expand(20) == count_words(a, 20)


# found by counting the minimal cfc-stage machine to 2*minimized+2
# terms
PER_EXPRESSION_GFS = {
    "tA4": ((1, 5, 20, 60, 120, 108, -60, -240, -720, -1440, -190, 50, 200,
             600, 1200, -29, 5, 20, 60, 120),
            (1, 0, 0, 0, 0, -12, 0, 0, 0, 0, 10, 0, 0, 0, 0, 1)),
    "tA5": ((1, 6, 30, 120, 360, 720, 629, -546, -2730, -10920, -32760,
             -65520, -30433, 10362, 51810, 207240, 621720, 1243440, 16843,
             546, 2730, 10920, 32760, 65520, 91584, -10368, -51840, -207360,
             -622080, -1244160),
            (1, 0, 0, 0, 0, 0, -91, 0, 0, 0, 0, 0, 1727, 0, 0, 0, 0, 0, 91,
             0, 0, 0, 0, 0, -1728)),
}


def test_counting_stops_at_n_max_or_at_a_certified_pq(monkeypatch):
    # tA5's cfc stage certifies its P/Q on the first 65 terms; past them
    # the terms come from its expansion
    a = cfc_automaton.build(preset_system("tA5"), "cfc")
    seq, gf = counted_genfun(a)
    assert len(seq) == 65
    assert counted_genfun(a, 40) == (seq[:41], None)
    assert counted_genfun(a, 64) == (seq, None)
    lengths = _prefixes_tried(monkeypatch)
    assert counted_genfun(a, 300) == (gf.expand(300), gf)
    assert lengths == [65]


@pytest.mark.parametrize(
    "name,stage,n",
    [("tA5", "cfc", 40), ("tA5", "cfc", 64), ("tA5", "cfc", 300),
     # past the cap 2l+2 = 20 for I2:5's 9 live states
     ("I2:5", "pipeline", 70)])
def test_counted_genfun_gives_the_lengths_0_to_n_max(name, stage, n):
    a = cfc_automaton.build(preset_system(name), stage)
    assert counted_genfun(a, n)[0] == count_words(a, n)


@pytest.mark.parametrize("name", sorted(PER_EXPRESSION_GFS))
def test_per_expression_generating_functions_frozen(name):
    gf = counted_genfun(cfc_automaton.build(preset_system(name), "cfc"))[1]
    assert (gf.num, gf.den) == PER_EXPRESSION_GFS[name]


TRIANGLES = {
    "4/inf/2": '{"matrix": [[1, 4, 2], [4, 1, "inf"], [2, "inf", 1]]}',
    "inf": '{"matrix": [[1, "inf", "inf"], ["inf", 1, "inf"], ["inf", "inf", 1]]}',
}


@pytest.mark.parametrize("name", ["tA3", "tA4", "A6", "B5", "D5", *TRIANGLES])
def test_reduced_machine_gives_the_raw_machines_answer(name):
    # the certified P/Q from a short prefix must be the one that 2l+2
    # terms fix for the l live states of the raw pipeline (Cayley-Hamilton)
    system = parse_system(TRIANGLES[name]) if name in TRIANGLES else preset_system(name)
    raw = pipeline(system)
    seq, gf = counted_genfun(raw)
    live = sum(fsa.coreachable(raw))
    assert seq == count_words(raw, len(seq) - 1)
    assert gf == to_rational(count_words(raw, 2 * live + 2))


def _prefixes_tried(monkeypatch) -> list[int]:
    """Make to_rational record the length of each prefix it is given, in
    the returned list."""
    lengths = []
    plain = genfun.to_rational

    def recorded(seq):
        lengths.append(len(seq))
        return plain(seq)

    monkeypatch.setattr(genfun, "to_rational", recorded)
    return lengths


def test_a_certificate_in_the_first_round_stops_at_64_terms(monkeypatch):
    lengths = _prefixes_tried(monkeypatch)
    seq, gf = counted_genfun(pipeline(preset_system("tA3")))
    assert lengths == [65] and len(seq) == 65
    assert (gf.num, gf.den) == PIPELINE_GFS["tA3"]


def test_a_prefix_too_short_for_the_order_doubles(monkeypatch):
    # order 70 needs more than 140 terms: 65 and 129 are refused
    lengths = _prefixes_tried(monkeypatch)
    a = cfc_automaton.build(preset_system("tA6"), "cfc")
    seq, gf = counted_genfun(a)
    assert lengths == [65, 129, 257] and len(seq) == 257
    assert (len(gf.num), len(gf.den)) == (70, 64)
    assert gf.expand(400) == count_words(a, 400)


def _cycle_and_loop() -> fsa.Dfa:
    """State 0 leads on letter 0 into a 40-state cycle that reads 0s and
    on letter 1 to a state that reads 1s; every state but the dead one,
    42, accepts.  The words are 0^n and 1^n: 1, 2, 2, 2, ..."""
    dead = 42
    delta = [(1, 41)]
    delta += [(q % 40 + 1, dead) for q in range(1, 41)]
    delta += [(dead, 41), (dead, dead)]
    return fsa.Dfa(2, tuple(delta), 0, frozenset(range(42)), dead)


def test_a_certificate_that_never_holds_counts_to_the_cap(monkeypatch):
    # z_n = v_n - v_{n-1} moves one count round the cycle and never
    # vanishes, so only the cap 2*42+2 for the 42 live states answers
    a = _cycle_and_loop()
    assert count_words(a, 5) == [1, 2, 2, 2, 2, 2]
    lengths = _prefixes_tried(monkeypatch)
    seq, gf = counted_genfun(a)
    assert lengths == [65, 87] and len(seq) == 87 == 2 * 42 + 3
    assert str(gf) == "(1 + x)/(1 - x)"


def test_a_refusal_at_the_cap_is_raised(monkeypatch):
    lengths = []

    def refuse(seq):
        lengths.append(len(seq))
        if len(lengths) > 2:
            raise RuntimeError("counted on past the cap")
        raise InternalError("refused")

    monkeypatch.setattr(genfun, "to_rational", refuse)
    with pytest.raises(InternalError, match="refused"):
        counted_genfun(_cycle_and_loop())
    assert lengths == [65, 87]


@pytest.mark.parametrize("stage", ["pipeline", "fc"])
@pytest.mark.parametrize(
    "name", ["A1", "A3", "A6", "B3", "B5", "D5", "I2:5", "I2:inf", "tA1",
             "tA3", "tA4", *TRIANGLES])
def test_minimize_needs_no_trim_first(name, stage):
    # `automaton --stats` refines the raw machine: refinement merges the
    # states with an empty language, so trim adds nothing
    system = parse_system(TRIANGLES[name]) if name in TRIANGLES else preset_system(name)
    a = cfc_automaton.build(system, stage)
    assert fsa.minimize(a) == fsa.minimize(fsa.trim(a))


def test_counting_is_invariant_under_trim_and_minimize():
    a = pipeline(preset_system("tA2"))
    assert count_words(fsa.trim(a), 12) == count_words(a, 12)
    assert count_words(fsa.minimize(a), 12) == count_words(a, 12)


def test_counting_skips_dead_states_without_a_hint():
    # the product of the B3 closure with the normal-form acceptor has 12
    # states that cannot reach acceptance; with its sink no longer named
    # dead, none is, and accepted_words then walks all words
    system = preset_system("B3")
    p = fsa.product([cfc_automaton.build(system), lexnf.build(system)])
    a = fsa.Dfa(p.alphabet_size, p.delta, p.initial, p.finals, None)
    assert a.dead is None
    assert a.num_states - sum(fsa.coreachable(a)) > 1
    sizes = [0] * 9
    for w in accepted_words(a, 8):
        sizes[len(w)] += 1
    assert counted_genfun(a, 8)[0] == sizes
    empty = fsa.Dfa(2, ((1, 0), (1, 1)), 0, frozenset())
    assert counted_genfun(empty, 3)[0] == [0, 0, 0, 0]


def _permuted(system, perm):
    n = system.rank
    rows = tuple(
        tuple(system.matrix[perm[i]][perm[j]] for j in range(n)) for i in range(n)
    )
    return CoxeterSystem(matrix=rows)


def test_counts_are_relabelling_invariant():
    # graph automorphisms and plain renamings change the normal forms
    # but never the number of elements per length
    b3 = preset_system("B3")
    assert count_words(pipeline(b3), 12) == count_words(
        pipeline(_permuted(b3, (2, 1, 0))), 12
    )
    ta3 = preset_system("tA3")
    assert count_words(pipeline(ta3), 10) == count_words(
        pipeline(_permuted(ta3, (1, 2, 3, 0))), 10
    )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=3),
)
def test_roundtrip_on_random_rational_series(num, den_tail):
    gf = RationalGF(tuple(num), (1,) + tuple(den_tail))
    series = gf.expand(2 * (len(num) + len(den_tail)) + 6)
    back = to_rational(series)
    assert back.expand(len(series) - 1) == series
    assert back.den[0] == 1
