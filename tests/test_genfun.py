"""Series extraction: exact counting, recurrence recovery, rational forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfcgf import cfc_automaton, fsa, lexnf
from cfcgf.core import CoxeterSystem, parse_system, preset_system
from cfcgf.errors import InternalError
from cfcgf.genfun import (
    RationalGF,
    count_by_length,
    counted_genfun,
    find_recurrence,
    genfun_of_dfa,
    to_rational,
)


def pipeline(system):
    return cfc_automaton.build(system, "pipeline")


def test_recurrence_of_eventually_constant_series():
    assert find_recurrence([1, 2, 2, 2, 2, 2, 2, 2]) == (1, 0)


def test_recurrence_of_polynomial_series_is_zero_recurrence():
    assert find_recurrence([1, 2, 2, 0, 0, 0, 0, 0]) == (0, 0, 0)


def test_recurrence_of_fibonacci():
    assert find_recurrence([1, 1, 2, 3, 5, 8, 13, 21]) == (1, 1)


def test_recurrence_of_constant_and_zero_series():
    assert find_recurrence([1, 1, 1, 1, 1]) == (1,)
    assert find_recurrence([0, 0, 0, 0]) == ()


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


def test_explicit_recurrence_must_annihilate():
    with pytest.raises(InternalError):
        to_rational([1, 2, 2, 2], rec=(Fraction(2),))


def test_expansion_guards_against_non_integer_coefficients():
    with pytest.raises(InternalError):
        RationalGF((1,), (2,)).expand(3)


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
    gf = genfun_of_dfa(pipeline(preset_system(name)))
    assert (gf.num, gf.den) == PIPELINE_GFS[name]


@pytest.mark.parametrize("name", ["A3", "tA2", "tA3"])
def test_rational_form_reexpands_to_the_direct_count(name):
    a = pipeline(preset_system(name))
    gf = genfun_of_dfa(a)
    assert gf.expand(20) == count_by_length(a, 20)


TRIANGLES = {
    "4/inf/2": '{"matrix": [[1, 4, 2], [4, 1, "inf"], [2, "inf", 1]]}',
    "inf": '{"matrix": [[1, "inf", "inf"], ["inf", 1, "inf"], ["inf", "inf", 1]]}',
}


@pytest.mark.parametrize("name", ["tA3", "tA4", "A6", "B5", "D5", *TRIANGLES])
def test_reduced_machine_gives_the_raw_machines_answer(name):
    # counting on minimize(trim(a)) to 2*minimized+2 must reproduce the
    # P/Q counted on the raw pipeline to 2*raw+2
    system = parse_system(TRIANGLES[name]) if name in TRIANGLES else preset_system(name)
    raw = pipeline(system)
    seq, gf = counted_genfun(raw)
    m = fsa.minimize(fsa.trim(raw)).num_states
    # the all-infinite triangle's raw pipeline (14 states) is minimal already
    assert m < raw.num_states or name == "inf"
    assert seq == count_by_length(raw, 2 * m + 2)
    assert gf == to_rational(count_by_length(raw, 2 * raw.num_states + 2))


def test_counting_is_invariant_under_trim_and_minimize():
    a = pipeline(preset_system("tA2"))
    assert count_by_length(fsa.trim(a), 12) == count_by_length(a, 12)
    assert count_by_length(fsa.minimize(a), 12) == count_by_length(a, 12)


def test_counting_skips_dead_states_without_a_hint():
    # the product of the B3 closure with the normal-form acceptor has 24
    # states that cannot reach acceptance and, with more than one, no dead
    # hint; accepted_words then walks all words
    system = preset_system("B3")
    a = fsa.intersect(cfc_automaton.build(system), lexnf.build(system))
    assert a.dead is None
    assert a.num_states - len(fsa.coreachable(a)) > 1
    sizes = [0] * 9
    for w in fsa.accepted_words(a, 8):
        sizes[len(w)] += 1
    assert count_by_length(a, 8) == sizes
    empty = fsa.Dfa(2, ((1, 0), (1, 1)), 0, frozenset())
    assert count_by_length(empty, 3) == [0, 0, 0, 0]


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
    assert count_by_length(pipeline(b3), 12) == count_by_length(
        pipeline(_permuted(b3, (2, 1, 0))), 12
    )
    ta3 = preset_system("tA3")
    assert count_by_length(pipeline(ta3), 10) == count_by_length(
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
