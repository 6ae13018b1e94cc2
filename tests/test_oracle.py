from __future__ import annotations

"""Brute-force reference checks.

Counting sequences below were produced by the oracle itself and then verified
by hand against small cases (dihedral patterns, Catalan totals for the
fully commutative counts in type A, the rank-3 free-group style count
2^k + 2*(-1)^k for the all-infinite triangle).
"""

import pytest
from hypothesis import given, settings, strategies as st

from cfcgf.core import INF, CoxeterSystem, cyclic_shifts, preset_system
from cfcgf.errors import BudgetError
from cfcgf import oracle

INF_TRIANGLE = CoxeterSystem(((1, INF, INF), (INF, 1, INF), (INF, INF, 1)))


def test_commutation_class_a3():
    s = preset_system("A3")
    assert sorted(oracle.commutation_class(s, (0, 2, 0))) == [
        (0, 0, 2),
        (0, 2, 0),
        (2, 0, 0),
    ]


def test_commutation_class_singleton_when_nothing_commutes():
    s = preset_system("A2")
    assert oracle.commutation_class(s, (0, 1, 0)) == frozenset({(0, 1, 0)})


def test_commutation_class_budget():
    # a long word over commuting generators has factorially many siblings
    s = CoxeterSystem(tuple(tuple(1 if i == j else 2 for j in range(6)) for i in range(6)))
    w = tuple(range(6)) * 2
    with pytest.raises(BudgetError):
        oracle.commutation_class(s, w, budget=100)


def test_forbidden_factor_repeated_letter():
    s = preset_system("A3")
    assert oracle.has_forbidden_factor(s, (0, 1, 1, 2))
    assert not oracle.has_forbidden_factor(s, (0, 1, 2))
    assert oracle.has_forbidden_factor(s, (0, 1, 0))  # the full m=3 braid word
    assert oracle.has_forbidden_factor(s, (2, 0, 1, 0))


def test_forbidden_factor_respects_label():
    assert not oracle.has_forbidden_factor(preset_system("I2:5"), (0, 1, 0, 1))
    assert oracle.has_forbidden_factor(preset_system("I2:4"), (0, 1, 0, 1))
    # infinite labels admit arbitrarily long alternations
    assert not oracle.has_forbidden_factor(preset_system("tA1"), (0, 1) * 10)


def test_is_reduced_fc():
    s = preset_system("A3")
    assert oracle.is_reduced_fc(s, (0, 2, 1))
    # 020 itself is square-free but its class contains 002
    assert not oracle.is_reduced_fc(s, (0, 2, 0))


def test_is_cfc_spot_checks():
    A3 = preset_system("A3")
    assert oracle.is_cfc(A3, ())
    assert oracle.is_cfc(A3, (0, 2, 1))
    assert oracle.is_cfc(A3, (0, 1, 2))
    assert not oracle.is_cfc(A3, (0, 1, 0))  # rotation 100 has a square
    assert oracle.is_cfc(preset_system("A2"), (0, 1))
    assert not oracle.is_cfc(preset_system("I2:5"), (0, 1, 0))


# counting sequences ---------------------------------------------------------

SEQUENCES = {
    # name/system, max length, fc counts, cfc counts
    "A1": ("A1", 4, [1, 1, 0, 0, 0], [1, 1, 0, 0, 0]),
    "A2": ("A2", 5, [1, 2, 2, 0, 0, 0], [1, 2, 2, 0, 0, 0]),
    "A3": ("A3", 6, [1, 3, 5, 4, 1, 0, 0], [1, 3, 5, 4, 0, 0, 0]),
    "A4": ("A4", 8, [1, 4, 9, 12, 10, 4, 2, 0, 0], [1, 4, 9, 12, 8, 0, 0, 0, 0]),
    "B2": ("B2", 6, [1, 2, 2, 2, 0, 0, 0], [1, 2, 2, 0, 0, 0, 0]),
    "B3": ("B3", 8, [1, 3, 5, 6, 5, 3, 1, 0, 0], [1, 3, 5, 4, 0, 0, 0, 0, 0]),
    "D4": ("D4", 8, [1, 4, 9, 13, 11, 7, 3, 0, 0], [1, 4, 9, 13, 8, 0, 0, 0, 0]),
    "I2:5": ("I2:5", 7, [1, 2, 2, 2, 2, 0, 0, 0], [1, 2, 2, 0, 2, 0, 0, 0]),
    "I2:6": ("I2:6", 7, [1, 2, 2, 2, 2, 2, 0, 0], [1, 2, 2, 0, 2, 0, 0, 0]),
    "I2:7": ("I2:7", 8, [1, 2, 2, 2, 2, 2, 2, 0, 0], [1, 2, 2, 0, 2, 0, 2, 0, 0]),
    "tA1": ("tA1", 8, [1, 2, 2, 2, 2, 2, 2, 2, 2], [1, 2, 2, 0, 2, 0, 2, 0, 2]),
    "tA2": ("tA2", 10, [1, 3, 6, 6, 6, 6, 6, 6, 6, 6, 6], [1, 3, 6, 6, 0, 0, 6, 0, 0, 6, 0]),
    "tA3": ("tA3", 8, [1, 4, 10, 16, 18, 16, 18, 16, 18], [1, 4, 10, 16, 14, 0, 0, 0, 14]),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_counting_sequences(name):
    preset, n, fc, cfc = SEQUENCES[name]
    r = oracle.count_elements(preset_system(preset), n)
    assert r.fc_counts == fc
    assert r.cfc_counts == cfc


def test_counting_infinite_triangle():
    r = oracle.count_elements(INF_TRIANGLE, 6)
    assert r.fc_counts == [1, 3, 6, 12, 24, 48, 96]
    assert r.cfc_counts == [1, 3, 6, 6, 18, 30, 66]


def test_fc_mode_skips_rotation_filter():
    r = oracle.count_elements(preset_system("A3"), 4, kind="fc")
    assert r.kind == "fc"
    assert r.counts() == [1, 3, 5, 4, 1]
    assert r.cfc_counts is None
    with pytest.raises(ValueError, match="kind must be 'fc' or 'cfc', not 'x'"):
        oracle.count_elements(preset_system("A3"), 4, kind="x")


def test_witnesses_a3_length_3():
    r = oracle.count_elements(preset_system("A3"), 3, witnesses=True)
    assert r.witnesses[3] == [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)]


def test_witnesses_are_lex_least_in_class():
    s = preset_system("D4")
    r = oracle.count_elements(s, 5, witnesses=True)
    for ws in r.witnesses.values():
        for w in ws:
            assert min(oracle.commutation_class(s, w)) == w


def test_report_json_uses_decimal_strings():
    doc = oracle.count_elements(preset_system("A2"), 3, witnesses=True).to_json_dict()
    assert doc["fc_counts"] == ["1", "2", "2", "0"]
    assert doc["cfc_counts"] == ["1", "2", "2", "0"]
    assert doc["witnesses"]["2"] == [[0, 1], [1, 0]]


def test_report_is_a_value():
    r = oracle.count_elements(preset_system("A2"), 3, witnesses=True)
    assert r.to_json_dict() == {
        "kind": "cfc", "max_length": 3,
        "fc_counts": ["1", "2", "2", "0"], "cfc_counts": ["1", "2", "2", "0"],
        "witnesses": {"0": [[]], "1": [[0], [1]], "2": [[0, 1], [1, 0]], "3": []},
    }
    fc = oracle.count_elements(preset_system("A3"), 2, kind="fc")
    assert fc.to_json_dict() == {"kind": "fc", "max_length": 2,
                                 "fc_counts": ["1", "3", "5"]}
    assert r == oracle.count_elements(preset_system("A2"), 3, witnesses=True)
    assert r != oracle.count_elements(preset_system("A2"), 3)
    with pytest.raises(TypeError):
        hash(r)


# properties -----------------------------------------------------------------

WORDS_A3 = st.lists(st.integers(0, 2), min_size=0, max_size=7).map(tuple)
WORDS_B3 = st.lists(st.integers(0, 2), min_size=0, max_size=7).map(tuple)


@given(WORDS_A3)
def test_cfc_implies_reduced_fc(w):
    s = preset_system("A3")
    if oracle.is_cfc(s, w):
        assert oracle.is_reduced_fc(s, w)


@given(WORDS_B3)
@settings(max_examples=60, deadline=None)
def test_cfc_is_rotation_invariant(w):
    s = preset_system("B3")
    got = oracle.is_cfc(s, w)
    assert all(oracle.is_cfc(s, v) == got for v in cyclic_shifts(w))


@given(WORDS_A3)
def test_class_members_agree_on_fc(w):
    s = preset_system("A3")
    cls = oracle.commutation_class(s, w)
    values = {oracle.is_reduced_fc(s, v) for v in cls}
    assert len(values) == 1
