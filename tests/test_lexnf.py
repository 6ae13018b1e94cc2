"""The normal-form recognizer must accept exactly the lexicographically
least member of each commutation class."""

from itertools import product

import pytest

from cfcgf import fsa, lexnf
from cfcgf.core import parse_system, preset_system
from cfcgf.errors import BudgetError
from cfcgf.oracle import commutation_class
from helpers import is_lex_least

SYSTEMS = ["A3", "B3", "D4", "I2:5", "tA1", "tA2"]


@pytest.mark.parametrize("name", SYSTEMS)
def test_matches_brute_force_minimum(name):
    system = preset_system(name)
    a = lexnf.build(system)
    for n in range(6):
        for w in product(system.generators, repeat=n):
            expected = w == min(commutation_class(system, w))
            assert a.accepts(w) == expected, w


@pytest.mark.parametrize("name", SYSTEMS)
def test_is_lex_least_agrees_with_automaton(name):
    system = preset_system(name)
    a = lexnf.build(system)
    for n in range(6):
        for w in product(system.generators, repeat=n):
            assert a.accepts(w) == is_lex_least(w, system), w


def test_one_accepted_word_per_class():
    system = preset_system("A3")
    a = lexnf.build(system)
    for n in range(7):
        classes = set()
        hits = 0
        for w in product(system.generators, repeat=n):
            classes.add(commutation_class(system, w))
            if a.accepts(w):
                hits += 1
        assert hits == len(classes)


def test_infinite_labels_are_just_non_commutations():
    system = parse_system(
        '{"matrix": [[1, "inf", 2], ["inf", 1, "inf"], [2, "inf", 1]]}'
    )
    a = lexnf.build(system)
    for n in range(6):
        for w in product(system.generators, repeat=n):
            assert a.accepts(w) == (w == min(commutation_class(system, w))), w


def test_state_counts_frozen():
    assert lexnf.build(preset_system("A3")).num_states == 3
    assert lexnf.build(preset_system("B3")).num_states == 3
    assert lexnf.build(preset_system("tA1")).num_states == 2
    assert lexnf.build(preset_system("D4")).num_states == 4
    assert lexnf.build(preset_system("I2:5")).num_states == 2


def test_state_budget_counts_every_state():
    # B3 needs 3 states, the dead state among them; tA1 needs only the
    # start and the dead state
    assert lexnf.build(preset_system("B3"), state_budget=3).num_states == 3
    with pytest.raises(BudgetError):
        lexnf.build(preset_system("B3"), state_budget=2)
    assert lexnf.build(preset_system("tA1"), state_budget=2).num_states == 2
    with pytest.raises(BudgetError):
        lexnf.build(preset_system("tA1"), state_budget=1)


def test_builds_are_reproducible():
    a = lexnf.build(preset_system("D4"))
    b = lexnf.build(preset_system("D4"))
    assert a.delta == b.delta and a.finals == b.finals


def test_every_word_has_exactly_one_accepted_rewriting():
    # composing with any automaton therefore counts group-element classes
    system = preset_system("B3")
    a = lexnf.build(system)
    for n in range(6):
        for w in product(system.generators, repeat=n):
            cls = commutation_class(system, w)
            assert sum(1 for v in cls if a.accepts(v)) == 1, w
