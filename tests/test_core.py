from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from cfcgf import core
from cfcgf.cfc_automaton import finite_pairs
from cfcgf.core import (
    INF,
    CoxeterSystem,
    cyclic_shifts,
    parse_system,
    preset_system,
)
from cfcgf.errors import InputError
from helpers import serialize_system


def test_system_is_a_hashable_value():
    a = CoxeterSystem(((1, 3), (3, 1)))
    b = preset_system("A2")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.names == ("0", "1")
    assert a != CoxeterSystem(((1, 3), (3, 1)), ("x", "y"))
    assert a != CoxeterSystem(((1, 4), (4, 1)))
    assert repr(a) == "CoxeterSystem(matrix=((1, 3), (3, 1)), names=('0', '1'))"
    with pytest.raises(AttributeError):
        a.names = ("x", "y")
    with pytest.raises(AttributeError, match="cannot delete field 'names'"):
        del a.names


def test_matrix_must_be_square():
    with pytest.raises(InputError):
        CoxeterSystem(((1, 3), (3, 1, 2)))
    with pytest.raises(InputError, match="needs at least one generator"):
        core.diagram(0, [])


def test_matrix_must_be_symmetric():
    with pytest.raises(InputError):
        CoxeterSystem(((1, 3), (4, 1)))


def test_diagonal_must_be_one():
    with pytest.raises(InputError):
        CoxeterSystem(((2, 3), (3, 1)))


@pytest.mark.parametrize("bad", [0, 1, -5, 2.5, "3"])
def test_off_diagonal_entries_validated(bad):
    with pytest.raises(InputError):
        CoxeterSystem(((1, bad), (bad, 1)))


def test_infinite_label_allowed():
    s = CoxeterSystem(((1, INF), (INF, 1)))
    assert s.m(0, 1) == INF
    assert not s.commutes(0, 1)


def test_default_names():
    s = CoxeterSystem(((1, 2), (2, 1)))
    assert s.names == ("0", "1")


def test_name_length_mismatch():
    with pytest.raises(InputError):
        CoxeterSystem(((1, 2), (2, 1)), names=("a",))
    # an empty list is given names, not missing ones
    with pytest.raises(InputError, match="matrix size"):
        CoxeterSystem(((1, 2), (2, 1)), names=())
    doc = {"generators": [], "matrix": [[1, 3], [3, 1]]}
    with pytest.raises(InputError, match="matrix size"):
        parse_system(json.dumps(doc))


def test_commutes_is_irreflexive():
    s = preset_system("A3")
    assert not s.commutes(1, 1)
    assert s.commutes(0, 2)
    assert not s.commutes(0, 1)


def test_tracked_pairs_a3():
    s = preset_system("A3")
    assert [(p.s, p.t, p.m) for p in finite_pairs(s)] == [(0, 1, 3), (1, 2, 3)]


def test_tracked_pairs_skip_commuting():
    s = preset_system("D4")
    pairs = {(p.s, p.t) for p in finite_pairs(s)}
    assert (0, 1) not in pairs  # the fork: 0 and 1 both attach to 2
    assert (0, 2) in pairs and (1, 2) in pairs and (2, 3) in pairs


def test_tracked_pairs_skip_infinite_labels():
    assert finite_pairs(preset_system("I2:inf")) == ()


# presets ------------------------------------------------------------------


def test_preset_a1_is_single_generator():
    assert preset_system("A1").rank == 1


def test_preset_b_has_four_on_last_edge():
    s = preset_system("B3")
    assert s.m(0, 1) == 3
    assert s.m(1, 2) == 4
    assert s.m(0, 2) == 2


def test_preset_b2_equals_i24():
    assert preset_system("B2").matrix == preset_system("I2:4").matrix


def test_preset_d_fork():
    s = preset_system("D4")
    assert s.m(0, 1) == 2
    assert s.m(0, 2) == 3 and s.m(1, 2) == 3 and s.m(2, 3) == 3
    assert s.m(0, 3) == 2 and s.m(1, 3) == 2


def test_preset_i2():
    assert preset_system("I2:7").m(0, 1) == 7
    assert preset_system("I2:inf").m(0, 1) == INF
    with pytest.raises(InputError):
        preset_system("I2:2")


def test_preset_affine_a1():
    s = preset_system("tA1")
    assert s.rank == 2
    assert s.m(0, 1) == INF


def test_preset_affine_a_is_cycle():
    s = preset_system("tA3")
    assert s.rank == 4
    for i in range(4):
        assert s.m(i, (i + 1) % 4) == 3
    assert s.m(0, 2) == 2 and s.m(1, 3) == 2


@pytest.mark.parametrize("name", ["A0", "B1", "D2", "tA0", "E8", "I2:x", "", "A"])
def test_preset_rejects_unknown(name):
    with pytest.raises(InputError):
        preset_system(name)


@pytest.mark.parametrize("name,message", [
    ("A0", "A<k> needs k >= 1"),
    ("B1", "B<k> needs k >= 2"),
    ("D2", "D<k> needs k >= 3"),
    ("tA0", "tA<k> needs k >= 1"),
])
def test_preset_too_small_names_its_family_bound(name, message):
    with pytest.raises(InputError, match=re.escape(message)):
        preset_system(name)


def test_diagram_labels_its_edges_and_commutes_elsewhere():
    s = core.diagram(4, [(0, 1, 3), (3, 1, INF), (1, 0, 5)])
    assert s.matrix == ((1, 5, 2, 2), (5, 1, 2, INF), (2, 2, 1, 2), (2, INF, 2, 1))
    assert s.names == ("0", "1", "2", "3")


@pytest.mark.parametrize("edge", [(1, 1, 3), (0, 3, 3), (-1, 0, 3)])
def test_diagram_refuses_an_edge_off_two_of_its_generators(edge):
    with pytest.raises(InputError, match="two distinct generators below 3"):
        core.diagram(3, [edge])


# explicit-matrix documents --------------------------------------------------


def test_parse_json_document():
    doc = {"generators": ["a", "b"], "matrix": [[1, "inf"], ["inf", 1]]}
    s = parse_system(json.dumps(doc))
    assert s.names == ("a", "b")
    assert s.m(0, 1) == INF


def test_parse_falls_back_to_preset_name():
    assert parse_system("A2").matrix == preset_system("A2").matrix


def test_parse_rejects_garbage_json():
    with pytest.raises(InputError):
        parse_system("{not json")


def test_parse_enforces_rank_cap():
    n = 17
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    with pytest.raises(InputError):
        parse_system(json.dumps({"matrix": mat}))


@pytest.mark.parametrize(
    "name", ["A17", "B17", "D17", "tA16", "A100000", "D100000", "tA100000"]
)
def test_preset_rank_cap_is_checked_before_building(name, monkeypatch):
    # a preset's matrix grows as the square of its rank, so a huge name
    # must be refused from the name alone
    def no_matrix(*args, **kwargs):
        raise AssertionError(f"{name} built a matrix before the rank check")

    monkeypatch.setattr(core, "diagram", no_matrix)
    with pytest.raises(InputError, match="rank"):
        parse_system(name)


def test_presets_at_the_rank_cap_parse():
    for name in ("A16", "B16", "D16", "tA15"):
        assert parse_system(name).rank == core.MAX_RANK, name


def test_repeated_generator_names_are_rejected():
    doc = {"generators": ["a", "a"], "matrix": [[1, 3], [3, 1]]}
    with pytest.raises(InputError, match="distinct"):
        parse_system(json.dumps(doc))
    with pytest.raises(InputError, match="distinct"):
        CoxeterSystem(((1, 2, 2), (2, 1, 2), (2, 2, 1)), names=("x", "y", "x"))


@pytest.mark.parametrize("name", ["", "a,b", "c]"])
def test_generator_names_a_witness_cannot_carry_are_rejected(name):
    # verify prints a witness as [a,b,...], and scripts split it on ","
    doc = {"generators": [name, "x"], "matrix": [[1, 3], [3, 1]]}
    with pytest.raises(InputError, match=re.escape("non-empty and hold no ',' or ']'")):
        parse_system(json.dumps(doc))


def test_serialize_round_trip():
    s = preset_system("B3")
    assert parse_system(serialize_system(s)) == s


def test_serialize_round_trip_with_infinity():
    s = CoxeterSystem(((1, INF, 3), (INF, 1, 2), (3, 2, 1)), names=("x", "y", "z"))
    t = parse_system(serialize_system(s))
    assert t == s
    assert '"inf"' in serialize_system(s)


# cyclic shifts --------------------------------------------------------------


def test_cyclic_shifts_empty():
    assert cyclic_shifts(()) == [()]


def test_cyclic_shifts_order():
    assert cyclic_shifts((0, 1, 2)) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_cyclic_shifts_count_and_multiset(ws):
    w = tuple(ws)
    shifts = cyclic_shifts(w)
    assert len(shifts) == len(w)
    assert all(sorted(v) == sorted(w) for v in shifts)


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 4))
    mat = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.sampled_from([2, 3, 4, 5, INF]))
            mat[i][j] = mat[j][i] = v
    return CoxeterSystem(tuple(tuple(r) for r in mat))


@given(small_systems())
def test_serialize_parse_round_trip_random(s):
    assert parse_system(serialize_system(s)) == s
