"""Coxeter systems, presets, and elementary word operations.

A Coxeter system is described by its symmetric matrix m: m[s][s] = 1 and,
for s != t, m[s][t] in {2, 3, ...} or infinity.  Generators are the
indices 0..rank-1; optional display names ride along for rendering only.
Words are tuples of generator indices.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable

from .errors import InputError
from .value import Value

INF = float("inf")

MAX_RANK = 16


class CoxeterSystem(Value):
    __slots__ = ("matrix", "names")

    def __init__(self, matrix: tuple[tuple[int | float, ...], ...],
                 names: tuple[str, ...] | None = None):
        m = matrix
        n = len(m)
        if n < 1:
            raise InputError("a Coxeter system needs at least one generator")
        if any(len(row) != n for row in m):
            raise InputError("Coxeter matrix must be square")
        for i in range(n):
            if m[i][i] != 1:
                raise InputError(f"diagonal entry m[{i}][{i}] must be 1")
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise InputError(f"Coxeter matrix must be symmetric at ({i},{j})")
                v = m[i][j]
                if v == INF:
                    continue
                if not isinstance(v, int) or v < 2:
                    raise InputError(
                        f"off-diagonal entry m[{i}][{j}]={v!r} must be an integer >= 2 or infinity"
                    )
        if names is None:
            names = tuple(str(i) for i in range(n))
        elif len(names) != n:
            raise InputError("generator name list does not match matrix size")
        elif len(set(names)) != n:
            # words, witnesses and DOT labels are read back by name
            raise InputError("generator names must be distinct")
        elif any(not g or "," in g or "]" in g for g in names):
            # a witness is printed as [a,b,...]
            raise InputError("generator names must be non-empty and hold no ',' or ']'")
        self._set(matrix, names)

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @property
    def generators(self) -> range:
        return range(self.rank)

    def m(self, s: int, t: int) -> int | float:
        return self.matrix[s][t]

    def commutes(self, s: int, t: int) -> bool:
        """True iff s and t are distinct and st = ts (edge label 2)."""
        return s != t and self.matrix[s][t] == 2


def cyclic_shifts(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All rotations of word, the word itself first.  The empty word has
    exactly one shift (itself)."""
    if not word:
        return [()]
    return [word[k:] + word[:k] for k in range(len(word))]


# ---------------------------------------------------------------------------
# Presets and the explicit-matrix document format.

PRESET_RE = re.compile(r"^(A|B|D|tA)(\d+)$|^I2:(\d+|inf)$")


def diagram(rank: int, edges: Iterable[tuple[int, int, int | float]]) -> CoxeterSystem:
    """The system on generators 0..rank-1 whose diagram has the edges
    (i, j, m): m[i][j] = m[j][i] = m, a later edge on the same pair
    replacing an earlier one.  Every other pair of distinct generators
    commutes (label 2)."""
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, lab in edges:
        if i == j or not (0 <= i < rank and 0 <= j < rank):
            raise InputError(f"edge ({i}, {j}) needs two distinct generators below {rank}")
        m[i][j] = m[j][i] = lab
    return CoxeterSystem(tuple(map(tuple, m)))


def _path(n: int) -> list[tuple[int, int, int]]:
    """The edges of the path 0 - 1 - ... - n-1, all labelled 3."""
    return [(i, i + 1, 3) for i in range(n - 1)]


# name: least k, then the rank and the edges as functions of k.  B ends
# the path with a 4, D hangs nodes 0 and 1 both on node 2, and tA closes
# a path on k+1 nodes into a cycle (tA1: two nodes, an infinite label).
_FAMILIES = {
    "A": (1, lambda k: k, _path),
    "B": (2, lambda k: k, lambda k: _path(k - 1) + [(k - 2, k - 1, 4)]),
    "D": (3, lambda k: k, lambda k: [(0, 2, 3)] + _path(k)[1:]),
    "tA": (1, lambda k: k + 1,
           lambda k: _path(k + 1) + [(k, 0, 3 if k > 1 else INF)]),
}


def _check_rank(rank: int) -> None:
    if rank > MAX_RANK:
        raise InputError(f"rank {rank} exceeds the cap of {MAX_RANK}")


def preset_system(name: str) -> CoxeterSystem:
    """A<k>, B<k>, D<k> or tA<k> from its diagram in _FAMILIES, or the
    dihedral I2:<m> for m >= 3 or inf.  The rank a name implies is
    checked against MAX_RANK before any edge is listed."""
    mo = PRESET_RE.match(name)
    if not mo:
        raise InputError(f"unknown system preset {name!r}")
    if mo.group(3) is not None:
        lab: int | float = INF if mo.group(3) == "inf" else int(mo.group(3))
        if lab != INF and lab < 3:
            raise InputError("I2:<m> needs m >= 3 (use an explicit matrix for m = 2)")
        return diagram(2, [(0, 1, lab)])
    fam, k = mo.group(1), int(mo.group(2))
    least, rank, edges = _FAMILIES[fam]
    _check_rank(rank(k))
    if k < least:
        raise InputError(f"{fam}<k> needs k >= {least}")
    return diagram(rank(k), edges(k))


def _entry_from_json(v, where: str) -> int | float:
    if v == "inf":
        return INF
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f"matrix entry at {where} must be an integer or \"inf\"")
    return v


def parse_system(text: str) -> CoxeterSystem:
    """Accept either a preset name (see preset_system) or a JSON document

        {"generators": ["a", "b"], "matrix": [[1, 3], [3, 1]]}

    with "inf" standing for an infinite label.  The generators field is
    optional; its names must be distinct, non-empty and hold no ',' or
    ']'.  The rank is capped at MAX_RANK to bound the size of the input
    the builders take on, and is checked before the matrix is read.
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise InputError(f"bad system document: {e}") from None
        if "matrix" not in doc:
            raise InputError('system document needs a "matrix" field')
        raw = doc["matrix"]
        if not isinstance(raw, list) or not raw or not all(
            isinstance(row, list) for row in raw
        ):
            raise InputError("matrix must be a non-empty list of rows")
        _check_rank(len(raw))
        mat = tuple(
            tuple(_entry_from_json(v, f"({i},{j})") for j, v in enumerate(row))
            for i, row in enumerate(raw)
        )
        names = None
        if "generators" in doc:
            gens = doc["generators"]
            if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
                raise InputError("generators must be a list of strings")
            names = tuple(gens)
        return CoxeterSystem(mat, names)
    return preset_system(text)
