"""Brute-force reference for full commutativity and its cyclic variant.

Everything here works straight from the definitions: commutation classes
are explored swap by swap, and words are classified by scanning every
class member for forbidden factors (a repeated letter, or an alternating
s,t,s,... run of length m[s][t] when that label is finite).  Nothing is
shared with the automaton modules; this code is the independent check
those modules are measured against.  It is meant to be obviously correct,
not fast.
"""

from __future__ import annotations

from .core import CoxeterSystem, cyclic_shifts
from .errors import BudgetError
from .value import Value

DEFAULT_CLASS_BUDGET = 10**6

Word = tuple[int, ...]


def commutation_class(system: CoxeterSystem, word: Word, budget: int = DEFAULT_CLASS_BUDGET) -> frozenset[Word]:
    """All words reachable from word by swapping adjacent commuting letters."""
    word = tuple(word)
    seen = {word}
    queue = [word]
    while queue:
        v = queue.pop()
        for i in range(len(v) - 1):
            if system.commutes(v[i], v[i + 1]):
                u = v[:i] + (v[i + 1], v[i]) + v[i + 2 :]
                if u not in seen:
                    if len(seen) >= budget:
                        raise BudgetError(
                            f"commutation class of a word of length {len(word)} exceeded {budget} members"
                        )
                    seen.add(u)
                    queue.append(u)
    return frozenset(seen)


def has_forbidden_factor(system: CoxeterSystem, word: Word) -> bool:
    """A repeated letter xx, or a full alternating braid run for a finite label."""
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            return True
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a == b or system.commutes(a, b):
            continue
        m = system.m(a, b)
        if m == float("inf"):
            continue
        # need word[i : i + m] == a, b, a, b, ...
        if i + m <= len(word) and all(
            word[i + j] == (a if j % 2 == 0 else b) for j in range(int(m))
        ):
            return True
    return False


def is_reduced_fc(system: CoxeterSystem, word: Word, budget: int = DEFAULT_CLASS_BUDGET) -> bool:
    """True iff no member of the commutation class carries a forbidden factor.

    For such a word every rewriting move available is a commutation, so the
    word is reduced, and the class is the complete set of reduced words of
    the group element it spells.
    """
    return not any(
        has_forbidden_factor(system, v) for v in commutation_class(system, word, budget)
    )


def is_cfc(system: CoxeterSystem, word: Word, budget: int = DEFAULT_CLASS_BUDGET) -> bool:
    """True iff every rotation of every class member is again reduced-FC."""
    cls = commutation_class(system, tuple(word), budget)
    if any(has_forbidden_factor(system, v) for v in cls):
        return False
    rotations = {r for v in cls for r in cyclic_shifts(v)}
    return all(is_reduced_fc(system, r, budget) for r in sorted(rotations))


class OracleReport(Value):
    __slots__ = ("system", "max_length", "kind", "fc_counts", "cfc_counts", "witnesses")

    def __init__(self, system: CoxeterSystem, max_length: int, kind: str,
                 fc_counts: list[int], cfc_counts: list[int] | None,
                 witnesses: dict[int, list[Word]] | None):
        self._set(system, max_length, kind, fc_counts, cfc_counts, witnesses)

    def counts(self) -> list[int]:
        return self.fc_counts if self.kind == "fc" else list(self.cfc_counts or [])

    def to_json_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "max_length": self.max_length,
            "fc_counts": [str(c) for c in self.fc_counts],
        }
        if self.cfc_counts is not None:
            doc["cfc_counts"] = [str(c) for c in self.cfc_counts]
        if self.witnesses is not None:
            doc["witnesses"] = {
                str(k): [list(w) for w in ws] for k, ws in self.witnesses.items()
            }
        return doc


def count_elements(
    system: CoxeterSystem,
    max_len: int,
    kind: str = "cfc",
    budget: int = DEFAULT_CLASS_BUDGET,
    witnesses: bool = False,
) -> OracleReport:
    """Count group elements per length: one representative word per element.

    An element is counted through the lexicographically least member of the
    commutation class of its reduced words.  Two facts keep the search space
    prefix-closed, so a frontier walk is exhaustive: appending a letter maps
    a class into the class of the extended word, hence (1) a word beaten by
    a class sibling stays beaten after extension, and (2) a forbidden factor
    somewhere in the class survives extension.
    """
    if kind not in ("fc", "cfc"):
        raise ValueError(f"kind must be 'fc' or 'cfc', not {kind!r}")
    fc_counts = [1]
    cfc_counts: list[int] | None = [1] if kind == "cfc" else None
    wit: dict[int, list[Word]] | None = {0: [()]} if witnesses else None
    frontier: list[Word] = [()]
    for length in range(1, max_len + 1):
        nxt: list[Word] = []
        for w in frontier:
            for s in system.generators:
                ws = w + (s,)
                cls = commutation_class(system, ws, budget)
                if min(cls) != ws:
                    continue
                if any(has_forbidden_factor(system, v) for v in cls):
                    continue
                nxt.append(ws)
        nxt.sort()
        frontier = nxt
        fc_counts.append(len(frontier))
        if kind == "cfc":
            reps = [w for w in frontier if is_cfc(system, w, budget)]
            assert cfc_counts is not None
            cfc_counts.append(len(reps))
        else:
            reps = frontier
        if wit is not None:
            wit[length] = list(reps)
    return OracleReport(system, max_len, kind, fc_counts, cfc_counts, wit)
