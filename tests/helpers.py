"""Brute-force checks and conversions that only the tests use."""

from __future__ import annotations

import json

from cfcgf.core import INF, CoxeterSystem
from cfcgf.fsa import Dfa, Word, difference_witness, product


def equivalent(a: Dfa, b: Dfa) -> bool:
    return difference_witness(a, b) is None


def subset_counterexample(a: Dfa, b: Dfa) -> Word | None:
    """Shortest, then least, word accepted by a but not by b, or None if
    L(a) <= L(b): L(a & b) lies in L(a), so it differs from L(a) exactly
    on L(a) - L(b)."""
    return difference_witness(product([a, b]), a)


def is_subset(a: Dfa, b: Dfa) -> bool:
    return subset_counterexample(a, b) is None


def accepted_words(dfa: Dfa, max_len: int) -> list[Word]:
    """All accepted words of length at most max_len, shortest first and
    lexicographic within a length.  Words that reach the dead state are
    not extended.  Exponential in max_len; test sizes only."""
    out: list[Word] = []
    layer: list[tuple[Word, int]] = [((), dfa.initial)]
    if dfa.initial in dfa.finals:
        out.append(())
    for _ in range(max_len):
        nxt = []
        for word, q in layer:
            for c in range(dfa.alphabet_size):
                r = dfa.delta[q][c]
                if r == dfa.dead:
                    continue
                nxt.append((word + (c,), r))
        layer = nxt
        out.extend(w for w, q in layer if q in dfa.finals)
    return out


def count_words(dfa: Dfa, n: int) -> list[int]:
    """Accepted words of each length 0..n, by a walk from the initial
    state over every state but the dead one, keeping only the states
    that words reach.  It shares no code with `genfun`: a reference."""
    out = []
    vec = {dfa.initial: 1}
    for _ in range(n + 1):
        out.append(sum(c for q, c in vec.items() if q in dfa.finals))
        nxt: dict[int, int] = {}
        for q, c in vec.items():
            for r in dfa.delta[q]:
                if r != dfa.dead:
                    nxt[r] = nxt.get(r, 0) + c
        vec = nxt
    return out


def to_json_dict(a: Dfa, names) -> dict:
    """The document `Dfa.json_pieces` writes, with names[c] for letter c."""
    return {
        "alphabet": list(names),
        "states": a.num_states,
        "initial": a.initial,
        "finals": sorted(a.finals),
        "dead": a.dead,
        "delta": [list(row) for row in a.delta],
    }


def to_json(a: Dfa, names) -> str:
    """The text `Dfa.json_pieces` writes, joined."""
    return "".join(a.json_pieces(names))


def is_lex_least(word: tuple[int, ...], system: CoxeterSystem) -> bool:
    """Whether no letter of word can commute backwards past a block
    holding a larger letter; the criterion `lexnf.build` applies."""
    for j, c in enumerate(word):
        block: list[int] = []
        for i in range(j - 1, -1, -1):
            if not system.commutes(c, word[i]):
                break
            block.append(word[i])
        if any(x > c for x in block):
            return False
    return True


def serialize_system(system: CoxeterSystem) -> str:
    """Inverse of parse_system for explicit documents (round-trips exactly)."""
    mat = [["inf" if v == INF else v for v in row] for row in system.matrix]
    return json.dumps({"generators": list(system.names), "matrix": mat})
