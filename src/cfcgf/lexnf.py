"""Recognizer for lexicographically least words in commutation classes.

A word fails to be least exactly when some letter can commute backwards
past a contiguous block and land in front of a strictly larger letter.
The automaton tracks, for every generator a, the set of letters that
start a suffix of the input consisting entirely of letters commuting
with a; reading a is fatal when that set holds anything larger than a.

States are tuples of bitmasks, one per generator, so the construction
works over the whole free monoid and composes with any other recognizer
by product.
"""

from __future__ import annotations

from .core import CoxeterSystem
from .fsa import Dfa, explore

DEFAULT_STATE_BUDGET = 10**7


def reachable_sets(u: tuple[int, ...], system: CoxeterSystem) -> tuple[int, ...]:
    """Reference computation of the per-letter reach masks for a word."""
    masks = [0] * system.rank
    for a in system.generators:
        for i in range(len(u)):
            if all(system.commutes(a, x) for x in u[i:]):
                masks[a] |= 1 << u[i]
    return tuple(masks)


def is_lex_least(word: tuple[int, ...], system: CoxeterSystem) -> bool:
    """Direct check used by the tests; mirrors the automaton's criterion."""
    for j, c in enumerate(word):
        block: list[int] = []
        for i in range(j - 1, -1, -1):
            if not system.commutes(c, word[i]):
                break
            block.append(word[i])
        if any(x > c for x in block):
            return False
    return True


def build(system: CoxeterSystem, state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Complete DFA over the generator alphabet; every surviving word is
    the least member of its commutation class and every class is hit
    exactly once.  State 0 is the start, state 1 the dead state.  The
    machine has at most state_budget states, the dead state included."""
    above = [~((2 << a) - 1) for a in system.generators]  # letters > a

    def step(q: tuple[int, ...], c: int) -> tuple[int, ...] | None:
        if q[c] & above[c]:
            return None
        return tuple(
            (q[a] | (1 << c)) if system.commutes(a, c) else 0
            for a in system.generators
        )

    states, delta = explore((0,) * system.rank, step, system.rank, state_budget)
    return Dfa(
        alphabet_size=system.rank,
        delta=delta,
        initial=0,
        finals=frozenset(range(len(states))) - {1},
        dead=1,
        letter_names=system.names,
    )
