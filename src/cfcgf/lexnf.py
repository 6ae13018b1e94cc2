"""Recognizer for lexicographically least words in commutation classes.

A word fails to be least exactly when some letter can commute backwards
past a contiguous block and land in front of a strictly larger letter.
For every generator a, the block in question is the longest suffix of
the input made of letters that commute with a, and reading a is fatal
exactly when that suffix holds a letter larger than a.  That is all the
step ever asks of the suffix, so the state keeps one bit per generator:
bit a is set iff the suffix for a holds a letter larger than a.

Reading c clears the bit of every letter that does not commute with c
(their suffixes end), and sets the bit of every letter a < c that
commutes with c.  Two states that differ in bit a differ on whether
reading a is allowed, so every pair of found states is told apart by one
letter: the machine is minimal, except that it lists its sink even where
no word reaches it.  The construction works over the whole free monoid
and composes with any other recognizer by product.
"""

from __future__ import annotations

from .core import CoxeterSystem
from .fsa import DEFAULT_STATE_BUDGET, Dfa, explore


def build(system: CoxeterSystem, state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Complete DFA over the generator alphabet; every surviving word is
    the least member of its commutation class and every class is hit
    exactly once.  A state is the bitmask of generators a whose suffix of
    letters commuting with a holds a letter larger than a, the empty mask
    at the start.  State 0 is the start, state 1 the dead state.  The
    machine has at most state_budget states, the dead state included."""
    # reading c keeps the bits of the letters commuting with c and sets
    # those of the smaller ones
    keep = [sum(1 << a for a in system.generators if system.commutes(a, c))
            for c in system.generators]
    smaller = [keep[c] & ((1 << c) - 1) for c in system.generators]

    def step(q: int, c: int) -> int | None:
        if q >> c & 1:
            return None
        return q & keep[c] | smaller[c]

    return explore(0, step, lambda q: True, system.rank, state_budget)
