"""Automata for the reduced words of fully commutative (FC) and cyclically
fully commutative (CFC) elements.

A word is reduced and FC when no word in its commutation class repeats a
letter back to back or holds a braid factor, an alternating s,t,s,... run
of length m(s,t) for a finite label (Stembridge 1996).  That is a
conjunction of conditions on one letter or one pair each, so the linear
recognizer is the product of one small machine, a factor, per condition:
a letter factor keeps one bit, whether its letter is legal, and a pair
factor keeps the pair's chain and the braid watches the chain armed.  A
pair factor also sinks where either of its letters repeats, so each
condition is checked once: a letter has its own factor only when no pair
with a finite label holds it.

The reduced words of CFC elements are the words whose every rotation is a
reduced FC word (Boothby et al., J. Algebraic Combin. 2012).  Every
rotation of w lies in an intersection of languages iff, for each of
them, every rotation of w lies in it, so the cfc stage is the product of
the factors' `fsa.rotation_closure`s.  The pipeline, one word per
element, closes the whole linear recognizer guided by `lexnf.build`.
Both are exact by construction, and each checks the other.
"""

from __future__ import annotations

from typing import NamedTuple

from . import fsa, lexnf
from .core import INF, CoxeterSystem
from .errors import InternalError
from .fsa import DEFAULT_STATE_BUDGET, Dfa

MODES = ("cfc", "fc", "lexnf", "pipeline")

EMPTY_CHAIN = (-1, 0)  # (last letter, length)

PairState = tuple[tuple[int, int], int]  # (chain, watch mask)


class TrackedPair(NamedTuple):
    """Pair of generators s < t with a finite label m >= 3."""

    s: int
    t: int
    m: int


def finite_pairs(system: CoxeterSystem) -> tuple[TrackedPair, ...]:
    """The pairs s < t with a finite label m(s, t) >= 3, one pair factor
    each: a label 2 is a commutation, and an infinite one no relation."""
    return tuple(TrackedPair(s, t, system.m(s, t))
                 for s in system.generators for t in range(s + 1, system.rank)
                 if system.m(s, t) not in (2, INF))


def _chain_step(
    system: CoxeterSystem, pair: TrackedPair, chain: tuple[int, int], s: int
) -> tuple[tuple[int, int], bool]:
    """The pair's chain after reading s, and whether the chain now arms a
    watch on the pair's other letter (it is one letter short of a braid).
    s fails to commute with some letter of the pair: a letter commuting
    with both leaves the chain alone."""
    last, n = chain
    if s == pair.s or s == pair.t:
        if s == last or n >= pair.m - 1:
            raise InternalError(f"chain {chain} of pair {pair} cannot take {s}")
        return (s, n + 1), n + 1 == pair.m - 1
    if n and system.commutes(last, s):
        # s blocks only the other letter: the last one still moves past it
        return (last, 1), False
    return EMPTY_CHAIN, False


def _letter_step(system: CoxeterSystem, s: int, legal: int, c: int) -> int | None:
    """Whether s is legal after reading c, that is, whether no word of the
    commutation class ends in s; None for the sink when c is s and s is
    not legal."""
    if c == s:
        return 0 if legal else None
    return legal if system.commutes(s, c) else 1


def letter_factor(system: CoxeterSystem, s: int,
                  state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """The words that never read s where it is not legal; 3 states."""
    return fsa.explore(1, lambda q, c: _letter_step(system, s, q, c),
                       lambda q: True, system.rank, state_budget)


def _pair_step(
    system: CoxeterSystem, pair: TrackedPair, q: PairState, c: int
) -> PairState | None:
    """The pair's (chain, watch mask) after reading c, or None for the sink.
    The chain is the alternating run of the pair's letters that
    commutations can bring to the end of the word, as (last letter,
    length).  The watch mask holds the pair's letters that would complete
    a braid; a watch stays while the letters read commute with it.
    Reading a watched letter, or the chain's last letter, is not FC."""
    chain, watch = q
    if watch >> c & 1 or c == chain[0]:
        return None
    watch &= sum(1 << x for x in (pair.s, pair.t) if system.commutes(x, c))
    if system.commutes(pair.s, c) and system.commutes(pair.t, c):
        return chain, watch
    chain, arms = _chain_step(system, pair, chain, c)
    return chain, watch | arms << (pair.t if c == pair.s else pair.s)


def pair_factor(system: CoxeterSystem, pair: TrackedPair,
                state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """The words none of whose class holds a braid of pair or repeats the
    chain's last letter."""
    return fsa.explore((EMPTY_CHAIN, 0), lambda q, c: _pair_step(system, pair, q, c),
                       lambda q: True, system.rank, state_budget)


def factors(system: CoxeterSystem, state_budget: int = DEFAULT_STATE_BUDGET) -> list[Dfa]:
    """A letter factor for each letter in no finite pair, then one pair
    factor per finite pair; their product accepts the reduced FC words.
    A pair's chain ends in a letter x of the pair exactly while x is not
    legal, and reading x then sinks it, so the pair factor implies the
    letter factors of both its letters, which are left out."""
    pairs = finite_pairs(system)
    covered = {x for p in pairs for x in (p.s, p.t)}
    return ([letter_factor(system, s, state_budget)
             for s in system.generators if s not in covered]
            + [pair_factor(system, p, state_budget) for p in pairs])


def build(system: CoxeterSystem, mode: str = "cfc",
          state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """The machine for one stage: "fc" the linear recognizer, "cfc" its
    rotation closure (every reduced word of every CFC element), "lexnf"
    `lexnf.build` (the lexicographically least word of every commutation
    class), "pipeline" the closure guided by it (one word per CFC
    element).

    The linear recognizer is the `fsa.product` of the `factors`, the cfc
    stage the product of their minimized closures, and the pipeline the
    guided closure of the factors' product, which the guide cuts as it is
    built.  Each machine built on the way has at most state_budget states."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, not {mode!r}")
    if mode == "lexnf":
        return lexnf.build(system, state_budget)
    parts = factors(system, state_budget)
    if mode == "pipeline":
        return fsa.rotation_closure(parts, lexnf.build(system, state_budget),
                                    state_budget)
    if mode == "cfc":
        parts = [fsa.minimize(fsa.rotation_closure([f], None, state_budget))
                 for f in parts]
    return fsa.product(parts, state_budget)
