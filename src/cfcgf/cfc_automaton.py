"""Automata for the reduced words of fully commutative (FC) and cyclically
fully commutative (CFC) elements.

A word is reduced and FC when no word in its commutation class repeats a
letter back to back or holds a braid factor, an alternating s,t,s,... run
of length m(s,t) for a finite label (Stembridge 1996).  The linear
recognizer reads a word once, left to right, and its state holds three
things:

* e, the bitmask of legal next letters: those that no word of the
  commutation class ends in;
* the watch mask, the letters whose reading would complete a braid;
* for each pair {s,t} with a finite label, the chain (last letter,
  length): the alternating run of s and t that commutations can bring to
  the end of the word.  A pair with an infinite label has no braid and
  keeps nothing.

What a letter does to e and the watch mask, and which chains it can
change, depends only on the letter, so `letter_tables` works it out once
per system and `transition` reads it from there; each chain the letter
can change still goes through the one rule, `_chain_step`.

The reduced words of CFC elements are the words whose every rotation is a
reduced FC word (Boothby et al., J. Algebraic Combin. 2012), so the cyclic
machines are `fsa.rotation_closure` of the linear one: without a guide it
accepts every reduced CFC word, and guided by `lexnf.build` it keeps one
word per element.  Both are exact by construction.
"""

from __future__ import annotations

from . import fsa, lexnf
from .core import CoxeterSystem, TrackedPair
from .errors import InternalError
from .fsa import DEFAULT_STATE_BUDGET, Dfa

MODES = ("fc", "cfc", "pipeline")

EMPTY_CHAIN = (-1, 0)  # (last letter, length)

State = tuple[int, int, tuple[tuple[int, int], ...]]  # (e, watch mask, chains)
# per letter: (legal letters added, watch letters kept,
#              changed pairs as (index, pair, watch bit it arms))
Tables = tuple[tuple[int, int, tuple[tuple[int, TrackedPair, int], ...]], ...]


def finite_pairs(system: CoxeterSystem) -> tuple[TrackedPair, ...]:
    """The pairs whose chains the linear recognizer keeps, in state order."""
    return tuple(p for p in system.tracked_pairs() if not p.unbounded)


def initial_state(system: CoxeterSystem) -> State:
    return (1 << system.rank) - 1, 0, (EMPTY_CHAIN,) * len(finite_pairs(system))


def _chain_step(
    system: CoxeterSystem, pair: TrackedPair, chain: tuple[int, int], s: int
) -> tuple[tuple[int, int], bool]:
    """The pair's chain after reading s, and whether the chain now arms a
    watch on the pair's other letter (it is one letter short of a braid).
    s fails to commute with at least one letter of the pair: a letter
    commuting with both leaves the chain alone, and `letter_tables`
    leaves such pairs out."""
    last, n = chain
    if s == pair.s or s == pair.t:
        if s == last or n >= pair.m - 1:
            raise InternalError(f"chain {chain} of pair {pair} cannot take {s}")
        return (s, n + 1), n + 1 == pair.m - 1
    if n and system.commutes(last, s):
        # s blocks only the other letter: the last one still moves past it
        return (last, 1), False
    return EMPTY_CHAIN, False


def letter_tables(system: CoxeterSystem) -> Tables:
    """What each letter s does to a state, computed once per system: the
    legal letters it adds (those not commuting with s), the watch letters
    it keeps (those commuting with s), and the finite pairs whose chain
    it can change, as (index in finite_pairs(system), pair, bit of the
    watch the chain arms), the watch being on the pair's letter other
    than s.  A letter commuting with both letters of a pair leaves the
    pair's chain alone, so that pair is left out."""
    pairs = finite_pairs(system)
    tables = []
    for s in system.generators:
        adds = sum(1 << t for t in system.non_commuting(s))
        keeps = sum(1 << t for t in system.generators if system.commutes(s, t))
        changes = tuple(
            (i, pair, 1 << (pair.t if s == pair.s else pair.s))
            for i, pair in enumerate(pairs)
            if not (system.commutes(pair.s, s) and system.commutes(pair.t, s))
        )
        tables.append((adds, keeps, changes))
    return tuple(tables)


def transition(
    system: CoxeterSystem, tables: Tables, q: State, s: int
) -> State | None:
    """Successor of q on letter s, or None for the sink.  tables is
    letter_tables(system); every chain s can change goes through
    `_chain_step`."""
    e, watch, chains = q
    if not (e >> s) & 1 or (watch >> s) & 1:
        return None
    adds, keeps, changes = tables[s]
    e = (e | adds) & ~(1 << s)
    watch &= keeps
    stepped = list(chains)
    for i, pair, other in changes:
        stepped[i], arms = _chain_step(system, pair, chains[i], s)
        if arms:
            watch |= other
    return e, watch, tuple(stepped)


def build(
    system: CoxeterSystem,
    mode: str = "cfc",
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Dfa:
    """The machine for one stage: "fc" the linear recognizer, "cfc" its
    rotation closure (every reduced word of every CFC element), "pipeline"
    the closure guided by `lexnf.build` (one word per CFC element).

    The linear recognizer is `fsa.explore` over `transition` from the
    empty word, and every state but the sink accepts.
    Each machine built on the way has at most state_budget states."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, not {mode!r}")
    tables = letter_tables(system)
    a = fsa.explore(
        initial_state(system),
        lambda q, s: transition(system, tables, q, s),
        lambda q: True,
        system.names,
        state_budget,
    )
    if mode == "fc":
        return a
    guide = lexnf.build(system, state_budget) if mode == "pipeline" else None
    return fsa.rotation_closure(a, guide, state_budget)
