"""Automaton whose accepted words are the reduced expressions of cyclically
fully commutative elements.

A state keeps, besides the set of letters that may legally extend the word,
two kinds of chain bookkeeping per non-commuting generator pair {s,t}:

* the current chain CC: the longest alternating {s,t}-run that some
  commutation-equivalent word puts at the very end;
* the initial chain IC: the longest such run placeable at the very front.

Letters living in both runs are marked (underlined); they always form a
prefix of CC matching a suffix of IC.  Two booleans per pair record whether
the next s (resp. t) would still land adjacent to IC.  A braid watch list
holds triples (f, sec, exempt): reading f now would complete a braid, sec
was the letter that armed the watch, and exempt marks watches whose chain
swallowed the whole initial chain (rotating the word's head then shrinks the
chain before it can complete, so such watches cannot fire cyclically).

Pairs with an infinite label get the same treatment through a bounded
summary (first/last letters and a 0/1/2+ size class per chain) since their
chains never complete a braid but still decide cyclic reducedness.

A word is cyclically fully commutative iff every rotation of it avoids the
sink: rotating a word never changes its cyclic structure, and the sink
exactly captures the linear failures.  Each state remembers the first word
that reached it, and is accepting iff that witness survives re-reading from
every cyclic starting point.  This is exact whenever no state holds two
words with different cyclic verdicts, which is what the chain data in the
state is there for: it tells such words apart.  It does not always manage
it.  With labels 4/inf/2 the bounded summary of the infinite pair gives two
such words one state (pinned in the tests), and the rule stays
conservative; on the affine cycles tA5 and tA6 merged states make it
accept words that are not cyclically fully commutative (the shortest have
lengths 11 and 13).
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Union

from .core import CoxeterSystem, TrackedPair, cyclic_shifts
from .errors import BudgetError, InternalError
from .fsa import Dfa

DEFAULT_STATE_BUDGET = 10**7


class FinitePairState(NamedTuple):
    cc: tuple[tuple[int, bool], ...]  # (generator, underlined)
    ic: tuple[int, ...]
    b_s: bool  # s = smaller generator of the pair
    b_t: bool

    def shared(self) -> int:
        n = 0
        for _, underlined in self.cc:
            if not underlined:
                break
            n += 1
        return n


class InfPairState(NamedTuple):
    b_s: bool
    b_t: bool
    ic_first: int | None
    ic_last: int | None
    ic_size: int  # 0, 1, or 2 meaning "2 or more"
    cc_last: tuple[int, bool] | None
    d_first: int | None
    d_last: int | None
    d_size: int


PairState = Union[FinitePairState, InfPairState]

EMPTY_FINITE = FinitePairState((), (), True, True)
EMPTY_INF = InfPairState(True, True, None, None, 0, None, None, None, 0)


class State(NamedTuple):
    e: int  # bitmask of letters that keep the word reduced and FC
    eprime: frozenset[tuple[int, int, bool]]  # (f, sec, exempt)
    pairs: tuple[PairState, ...]  # indexed like CoxeterSystem.tracked_pairs()


def initial_state(system: CoxeterSystem, tracked: tuple[TrackedPair, ...]) -> State:
    e = (1 << system.rank) - 1
    pairs = tuple(
        EMPTY_INF if p.unbounded else EMPTY_FINITE for p in tracked
    )
    return State(e, frozenset(), pairs)


def _bump(size: int) -> int:
    return min(size + 1, 2)


def _append_own(rec: PairState, pair: TrackedPair, s: int) -> PairState:
    """Rule for reading a letter belonging to the pair."""
    other = pair.t if s == pair.s else pair.s
    b_this = rec.b_s if s == pair.s else rec.b_t
    b_other = rec.b_t if s == pair.s else rec.b_s
    if isinstance(rec, FinitePairState):
        if rec.cc and rec.cc[-1][0] == s:
            raise InternalError(f"chain for pair {pair} would repeat letter {s}")
        if b_this:
            if rec.ic and rec.ic[-1] == s:
                raise InternalError(f"initial chain for pair {pair} would repeat {s}")
            if any(not u for _, u in rec.cc):
                raise InternalError("marked letters must cover the chain when appendable")
            return FinitePairState(rec.cc + ((s, True),), rec.ic + (s,), b_other, b_other)
        return FinitePairState(rec.cc + ((s, False),), rec.ic, False, False)
    # unbounded pair, same shape on the summary
    if rec.cc_last is not None and rec.cc_last[0] == s:
        raise InternalError(f"chain for pair {pair} would repeat letter {s}")
    if b_this:
        if rec.ic_last == s:
            raise InternalError(f"initial chain for pair {pair} would repeat {s}")
        if rec.d_size:
            raise InternalError("marked letters must cover the chain when appendable")
        first = rec.ic_first if rec.ic_size else s
        return InfPairState(
            b_other, b_other, first, s, _bump(rec.ic_size), (s, True),
            rec.d_first, rec.d_last, rec.d_size,
        )
    d_first = rec.d_first if rec.d_size else s
    return InfPairState(
        False, False, rec.ic_first, rec.ic_last, rec.ic_size, (s, False),
        d_first, s, _bump(rec.d_size),
    )


def _cross(rec: PairState, pair: TrackedPair, system: CoxeterSystem, s: int) -> PairState:
    """Rule for reading a letter outside the pair."""
    with_s = system.commutes(pair.s, s)
    with_t = system.commutes(pair.t, s)
    if with_s and with_t:
        return rec
    if isinstance(rec, FinitePairState):
        b_s, b_t = rec.b_s, rec.b_t
        if not with_s and not with_t:
            return FinitePairState((), rec.ic, False, False)
        # exactly one pair member commutes with s
        nc, cm = (pair.s, pair.t) if not with_s else (pair.t, pair.s)
        if not rec.cc:
            # nothing to cut; the non-commuting member can no longer reach IC
            if nc == pair.s:
                b_s = False
            else:
                b_t = False
            return FinitePairState((), rec.ic, b_s, b_t)
        last, underlined = rec.cc[-1]
        if last == nc:
            if nc == pair.s:
                b_s = False
            else:
                b_t = False
            return FinitePairState((), rec.ic, b_s, b_t)
        return FinitePairState(((last, underlined),), rec.ic, False, False)
    if not with_s and not with_t:
        return InfPairState(
            False, False, rec.ic_first, rec.ic_last, rec.ic_size, None, None, None, 0
        )
    nc = pair.s if not with_s else pair.t
    if rec.cc_last is None:
        b_s = rec.b_s and nc != pair.s
        b_t = rec.b_t and nc != pair.t
        return InfPairState(
            b_s, b_t, rec.ic_first, rec.ic_last, rec.ic_size, None, None, None, 0
        )
    last, underlined = rec.cc_last
    if last == nc:
        b_s = rec.b_s and nc != pair.s
        b_t = rec.b_t and nc != pair.t
        return InfPairState(
            b_s, b_t, rec.ic_first, rec.ic_last, rec.ic_size, None, None, None, 0
        )
    if underlined:
        return InfPairState(
            False, False, rec.ic_first, rec.ic_last, rec.ic_size, (last, True),
            None, None, 0,
        )
    return InfPairState(
        False, False, rec.ic_first, rec.ic_last, rec.ic_size, (last, False),
        last, last, 1,
    )


def transition(
    system: CoxeterSystem,
    tracked: tuple[TrackedPair, ...],
    q: State,
    s: int,
) -> State | None:
    """Successor state, or None for the sink.  A braid watch armed here is
    exempt when its chain swallowed the whole initial chain."""
    if not (q.e >> s) & 1:
        return None
    for f, _, _ in q.eprime:
        if f == s:
            return None
    e = q.e & ~(1 << s)
    for t in system.non_commuting(s):
        e |= 1 << t
    new_pairs = []
    armed: list[tuple[int, int, bool]] = []
    for pair, rec in zip(tracked, q.pairs):
        if s == pair.s or s == pair.t:
            nrec = _append_own(rec, pair, s)
            if not pair.unbounded:
                assert isinstance(nrec, FinitePairState)
                if len(nrec.cc) > pair.m - 1:
                    raise InternalError(
                        f"chain for pair {pair} exceeded length {pair.m - 1}"
                    )
                if len(nrec.ic) > pair.m - 1:
                    raise InternalError(
                        f"initial chain for pair {pair} exceeded length {pair.m - 1}"
                    )
                if len(nrec.cc) == pair.m - 1:
                    other = pair.t if s == pair.s else pair.s
                    armed.append((other, s, nrec.shared() == len(nrec.ic)))
        else:
            nrec = _cross(rec, pair, system, s)
        new_pairs.append(nrec)
    eprime = frozenset(
        p for p in q.eprime if system.commutes(p[0], s)
    ) | frozenset(armed)
    return State(e, eprime, tuple(new_pairs))


def state_debug_dict(system: CoxeterSystem, tracked, q: State) -> dict:
    """JSON-friendly rendering; marked letters appear as "_x"."""
    def letter(g: int, underlined: bool) -> str:
        return ("_" if underlined else "") + system.names[g]

    pairs = {}
    for pair, rec in zip(tracked, q.pairs):
        key = f"{system.names[pair.s]}-{system.names[pair.t]}"
        if isinstance(rec, FinitePairState):
            pairs[key] = {
                "cc": [letter(g, u) for g, u in rec.cc],
                "ic": [system.names[g] for g in rec.ic],
                "b": [rec.b_s, rec.b_t],
            }
        else:
            pairs[key] = {
                "ic_first": None if rec.ic_first is None else system.names[rec.ic_first],
                "ic_last": None if rec.ic_last is None else system.names[rec.ic_last],
                "ic_size": rec.ic_size,
                "cc_last": None if rec.cc_last is None else letter(*rec.cc_last),
                "d_first": None if rec.d_first is None else system.names[rec.d_first],
                "d_last": None if rec.d_last is None else system.names[rec.d_last],
                "d_size": rec.d_size,
                "b": [rec.b_s, rec.b_t],
            }
    return {
        "e": [system.names[g] for g in system.generators if (q.e >> g) & 1],
        "eprime": sorted(
            [system.names[f], system.names[sec], flag] for f, sec, flag in q.eprime
        ),
        "pairs": pairs,
    }


def _survives_all_rotations(
    delta: list[list[int]], sink: int, word: tuple[int, ...]
) -> bool:
    """True when re-reading the word from every cyclic starting point stays
    clear of the sink."""
    for rotated in cyclic_shifts(word):
        state = 0
        for s in rotated:
            state = delta[state][s]
            if state == sink:
                return False
    return True


def build(
    system: CoxeterSystem,
    mode: str = "cfc",
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Dfa:
    """Breadth-first closure from the empty-word state.  State 0 is the
    start, state 1 the sink; the rest are numbered in discovery order.

    In fc mode every state but the sink accepts: the language is the
    reduced fully commutative words.  In cfc mode a state accepts iff the
    first word that reached it still avoids the sink when re-read from
    every cyclic starting point (see the module docstring)."""
    if mode not in ("cfc", "fc"):
        raise ValueError(f"mode must be 'cfc' or 'fc', not {mode!r}")
    tracked = system.tracked_pairs()
    start = initial_state(system, tracked)
    queue = deque([start])
    sink = 1  # reserved before any discovery so builds are reproducible
    numbered: dict[State, int] = {start: 0}
    witnesses: dict[int, tuple[int, ...]] = {0: ()}
    next_id = 2
    table: dict[int, list[int]] = {}
    while queue:
        q = queue.popleft()
        qid = numbered[q]
        row = []
        for s in system.generators:
            r = transition(system, tracked, q, s)
            if r is None:
                row.append(sink)
                continue
            if r not in numbered:
                if next_id > state_budget:
                    raise BudgetError(
                        f"state budget {state_budget} exceeded while building"
                    )
                numbered[r] = next_id
                witnesses[next_id] = witnesses[qid] + (s,)
                next_id += 1
                queue.append(r)
            row.append(numbered[r])
        table[qid] = row
    n = next_id
    full = [[sink] * system.rank for _ in range(n)]
    for qid, row in table.items():
        full[qid] = row
    if mode == "fc":
        finals = set(range(n)) - {sink}
    else:
        finals = {
            qid
            for qid, word in witnesses.items()
            if _survives_all_rotations(full, sink, word)
        }
    return Dfa(
        alphabet_size=system.rank,
        delta=tuple(tuple(r) for r in full),
        initial=0,
        finals=frozenset(finals),
        dead=sink,
        letter_names=system.names,
    )
