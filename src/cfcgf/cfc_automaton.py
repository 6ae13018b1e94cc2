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


def _pair_step(
    system: CoxeterSystem, pair: TrackedPair, rec: PairState, s: int
) -> tuple[PairState, tuple[int, int, bool] | None]:
    """One pair's record after reading s, and the braid watch it arms (or
    None).  A watch is exempt when its chain swallowed the whole initial
    chain."""
    if s != pair.s and s != pair.t:
        return _cross(rec, pair, system, s), None
    nrec = _append_own(rec, pair, s)
    if pair.unbounded:
        return nrec, None
    assert isinstance(nrec, FinitePairState)
    if len(nrec.cc) > pair.m - 1:
        raise InternalError(f"chain for pair {pair} exceeded length {pair.m - 1}")
    if len(nrec.ic) > pair.m - 1:
        raise InternalError(
            f"initial chain for pair {pair} exceeded length {pair.m - 1}"
        )
    if len(nrec.cc) < pair.m - 1:
        return nrec, None
    other = pair.t if s == pair.s else pair.s
    return nrec, (other, s, nrec.shared() == len(nrec.ic))


def transition(
    system: CoxeterSystem,
    tracked: tuple[TrackedPair, ...],
    q: State,
    s: int,
) -> State | None:
    """Successor state, or None for the sink."""
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
        nrec, watch = _pair_step(system, pair, rec, s)
        new_pairs.append(nrec)
        if watch is not None:
            armed.append(watch)
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
    delta: list[tuple[int, ...]], sink: int, word: tuple[int, ...]
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
    The machine has at most state_budget states, the sink included.

    In fc mode every state but the sink accepts: the language is the
    reduced fully commutative words.  In cfc mode a state accepts iff the
    first word that reached it still avoids the sink when re-read from
    every cyclic starting point (see the module docstring).

    The closure computes exactly what repeated `transition` calls would,
    on an encoding of State: each pair's records are interned as small
    ints, one table per pair, and the armed braid watches are bits of one
    int.  A pair has few distinct records, so `_pair_step` runs once per
    (record, letter) and its result is reused; letters that commute with
    both members of a pair leave its record alone and skip it."""
    if mode not in ("cfc", "fc"):
        raise ValueError(f"mode must be 'cfc' or 'fc', not {mode!r}")
    tracked = system.tracked_pairs()
    rank = system.rank
    letters = system.generators

    # every watch a finite pair can arm, as one bit each
    watch_bits: dict[tuple[int, int, bool], int] = {}
    for pair in tracked:
        if not pair.unbounded:
            for sec, other in ((pair.s, pair.t), (pair.t, pair.s)):
                for exempt in (False, True):
                    watch_bits[(other, sec, exempt)] = 1 << len(watch_bits)
    fires = [0] * rank  # watches that send s to the sink
    keeps = [0] * rank  # watches that stay armed after reading s
    for (f, _, _), bit in watch_bits.items():
        fires[f] |= bit
        for s in letters:
            if system.commutes(f, s):
                keeps[s] |= bit
    clear = [~(1 << s) for s in letters]
    grow = [sum(1 << t for t in system.non_commuting(s)) for s in letters]

    records = [[rec] for rec in initial_state(system, tracked).pairs]
    record_ids = [{recs[0]: 0} for recs in records]
    # memo[p][record id][s]: (successor record id, armed watch bit or 0)
    memo = [[[None] * rank] for _ in tracked]

    def step(p: int, rid: int, s: int) -> tuple[int, int]:
        nrec, watch = _pair_step(system, tracked[p], records[p][rid], s)
        nrid = record_ids[p].get(nrec)
        if nrid is None:
            nrid = record_ids[p][nrec] = len(records[p])
            records[p].append(nrec)
            memo[p].append([None] * rank)
        return nrid, 0 if watch is None else watch_bits[watch]

    # (key position, pair index, memo table) of the pairs s can change
    touched = [
        [
            (p + 2, p, memo[p])
            for p, pair in enumerate(tracked)
            if not (system.commutes(pair.s, s) and system.commutes(pair.t, s))
        ]
        for s in letters
    ]

    # a state's key is (e, watch bits, record id of each pair)
    start = ((1 << rank) - 1, 0) + (0,) * len(tracked)
    sink = 1  # reserved before any discovery so builds are reproducible
    sink_row = (sink,) * rank
    keys: list[tuple[int, ...] | None] = [start, None]
    numbered = {start: 0}
    witnesses: dict[int, tuple[int, ...]] = {0: ()}
    delta: list[tuple[int, ...]] = []
    for qid, key in enumerate(keys):  # keys grows as states are found
        if key is None:
            delta.append(sink_row)
            continue
        e, w = key[0], key[1]
        row = []
        for s in letters:
            if not (e >> s) & 1 or w & fires[s]:
                row.append(sink)
                continue
            nxt = list(key)
            nxt[0] = (e & clear[s]) | grow[s]
            armed = w & keeps[s]
            for i, p, table in touched[s]:
                cell = table[key[i]]
                hit = cell[s]
                if hit is None:
                    hit = cell[s] = step(p, key[i], s)
                nxt[i] = hit[0]
                armed |= hit[1]
            nxt[1] = armed
            r = tuple(nxt)
            rid = numbered.get(r)
            if rid is None:
                rid = len(keys)
                if rid >= state_budget:
                    raise BudgetError(
                        f"state budget {state_budget} exceeded while building"
                    )
                numbered[r] = rid
                keys.append(r)
                witnesses[rid] = witnesses[qid] + (s,)
            row.append(rid)
        delta.append(tuple(row))
    n = len(keys)
    if mode == "fc":
        finals = set(range(n)) - {sink}
    else:
        finals = {
            qid
            for qid, word in witnesses.items()
            if _survives_all_rotations(delta, sink, word)
        }
    return Dfa(
        alphabet_size=rank,
        delta=tuple(delta),
        initial=0,
        finals=frozenset(finals),
        dead=sink,
        letter_names=system.names,
    )
