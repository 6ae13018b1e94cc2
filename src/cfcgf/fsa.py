"""Deterministic finite automata over an integer alphabet.

Every automaton here is complete: delta[q][a] is defined for all states q and
letters a.  A state that can never reach an accepting state again may be
recorded in ``dead``; it is a hint used for pretty-printing and state counts,
not a semantic requirement.  Operations renumber states by breadth-first
discovery from the initial state (letters in increasing order), which makes
their output deterministic and therefore byte-for-byte reproducible.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, compress

from .errors import BudgetError, InputError

Word = tuple[int, ...]


@dataclass(frozen=True)
class Dfa:
    alphabet_size: int
    delta: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]
    dead: int | None = None
    letter_names: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        n = len(self.delta)
        if n == 0:
            raise InputError("automaton needs at least one state")
        if any(len(row) != self.alphabet_size for row in self.delta):
            raise InputError("transition table width must equal alphabet size")
        for q, row in enumerate(self.delta):
            for a, r in enumerate(row):
                if not (0 <= r < n):
                    raise InputError(f"transition {q} --{a}--> {r} leaves the state set")
        if not (0 <= self.initial < n):
            raise InputError("initial state out of range")
        if any(not (0 <= f < n) for f in self.finals):
            raise InputError("final state out of range")
        if self.dead is not None:
            if not (0 <= self.dead < n):
                raise InputError("dead state out of range")
            if self.dead in self.finals:
                raise InputError("dead state cannot be accepting")
        if not self.letter_names:
            object.__setattr__(
                self, "letter_names", tuple(str(a) for a in range(self.alphabet_size))
            )
        elif len(self.letter_names) != self.alphabet_size:
            raise InputError("letter name list does not match alphabet size")

    @property
    def num_states(self) -> int:
        return len(self.delta)

    def accepts(self, word: Word) -> bool:
        q = self.initial
        for a in word:
            q = self.delta[q][a]
        return q in self.finals

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.letter_names),
            "states": self.num_states,
            "initial": self.initial,
            "finals": sorted(self.finals),
            "dead": self.dead,
            "delta": [list(row) for row in self.delta],
        }

    def to_json(self) -> str:
        """The text of json.dumps(self.to_json_dict(), indent=2,
        sort_keys=True) plus a newline.  It is written out by hand because
        with indent set CPython falls back to its pure-Python encoder,
        which is slow on large transition tables."""
        fields = (  # in sorted key order
            ("alphabet", _json_array([json.dumps(x) for x in self.letter_names], 2)),
            ("dead", json.dumps(self.dead)),
            ("delta", _json_array(
                [_json_array([str(r) for r in row], 4) for row in self.delta], 2
            )),
            ("finals", _json_array([str(q) for q in sorted(self.finals)], 2)),
            ("initial", str(self.initial)),
            ("states", str(self.num_states)),
        )
        return "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in fields) + "\n}\n"

    @staticmethod
    def from_json_dict(doc: dict) -> "Dfa":
        try:
            names = tuple(str(x) for x in doc["alphabet"])
            delta = tuple(tuple(int(x) for x in row) for row in doc["delta"])
            finals = frozenset(int(x) for x in doc["finals"])
            initial = int(doc["initial"])
            dead = doc.get("dead")
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"malformed automaton document: {e}") from e
        return Dfa(
            alphabet_size=len(names),
            delta=delta,
            initial=initial,
            finals=finals,
            dead=None if dead is None else int(dead),
            letter_names=names,
        )

    def to_dot(self, keep_dead: bool = False) -> str:
        """GraphViz rendering.  The dead state and its edges are omitted
        unless asked for, since a complete automaton routes every rejected
        word there and the clutter hides the structure."""
        skip = self.dead if (self.dead is not None and not keep_dead) else None
        lines = ["digraph dfa {", "  rankdir=LR;", '  start [shape=none, label=""];']
        for q in range(self.num_states):
            if q == skip:
                continue
            shape = "doublecircle" if q in self.finals else "circle"
            lines.append(f"  q{q} [shape={shape}, label=\"{q}\"];")
        lines.append(f"  start -> q{self.initial};")
        for q, row in enumerate(self.delta):
            if q == skip:
                continue
            grouped: dict[int, list[str]] = {}
            for a, r in enumerate(row):
                if r == skip:
                    continue
                grouped.setdefault(r, []).append(self.letter_names[a])
            for r in sorted(grouped):
                label = ",".join(grouped[r])
                lines.append(f"  q{q} -> q{r} [label=\"{label}\"];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _json_array(items: list[str], indent: int) -> str:
    """A JSON array of already encoded items, laid out as json.dumps does
    with indent=2 when the array sits at the given depth in spaces."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def coreachable(dfa: Dfa) -> set[int]:
    """States from which some accepting state can be reached."""
    rev: list[list[int]] = [[] for _ in range(dfa.num_states)]
    for q, row in enumerate(dfa.delta):
        for r in row:
            rev[r].append(q)
    seen = set(dfa.finals)
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for p in rev[q]:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def _bfs_order(delta, initial) -> list[int]:
    order = [initial]
    seen = {initial}
    for q in order:
        for r in delta[q]:
            if r not in seen:
                seen.add(r)
                order.append(r)
    return order


def intersect(a: Dfa, b: Dfa) -> Dfa:
    """Product automaton accepting the intersection.  States are reachable
    pairs, numbered in discovery order."""
    if a.alphabet_size != b.alphabet_size:
        raise InputError("cannot intersect automata over different alphabets")
    k = a.alphabet_size
    ids: dict[tuple[int, int], int] = {(a.initial, b.initial): 0}
    pairs = [(a.initial, b.initial)]
    delta: list[list[int]] = []
    for p, q in pairs:
        row = []
        for c in range(k):
            nxt = (a.delta[p][c], b.delta[q][c])
            if nxt not in ids:
                ids[nxt] = len(pairs)
                pairs.append(nxt)
            row.append(ids[nxt])
        delta.append(row)
    finals = frozenset(
        i for i, (p, q) in enumerate(pairs) if p in a.finals and q in b.finals
    )
    result = Dfa(
        alphabet_size=k,
        delta=tuple(tuple(r) for r in delta),
        initial=0,
        finals=finals,
        letter_names=a.letter_names,
    )
    return _with_semantic_dead(result)


def complement(a: Dfa) -> Dfa:
    finals = frozenset(range(a.num_states)) - a.finals
    result = Dfa(a.alphabet_size, a.delta, a.initial, finals, None, a.letter_names)
    return _with_semantic_dead(result)


def _with_semantic_dead(dfa: Dfa) -> Dfa:
    """Record a dead state when exactly one reachable state has empty
    language; with more than one the hint stays unset (minimize merges
    them)."""
    co = coreachable(dfa)
    dead_states = [q for q in _bfs_order(dfa.delta, dfa.initial) if q not in co]
    if len(dead_states) != 1:
        return dfa
    return Dfa(
        dfa.alphabet_size,
        dfa.delta,
        dfa.initial,
        dfa.finals,
        dead_states[0],
        dfa.letter_names,
    )


def trim(dfa: Dfa) -> Dfa:
    """Drop states that are unreachable or cannot reach acceptance, then
    re-complete with a single dead state.  An empty language collapses to
    one rejecting state."""
    reach = set(_bfs_order(dfa.delta, dfa.initial))
    keep = reach & coreachable(dfa)
    if dfa.initial not in keep:
        row = (0,) * dfa.alphabet_size
        return Dfa(dfa.alphabet_size, (row,), 0, frozenset(), 0, dfa.letter_names)
    order = [dfa.initial]
    seen = {dfa.initial}
    for q in order:
        for r in dfa.delta[q]:
            if r in keep and r not in seen:
                seen.add(r)
                order.append(r)
    ids = {q: i for i, q in enumerate(order)}
    need_dead = any(r not in keep for q in order for r in dfa.delta[q])
    dead = len(order) if need_dead else None
    delta = []
    for q in order:
        delta.append(
            tuple(ids[r] if r in keep else dead for r in dfa.delta[q])
        )
    if need_dead:
        delta.append((dead,) * dfa.alphabet_size)
    finals = frozenset(ids[q] for q in dfa.finals if q in keep)
    return Dfa(dfa.alphabet_size, tuple(delta), 0, finals, dead, dfa.letter_names)


def minimize(dfa: Dfa) -> Dfa:
    """Hopcroft partition refinement on the reachable part.  Output states
    are numbered by breadth-first discovery, so equal inputs give equal
    outputs.  Each letter's transitions, and their reverse (sources sorted
    by target, with offsets), are kept as flat arrays rather than as
    lists per state, which would take most of the memory."""
    order = _bfs_order(dfa.delta, dfa.initial)
    ids = [-1] * dfa.num_states
    for i, q in enumerate(order):
        ids[q] = i
    n = len(order)
    k = dfa.alphabet_size
    cols = [array("I", [ids[dfa.delta[q][c]] for q in order]) for c in range(k)]
    finals = {ids[q] for q in dfa.finals if ids[q] >= 0}

    rev: list[tuple[array, array]] = []  # sources by target, offsets
    for col in cols:
        starts = [0] * (n + 1)
        for r in col:
            starts[r + 1] += 1
        rev.append((
            array("I", sorted(range(n), key=col.__getitem__)),
            array("I", accumulate(starts)),
        ))

    block_of = [0] * n
    blocks: list[set[int]] = []
    nonfinal = set(range(n)) - finals
    for s in (finals, nonfinal):
        if s:
            for q in s:
                block_of[q] = len(blocks)
            blocks.append(set(s))
    worklist = {(i, c) for i in range(len(blocks)) for c in range(k)}
    while worklist:
        i, c = worklist.pop()
        sources, starts = rev[c]
        preimage: dict[int, set[int]] = {}
        for q in blocks[i]:
            for p in sources[starts[q]:starts[q + 1]]:
                preimage.setdefault(block_of[p], set()).add(p)
        for j, hit in preimage.items():
            if len(hit) == len(blocks[j]):
                continue
            blocks[j] -= hit
            new_id = len(blocks)
            blocks.append(hit)
            for p in hit:
                block_of[p] = new_id
            smaller = new_id if len(hit) <= len(blocks[j]) else j
            for cc in range(k):
                if (j, cc) in worklist:
                    worklist.add((new_id, cc))
                else:
                    worklist.add((smaller, cc))

    rep_delta = {
        b: [block_of[col[next(iter(blocks[b]))]] for col in cols]
        for b in range(len(blocks))
    }
    start_block = block_of[0]
    renum = {start_block: 0}
    bfs = [start_block]
    for b in bfs:
        for c in range(k):
            t = rep_delta[b][c]
            if t not in renum:
                renum[t] = len(bfs)
                bfs.append(t)
    new_delta = tuple(
        tuple(renum[rep_delta[b][c]] for c in range(k)) for b in bfs
    )
    new_finals = frozenset(
        renum[b] for b in bfs if next(iter(blocks[b])) in finals
    )
    result = Dfa(k, new_delta, 0, new_finals, None, dfa.letter_names)
    return _with_semantic_dead(result)


def explore(start, step, alphabet_size: int, state_budget: int):
    """Breadth-first closure of step from start, where step(q, c) is the
    successor of state q on letter c, or None for the sink.  Returns the
    states, numbered in discovery order with the start at 0 and the sink
    (None) at 1, and their transition table.  At most state_budget states
    are allowed, the sink included."""
    if state_budget < 2:  # the start and the sink
        raise BudgetError(f"state budget {state_budget} exceeded while building")
    states = [start, None]
    numbered = {start: 0}
    delta: list[tuple[int, ...]] = []
    for q in states:  # grows as states are found
        if q is None:
            delta.append((1,) * alphabet_size)
            continue
        row = []
        for c in range(alphabet_size):
            r = step(q, c)
            rid = 1 if r is None else numbered.get(r)
            if rid is None:
                rid = len(states)
                if rid >= state_budget:
                    raise BudgetError(
                        f"state budget {state_budget} exceeded while building"
                    )
                numbered[r] = rid
                states.append(r)
            row.append(rid)
        delta.append(tuple(row))
    return states, tuple(delta)


def rotation_closure(
    a: Dfa, guide: Dfa | None = None, state_budget: int = 10**7
) -> Dfa:
    """Automaton for {w : every rotation of w is in L(a)}, intersected with
    L(guide) when a guide is given; only words the guide keeps are
    explored.  a must accept exactly the words that avoid its dead state,
    as a prefix-closed machine does.

    A state is (T, M, g) for the word w read so far.  T is the
    transformation x -> delta(x, w) on the states x it keeps alive.  M has
    one entry per split w = uv: r = delta(q0, v), with S the set of states
    from which u stays alive; entries with equal r move together from then
    on and are merged by intersecting their S.  g is the guide's state.
    The rotation vu is in L(a) iff r is in S, so a state accepts iff every
    entry has r in S and g accepts.  Reading c moves every r to
    delta(r, c) and adds the entry (q0, alive(T_wc)); the result is the
    sink when wc leaves L(a), some r is dead, or the guide cannot accept.

    T is packed as its domain then its images, interned as a small int,
    and stepped once per letter; each S is an interned bitmask, and M is
    packed as sorted (r, S id) pairs.  State 0 is the start, state 1 the
    sink, the rest are numbered in discovery order; at most state_budget
    states."""
    n, k = a.num_states, a.alphabet_size
    dead = -1 if a.dead is None else a.dead
    if a.finals != frozenset(range(n)) - {dead} or any(
        r != dead for r in (a.delta[dead] if dead >= 0 else ())
    ):
        raise InputError("rotation_closure needs a machine whose only "
                         "rejecting state is its dead state")
    if guide is None:
        guide = Dfa(k, ((0,) * k,), 0, frozenset({0}))
    elif guide.alphabet_size != k:
        raise InputError("cannot guide over a different alphabet")
    g_live = coreachable(guide)
    cols = [[row[c] for row in a.delta] for c in range(k)]
    q0 = a.initial

    t_packed: list[bytes] = []  # T id -> x0 = q0, x1, ..., T(x0), T(x1), ...
    t_ids: dict[bytes, int] = {}
    t_head: list[int] = []  # T id -> T(q0), or dead
    t_alive: list[int] = []  # T id -> S id of its domain
    t_next: list[list[int | None]] = []  # T id, letter -> T id, -1 if dead
    s_masks: list[int] = []
    s_ids: dict[int, int] = {}
    domains: dict[bytes, int] = {}  # packed domain -> S id

    def s_id(mask: int) -> int:
        sid = s_ids.get(mask)
        if sid is None:
            sid = s_ids[mask] = len(s_masks)
            s_masks.append(mask)
        return sid

    def t_id(xs: list[int], ys: list[int]) -> int:
        domain = array("I", xs).tobytes()
        key = domain + array("I", ys).tobytes()
        tid = t_ids.get(key)
        if tid is None:
            tid = t_ids[key] = len(t_packed)
            t_packed.append(key)
            t_head.append(ys[0] if xs and xs[0] == q0 else dead)
            sid = domains.get(domain)
            if sid is None:  # many T share a domain; a bitmask costs more
                sid = domains[domain] = s_id(sum(map((1).__lshift__, xs)))
            t_alive.append(sid)
            t_next.append([None] * k)
        return tid

    def t_step(tid: int, c: int) -> int:
        col = cols[c]
        nxt = -1
        if col[t_head[tid]] != dead:
            packed = array("I", t_packed[tid])
            half = len(packed) // 2
            ys = [col[y] for y in packed[half:]]
            alive = [y != dead for y in ys]
            nxt = t_id(list(compress(packed[:half], alive)),
                       list(compress(ys, alive)))
        t_next[tid][c] = nxt
        return nxt

    def m_pack(entries: dict[int, int]) -> bytes:
        flat = [v for r in sorted(entries) for v in (r, entries[r])]
        return array("I", flat).tobytes()

    def m_step(m: bytes, c: int, sid: int) -> bytes | None:
        flat = array("I", m)
        col = cols[c]
        entries = {q0: sid}
        for i in range(0, len(flat), 2):
            r, rs = col[flat[i]], flat[i + 1]
            if r == dead:
                return None
            if r in entries and entries[r] != rs:
                rs = s_id(s_masks[entries[r]] & s_masks[rs])
            entries[r] = rs
        return m_pack(entries)

    def step(key: tuple[int, bytes, int], c: int):
        tid, m, g = key
        g = guide.delta[g][c]
        if g not in g_live:
            return None
        t = t_next[tid][c]
        if t is None:
            t = t_step(tid, c)
        m = None if t < 0 else m_step(m, c, t_alive[t])
        return None if m is None else (t, m, g)

    def accepts(key: tuple[int, bytes, int] | None) -> bool:
        if key is None or key[2] not in guide.finals:
            return False
        flat = array("I", key[1])
        return all(s_masks[flat[i + 1]] >> flat[i] & 1
                   for i in range(0, len(flat), 2))

    domain = sorted(set(range(n)) - {dead}, key=lambda x: x != q0)
    t0 = t_id(domain, domain)
    keys, delta = explore(
        (t0, m_pack({q0: t_alive[t0]}), guide.initial), step, k, state_budget
    )
    finals = frozenset(i for i, key in enumerate(keys) if accepts(key))
    return Dfa(k, delta, 0, finals, 1, a.letter_names)


def _shortest_pair_word(a: Dfa, b: Dfa, hit) -> Word | None:
    """Shortest, then lexicographically least, word that drives a and b run
    side by side to states p, q with hit(p, q), or None when no reachable
    pair of states is a hit."""
    if a.alphabet_size != b.alphabet_size:
        raise InputError("cannot compare automata over different alphabets")
    start = (a.initial, b.initial)
    seen = {start}
    queue: deque[tuple[tuple[int, int], Word]] = deque([(start, ())])
    while queue:
        (p, q), word = queue.popleft()
        if hit(p, q):
            return word
        for c in range(a.alphabet_size):
            nxt = (a.delta[p][c], b.delta[q][c])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (c,)))
    return None


def difference_witness(a: Dfa, b: Dfa) -> Word | None:
    """Shortest word accepted by exactly one of the two, or None when the
    languages agree.  Ties break lexicographically."""
    return _shortest_pair_word(
        a, b, lambda p, q: (p in a.finals) != (q in b.finals)
    )


def subset_counterexample(a: Dfa, b: Dfa) -> Word | None:
    """Shortest word accepted by a but not by b, or None if L(a) <= L(b).
    Ties break lexicographically."""
    return _shortest_pair_word(
        a, b, lambda p, q: p in a.finals and q not in b.finals
    )


def equivalent(a: Dfa, b: Dfa) -> bool:
    return difference_witness(a, b) is None


def is_subset(a: Dfa, b: Dfa) -> bool:
    return subset_counterexample(a, b) is None


def accepted_words(dfa: Dfa, max_len: int) -> list[Word]:
    """All accepted words of length at most max_len, shortest first and
    lexicographic within a length.  Exponential in max_len; test sizes only."""
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
