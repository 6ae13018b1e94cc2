"""Deterministic finite automata over an integer alphabet.

Every automaton here is complete: delta[q][a] is defined for all states q and
letters a.  ``dead``, when set, names a rejecting state that every letter
maps to itself, so no word through it is accepted; the constructor checks
this.  Other states may have an empty language without being named.
Operations renumber states by breadth-first discovery from the initial state
(letters in increasing order; `minimize` by that of each block's first
member), which makes their output deterministic and reproducible.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from itertools import compress

from .errors import BudgetError, InputError
from .value import Value

Word = tuple[int, ...]


class Dfa(Value):
    """A complete DFA as an immutable value.  Its letters are 0..k-1; the
    writers take their names."""

    __slots__ = ("alphabet_size", "delta", "initial", "finals", "dead")

    def __init__(self, alphabet_size: int, delta: tuple[tuple[int, ...], ...],
                 initial: int, finals: frozenset[int], dead: int | None = None):
        n = len(delta)
        if n == 0:
            raise InputError("automaton needs at least one state")
        if set(map(len, delta)) != {alphabet_size}:
            raise InputError("transition table width must equal alphabet size")
        # min and max run in C; the rows are walked only to name the first
        # bad transition
        if alphabet_size and not (0 <= min(map(min, delta))
                                  and max(map(max, delta)) < n):
            q, a, r = next((q, a, r) for q, row in enumerate(delta)
                           for a, r in enumerate(row) if not (0 <= r < n))
            raise InputError(f"transition {q} --{a}--> {r} leaves the state set")
        if not (0 <= initial < n):
            raise InputError("initial state out of range")
        if finals and not (0 <= min(finals) and max(finals) < n):
            raise InputError("final state out of range")
        if dead is not None:
            if not (0 <= dead < n):
                raise InputError("dead state out of range")
            if dead in finals or any(r != dead for r in delta[dead]):
                raise InputError("dead state must reject and lead only to itself")
        self._set(alphabet_size, delta, initial, finals, dead)

    @property
    def num_states(self) -> int:
        return len(self.delta)

    def accepts(self, word: Word) -> bool:
        q = self.initial
        for a in word:
            q = self.delta[q][a]
        return q in self.finals

    def json_pieces(self, names):
        """The machine as a JSON document in pieces, one per row of the
        transition table and a few around them, so it can be written out
        without ever being held whole.  Joined, they are the text of
        json.dumps(doc, indent=2, sort_keys=True) plus a newline, where doc
        has the keys "alphabet" (names, one per letter), "states",
        "initial", "finals" (sorted), "dead" and "delta" (the rows as
        lists).  It is laid out by hand because with indent set CPython
        falls back to its pure-Python encoder, which is slow on large
        transition tables."""
        yield '{\n  "alphabet": '
        yield _json_array([json.dumps(x) for x in names])
        yield f',\n  "dead": {json.dumps(self.dead)},\n  "delta": ['
        sep = ",\n      "
        comma = ""  # none before the first row
        for row in self.delta:
            yield (f"{comma}\n    [\n      {sep.join(map(str, row))}\n    ]" if row
                   else f"{comma}\n    []")
            comma = ","
        yield '\n  ],\n  "finals": '
        yield _json_array([str(q) for q in sorted(self.finals)])
        yield f',\n  "initial": {self.initial},\n  "states": {self.num_states}\n}}\n'

    def to_dot(self, names):
        """GraphViz rendering, with names[a] labelling letter a, in pieces,
        one per line, as `json_pieces` gives the JSON.  The dead state and
        its edges are omitted, since a complete automaton routes every
        rejected word there and the clutter hides the structure."""
        dead = self.dead
        yield "digraph dfa {\n"
        yield "  rankdir=LR;\n"
        yield '  start [shape=none, label=""];\n'
        for q in range(self.num_states):
            if q == dead:
                continue
            shape = "doublecircle" if q in self.finals else "circle"
            yield f"  q{q} [shape={shape}, label=\"{q}\"];\n"
        yield f"  start -> q{self.initial};\n"
        for q, row in enumerate(self.delta):
            if q == dead:
                continue
            grouped: dict[int, list[str]] = {}
            for a, r in enumerate(row):
                if r == dead:
                    continue
                grouped.setdefault(r, []).append(names[a])
            for r in sorted(grouped):
                label = ",".join(map(_dot_escape, grouped[r]))
                yield f"  q{q} -> q{r} [label=\"{label}\"];\n"
        yield "}\n"


def _dot_escape(name: str) -> str:
    """name as the inside of a DOT string: backslashes and quotes escaped,
    newlines written as \\n."""
    return name.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _json_array(items: list[str]) -> str:
    """A JSON array of already encoded items, laid out as json.dumps does
    with indent=2 for an array that is a field of the top-level object."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def coreachable(dfa: Dfa) -> bytearray:
    """marks[q] is 1 iff some accepting state can be reached from q.  The
    search runs backwards over flat predecessor lists: those of r are
    preds[start[r]:start[r + 1]]."""
    n = dfa.num_states
    start = array("I", bytes(4 * (n + 1)))
    for row in dfa.delta:
        for r in row:
            start[r + 1] += 1
    for r in range(n):
        start[r + 1] += start[r]
    fill = start[:n]
    preds = array("I", bytes(4 * start[n]))
    for q, row in enumerate(dfa.delta):
        for r in row:
            preds[fill[r]] = q
            fill[r] += 1
    marks = bytearray(n)
    todo = list(dfa.finals)
    for q in todo:
        marks[q] = 1
    while todo:
        q = todo.pop()
        for p in preds[start[q]:start[q + 1]]:
            if not marks[p]:
                marks[p] = 1
                todo.append(p)
    return marks


def _bfs_order(delta, initial) -> list[int]:
    order = [initial]
    seen = bytearray(len(delta))
    seen[initial] = 1
    for q in order:
        for r in delta[q]:
            if not seen[r]:
                seen[r] = 1
                order.append(r)
    return order


def trim(dfa: Dfa) -> Dfa:
    """Drop states that are unreachable or cannot reach acceptance, then
    re-complete with a single dead state.  An empty language collapses to
    one rejecting state.  The kept states are numbered in breadth-first
    order: a dropped state leads only to dropped states, so each kept
    state is first found from a kept one, as in a walk over them alone."""
    keep = coreachable(dfa)
    if not keep[dfa.initial]:
        row = (0,) * dfa.alphabet_size
        return Dfa(dfa.alphabet_size, (row,), 0, frozenset(), 0)
    order = [q for q in _bfs_order(dfa.delta, dfa.initial) if keep[q]]
    ids = {q: i for i, q in enumerate(order)}
    need_dead = any(not keep[r] for q in order for r in dfa.delta[q])
    dead = len(order) if need_dead else None
    delta = []
    for q in order:
        delta.append(
            tuple(ids[r] if keep[r] else dead for r in dfa.delta[q])
        )
    if need_dead:
        delta.append((dead,) * dfa.alphabet_size)
    finals = frozenset(ids[q] for q in dfa.finals if q in ids)
    return Dfa(dfa.alphabet_size, tuple(delta), 0, finals, dead)


def _refine(dfa: Dfa) -> tuple[Dfa, list[int]]:
    """Moore refinement on the reachable part (Moore 1956).  The states
    start in two blocks, accepting and rejecting.  Each round gives every
    state the id of its signature: its block and the blocks its letters
    lead to, in letter order.  Rounds refine, and stop when one adds no
    block, so at most n of them, each O(n * k) for n states and k
    letters.  Then members of a block have equal signatures, and no fewer
    blocks that keep accepting and rejecting states apart have that
    property.  A block's letters lead where one member's do; block ids
    follow the first members in breadth-first order.  A rejecting block
    that only leads to itself is dead.  The machine comes with the block
    of each reachable state, in breadth-first order."""
    order = _bfs_order(dfa.delta, dfa.initial)
    ids = [-1] * dfa.num_states
    for i, q in enumerate(order):
        ids[q] = i
    k = dfa.alphabet_size
    cols = [array("I", [ids[dfa.delta[q][c]] for q in order]) for c in range(k)]
    accepting = bytes(q in dfa.finals for q in order)  # by position in order
    del order, ids  # the rounds read only the columns and the flags

    block = list(accepting)
    count = len(set(block))
    while True:
        sigs = zip(block, *(map(block.__getitem__, col) for col in cols))
        signatures: dict[tuple[int, ...], int] = {}
        block = [signatures.setdefault(sig, len(signatures)) for sig in sigs]
        if len(signatures) == count:
            break
        count = len(signatures)
    # the last round's signatures go before the machine's rows are made,
    # which take their place
    del signatures, sigs

    reps = [0] * count  # any member of each block
    for q, b in enumerate(block):
        reps[b] = q
    new_delta = tuple(tuple(block[col[q]] for col in cols) for q in reps)
    new_finals = frozenset(b for b, q in enumerate(reps) if accepting[q])
    dead = next((b for b, row in enumerate(new_delta)
                 if b not in new_finals and all(r == b for r in row)), None)
    return Dfa(k, new_delta, 0, new_finals, dead), block


def minimize(dfa: Dfa) -> Dfa:
    """The smallest machine with dfa's language (`_refine`).  After round
    i two states share a block iff no suffix of at most i letters tells
    them apart.  Members of a block lead to the same blocks, so the
    output is numbered by breadth-first discovery and machines with the
    same language give the same output.  Its one state with an empty
    language, if any, is its dead state."""
    return _refine(dfa)[0]


def state_counts(dfa: Dfa) -> tuple[int, int, int]:
    """The numbers of states of dfa, trim(dfa) and minimize(dfa), without
    building trim(dfa).  minimize's dead block, if any, holds exactly the
    reachable states with an empty language, which trim drops; trim adds
    one dead state in their place, since the block holds the initial
    state or is reached from a kept one."""
    m, block = _refine(dfa)
    trimmed = len(block)
    if m.dead is not None:
        trimmed += 1 - block.count(m.dead)
    return dfa.num_states, trimmed, m.num_states


DEFAULT_STATE_BUDGET = 10**7


def explore(start, step, accepts, alphabet_size: int, state_budget: int) -> Dfa:
    """The machine of the breadth-first closure of step from start, where
    step(q, c) is the successor of state q on letter c < alphabet_size, or
    None for the sink.  A state is any hashable value but None, and two
    states are one iff they are equal: an unhashable one raises TypeError.
    Its states are numbered in discovery order with the start at 0 and the
    sink at 1, its dead state, so no machine depends on how states hash; a
    found state q accepts iff accepts(q), asked once, when q is expanded.
    At most state_budget states are allowed, the sink included."""
    flat, flags = _explore(start, step, accepts, alphabet_size, state_budget)[:2]
    return _machine(alphabet_size, flat, flags)


def _explore(start, step, accepts, alphabet_size: int, state_budget: int):
    """`explore`'s rows as one flat array, state by state, its acceptance
    flags, and its states, numbered as the machine numbers them, with
    None for the sink.  The registry of found states is gone on return."""
    if state_budget < 2:  # the start and the sink
        raise BudgetError(f"state budget {state_budget} exceeded while building")
    states = [start, None]
    numbered = {start: 0}
    flat = array("I")
    flags = bytearray()
    for q in states:  # grows as states are found
        if q is None:
            flat.extend([1] * alphabet_size)
            flags.append(0)
            continue
        flags.append(bool(accepts(q)))
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
            flat.append(rid)
    return flat, flags, states


def _machine(alphabet_size: int, flat: array, flags: bytearray) -> Dfa:
    """The machine of `_explore`'s rows and flags.  Its rows and finals
    share one int object per state id: the array's entries, read one by
    one, would each be a new int."""
    ids = list(range(len(flags)))
    entries = map(ids.__getitem__, flat)
    delta = (tuple(zip(*[entries] * alphabet_size)) if alphabet_size
             else ((),) * len(flags))
    return Dfa(alphabet_size, delta, 0, frozenset(compress(ids, flags)), 1)


def _packed(machines: list[Dfa]):
    """The weights of the machines' states packed as one int in mixed
    radix, and the packed start, step and acceptance.  A letter steps only
    the machines on which it is not the identity, and leads to None where
    it takes one to its dead state."""
    k = machines[0].alphabet_size
    if any(a.alphabet_size != k for a in machines):
        raise InputError("cannot intersect automata over different alphabets")
    weights = [1]
    for a in machines[:-1]:
        weights.append(weights[-1] * a.num_states)
    # per letter and machine it moves: weight, size, and per state what
    # the letter adds to the packed state, None where the machine dies
    moved = []
    for c in range(k):
        cols = [(a, w, [row[c] for row in a.delta]) for a, w in zip(machines, weights)]
        moved.append([(w, a.num_states, [None if r == a.dead else (r - q) * w
                                         for q, r in enumerate(col)])
                      for a, w, col in cols if col != list(range(a.num_states))])

    def step(x: int, c: int) -> int | None:
        for w, n, adds in moved[c]:
            add = adds[x // w % n]
            if add is None:
                return None
            x += add
        return x

    checks = [(w, a.num_states, a.finals) for a, w in zip(machines, weights)]

    def accepts(x: int) -> bool:
        return all(x // w % n in finals for w, n, finals in checks)

    start = sum(a.initial * w for a, w in zip(machines, weights))
    return weights, start, step, accepts


def product(machines: list[Dfa], state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Machine for the intersection of the languages of one or more
    machines over one alphabet, built by `explore`, so a letter that takes
    some machine to its dead state leads to the sink, state 1, the dead
    state.  A state is one int, the machines' states in mixed radix
    (`_packed`)."""
    return explore(*_packed(machines)[1:], machines[0].alphabet_size, state_budget)


def _transformations(a: Dfa, state_budget: int):
    """The machine of the transformations x -> delta(x, w) of a's states,
    built by `_explore` from the identity: T goes to T.c on letter c, or
    to the sink once T(q0) is dead.  Its states, each T as the bytes of
    an array("I") of its images, come with it: packed, a step thrown away
    as a duplicate leaves no tuple behind in the interpreter's free lists."""
    cols = [[row[c] for row in a.delta] for c in range(a.alphabet_size)]
    q0, dead = a.initial, a.dead

    def step(t: bytes, c: int) -> bytes | None:
        col = cols[c]
        images = memoryview(t).cast("I")
        if col[images[q0]] == dead:
            return None
        return array("I", map(col.__getitem__, images)).tobytes()

    k = a.alphabet_size
    flat, flags, states = _explore(array("I", range(a.num_states)).tobytes(),
                                   step, lambda t: True, k, state_budget)
    return _machine(k, flat, flags), states


def _bitmask(bits: list[int], size: int) -> int:
    """The int with the given bits set, all below size, built in one pass."""
    buf = bytearray(size // 8 + 1)
    for x in bits:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


def _reach(flat: array, k: int, guide: Dfa) -> dict[int, int]:
    """reach[x * G + g], for G the guide's states and x a state of the
    machine whose rows `_explore` gave as flat, with start 0 and dead
    state 1: the bitmask of the states other than dead that x reaches
    while the guide stays off its dead state from g, over the pairs
    reachable from some (0, g) with g not dead, by sweeps in reverse
    discovery order until one changes nothing."""
    G, g_dead = guide.num_states, guide.dead
    pairs = [g for g in range(G) if g != g_dead]
    index = {p: i for i, p in enumerate(pairs)}
    succs: list[list[int]] = []
    for p in pairs:  # grows as pairs are found
        x, g = divmod(p, G)
        out = []
        for y, h in zip(flat[x * k:(x + 1) * k], guide.delta[g]):
            if y != 1 and h != g_dead:
                key = y * G + h
                if key not in index:
                    index[key] = len(pairs)
                    pairs.append(key)
                out.append(index[key])
        succs.append(out)
    masks = [1 << (p // G) for p in pairs]
    changed = True
    while changed:
        changed = False
        for i in reversed(range(len(pairs))):
            mask = masks[i]
            for j in succs[i]:
                mask |= masks[j]
            if mask != masks[i]:
                masks[i] = mask
                changed = True
    return dict(zip(pairs, masks))


def rotation_closure(
    machines: list[Dfa], guide: Dfa | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Dfa:
    """Automaton for {w : every rotation of w is in L(a)}, intersected with
    L(guide) when a guide is given, where a is the `product` of the
    machines: the search of `_closure`'s state space, numbered as
    `explore` numbers states, with at most state_budget of them.  It runs
    `_explore` and `_machine` itself so that the closure's step, accepts
    and every table they hold are gone before the machine is assembled:
    `explore`'s arguments would keep them alive until it returns."""
    k = machines[0].alphabet_size
    rows, flags = _explore(*_closure(machines, guide, state_budget),
                           k, state_budget)[:2]
    return _machine(k, rows, flags)


def _closure(machines: list[Dfa], guide: Dfa | None, state_budget: int):
    """The start, step and acceptance of `rotation_closure`'s states; only
    words the guide keeps are explored.  Each machine, and the guide, must
    accept exactly the words that avoid its dead state, as a prefix-closed
    machine does: every state but the dead one accepts.

    A state is (T, M, g) for the word w read so far.  T is the
    transformation x -> delta(x, w) of the states of a, and alive(T) the
    set of states it keeps alive.  M has one entry per split w = uv: r =
    delta(q0, v), with S = alive(T_u), the set of states from which u
    stays alive; entries with equal r move together from then on and are
    merged by keeping the smaller S.  The sets are nested, since the dead
    state is absorbing: u stays alive wherever a longer prefix of w does.
    g is the guide's state.  The rotation vu is in L(a) iff r is in S, so
    a state accepts iff every entry has r in S and g is not the guide's
    dead state, which only the start holds, and only when the guide's
    language is empty.  Reading c moves every r to delta(r, c) and adds
    the entry (q0, alive(T_wc)), the smallest set, in place of any other
    at q0; the result is the sink when some r is dead or g is dead.  The
    entry born at the start sits at delta(q0, w), since a merge keeps one
    entry per r and the new entry replaces only the one at q0, so wc
    leaves L(a) exactly when that entry's r is dead.

    The sink is also next when some entry, after its step and any merge,
    has S & reach(r, g) empty, where g is the guide's new state and
    reach(r, g) is the set of states other than dead that r leads to by
    words that keep the guide off its dead state from g (r itself
    included).  The new entry passes, its S holding q0 as T_wc(q0) is not
    dead, and so does an entry kept at a merge, as it passed at this r.
    Every entry is born as r = q0 beside a guide state other than dead and
    then reads the letters the guide reads, so reach is needed only on the
    pairs of states reachable from those.  Without a
    guide, g ranges over the one state of the trivial guide (G = 1), and
    reach(r, g) is everything r leads to.  The cut is exact: any accepting
    future moves r within reach(r, g), and merging only shrinks S, so no
    rotation through that split is accepted again, and the state has no
    accepting future.  Only states that `trim` would drop go.  S itself is
    kept whole, not cut down to reach(r, g): cutting merges a few more
    states on affine systems but makes the closure slower.

    A state of a is a tuple of the machines' states, so T is the tuple of
    the machines' own transformations.  Each machine's transformations
    form a small machine (`_transformations`), and T is a state of their
    product, packed as `product` packs states and stepped by the same
    code; a step moves T only once the entry at delta(q0, w) has survived,
    so no machine's T(q0) dies.  alive(T) is the AND, over the machines, of
    the bitmask of the states of a whose component that machine's
    transformation keeps alive; it is computed once per T.  Two packed Ts
    that differ only on components no state in their common alive set
    has (another component dies there) are one transformation of a, and
    share one id, so the states are those of the closure of
    product(machines) itself.  Each S is interned in `class_of`.  A state is
    one key, the bytes of an array("I"): T's class id, g, then M's (r, S
    id) pairs sorted by r.  A step moves and checks M's entries before it
    steps T and looks up its class, so only the Ts of states that pass
    are registered.  Each machine adds a component to T, a bitmask to
    alive(T) and a digit to the packed T, so a machine whose language
    holds another's adds work and no states: leave it out, as
    `cfc_automaton.factors` leaves out the letter factors its pair
    factors imply.  a and each transformation machine are built under
    state_budget."""
    k = machines[0].alphabet_size
    if guide is None:
        guide = Dfa(k, ((0,) * k,), 0, frozenset({0}))
    elif guide.alphabet_size != k:
        raise InputError("cannot guide over a different alphabet")
    for m in [*machines, guide]:
        if m.finals != frozenset(range(m.num_states)) - {m.dead}:
            raise InputError("rotation_closure needs machines and a guide whose "
                             "only rejecting state is their dead state")
    weights, *search = _packed(machines)
    # no flags: every state of a but its dead one accepts
    rows, _, states = _explore(*search, k, state_budget)
    dead, q0 = 1, 0  # as `_explore` numbers the states of a
    cols = [rows[c::k] for c in range(k)]
    G, g_dead = guide.num_states, guide.dead
    reach = _reach(rows, k, guide)
    del rows  # the columns and the reach table are all the search reads of a

    # per machine: its transformations with their images in one flat
    # array, the bitmask per state of the states of a with that component,
    # and per transformation the union of those of the states it keeps
    # alive
    t_machines = []
    t_tables = []
    for m, w in zip(machines, weights):
        tm, images = _transformations(m, state_budget)
        n = m.num_states
        members: list[list[int]] = [[] for _ in range(n)]
        for x, p in enumerate(states):
            if p is not None:
                members[p // w % n].append(x)
        parts = [_bitmask(xs, len(states)) for xs in members]
        # the parts are disjoint, so their sum is their union
        alive = [0 if t is None
                 else sum(p for p, y in zip(parts, memoryview(t).cast("I"))
                          if y != m.dead)
                 for t in images]
        # transformation i maps state y to flat[i * n + y]; the sink, zeros
        flat = array("I")
        for t in images:
            flat.frombytes(t or bytes(flat.itemsize * n))
        t_machines.append(tm)
        t_tables.append((n, flat, parts, alive))
    # T is packed as `product` packs the transformation machines' states
    t_weights, _, next_t, _ = _packed(t_machines)
    per_machine = [(w, tm.num_states, *tables, m.initial, v)
                   for w, tm, tables, m, v
                   in zip(t_weights, t_machines, t_tables, machines, weights)]

    s_masks: list[int] = []
    s_ids: dict[int, int] = {}
    t_class: dict[int, int] = {}  # packed T -> id of its class
    reps: list[int] = []  # class id -> the first packed T found in it
    rep_alive: list[int] = []  # class id -> S id of alive(T)
    by_head: dict[int, int] = {}  # T(q0), packed -> newest class id
    older = array("i")  # class id -> the class before it with its head, or -1

    def same_on(t: int, u: int, mask: int) -> bool:
        """Whether packed T t and u map the states of a in mask alike: each
        machine's images differ only on states that are no component of a
        state in mask."""
        for w, nt, n, images, parts, *_ in per_machine:
            ti, ui = t // w % nt * n, u // w % nt * n
            if ti != ui and any(y != z and part & mask for y, z, part
                                in zip(images[ti:ti + n], images[ui:ui + n], parts)):
                return False
        return True

    def class_of(t: int) -> int:
        """The id of the transformation of a that packed T is.  Packed Ts
        with one alive set that map its states alike are one, though they
        may differ on a component no alive state has: there some other
        component dies.  Both keep q0 alive, so both map it alike."""
        tid = t_class.get(t)
        if tid is None:
            mask, head = -1, 0
            for w, nt, n, images, _, alive, q0_m, v in per_machine:
                ti = t // w % nt
                mask &= alive[ti]
                head += images[ti * n + q0_m] * v
            sid = s_ids.setdefault(mask, len(s_masks))
            if sid == len(s_masks):
                s_masks.append(mask)
            # at most one class matches, so the scan may go newest first:
            # same_on on one mask is an equivalence, and each class's first
            # T was checked against every earlier class with its head and S
            newest = tid = by_head.get(head, -1)
            while tid >= 0 and not (rep_alive[tid] == sid
                                    and same_on(t, reps[tid], mask)):
                tid = older[tid]
            if tid < 0:
                tid = len(reps)
                reps.append(t)
                rep_alive.append(sid)
                older.append(newest)
                by_head[head] = tid
            t_class[t] = tid
        return tid

    def pack(tid: int, g: int, entries: dict[int, int]) -> bytes:
        flat = [tid, g]
        for pair in sorted(entries.items()):
            flat += pair
        return array("I", flat).tobytes()

    def step(key: bytes, c: int) -> bytes | None:
        flat = array("I", key)
        g = guide.delta[flat[1]][c]
        if g == g_dead:
            return None
        col = cols[c]
        entries: dict[int, int] = {}
        for i in range(2, len(flat), 2):
            r, rs = col[flat[i]], flat[i + 1]
            if r == dead:
                return None
            kept = entries.get(r)
            # keep the smaller of the nested sets; a kept one passed the cut
            if kept is not None and s_masks[kept] & s_masks[rs] == s_masks[kept]:
                continue
            if not s_masks[rs] & reach[r * G + g]:
                return None
            entries[r] = rs
        # only now the new entry (q0, alive(T)), the smallest set, so that
        # T steps only for states that get this far; the entry at
        # delta(q0, w) did not die, so wc is in L(a) and T has a successor
        tid = class_of(next_t(reps[flat[0]], c))
        entries[q0] = rep_alive[tid]
        return pack(tid, g, entries)

    def accepts(key: bytes) -> bool:
        flat = array("I", key)
        return flat[1] != g_dead and all(s_masks[flat[i + 1]] >> flat[i] & 1
                                         for i in range(2, len(flat), 2))

    t0 = class_of(0)
    return pack(t0, guide.initial, {q0: rep_alive[t0]}), step, accepts


def difference_witness(a: Dfa, b: Dfa) -> Word | None:
    """Shortest, then lexicographically least, word accepted by exactly one
    of the two, or None when the languages agree.  A breadth-first search
    over the pairs of states that a and b, run side by side, reach."""
    if a.alphabet_size != b.alphabet_size:
        raise InputError("cannot compare automata over different alphabets")
    start = (a.initial, b.initial)
    seen = {start}
    queue: deque[tuple[tuple[int, int], Word]] = deque([(start, ())])
    while queue:
        (p, q), word = queue.popleft()
        if (p in a.finals) != (q in b.finals):
            return word
        for c in range(a.alphabet_size):
            nxt = (a.delta[p][c], b.delta[q][c])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (c,)))
    return None
