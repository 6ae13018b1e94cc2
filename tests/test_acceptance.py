"""Acceptance gate.

Every check here decides whether the package does its one job: produce,
for a given Coxeter system, an automaton-backed count of cyclically fully
commutative elements by length that a brute-force enumeration confirms.
Each check prints a single PASS/FAIL verdict line that bypasses output
capture, so the gate's outcome is readable from any pytest run.
"""

import functools
import time
from itertools import combinations, product

from cfcgf import cfc_automaton, fsa, genfun, lexnf
from cfcgf.cli import verify
from cfcgf.core import cyclic_shifts, parse_system, preset_system
from cfcgf.genfun import RationalGF
from cfcgf.oracle import commutation_class, count_elements, is_cfc

INF_TRIANGLE = '{"matrix": [[1, "inf", "inf"], ["inf", 1, "inf"], ["inf", "inf", 1]]}'

# name -> (system, exhaustive length: 10 at rank <= 3, 8 above)
SUITE = {
    "A1": 10, "A2": 10, "A3": 10, "A4": 8,
    "B2": 10, "B3": 10,
    "I2:5": 10, "I2:6": 10, "I2:7": 10,
    "tA1": 10, "tA2": 10, "tA3": 8,
    "triangle-inf": 10,
}


def suite_system(name):
    if name == "triangle-inf":
        return parse_system(INF_TRIANGLE)
    return preset_system(name)


def pipeline(system, mode="cfc"):
    """One word per element: the shipped pipeline, or in fc mode the
    linear recognizer cut to normal forms, which checks no cyclic
    condition."""
    if mode == "cfc":
        return cfc_automaton.build(system, "pipeline")
    return fsa.intersect(cfc_automaton.build(system, "fc"), lexnf.build(system))


def verdict(capsys, label, ok, detail=""):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'}{detail}")


def test_01_element_counts_match_brute_force(capsys):
    started = time.monotonic()
    failures = []
    for name, max_len in SUITE.items():
        system = suite_system(name)
        got = genfun.count_by_length(pipeline(system), max_len)
        want = count_elements(system, max_len, kind="cfc").counts()
        if got != want:
            failures.append((name, got, want))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 300
    verdict(
        capsys,
        "counts vs brute force",
        ok,
        f" ({len(SUITE)} systems, {elapsed:.1f}s)",
    )
    assert not failures, failures
    assert elapsed < 300, f"suite took {elapsed:.1f}s, budget is 300s"


def access_words(dfa):
    """The shortest, then lexicographically least, word reaching each
    state, keyed by state."""
    words = {dfa.initial: ()}
    order = [dfa.initial]
    for q in order:
        for c in range(dfa.alphabet_size):
            r = dfa.delta[q][c]
            if r not in words:
                words[r] = words[q] + (c,)
                order.append(r)
    return words


def shortest_separating_suffixes(dfa):
    """For every pair p < q of states of a minimal DFA whose states are
    numbered 0..n-1, the shortest, then lexicographically least, word that
    is accepted from exactly one of them.  Pairs are settled in order of
    distance: a pair is at distance k when some letter leads to a pair at
    distance k - 1."""
    pairs = list(combinations(range(dfa.num_states), 2))
    suffix = {
        (p, q): () for p, q in pairs if (p in dfa.finals) != (q in dfa.finals)
    }
    while len(suffix) < len(pairs):
        found = {}
        for p, q in pairs:
            if (p, q) in suffix:
                continue
            for c in range(dfa.alphabet_size):
                nxt = tuple(sorted((dfa.delta[p][c], dfa.delta[q][c])))
                if nxt in suffix:
                    found[p, q] = (c,) + suffix[nxt]
                    break
        assert found, "two states accept the same language: DFA not minimal"
        suffix.update(found)
    return suffix


def nerode_certificate(dfa, is_member):
    """Check a minimal DFA's states against a membership predicate alone.

    The machine supplies only candidate words: an access word per state and
    a shortest separating suffix per pair of states.  A pair counts as
    separated when is_member disagrees on the two access words extended by
    that suffix, which proves the access words lie in different Nerode
    classes of the predicate's language.  Returns the access words of the
    states kept by a greedy pass (in state order, a state is kept when it
    is separated from every state already kept), which are pairwise
    inequivalent, and the sorted list of pairs left unseparated."""
    words = access_words(dfa)
    unseparated = {
        (p, q)
        for (p, q), s in shortest_separating_suffixes(dfa).items()
        if is_member(words[p] + s) == is_member(words[q] + s)
    }
    kept = []
    for q in range(dfa.num_states):
        if all((p, q) not in unseparated for p in kept):
            kept.append(q)
    return [words[q] for q in kept], sorted(unseparated)


# Size of the minimal recognizer of the tA3 CFC language: 100 Nerode classes
TA3_MINIMAL_STATES = 100


def test_02_state_census_of_the_rank_4_cycle(capsys):
    """Pin the size of the affine rank-4 cycle's recognizer against a value
    the automaton side does not supply.

    The only state count a language fixes is that of its minimal
    recognizer (Myhill-Nerode), so the census is 100: the brute-force
    oracle proves 100 words pairwise inequivalent, and minimizing the
    shipped machine leaves exactly 100 states.  This replaces an earlier
    target of 149 raw states, which no document in the repo sources, which
    contradicts the raw count of 104 pinned in test_cfc_automaton, and
    which is not the minimal size; a census of some 149-state construction
    would belong in a test of its own.  The certificate must also be able
    to fail: on a near miss, the minimal machine with the finality of one
    state flipped and minimized again, the oracle leaves some state pairs
    unseparated although the near miss has as many states."""
    system = suite_system("tA3")
    oracle = functools.cache(functools.partial(is_cfc, system))
    raw = cfc_automaton.build(system)
    minimal = fsa.minimize(raw)
    certified, unseparated = nerode_certificate(minimal, oracle)
    oracle_calls = oracle.cache_info().misses
    near_miss = fsa.minimize(fsa.Dfa(
        minimal.alphabet_size, minimal.delta, minimal.initial,
        minimal.finals ^ {1}, None, minimal.letter_names,
    ))
    _, near_miss_unseparated = nerode_certificate(near_miss, oracle)
    ok = (
        not unseparated
        and len(certified) == minimal.num_states == TA3_MINIMAL_STATES
        and raw.num_states >= TA3_MINIMAL_STATES
        and bool(near_miss_unseparated)
    )
    verdict(
        capsys,
        "state census, affine rank-4 cycle",
        ok,
        f" ({len(certified)} classes certified by {oracle_calls} oracle"
        f" verdicts, minimized {minimal.num_states}, raw {raw.num_states};"
        f" near miss: {near_miss.num_states} states,"
        f" {len(near_miss_unseparated)} pairs unseparated)",
    )
    assert not unseparated, unseparated[:5]
    assert len(certified) == minimal.num_states == TA3_MINIMAL_STATES
    assert raw.num_states >= TA3_MINIMAL_STATES
    assert near_miss_unseparated, "the certificate accepted the near miss"


def test_03_fully_commutative_counts_match_brute_force(capsys):
    failures = []
    for name, max_len in SUITE.items():
        system = suite_system(name)
        got = genfun.count_by_length(pipeline(system, mode="fc"), max_len)
        want = count_elements(system, max_len, kind="fc").counts()
        if got != want:
            failures.append((name, got, want))
    verdict(capsys, "fully commutative counts", not failures)
    assert not failures, failures


def test_04_closed_forms(capsys):
    checks = {
        "A2": ((1, 2, 2), (1,)),
        "I2:5": ((1, 2, 2, 0, 2), (1,)),
        # the affine rank-2 form on record, (1+x)/(1-x), claims two elements
        # of length 3; brute force finds none, so the frozen expectation is
        # the form the enumeration actually supports
        "tA1": ((1, 2, 1, -2), (1, 0, -1)),
    }
    recorded_ta1 = RationalGF((1, 1), (1, -1))
    assert recorded_ta1.expand(3)[3] == 2
    assert count_elements(suite_system("tA1"), 3, kind="cfc").counts()[3] == 0
    failures = []
    for name, (num, den) in checks.items():
        gf = genfun.genfun_of_dfa(pipeline(suite_system(name)))
        if (gf.num, gf.den) != (num, den):
            failures.append((name, gf.num, gf.den))
    verdict(
        capsys,
        "closed forms",
        not failures,
        " (affine rank-2 value on record overruled by brute force)",
    )
    assert not failures, failures


def test_05_rational_forms_reexpand_to_direct_counts(capsys):
    failures = []
    for name in SUITE:
        a = pipeline(suite_system(name))
        gf = genfun.genfun_of_dfa(a)
        horizon = 3 * a.num_states
        if gf.expand(horizon) != genfun.count_by_length(a, horizon):
            failures.append(name)
    verdict(capsys, "re-expansion vs direct count", not failures)
    assert not failures, failures


def test_06_structural_properties(capsys):
    failures = []
    for name in SUITE:
        system = suite_system(name)
        cyclic = cfc_automaton.build(system)
        if not fsa.is_subset(cyclic, cfc_automaton.build(system, mode="fc")):
            failures.append((name, "not a sublanguage of the linear recognizer"))
        if system.rank <= 3:
            for w in fsa.accepted_words(cyclic, 8):
                if not all(cyclic.accepts(r) for r in cyclic_shifts(w)):
                    failures.append((name, "rotation", w))
                    break
        nf = lexnf.build(system)
        for n in range(7):
            classes = set()
            hits = 0
            for w in product(system.generators, repeat=n):
                classes.add(commutation_class(system, w))
                hits += nf.accepts(w)
            if hits != len(classes):
                failures.append((name, "normal form", n, hits, len(classes)))
                break
    verdict(capsys, "structural properties", not failures)
    assert not failures, failures


def _braid_pairs(v, pair):
    """True when v has an alternating factor of length m over the pair."""
    for i in range(len(v) - pair.m + 1):
        window = v[i:i + pair.m]
        if set(window) <= {pair.s, pair.t} and all(
            a != b for a, b in zip(window, window[1:])
        ):
            return True
    return False


def _end_chain(v, pair):
    """(last letter, length) of the longest alternating run of the pair's
    letters that ends v."""
    n = 0
    while n < len(v) and v[-1 - n] in (pair.s, pair.t) and (
        n == 0 or v[-1 - n] != v[-n]
    ):
        n += 1
    return (v[-1], n) if n else cfc_automaton.EMPTY_CHAIN


def test_07_state_components_mean_what_they_say(capsys):
    """The legal-letter mask, the watch mask and the chains of the linear
    recognizer all admit word-level readings; check them against brute
    force on every word that does not die in the automaton."""
    failures = []
    for name in ("A2", "A3", "B2", "B3", "I2:5", "tA2"):
        system = suite_system(name)
        pairs = cfc_automaton.finite_pairs(system)
        for n in range(9 if system.rank <= 3 else 7):
            for w in product(system.generators, repeat=n):
                q = cfc_automaton.initial_state(system)
                for s in w:
                    q = cfc_automaton.transition(system, pairs, q, s)
                    if q is None:
                        break
                if q is None:
                    continue
                e, watch, chains = q
                cls = commutation_class(system, w)
                for s in system.generators:
                    legal = bool((e >> s) & 1)
                    blocked = any(v and v[-1] == s for v in cls)
                    if legal == blocked:
                        failures.append((name, w, "legal-letter set", s))
                    watched = bool((watch >> s) & 1)
                    completes = any(
                        _braid_pairs(v, pair)
                        for v in commutation_class(system, w + (s,))
                        for pair in pairs
                    )
                    if watched != completes:
                        failures.append((name, w, "braid watch", s))
                for pair, chain in zip(pairs, chains):
                    longest = max(
                        (_end_chain(v, pair) for v in cls), key=lambda c: c[1]
                    )
                    if chain != longest:
                        failures.append((name, w, "chain", pair, chain))
        if failures:
            break
    verdict(capsys, "state semantics vs brute force", not failures)
    assert not failures, failures[:5]


def test_08_broken_variants_are_caught_by_verification(capsys):
    """A machine that checks no cyclic condition, the linear pipeline, must
    fail verification: 010 is reduced and fully commutative, but its
    rotation 001 is not reduced."""
    found = {}
    for name in ("I2:5", "tA1"):
        system = suite_system(name)
        found[name] = verify(system, pipeline(system, mode="fc"), 5)
    ok = all(
        m is not None and m[0] == 3 and m[3] == (0, 1, 0)
        and m[4] == "automaton only"
        for m in found.values()
    )
    verdict(capsys, "regression hooks", ok)
    assert ok, found


def test_09_guided_closure_equals_the_cut_closure(capsys):
    """Exploring only normal forms changes nothing: the pipeline, the
    rotation closure guided by the normal-form acceptor, accepts exactly
    the normal forms that the unguided closure accepts."""
    failures = []
    for name in SUITE:
        system = suite_system(name)
        cut = fsa.intersect(cfc_automaton.build(system), lexnf.build(system))
        witness = fsa.difference_witness(pipeline(system), cut)
        if witness is not None:
            failures.append((name, witness))
    verdict(capsys, "guided closure vs cut closure", not failures)
    assert not failures, failures
