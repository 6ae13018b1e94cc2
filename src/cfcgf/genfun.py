"""Length series and rational generating functions for automata.

Counting is a transfer-matrix walk with exact integers.  By Fatou's lemma
a rational series with integer terms is P/Q with P, Q in Z[x] and Q(0) = 1
(Stanley, EC1 sec. 4).  Q is found by Berlekamp-Massey modulo primes,
combined by the Chinese remainder theorem.  P/Q is accepted only if it
re-expands to the counted prefix and is certified past it (Wiedemann).
"""

from __future__ import annotations

from . import fsa
from .errors import InputError, InternalError
from .value import Value


def _walk(a: fsa.Dfa):
    """(v_0, step, l) for the l live states of a, those from which a final
    state is reachable.  v_n[q] counts the words of length n that lead to
    q, and is kept 0 off the live states, where words add to no later
    length.  A live state's predecessors are live, so step, v_n ->
    v_{n+1}, is linear: the live transfer matrix A."""
    live = fsa.coreachable(a)
    succ = [[r for r in row if live[r]] for row in a.delta]
    v0 = [0] * a.num_states
    v0[a.initial] = live[a.initial]

    def step(vec: list[int]) -> list[int]:
        nxt = [0] * len(vec)
        for q, c in enumerate(vec):
            if c:
                for r in succ[q]:
                    nxt[r] += c
        return nxt

    return v0, step, sum(live)


# The Mersenne primes 2^e - 1 for these e: known primes, so no primality
# test, and together 19,168 bits for the coefficients of a recurrence.
PRIMES = tuple(2**e - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203,
                                  2281, 3217, 4253, 4423))


def find_recurrence(seq, p: int) -> tuple[int, ...]:
    """Connection coefficients (c_1..c_L) mod p, each in [0, p), of the
    shortest linear recurrence a_n = sum c_i a_{n-i} mod p valid for every
    n >= L in the given prefix of integers: textbook Berlekamp-Massey over
    GF(p), with connection polynomial C = 1 - c_1 x - ... - c_L x^L."""
    s = [x % p for x in seq]
    conn, prev = [1], [1]      # C now, and C before the last length change
    order, shift, prev_delta = 0, 1, 1
    for n in range(len(s)):
        delta = sum(c * s[n - i] for i, c in enumerate(conn)) % p
        if delta:
            old = conn[:]
            q = delta * pow(prev_delta, -1, p) % p
            conn += [0] * (shift + len(prev) - len(conn))
            for i, c in enumerate(prev, shift):
                conn[i] = (conn[i] - q * c) % p
            if 2 * order <= n:
                order, prev, prev_delta, shift = n + 1 - order, old, delta, 0
        shift += 1
    return tuple(-c % p for c in conn[1:order + 1])


class RationalGF(Value):
    """num/den in Z[x]; den[0] = 1, the pair primitive and coprime.  The
    constructor checks den[0] = 1, so the expansion stays in Z."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[int, ...], den: tuple[int, ...]):
        if not den or den[0] != 1:
            raise InputError("a generating function's denominator must have "
                             "constant term 1")
        self._set(num, den)

    def expand(self, n_max: int) -> list[int]:
        out = []
        for k in range(n_max + 1):
            acc = self.num[k] if k < len(self.num) else 0
            for i in range(1, min(k, len(self.den) - 1) + 1):
                acc -= self.den[i] * out[k - i]
            out.append(acc)
        return out

    def to_json_dict(self) -> dict:
        return {
            "num": [str(c) for c in self.num],
            "den": [str(c) for c in self.den],
        }

    def __str__(self) -> str:
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"


def _poly_str(coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
        parts.append(f"- {term}" if c < 0 else f"+ {term}" if parts else term)
    if not parts:
        return "0"
    return " ".join(parts)


def _strip(coeffs: list) -> list:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def to_rational(seq) -> RationalGF:
    """Rational form of a series prefix.  Its shortest recurrence has
    integer coefficients (Fatou's lemma), and only a prime that divides a
    discrepancy finds a shorter one mod p.  Answers of find_recurrence of
    one order are combined over PRIMES by the Chinese remainder theorem
    (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5); a larger
    order starts again.  The lift to the symmetric range gives den = 1 -
    c_1 x - ... - c_L x^L and num = den*seq mod x^L.  The first pair that
    re-expands to the whole prefix, den*seq = num mod x^len(seq), is
    returned; the check stops at the first later term of den*seq not 0.
    A prefix with 2L >= len(seq) - 1 for one prime's order L is refused."""
    s = list(seq)
    rec, modulus = (), 1
    for p in PRIMES:
        r = find_recurrence(s, p)
        if 2 * len(r) >= len(s) - 1:
            raise InternalError(f"too few terms to fix a recurrence of order {len(r)}")
        if len(r) < len(rec):
            continue
        if len(r) > len(rec):
            rec, modulus = (0,) * len(r), 1
        inv = pow(modulus, -1, p)
        rec = tuple(c + modulus * ((d - c) * inv % p) for c, d in zip(rec, r))
        modulus *= p
        den = [1] + [modulus - c if 2 * c > modulus else -c for c in rec]
        if not any(sum(d * s[k - i] for i, d in enumerate(den))
                   for k in range(len(rec), len(s))):
            num = [sum(den[i] * s[k - i] for i in range(k + 1)) for k in range(len(rec))]
            return RationalGF(tuple(_strip(num or [0])), tuple(_strip(den)))
    raise InternalError("no recurrence modulo the primes re-expands to the series")


def _certified(den: tuple[int, ...], v0: list[int], step, k: int) -> bool:
    """Whether z_n = sum_i den_i v_{n-i} is 0 for some n, deg den <= n <= k:
    z_D by Horner from v_0, then z_{n+1} = A z_n.  Then so is every later
    z_m, and den*s, whose terms count the z_m on the finals, vanishes past
    s_k too (Wiedemann, IEEE Trans. Inform. Theory 32, 1986)."""
    start = [(q, x) for q, x in enumerate(v0) if x]
    z, n = v0, len(den) - 1  # den[0] = 1
    for d in den[1:]:
        z = step(z)
        for q, x in start:
            z[q] += d * x
    while n < k and any(z):
        z, n = step(z), n + 1
    return not any(z)


def counted_genfun(a: fsa.Dfa, n_max: int | None = None
                   ) -> tuple[list[int], RationalGF | None]:
    """Counts s_0..s_k of a's words by length and their P/Q by to_rational,
    for k = 64, 128, ... up to 2l+2 for the l live states of `_walk`,
    counting on from the last vector.  Below that cap P/Q must be
    `_certified`, and is then minimal: its order, one prime's, is at most
    the series' own.  At the cap, 2l terms fix a recurrence of order at
    most l (Cayley-Hamilton).  Given n_max, the terms are s_0..s_n_max:
    counting stops at s_n_max if no P/Q is found before, and then the P/Q
    returned is None; a P/Q found before gives the rest by its expansion."""
    v0, step, live = _walk(a)
    cap = 2 * live + 2
    vec, seq, k = v0, [sum(v0[q] for q in a.finals)], 64
    while True:
        k = min(k, cap)
        if n_max is not None:
            k = min(k, n_max)
        for _ in range(len(seq), k + 1):
            vec = step(vec)
            seq.append(sum(vec[q] for q in a.finals))
        if k == n_max:
            return seq, None
        try:
            gf = to_rational(seq)
        except InternalError:
            if k == cap:
                raise
        else:
            if k == cap or _certified(gf.den, v0, step, k):
                if n_max is not None:
                    seq += gf.expand(n_max)[len(seq):]
                return seq, gf
        k *= 2
