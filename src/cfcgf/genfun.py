"""Length series and rational generating functions for automata.

Counting is a transfer-matrix walk with exact integers.  The minimal
recurrence behind a series is recovered by fraction-free Berlekamp-Massey
over the integers: by Fatou's lemma a rational series with integer terms
is P/Q with P, Q in Z[x] and Q(0) = 1 (Stanley, EC1 sec. 4), so no
rational number is ever needed.  The resulting numerator/denominator pair
is re-expanded against the input as a self-check, so a wrong answer
cannot escape quietly.
"""

from __future__ import annotations

from math import gcd

from . import fsa
from .errors import InputError, InternalError
from .value import Value


def count_by_length(a: fsa.Dfa, n_max: int) -> list[int]:
    """coeffs[k] = number of accepted words of length k, 0 <= k <= n_max.

    Only states from which a final state is reachable carry counts: the
    words in the others add to no later length, and there they would grow
    like alphabet**k."""
    live = fsa.coreachable(a)
    succ = [[r for r in row if live[r]] for row in a.delta]
    vec = [0] * a.num_states
    if live[a.initial]:
        vec[a.initial] = 1
    out = []
    for k in range(n_max + 1):
        out.append(sum(vec[q] for q in a.finals))
        if k == n_max:
            break
        nxt = [0] * a.num_states
        for q, c in enumerate(vec):
            if c:
                for r in succ[q]:
                    nxt[r] += c
        vec = nxt
    return out


def find_recurrence(seq) -> tuple[int, ...]:
    """Connection coefficients (c_1..c_L) of the shortest linear recurrence
    a_n = sum c_i a_{n-i} valid for every n >= L in the given prefix of
    integers.

    Berlekamp-Massey without fractions: the connection polynomial
    C = 1 - c_1 x - ... - c_L x^L is kept in Z[x] up to a nonzero factor,
    updated as C <- b*C - d*x^m*B (d the discrepancy now, B and b the
    polynomial and discrepancy of the last length change, m the steps
    since) and divided by its content after each update.  By Fatou's
    lemma a rational series with integer terms has its reduced
    denominator in Z[x] with constant term 1, so the primitive C of every
    series counted here has constant term +-1; any other raises
    InternalError."""
    s = list(seq)
    conn = [1]                 # connection polynomial; constant term conn[0]
    last = [1]                 # its value at the last length change
    last_pos = 0
    last_delta = 1
    for n in range(len(s)):
        delta = sum(c * s[n - i] for i, c in enumerate(conn))
        if delta == 0:
            continue
        if len(conn) == 1:
            conn = [1] + [0] * (n + 1)
            last_pos = n
            last_delta = delta
            continue
        shift = n - last_pos
        grow = shift + len(last) - len(conn)
        new = [last_delta * c for c in conn] + [0] * grow
        for i, c in enumerate(last, shift):
            new[i] -= delta * c
        if grow > 0:
            last = conn
            last_pos = n
            last_delta = delta
        g = gcd(*new)
        conn = [c // g for c in new] if new[0] > 0 else [-c // g for c in new]
    if conn[0] != 1:
        raise InternalError("the recurrence does not have integer coefficients")
    return tuple(-c for c in conn[1:])


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
    """Rational form of a series prefix.  The reciprocal of the recurrence
    that find_recurrence gives, which has integer coefficients (Fatou's
    lemma), becomes the denominator den, the first terms of den*seq below
    its order the numerator num.  The pair must re-expand to the whole
    prefix, that is den*seq = num mod x^len(seq); if the recurrence does
    not annihilate the tail, or the input was too short to fix it, it
    fails."""
    rec = find_recurrence(seq)
    den = [1] + [-c for c in rec]
    num = _strip([sum(den[i] * seq[k - i] for i in range(k + 1))
                  for k in range(len(rec))] or [0])
    gf = RationalGF(tuple(num), tuple(_strip(den)))
    if gf.expand(len(seq) - 1) != list(seq):
        raise InternalError("re-expansion does not reproduce the series")
    return gf


def counted_genfun(a: fsa.Dfa) -> tuple[list[int], RationalGF]:
    """Length series prefix and generating function of a DFA's language.

    Counting runs on m = fsa.series_quotient(a), a machine with the same
    series and at most as many states as the minimal one, to the horizon
    2*m+2 (lengths 0..2m+2).  The series of an m-state transfer matrix
    obeys a recurrence of order at most m (Cayley-Hamilton), and
    Berlekamp-Massey needs only twice the order in terms to fix it, so
    the recovered recurrence is certainly minimal."""
    m = fsa.series_quotient(a)
    seq = count_by_length(m, 2 * m.num_states + 2)
    return seq, to_rational(seq)
