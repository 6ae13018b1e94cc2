"""Length series and rational generating functions for automata.

Counting is a transfer-matrix walk with exact integers.  The minimal
recurrence behind a series is recovered by Berlekamp-Massey over the
rationals, and the resulting numerator/denominator pair is re-expanded
against the input as a self-check, so a wrong answer cannot escape
quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import fsa
from .errors import InternalError


def count_by_length(a: fsa.Dfa, n_max: int) -> list[int]:
    """coeffs[k] = number of accepted words of length k, 0 <= k <= n_max."""
    vec = [0] * a.num_states
    vec[a.initial] = 1
    out = []
    for k in range(n_max + 1):
        out.append(sum(vec[q] for q in a.finals))
        if k == n_max:
            break
        nxt = [0] * a.num_states
        for q, c in enumerate(vec):
            if c:
                for r in a.delta[q]:
                    nxt[r] += c
        vec = nxt
    return out


def find_recurrence(seq) -> tuple[Fraction, ...]:
    """Connection coefficients (c_1..c_L) of the shortest linear recurrence
    a_n = sum c_i a_{n-i} valid for every n >= L in the given prefix."""
    s = [Fraction(x) for x in seq]
    cur: list[Fraction] = []   # current connection polynomial, constant 1 implied
    last: list[Fraction] = []  # copy from the last length change
    last_pos = 0
    last_delta = Fraction(1)
    for n in range(len(s)):
        delta = s[n] - sum(cur[i] * s[n - 1 - i] for i in range(len(cur)))
        if delta == 0:
            continue
        if not cur:
            cur = [Fraction(0)] * (n + 1)
            last_pos = n
            last_delta = delta
            continue
        coef = delta / last_delta
        fix = [Fraction(0)] * (n - last_pos - 1) + [coef]
        fix += [-coef * c for c in last]
        prev = cur[:]
        if len(fix) > len(cur):
            cur = cur + [Fraction(0)] * (len(fix) - len(cur))
            last = prev
            last_pos = n
            last_delta = delta
        for i, f in enumerate(fix):
            cur[i] += f
    return tuple(cur)


@dataclass(frozen=True)
class RationalGF:
    """num/den in Z[x]; den[0] = 1, the pair primitive and coprime."""
    num: tuple[int, ...]
    den: tuple[int, ...]

    def expand(self, n_max: int) -> list[int]:
        out = []
        for k in range(n_max + 1):
            acc = self.num[k] if k < len(self.num) else 0
            for i in range(1, min(k, len(self.den) - 1) + 1):
                acc -= self.den[i] * out[k - i]
            if acc % self.den[0]:
                raise InternalError("expansion left the integers")
            out.append(acc // self.den[0])
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


def to_rational(seq, rec: tuple[Fraction, ...] | None = None) -> RationalGF:
    """Rational form of a series prefix.  The reciprocal of the recurrence
    becomes the denominator; the numerator is den*seq, which must vanish
    beyond the recurrence order or the input was not long enough."""
    if rec is None:
        rec = find_recurrence(seq)
    order = len(rec)
    den_q = [Fraction(1)] + [-c for c in rec]
    s = [Fraction(x) for x in seq]
    prod = []
    for k in range(len(s)):
        prod.append(sum(den_q[i] * s[k - i] for i in range(min(k, order) + 1)))
    if any(prod[k] != 0 for k in range(order, len(s))):
        raise InternalError("recurrence does not annihilate the series tail")
    num_q = _strip(prod[:order] if order else prod[:])
    den_q = _strip(den_q)
    scale = 1
    for c in num_q + den_q:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    num = [int(c * scale) for c in num_q]
    den = [int(c * scale) for c in den_q]
    content = 0
    for c in num + den:
        content = gcd(content, c)
    if content > 1:
        num = [c // content for c in num]
        den = [c // content for c in den]
    if den[0] != 1:
        raise InternalError("denominator failed to normalize to constant 1")
    gf = RationalGF(tuple(num), tuple(den))
    if gf.expand(len(s) - 1) != [int(x) for x in seq]:
        raise InternalError("re-expansion does not reproduce the series")
    return gf


def counted_genfun(a: fsa.Dfa) -> tuple[list[int], RationalGF]:
    """Length series prefix and generating function of a DFA's language.

    Counting runs on m = minimize(trim(a)), the smallest machine with the
    same language and therefore the same series, to the horizon 2*m+2
    (lengths 0..2m+2).  Any DFA series satisfies a recurrence of order at
    most its state count, and Berlekamp-Massey needs only twice the order
    in terms to fix it, so the recovered recurrence is certainly minimal.
    Trimming first keeps minimize off the dead states of a raw product."""
    m = fsa.minimize(fsa.trim(a))
    seq = count_by_length(m, 2 * m.num_states + 2)
    return seq, to_rational(seq)


def genfun_of_dfa(a: fsa.Dfa) -> RationalGF:
    """Generating function of a DFA's length series (see counted_genfun)."""
    return counted_genfun(a)[1]
