"""Closed algebra of finite combinations of (log t)^l * t^(-m) on (1, inf).

This is the function class every summation engine consumes: it is closed
under differentiation, has elementary antiderivatives, its absolute tails
integrate in closed form into the same class, and f(n + t0) re-expands into
it through its Taylor series.  Coefficients are mpc numbers, the term
indices (l, m) exact integers.  The engines read only ``terms()``: they sum
on Python integers (``summation._moment_blocks``), as the expansion algebra
keeps its n-parts (``summation.Scaled``).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

__all__ = ["ScaleFunction"]


def _as_mpc(c):
    if isinstance(c, Fraction):
        return mp.mpc(c.numerator) / c.denominator
    return mp.mpc(c)


class ScaleFunction:
    """A finite sum  sum_{(l,m)} c_{l,m} (log t)^l t^(-m),  l >= 0, m integer.

    Normal form keeps one coefficient per (l, m) and drops exact zeros; the
    empty sum is the zero function.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        """From (l, m, coeff) triples; equal (l, m) merge in the given order."""
        merged = {}
        for l, m, c in terms:
            key = (int(l), int(m))
            if key != (l, m) or l < 0:
                raise ValueError(f"need integers l >= 0 and m, got l = {l}, m = {m}")
            if not isinstance(c, mp.mpc):
                c = _as_mpc(c)
            merged[key] = merged[key] + c if key in merged else c
        self._terms = {k: c for k, c in merged.items() if c}

    @classmethod
    def term(cls, l: int, m: int, coeff=1) -> "ScaleFunction":
        return cls([(l, m, coeff)])

    @classmethod
    def zero(cls) -> "ScaleFunction":
        return cls()

    def terms(self) -> list:
        """The (l, m, coeff) triples, in the order they were first collected."""
        return [(l, m, c) for (l, m), c in self._terms.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, l: int, m: int):
        return self._terms.get((l, m), mp.mpc(0))

    def min_decay(self):
        """Smallest decay index m present, or None for the zero function."""
        return min((m for (_, m) in self._terms), default=None)

    def __add__(self, other: "ScaleFunction") -> "ScaleFunction":
        return ScaleFunction(self.terms() + other.terms())

    def __sub__(self, other: "ScaleFunction") -> "ScaleFunction":
        return self + other.scaled(-1)

    def scaled(self, c) -> "ScaleFunction":
        c = _as_mpc(c)
        return ScaleFunction([(l, m, coeff * c) for (l, m), coeff in self._terms.items()])

    def __mul__(self, other: "ScaleFunction") -> "ScaleFunction":
        """Pointwise product; log and decay indices add."""
        return ScaleFunction([(l1 + l2, m1 + m2, c1 * c2)
                              for (l1, m1), c1 in self._terms.items()
                              for (l2, m2), c2 in other._terms.items()])

    def times_power(self, e: int) -> "ScaleFunction":
        """Multiply by t^e (shifts every decay index m to m - e)."""
        return ScaleFunction([(l, m - e, c) for (l, m), c in self._terms.items()])

    def differentiate(self) -> "ScaleFunction":
        out = []
        for (l, m), c in self._terms.items():
            if l > 0:
                out.append((l - 1, m + 1, c * l))
            out.append((l, m + 1, -c * m))
        return ScaleFunction(out)

    def antiderivative(self) -> "ScaleFunction":
        """Exact antiderivative with zero integration constant."""
        out = []
        for (l, m), c in self._terms.items():
            if m == 1:
                out.append((l + 1, 0, c / (l + 1)))
                continue
            # int (log t)^j t^{-m} = (log t)^j t^{1-m}/(1-m) - j/(1-m) * int (log t)^{j-1} t^{-m}
            factor = c
            for j in range(l, -1, -1):
                out.append((j, m - 1, factor / (1 - m)))
                factor = factor * (-j) / (1 - m)
        return ScaleFunction(out)

    def _value_at(self, t):
        """Value at t >= 1: the terms in mpmath at wp = prec + 14 + L +
        bit_length(T) bits (L the largest l, T the number of terms), and per
        part their exact sum rounded once to prec.  A term errs relatively by
        < (L + 6) 2^-wp (log t, its power, t^-m and the product with c), so a
        part errs by < 2^-prec |part of f(t)| + 2^-(prec+8) S, S the sum of
        that part of the terms' absolute values."""
        L = max([0] + [l for l, _ in self._terms])
        with mp.workprec(mp.mp.prec + 14 + L + len(self._terms).bit_length()):
            t, log_t = mp.mpf(t), mp.log(t)
            terms = [c * log_t ** l * t ** -m for (l, m), c in self._terms.items()]
        return mp.mpc(mp.fsum(terms))

    def evaluate(self, t):
        """Value at a point t > 1."""
        if not t > 1:
            raise ValueError(f"evaluate requires t > 1, got {t}")
        return self._value_at(t)

    def abs_tail(self):
        """A ScaleFunction P with  int_a^inf |f| <= P(a)  for a >= 1, all its
        coefficients real and positive, or None if some term has m <= 1.

        Each term contributes |c| * int_a^inf (log t)^l t^(-m) dt in the closed
        form  a^{1-m} * sum_{i<=l} (l!/(l-i)!) (log a)^{l-i}/(m-1)^{i+1}.
        """
        out = []
        for (l, m), c in self._terms.items():
            if m <= 1:
                return None
            fall = 1
            for i in range(l + 1):
                out.append((l - i, m - 1, abs(c) * fall / mp.mpf(m - 1) ** (i + 1)))
                fall *= l - i
        return ScaleFunction(out)

    def abs_tail_bound(self, a):
        """Upper bound for int_a^inf |f|, a >= 2: ``abs_tail`` at a, +inf if
        some term has m <= 1."""
        if not a >= 2:
            raise ValueError(f"abs_tail_bound requires a >= 2, got {a}")
        tail = self.abs_tail()
        return mp.inf if tail is None else tail._value_at(a).real

    def shift_expand(self, t0: int, order: int):
        """Expand f(n + t0) in the scale of n, valid up to O(n^-(order+1) * logs).

        Returns (g, order + 1) with g a ScaleFunction in n whose terms all have
        decay <= order.  t0 = 0 returns f unchanged.  g is the Taylor series
        sum_j t0^j/j! f^(j)(n); the decay of f^(j) is that of f plus j, so
        j runs up to order - min_decay.
        """
        if t0 < 0:
            raise ValueError("shift_expand needs t0 >= 0")
        if t0 == 0 or self.is_zero():
            return self, order + 1
        out, g = [], self
        for j in range(order - self.min_decay() + 1):
            term = g.scaled(Fraction(t0 ** j, math.factorial(j)))
            out += [t for t in term.terms() if t[1] <= order]
            g = g.differentiate()
        return ScaleFunction(out), order + 1
