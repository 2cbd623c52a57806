"""Closed algebra of finite combinations of (log t)^l * t^(-m) on (1, inf).

This is the function class every summation engine consumes: it is closed
under differentiation, has elementary antiderivatives, its absolute tails
integrate in closed form, and f(n + t0) re-expands into the same class.
Coefficients are complex numbers at the ambient mpmath precision; the term
indices (l, m) are exact integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
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

    def __init__(self, terms=None):
        merged = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key_or_triple in items:
                if len(key_or_triple) == 2:
                    (l, m), c = key_or_triple
                else:
                    l, m, c = key_or_triple
                if l < 0:
                    raise ValueError("log power l must be >= 0")
                c = _as_mpc(c)
                key = (int(l), int(m))
                merged[key] = merged.get(key, mp.mpc(0)) + c
        self._terms = {k: c for k, c in merged.items() if c != 0}

    @classmethod
    def term(cls, l: int, m: int, coeff=1) -> "ScaleFunction":
        return cls([(l, m, coeff)])

    @classmethod
    def zero(cls) -> "ScaleFunction":
        return cls()

    def terms(self):
        """Iterate (l, m, coeff) sorted by (m, l)."""
        for (l, m) in sorted(self._terms, key=lambda k: (k[1], k[0])):
            yield l, m, self._terms[(l, m)]

    def is_zero(self) -> bool:
        return not self._terms

    def min_decay(self):
        """Smallest decay index m present, or None for the zero function."""
        return min((m for (_, m) in self._terms), default=None)

    def __add__(self, other: "ScaleFunction") -> "ScaleFunction":
        items = list(self._terms.items()) + list(other._terms.items())
        return ScaleFunction(items)

    def __sub__(self, other: "ScaleFunction") -> "ScaleFunction":
        return self + other.scaled(-1)

    def scaled(self, c) -> "ScaleFunction":
        c = _as_mpc(c)
        return ScaleFunction([(l, m, coeff * c) for (l, m), coeff in self._terms.items()])

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
        """Value at t >= 1 (used by the engines, which touch t = 1)."""
        t = mp.mpf(t)
        log_t = mp.log(t)
        total = mp.mpc(0)
        for (l, m), c in self._terms.items():
            total += c * log_t ** l * t ** (-m)
        return total

    def evaluate(self, t):
        """Value at a point t > 1."""
        if not t > 1:
            raise ValueError(f"evaluate requires t > 1, got {t}")
        return self._value_at(t)

    def abs_tail(self):
        """Pseudo-terms {(l', m'): amp} with  int_a^inf |f| <= sum amp
        (log a)^l' a^(-m')  for a >= 1, or None if some term has m <= 1.

        Each term contributes |c| * int_a^inf (log t)^l t^(-m) dt in the closed
        form  a^{1-m} * sum_{i<=l} (l!/(l-i)!) (log a)^{l-i}/(m-1)^{i+1}.
        """
        out = {}
        for (l, m), c in self._terms.items():
            if m <= 1:
                return None
            fall = 1
            for i in range(l + 1):
                key = (l - i, m - 1)
                amp = abs(c) * fall / mp.mpf(m - 1) ** (i + 1)
                out[key] = out.get(key, mp.mpf(0)) + amp
                fall *= l - i
        return out

    def abs_tail_bound(self, a):
        """Upper bound for int_a^inf |f|, a >= 2: ``abs_tail`` at a, +inf if
        some term has m <= 1."""
        if not a >= 2:
            raise ValueError(f"abs_tail_bound requires a >= 2, got {a}")
        tail = self.abs_tail()
        if tail is None:
            return mp.inf
        a = mp.mpf(a)
        log_a = mp.log(a)
        return sum((amp * log_a ** l * a ** (-m) for (l, m), amp in tail.items()),
                   mp.mpf(0))

    def shift_expand(self, t0: int, order: int):
        """Expand f(n + t0) in the scale of n, valid up to O(n^-(order+1) * logs).

        Returns (g, order + 1) with g a ScaleFunction in n whose terms all have
        decay <= order.  t0 = 0 returns f unchanged.  Uses the binomial series
        for (n + t0)^(-m) and the logarithm series for log(n + t0).
        """
        if t0 < 0:
            raise ValueError("shift_expand needs t0 >= 0")
        if t0 == 0:
            return self, order + 1
        out = []
        for (l, m), c in self._terms.items():
            depth = order - m
            if depth < 0:
                continue
            for l2, d, coef in _shifted_basis_term(l, m, t0, depth):
                out.append((l2, m + d, c * coef.numerator / coef.denominator))
        return ScaleFunction(out), order + 1


def _poly_mul(p, q, depth):
    res = [Fraction(0)] * (depth + 1)
    for i, pi in enumerate(p):
        if not pi:
            continue
        for j, qj in enumerate(q):
            if i + j > depth:
                break
            if qj:
                res[i + j] += pi * qj
    return res


@lru_cache(maxsize=4096)
def _shifted_basis_term(l: int, m: int, t0: int, depth: int):
    """Rational expansion data for (log(n+t0))^l (n+t0)^(-m): tuples
    (l', d, coeff) meaning coeff * (log n)^l' * n^-(m+d), d <= depth."""
    # (1 + t0 x)^(-m) in x = 1/n
    pow_part = [Fraction(1)]
    for d in range(1, depth + 1):
        coef = Fraction(1)
        for i in range(d):
            coef *= Fraction(-m - i, i + 1)
        pow_part.append(coef * t0 ** d)
    # log(1 + t0 x)
    log_part = [Fraction(0)] + [
        Fraction((-1) ** (d + 1) * t0 ** d, d) for d in range(1, depth + 1)
    ]
    g_pow = [[Fraction(1)] + [Fraction(0)] * depth]
    for _ in range(l):
        g_pow.append(_poly_mul(g_pow[-1], log_part, depth))
    out = []
    for j in range(l + 1):
        comb = math.comb(l, j)
        prod = _poly_mul(g_pow[j], pow_part, depth)
        for d, coef in enumerate(prod):
            if coef:
                out.append((l - j, d, comb * coef))
    return tuple(out)
