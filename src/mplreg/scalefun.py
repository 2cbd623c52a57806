"""Closed algebra of finite combinations of (log t)^l * t^(-m) on (1, inf).

This is the function class every summation engine consumes: it is closed
under differentiation, has elementary antiderivatives, its absolute tails
integrate in closed form into the same class, and f(n + t0) re-expands into
it through its Taylor series.  Coefficients are mpc numbers, the term
indices (l, m) exact integers, and ``_grid`` evaluates on Python integers.
(The expansion algebra keeps its n-parts as integers: ``summation.Scaled``.)
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, log_int_fixed, round_nearest

__all__ = ["ScaleFunction"]


def _as_mpc(c):
    if isinstance(c, Fraction):
        return mp.mpc(c.numerator) / c.denominator
    return mp.mpc(c)


def _rounded_sum(values, wp: int, prec: int) -> tuple:
    """The _mpf_ of the sum of the man 2^exp in ``values``, each floored to
    the unit 2^e wp bits below the largest of them, rounded once to prec."""
    e = max([man.bit_length() + exp for man, exp in values], default=0) - wp
    return from_man_exp(sum([man << exp - e if exp >= e else man >> e - exp
                             for man, exp in values]), e, prec, round_nearest)


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

    @staticmethod
    def _grid(functions, points) -> list:
        """[[f(t) for f in functions] for t in points], t >= 1, on integers
        at wp = prec + 14 + L + bit_length(T) bits per f (L its largest l, T
        its number of terms).  x = (log t)^l t^-m: for an integral t,
        ``log_int_fixed`` (< 2 units 2^-wp), fixed-point powers, and t^-m an
        exact multiply (m <= 0) or a floor division with m bit_length(t)
        extra bits; else mpmath at wp.  Each coefficient part times x is
        exact; ``_rounded_sum`` adds those of one part of f.  Error per part,
        S the sum of that part of the terms' absolute values: log t >= log 2
        > 1/1.45, so x errs relatively by delta < 2^(l+4-wp) (mpmath by
        < 2 (l + 2) ulp), the T floors by < 2 T (1 + delta) 2^-wp S, the sum
        by E < 2^(L + bit_length(T) + 5 - wp) S, and rounding adds
        < 2^-prec (|part of f(t)| + E): below 2^-prec |part of f(t)| +
        2^-(prec+8) S in all."""
        prec = mp.mp.prec
        coeffs = []  # per f: wp; per term (wp, l, m) and each part's (mantissa, exponent)
        for f in functions:
            wp = prec + 14 + max((l for l, _ in f._terms), default=0) + len(f._terms).bit_length()
            coeffs.append((wp, [((wp, *key), *((-man if sign else man, exp)
                                               for sign, man, exp, _ in c._mpc_))
                                for key, c in f._terms.items()]))
        keys = {key for _, terms in coeffs for key, _, _ in terms}
        rows = []
        for t in points:
            t = int(t) if mp.isint(t) else mp.mpf(t)
            x, logs, bits = {}, {}, isinstance(t, int) and t.bit_length()
            for wp, l, m in keys:
                if not bits:
                    with mp.workprec(wp):
                        logs[wp] = log_t = logs.get(wp) or mp.log(t)
                        sign, man, exp, _ = (log_t ** l * t ** -m)._mpf_
                    x[wp, l, m] = (-man if sign else man, exp)
                    continue
                if wp not in logs:  # 20 more bits: a log cached at another wp floors alike
                    logs[wp] = [1 << wp, log_int_fixed(t, wp + 20) >> 20 if t > 1 else 0]
                powers = logs[wp]
                while len(powers) <= l:
                    powers.append((powers[-1] * powers[1]) >> wp)
                x[wp, l, m] = (((powers[l] << m * bits) // t ** m, -wp - m * bits) if m > 0
                               else (powers[l] * t ** -m, -wp))
            row = []
            for wp, terms in coeffs:
                re, im = [], []
                for key, (re_man, re_exp), (im_man, im_exp) in terms:
                    xm, xe = x[key]
                    if xm and re_man:
                        re.append((re_man * xm, re_exp + xe))
                    if xm and im_man:
                        im.append((im_man * xm, im_exp + xe))
                row.append(mp.make_mpc((_rounded_sum(re, wp, prec), _rounded_sum(im, wp, prec))))
            rows.append(row)
        return rows

    def _value_at(self, t):
        """Value at t >= 1: the bits of ``_grid`` for f at t in any call."""
        return ScaleFunction._grid([self], [t])[0][0]

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
