"""Exact Bernoulli and generalised Euler polynomial machinery.

Both families are built once, as integer rows over one denominator:
B_N(x) = sum_t b_t x^t / L, b_t = C(N, t) B_{N-t} L, L the lcm of the
denominators of B_0..B_N.  The generalised Euler polynomials, the unique
polynomials with

    (1/k) * (E_{k,n}(x) + E_{k,n}(x+1) + ... + E_{k,n}(x+k-1)) = x^n,

are E_{k,n}(x) = k^N/N (B_N((x+1)/k) - B_N(x/k)), N = n + 1, so [x^i]
E_{k,n} = sum_{t>i} b_t k^(N-t) C(t, i) / (L N).  Their values at 0 and 1
and sup bounds read the rows; a ``RationalPolynomial`` is built only on
request.  The generating series are test oracles.  k = 2 recovers the
classical Euler polynomials.  Everything here is exact, on big integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction

import mpmath as mp

from .rootsofunity import RotationNumber

__all__ = [
    "RationalPolynomial",
    "bernoulli_number",
    "bernoulli_polynomial",
    "bernoulli_sup_bound",
    "power_sum",
    "gen_euler_polynomial",
    "gen_euler_at_zero",
    "gen_euler_at_one",
    "sup_bound",
    "inner_product",
]


class RationalPolynomial:
    """A polynomial with exact Fraction coefficients, index = degree."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        return isinstance(other, RationalPolynomial) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __add__(self, other):
        n = max(len(self._coeffs), len(other._coeffs))
        return RationalPolynomial(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other):
        n = max(len(self._coeffs), len(other._coeffs))
        return RationalPolynomial(
            [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs))
            for i, a in enumerate(self._coeffs):
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return RationalPolynomial(out)
        return RationalPolynomial([c * Fraction(other) for c in self._coeffs])

    __rmul__ = __mul__

    def coeff(self, i: int) -> Fraction:
        return self._coeffs[i] if i < len(self._coeffs) else Fraction(0)

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            [i * c for i, c in enumerate(self._coeffs)][1:]
        )

    def compose_affine(self, a, b) -> "RationalPolynomial":
        """p(a*x + b), exact."""
        a, b = Fraction(a), Fraction(b)
        out = RationalPolynomial([])
        lin = RationalPolynomial([b, a])
        power = RationalPolynomial([1])
        for c in self._coeffs:
            out = out + power * c
            power = power * lin
        return out

    def __call__(self, x):
        """Horner evaluation; exact for Fraction x, rounded for mpf/mpc."""
        if isinstance(x, (Fraction, int)):
            acc = Fraction(0)
            for c in reversed(self._coeffs):
                acc = acc * x + c
            return acc
        acc = mp.mpf(0)
        for c in reversed(self._coeffs):
            acc = acc * x + mp.mpf(c.numerator) / c.denominator
        return acc

    def coeff_abs_sum(self) -> Fraction:
        return sum((abs(c) for c in self._coeffs), Fraction(0))

    def __repr__(self):
        return f"RationalPolynomial({list(self._coeffs)!r})"


@lru_cache(maxsize=4096)
def bernoulli_number(j: int) -> Fraction:
    """Exact B_j with the B_1 = -1/2 convention (so B_j = B_j(0)), from
    sum_{i<=j} C(j+1, i) B_i = 0, the B_i read in increasing i."""
    if j < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if j == 0 or j > 1 and j % 2:
        return Fraction(int(j == 0))
    return -sum(math.comb(j + 1, i) * bernoulli_number(i) for i in range(j)) / (j + 1)


@lru_cache(maxsize=4096)
def _bernoulli_rows(N: int) -> tuple:
    """(b, L), B_N(x) = sum_t b_t x^t / L: L the lcm of the denominators of
    B_0..B_N and b_t = C(N, t) B_{N-t} L, integers."""
    if N < 0:
        raise ValueError("Bernoulli index must be >= 0")
    numbers = [bernoulli_number(j) for j in range(N + 1)]
    L = math.lcm(*(b.denominator for b in numbers))
    return tuple(math.comb(N, t) * b.numerator * (L // b.denominator)
                 for t, b in enumerate(reversed(numbers))), L


@lru_cache(maxsize=4096)
def bernoulli_polynomial(j: int) -> RationalPolynomial:
    """B_j(x), the polynomial with int_x^(x+1) B_j = x^j, off its row."""
    row, L = _bernoulli_rows(j)
    return RationalPolynomial([Fraction(b, L) for b in row])


def bernoulli_sup_bound(j: int) -> Fraction:
    """An upper bound for max |B_j(x)| on [0, 1]: 1/(j + 1) for j < 2, else
    the Fourier bound 2 zeta(j) j!/(2 pi)^j with pi > 3.1415926 and
    zeta(j) <= 1 + 2^-j + int_2^inf x^-j dx = 1 + 2^-j (j + 1)/(j - 1)."""
    if j < 2:
        return Fraction(1, len(_bernoulli_rows(j)[0]))
    two_pi = Fraction(62831852, 10 ** 7)
    return 2 * (1 + Fraction(j + 1, (j - 1) << j)) * math.factorial(j) / two_pi ** j


@lru_cache(maxsize=4096)
def power_sum(k: int, d: int) -> int:
    """S_k(d) = 0^d + 1^d + ... + (k-1)^d with the 0^0 = 1 convention."""
    if d == 0:
        return k
    return sum(j ** d for j in range(1, k))


@lru_cache(maxsize=4096)
def _euler_rows(k: int, n: int) -> tuple:
    """(e, D), E_{k,n}(x) = sum_i e_i x^i / D, from B_N's row (b, L), N = n + 1:
    e_i = sum_{t>i} b_t k^(N-t) C(t, i), D = L N; k >= 2 and n >= 0."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < 0:
        raise ValueError("polynomial index must be >= 0")
    (b, L), N = _bernoulli_rows(n + 1), n + 1
    return tuple(sum(b[t] * k ** (N - t) * math.comb(t, i) for t in range(i + 1, N + 1))
                 for i in range(N)), L * N


@lru_cache(maxsize=4096)
def gen_euler_polynomial(k: int, n: int) -> RationalPolynomial:
    """E_{k,n}(x) = k^(n+1)/(n+1) (B_{n+1}((x+1)/k) - B_{n+1}(x/k)), off its row."""
    row, D = _euler_rows(k, n)
    return RationalPolynomial([Fraction(e, D) for e in row])


@lru_cache(maxsize=4096)
def gen_euler_at_zero(k: int, n: int) -> Fraction:
    """E_{k,n}(0), the row's constant entry."""
    row, D = _euler_rows(k, n)
    return Fraction(row[0], D)


@lru_cache(maxsize=4096)
def gen_euler_at_one(k: int, n: int) -> Fraction:
    """E_{k,n}(1), the row's sum."""
    row, D = _euler_rows(k, n)
    return Fraction(sum(row), D)


@lru_cache(maxsize=4096)
def sup_bound(k: int, n: int) -> Fraction:
    """An upper bound for max |E_{k,n}(x)| on [0, 1]: its row's absolute sum
    over D or, as (x + 1)/k and x/k lie in [0, 1], 2 k^(n+1)/(n+1)
    sup|B_{n+1}|."""
    row, D = _euler_rows(k, n)
    return min(Fraction(sum(map(abs, row)), D),
               2 * Fraction(k ** (n + 1), n + 1) * bernoulli_sup_bound(n + 1))


def _require_primitive(k: int, zeta: RotationNumber):
    if k < 2 or zeta.order != k:
        raise ValueError(f"{zeta} is not a primitive {k}-th root of unity")


def inner_product(k: int, zeta: RotationNumber, i: int, j: int):
    """<v_{i,j}, w_{i,j}> = sum_{a=i..j} zeta^(i+j-a) * (a/k - 1).

    The weight vector w is real, so no conjugation question arises; the
    expansion is evaluated verbatim.
    """
    if not 1 <= i <= j <= k - 1:
        raise ValueError(f"need 1 <= i <= j <= k-1, got i={i}, j={j}, k={k}")
    _require_primitive(k, zeta)
    powers = zeta.power_values()
    total = mp.mpc(0)
    for a in range(i, j + 1):
        w = Fraction(a, k) - 1
        total += powers[(i + j - a) % k] * w.numerator / w.denominator
    return total

