"""Summation engines and single-term partial-sum expansions.

Two finite-cutoff engines reproduce sums over scale functions exactly:

* ``euler_maclaurin``   for  sum_{a<n} f(a),
* ``gen_euler_boole``   for  sum_{a<n} zeta^a f(a),  zeta a primitive k-th
  root of unity,

with the remainder integral in closed form.  For k >= 3 the quasi-periodic
polynomial jumps at the integers, so integration by parts picks up
correction sums proportional to zeta E_{k,j}(1) - E_{k,j}(0), which
vanishes identically at k = 2 (the classical alternating formula).  Every
block (the remainder, the corrections, the integral F(n) - F(1), the
derivative boundaries, and the twisted engine's head and step blocks, which
read f itself at 1..k-1 and n..n+k-2) comes from one pass of exact integer
moment sums (``_moment_blocks``), f's complex coefficients entering only at
the end, as exact products with them, and each block is rounded once; the
remainder still comes from f^(m)'s antiderivatives, never from f's values,
and the engines read f only through ``terms()``.  Every block's rounding is
bounded (``_round_block``, ``_breakdown``), and the bound is the rounding
part of the engines' ``remainder_estimate``; the part past n is
int_n^inf |f^(m)| bounded on integers and rounded up (``_beyond``).

``term_sum_expansion`` returns the ``AsymptoticExpansion`` of
sum_{a<n} xi^a (log a)^l a^(-m), with symbolic n-dependent coefficients
from one series for every xi: the antiderivative when xi = 1 plus
h = sum_{j<=J} c_j f^(j), c_j the Taylor coefficients of 1/(xi e^t - 1)
less its pole (from their recurrence on scaled Python integers, O(J^2) once
per (xi, prec)), J = max(1, A + 2 - m), and the f^(j) of f = (log x)^l
x^-m read off one memoised table of exact integer derivative rows that
every xi and precision share, so a term costs O(J l) integer products
whatever the order of xi; the remainder is K (|f^(J+1)|(n) + int_n^inf
|f^(J+1)|), K = [xi = 1]/(J + 2)! + sum_j |c_j| / (J - j + 1)! memoised per
(xi, J, prec), once the absolute terms of f^(J+1) decrease on [n, inf).
The n-parts and this bound are ``Scaled`` sums, Gaussian integers at one
scale 2^V (``_nparts_at``): each part c_j d_{j,i} is floored once from
the scaled pairs of the c_j within a bound derived there, and each tail
coefficient is rounded up.  They are read at a cutoff on integers
(``_read``, each log power's terms one Horner sum in 1/n floored once;
``_read_chars``) through the kernel's log code.  The constant, its
regularised value, is matched against exact partial sums at a cutoff pair
(N, 2N), within its ``residual_bound``, on integers at 2^(3W)
(``run_matching``: the pass's raw sums, the unrounded reads, a squared
drift test, one mpc and one mpf rounded per match).

``nested_sums`` is the package's one partial-sum kernel: every exact
truncated nested sum t_N (the matching oracle of every level of the depth
driver, the convergent route and the translation checks) comes out of its
single forward pass, which also keeps the suffix sum of every level at each
requested cutoff.  It runs, for every input, on Python integers scaled by
2^P, P = prec + g, with the guard g taken from an a-priori bound on the
accumulated truncations (``pass_scale``), as list arithmetic over blocks of
at most ``BLOCK_CAP`` n, with the outer level summed in q residue classes
of n, q the order of the root z_1.  Every z_j is a root of unity, read off
a power table of fixed-point products of one value of xi; log n comes from
one table per P on integers (a prime's entry that of p - 1 plus one atanh
series, a composite's the exact sum of two stored ones), integral exponents
from exact division or multiplication, and non-integral ones from a table
of n^-s built multiplicatively: a prime is exp(-s log p) in integer fixed point
(Brent & Zimmermann, "Modern Computer Arithmetic", ch. 4), a composite one
fixed-point product of stored values, and past ``SIEVE_CAP`` stored values a
term divides out primes until its cofactor is stored.  For every input
each t_N errs by at most 2^-(prec+8) before its final rounding, made only
when t_N is read.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from collections import UserDict, defaultdict
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, floordiv, mul, rshift, sub
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import (from_int, from_man_exp, from_rational, ln2_fixed, log_int_fixed,
                          mpf_cos_sin_pi, mpf_div, mpf_log, pi_fixed, round_ceiling,
                          round_nearest, to_fixed)
from mpmath.libmp.libelefun import cos_sin_fixed, exp_basecase

from . import eulerpoly
from .errors import PrecisionError
from .rootsofunity import ONE, RotationNumber, ZVector
from .scalefun import ScaleFunction

__all__ = [
    "SummationBreakdown",
    "euler_maclaurin",
    "gen_euler_boole",
    "term_sum_expansion",
    "nested_sums",
    "NestedPass",
    "DEFAULT_MATCH_TOL",
]

DEFAULT_MATCH_TOL = "1e-25"


def _mpq(q: Fraction, rnd=round_nearest):
    """q correctly rounded (to nearest, or as ``rnd`` says) to the working
    precision."""
    return mp.make_mpf(from_rational(q.numerator, q.denominator, mp.mp.prec, rnd))


@dataclass
class SummationBreakdown:
    """An engine evaluation: the total, its labelled blocks, and an a-priori
    bound on the remainder mass beyond the cutoff plus the derived bound on
    the rounding of the blocks and the total."""

    total: object
    boundary_terms: list
    remainder_estimate: object


# ---------------------------------------------------------------------------
# finite-cutoff engines
# ---------------------------------------------------------------------------


def _rounding_slack(n, magnitudes):
    amp = mp.mpf(1)
    for v in magnitudes:
        amp += abs(v)
    return mp.mpf(2) ** (10 - mp.mp.prec) * n * amp


def _breakdown(f, k, zeta, n, m, factor):
    """An engine's blocks (``_moment_blocks``), their total, and as its
    remainder estimate factor int_n^inf |f^(m)| (``_beyond``, the remainder
    past n), the blocks' bounds and 2^-prec len(blocks) sum |blocks|."""
    moments = _moment_blocks(f, k, zeta, n, m)
    blocks = [v for _, v, _ in moments]
    charge = mp.ldexp(len(blocks) * sum(abs(v.real) + abs(v.imag) for v in blocks),
                      -mp.mp.prec)
    return SummationBreakdown(
        total=sum(blocks, mp.mpc(0)), boundary_terms=[(name, v) for name, v, _ in moments],
        remainder_estimate=_beyond(f, m, n, factor) + sum(b for _, _, b in moments) + charge)


def _beyond(f, m, n, factor):
    """factor int_n^inf |f^(m)| rounded up, +inf if f^(m) decays no faster
    than 1/x: f^(m) off ``_derivative_rows`` on exact integers, each
    modulus rounded up at 2^V into ``_tail_integral``, read up at n."""
    mans, e0 = _mantissas([c for _, _, c in f.terms()])
    terms = defaultdict(lambda: [0, 0])
    for (l, mu, _), (x, y) in zip(f.terms(), mans):
        for i, r in enumerate(_derivative_rows(l, mu, m - 1)[m]):
            terms[i, mu + m][0] += x * r
            terms[i, mu + m][1] += y * r
    V, tail = mp.mp.prec + 64 + -mp.mp.prec % 64, defaultdict(int)
    k = e0 + V  # |x + i y| 2^k rounded up
    for (i, mu), (x, y) in terms.items():
        if (x or y) and mu <= 1:
            return mp.inf
        if x or y:
            up = math.isqrt(x * x + y * y << 2 * max(k, 0)) + 1
            _tail_integral(tail, i, mu, -_shift(-up, min(k, 0)))
    _, man, exp, _ = factor._mpf_
    return mp.make_mpf(from_man_exp(man * _read(tail, V, n, up=True)[0], exp - 2 * V,
                                    mp.mp.prec, round_ceiling))


def _mantissas(coeffs) -> tuple:
    """([(x, y)], e0): each mpc coefficient (x + i y) 2^e0, one e0 for all."""
    mans = [[(-man if sign else man, exp) for sign, man, exp, _ in c._mpc_] for c in coeffs]
    e0 = min([exp for parts in mans for man, exp in parts if man], default=0)
    return [tuple(man << exp - e0 if man else 0 for man, exp in parts) for parts in mans], e0


def euler_maclaurin(f: ScaleFunction, n: int, m: int) -> SummationBreakdown:
    """sum_{a=1}^{n-1} f(a) via the classical formula: the integral
    F(n) - F(1), F the antiderivative of f, the derivative boundary
    sum_{j<=m} B_j/j! (f^(j-1)(n) - f^(j-1)(1)) and the remainder
    (-1)^(m+1)/m! sum_{i<n} int_i^(i+1) B_m(x - i) f^(m)(x) dx, all three
    from one pass of moment sums (``_moment_blocks``)."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    return _breakdown(f, 1, ONE, n, m, _mpq(eulerpoly.bernoulli_sup_bound(m)
                                            / math.factorial(m), round_ceiling))


def gen_euler_boole(f: ScaleFunction, k: int, zeta: RotationNumber,
                    n: int, m: int) -> SummationBreakdown:
    """sum_{a=1}^{n-1} zeta^a f(a) from the twisted summation formula: the
    head block, the step blocks, the derivative boundary at orders < m, the
    step corrections (exactly 0 at k = 2) and the order-m remainder
    <v,w>/(m-1)! sum_i zeta^(i+1) int_i^(i+1) E_{k,m-1}(1 + i - x) f^(m)(x)
    dx, all from one pass of moment sums (``_moment_blocks``)."""
    eulerpoly._require_primitive(k, zeta)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if m < 1:
        raise ValueError("need m >= 1")
    # |<v_{1,k-1}, w>| = 1/|1 - zeta| = 1/(2 sin(pi x)), x the distance of the
    # rotation number to an integer: at 20 more bits, raised by 2^-(prec+10)
    prec, x = mp.mp.prec, min(zeta.fraction, 1 - zeta.fraction)
    with mp.workprec(prec + 20):
        vw = (1 + mp.ldexp(1, -prec - 10)) / (2 * mp.sinpi(mp.mpf(x.numerator) / x.denominator))
    sup = _mpq(eulerpoly.sup_bound(k, m - 1) / math.factorial(m - 1), round_ceiling)
    return _breakdown(f, k, zeta, n, m, mp.fmul(vw, sup, rounding="u"))


def _moment_blocks(f: ScaleFunction, k: int, zeta: RotationNumber, n: int, m: int) -> list:
    """[(name, value, bound)] of an engine's blocks from one pass of moment
    sums; k = 1, zeta = 1 is Euler-Maclaurin.

    The identity.  On [i, i+1), lo <= i < n (lo = max(1, k - 1)), the
    periodic factor is Q(a (x - t) + c): B_m(x - i) is B_m with a = 1 and
    (t, c) = (i+1, 1) or (i, 0), zeta^(i+1) E_{k,m-1}(1 + i - x) is E_{k,m-1}
    with a = -1 and (t, c) = (i+1, 0) or (i, 1).  With A_e the antiderivative
    of x^e f^(m), the unit integral is U(i+1) - V(i), U(t) = sum_e
    [x^e]Q(a (x - t) + c_U) A_e(t) and V alike, and t^q (log t)^i t^-nu is
    the basis value x_{i,nu-q}(t), so a term c (log x)^l x^-mu of f gives
    U = c sum_key u_key x_key / den, V alike, u, v exact integers
    (``_moment_weights``).  Summed over i, the remainder is sum_{lo<t<n}
    (zeta^t U(t) - zeta^(t+1) V(t)) + zeta^n U(n) - zeta^(lo+1) V(lo), times
    <v,w> = sum_p w_p zeta^p / k, w_p = -p, when k >= 2 (w = 1 at k = 1).
    The corrections are such a sum without end terms, u = -sum_{j<m}
    E_{k,j}(0) f^(j)/j!, v alike with E_{k,j}(1): at k = 2, E_{2,j}(1) =
    -E_{2,j}(0) makes v = -u, and the block cancels to exactly 0.  The end
    blocks are the end terms alone: on those weights the derivative boundary
    <v,w> sum_j (E_{k,j}(1) f^(j)(k-1) - zeta^n E_{k,j}(0) f^(j)(n))/j!, at
    k = 1 F(n) - F(1) (u = v = F) and sum_{j<=m} B_j/j! (f^(j-1)(n) -
    f^(j-1)(1)), exact at t = 1 as log 1 = 0.  The twisted engine's head
    and step blocks are k^-1 sum c zeta^p f(t) (``_end_weights``), so a term
    gives Y_p = sum c x_{l,mu}(t) on f's own key.  One pass over 1 <= t <=
    top = n + max(0, k - 2) gives per key X(t) = floor(x(t) 2^P) and the
    exact sums of X(t), lo < t < n, per residue class of t mod k, and a
    block is sum_terms c sum_p zeta^p Y_p / (den k 2^(2P)), Y_p integers
    (``_round_block``).  The remainder cancels by up to n^(deg+1), deg =
    deg Q, so P = prec + (deg + 1) bit_length(top) + 14 + L +
    bit_length(#keys), L the largest log power, rounded up to 64.

    The bound: with lb = bit_length(top) and u = 2^-P, (log t)^l errs by
    < 3l lb^(l-1) u (``_log_powers``), relatively by < 3l lb^(l-1) 1.45^l u
    for t >= 2 (log 1 = 0 is exact), and a floor of t^-nu, nu > 0, adds < 1 u,
    so the sums of a key over the N = top points, and any of its values, err
    by < E_key = 6l lb^l 2^l (sum X + N) u + N + 1 units u, 0 if X(t) = t^-nu
    2^P is exact (l = 0, nu <= 0).  The Y_p so err in all by < sum|w|
    sum_key (|u| + |v|) E_key, or by < sum|c| E_key for a head or step
    block, and the bound is ``_round_block``'s."""
    prec, lo, top = mp.mp.prec, max(1, k - 1), n + max(0, k - 2)
    ns, plans = range(1, top + 1), [(c, _moment_weights(l, mu, m, k)) for l, mu, c in f.terms()]
    keys = {key for _, blocks in plans for block in blocks for key in block[0]}
    ends = _end_weights(k, n) if k > 1 else []
    keys |= {(l, mu) for l, mu, _ in f.terms()} if ends else set()
    L, N, lb = max((l for l, _ in keys), default=0), len(ns), top.bit_length()
    P = prec + (m + (k == 1)) * lb + 14 + L + len(keys).bit_length()
    P += -P % 64
    lp = _log_powers(_logs(P, top) if L else (), P, L, ns)
    lp[0], moments = [1 << P] * N, {}
    for l, nu in keys:
        xs = _weigh(lp[l], [], 0, nu, None, lp, ns, P)[0]
        err = (6 * l * lb ** l * 2 ** l * (sum(xs) + N) >> P) + N + 1 if l or nu > 0 else 0
        moments[l, nu] = ([sum(xs[lo + (r - lo - 1) % k:n - 1:k]) for r in range(k)], xs, err)
    table, w = _fixed_power_table(zeta, P), [1] if k == 1 else [-p for p in range(k)]
    # f's coefficients as integers times 2^e0, one e0 for all, so that each
    # block sums unreduced numerators over one denominator
    mans, e0 = _mantissas([c for c, _ in plans])
    out = []
    for name, triples in ends:
        rows = []
        for l, mu, _ in f.terms():
            Y, (_, xs, key_err) = [0] * k, moments[l, mu]
            for (p, t), c in triples.items():
                Y[p] += c * xs[t - 1]
            rows.append((Y, sum(map(abs, triples.values())) * key_err, 1))
        out.append(_round_block(name, rows, mans, e0, 1, table, P))
    # (name, weight set, inner sums, end terms)
    spec = ([("integral", 2, False, True), ("derivative_boundary", 1, False, True)] if k == 1
            else [("derivative_boundary", 1, False, True), ("step_corrections", 1, True, False)])
    for name, b, inner, with_ends in spec + [("remainder_integral", 0, True, True)]:
        rows, den = [], math.lcm(*(blocks[b][3] for _, blocks in plans))
        for _, blocks in plans:
            Z, err = [0] * k, 0
            for key, u, v in zip(*blocks[b][:3]):
                sums, xs, key_err = moments[key]
                for r, s in enumerate(sums if inner else ()):
                    Z[r] += u * s
                    Z[(r + 1) % k] -= v * s
                if with_ends:
                    Z[n % k] += u * xs[n - 1]
                    Z[(lo + 1) % k] -= v * xs[lo - 1]
                err += (abs(u) + abs(v)) * key_err
            rows.append(([sum(w[q] * Z[p - q] for q in range(k)) for p in range(k)],
                         sum(map(abs, w)) * err, den // blocks[b][3]))
        out.append(_round_block(name, rows, mans, e0, den, table, P))
    return out


def _end_weights(k: int, n: int) -> list:
    """[(name, {(p, t): c})], k times each block sum c zeta^p f(t): the head
    (sum_{t<k} f(t) sum_{1<=p<=t} zeta^p + zeta^n sum_{t<k-1} f(n+t)
    sum_{t<p<k} zeta^p)/k, the lower steps sum_{i<k-1} <v_{1,i}, w_{1,i}>
    (f(i+1) - f(i)), the upper steps zeta^n sum_{1<i<k} <v_{i,k-1}, w_{i,k-1}>
    (f(n+i-1) - f(n+i-2)), with k <v_{i,j}, w_{i,j}> = sum_{a=i..j} (a - k)
    zeta^((i+j-a) mod k)."""
    head, lower, upper = defaultdict(int), defaultdict(int), defaultdict(int)
    for t in range(1, k):
        for p in range(1, t + 1):
            head[p, t] += 1
        for p in range(t, k):
            head[(p + n) % k, n + t - 1] += 1
    for block, steps in ((lower, [(1, i, i + 1, 0) for i in range(1, k - 1)]),
                         (upper, [(i, k - 1, n + i - 1, n) for i in range(2, k)])):
        for i, j, t, s in steps:
            for a in range(i, j + 1):
                block[(i + j - a + s) % k, t] += a - k
                block[(i + j - a + s) % k, t - 1] -= a - k
    return [("head", head), ("lower_steps", lower), ("upper_steps", upper)]


def _round_block(name, rows, mans, e0, den, table, P) -> tuple:
    """(name, value, bound) of sum_terms c sum_p zeta^p Y_p d / (den q
    2^(2P)), q the order of zeta, from a row (Y, err, d) per term, the Y_p
    integers erring by < err units 2^-P in all, c = (x + i y) 2^e0 from
    ``mans``: exact, each part rounded once by one division by den q
    (``_quotient``).  The zeta^p of ``table`` err by < 1.5 units, so the
    bound is 2^-prec (|Re| + |Im|) + sum_terms (|x| + |y|) 2^e0 (2 err 2^P +
    2 sum_p |Y_p|) d / (den q 2^(2P)), rounded up."""
    prec, re, im, bound, parts = mp.mp.prec, 0, 0, 0, list(zip(*table))
    for (Y, err, d), (cr, ci) in zip(rows, mans):
        yc, ys = (sum(map(mul, Y, part)) for part in parts)
        re, im = re + (cr * yc - ci * ys) * d, im + (cr * ys + ci * yc) * d
        bound += (abs(cr) + abs(ci)) * ((err << P + 1) + 2 * sum(map(abs, Y))) * d
    q, e = den * len(table), e0 - 2 * P
    value = [mp.make_mpf(_quotient(x, q, e, prec, round_nearest)) for x in (re, im)]
    return (name, mp.mpc(*value), mp.make_mpf(_quotient(abs(re) + abs(im) + (bound << prec),
                                                         q, e - prec, prec, round_ceiling)))


def _quotient(x: int, d: int, e: int, prec: int, rnd) -> tuple:
    """x 2^e / d, d > 0, rounded to prec bits as ``from_rational`` rounds it:
    one divmod to a quotient of at least prec + 2 bits, then a sticky bit,
    set when the remainder is not 0."""
    s = max(prec + 2 + d.bit_length() - abs(x).bit_length(), 0)
    q, r = divmod(abs(x) << s, d)
    return from_man_exp((q << 1 | bool(r)) * (-1 if x < 0 else 1), e - s - 1, prec, rnd)


def _antiderivative(l: int, row: tuple, s: int) -> tuple:
    """int x^(s-1) sum_{i<=l} row_i (log x)^i dx as ({key: integer}, den):
    int (log x)^i x^(s-1) dx is sum_{j<=i} (-1)^(i-j) i!/j! s^(l-i+j) (log
    x)^j x^s / s^(l+1), or (l+1)!/(i+1) (log x)^(i+1) / (l+1)! at s = 0."""
    anti = defaultdict(int)
    for i, r in enumerate(row):
        for j in range(i + 1) if s else ():
            anti[j, -s] += r * (-1) ** (i - j) * math.perm(i, i - j) * s ** (l - i + j)
        if not s:
            anti[i + 1, 0] += r * math.factorial(l + 1) // (i + 1)
    return anti, s ** (l + 1) if s else math.factorial(l + 1)


@lru_cache(maxsize=4096)
def _moment_weights(l: int, mu: int, m: int, k: int) -> tuple:
    """The weight sets (keys, u, v, den), integers, of ``_moment_blocks`` for
    f = (log x)^l x^-mu: the remainder's, from the antiderivatives of
    x^e f^(m); u = sum_j e0_j f^(j), v = sum_j e1_j f^(j) (``_engine_table``);
    at k = 1, u = v = F.  f^(j) is row j of ``_derivative_rows``."""
    rows, (shifted, ends, de, dc) = _derivative_rows(l, mu, m - 1), _engine_table(m, k)
    antis = [_antiderivative(l, rows[m], 1 - mu - m + e) for e in range(len(shifted[0]))]
    da = math.lcm(*(d for _, d in antis))
    blocks = [(defaultdict(int), defaultdict(int), d) for d in (dc * da, de)]
    for weights, table in zip(blocks[0], shifted):
        for (anti, d), row in zip(antis, table):
            for (j, nu), x in anti.items():
                for q, c in enumerate(row):
                    weights[j, nu - q] += c * x * (da // d)
    for j, e0, e1 in ends:
        for i, r in enumerate(rows[j]):
            blocks[1][0][i, mu + j] += e0 * r
            blocks[1][1][i, mu + j] += e1 * r
    if k == 1:
        anti, d = _antiderivative(l, rows[0], 1 - mu)
        blocks.append((anti, anti, d))
    out = []
    for u, v, den in blocks:
        keys = tuple(key for key in sorted(u.keys() | v.keys()) if u[key] or v[key])
        out.append((keys, tuple(u[key] for key in keys), tuple(v[key] for key in keys), den))
    return tuple(out)


@lru_cache(maxsize=4096)
def _engine_table(m: int, k: int) -> tuple:
    """(shifted, ends, de, dc): per c of U and V the x^e t^q coefficients of
    fac Q(a (x - t) + c), fac = (-1)^(m+1)/m! (k = 1) or 1/(m-1)!, as
    integers over dc; the end weights (j, e0_j, e1_j) of f^(j) over de:
    B_(j+1)/(j+1)! twice, j < m, at k = 1, -E_{k,j}(0)/j! and -E_{k,j}(1)/j!,
    1 <= j < m, at k >= 2 (e1 = -e0 at k = 2).  Q is B_m's or E_{k,m-1}'s
    integer row over den (``eulerpoly``), Q(x + c)_j = sum_{i>=j} C(i, j)
    c^(i-j) Q_i, all on integers; dc is the lcm of the reduced denominators."""
    (row, den), a, sign, fac, shifts = (
        (eulerpoly._bernoulli_rows(m), 1, (-1) ** (m + 1), math.factorial(m), (1, 0)) if k == 1
        else (eulerpoly._euler_rows(k, m - 1), -1, 1, math.factorial(m - 1), (0, 1)))
    den *= fac
    shifted = [[[sign * p * a ** (e + q) * math.comb(e + q, e) * (-1) ** q
                 for q, p in enumerate(coeffs[e:])] for e in range(len(coeffs))]
               for coeffs in ([sum(math.comb(i, j) * c ** (i - j) * row[i]
                                   for i in range(j, len(row))) for j in range(len(row))]
                              for c in shifts)]
    dc = math.lcm(*(den // math.gcd(x, den) for table in shifted for row in table for x in row))
    ends = ([(j, *[eulerpoly.bernoulli_number(j + 1) / math.factorial(j + 1)] * 2)
             for j in range(m)] if k == 1 else
            [(j, *(-Fraction(g(k, j)) / math.factorial(j)
                   for g in (eulerpoly.gen_euler_at_zero, eulerpoly.gen_euler_at_one)))
             for j in range(1, m)])
    de = math.lcm(*(x.denominator for _, *row in ends for x in row))
    return ([[[x * dc // den for x in row] for row in table] for table in shifted],
            tuple((j, int(e0 * de), int(e1 * de)) for j, e0, e1 in ends), de, dc)


# ---------------------------------------------------------------------------
# symbolic n-dependent parts of single-term partial sums
# ---------------------------------------------------------------------------
#
# _term_nparts(xi, l, m, A) returns (parts, tail), two ``Scaled`` sums in n,
# parts complete to decay A and tail(n) >= |eps(n)|, so that
#     sum_{a<n} xi^a (log a)^l a^(-m) = const + xi^n parts(n) + eps(n).


class Scaled(NamedTuple):
    """sum_{(l, m)} C_{l,m} 2^-W (log n)^l n^-m, each C a Gaussian integer
    (re, im) in the n-parts, an integer >= 0 in their tails."""

    terms: dict
    W: int


@lru_cache(maxsize=4096)
def _geometric_list(xi: RotationNumber, prec: int) -> tuple:
    """The memo of ``_coefficient_bounds``: c_0 = -1/2 - i cot(pi x)/2 at
    2^(prec+32) from one cos/sin at prec + 64 bits; r; (a, b), a/b >= 1/(2 pi
    |x|) (1/(2 pi) <= 16551/103993 within 2^-32; a = 0 at xi = 1); the list."""
    near, wp = min(xi.fraction, 1 - xi.fraction), prec + 64  # |x|
    if not near:
        return None, 3, (0, 1), []
    cot = mpf_div(*mpf_cos_sin_pi(from_rational(xi.numerator, xi.denominator, wp), wp), wp)
    return ((-1 << prec + 31, to_fixed(cot, prec + 31)),
            max(0, math.ceil(math.log2(2 * math.pi * near))),
            (16551 * near.denominator, 103993 * near.numerator), [])


def _coefficient_bounds(xi: RotationNumber, J: int, prec: int) -> list:
    """[(u_j, v_j, S_j, A_j)], j <= J: u_j + i v_j the pair of c_j 2^S_j,
    S_j = prec + 32 + r j, c_j the Taylor coefficients of G(t) = 1/(xi e^t -
    1) less its pole, and A_j >= |c_j| 2^S_j; one list per (xi, prec),
    extended as far as any call asks (no c_j depends on J).

    At xi = 1 the pole is 1/t and c_j = B_{j+1}/(j+1)!: the pairs are its
    floors and A_j = |u_j| + 1 (r = 3, |c_j| ~ 2 (2 pi)^-(j+1)).  Otherwise
    (xi e^t - 1) G(t) = 1 gives c_0 = 1/(xi - 1) and c_n = -xi/(xi - 1)
    sum_{i<n} c_i/(n - i)!, run on the pairs as d_n = -xi/(xi - 1)
    floor(sum_{i<n} d_i w_i / n!), w_i = n!/(n - i)! 2^(r (n-i)) exact, r =
    max(0, ceil(log2(2 pi |x|))), |x| <= 1/2 the distance of the rotation
    number x of xi to the nearest integer: the scale 2^(r n) keeps the
    relative bits of coefficients that decay (below).  At xi = e^(i theta),
    G(t) = (coth((t + i theta)/2) - 1)/2 with coth odd, so c_n (n >= 1) is
    real for odd n and imaginary for even n: each keeps only that part.

    The growth: 1/(xi e^t - 1) = sum_{a<k} xi^a e^(a t)/(e^(k t) - 1) gives
    c_j = k^j/(j+1)! sum_{a<k} xi^a B_{j+1}(a/k), and the Fourier series of
    B_n, sup_[0,1] |B_n| <= 2 zeta(n) n!/(2 pi)^n (n >= 2), gives |c_j| <=
    2 zeta(j+1) (k/2 pi)^(j+1) for j >= 1.  Sharper for xi != 1: G has poles
    of residue 1 at t_m = 2 pi i (m - x), so c_j = -sum_m t_m^-(j+1); two
    lie at >= 2 pi |x|, the rest in pairs at >= 4 pi k' |x|, so |c_j| <
    2 (1 + zeta(2)/4) (2 pi |x|)^-(j+1) < e_j = 3 (2 pi |x|)^-(j+1) <=
    3 (a/b)^(j+1), and |c_0| = 1/(2 sin(pi |x|)) < e_0.  The pairs err by
    < E_j = 2^-(prec+16) e_j 2^S_j (``TestGeometricCoeffs``; measured below
    2^-(prec+27) e_j), and A_j = isqrt(u_j^2 + v_j^2) + 1 + E_j rounded up.
    So the terms c_j f^(j)(N) of the n-parts, |f^(j)(N)| ~ j! N^-(m+j),
    decrease while j <~ 2 pi N/k: matching may start at MATCH_START = 250,
    where the default tol's J <= 19 keeps them decreasing for orders k <=
    80, and ``choose_cutoff`` moves a higher order to a larger N."""
    factor, r, (a, b), out = _geometric_list(xi, prec)
    for n in range(len(out), J + 1):
        if xi.is_one():
            c = eulerpoly.bernoulli_number(n + 1) / math.factorial(n + 1)
            u, v = (c.numerator << prec + 32 + 3 * n) // c.denominator, 0
        elif n == 0:
            u, v = factor[0], -factor[1]
        else:
            x, y, w = 0, 0, 1 << r * n
            for i, (p, q, _, _) in enumerate(out):
                x += p * w
                y += q * w
                w = (w >> r) * (n - i)
            fac = math.factorial(n)
            x, y = x // fac, y // fac
            u, v = (((x * factor[0] - y * factor[1]) >> prec + 32, 0) if n % 2
                    else (0, (x * factor[1] + y * factor[0]) >> prec + 32))
        E = -(-(3 * a ** (n + 1) << 16 + r * n) // b ** (n + 1))
        out.append((u, v, prec + 32 + r * n, math.isqrt(u * u + v * v) + 1 + E))
    return out[:J + 1]


def _term_nparts(xi: RotationNumber, l: int, m: int, a_max: int):
    """Cached dispatch; returns (parts, tail) as documented above."""
    return _nparts_at(xi, l, m, a_max, mp.mp.prec)


# every memo in the package is an lru_cache of this size, keyed on explicit
# arguments only; here it holds the 712 (xi, l, m, a_max, prec) keys that
# one process running two rounds (seed 101) of every reg-sweep and
# reg-high-order benchmark template reaches (872 hits), ``_derivative_rows``
# their 65 (l, m, J), ``_remainder_factor`` 500 (xi, J, prec),
# ``_geometric_list`` 70 (xi, prec) with 13-20 coefficient bounds each,
# ``_matching_order`` and ``_default_tol`` 2 each, ``_char_pair`` 66 (xi^n,
# W), ``_log_at`` 34 (n, W), ``_fixed_power_table`` 80 (xi, P) and
# ``_log_table`` 4 P, each table of 1,001 or 2,001 entries (a table stops at
# SIEVE_CAP + 1), with room to spare; two rounds of ``direct`` (seed 5) reach 35
# (l, mu, m, k) of ``_moment_weights``, 14 (m, k) of ``_engine_table``, 9
# (k, n) of ``eulerpoly.sup_bound`` and, under these, 5 N of
# ``eulerpoly._bernoulli_rows`` and 17 (k, n) of ``eulerpoly._euler_rows``
@lru_cache(maxsize=4096)
def _nparts_at(xi: RotationNumber, l: int, m: int, a_max: int, prec: int):
    """n-dependent part of sum_{a<n} xi^a (log a)^l a^(-m), every xi, as
    ``Scaled`` sums at 2^V, V = prec + 64 rounded up to a multiple of 64.

    With f = (log x)^l x^(-m), F its antiderivative and
    h = [xi = 1] F + sum_{j<=J} c_j f^(j), c_j the Taylor coefficients of
    G(t) = 1/(xi e^t - 1) less its pole (``_coefficient_bounds``) and
    J = max(1, a_max + 2 - m), telescoping gives
    sum_{a<n} xi^a f(a) = C + xi^n h(n) + eps(n)  (the generalised
    Euler-Boole formula of Borwein, Calkin & Manna, "Euler-Boole summation
    revisited", Amer. Math. Monthly 116, 2009; at xi = 1 the pole 1/t of G
    is the antiderivative and this is Euler-Maclaurin).  All coefficients
    attach to the character xi: the terms of h with decay m' <= a_max are
    the parts, the others go to the tail pointwise.  The derivatives
    f^(j) = x^-(m+j) sum_i d_{j,i} (log x)^i are the exact integer rows of
    ``_derivative_rows``, shared by every xi and precision, so each term
    c_j d_{j,i} of h, the only one at its (i, m + j), is rounded once: it is
    (u_j d_{j,i}, v_j d_{j,i}) floored from 2^S_j to 2^V, (u_j, v_j) the
    pair of ``_coefficient_bounds``, within E_j |d_{j,i}| 2^(V - S_j) + 1
    units 2^-V in each part (F's exact terms within 1 unit).  The cost is
    O(J l) integer products whatever the order of xi, the c_j memoised once
    per (xi, prec) and K below once per (xi, J, prec) for every (l, m).

    The remainder is derived, not estimated.  Taylor's theorem on F(a + 1)
    to order J + 2 and on each f^(j)(a + 1), j <= J, with
    (xi e^t - 1) G(t) = 1 mod t^(J+1), gives

        |xi h(a+1) - h(a) - f(a)| <= K sup_[a,a+1] |f^(J+1)|,
        K = [xi = 1]/(J + 2)! + sum_j |c_j| / (J - j + 1)!,

    and eps(n) sums these defects over a >= n.  With P the sum of the
    absolute terms of f^(J+1) (row J + 1), |eps(n)| <= K (P(n) + int_n^inf P)
    as soon as every term (log x)^l' x^(-m') of P is decreasing on
    [n, inf), i.e. n >= e^(l'/m').  Since l' <= l and m' = m + J + 1, raising
    J until (m + J + 1) log(MATCH_START) >= l, that is m + J + 1 >= l/5.52
    at MATCH_START = 250, makes that hold at every matching cutoff.  The
    tail's coefficients are rounded up from upper bounds: A_j |d_{j,i}|
    2^-S_j for a term of h past a_max (|re| + 1 units for F's), and K
    (``_remainder_factor``) times the terms of P and of int_n^inf P, sum_{t<=i}
    i!/(i-t)! (log n)^(i-t) n^(1-mu)/(mu-1)^(t+1) per term (log x)^i x^-mu.
    """
    J = max(1, a_max + 2 - m, math.ceil(l / math.log(MATCH_START)) - m - 1)
    rows = _derivative_rows(l, m, J)
    V = prec + 64 + -prec % 64
    # (i, decay) -> (re, im) at 2^V, or a bound of |coefficient| past a_max
    parts, tail = {}, defaultdict(int)
    anti, den = _antiderivative(l, rows[0], 1 - m) if xi.is_one() else ({}, 1)
    for key, x in anti.items():
        x = (x << V) // den
        if x and key[1] <= a_max:
            parts[key] = (x, 0)
        elif x:
            tail[key] = abs(x) + 1
    for j, (u, v, S, A) in enumerate(_coefficient_bounds(xi, J, prec)):
        for i, d in enumerate(rows[j]) if u or v else ():
            if d and m + j <= a_max:  # floor(x 2^(V-S)) is (x << V) >> S
                parts[i, m + j] = ((u * d << V) >> S, (v * d << V) >> S)
            elif d:
                tail[i, m + j] = -((-A * abs(d) << V) >> S)
    _, man, exp, _ = _remainder_factor(xi, J, prec)._mpf_
    K, mu = -_shift(-man, exp + V), m + J + 1
    for i, d in enumerate(rows[J + 1]):
        # the pointwise term and the integral of the remainder bound
        tail[i, mu] += K * abs(d)
        if d:
            _tail_integral(tail, i, mu, K * abs(d))
    return Scaled(parts, V), Scaled({key: t for key, t in tail.items() if t}, V)


def _tail_integral(tail, i: int, mu: int, c: int):
    """Adds c int_n^inf (log x)^i x^-mu dx, mu > 1, to the integer terms
    ``tail``, each coefficient of its closed form rounded up."""
    fall = 1
    for t in range(i + 1):
        tail[i - t, mu - 1] -= -c * fall // (mu - 1) ** (t + 1)
        fall *= i - t


def _shift(x: int, s: int) -> int:
    """x 2^s, floored when s < 0."""
    return x << s if s >= 0 else x >> -s


@lru_cache(maxsize=4096)
def _derivative_rows(l: int, m: int, J: int) -> tuple:
    """Rows d_0..d_(J+1) of integers with f^(j) = x^-(m+j) sum_i d_{j,i}
    (log x)^i, i <= l, for f = (log x)^l x^-m, from
    d/dx (log x)^i x^-mu = (i (log x)^(i-1) - mu (log x)^i) x^-(mu+1)."""
    rows = [(0,) * l + (1,)]
    for mu in range(m, m + J + 1):
        row = rows[-1] + (0,)
        rows.append(tuple((i + 1) * row[i + 1] - mu * row[i] for i in range(l + 1)))
    return tuple(rows)


@lru_cache(maxsize=4096)
def _remainder_factor(xi: RotationNumber, J: int, prec: int):
    """K = [xi = 1]/(J + 2)! + sum_{j<=J} |c_j| / (J - j + 1)! of the
    remainder bound of ``_nparts_at``, rounded up at ``prec`` bits from the
    sum with |c_j| <= A_j 2^-S_j (``_coefficient_bounds``): an upper bound,
    above K by sum_j (A_j 2^-S_j - |c_j|)/(J - j + 1)! and the rounding, in
    all < 2^(1-prec) K for xi = 1 and roots of order <= 60, J <= 30
    (``TestRemainderFactor`` allows 2^(8-prec) K)."""
    bounds = _coefficient_bounds(xi, J, prec)
    top, fac = bounds[-1][2], math.factorial(J + 2)
    num = sum((A << top - S) * (fac // math.factorial(J - j + 1))
              for j, (_, _, S, A) in enumerate(bounds)) + (xi.is_one() << top)
    return mp.make_mpf(from_rational(num, fac << top, prec, round_ceiling))


def _read(terms: dict, W: int, n: int, up: bool = False) -> tuple:
    """sum C (log n)^l n^-m over the ``terms`` of a ``Scaled`` at 2^W, at
    an integer n >= 2, as integers (re, im) scaled by 2^(2W): log n as the
    kernel reads it (``_log_at``), each power one fixed-point product as in
    ``_log_powers``, so (log n)^l errs by < 3 l lb^(l-1) units 2^-W,
    lb = bit_length(n).  Per power l, S_l = sum_m C n^-m is Horner's sum in
    1/n carried out exactly, sum_m C n^(M-m) over n^M, M = max(0, max m),
    and floored once (as floored Horner steps would give, floor(floor(x/a)/b)
    = floor(x/(ab))), within 1 unit 2^-W, then times (log n)^l.  So the
    read errs by < 2^-W sum_l (lb^l + 3 l lb^(l-1) |S_l 2^-W|).  With
    ``up``, each C >= 0 is an integer, each S_l rounds up and (log n)^l is
    raised by 3 l lb^(l-1) + 1 units: an upper bound."""
    L, lb = max((l for l, _ in terms), default=0), n.bit_length()
    X, x = [1 << W], _log_at(n, W) if L else 0
    for _ in range(L):
        X.append(X[-1] * x >> W)
    M = max([0] + [m for _, m in terms])
    d, rows = n ** M, defaultdict(lambda: [0, 0])
    for (l, m), c in terms.items():
        u, v = (-c, 0) if up else c  # -S_l floored is S_l rounded up
        row, w = rows[l], n ** (M - m)
        row[0], row[1] = row[0] + u * w, row[1] + v * w
    re = im = 0
    for l, (x, y) in rows.items():
        X_l = X[l] + (3 * l * lb ** (l - 1) + 1 if up and l else 0)
        re, im = re + x // d * X_l, im + y // d * X_l
    return (-re, 0) if up else (re, im)


def _read_chars(parts: dict, W: int, n: int) -> tuple:
    """sum over characters xi of xi^n times ``_read`` of parts[xi] at n, as
    unrounded integers (re, im) scaled by 2^(3W): xi^n off ``_char_pair``
    at W, within 1 + 2^-16 units 2^-W in each part, the products and the
    sum exact.  So it errs by < 2^-W sum_xi (the bound of ``_read`` + 3
    |xi^n parts[xi](n)|)."""
    re = im = 0
    for xi, terms in parts.items():
        x, y = _read(terms, W, n)
        c, s = _char_pair(xi ** n, W)
        re, im = re + x * c - y * s, im + x * s + y * c
    return re, im


@lru_cache(maxsize=4096)
def _char_pair(xi: RotationNumber, W: int) -> tuple:
    """xi scaled by 2^W and floored, from its value at W + 20 bits: one
    pair per value xi^n read, so no table of all powers of a character of
    high order (the product of two roots) is ever built."""
    with mp.workprec(W + 20):
        return _fixed_pair(xi.value(), W)


@lru_cache(maxsize=4096)
def _log_at(n: int, W: int) -> int:
    """floor(log n 2^W) as the kernel's pass at 2^W reads it: its log table's
    entry shifted down, the same integer (``_log_sum``) when the table does
    not hold n, which grows no table; past ``SIEVE_CAP``, ``log_int_fixed``."""
    if n > SIEVE_CAP:
        return log_int_fixed(n, W)
    return _log_sum(n, _log_table(W), W + 64) >> 64


def _log_sum(n: int, logs: list, wp: int) -> int:
    """The entry of n in ``logs``, or the exact sum of the entries of its
    prime factors, each prime p past the end made as ``_logs`` makes it."""
    if n < len(logs):
        return logs[n]
    x, p = 0, 2
    while n > 1:
        while n % p:
            p = p + 1 if p * p <= n else n
        n //= p
        x += logs[p] if p < len(logs) else _log_sum(p - 1, logs, wp) + _log_step(p, wp)
    return x


def eval_nparts(parts: Scaled, xi: RotationNumber, n):
    """chi(n) * parts(n) at an integer cutoff n (``_read_chars``), rounded."""
    return _scaled_mpc(*_read_chars({xi: parts.terms}, parts.W, int(n)), 3 * parts.W)


def eval_tail(tail: Scaled, n):
    """An upper bound of tail(n) at an integer cutoff n, rounded up."""
    re, _ = _read(tail.terms, tail.W, int(n), up=True)
    return mp.make_mpf(from_man_exp(re, -2 * tail.W, mp.mp.prec, round_ceiling))


# ---------------------------------------------------------------------------
# exact nested partial sums: the one kernel
# ---------------------------------------------------------------------------


def _exponent(s):
    """An integral exponent as an int (exact powers n^-s), any other as mpc."""
    if isinstance(s, int):
        return s
    s = mp.mpc(s)
    if s.imag == 0 and s.real == int(s.real):
        return int(s.real)
    return s


def nested_sums(z, s, kvec, cutoffs, state=None) -> dict:
    """{N: sum_{N>n_1>...>n_r>0} prod z_j^{n_j} (log n_j)^{k_j} n_j^{-s_j}}.

    Each z_j is a RotationNumber, read off its exact power table (any other
    weight raises TypeError, through ``ZVector``); each s_j is an integer or
    complex.  One forward pass: level j (0-based) sums the last r - j factors
    over n > n_{j+1} > ... > n_r > 0, so level 0 gives t_n, and at n level j
    adds the weight w_j(n) = z_j^n (log n)^{k_j} n^{-s_j} times level j + 1
    as it stood before n; the innermost level sums its weights alone.  Cost
    O(max(cutoffs) * r).

    The pass runs on Python integers scaled by 2^P, P = prec + g rounded up
    to a multiple of 64 so that nearby cutoffs share the power tables, prec
    being the working precision and g from ``_guard_bits``.  It takes the n
    of a block [n0, n1) of at most ``BLOCK_CAP`` terms together, level by
    level from the innermost: each factor of the weights is a list over the
    block, each product of two lists one ``map``, each product of scaled
    values shifted right by P, and the running sums one ``accumulate`` from
    the sum before the block.  The factors:

    * z_j^n, a slice of the memoised integer cos/sin table of z_j
      (``_fixed_power_table``);
    * (log n)^k from the log table of P (``_logs``) up to ``SIEVE_CAP``,
      made on integers from itself (a prime p from p - 1), from
      ``log_int_fixed`` past it;
    * n^-a, a integral, by an exact division by n^a (a > 0) or an exact
      multiply by n^|a| (a <= 0);
    * n^-s, s not integral, from a table of scaled complex pairs kept on the
      pass state and grown block by block to the cutoff reached.  A prime's
      entry is exp(-s log p) in integer fixed point, floored once
      (``_power_entry``); a composite n = p m, p its smallest prime factor
      (``_split``), is one fixed-point product of stored entries, each
      stored as it is made.  The table stores at most
      ``SIEVE_CAP`` values; past them n splits into primes and a cofactor
      that is stored or, when no prime up to the cap splits it, computed
      like a prime.

    No level reads level 0, so with z_1 of order q, level 0 keeps q sums R_c
    instead, one per residue class c of n mod q, and adds each term without
    its z_1^n: level 1 before n times (log n)^k_1 n^-s_1 (at depth 1,
    (log n)^k_1 n^-s_1 alone).  A cutoff N reads
    t_N = sum_c z_1^c R_c(N), one floor per part, at a cost of O(q)
    products; a cutoff fewer than q terms past an earlier one of the same
    block adds those terms, each times its z_1^n, to that cutoff's unfloored
    sum instead, the same integers at four products per term, so a window
    of q consecutive cutoffs costs O(q), not O(q^2).

    Every level j >= 1 and every n^-s entry get the same bits as a pass one
    n at a time with the same floors (``oracles.fixed_point_pass`` in the
    tests).  Each requested t_N stays the raw sum at 2^P and becomes an mpc
    when read (``_Reads``); it errs by at most 2^-(prec+8) before that rounding,
    and a resumed pass gives the same bits as a one-shot pass.  Besides its
    tables a call holds one block's lists at a time, which ``BLOCK_CAP``
    bounds.

    A ``NestedPass`` as ``state`` resumes the pass where that state stands,
    so a ladder of calls on one state sums each term once; without one the
    pass runs one-shot from n = 1.  The state also keeps level j at each
    requested cutoff N, t_N of the suffix series (z_j.., s_j.., k_j..) within
    the same bound (``NestedPass.suffix_sum``).
    """
    z = ZVector(z).entries
    exps = [_exponent(s_j) for s_j in s]
    kvec = tuple(int(k) for k in kvec)
    cutoffs = sorted(set(int(N) for N in cutoffs))
    state = state or NestedPass(cutoffs[-1])
    state.check((z, tuple(exps), kvec), cutoffs)
    if state.P is None:
        state._start(z, exps, kvec)
    P = state.P
    top = cutoffs[-1]
    # per level: the order of z_j and the cos and sin of z_j^n, tiled to
    # cover any block of this call
    span = min(BLOCK_CAP, top - state.n)
    levels = []
    for zj in z:
        table = _fixed_power_table(zj, P)
        reps = span // zj.order + 2
        levels.append((zj.order, [c for c, _ in table] * reps, [s for _, s in table] * reps))
    kmax = max(kvec)
    logs = _logs(P, top) if kmax else ()
    n0 = state.n
    while n0 < top:
        n1 = min(top, n0 + BLOCK_CAP)
        lp = _log_powers(logs, P, kmax, range(n0, n1))
        marks = cutoffs[bisect_left(cutoffs, n0):bisect_left(cutoffs, n1)]
        _block(state, levels, kvec, exps, lp, range(n0, n1), marks)
        n0 = n1
    state._record(top, state.level_re, state.level_im)
    state.n, state.terms = top, state.terms + top - state.n
    return _Reads({N: (*state.raw_sum(N), state.prec) for N in cutoffs})


class _Reads(UserDict):
    """{N: t_N} of ``nested_sums``, raw (re, im, P, prec), rounded when read."""

    def __getitem__(self, N):
        return _scaled_mpc(*self.data[N])


def _block(state, levels, kvec, exps, lp, ns, marks):
    """Advances ``state`` over the n of the range ``ns``, recording every
    level at each cutoff in ``marks``, from the innermost level out; each
    level's list of sums before each n of the block and after its last is
    what the level outside it reads; level 0 goes to the residue sums.
    Every list holds integers at 2^P, each product floored as in the per-n
    pass (``_weigh``, ``_times``)."""
    P, L, n0 = state.P, len(ns), ns.start
    entries = _table_block(state, ns)
    sums = [None] * len(levels)
    inner = None
    for j in reversed(range(1, len(levels))):
        q, u, v = levels[j]
        C, S = u[n0 % q:n0 % q + L], v[n0 % q:n0 % q + L]
        C, S = _weigh(C, S, kvec[j], exps[j], entries[j], lp, ns, P)
        if inner is not None:
            C, S = _times(C, S, *inner, P)
        inner = (list(accumulate(C, initial=state.level_re[j])),
                 list(accumulate(S, initial=state.level_im[j])))
        state.level_re[j], state.level_im[j] = inner[0][-1], inner[1][-1]
        sums[j] = inner
    # level 0 per residue class of n mod q
    if inner is None:
        C, S = [1 << P] * L, [0] * L
    else:
        C, S = inner[0][:L], inner[1][:L]
    C, S = _weigh(C, S, kvec[0], exps[0], entries[0], lp, ns, P)
    q, cos, sin = levels[0]
    done, level0 = 0, None
    for i in [N - n0 for N in marks] + [L]:
        for part, R in zip((C, S), state.residues):
            for m in range(done, min(i, done + q)):
                R[(n0 + m) % q] += sum(part[m:i:q])
        if i == L:
            break
        if level0 is not None and i - done < q:
            # fewer than q terms since the last mark: add them to its exact
            # level 0 with their z_1^n, the same integers as a full read
            c, s = cos[n0 % q + done:n0 % q + i], sin[n0 % q + done:n0 % q + i]
            x, y = level0
            level0 = (x + sum(map(mul, c, C[done:i])) - sum(map(mul, s, S[done:i])),
                      y + sum(map(mul, s, C[done:i])) + sum(map(mul, c, S[done:i])))
        else:
            level0 = state._residue_sum()
        done = i
        state._record(n0 + i, [0] + [re[i] for re, _ in sums[1:]],
                      [0] + [im[i] for _, im in sums[1:]], level0)


def _log_powers(logs, P: int, kmax: int, ns: range) -> list:
    """[None, (log n)^1, ..., (log n)^kmax], each a list over the n of ``ns``
    scaled by 2^P and floored: log n off the table ``logs`` of P (``_logs``),
    ``log_int_fixed`` past it, and each power one fixed-point product.
    (log n)^k errs by < 3k lb^(k-1) u (``_guard_bits``)."""
    lp = [None]
    if kmax:
        lp.append(list(map(rshift, logs[ns.start:ns.stop], repeat(64)))
                  + [log_int_fixed(n, P) for n in range(max(ns.start, len(logs)), ns.stop)])
    for _ in range(1, kmax):
        lp.append(list(map(rshift, map(mul, lp[-1], lp[1]), repeat(P))))
    return lp


def _weigh(C, S, k, a, entries, lp, ns, P):
    """The block's lists C + i S times (log n)^k n^-a, each product floored
    as one term of the pass."""
    if k:
        C = list(map(rshift, map(mul, C, lp[k]), repeat(P)))
        S = list(map(rshift, map(mul, S, lp[k]), repeat(P)))
    if entries is not None:
        return _times(C, S, *entries, P)
    if a:
        d = ns if abs(a) == 1 else list(map(pow, ns, repeat(abs(a))))
        op = floordiv if a > 0 else mul
        C, S = list(map(op, C, d)), list(map(op, S, d))
    return C, S


def _times(C, S, X, Y, P):
    """(C + i S)(X + i Y) over two lists of scaled values, each part floored;
    the longer list is cut to the shorter."""
    return (list(map(rshift, map(sub, map(mul, C, X), map(mul, S, Y)), repeat(P))),
            list(map(rshift, map(add, map(mul, C, Y), map(mul, S, X)), repeat(P))))


def _table_block(state, ns) -> list:
    """Per level, the (re, im) lists of n^-s over the block ``ns`` when s is
    not integral, else None; below ``SIEVE_CAP`` each entry joins its table
    as it is made, so a later composite of the block finds its factors."""
    tables = state.tables
    if not any(tables):
        return tables
    P, cap = state.P, SIEVE_CAP
    stored = len(next(filter(None, tables))[1])
    factors = [_split(n) if n >= stored else None for n in ns]
    out = []
    for table in tables:
        if table is None:
            out.append(None)
            continue
        _, X, Y = table
        xs, ys = X[ns.start:ns.stop], Y[ns.start:ns.stop]
        for n, f in zip(ns, factors):
            if f is not None:
                x, y = _sieve_entry(table, f, P)
                if n <= cap:
                    X.append(x)
                    Y.append(y)
                xs.append(x)
                ys.append(y)
        out.append((xs, ys))
    return out


# the most n^-s values a pass stores per exponent, 120-208 bytes each at
# P = 192-512 (two list slots and two ints); a value past them is a
# product of stored ones and, for a cofactor none of them splits, one
# ``_power_entry`` recomputed at each multiple
SIEVE_CAP = 2 ** 14
# the most n a pass takes in one block: every list of a block holds one
# P-bit integer per n, 60-100 bytes at P = 192-512, and a block keeps two
# per level (the level sums it records) and a few more in flight (the
# factors of the level in hand, the logs and the n^-s entries)
BLOCK_CAP = 1024


@lru_cache(maxsize=4096)
def _log_table(P: int) -> list:
    """The memo of ``_logs``: [floor(log n 2^(P+64))] from n = 0 (a 0 there)."""
    return [0, 0]


def _logs(P: int, top: int) -> list:
    """``_log_table(P)`` extended in place to n = min(top, ``SIEVE_CAP``): a
    composite n = p m (``_split``) is the exact sum of the entries of p and
    m, a prime p that of p - 1 plus 2 atanh(1/(2p - 1)) (``_log_step``, low
    by < delta = 1 + 2^-5 units 2^-(P+64)).  An entry so sums one step per
    node of the tree of p - 1 factorisations (Pratt, SIAM J. Comput. 4,
    1975): steps(p) = 1 + steps(p - 1) and steps(ab) = steps(a) + steps(b)
    give steps(n) <= 2 log2 n - Omega(n) (p - 1 has two prime factors for
    p >= 5), so it errs by < (2 log2 n - 1) delta units."""
    logs = _log_table(P)
    for n in range(len(logs), min(top, SIEVE_CAP) + 1):
        f = _split(n)
        logs.append(logs[f[0]] + logs[f[1]] if len(f) > 1 else logs[n - 1] + _log_step(n, P + 64))
    return logs


def _log_step(p: int, wp: int) -> int:
    """log p - log(p - 1) = 2 atanh(1/m), m = 2p - 1, scaled by 2^wp: its
    series sum_j 2/((2j + 1) m^(2j+1)) at W = wp + g bits, g = bit_length(wp)
    + 5 ("Modern Computer Arithmetic", ch. 4), each power floored from the
    last within 9/8 units 2^-W and each term within 2, errs in its
    J <= (W + 1)/3 + 1 terms and tail by < 1.375 J + 2 < 2^(g-5) units."""
    g, m = wp.bit_length() + 5, 2 * p - 1
    x, k, total = (1 << wp + g + 1) // m, 1, 0
    while x:
        total += x // k
        x, k = x // (m * m), k + 2
    return total >> g


@lru_cache(maxsize=4096)
def _factor_table() -> tuple:
    """The memo of ``_split``: the smallest prime factor of every n <=
    ``SIEVE_CAP`` (n itself below 2 and for a prime), and the primes."""
    size = SIEVE_CAP + 1
    spf = array("i", range(size))
    for d in range(math.isqrt(SIEVE_CAP), 1, -1):  # the smallest divisor written last
        spf[d * d::d] = array("i", [d]) * len(range(d * d, size, d))
    return spf, [p for p in range(2, size) if spf[p] == p]


def _split(n: int) -> list:
    """n > 1 as factors of product n, all but the last primes <= the cap.  Up
    to ``SIEVE_CAP``: [p, n/p], p the smallest prime factor, or [n], off
    ``_factor_table``.  Past the cap, the smallest primes come out until the
    cofactor is <= cap or has no factor <= cap."""
    cap, (spf, primes) = SIEVE_CAP, _factor_table()
    if n <= cap:
        return [n] if spf[n] == n else [spf[n], n // spf[n]]
    m, out = n, []
    for p in primes:
        if p * p > m:
            break
        while m % p == 0:
            out.append(p)
            m //= p
            if m <= cap:
                return out + [m]
    return out + [m]


def _sieve_entry(table: tuple, factors: list, P: int) -> tuple:
    """n^-s scaled by 2^P, n the product of ``factors``: their stored or
    ``_power_entry`` values multiplied in fixed point, from the first on."""
    fixed, X, Y = table
    x = None
    for f in factors:
        u, v = (X[f], Y[f]) if f < len(X) else _power_entry(f, fixed, P)
        x, y = (u, v) if x is None else ((x * u - y * v) >> P, (x * v + y * u) >> P)
    return x, y


def _fixed_exponent(s, P: int, top: int) -> tuple:
    """(wp, -Re s, -Im s, ln 2, pi/2), the last four scaled by 2^wp and
    floored: what every n^-s entry of a pass to ``top`` shares."""
    wp = P + 13 + max(0, mp.mag(s)) + top.bit_length().bit_length()  # ``_guard_bits``
    return (wp, *_fixed_pair(-s, wp), ln2_fixed(wp), pi_fixed(wp - 1))


def _power_entry(f: int, fixed: tuple, P: int) -> tuple:
    """f^-s scaled by 2^P and floored, log f off the log table when f <=
    ``SIEVE_CAP`` and wp <= P + 58."""
    wp = fixed[0]
    x, y, e = _power_float(f, fixed, _logs(P, f)[f] >> P + 64 - wp
                           if f <= SIEVE_CAP and wp <= P + 58 else None)
    return _shift(x, P + e), _shift(y, P + e)


def _power_float(f: int, fixed: tuple, L: int = None) -> tuple:
    """f^-s = (x + i y) 2^e at the wp of ``fixed``: e^t (cos y', sin y') and
    2^n, -s log f = x' + iy', x' = n ln 2 + t, log f ``L`` at 2^wp or
    floored afresh; within 2^-(P+8), P that of ``fixed`` (``_guard_bits``)."""
    wp, re_s, im_s, ln2, pi2 = fixed
    if L is None:
        L = to_fixed(mpf_log(from_int(f), wp + f.bit_length()), wp)
    n, t = divmod((re_s * L) >> wp, ln2)
    c, s = cos_sin_fixed((im_s * L) >> wp, wp, pi2)
    e = exp_basecase(t, wp)
    return e * c, e * s, n - 2 * wp


class NestedPass:
    """One resumable ``nested_sums`` pass for one (z, s, k), at the working
    precision of its making, up to cutoff ``top``; it stands at t_n, has
    summed ``terms`` terms, keeps the n^-s tables of its non-integral
    exponents and, in ``hits``, the scaled running sums of every level at
    each cutoff any call asked for.  A cutoff below n or above top, another
    input or another precision raises ValueError.  The pass fixes P from
    ``_guard_bits`` at top, so its bound holds at every cutoff it can reach.
    """

    def __init__(self, top: int):
        self.top, self.prec = int(top), mp.mp.prec
        self.n, self.terms, self.key, self.hits = 1, 0, None, {}
        # set by ``_start`` on the first call: the fractional bits P; per
        # level j >= 1 its scaled sum (re, im); the q sums (re, im) of level 0
        # per residue class and the cos and sin of z_1^c, c < q, q the order
        # of z_1; per level the n^-s table of a non-integral exponent
        # (``_fixed_exponent``'s constants and the re and im lists, index n
        # from 1), else None
        self.P = self.level_re = self.level_im = None
        self.residues = self.root = self.tables = None

    def _start(self, z, exps, kvec):
        self.P = P = pass_scale(exps, kvec, self.top)
        r, q = len(z), z[0].order
        self.level_re, self.level_im = [0] * r, [0] * r
        self.residues = [0] * q, [0] * q
        table = _fixed_power_table(z[0], P)
        self.root = [c for c, _ in table], [s for _, s in table]
        self.tables = [None if isinstance(a, int) else
                       (_fixed_exponent(a, P, self.top), [0, 1 << P], [0, 0]) for a in exps]

    def _residue_sum(self) -> tuple:
        """sum_c z_1^c R_c, not yet shifted: level 0 of the residue sums as
        they stand, O(q) products."""
        (R, I), (cos, sin) = self.residues, self.root
        return (sum(map(mul, cos, R)) - sum(map(mul, sin, I)),
                sum(map(mul, sin, R)) + sum(map(mul, cos, I)))

    def _record(self, N: int, re: list, im: list, level0=None):
        """Keeps the sums of the levels j >= 1 in ``re`` and ``im`` at
        cutoff N, and as level 0 ``level0`` (or ``_residue_sum()``) >> P."""
        x, y = level0 or self._residue_sum()
        self.hits[N] = ([x >> self.P, *re[1:]], [y >> self.P, *im[1:]])

    def raw_sum(self, N: int, j: int = 0) -> tuple:
        """(re, im, P): t_N of the suffix series (z_j.., s_j.., k_j..) as the
        pass's integers re + i im scaled by 2^P, read off level j at a
        cutoff N some call asked for."""
        re, im = self.hits[N]
        return re[j], im[j], self.P

    def power(self, n: int, j: int = 0) -> tuple:
        """n^-s_j scaled by 2^P and floored: the table's entry (past them a
        product of stored ones), exact but for the floor at integral s_j."""
        a, table = self.key[1][j], self.tables[j]
        if table is None:
            return ((1 << self.P) // n ** a if a > 0 else n ** -a << self.P), 0
        return ((table[1][n], table[2][n]) if n < len(table[1])
                else _sieve_entry(table, _split(n), self.P))

    def suffix_sum(self, N: int, j: int = 0):
        """``raw_sum`` rounded to an mpc at the precision of the pass."""
        return _scaled_mpc(*self.raw_sum(N, j), self.prec)

    def check(self, key, cutoffs):
        self.key = self.key or key
        if (key, mp.mp.prec) != (self.key, self.prec) \
                or not self.n <= cutoffs[0] <= cutoffs[-1] <= self.top:
            raise ValueError(f"a pass standing at {self.n} of {self.top} at {self.prec} "
                             f"bits cannot go to {cutoffs[0]}..{cutoffs[-1]} at "
                             f"{mp.mp.prec} bits or on another input")


def pass_scale(exps, kvec, top: int) -> int:
    """The fractional bits P of a pass over (exps, kvec) to cutoff ``top``:
    prec + ``_guard_bits``, rounded up to a multiple of 64."""
    P = mp.mp.prec + _guard_bits(exps, kvec, top)
    return P + -P % 64


def _guard_bits(exps, kvec, top) -> int:
    """Guard bits g such that the fixed-point pass to cutoff N = top, run
    with P >= prec + g fractional bits, errs by at most 2^-(prec+8).

    Error accounting in units u = 2^-P (truncations are floors, < 1 u).
    With lb = bit_length(N) >= log n for every n < N, weight j is bounded by
    M_j = N^max(0, ceil(-Re s_j)) lb^k_j >= 1.  Its root-of-unity entries
    err by < 1 + 2^-18 u: xi at W = P + 20 + bit_length(q) bits errs by
    < 1 + 2^-10 units 2^-W in each part, each of the a < q products adds
    < 2 sqrt 2 units 2^-W more, and the floor to P adds < 1 u.  log n errs by
    < 1 + 2^-59 u (< 2 u from ``log_int_fixed`` past the log table): the
    entry by < (2 log2 n - 1)(1 + 2^-5) < 28 units 2^-(P+64) for
    n <= ``SIEVE_CAP`` (``_logs``), and the shift by 64 bits floors once
    more.  The power (log n)^k errs by < 3k lb^(k-1) u.  A
    non-integral n^-s_j is a product of Omega(n) <= log2 n < lb stored
    factors: each one errs by < 1 u in its floor and by 2^-8 |f^-s_j| u
    before it (below), each product of two errs by
    |x| err(y) + |y| err(x) + 2 u, so by induction on Omega(n) the table
    entry errs by < 3 lb n^max(0, -Re s_j) u <= 3 lb M_j u, and by 1 u more
    when it is multiplied in.  So the scaled weight errs by less than
    8 (1 + K) M_j u, K = max k_j, times lb when s_j is not integral.  The
    level sums obey |running[j]| <= N^(r-j) prod_{i>=j} M_i, and each step
    adds |w_j| times the error of running[j+1], the weight error times
    |running[j+1]|, and one truncation.  Over N steps and r levels, by
    induction from the innermost level, every t_N errs by less than

        B u,   B = (r + 1) (8K + 10) N^r lb^d prod_j M_j,

    d the number of non-integral exponents, the factor r + 1 (rather than r)
    absorbing the products of two errors; every M_i >= 1, so the running[j]
    that the induction reaches err less.

    Level 0 of a root z_1 of order q is summed per residue class instead:
    each term running[1] (log n)^k_1 n^-s_1 takes the floors of a weighted
    term without z_1^n's entry, so it errs by no more than the term of the
    per-n product, less that entry's error, and it is added exactly into one
    of the sums R_c.  A cutoff forms sum_c z_1^c R_c, one floor per part.
    The entries z_1^c err by < 1 + 2^-18 u in each part, so each part errs by
    < sqrt 2 (1 + 2^-18) sum_c |R_c| u + 1 u, and sum_c |R_c| is at most the
    sum of |running[1]| M_1 over n < N (running[1] = 1 at depth 1), so
    <= N^r prod_j M_j.  The per-n product
    charged each term the same entry error times |running[1]|, so the
    residue sums trade N terms' entry errors for one product's: B stands.

    g = bit_length(B) + 8 then gives B u <= 2^-(prec+8), 2^19 N times below
    the 2^(11-prec) N that ``run_matching`` charges for rounding at the
    cutoff pair (N, 2N).

    A factor f^-s_j (``_power_entry``) is computed at wp = P + g' bits,
    g' = 13 + max(0, mag(s_j)) + bit_length(lb).  Its log f is the log
    table's entry shifted down to wp when f <= ``SIEVE_CAP`` and
    wp <= P + 58, erring by < 1 + 28 2^-6 < 1.44 ulp (the entry by < 28
    units 2^-(P+64), above), else a fresh logarithm floored at wp,
    < 1.3 ulp.
    In ulps 2^-wp relative to
    |f^-s_j|, x + iy = -s_j log f errs by < 1.5 |s_j| + log f + 1 in each part
    (log f by < 1.5, s_j by < 1), the reductions by ln 2 and pi/2 add
    < 1.45 |s_j| log f + 1 and < 0.64 |s_j| log f + 1, and the base cases of
    exp and cos/sin < 32 each (17 at most, measured at wp <= 700): in all
    < 3 |s_j| + 2 log f + 2.09 |s_j| log f + 68 < 21 m b < 2^(g'-8), with
    m = 2^max(0, mag(s_j)) and b = 2^bit_length(lb) >= 4, b > 1.44 log f.
    """
    r = len(exps)
    lb = max(1, top.bit_length())
    bound = (r + 1) * (8 * max(kvec) + 10) * top ** r
    for a, k in zip(exps, kvec):
        bound *= top ** max(0, -a if isinstance(a, int) else int(mp.ceil(-mp.re(a)))) * lb ** k
        if not isinstance(a, int):
            bound *= lb
    return bound.bit_length() + 8


def _fixed_pair(w, P: int) -> tuple:
    """(re, im) of the mpc w, scaled by 2^P and floored."""
    return to_fixed(w.real._mpf_, P), to_fixed(w.imag._mpf_, P)


def _scaled_mpc(x: int, y: int, P: int, prec: int = 0):
    """The mpc (x + i y) 2^-P rounded to ``prec`` bits, by default to the
    working precision."""
    prec = prec or mp.mp.prec
    return mp.make_mpc((from_man_exp(x, -P, prec, round_nearest),
                        from_man_exp(y, -P, prec, round_nearest)))


@lru_cache(maxsize=4096)
def _fixed_power_table(xi: RotationNumber, P: int) -> tuple:
    """((cos, sin) of xi^a, scaled by 2^P and floored) for a < q: xi once at
    W = P + 20 + bit_length(q) bits, xi^a by fixed-point products at W, each
    floored to P (error bound in ``_guard_bits``)."""
    q = xi.order
    W = P + 20 + q.bit_length()
    with mp.workprec(W + 10):
        c, s = _fixed_pair(xi.value(), W)
    x, y, out = 1 << W, 0, []
    for _ in range(q):
        out.append((x >> W - P, y >> W - P))
        x, y = (x * c - y * s) >> W, (x * s + y * c) >> W
    return tuple(out)


def char_partial_sums(xi: RotationNumber, l: int, m: int, cutoffs, state=None):
    """{N: sum_{a<N} xi^a (log a)^l a^(-m)} for each requested cutoff."""
    return nested_sums((xi,), (m,), (l,), cutoffs, state)


# ---------------------------------------------------------------------------
# the public expansion operation
# ---------------------------------------------------------------------------

# the first and the largest first cutoff of constant matching; the ceiling
# fixes the guard bits of the depth driver's one pass, sized at 2 MATCH_CEILING
MATCH_START = 250
MATCH_CEILING = 2 ** 12 * MATCH_START


def _matching_ladder() -> list:
    """The cutoffs N at which ``run_matching`` can match at (N, 2N):
    MATCH_START 2^k up to MATCH_CEILING, read from the module at each call."""
    return [MATCH_START << k for k in range((MATCH_CEILING // MATCH_START).bit_length())]


def resolve_tol(tol, default):
    """The one reading of a tolerance, before any term is summed.

    The floor is 2^(20-prec): a tolerance cannot beat rounding.  No
    tolerance gives ``default`` (``DEFAULT_MATCH_TOL`` or
    ``polylog.DEFAULT_EVAL_TOL``) raised to the floor; a given one is taken
    verbatim, and raises ValueError if it is <= 0 and PrecisionError if it
    is below the floor.
    """
    if tol is None:
        return _default_tol(default, mp.mp.prec)
    floor, tol = mp.ldexp(1, 20 - mp.mp.prec), mp.mpf(tol)
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {mp.nstr(tol, 5)}")
    if tol < floor:
        raise PrecisionError(
            f"tolerance {mp.nstr(tol, 5)} is below the precision floor "
            f"2^{20 - mp.mp.prec} at {mp.mp.prec} bits")
    return tol


@lru_cache(maxsize=4096)
def _default_tol(default, prec: int):
    """``default`` at ``prec`` bits raised to the floor of ``resolve_tol``."""
    with mp.workprec(prec):
        return max(mp.mpf(default), mp.ldexp(1, 20 - prec))


def internal_precision(A: int, tol) -> int:
    """Expansion completeness needed so matching from N = MATCH_START
    reaches tol: the count of n^-(A+1) <= tol at N = MATCH_START plus 4
    (15 at tol = 1e-25), since the constant errs by about the remainder at
    2N and a character of order q gains only ~2 pi N/(q j) per order (at
    128 bits and tol = 1e-25, z = 1/19, a = 1 errs by 9.8e-34; with 2 in
    place of 4 by 1.2e-34, and z = 1/37 by 1.4e-30, the worst of 26 orders
    <= 127)."""
    return max(A, _matching_order(tol, mp.mp.prec))


@lru_cache(maxsize=4096)
def _matching_order(tol, prec: int) -> int:
    """The order ``internal_precision`` needs for tol, at ``prec`` bits."""
    with mp.workprec(prec):
        return int(mp.ceil(-mp.log(tol) / mp.log(MATCH_START))) + 4


def choose_cutoff(tail: Scaled, tol, prop_fn=None):
    """Matching cutoff: the smallest ladder point whose predicted residual
    (dropped-term tail plus the image of carried input uncertainty) clears
    tol/4, else the ladder point minimising that prediction; on integers in
    units 2^-3W, W = tail.W, the prediction rounded up and tol/4 down.

    The second clause matters for expansions with growing terms: carried
    uncertainty is amplified with the cutoff, so waiting for the decaying
    tail alone would ruin the matched constant.
    """
    W, best_n, best_score = tail.W, None, None
    limit = to_fixed(mp.mpf(tol)._mpf_, 3 * W) >> 2
    for n in _matching_ladder():
        score = (_read(tail.terms, W, n, up=True)[0] << W) + (prop_fn(n) if prop_fn else 0)
        if score <= limit:
            return n
        if best_score is None or score < best_score:
            best_n, best_score = n, score
    if prop_fn is None:
        raise PrecisionError(
            f"predicted matching residual stays above {mp.nstr(tol, 5)} "
            f"up to cutoff {MATCH_CEILING}")
    return best_n


def run_matching(sums_fn, approx_fn, tail: Scaled, tol_eff, prop_fn=None):
    """Extract a constant by matching an expansion against true partial sums.

    Starts at the cutoff suggested by the predicted residual bound and keeps
    doubling while the double-cutoff stability check fails; the allowance
    grows with ``prop_fn``, the image of any uncertainty already carried by
    the input coefficients.  Returns (constant, certified residual, cutoff).

    All on integers in units 2^-U, U = 3W, W = tail.W: t_N of ``sums_fn``
    as raw sums (re, im, P), P <= U (``NestedPass.raw_sum``), shifted
    exactly (a number is floored), the unrounded reads of ``approx_fn``
    (``_read_chars``) and ``prop_fn``'s integer bound.  So c(N) = t_N -
    approx(N) is exact, the drift test compares dx^2 + dy^2 with (10
    floor(tol 2^U) + 16 prop)^2, and the residual max(drift, tail(2N)) +
    prop + 2^(10-prec) 2N (1 + |t_2N| + |approx(2N)|) (the rounding charge,
    ``mass`` below) sums integers rounded up (isqrt + 1, ``_read`` up, a
    ceiling shift) into one mpf rounded up; the constant is c(2N) floored to
    2^W, exact.
    """
    W, prec, ladder = tail.W, mp.mp.prec, _matching_ladder()
    U, allow = 3 * W, 10 * to_fixed(mp.mpf(tol_eff)._mpf_, 3 * W)
    for n in ladder[ladder.index(choose_cutoff(tail, tol_eff, prop_fn=prop_fn)):]:
        sums = sums_fn((n, 2 * n))
        (x1, y1), (x2, y2) = (_fixed_pair(mp.mpc(t), U) if not isinstance(t, tuple)
                              else (_shift(t[0], U - t[2]), _shift(t[1], U - t[2]))
                              for t in (sums[n], sums[2 * n]))
        (a1, b1), (a2, b2) = approx_fn(n), approx_fn(2 * n)
        dx, dy = x1 - a1 - x2 + a2, y1 - b1 - y2 + b2
        prop = prop_fn(2 * n) if prop_fn is not None else 0
        if dx * dx + dy * dy <= (allow + 16 * prop) ** 2:
            # the drift cannot see rounding common to both cutoffs: the
            # 2N-term sum and the expansion each carry their own
            mass = (1 << U) + math.isqrt(x2 * x2 + y2 * y2) + math.isqrt(a2 * a2 + b2 * b2) + 2
            residual = (max(math.isqrt(dx * dx + dy * dy) + 1,
                            _read(tail.terms, W, 2 * n, up=True)[0] << W)
                        + prop - (-(2 * n * mass << 10) >> prec))
            return (mp.make_mpc((from_man_exp(x2 - a2 >> 2 * W, -W),
                                 from_man_exp(y2 - b2 >> 2 * W, -W))),
                    mp.make_mpf(from_man_exp(residual, -U, prec, round_ceiling)), n)
    drift = mp.make_mpf(from_man_exp(math.isqrt(dx * dx + dy * dy), -U, prec))
    raise PrecisionError(f"constant matching unstable: |c(N) - c(2N)| = "
                         f"{mp.nstr(drift, 5)} at N = {n}")


def term_sum_expansion(xi: RotationNumber, l: int, m: int, A: int, tol=None):
    """The ``AsymptoticExpansion`` of  v_n = sum_{a<n} xi^a (log a)^l a^(-m)
    to precision A.

    This is ``asymptotics.partial_sum`` on the monomial: the n-dependent
    coefficients and their remainder bound are symbolic (``_term_nparts``);
    the constant, its ``regularised_value()``, is matched numerically against
    exact partial sums at a cutoff pair (N, 2N) and certified, within its
    ``residual_bound``, by the double-cutoff stability check.
    """
    from .asymptotics import AsymptoticExpansion, partial_sum

    monomial = AsymptoticExpansion({xi: ScaleFunction.term(l, m)}, precision=max(A, m))
    return partial_sum(monomial, precision=A, tol=tol)
