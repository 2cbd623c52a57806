"""Evaluation of multiple polylogarithms at and beyond absolute convergence.

The nested series  sum_{n_1 > ... > n_r > 0}  prod_i z_i^{n_i} n_i^{-s_i}
is handled four ways:

* ``brute_partial_sum(z, s, N, M=None)`` -- exact truncated sums t_N and
  tails t_{M,N} (roots of unity z_i, complex exponents) from the one kernel
  ``summation.nested_sums``;
* ``eval_convergent``    -- limit inside the conditional-convergence domain
  U_r(z): at depth <= 2, t_N at one cutoff less the operator series of each
  tail (generalised Euler-Boole), cutoff and orders fixed by derived bounds;
  at depth >= 3 and at z_2 = s_2 = 1, period averaging and Richardson
  extrapolation on the tail exponents z and s fix, across a ladder read off
  one resumed kernel pass;
* ``eval_integer_point`` -- regularised evaluation at integer points of
  V_r(z) through the asymptotic-expansion driver;
* ``verify_translation`` -- numerical check of the translation identities
  that tie a tail at shifted arguments to a Pochhammer-weighted series of
  tails, every tail of the series read off the terms of one kernel pass and
  the series cut where a derived bound puts what it drops below tol/100;
  like the operator series, on Python integers, every bound rounded up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import mpmath as mp

from .asymptotics import DepthSpec, depth_expansion, fmt_real
from .errors import DomainError, NonConvergenceError
from .rootsofunity import (RotationNumber, ZVector, _coords, _domain_flags,
                           index_set_and_count, rotation_product)
from mpmath.libmp import from_man_exp, round_ceiling, to_fixed

from .summation import (NestedPass, _char_pair, _coefficient_bounds, _fixed_exponent,
                        _geometric_list, _mantissas, _power_float, _remainder_factor,
                        _rounding_slack, _scaled_mpc, _shift, nested_sums, resolve_tol)

__all__ = [
    "EvalReport",
    "TranslationReport",
    "pochhammer",
    "brute_partial_sum",
    "eval_convergent",
    "eval_integer_point",
    "stieltjes_constant",
    "verify_translation",
]

DEFAULT_EVAL_TOL = "1e-12"
DEFAULT_CUTOFF_CEILING = 10**7
CONVERGENT_START = 64  # first cutoff of the convergent route (the ladder's, rounded up)


def pochhammer(s, count: int):
    """Rising product s (s+1) ... (s+count-1), count >= 1."""
    if count < 1:
        raise ValueError("count must be >= 1")
    s = mp.mpc(s)
    acc = mp.mpc(1)
    for i in range(count):
        acc *= s + i
    return acc


@dataclass
class EvalReport:
    value: object
    abs_error_estimate: object
    method: str
    domain_flags: dict
    diagnostics: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        value = mp.mpc(self.value)
        return {
            "value": {"re": fmt_real(value.real), "im": fmt_real(value.imag)},
            "abs_error_estimate": fmt_real(self.abs_error_estimate),
            "method": self.method,
            "domain_flags": dict(self.domain_flags),
            "diagnostics": {k: (v if isinstance(v, (int, str, bool)) else fmt_real(v))
                            for k, v in self.diagnostics.items()},
        }


@dataclass
class TranslationReport:
    residual: object
    lhs: object
    rhs: object
    terms_used: int


def _nested_sums(z, s, cutoffs, state=None) -> dict:
    """{N: t_N} for roots of unity z and complex exponents s, one forward
    pass, resumed from ``state`` (a ``summation.NestedPass``) when one is
    given; the shape of (z, s) and the weights are checked before it."""
    svals = _coords(s)
    r = len(z)
    if len(svals) != r:
        raise DomainError(f"point has {len(svals)} coordinates, z has depth {r}")
    return nested_sums(z, svals, (0,) * r, cutoffs, state)


def brute_partial_sum(z, s, N: int, M: int = None):
    """t_N of the nested sum with weights z and exponents s, or the tail
    t_{M,N} = t_M - t_N when M > N is given; t_0 = t_1 = 0."""
    if N < 0:
        raise ValueError("cutoff must be >= 0")
    if M is not None and M <= N:
        raise ValueError("need M > N for a tail")
    N = max(N, 1)
    if M is None:
        return _nested_sums(z, s, (N,))[N]
    sums = _nested_sums(z, s, (N, M))
    return sums[M] - sums[N]


def _oscillation_period(z: ZVector) -> int:
    """lcm of the orders of the z_i: averaging t_N over this many consecutive
    cutoffs cancels every oscillatory character of the expansion."""
    return math.lcm(*(zi.order for zi in z))


def _tail_exponents(z: ZVector, s, count: int) -> list:
    """The first ``count`` exponents e of the N^-e terms of a period-averaged
    t_N on period multiples, by real part and with multiplicity.  Chain i
    (levels i, ..., 1) starts at S_i - Q_i(z), S_i = s_1 + ... + s_i, plus one
    when the average cancels its character z_1...z_i != 1, and steps by
    integers; a repeated exponent removes the log term where two chains meet.
    Inside U_r(z), a subset of V_r(z), every Re e > 0."""
    coords = _coords(s)
    bases = [sum(coords[:i]) - index_set_and_count(z, i)[1]
             + (0 if rotation_product(z, 1, i).is_one() else 1)
             for i in range(1, z.r + 1)]
    return sorted((b + k for b in bases for k in range(count)),
                  key=lambda e: e.real)[:count]


def eval_convergent(z: ZVector, s, tol=None, *,
                    ceiling=DEFAULT_CUTOFF_CEILING) -> EvalReport:
    """Evaluate inside U_r(z): at depth <= 2 by the operator series of the
    tails at one cutoff, at depth >= 3 by the doubling ladder (``_ladder``).

    At depth 1, f = x^-s has f^(j) = (-1)^j (s)_j x^(-s-j), and the identity
    of ``summation._nparts_at`` (Euler-Maclaurin at xi = 1) gives
    Li_s(xi) = t_N - xi^N h(N) - eps(N), h = [xi = 1] x^(1-s)/(1 - s) +
    sum_{j<=J} c_j f^(j), |eps(N)| <= K |(s)_(J+1)| N^(-Re s-J-1)
    (1 + N/(Re s + J)), as Re s > 0 on U_1(z).  N runs over
    ``CONVERGENT_START`` 2^i, each with the smallest J whose bound is
    <= tol/4 (``_series_order``); the bound falls while J <~ 2 pi |x| N, |x|
    the distance of xi's rotation number to the nearest integer.  So N and J
    are fixed before any term is summed, an N past the ceiling raises
    NonConvergenceError naming it, and t_N comes from one kernel pass to N;
    the tolerance (``summation.resolve_tol``, default ``DEFAULT_EVAL_TOL``)
    and a ceiling below ``CONVERGENT_START`` are checked before that.

    The estimate is the bound plus the rounding charge 2^(2-prec) (1 + M),
    M = |t_N| + |N^(1-s)/(1 - s)| + sum_j (|c_j| + e_j) |(s)_j| N^(-Re s-j)
    rounded up, e_j = 3 (2 pi |x|)^-(j+1) (0 at xi = 1): t_N errs by
    2^-(prec+8) in the kernel and 2^-prec |t_N| in its rounding, xi^N h(N)
    on integers by < 2^-prec |h(N)| + 2^-(prec+14) M (``_operator_series``)
    and t_N - xi^N h(N) by 2^-prec (|t_N| + |h(N)|): < 2^(1-prec) (1 + M).

    At depth 2 (``_series_plan``), with T(xi, sigma) = sum_{n>=N} xi^n
    n^-sigma = -xi^N h_sigma(N) - eps_sigma(N), the inner sum S2(n) =
    sum_{m<n} z2^m m^-s2 is C2 + z2^n h2(n) + eps2(n) for n >= N,
    |eps2(n)| <= B2(n), the bound above at (z2, s2, J2 >= 1, n), as
    Re s2 + J2 > 0.  Summing z1^n n^-s1 S2(n) over n >= N gives

        Li = t_N + C2 T(z1, s1) + [z2 = 1]/(1 - s2) T(z1, s1 + s2 - 1)
             + sum_{j<=J2} c_j(z2) (-1)^j (s2)_j T(z1 z2, s1 + s2 + j) + E,

    C2 = S2(N) - z2^N h2(N) - eps2(N), S2(N) level 1 of the pass, and
    |E| <= sum_{n>=N} n^-Re s1 B2(n) <= N^-Re s1 (1 + N/(Re(s1+s2) + J2 - 1))
    B2(N), first term plus integral.  Each tail converges on U_2(z)
    (Re s1 > [z1 = 1], Re(s1+s2) > [z2 = 1] + [z1 z2 = 1]).  With W_k >=
    |coefficient k| + its error (1 + |S2(N)| + M2 for C2, M2 the mass of
    h2), b_k and M_k the bound and mass of tail k, the estimate is
    B2(N) (|T(z1, s1)| + b_1 + E's factor) + sum_k W_k b_k plus
    2^(2-prec) (1 + |t_N| + 2 sum_k W_k M_k): t_N errs as at depth 1, each
    coefficient by 2^(1-prec) W_k (C2 with S2(N)'s kernel and rounding
    errors) and each tail by 2^(1-prec) M_k, so each product by
    < 2^(2-prec) W_k M_k, and the final sum by
    2^-prec (|t_N| + sum_k W_k M_k).  z2 = 1 with s2 = 1 (log n in the
    inner sum) and depth >= 3 stay on the ladder.
    """
    flags = _domain_flags(z, s)
    if not flags["Urz"]:
        raise DomainError(f"point {_coords(s)} is outside U_r(z) for z = {z}")
    tol, s = resolve_tol(tol, DEFAULT_EVAL_TOL), _coords(s)
    if z.r > 2 or z.r == 2 and z[1].is_one() and s[1] == 1:
        return _ladder(z, s, tol, ceiling)
    if ceiling < CONVERGENT_START:
        raise ValueError(f"ceiling {ceiling} is below the first cutoff {CONVERGENT_START}")
    N = CONVERGENT_START
    while (found := _series_plan(z, s, N, tol)) is None:
        N *= 2
    if N > ceiling:
        raise NonConvergenceError(f"the operator series reaches {mp.nstr(tol, 5)} "
                                  f"at cutoff {N}, past the ceiling {ceiling}")
    kernel, prec = NestedPass(N), mp.mp.prec
    t_N = _nested_sums(z, s, (N,), kernel)[N]
    J, bound, tail2, mass2, far, tails = found
    S2 = kernel.suffix_sum(N, 1) if z.r == 2 else None
    with mp.workprec(prec + 12 + J.bit_length()):
        rest, mass = 0, abs(t_N)
        for w, weight, xi, sigma, (order, b) in tails:
            tail, m, _ = _operator_series(xi, sigma, N, order, prec)
            if w is None:  # T(z1, s1): C2 is known now, and eps2(N) T(z1, s1) joins E
                w, weight = S2 - tail2, 1 + abs(S2) + mass2
                bound *= abs(tail) + b + far
            rest += w * tail
            bound += weight * b
            mass += z.r * weight * m  # depth 1's w = 1 is exact: only the tail errs
    return EvalReport(t_N - rest, bound + mp.mpf(2) ** (2 - prec) * (1 + mass), "convergent",
                      flags, {"cutoff": N, "order": J, "terms": kernel.terms})


def _dyadic(s) -> tuple:
    """(a, b, F), F >= 0, with s = (a + i b) 2^-F exactly."""
    [(a, b)], e = _mantissas([mp.mpc(s)])
    return a << max(e, 0), b << max(e, 0), max(-e, 0)


def _normal(x: int, y: int, e: int, Q: int, d: int = 1) -> tuple:
    """(x + i y) 2^e / d as (X + i Y) 2^E floored to Q bits, within sqrt 2 2^(1-Q)."""
    k = Q + d.bit_length() - max(abs(x), abs(y)).bit_length()
    return (_shift(x, k) // d, _shift(y, k) // d, e - k) if x or y else (0, 0, e)


def _up(x: int, y: int, G: int) -> int:
    """An integer >= (|x + i y| + 2) (1 + 2^-G)."""
    m = math.isqrt(x * x + y * y) + 1
    return m + (m >> G) + 2


def _series_order(xi: RotationNumber, s, N: int, tol, first: int = 0):
    """(J, bound), the smallest J >= first whose bound of ``eval_convergent``
    at N is <= tol/4, or None once it is no smaller than the two before it;
    needs Re s + first > 0.  On integers, the bound rounded up and tol/4
    down at 2^(prec+64-mag(tol)): |(s)_(J+1)| N^(-Re s-J-1) one product of
    prec + 32 bits rounded up per step, 1 + N/(Re s + J) an exact ratio."""
    (a, b, F), prec = _dyadic(s), mp.mp.prec
    Q, Z = prec + 32, prec + 64 - mp.mag(tol)
    x, _, e = _power_float(N, _fixed_exponent(mp.mpf(s.real), Q, N))
    g, e = _normal(-x - (x >> Q + 7) - 1, 0, e, Q)[::2]  # -N^-Re s, less its 2^-(Q+8)
    limit, last = to_fixed(mp.mpf(tol)._mpf_, Z) >> 2, (math.inf, math.inf)
    for J in itertools.count():
        c = a + (J << F)
        g, e = _normal(g * (math.isqrt(c * c + b * b << 2 * Q) + 1), 0, e - F - Q, Q, N)[::2]
        if J >= first:
            _, man, exp, _ = _remainder_factor(xi, J, prec)._mpf_
            bound = -(_shift(man * g * (c + (N << F)), exp + e + Z) // c)
            if bound <= limit:
                return J, mp.make_mpf(from_man_exp(bound, -Z, prec, round_ceiling))
            if bound >= max(last):
                return None
            last = (last[1], bound)


def _operator_series(xi: RotationNumber, s, N: int, J: int, prec: int,
                     weights: bool = False):
    """(xi^N h(N), M, [(c_j (-1)^j (s)_j, (|c_j| + e_j) |(s)_j|)]) of
    ``eval_convergent``'s depth-1 identity at order J: sum_{n>=N} xi^n n^-s
    is -xi^N h(N) within its bound, and M = |N^(1-s)/(1 - s)| +
    sum_j (|c_j| + e_j) |(s)_j| N^(-Re s-j) is the mass of its rounding;
    the list, the weights of depth 2's tails, is empty unless ``weights``.

    On integers: t_j = (-1)^j (s)_j N^(-s-j) and p_j = (-1)^j (s)_j, of
    Q = prec + 24 + bit_length(J) bits (``_normal``), step from N^-s and 1
    by -(s + j)/N and -(s + j), s exact, within (j + 2) 2^(1.5-Q); c_j
    within 2^-(prec+16) e_j (``_coefficient_bounds``).  h(N) sums floored
    products at 2^H, 2^-H < 2^(2-Q) M, and xi^N h(N) (``_char_pair``) is
    exact until rounded once: within 2^-prec |h(N)| + 2^-(prec+14) M.  M
    and the weights are upper bounds rounded up, each c_j p_j exact until
    rounded."""
    Q, a, b, F = prec + 24 + J.bit_length(), *_dyadic(s)
    _, _, (ea, eb), _ = _geometric_list(xi, prec)
    t, p = _normal(*_power_float(N, _fixed_exponent(s, Q, N)), Q), (1 << Q, 0, -Q)
    (x, y, e), c, H = t, (1 << F) - a, -t[2]  # N^(1-s)/(1 - s) = t_0 N 2^F/(c - i b)
    h = [_shift(v * N, e + F + H) // (c * c + b * b) if xi.is_one() else 0
         for v in (x * c - y * b, x * b + y * c)]
    mass, coeffs, ea_j, den = _up(*h, prec + 20), [], 3 * ea, eb
    for j, (u, v, S, A) in enumerate(_coefficient_bounds(xi, J, prec)):
        # (|c_j| + e_j) 2^S <= num/den, e_j <= 3 (a'/b')^(j+1) = ea_j/den
        num, (x, y, e), (px, py, pe) = A * den + (ea_j << S), t, p
        h[0] += _shift(u * x - v * y, e - S + H)
        h[1] += _shift(u * y + v * x, e - S + H)
        mass -= _shift(-num * _up(x, y, prec + 20), e - S + H) // den
        c = a + (j << F)
        t = _normal(-(x * c - y * b), -(x * b + y * c), e - F, Q, N)
        if weights:
            W = -(-num * _up(px, py, prec + 20) // den)
            coeffs.append((_scaled_mpc(u * px - v * py, u * py + v * px, S - pe, prec),
                           mp.make_mpf(from_man_exp(W, pe - S, prec, round_ceiling))))
            p = _normal(-(px * c - py * b), -(px * b + py * c), pe - F, Q)
        ea_j, den = ea_j * ea, den * eb
    cx, cy = _char_pair(xi ** N, Q)
    return (_scaled_mpc(h[0] * cx - h[1] * cy, h[0] * cy + h[1] * cx, H + Q, prec),
            mp.make_mpf(from_man_exp(mass, -H, prec, round_ceiling)), coeffs)


def _series_plan(z: ZVector, s, N: int, tol):
    """At cutoff N: None, or (J, B, z2^N h2(N), M2, E's factor, and per tail
    (coefficient, W, xi, sigma, (J, b))), every order from ``_series_order``
    before any term is summed.  Depth 1 is the one tail (1, 1, z1, s1), b <=
    tol/4, B = 0.  At depth 2, J = J2, B = B2(N), and B2(N) times bounds of
    |T(z1, s1)| (its series at J = 1: M + b) and of E's factor takes tol/8,
    the tails' W b share the other tol/8; C2's W takes |S2(N)| <=
    N^max(0, 1-Re s2) (1 + log N) here, and C2 itself is None."""
    if z.r == 1:
        found = _series_order(z[0], s[0], N, tol)
        return found and (found[0], 0, 0, 0, 0, [(1, 1, z[0], s[0], found)])
    (z1, z2), (s1, s2), prec = z, s, mp.mp.prec
    head = mp.mpf(N) ** -s1.real
    lead = (_operator_series(z1, s1, N, 1, prec)[1] + head * (1 + N / (s1 + s2).real)
            + _remainder_factor(z1, 1, prec) * abs(s1 * (s1 + 1)) * head / N ** 2
            * (1 + N / (s1.real + 1)))
    inner = _series_order(z2, s2, N, tol / (2 * lead), max(1, 1 + math.floor(-s2.real)))
    if inner is None:
        return None
    J2, B2 = inner
    tail2, mass2, coeffs = _operator_series(z2, s2, N, J2, prec, weights=True)
    tails = [(None, 1 + N ** max(0, 1 - s2.real) * (1 + mp.log(N)) + mass2, z1, s1)]
    if z2.is_one():
        tails.append((1 / (1 - s2), 1 / abs(1 - s2), z1, s1 + s2 - 1))
    tails += [(w, W, z1 * z2, s1 + s2 + j) for j, (w, W) in enumerate(coeffs) if w]
    orders = [_series_order(xi, sigma, N, tol / (2 * len(tails) * weight))
              for _, weight, xi, sigma in tails]
    if None in orders:
        return None
    far = head * (1 + N / ((s1 + s2).real + J2 - 1))
    return J2, B2, tail2, mass2, far, [t + (o,) for t, o in zip(tails, orders)]


def _ladder(z: ZVector, s, tol, ceiling) -> EvalReport:
    """The convergent value at depth >= 3 and at z2 = 1, s2 = 1 (and the
    reference of the tests at depth <= 2): t_N averaged over one oscillation
    period and Richardson-extrapolated, with the exponents of
    ``_tail_exponents``, across period multiples from ``CONVERGENT_START`` up
    (off them xi^N-phased terms stay), doubling until two increments pass
    tol/2.  One resumed kernel pass gives
    every rung (``diagnostics["terms"]``); a ceiling below the first rung
    raises ValueError before it starts."""
    period = _oscillation_period(z)
    n = -(-CONVERGENT_START // period) * period
    if ceiling < n:
        raise ValueError(f"ceiling {ceiling} is below the first rung {n}")

    weights = [mp.power(2, e)
               for e in _tail_exponents(z, s, (ceiling // n).bit_length())]
    row = []  # last row of the Richardson table, one column per exponent
    values = []
    kernel = NestedPass(ceiling + period)
    small_streak = 0
    while n <= ceiling:
        window = _nested_sums(z, s, range(n, n + period), kernel)
        # column j+1 removes the N^-e_j term of column j across one doubling
        prev, row = row, [sum(window.values()) / period]
        for w, t in zip(weights, prev):
            row.append((w * row[-1] - t) / (w - 1))
        values.append(row[-1])
        if len(values) >= 2:
            increment = abs(values[-1] - values[-2])
            small_streak = small_streak + 1 if increment < tol / 2 else 0
            if small_streak >= 2:
                # the ladder cannot see rounding common to its rungs; the
                # kernel's sums carry it up to the last cutoff reached
                estimate = 4 * increment + _rounding_slack(kernel.n, [values[-1]])
                return EvalReport(values[-1], estimate, "convergent", _domain_flags(z, s),
                                  {"cutoff": n, "rungs": len(values),
                                   "period": period, "terms": kernel.terms})
        n *= 2
    raise NonConvergenceError(
        f"accelerated partial sums did not settle below {mp.nstr(tol, 5)} "
        f"up to cutoff {n // 2}")


def eval_integer_point(z: ZVector, a, A: int = 6, tol=None) -> EvalReport:
    """Regularised evaluation at an integer point of V_r(z); by the depth
    driver this equals the limit of the partial sums there."""
    flags = _domain_flags(z, a)
    spec = DepthSpec(z, a, (0,) * len(a))
    if not flags["Vrz"]:
        raise DomainError(f"integer point {tuple(a)} is outside V_r(z) for z = {z}")
    expansion = depth_expansion(spec, A, tol=tol)
    value = expansion.regularised_value()
    return EvalReport(value, expansion.residual_bound, "regularised", flags,
                      {"precision": A, "order": int(expansion.order()),
                       "expansion_terms": len(expansion)})


def stieltjes_constant(z: ZVector, a, kvec, A: int = 6, tol=None):
    """Regularised value of the log-weighted nested series at an integer
    point a (convergence not required)."""
    spec = DepthSpec(z, a, kvec)
    return depth_expansion(spec, A, tol=tol).regularised_value()


def _delta(entry: RotationNumber) -> int:
    """delta_i = 1 iff z_i != 1, exactly."""
    return 0 if entry.is_one() else 1


def verify_translation(z, s, M: int, N: int, tol=None) -> TranslationReport:
    """Residual of the translation identity at (z, s) with cutoffs M > N >= 2.

    Depth 1 uses the plain identity in s_1; higher depth uses the combined
    form with the shift delta_1.  One kernel pass at (shift, s_2, ...), read
    at every cutoff N..M, gives all of it: the terms w(n) = t_{n+1} - t_n,
    the tail at shift + k T_k = sum_{N<=n<M} w(n) n^-k, the (z_1 - 1) tail
    sum w(n) n, and with g(n) = z_1^(n+1) n^(1-shift) and S_2 its level 1
    (1 at depth 1) the heads g(N-1) S_2(N) - g(M-1) S_2(M-1) and the merged
    tail z_1 sum_{N<=n<M-1} (z_1 z_2)^n n^(1-shift-s_2) S_3(n) = sum g(n)
    (S_2(n+1) - S_2(n)), by parts sum_{N<=n<M} (g(n-1) - g(n)) S_2(n).

    On the pass's integers at 2^P (z_1^(n+1) off its root table, n^-shift
    off ``NestedPass.power``), the left side is one exact sum at 2^(3P)
    rounded once.  By parts the errors B_1 u of S_2 (level 1's bound, N M_0
    B_1 < B, B u the pass's at its precision prec', ``_guard_bits``) move it
    by < 2M B u and those of g by < B u, so at depth >= 2 the pass runs at
    prec' = prec + bit_length(2M + 1) and the sum errs by < 2^-(prec+8).
    The series
    sum_k (shift - 1)_(k+1)/(k+1)! T_k floors the terms, E bits up, over n
    per step (< 1/(1 - 1/N) units 2^-(P+E) per part); its coefficients are
    Gaussian integers at 2^C, C = P + E + 8, stepped from the exact shift -
    1 = (a + i b) 2^-F with one floor per part, the j-th within sqrt 2
    (j + 1) 2^(E-C), so rhs, their exact sum with the T_k rounded once,
    moves by < sqrt 2 W 2^(E-C) sum_j (j + 1) N^-j <= 6 W 2^-(P+8).

    The series stops at the first k with rho = max(1, (a + k + 2)/(k + 3))/N
    < 1 and W b_(k+1) N^-(k+1)/(1 - rho) below tol/100, where W = sum
    |w(n)|, a = |shift - 1| and b_k = (a)_(k+1)/(k+1)!.  Since |T_j| <= W
    N^-j, |(shift - 1)_(j+1)| <= (a)_(j+1) and b_(j+1)/b_j <= rho N for j >
    k, that bounds every term it drops; rho tends to 1/N, so the loop ends,
    and a residual below tol proves the identity to within tol + tol/100.
    The rule runs on integers rounded up, against tol/100 rounded down.
    E = max(0, mag(max_(j<=k) b_j)), so a coefficient's growth (b_k reaches
    2^80 at s_1 = 20, N = 2) does not magnify the floors of its T_k past
    2^-P.  The weights (roots of unity, else TypeError through ``ZVector``),
    the shape of (z, s), then the tolerance (``summation.resolve_tol``,
    default ``DEFAULT_EVAL_TOL``), then the cutoffs are checked before any
    pass.
    """
    entries = list(ZVector(z))
    svals = [mp.mpc(c) for c in _coords(s)]
    r = len(entries)
    if len(svals) != r:
        raise DomainError("z and s must have equal length")
    tol = resolve_tol(tol, DEFAULT_EVAL_TOL)
    if not M > N >= 2:
        raise ValueError("need M > N >= 2")

    shift = svals[0] + (_delta(entries[0]) if r > 1 else 0)
    with mp.workprec(mp.mp.prec + ((2 * M + 1).bit_length() if r > 1 else 0)):
        kernel = NestedPass(M)
        _nested_sums(entries, [shift] + svals[1:], range(N, M + 1), kernel)
    (cos, sin), q, P = kernel.root, entries[0].order, kernel.P
    g = [_times((cos[(n + 1) % q] * n, sin[(n + 1) % q] * n), kernel.power(n))
         for n in range(N - 1, M)]
    lx = ly = 0
    for n, (x0, y0), (x1, y1) in zip(range(N, M), g, g[1:]):
        x, y = _times((x0 - x1, y0 - y1), kernel.raw_sum(n, 1)[:2] if r > 1 else (1 << P, 0))
        lx, ly = lx + x, ly + y
    # w(n) n^-k, k = 0: the exact differences of the pass's sums
    raw = [kernel.raw_sum(n) for n in range(N, M + 1)]
    terms = [(x1 - x0, y1 - y0) for (x0, y0, _), (x1, y1, _) in zip(raw, raw[1:])]
    wn = [sum(n * w[i] for n, w in enumerate(terms, N)) for i in (0, 1)]  # sum w(n) n
    x, y = _times((cos[1 % q] - (1 << P), sin[1 % q]), wn)
    lhs = _scaled_mpc(lx + (x << P), ly + (y << P), 3 * P)

    Z, (a, b, F) = mp.mp.prec + 64, _dyadic(shift - 1)
    G, limit = F + Z, to_fixed(tol._mpf_, Z) // 100
    a_up = math.isqrt(a * a + b * b << 2 * Z) + 1  # |shift - 1| 2^G, up
    W = sum(math.isqrt(x * x + y * y) + 1 for x, y in terms)  # sum |w(n)| 2^P, up
    dropped = -(_shift(-W * a_up * (a_up + (1 << G)), Z - P - 2 * G) // (2 * N))
    k, b_k = 0, -_shift(-a_up, Z - G)
    b_max = b_k
    while True:
        num, den = max(k + 3 << G, a_up + (k + 2 << G)), N * (k + 3) << G  # rho = num/den
        if num < den and dropped * den < limit * (den - num):
            break
        k += 1
        b_k = -(-b_k * (a_up + (k << G)) // (k + 1 << G))
        b_max = max(b_max, b_k)
        dropped = -(-dropped * (a_up + (k + 1 << G)) // ((k + 2) * N << G))
    E = max(0, b_max.bit_length() - Z)
    C, terms = P + E + 8, [(x << E, y << E) for x, y in terms]
    cx, cy = _shift(a, C - F), _shift(b, C - F)  # (shift - 1)_(j+1)/(j+1)! at 2^C
    rx = ry = 0
    for j in range(k + 1):
        if j:
            c = a + (j << F)
            cx, cy = ((cx * c - cy * b) // (j + 1 << F), (cx * b + cy * c) // (j + 1 << F))
            terms = [(x // n, y // n) for n, (x, y) in enumerate(terms, N)]
        x, y = _times((cx, cy), (sum(x for x, _ in terms), sum(y for _, y in terms)))
        rx, ry = rx + x, ry + y
    rhs = _scaled_mpc(rx, ry, C + P + E)
    return TranslationReport(residual=abs(lhs - rhs), lhs=lhs, rhs=rhs,
                             terms_used=k + 1)


def _times(u: tuple, v: tuple) -> tuple:
    """The product of two Gaussian integers."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]

