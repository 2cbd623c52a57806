"""Evaluation of multiple polylogarithms at and beyond absolute convergence.

The nested series  sum_{n_1 > ... > n_r > 0}  prod_i z_i^{n_i} n_i^{-s_i}
is handled four ways:

* ``brute_partial_sum(z, s, N, M=None)`` -- exact truncated sums t_N and
  tails t_{M,N} (roots of unity z_i, complex exponents) from the one kernel
  ``summation.nested_sums``;
* ``eval_convergent``    -- limit inside the conditional-convergence domain
  U_r(z): t_N at one cutoff less the operator series (generalised
  Euler-Boole) of the depth-1 tails that every level of the nested sum
  leaves, at every depth, cutoff and orders fixed by derived bounds before
  one kernel pass;
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
from collections import defaultdict
from itertools import accumulate, repeat
from operator import mul
from dataclasses import dataclass, field

import mpmath as mp

from .asymptotics import DepthSpec, depth_expansion, fmt_real
from .errors import DomainError, NonConvergenceError
from .rootsofunity import ONE, RotationNumber, ZVector, _coords, _domain_flags
from mpmath.libmp import (from_int, from_man_exp, fzero, mpc_add, mpc_add_mpf, round_ceiling,
                          to_fixed)

from .summation import (NestedPass, _char_pair, _coefficient_bounds, _fixed_exponent,
                        _geometric_list, _log_at, _mantissas, _power_float, _remainder_factor,
                        _scaled_mpc, _shift, nested_sums, resolve_tol)

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
CONVERGENT_START = 64  # first cutoff of the convergent route; log N >= 4 from it on


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


def eval_convergent(z: ZVector, s, tol=None, *,
                    ceiling=DEFAULT_CUTOFF_CEILING) -> EvalReport:
    """Evaluate inside U_r(z): t_N at one cutoff N less the operator series
    of the tails of every level, N and every order fixed before one kernel
    pass to N (``_series_plan``).

    Level j of the pass (0-based) is S_j(n) = sum_{m<n} z_j^m m^-s_j
    S_{j+1}(m), S_r = 1, S_0 = t.  For n >= N each is written as monomials
    w xi^n (log n)^l n^-sigma, keyed on (xi, sigma, l) with sigma exact and
    their weights merged, the constant C_j at (1, 0, 0), plus eps_j(n).
    Summing z_j^m m^-s_j S_{j+1}(m) over N <= m < n makes each monomial of
    level j + 1 one depth-1 series of f = (log x)^l x^-sigma at (z_j xi, s_j
    + sigma): by the identity of ``summation._nparts_at`` (generalised
    Euler-Boole), sum_{m<n} xi^m f(m) = const + xi^n h(n) + eps(n), h =
    [xi = 1] F + sum_{i<=J} c_i f^(i), F the antiderivative ((log x)^(l+1)/
    (l+1) where sigma = 1 exactly, the one place a log power rises) and
    |eps(n)| <= b (N/n)^(Re sigma + J - l/4) (``_series_order``).  The
    monomials of the h (``_operator_series``) are level j's, and C_j is
    S_j(N) less them at N; so the value C_0 = t_N - sum_k w_k xi_k^N h_k(N)
    errs by |eps_0(N)| and what the weights carry (``_plan_at``), and on
    U_r(z) every monomial of level 0 decays.  The estimate is that bound
    plus 2^(2-prec) (1 + M_0), the rounding of level 0.  At depth 1 this is
    t_N - xi^N h(N), J the smallest order with b <= tol/4.

    Before any pass: the tolerance (``summation.resolve_tol``, default
    ``DEFAULT_EVAL_TOL``), a ceiling below ``CONVERGENT_START``, then N,
    ``CONVERGENT_START`` 2^i, the first with a plan; an N past the ceiling
    raises NonConvergenceError naming it.
    """
    flags = _domain_flags(z, s)
    if not flags["Urz"]:
        raise DomainError(f"point {_coords(s)} is outside U_r(z) for z = {z}")
    tol, s = resolve_tol(tol, DEFAULT_EVAL_TOL), _coords(s)
    if ceiling < CONVERGENT_START:
        raise ValueError(f"ceiling {ceiling} is below the first cutoff {CONVERGENT_START}")
    N = CONVERGENT_START
    while (plan := _series_plan(z, s, N, tol)) is None and N < 2 ** 40:  # the last one planned
        N *= 2
    if plan is None or N > ceiling:
        raise NonConvergenceError(f"the operator series reaches {mp.nstr(tol, 5)} " + (
            f"at cutoff {N}, past the ceiling {ceiling}" if plan else f"at no cutoff up to {N}"))
    (levels, bound, mass), kernel, prec = plan, NestedPass(N), mp.mp.prec
    sums = [_nested_sums(z, s, (N,), kernel)[N]] + [kernel.suffix_sum(N, j) for j in range(1, z.r)]
    order = max(J for series in levels for J, _, _ in series.values())
    with mp.workprec(prec + 12 + order.bit_length()):
        value, mass = _assemble(levels, sums, prec), abs(sums[0]) + mass
    return EvalReport(value, bound + mp.mpf(2) ** (2 - prec) * (1 + mass), "convergent", flags,
                      {"cutoff": N, "order": order, "terms": kernel.terms})


# the key (xi, sigma, l) of the constant of a level: xi = 1, sigma = 0 (as
# an exact mpc tuple), l = 0
CONSTANT = (ONE, (fzero, fzero), 0)


def _series_plan(z: ZVector, s, N: int, tol):
    """``_plan_at``'s (levels, B, M_0) at cutoff N with B <= tol/4, or None,
    after at most three targets tau: tol/4 at depth 1, tol/16 deeper; tol/4
    when an order is not found at a smaller one; tau tol/8 over B when B
    exceeds tol/4."""
    tau = tol / 4 ** min(z.r, 2)
    for _ in range(3):
        found = _plan_at(z, s, N, tau)
        if found and found[1] <= tol / 4 or found is None and tau >= tol / 4:
            return found
        tau = tau * tol / (8 * found[1]) if found else tol / 4


def _plan_at(z: ZVector, s, N: int, tau):
    """The series of ``eval_convergent``'s identity at cutoff N, level by
    level from the innermost, before any pass: (levels, B, M_0), each level
    {key: (J, xi^N h(N), [(key of a monomial of h, its weight)])}, B the bound
    of the value's error and M_0 = sum_k m_k M_k of level 0, or None when
    an order is not found.  J is the smallest order whose b times the
    magnitude m of the key's weight is <= tau.

    Each weight carries m >= |w| (sum m W, W >= |coefficient| of
    ``_operator_series``) and a radius rho >= its error (sum (rho +
    2^(2-prec) (m + rho)) W, the coefficients' rounding with it).  With
    |xi^N h(N)| <= M and |eps_j(n)| <= B_j (N/n)^mu_j, B_j = sum_k (m_k +
    rho_k) b_k + B_(j+1) N^-Re s_j (1 + N/nu), nu = Re s_j + mu_(j+1) - 1
    (first term plus integral of sum_{m>=n} m^-Re s_j eps_(j+1)(m)), mu_j
    the least Re sigma + J - l/4 and nu; C_j's radius is sum_k rho_k M_k +
    B_j + 2^(2-prec) (1 + M_j), M_j = |S_j(N)| + sum_k m_k M_k, with
    |S_j(N)| <= prod_{i>=j} N^max(0, 1-Re s_i) (1 + log N), and M_j bounds
    |C_j|: S_j(N) errs by 2^-(prec+8) + 2^-prec |S_j(N)|, each product by
    < 2^(1-prec) m_k M_k at the wider precision and C_j by its rounding.
    B = B_0 + sum_k rho_k M_k at level 0.  Each order needs Re sigma + J -
    l/4 > max(0, d_j), d_0 = 0 and d_j = 2 - Re s_(j-1) + max(0, d_(j-1)),
    so that nu > 1 + max(0, d_j)."""
    prec, re = mp.mp.prec, [float(c.real) for c in s]
    # the d_j in floats: an order one short of d_j by their rounding still leaves nu > 1
    need = list(accumulate(re[:-1], lambda d, x: 2 - x + max(0, d), initial=0))
    up, monos, levels, bound, size = mp.mpf(2) ** (2 - prec), {CONSTANT: (1, 0)}, [], 0, 1
    for j in reversed(range(z.r)):
        if j:
            size *= mp.mpf(N) ** max(0, 1 - s[j].real) * (1 + mp.log(N))
        out, series = defaultdict(list), {}
        mass, rad, eps, decay = size if j else 0, 0, 0, math.inf
        for key, (m, rho) in monos.items():
            (xi, sigma, l), W_rho = key, rho + up * (m + rho)
            xi, sigma = z[j] * xi, mp.make_mpc(mpc_add(s[j]._mpc_, sigma, 0))
            if not (found := _series_order(xi, sigma, N, 4 * tau / m, need[j], l)):
                return None
            J, b = found
            tail, M, terms = _operator_series(xi, sigma, N, J, prec, l, j > 0)
            series[key] = J, tail, [((xi, mpc_add_mpf(sigma._mpc_, from_int(i), 0), k), c)
                                    for i, k, c, _ in terms]
            for (monomial, _), (*_, W) in zip(series[key][2], terms):
                out[monomial].append((m * W, W_rho * W))
            mass, rad, eps = mass + m * M, rad + rho * M, eps + (m + rho) * b
            decay = min(decay, float(sigma.real) + J - l / 4 - 1e-9)
        if bound:
            nu = re[j] + mu - 1
            eps += bound * mp.mpf(N) ** -s[j].real * (1 + N / mp.mpf(nu))
            decay = min(decay, nu)
        levels.append(series)
        if not j:
            return levels, rad + eps, mass
        out[CONSTANT].append((mass, rad + eps + up * (1 + mass)))
        monos = {key: tuple(map(sum, zip(*parts))) for key, parts in out.items()}
        bound, mu = eps, decay


def _assemble(levels, sums, prec: int):
    """C_0 of ``_plan_at``'s levels, from the innermost: the weights of a
    level's monomials from the weights of the one inside, and C_j = S_j(N)
    less sum_k w_k xi_k^N h_k(N), rounded to ``prec``."""
    weights = {CONSTANT: 1}
    for series, S in zip(levels, reversed(sums)):
        out, rest = defaultdict(int), 0
        for key, (_, tail, monomials) in series.items():
            rest += weights[key] * tail
            for monomial, c in monomials:
                out[monomial] += weights[key] * c
        out[CONSTANT] += (C := mp.fsub(S, rest, prec=prec))
        weights = out
    return C


def _dyadic(s) -> tuple:
    """(a, b, F), F >= 0, with the mpc s = (a + i b) 2^-F exactly, read as
    it stands (an exact sum of exponents can hold more than prec bits)."""
    [(a, b)], e = _mantissas([s])
    return a << max(e, 0), b << max(e, 0), max(-e, 0)


def _normal(xs: list, e: int, Q: int, d: int = 1) -> tuple:
    """(xs 2^e / d as [X] 2^E, each floored, the largest of Q bits: within
    sqrt 2 2^(1-Q) of it per pair."""
    top = max(map(abs, xs))
    k = Q + d.bit_length() - top.bit_length()
    return ([_shift(x, k) // d for x in xs], e - k) if top else (xs, e)


def _up(x: int, y: int, G: int) -> int:
    """An integer >= (|x + i y| + 2) (1 + 2^-G)."""
    m = math.isqrt(x * x + y * y) + 1
    return m + (m >> G) + 2


def _step(t: list, c: int, b: int, F: int) -> list:
    """Row step of the derivatives of (log x)^l x^-s, 2^F times: pair k of
    ``t`` becomes (k + 1) t_(k+1) - (s + j) t_k, s + j = (c + i b) 2^-F."""
    pairs = list(zip(t[::2], t[1::2])) + [(0, 0)]
    return [v for k, ((x, y), (u, w)) in enumerate(zip(pairs, pairs[1:]))
            for v in (((k + 1) * u << F) - (x * c - y * b), ((k + 1) * w << F) - (x * b + y * c))]


def _series_order(xi: RotationNumber, s, N: int, tol, need: float = 0, l: int = 0):
    """(J, b), the smallest J with Re s + J - l/4 > max(0, need) whose bound
    b of the remainder of the series of f = (log x)^l x^-s at N is <= tol/4,
    or None once b is no smaller than the two before it.  b = K sum_t
    |d_(J+1,t)| L^t N^(-Re s-J-1) (1 + N/(Re s + J - t/4)) bounds the sum
    over n >= N of K sup_[n,n+1] |f^(J+1)| (``summation._nparts_at``), first
    term plus integral, as (log x)^t <= L^t (x/N)^(t/4), L >= log N >= 4,
    so it is b (N/n)^(Re s + J - l/4) past n.  On integers, b rounded up and
    tol/4 down at 2^(prec+64-mag(tol)): rows G_t >= |d_(j,t)| N^(-Re s-j),
    d the rows of ``_step``, of prec + 32 bits rounded up per step
    (|d_(j+1,t)| <= (t + 1) |d_(j,t+1)| + |s + j| |d_(j,t)|), L from
    ``_log_at``, each 1 + N/(...) an exact ratio."""
    (a, b, F), prec = _dyadic(s), mp.mp.prec
    Q, Z = prec + 32, prec + 64 - mp.mag(tol)
    x, _, e = _power_float(N, _fixed_exponent(s.real, Q, N))
    g, e = _normal([0] * l + [-x - (x >> Q + 7) - 1], e, Q)  # -N^-Re s, less its 2^-(Q+8)
    L = _log_at(N, Q) + 2 if l else 0
    limit, last = to_fixed(mp.mpf(tol)._mpf_, Z) >> 2, (math.inf, math.inf)
    for J in itertools.count():
        c = a + (J << F)
        m = math.isqrt(c * c + b * b << 2 * Q) + 1
        g, e = _normal([v * m + ((t + 1) * u << F + Q)
                        for t, (v, u) in enumerate(zip(g, g[1:] + [0]))], e - F - Q, Q, N)
        if 4 * c > l << F and float(s.real) + J - l / 4 > need:
            _, man, exp, _ = _remainder_factor(xi, J, prec)._mpf_
            bound = -sum(_shift(man * v * L ** t * (4 * c - (t << F) + (N << F + 2)),
                                exp + e + Z - Q * t) // (4 * c - (t << F))
                         for t, v in enumerate(g))
            if bound <= limit:
                return J, mp.make_mpf(from_man_exp(bound, -Z, prec, round_ceiling))
            if bound >= max(last):
                return None
            last = (last[1], bound)


def _operator_series(xi: RotationNumber, s, N: int, J: int, prec: int, l: int = 0,
                     weights: bool = False):
    """(xi^N h(N), M, [(i, t, w, W)]) of the series of f = (log x)^l x^-s at
    order J (``eval_convergent``): sum_{n>=N} xi^n f(n) is -xi^N h(N) within
    its bound, M >= |F(N)| + sum_j (|c_j| + e_j) |f^(j)(N)| the mass of its
    rounding, and, with ``weights``, w and W >= |w| the weight of each
    monomial (log n)^t n^-(s+i) of h with c_i != 0, i = -1 for F's.

    On integers: the rows t_j = (d_(j,k) N^(-s-j))_k and p_j = (d_(j,k))_k,
    Q = prec + 24 + bit_length(J) + 4 l bits (``_normal``), step from N^-s
    and 1 by ``_step`` over N and 1, s exact, within (j + 2) 2^(1.5-Q) of
    the largest; (log N)^k and an upper bound of it off ``_log_at`` (the 4 l
    bits absorb their errors); c_j within 2^-(prec+16) e_j
    (``_coefficient_bounds``).  F = sum_k A_k (log x)^k x^(1-s), A_k exact
    rationals from F' = f, (k + 1) A_(k+1) + (1 - s) A_k = [k = l], each
    term of F(N) one floor.  h(N) sums floored products at 2^H, 2^-H <
    2^(2-Q) M, and xi^N h(N) (``_char_pair``) is exact until rounded once: within
    2^-prec |h(N)| + 2^-(prec+14) M.  M and W are upper bounds rounded up,
    each w exact until rounded (F's at prec + 20 bits)."""
    Q, a, b, F = prec + 24 + J.bit_length() + 4 * l, *_dyadic(s)
    _, _, (ea, eb), _ = _geometric_list(xi, prec)
    x, y, e = _power_float(N, _fixed_exponent(s, Q, N))
    t, e = _normal([0, 0] * l + [x, y], e, Q)
    (x, y), p, pe, c, H = t[-2:], [0, 0] * l + [1 << Q, 0], -Q, (1 << F) - a, -e
    den, one, X, U, anti, G = c * c + b * b, xi.is_one(), [1 << Q], [1 << Q], [], prec + 20
    L = _log_at(N, Q) if l or one and not den else 0
    for _ in range(l + 1):
        X, U = X + [X[-1] * L >> Q], U + [-(-U[-1] * (L + 2) >> Q)]
    # A_l = 1/(1 - s) = 2^F (c + i b)/den, A_(k-1) = -k A_k/(1 - s) down to
    # A_0; at s = 1 (den = 0) the one A_(l+1) = 1/(l+1), and N t ~ 2^H
    u, v, d, k = (c << F, b << F, den, l) if den else (1, 0, l + 1, l + 1)
    while one and (u or v):
        anti.append((k, u, v, d))
        u, v, d, k = -k * (u * c - v * b << F), -k * (u * b + v * c << F), d * den, k - 1
    with mp.workprec(G):  # F's monomials, exact until rounded
        coeffs = [(-1, k, w, abs(w) * (1 + mp.ldexp(1, -prec - 10)))
                  for k, u, v, d in anti for w in [mp.mpc(u, v) / d]] if weights else []
    # F(N) = sum_k A_k (log N)^k N^(1-s), N^(1-s) = N t at 2^H, each term floored
    F_N = [(k, ((x * u - y * v) * N // d, (x * v + y * u) * N // d)) for k, u, v, d in anti]
    h = [sum(q[i] * X[k] for k, q in F_N) >> Q for i in (0, 1)]
    mass = -(-sum(_up(*q, G) * U[k] for k, q in F_N or [(0, (0, 0))]) >> Q)
    ea_j, eden = 3 * ea, eb
    for j, (u, v, S, A) in enumerate(_coefficient_bounds(xi, J, prec)):
        # (|c_j| + e_j) 2^S <= num/eden, e_j <= 3 (a'/b')^(j+1) = ea_j/eden
        num = A * eden + (ea_j << S)
        x, y = (sum(map(mul, t[0::2], X)) >> Q, sum(map(mul, t[1::2], X)) >> Q) if l else t
        h[0] += _shift(u * x - v * y, e - S + H)
        h[1] += _shift(u * y + v * x, e - S + H)
        T = -(-sum(map(mul, map(_up, t[0::2], t[1::2], repeat(G)), U)) >> Q) if l else _up(*t, G)
        mass -= _shift(-num * T, e - S + H) // eden
        c = a + (j << F)
        t, e = _normal(_step(t, c, b, F), e - F, Q, N)
        if weights:
            coeffs += [(j, k, _scaled_mpc(u * px - v * py, u * py + v * px, S - pe, prec),
                        mp.make_mpf(from_man_exp(-(-num * _up(px, py, G) // eden), pe - S, prec,
                                                 round_ceiling)))
                       for k, (px, py) in enumerate(zip(p[::2], p[1::2])) if u or v]
            p, pe = _normal(_step(p, c, b, F), pe - F, Q)
        ea_j, eden = ea_j * ea, eden * eb
    cx, cy = _char_pair(xi ** N, Q)
    return (_scaled_mpc(h[0] * cx - h[1] * cy, h[0] * cy + h[1] * cx, H + Q, prec),
            mp.make_mpf(from_man_exp(mass, -H, prec, round_ceiling)), coeffs)


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

