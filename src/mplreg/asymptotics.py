"""Asymptotic expansions with root-of-unity character coefficients.

An expansion approximates a sequence u_n by

    u_n  =  sum over characters xi of  xi^n * S_xi(n)  +  o(n^-A),

each S_xi a finite sum of c * (log n)^l * n^(-m) with every stored m <= A,
each c a Gaussian integer (re, im) at the expansion's one scale 2^W.
Characters are indexed by their exact value xi in Q/Z, so each appears
once; the regularised value is the constant term of S_1.

``partial_sum`` maps the expansion of u_n to the expansion of
v_n = sum_{m<n} u_m through the symbolic n-parts of each stored term;
``depth_expansion`` iterates this together with a pointwise multiplication
to expand nested sums

    sum_{n > n_1 > ... > n_r > 0}  prod_i  z_i^{n_i} (log n_i)^{k_i} n_i^{-a_i}.

Constants are extracted by numeric matching against exact partial sums at a
doubling cutoff pair, certified by a stability check; every level's partial
sums are the suffix sums of one pass of the kernel ``summation.nested_sums``,
whose scale 2^P is the expansions' 2^W.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import mpf_neg, to_fixed

from . import summation
from .errors import PrecisionError
from .rootsofunity import ONE, RotationNumber, ZVector, index_set_and_count

__all__ = [
    "AsymptoticExpansion",
    "DepthSpec",
    "partial_sum",
    "depth_expansion",
    "order_lower_bound",
    "nested_char_partial_sums",
]

LOG_POWER_CAP = 64


def fmt_real(x) -> str:
    """Decimal string with enough digits to round-trip at this precision."""
    return mp.nstr(mp.mpf(x), mp.mp.dps + 5)


class AsymptoticExpansion:
    """Finite map character xi -> S_xi, so that u_n is sum xi^n S_xi(n),
    plus the precision order A (error o(n^-A)) and a diagnostic bound on
    the residual left by constant matching.  The terms, (xi, l, m) ->
    coefficient of xi^n (log n)^l n^(-m), are kept as {xi: {(l, m): (re,
    im)}} at 2^-``scale``; a coefficient becomes an mpc, rounded once, only
    where a public reader reads it: ``items``, ``coefficient`` and
    ``to_json_obj`` at the working precision of the making, ``evaluate`` at
    that of its call."""

    __slots__ = ("_parts", "scale", "_prec", "precision", "residual_bound")

    def __init__(self, parts=None, precision: int = 0, residual_bound=None,
                 scale=None, prec=0):
        """From {xi: ScaleFunction}, each coefficient floored at 2^W, W the
        scale of a kernel pass over the most growing term to the matching
        ceiling (``summation.pass_scale``); with ``scale``, from {xi: {(l, m):
        (re, im)}} at 2^-scale, read at ``prec`` bits (0: the working one)."""
        if scale is None:
            parts = {xi: f.terms() for xi, f in (parts or {}).items()}
            keys = [(l, m) for terms in parts.values() for l, m, _ in terms]
            scale = summation.pass_scale((min([0] + [m for _, m in keys]),),
                                         (max([0] + [l for l, _ in keys]),),
                                         2 * summation.MATCH_CEILING)
            parts = {xi: {(l, m): summation._fixed_pair(c, scale) for l, m, c in terms}
                     for xi, terms in parts.items()}
        self.precision, self.scale, self._prec = int(precision), scale, prec or mp.mp.prec
        self._parts = {}
        for xi, terms in parts.items():
            if not isinstance(xi, RotationNumber):
                raise TypeError("expansion keys must be RotationNumber characters")
            l_max = max((l for l, _ in terms), default=0)
            if l_max > LOG_POWER_CAP:
                raise PrecisionError(f"log power {l_max} exceeds cap {LOG_POWER_CAP}")
            kept = {key: c for key, c in terms.items() if key[1] <= self.precision and any(c)}
            if kept:
                self._parts[xi] = kept
        self.residual_bound = mp.mpf(residual_bound if residual_bound is not None else 0)

    @classmethod
    def constant_one(cls, precision: int, scale: int) -> "AsymptoticExpansion":
        return cls({ONE: {(0, 0): (1 << scale, 0)}}, precision, scale=scale)

    def items(self):
        """((xi, l, m), coefficient) pairs, sorted by (m, l, xi)."""
        return sorted((((xi, l, m), summation._scaled_mpc(*c, self.scale, self._prec))
                       for xi, terms in self._parts.items() for (l, m), c in terms.items()),
                      key=lambda kv: (kv[0][2], kv[0][1], kv[0][0].fraction))

    def __len__(self):
        return sum(map(len, self._parts.values()))

    def is_empty(self) -> bool:
        return not self._parts

    def coefficient(self, xi: RotationNumber, l: int, m: int):
        c = self._parts.get(xi, {}).get((l, m))
        return mp.mpc(0) if c is None else summation._scaled_mpc(*c, self.scale, self._prec)

    def regularised_value(self):
        """The coefficient of the constant basis element (xi=1, l=0, m=0)."""
        return self.coefficient(ONE, 0, 0)

    def order(self):
        """Smallest stored decay power; +inf for the empty expansion."""
        return min((m for terms in self._parts.values() for _, m in terms), default=mp.inf)

    def evaluate(self, n: int):
        return summation._scaled_mpc(*_eval_parts_by_char(self._parts, self.scale, int(n)),
                                     3 * self.scale)

    def add(self, other: "AsymptoticExpansion") -> "AsymptoticExpansion":
        W, parts = max(self.scale, other.scale), {}
        for e in (self, other):
            for xi, terms in e._parts.items():
                acc = parts.setdefault(xi, {})
                for key, (re, im) in terms.items():
                    x, y = acc.get(key, (0, 0))
                    acc[key] = (x + (re << W - e.scale), y + (im << W - e.scale))
        return AsymptoticExpansion(parts, min(self.precision, other.precision),
                                   self.residual_bound + other.residual_bound, W,
                                   max(self._prec, other._prec))

    def __add__(self, other):
        return self.add(other)

    def multiply_monomial(self, xi0: RotationNumber, l0: int, m0: int
                          ) -> "AsymptoticExpansion":
        """Pointwise product with xi0^n (log n)^l0 n^(-m0): the keys move."""
        return AsymptoticExpansion(
            {xi * xi0: {(l + l0, m + m0): c for (l, m), c in terms.items()}
             for xi, terms in self._parts.items()},
            self.precision + m0, self.residual_bound, self.scale, self._prec)

    def to_json_obj(self) -> dict:
        terms = [
            {"xi": str(xi), "l": l, "m": m,
             "re": fmt_real(c.real), "im": fmt_real(c.imag)}
            for (xi, l, m), c in self.items()
        ]
        return {"terms": terms, "precision": self.precision,
                "residual_bound": fmt_real(self.residual_bound)}

    def __repr__(self):
        inner = ", ".join(
            f"({xi},{l},{m}): {mp.nstr(c, 8)}" for (xi, l, m), c in self.items())
        return f"AsymptoticExpansion({{{inner}}}, A={self.precision})"


@dataclass(frozen=True)
class DepthSpec:
    """A nested character sum: z entries, integer exponents, log powers."""

    z: ZVector
    a: tuple
    kvec: tuple

    def __post_init__(self):
        for name in ("a", "kvec"):
            given = tuple(getattr(self, name))
            if any(x != int(x) for x in given):
                raise ValueError(f"{name} must hold integers, got {given}")
            object.__setattr__(self, name, tuple(int(x) for x in given))
        if not (len(self.z) == len(self.a) == len(self.kvec)):
            raise ValueError("z, a and kvec must have equal length")
        if any(k < 0 for k in self.kvec):
            raise ValueError("log powers must be >= 0")

    @property
    def r(self) -> int:
        return len(self.a)

    def exponent_sum(self, i: int, j: int) -> int:
        """A_[i,j] = a_i + ... + a_j (1-based, inclusive)."""
        if not 1 <= i <= j <= self.r:
            raise IndexError(f"need 1 <= i <= j <= {self.r}")
        return sum(self.a[i - 1:j])

    def suffix_count(self, i: int, j: int) -> int:
        """Q_[i,j] = q_[i,j] + ... + q_[j,j], q_[t,j] = 1 iff z_t * ... * z_j = 1;
        zero when j < i."""
        if j < i:
            return 0
        members, _ = index_set_and_count(self.z, j)
        return sum(1 for t in members if t >= i)


def order_lower_bound(spec: DepthSpec) -> int:
    """min(0, A_[1,i] - Q_[1,i] over i): a certified floor for the order."""
    best = 0
    for i in range(1, spec.r + 1):
        best = min(best, spec.exponent_sum(1, i) - spec.suffix_count(1, i))
    return best


def nested_char_partial_sums(z: ZVector, a, kvec, cutoffs, state=None) -> dict:
    """{N: sum_{N>n_1>...>n_r>0} prod z_i^{n_i} (log n_i)^{k_i} n_i^{-a_i}},
    resuming ``state`` (a ``summation.NestedPass``) when one is given."""
    return summation.nested_sums(z, a, kvec, cutoffs, state)


def partial_sum(e: AsymptoticExpansion, sums_fn, *, carried_growth,
                precision=None, tol=None) -> AsymptoticExpansion:
    """Expansion of v_n = sum_{m<n} u_m given the expansion e of u_n.

    The n-dependent coefficients come from each stored term's symbolic
    n-parts; the constant is matched once, at a cutoff pair (N, 2N), against
    exact partial sums of u given by ``sums_fn`` (``cutoffs -> {N: (re, im,
    P)}``, the raw sums of ``summation.NestedPass.raw_sum``), which also
    absorbs the constant of the part of u that e does not represent.

    ``carried_growth = (exponent, log_power)`` tells the matcher how the
    uncertainty carried in e's coefficients (``residual_bound``) is imaged
    at a cutoff n, namely within residual_bound * (1+log n)^log_power *
    n^exponent; the depth driver derives it from its head monomial.  Both
    are ints, the log power >= 0, and ``residual_bound`` is finite and >= 0,
    else ValueError.  An e that carries nothing (``residual_bound`` 0) has
    no image: the predicted residual alone picks the cutoff, and one that
    cannot reach tol raises PrecisionError before any sum is asked for.
    """
    a_out = e.precision if precision is None else int(precision)
    tol_eff = summation.resolve_tol(tol, summation.DEFAULT_MATCH_TOL)
    a_int, W = summation.internal_precision(a_out, tol_eff), e.scale
    growth_exp, growth_log = carried_growth
    if not callable(sums_fn):
        raise ValueError("sums_fn must be a callable cutoffs -> {N: (re, im, P)}")
    if not (mp.isfinite(e.residual_bound) and e.residual_bound >= 0):
        raise ValueError(f"residual_bound must be finite and >= 0: {e.residual_bound}")
    if not (isinstance(growth_exp, int) and isinstance(growth_log, int) and growth_log >= 0):
        raise ValueError(f"carried_growth must be two ints, the second >= 0: {carried_growth}")

    # c times the n-parts (at 2^V) of every term, collected per character,
    # and |c| times its tail, rounded up, all at e's scale 2^W: each product
    # one floor (one ceiling in the tail), each sum exact
    by_char, tail = {}, defaultdict(int)
    for xi, coeffs in e._parts.items():
        acc = by_char.setdefault(xi, {})
        for (l, m), (cr, ci) in coeffs.items():
            parts, rest = summation._term_nparts(xi, l, m, a_int)
            V = parts.W
            for key, (pr, pi) in parts.terms.items():
                x, y = acc.get(key, (0, 0))
                acc[key] = (x + (cr * pr - ci * pi >> V), y + (cr * pi + ci * pr >> V))
            size = math.isqrt(cr * cr + ci * ci) + 1
            for key, t in rest.terms.items():
                tail[key] += (size * t >> V) + 1

    # residual_bound (1 + log n)^growth_log n^growth_exp, rounded up in units
    # 2^-3W, log n raised past ``_log_at``'s error (< 2 units 2^-W)
    carried = -to_fixed(mpf_neg(e.residual_bound._mpf_), 3 * W)

    def prop(n):
        x = carried * n ** growth_exp if growth_exp >= 0 else -(-carried // n ** -growth_exp)
        log1 = summation._log_at(n, W) + (1 << W) + 2
        for _ in range(growth_log):
            x = -(-x * log1 >> W)
        return x

    c2, residual, _ = summation.run_matching(
        sums_fn,
        lambda n: _eval_parts_by_char(by_char, W, n),
        summation.Scaled(dict(tail), W), tol_eff, prop_fn=prop if e.residual_bound else None)

    one = by_char.setdefault(ONE, {})
    (x, y), (cr, ci) = one.get((0, 0), (0, 0)), summation._fixed_pair(c2, W)
    one[0, 0] = (x + cr, y + ci)
    return AsymptoticExpansion(by_char, a_out, residual, W)


def _eval_parts_by_char(parts: dict, W: int, n: int) -> tuple:
    """sum over characters xi of xi^n * parts[xi](n), the parts Gaussian
    integers at 2^W, as unrounded integers at 2^(3W) (``summation._read_chars``)."""
    return summation._read_chars(parts, W, n)


def inner_expansion_order(a_i: int) -> int:
    """Extra precision the inner recursion level must carry.

    The product bookkeeping needs the inner error o(n^-A') to satisfy
    A' + a_i >= A + 1; |a_i - 1| meets that for every integer a_i and
    agrees with A' = A + a_i - 1 when a_i >= 1.
    """
    return abs(a_i - 1)


def depth_expansion(spec: DepthSpec, A: int, tol=None) -> AsymptoticExpansion:
    """Expansion of u_n = sum_{n>n_1>...>n_r>0} prod z_i^{n_i}(log n_i)^{k_i} n_i^{-a_i}.

    Recursive over the depth: expand the inner suffix at raised precision,
    multiply by the head monomial, and partial-sum with the level's constant
    matched against exact nested partial sums of the same suffix series.
    The inner suffix is kept to the internal precision of matching: terms
    it dropped would sit in neither the outer level's tail nor its residual.
    Every level reads those sums off one kernel pass over the full (z, a, k),
    resumed up to the largest cutoff any level asks for, so a call sums r
    terms per n once instead of r + (r - 1) + ... + 1 per matching attempt.
    """
    tol_eff = summation.resolve_tol(tol, summation.DEFAULT_MATCH_TOL)
    if A < 0:
        raise ValueError(f"expansion precision must be >= 0, got {A}")
    # every cutoff run_matching can ask for: N and 2N of each ladder point
    ladder = summation._matching_cutoffs()
    ladder.append(2 * ladder[-1])
    kernel = summation.NestedPass(ladder[-1])
    # the expansions' scale is the pass's, so the reads share its tables
    W = summation.pass_scale(spec.a, spec.kvec, ladder[-1])

    def build(i: int, a_i: int) -> AsymptoticExpansion:
        if i == spec.r:
            return AsymptoticExpansion.constant_one(a_i, W)
        inner = build(i + 1, summation.internal_precision(
            a_i + inner_expansion_order(spec.a[i]), tol_eff))
        prod = inner.multiply_monomial(spec.z[i], spec.kvec[i], spec.a[i])

        def true_sums(cutoffs):
            # level i reads running[i] off the one pass, which records every
            # level at each ladder point it crosses
            points = {*cutoffs, *(n for n in ladder if n <= max(cutoffs))} - kernel.hits.keys()
            if points:
                nested_char_partial_sums(spec.z, spec.a, spec.kvec, points, kernel)
            return {n: kernel.raw_sum(n, i) for n in cutoffs}

        # inner uncertainty rides the head monomial; summing it gains one
        # power of n only on the trivial character
        growth = (max(0, -spec.a[i] + (1 if spec.z[i].is_one() else 0)),
                  spec.kvec[i] + 1)
        return partial_sum(prod, true_sums, precision=a_i, tol=tol,
                           carried_growth=growth)

    return build(0, A)
