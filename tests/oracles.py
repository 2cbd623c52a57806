"""Independent oracles used across the test suite.

Nothing here goes through the library's expansion machinery: the zeta
routine is a standalone classical-formula evaluation with hard-coded
Bernoulli numbers, the tail-coefficient oracle comes from a geometric
operator series, and the sequence limits use plain window averaging with
Aitken extrapolation over raw partial sums.  ``_mpmath_pass`` is the
nested partial-sum loop in mpmath numbers, the reference for the package's
fixed-point kernel.  ``primitive_roots`` is the shared Hypothesis strategy
for roots of unity of high order.
"""

from fractions import Fraction
import math

from hypothesis import strategies as st
import mpmath as mp

from mplreg.rootsofunity import RotationNumber
from mplreg.summation import NestedPass

# B_2, B_4, ..., B_16
_EVEN_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
]


def em_zeta(s, cutoff: int = 60, terms: int = 8):
    """zeta(s) for Re(s) > 1 by direct summation plus tail correction."""
    s = mp.mpc(s)
    total = sum(mp.mpf(n) ** (-s) for n in range(1, cutoff))
    N = mp.mpf(cutoff)
    total += N ** (1 - s) / (s - 1) + N ** (-s) / 2
    rising = s
    for k in range(1, terms + 1):
        b = _EVEN_BERNOULLI[k - 1]
        total += (mp.mpf(b.numerator) / b.denominator / math.factorial(2 * k)
                  * rising * N ** (-s - 2 * k + 1))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def geometric_tail_coeffs(xi_value, l: int, m: int, depth: int):
    """Coefficients of the n-dependent part of sum_{a<n} xi^a (log a)^l a^(-m)
    for xi != 1, up to decay <= depth.

    Telescoping with h = G(d/dt) f, G(t) = 1/(xi e^t - 1), gives
    sum_{a<n} xi^a f(a) = const + xi^n h(n) + below-floor terms; the h-series
    is truncated at derivative order depth - m.
    """
    from mplreg.scalefun import ScaleFunction

    J = depth - m
    if J < 0:
        return {}
    # ordinary coefficients of 1/(xi e^t - 1)
    denom = [xi_value - 1] + [xi_value / mp.factorial(i) for i in range(1, J + 1)]
    coeffs = [1 / denom[0]]
    for n in range(1, J + 1):
        acc = sum(coeffs[i] * denom[n - i] for i in range(n))
        coeffs.append(-acc / denom[0])
    g = ScaleFunction.term(l, m)
    h = ScaleFunction.zero()
    for j in range(J + 1):
        h = h + g.scaled(coeffs[j])
        g = g.differentiate()
    return {(l2, m2): c for l2, m2, c in h.terms() if m2 <= depth}


def averaged_limit(sums_fn, period: int, start: int = 512, rungs: int = 8):
    """Limit of a cutoff sequence: average over one character period, then
    Aitken-extrapolate along a doubling ladder.  ``sums_fn(cutoffs)`` must
    return {N: partial sum}."""
    values = []
    n = start
    for _ in range(rungs):
        window = sums_fn(range(n, n + period))
        values.append(sum(window.values()) / period)
        n *= 2
    table = [values]
    while len(table[-1]) >= 3:
        prev = table[-1]
        new = []
        for j in range(2, len(prev)):
            d1, d2 = prev[j - 1] - prev[j - 2], prev[j] - prev[j - 1]
            if d2 == 0 or abs(d1 / d2) < mp.mpf("1.2"):
                new.append(prev[j])
            else:
                new.append(prev[j] + d2 / (d1 / d2 - 1))
        table.append(new)
    return table[-1][-1]


def primitive_roots(max_order: int):
    """Strategy for e^{2 pi i p/q}, 2 <= q <= max_order, any unit p mod q."""
    return st.integers(2, max_order).flatmap(
        lambda q: st.sampled_from([p for p in range(1, q) if math.gcd(p, q) == 1])
        .map(lambda p: RotationNumber(p, q)))


def _mpmath_pass(z, exps, kvec, cutoffs, state=None) -> dict:
    """The forward pass in mpmath numbers at the working precision."""
    r = len(z)
    tables = [zj.power_values() if isinstance(zj, RotationNumber) else None
              for zj in z]
    gen = [None if isinstance(zj, RotationNumber) else mp.mpc(zj) for zj in z]
    state = state or NestedPass(cutoffs[-1])
    if state.running is None:
        state.running = ([mp.mpc(0)] * r + [mp.mpc(1)], [mp.mpc(1)] * r)
    running, gen_pows = state.running
    need_log = any(kvec) or not all(isinstance(e, int) for e in exps)
    want = set(cutoffs)
    top = cutoffs[-1]
    out = {}
    for n in range(state.n, top + 1):
        if n in want:
            out[n] = running[0]
        if n == top:
            break
        nf = mp.mpf(n)
        log_n = mp.log(n) if need_log else None
        # ascending j: running[j + 1] still excludes n_{j+1} = n
        for j in range(r):
            table = tables[j]
            if table is not None:
                zp = table[n % len(table)]
            else:
                gen_pows[j] *= gen[j]
                zp = gen_pows[j]
            e = exps[j]
            if isinstance(e, int):
                w = zp * nf ** (-e)
            else:
                w = zp * mp.exp(-e * log_n)
            if kvec[j]:
                w *= log_n ** kvec[j]
            running[j] += w if j == r - 1 else w * running[j + 1]
    state.n, state.terms = top, state.terms + top - state.n
    return out
