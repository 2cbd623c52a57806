"""Independent oracles used across the test suite.

Nothing here goes through the library's expansion machinery: the zeta
routine is a standalone classical-formula evaluation with hard-coded
Bernoulli numbers, the tail-coefficient oracle comes from a geometric
operator series, and the sequence limits use plain window averaging with
Aitken extrapolation over raw partial sums.  ``_mpmath_pass`` is the
nested partial-sum loop in mpmath numbers, the reference for the package's
fixed-point kernel; ``fixed_point_pass`` is that kernel one n at a time
with the same floors, the reference for its blocks: the same bits on every
level but the outermost and in every n^-s entry.  ``point_value`` sums the
terms of a ScaleFunction in mpmath at 100 bits above the working
precision, the reference for its ``_value_at``.  ``em_remainder`` and
``geb_blocks`` rebuild the engines' remainder and correction blocks interval
by interval, from values ``_value_at`` gives one point at a time, each unit
integral the exact rational one of those values rounded once: run 64 bits
higher, the reference for the engines' moment sums;
``end_blocks`` rebuilds the engines' end-only blocks (integral, derivative
boundary, and the twisted engine's head and step blocks) from
``point_value`` at the two ends, the reference for those blocks of the
moment pass;
``per_term_translation`` sums each tail of the translation series in a
pass of its own, the reference for the one-pass ``verify_translation``;
``series_reference`` sums its series on past the stop, the reference for
the derived bound of the terms the stop drops; ``translation_series`` sums
it in mpc at 64 more bits off the same pass, the reference for the series
on that pass's integers.
``geometric_closed_form`` gives the Taylor coefficients of 1/(xi e^t - 1)
from exact Bernoulli values, the reference for the recurrence of
``summation._coefficient_bounds``; ``geometric_coeffs`` rounds that
recurrence's pairs to mpc numbers, and ``mp_operator_series`` and
``mp_series_order`` run ``polylog``'s operator series and its order rule
on them in mpmath numbers, the references for their integer versions.
``nparts_chain`` builds the n-parts of one term by repeated
differentiation on mpc coefficients, the reference for the scaled integers
of ``summation._nparts_at``.
``mp_matching`` is the constant matcher in mpmath numbers, the reference
for the integer ``summation.run_matching``.  ``per_term_sums`` sums an
expansion's terms exactly, each in a kernel pass of its own, the reference
partial sums of ``asymptotics.partial_sum``.  ``domain_member`` tests one
domain from its definition, the reference for the one-pass domain flags.
``engine_table_fractions`` builds an engine's table from the
``RationalPolynomial``s with ``Fraction`` arithmetic, composing the shift
by ``compose_affine``, the reference for the integer rows of
``summation._engine_table``.
``primitive_roots`` is the shared Hypothesis strategy for roots of unity of
high order.
``ladder`` is the convergent route's former doubling ladder (period
averaging and Richardson extrapolation on the exponents of
``tail_exponents``, with the rounding charge of ``rounding_slack``), the
reference of the operator-series route where it settles.
"""

from fractions import Fraction
import math

from hypothesis import strategies as st
import mpmath as mp
from mpmath.libmp import from_rational, round_nearest

from mplreg import eulerpoly
from mplreg.errors import PrecisionError
from mplreg.errors import NonConvergenceError
from mplreg.polylog import (CONVERGENT_START, EvalReport, TranslationReport, _delta,
                            _nested_sums, brute_partial_sum, pochhammer)
from mplreg.rootsofunity import (RotationNumber, ZVector, _coords, _domain_flags,
                                 first_nontrivial_prefix, index_set_and_count,
                                 rotation_product)
import mplreg.summation as summod
from mplreg.summation import NestedPass, nested_sums

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


def geometric_closed_form(xi: RotationNumber, J: int) -> list:
    """c_0..c_J of 1/(xi e^t - 1) less its pole, at 1,024 bits:
    1/(xi e^t - 1) = sum_{a<k} xi^a e^(at)/(e^(kt) - 1), k the order of xi,
    and the generating series of the B_n(a/k) give
    c_j = k^j/(j+1)! sum_{a<k} xi^a B_{j+1}(a/k) (B_{j+1}/(j+1)! at xi = 1),
    each B_{j+1}(a/k) an exact Fraction rounded once."""
    k = xi.order
    with mp.workprec(1024):
        powers = xi.power_values()
        out = []
        for j in range(J + 1):
            bern = eulerpoly.bernoulli_polynomial(j + 1)
            total = mp.fsum(p * _mpq(bern(Fraction(a, k))) for a, p in enumerate(powers))
            out.append(total * mp.mpf(k) ** j / math.factorial(j + 1))
    return out


def geometric_coeffs(xi: RotationNumber, J: int, prec: int) -> tuple:
    """c_0..c_J of 1/(xi e^t - 1) less its pole at ``prec`` bits, each
    rounded once: B_{j+1}/(j+1)! at xi = 1, else the scaled pair of
    ``summation._coefficient_bounds``.  The reference mpc coefficients of
    ``mp_operator_series`` and ``nparts_chain``."""
    bounds = summod._coefficient_bounds(xi, J, prec)
    with mp.workprec(prec):
        return tuple(_mpq(eulerpoly.bernoulli_number(j + 1) / math.factorial(j + 1))
                     if xi.is_one() else summod._scaled_mpc(u, v, S, prec)
                     for j, (u, v, S, _) in enumerate(bounds))


def mp_operator_series(xi: RotationNumber, s, N: int, J: int, prec: int, l: int = 0):
    """``polylog._operator_series`` of f = (log x)^l x^-s in mpc numbers at
    prec + 12 + bit_length(J) bits, from the c_j of ``geometric_coeffs`` at
    ``prec``: (xi^N h(N), M, {(i, t): (w, W)}), the weight w of each
    monomial (log n)^t n^-(s+i) of h with c_i != 0, c_i d_(i,t), and W =
    (|c_i| + e_i) |d_(i,t)|, e_i = 3 (2 pi |x|)^-(i+1) (0 at xi = 1), d the
    rows d_(i+1,t) = (t + 1) d_(i,t+1) - (s + i) d_(i,t) from (log x)^l; at
    xi = 1 the antiderivative's, i = -1, w = (-1)^(l-t) l!/t!/(1-s)^(l-t+1),
    or 1/(l + 1) at t = l + 1 when s = 1; the reference for the integer
    series."""
    with mp.workprec(prec + 12 + J.bit_length()):
        near = min(xi.fraction, 1 - xi.fraction)
        rate = near.denominator / (2 * mp.pi * near.numerator) if near else 0
        power, row, env, lg = mp.mpf(N) ** -s, [0] * l + [mp.mpc(1)], 3 * rate, mp.log(N)
        coeffs = {}
        if xi.is_one() and s == 1:
            coeffs[-1, l + 1] = (mp.mpf(1) / (l + 1),) * 2
        elif xi.is_one():
            for t in range(l + 1):
                w = (-1) ** (l - t) * mp.factorial(l) / mp.factorial(t) / (1 - s) ** (l - t + 1)
                coeffs[-1, t] = (w, abs(w))
        h = mp.fsum(w * lg ** t * (power * N) for (_, t), (w, _) in coeffs.items())
        mass = mp.fsum(W * lg ** t * abs(power * N) for (_, t), (_, W) in coeffs.items())
        for j, c in enumerate(geometric_coeffs(xi, J, prec)):
            for t, d in enumerate(row):
                h += c * d * lg ** t * power
                mass += (abs(c) + env) * abs(d) * lg ** t * abs(power)
                if c:
                    coeffs[j, t] = (c * d, (abs(c) + env) * abs(d))
            row = [(t + 1) * (row[t + 1] if t < l else 0) - (s + j) * row[t]
                   for t in range(l + 1)]
            power, env = power / N, env * rate
        return (xi ** N).value() * h, mass, coeffs


def mp_series_order(xi: RotationNumber, s, N: int, tol, first: int = 0, l: int = 0):
    """``polylog._series_order`` in mpf numbers at the working precision:
    the smallest J >= first whose bound K sum_t |d_(J+1,t)| (log N)^t
    N^(-Re s-J-1) (1 + N/(Re s + J - t/4)) is <= tol/4, |d| the majorant
    rows (t + 1) |d_(j,t+1)| + |s + j| |d_(j,t)| from (log x)^l, or None
    once a bound is no smaller than the two before it; returns (J, bound)."""
    sigma, lg, row = s.real, mp.log(N), [0] * l + [1]
    poch = [(t + 1) * (row[t + 1] if t < l else 0) + abs(s) * row[t] for t in range(l + 1)]
    power = mp.mpf(N) ** (-sigma - 1)  # N^(-Re s-J-1)
    last = (mp.inf, mp.inf)
    J = 0
    while True:
        if J >= first and sigma + J > mp.mpf(l) / 4:
            K = summod._remainder_factor(xi, J, mp.mp.prec)
            bound = sum(K * p * lg ** t * power * (1 + N / (sigma + J - mp.mpf(t) / 4))
                        for t, p in enumerate(poch))
            if bound <= tol / 4:
                return J, bound
            if bound >= max(last):
                return None
            last = (last[1], bound)
        poch = [(t + 1) * (poch[t + 1] if t < l else 0) + abs(s + J + 1) * poch[t]
                for t in range(l + 1)]
        power = power / N
        J += 1


def nparts_chain(xi: RotationNumber, l: int, m: int, a_max: int, prec: int):
    """(parts, tail) of ``summation._nparts_at`` by a chain of
    ``ScaleFunction.differentiate`` calls on mpc coefficients, K summed for
    every (l, m): the reference, run 64 bits higher, for its scaled integers
    (parts within the bound its docstring derives, tails at or above)."""
    from mplreg.scalefun import ScaleFunction

    with mp.workprec(prec):
        J = max(1, a_max + 2 - m, math.ceil(l / math.log(summod.MATCH_START)) - m - 1)
        coeffs = geometric_coeffs(xi, J, prec)
        g = ScaleFunction.term(l, m)
        K = sum(abs(c) / math.factorial(J - j + 1) for j, c in enumerate(coeffs))
        h = []
        if xi.is_one():
            h += g.antiderivative().terms()
            K += mp.mpf(1) / math.factorial(J + 2)
        for c in coeffs:
            if c:
                h += [(l2, m2, c2 * c) for l2, m2, c2 in g.terms()]
            g = g.differentiate()
        parts = ScaleFunction([t for t in h if t[1] <= a_max])
        tail = ScaleFunction([(l2, m2, abs(c)) for l2, m2, c in h if m2 > a_max]
                             + [(l2, m2, K * abs(c)) for l2, m2, c in g.terms()]
                             + [(l2, m2, amp * K) for l2, m2, amp in g.abs_tail().terms()])
        return parts, tail


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


def rounding_slack(n, magnitudes):
    """2^(10-prec) n (1 + sum |v|), a worst-case charge for the rounding of
    n mpmath additions of values of these magnitudes."""
    amp = mp.mpf(1)
    for v in magnitudes:
        amp += abs(v)
    return mp.mpf(2) ** (10 - mp.mp.prec) * n * amp


def oscillation_period(z: ZVector) -> int:
    """lcm of the orders of the z_i: averaging t_N over this many consecutive
    cutoffs cancels every oscillatory character of the expansion."""
    return math.lcm(*(zi.order for zi in z))


def tail_exponents(z: ZVector, s, count: int) -> list:
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


def ladder(z: ZVector, s, tol, ceiling) -> EvalReport:
    """The convergent value by the doubling ladder: t_N averaged over one
    oscillation period and Richardson-extrapolated, with the exponents of
    ``tail_exponents``, across period multiples from ``CONVERGENT_START`` up
    (off them xi^N-phased terms stay), doubling until two increments pass
    tol/2; the estimate 4 times the last increment plus ``rounding_slack``
    of the sums up to the last cutoff reached, a heuristic.  One resumed
    kernel pass gives every rung (``diagnostics["terms"]``); a ceiling below
    the first rung raises ValueError before it starts, a ladder that does
    not settle by the ceiling NonConvergenceError."""
    s = _coords(s)
    period = oscillation_period(z)
    n = -(-CONVERGENT_START // period) * period
    if ceiling < n:
        raise ValueError(f"ceiling {ceiling} is below the first rung {n}")
    weights = [mp.power(2, e)
               for e in tail_exponents(z, s, (ceiling // n).bit_length())]
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
                estimate = 4 * increment + rounding_slack(kernel.n, [values[-1]])
                return EvalReport(values[-1], estimate, "convergent", _domain_flags(z, s),
                                  {"cutoff": n, "rungs": len(values),
                                   "period": period, "terms": kernel.terms})
        n *= 2
    raise NonConvergenceError(
        f"accelerated partial sums did not settle below {mp.nstr(tol, 5)} "
        f"up to cutoff {n // 2}")


def domain_member(domain_kind: str, z: ZVector, s) -> bool:
    """Strict membership of s in U_r ("Ur"), U_r(z) ("Urz") or V_r(z)
    ("Vrz") from the definitions: the running sums of Re s_i against i, the
    bound moved down by one from q(z) on, or Q_i(z)."""
    q = first_nontrivial_prefix(z)
    running = mp.mpf(0)
    for i, c in enumerate(_coords(s), start=1):
        running += c.real
        if domain_kind == "Ur":
            bound = i
        elif domain_kind == "Urz":
            bound = i if i < q else i - 1
        else:
            bound = index_set_and_count(z, i)[1]
        if not running > bound:
            return False
    return True


def mp_matching(sums_fn, approx_fn, tail, tol, prop_fn=None, prec=None):
    """``summation.run_matching`` with every step in mpmath numbers at the
    working precision: the sums and the reads as mpc, and as mpf the tail's
    upper bound (``eval_tail``), the carried image ``prop_fn(n)``, the drift
    |c(N) - c(2N)| and the rounding charge of ``rounding_slack``, taken at
    ``prec`` bits (by default the working precision); the cutoff from the
    same ladder and rules as ``choose_cutoff``.  Returns (constant,
    residual, cutoff)."""
    ladder = summod._matching_cutoffs()
    best_n = best = start = None
    for n in ladder:
        score = summod.eval_tail(tail, n) + (prop_fn(n) if prop_fn else 0)
        if score <= tol / 4:
            start = n
            break
        if best is None or score < best:
            best_n, best = n, score
    if start is None and prop_fn is None:
        raise PrecisionError("predicted matching residual stays above tol")
    for n in ladder[ladder.index(start or best_n):]:
        sums = sums_fn((n, 2 * n))
        approx2 = approx_fn(2 * n)
        c1, c2 = sums[n] - approx_fn(n), sums[2 * n] - approx2
        drift = abs(c1 - c2)
        prop = prop_fn(2 * n) if prop_fn is not None else mp.mpf(0)
        if drift <= 10 * tol + 16 * prop:
            residual = (max(drift, summod.eval_tail(tail, 2 * n)) + prop + mp.ldexp(
                2 * n * (1 + abs(sums[2 * n]) + abs(approx2)), 10 - (prec or mp.mp.prec)))
            return c2, residual, n
    raise PrecisionError(f"constant matching unstable at N = {n}")


def per_term_sums(e):
    """A ``sums_fn`` of ``asymptotics.partial_sum`` for u = e exactly: the
    raw sums (re, im, 3W), W = e.scale, of sum_terms c t_N, each t_N of
    ``summation.char_partial_sums`` in a pass of its own, each product of c
    at 2^W and t_N at 2^P shifted to 2^(3W)."""
    W = e.scale

    def sums_fn(cutoffs):
        total = dict.fromkeys(cutoffs, (0, 0))
        for xi, coeffs in e._parts.items():
            for (l, m), (cr, ci) in coeffs.items():
                state = NestedPass(max(cutoffs))
                summod.char_partial_sums(xi, l, m, cutoffs, state)
                for n, (x, y) in total.items():
                    re, im, P = state.raw_sum(n)
                    total[n] = (x + summod._shift(cr * re - ci * im, 2 * W - P),
                                y + summod._shift(cr * im + ci * re, 2 * W - P))
        return {n: (x, y, 3 * W) for n, (x, y) in total.items()}

    return sums_fn


def primitive_roots(max_order: int):
    """Strategy for e^{2 pi i p/q}, 2 <= q <= max_order, any unit p mod q."""
    return st.integers(2, max_order).flatmap(
        lambda q: st.sampled_from([p for p in range(1, q) if math.gcd(p, q) == 1])
        .map(lambda p: RotationNumber(p, q)))


def _mpmath_pass(z, exps, kvec, cutoffs) -> dict:
    """The forward pass in mpmath numbers at the working precision."""
    r = len(z)
    tables = [zj.power_values() if isinstance(zj, RotationNumber) else None
              for zj in z]
    gen = [None if isinstance(zj, RotationNumber) else mp.mpc(zj) for zj in z]
    running, gen_pows = [mp.mpc(0)] * r + [mp.mpc(1)], [mp.mpc(1)] * r
    need_log = any(kvec) or not all(isinstance(e, int) for e in exps)
    want = set(cutoffs)
    top = cutoffs[-1]
    out = {}
    for n in range(1, top + 1):
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
    return out


def split_reference(n: int, primes: list, cap: int) -> list:
    """``summod._split`` by trial division, called for every n from 2 up:
    ``primes`` lists the primes up to min(n - 1, cap) and gains n when n <=
    cap is prime.  Up to the cap: [p, n/p], p the smallest prime factor, or
    [n] for a prime; past it, the smallest primes come out until the
    cofactor is <= cap."""
    m, out = n, []
    for p in primes:
        if p * p > m:
            break
        while m % p == 0:
            out.append(p)
            m //= p
            if n <= cap or m <= cap:
                return out + [m]
    if n <= cap:
        primes.append(n)
    return out + [m]


def fixed_point_pass(z, s, kvec, cutoffs, top: int):
    """The kernel's fixed-point pass one n at a time, one-shot from n = 1 for
    a ``NestedPass(top)``: (P, {N: (re, im)} with the scaled sum of every
    level at each cutoff, the n^-s tables).  Every weight is
    z_j^n (log n)^k_j n^-s_j with the floors of ``nested_sums``, and each
    level adds its weight times the level inside it.  The n^-s tables hold
    at index n the (re, im) of n^-s_j, from n = 1 up to ``SIEVE_CAP``."""
    z = tuple(z)
    exps = [summod._exponent(s_j) for s_j in s]
    P = mp.mp.prec + summod._guard_bits(exps, kvec, top)
    P += -P % 64
    cap = summod.SIEVE_CAP
    tables = [None if isinstance(a, int) else [None, (1 << P, 0)] for a in exps]
    fixed = [None if isinstance(a, int) else summod._fixed_exponent(a, P, top) for a in exps]
    levels = []
    for zj in z:
        if isinstance(zj, RotationNumber):
            levels.append((summod._fixed_power_table(zj, P), zj.order, None))
        else:
            levels.append((None, None, summod._fixed_pair(mp.mpc(zj), P)))
    r = len(z)
    re, im, powers = [0] * r, [0] * r, [(1 << P, 0)] * r
    kmax = max(kvec)
    lpow = [1 << P] * (kmax + 1)
    last = cutoffs[-1]
    logs = summod._logs(P, last) if kmax else ()
    want, hits = set(cutoffs), {}
    for n in range(1, last + 1):
        if n in want:
            hits[n] = (re[:], im[:])
        if n == last:
            break
        if kmax:
            log_n = logs[n] >> 64 if n < len(logs) else summod.log_int_fixed(n, P)
            for k in range(1, kmax + 1):
                lpow[k] = log_n if k == 1 else (lpow[k - 1] * log_n) >> P
        if any(tables) and n > 1:
            factors = summod._split(n)
        for j, ((table, q, w), k, a) in enumerate(zip(levels, kvec, exps)):
            if table is not None:
                c, s_ = table[n % q]
            else:
                x, y = powers[j]
                c = (x * w[0] - y * w[1]) >> P
                s_ = (x * w[1] + y * w[0]) >> P
                powers[j] = (c, s_)
            if k:
                c = (c * lpow[k]) >> P
                s_ = (s_ * lpow[k]) >> P
            if tables[j] is not None:
                sieve = tables[j]
                if n < len(sieve):
                    x, y = sieve[n]
                else:
                    x = None
                    for f in factors:
                        u, v = (sieve[f] if f < len(sieve)
                                else summod._power_entry(f, fixed[j], P))
                        x, y = (u, v) if x is None else ((x * u - y * v) >> P,
                                                         (x * v + y * u) >> P)
                    if n <= cap:
                        sieve.append((x, y))
                c, s_ = (c * x - s_ * y) >> P, (c * y + s_ * x) >> P
            elif a > 0:
                c //= n ** a
                s_ //= n ** a
            elif a < 0:
                c *= n ** -a
                s_ *= n ** -a
            if j == r - 1:
                re[j] += c
                im[j] += s_
            else:
                x, y = re[j + 1], im[j + 1]
                re[j] += (c * x - s_ * y) >> P
                im[j] += (c * y + s_ * x) >> P
    return P, hits, tables


def _mpq(q: Fraction):
    return mp.make_mpf(from_rational(q.numerator, q.denominator, mp.mp.prec, round_nearest))


def engine_table_fractions(m: int, k: int) -> tuple:
    """``summation._engine_table(m, k)`` from the polynomials as
    ``RationalPolynomial``s: each x^e t^q coefficient of fac Q(a (x - t) + c)
    a ``Fraction``, Q(x + c) from ``compose_affine``, then put over the lcm
    of the denominators."""
    poly, a, fac, shifts = ((eulerpoly.bernoulli_polynomial(m), 1,
                             Fraction((-1) ** (m + 1), math.factorial(m)), (1, 0)) if k == 1 else
                            (eulerpoly.gen_euler_polynomial(k, m - 1), -1,
                             Fraction(1, math.factorial(m - 1)), (0, 1)))
    shifted = [[[fac * p * a ** (e + q) * math.comb(e + q, e) * (-1) ** q
                 for q, p in enumerate(coeffs[e:])] for e in range(len(coeffs))]
               for coeffs in ((poly.compose_affine(1, c) if c else poly).coeffs for c in shifts)]
    dc = math.lcm(*(x.denominator for table in shifted for row in table for x in row))
    ends = ([(j, *[eulerpoly.bernoulli_number(j + 1) / math.factorial(j + 1)] * 2)
             for j in range(m)] if k == 1 else
            [(j, *(-Fraction(g(k, j)) / math.factorial(j)
                   for g in (eulerpoly.gen_euler_at_zero, eulerpoly.gen_euler_at_one)))
             for j in range(1, m)])
    de = math.lcm(*(x.denominator for _, *row in ends for x in row))
    return ([[[int(x * dc) for x in row] for row in table] for table in shifted],
            tuple((j, int(e0 * de), int(e1 * de)) for j, e0, e1 in ends), de, dc)


def point_value(f, t):
    """f(t), t >= 1 an mpf or int, straight from its terms with a log of its
    own at 100 bits above the working precision, and for each part (real,
    imaginary) the bound that ``ScaleFunction._value_at`` derives for its error:
    2^-prec |part of f(t)| + 2^-(prec+8) S, S the sum of the absolute values
    of that part of the terms.  Returns (f(t), (bound of re, bound of im))."""
    prec = mp.mp.prec
    with mp.workprec(prec + 100):
        t = mp.mpf(t)
        terms = [c * mp.log(t) ** l * t ** -m for l, m, c in f.terms()]
        value = mp.mpc(mp.fsum(v.real for v in terms), mp.fsum(v.imag for v in terms))
        bounds = tuple(mp.mpf(2) ** -prec * abs(total)
                       + mp.mpf(2) ** -(prec + 8) * mp.fsum(abs(p) for p in parts)
                       for total, parts in ((value.real, [v.real for v in terms]),
                                            (value.imag, [v.imag for v in terms])))
    return value, bounds


def _exact(v) -> Fraction:
    sign, man, exp, _ = v._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _table_prec(poly, n: int) -> int:
    """The precision of an engine's antiderivative table for ``poly`` to n:
    (deg + 1) bit_length(n) bits above the working precision."""
    return mp.mp.prec + (poly.degree + 1) * n.bit_length()


def _poly_times_scale_integral(poly_coeffs, antis, a: int, b: int, wp: int):
    """int_a^b p(x) g(x) dx for an exact-rational polynomial p, given the
    antiderivatives ``antis[e]`` of x^e g(x): per part the exact rational
    sum of p_e (A_e(b) - A_e(a)) over the values ``_value_at`` gives at
    ``wp`` bits, rounded once to the working precision."""
    with mp.workprec(wp):
        values = [(c, anti._value_at(a), anti._value_at(b))
                  for c, anti in zip(poly_coeffs, antis) if c]
    parts = []
    for part in ("real", "imag"):
        exact = sum((c * (_exact(getattr(high, part)) - _exact(getattr(low, part)))
                     for c, low, high in values), Fraction(0))
        parts.append(mp.make_mpf(from_rational(exact.numerator, exact.denominator,
                                               mp.mp.prec, round_nearest)))
    return mp.mpc(*parts)


def em_remainder(f, n: int, m: int):
    """The remainder_integral block of ``euler_maclaurin(f, n, m)``: B_m(x - i)
    composed exactly on each [i, i+1) and integrated against f^(m) through
    its antiderivatives at both ends of the interval."""
    g = f
    for _ in range(m):
        g = g.differentiate()
    bpoly = eulerpoly.bernoulli_polynomial(m)
    wp = _table_prec(bpoly, n)
    with mp.workprec(wp):
        antis = [g.times_power(e).antiderivative() for e in range(bpoly.degree + 1)]
    remainder = mp.mpc(0)
    for i in range(1, n):
        shifted = bpoly.compose_affine(1, -i)
        remainder += _poly_times_scale_integral(shifted.coeffs, antis, i, i + 1, wp)
    remainder *= mp.mpf((-1) ** (m + 1)) / math.factorial(m)
    return remainder


def geb_blocks(f, k: int, zeta: RotationNumber, n: int, m: int):
    """(step_corrections, remainder_integral) of ``gen_euler_boole``: each
    twisted sum of f^(j) point by point, and E_{k,m-1}(1 + i - x) composed
    exactly on each (i, i+1) as in ``em_remainder``."""
    zp = zeta.power_values()
    derivs = [f]
    for _ in range(m):
        derivs.append(derivs[-1].differentiate())
    vw = eulerpoly.inner_product(k, zeta, 1, k - 1)
    epoly = eulerpoly.gen_euler_polynomial(k, m - 1)
    wp = _table_prec(epoly, n)
    corr = mp.mpc(0)
    for j in range(1, m):
        e1 = eulerpoly.gen_euler_at_one(k, j)
        e0 = eulerpoly.gen_euler_at_zero(k, j)
        coef = zp[1 % k] * _mpq(e1) - _mpq(e0)
        if coef != 0:
            with mp.workprec(wp):
                values = [derivs[j]._value_at(a) for a in range(k, n)]
            twisted = sum((zp[a % k] * v for a, v in enumerate(values, k)), mp.mpc(0))
            corr += mp.mpf(1) / math.factorial(j) * coef * twisted
    corr *= vw
    with mp.workprec(wp):
        antis = [derivs[m].times_power(e).antiderivative() for e in range(epoly.degree + 1)]
    remainder = mp.mpc(0)
    for i in range(k - 1, n):
        shifted = epoly.compose_affine(-1, 1 + i)
        remainder += zp[(i + 1) % k] * _poly_times_scale_integral(
            shifted.coeffs, antis, i, i + 1, wp)
    remainder *= vw / math.factorial(m - 1)
    return corr, remainder


def end_blocks(f, k: int, zeta: RotationNumber, n: int, m: int) -> dict:
    """The engines' end-only blocks point by point, {engine: {name: value}}:
    ``euler_maclaurin``'s integral F(n) - F(1) and derivative boundary
    sum_{j<=m} B_j/j! (f^(j-1)(n) - f^(j-1)(1)), and ``gen_euler_boole``'s
    derivative boundary <v,w> sum_{j<m} (E_{k,j}(1) f^(j)(k-1) - zeta^n
    E_{k,j}(0) f^(j)(n))/j!, its head (sum_{t<k} f(t) sum_{1<=p<=t} zeta^p +
    zeta^n sum_{t<k-1} f(n+t) sum_{t<p<k} zeta^p)/k and its lower and upper
    steps sum_{i<k-1} <v_{1,i}, w_{1,i}> (f(i+1) - f(i)) and zeta^n
    sum_{1<i<k} <v_{i,k-1}, w_{i,k-1}> (f(n+i-1) - f(n+i-2)), with F from
    ``ScaleFunction.antiderivative``, f^(j) from ``differentiate``, the inner
    products from their definition (``eulerpoly.inner_product``) and every
    value from ``point_value``.  The blocks are linear in f, so each is
    summed term by term: a difference such as f(n) - f(1) taken of all of f
    at once loses a small term to a large one (1 + c/x, |c| ~ 1e-243)."""
    from mplreg.scalefun import ScaleFunction
    blocks = [_term_end_blocks(ScaleFunction([t]), k, zeta, n, m) for t in f.terms()]
    return {engine: {name: mp.fsum(b[engine][name] for b in blocks) for name in names}
            for engine, names in _term_end_blocks(ScaleFunction(), k, zeta, n, m).items()}


def _term_end_blocks(f, k: int, zeta: RotationNumber, n: int, m: int) -> dict:
    """``end_blocks`` of f taken whole, point by point."""
    derivs = [f]
    for _ in range(m):
        derivs.append(derivs[-1].differentiate())

    def at(g, t):
        return point_value(g, t)[0]

    anti = f.antiderivative()
    em = mp.fsum(_mpq(eulerpoly.bernoulli_number(j) / math.factorial(j))
                 * (at(derivs[j - 1], n) - at(derivs[j - 1], 1)) for j in range(1, m + 1))
    zp = zeta.power_values()
    zn = zp[n % k]
    gb = mp.fsum((_mpq(eulerpoly.gen_euler_at_one(k, j)) * at(derivs[j], k - 1)
                  - zn * _mpq(eulerpoly.gen_euler_at_zero(k, j)) * at(derivs[j], n))
                 / math.factorial(j) for j in range(1, m))
    head = (mp.fsum(at(f, t) * mp.fsum(zp[1:t + 1]) for t in range(1, k))
            + zn * mp.fsum(at(f, n + t) * mp.fsum(zp[t + 1:]) for t in range(k - 1))) / k
    lower = mp.fsum(eulerpoly.inner_product(k, zeta, 1, i) * (at(f, i + 1) - at(f, i))
                    for i in range(1, k - 1))
    upper = zn * mp.fsum(eulerpoly.inner_product(k, zeta, i, k - 1)
                         * (at(f, n + i - 1) - at(f, n + i - 2)) for i in range(2, k))
    return {"euler_maclaurin": {"integral": at(anti, n) - at(anti, 1),
                                "derivative_boundary": em},
            "gen_euler_boole": {"derivative_boundary": eulerpoly.inner_product(k, zeta, 1, k - 1)
                                * gb, "head": head, "lower_steps": lower,
                                "upper_steps": upper}}


def per_term_translation(z, s, M: int, N: int, tol) -> TranslationReport:
    """``verify_translation`` with every tail of the identity summed in a
    kernel pass of its own: one per Pochhammer term, one for the (z_1 - 1)
    tail, one for the merged tail, one for each head and one for each term
    w(n) of the bound
    W = sum |w(n)|; the same stop rule, with the coefficients and their
    bounds b_k as Pochhammer symbols."""
    entries = list(z.entries) if isinstance(z, ZVector) else list(z)
    svals = [mp.mpc(c) for c in s]
    r = len(entries)

    def zval(entry):
        return entry.value() if isinstance(entry, RotationNumber) else mp.mpc(entry)

    def tail(zs, ss, MM, NN):
        return brute_partial_sum(zs, ss, NN, MM)

    def head(zs, ss, NN):
        return brute_partial_sum(zs, ss, NN)

    z1 = zval(entries[0])
    if r == 1:
        shift = svals[0]
        lhs = ((z1 - 1) * tail(entries, [shift - 1], M, N)
               + z1 ** N / mp.mpf(N - 1) ** (shift - 1)
               - z1 ** M / mp.mpf(M - 1) ** (shift - 1))
    else:
        e1 = entries[0]
        is_one = e1.is_one() if isinstance(e1, RotationNumber) else z1 == 1
        shift = svals[0] + (0 if is_one else 1)
        if isinstance(e1, RotationNumber) and isinstance(entries[1], RotationNumber):
            z12 = e1 * entries[1]
        else:
            z12 = z1 * zval(entries[1])
        merged = [z12] + entries[2:]
        merged_s = [shift + svals[1] - 1] + svals[2:]
        rest, rest_s = entries[1:], svals[1:]
        # read off a pass, since the merged tail t_{M-1,N} is empty at M = N + 1
        sums = nested_sums(merged, merged_s, (0,) * len(merged), (N, M - 1))
        lhs = (z1 * (sums[M - 1] - sums[N])
               + (z1 - 1) * tail(entries, [shift - 1] + svals[1:], M, N)
               + z1 ** N / mp.mpf(N - 1) ** (shift - 1) * head(rest, rest_s, N)
               - z1 ** M / mp.mpf(M - 1) ** (shift - 1) * head(rest, rest_s, M - 1))
    W = sum(abs(tail(entries, [shift] + svals[1:], n + 1, n)) for n in range(N, M))
    a = abs(shift - 1)
    rhs = mp.mpc(0)
    k = 0
    while True:
        term = (pochhammer(shift - 1, k + 1) / mp.factorial(k + 1)
                * tail(entries, [shift + k] + svals[1:], M, N))
        rhs += term
        rho = max(1, (a + k + 2) / (k + 3)) / N
        if rho < 1 and (W * pochhammer(a, k + 2).real / mp.factorial(k + 2)
                        / mp.mpf(N) ** (k + 1) / (1 - rho)) < tol / 100:
            break
        k += 1
    return TranslationReport(residual=abs(lhs - rhs), lhs=lhs, rhs=rhs,
                             terms_used=k + 1)


def series_reference(z, s, M: int, N: int, bound):
    """The right side of the translation identity at (z, s), summed on until
    the derived bound of the terms it drops is below ``bound``; the terms
    w(n) come from the same kernel pass as in ``verify_translation``, each
    coefficient and its bound b_k are Pochhammer symbols, and each tail
    T_k = sum w(n) n^-k takes its powers of n afresh."""
    entries = list(z.entries) if isinstance(z, ZVector) else list(z)
    svals = [mp.mpc(c) for c in s]
    shift = svals[0] + (_delta(entries[0]) if len(entries) > 1 else 0)
    sums = nested_sums(entries, [shift] + svals[1:], (0,) * len(entries),
                       range(N, M + 1))
    w = [sums[n + 1] - sums[n] for n in range(N, M)]
    W = sum(abs(v) for v in w)
    a = abs(shift - 1)
    total = mp.mpc(0)
    k = 0
    while True:
        T = sum((v * mp.mpf(n) ** -k for n, v in enumerate(w, N)), mp.mpc(0))
        total += pochhammer(shift - 1, k + 1) / mp.factorial(k + 1) * T
        rho = max(1, (a + k + 2) / (k + 3)) / N
        if rho < 1 and (W * pochhammer(a, k + 2).real / mp.factorial(k + 2)
                        / mp.mpf(N) ** (k + 1) / (1 - rho)) < bound:
            return total
        k += 1


def translation_series(z, s, M: int, N: int, tol):
    """The right side of the translation identity at (z, s) as an mpc series
    at 64 bits above the working precision: the terms w(n) are the exact
    differences of the same kernel pass as in ``verify_translation``, each
    T_k = sum w(n) / n^k is summed in mpc, and the series stops by the same
    rule.  Returns (rhs, terms_used, bound), ``bound`` the rounding that
    ``verify_translation``'s integer series may add to its rhs: at each k
    |coef_k| times (M - N) sqrt 2 2^-P / (1 - 1/N) for its floored terms
    (each errs by < 1/(1 - 1/N) units of 2^-P in each part) and
    2^(3-prec) (k + 3) |T_k| for rounding T_k and coef_k, plus
    2^(1-prec) per step of the running sum."""
    entries = list(z.entries) if isinstance(z, ZVector) else list(z)
    svals = [mp.mpc(c) for c in s]
    shift = svals[0] + (_delta(entries[0]) if len(entries) > 1 else 0)
    state = NestedPass(M)
    nested_sums(entries, [shift] + svals[1:], (0,) * len(entries), range(N, M + 1), state)
    raw = [state.raw_sum(n) for n in range(N, M + 1)]
    P = raw[0][2]
    prec = mp.mp.prec
    with mp.workprec(prec + 64):
        w = [mp.mpc(mp.mpf((x1 - x0, -P)), mp.mpf((y1 - y0, -P)))
             for (x0, y0, _), (x1, y1, _) in zip(raw, raw[1:])]
        floors = mp.sqrt(2) * (M - N) * mp.mpf(2) ** -P / (1 - mp.mpf(1) / N)
        a = abs(shift - 1)
        coef = shift - 1
        dropped = sum(abs(v) for v in w) * a * (a + 1) / (2 * N)
        rhs, bound, mass = mp.mpc(0), mp.mpf(0), mp.mpf(0)
        k = 0
        while True:
            T = sum(w, mp.mpc(0))
            rhs += coef * T
            bound += abs(coef) * (floors + mp.mpf(2) ** (3 - prec) * (k + 3) * abs(T))
            mass += abs(coef * T)
            rho = max(1, (a + k + 2) / (k + 3)) / N
            if rho < 1 and dropped / (1 - rho) < tol / 100:
                break
            k += 1
            coef *= (shift - 1 + k) / (k + 1)
            dropped *= (a + k + 1) / ((k + 2) * N)
            w = [v / n for n, v in enumerate(w, N)]
        return rhs, k + 1, bound + mp.mpf(2) ** (1 - prec) * (k + 1) * mass
