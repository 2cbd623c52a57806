import collections
import contextlib
import itertools
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import mpmath as mp
from mpmath.libmp import from_rational, log_int_fixed, round_ceiling, round_nearest
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mplreg import eulerpoly
from mplreg.asymptotics import AsymptoticExpansion, DepthSpec, depth_expansion, partial_sum
from mplreg.errors import PrecisionError
from mplreg.polylog import DEFAULT_EVAL_TOL, eval_integer_point
from mplreg.rootsofunity import MINUS_ONE, ONE, RotationNumber, ZVector
from mplreg.scalefun import ScaleFunction
import mplreg.summation as summod
from mplreg.summation import (
    _quotient,
    euler_maclaurin,
    gen_euler_boole,
    nested_sums,
    term_sum_expansion,
)

from oracles import (_mpmath_pass, em_remainder, end_blocks, engine_table_fractions,
                     fixed_point_pass, geb_blocks, geometric_closed_form, geometric_coeffs,
                     geometric_tail_coeffs, mp_matching, nparts_chain, per_term_sums,
                     point_value, primitive_roots, rounding_slack, split_reference)
from test_eulerpoly import gen_euler_oracle


def feval(f: ScaleFunction, a: int):
    """Evaluate a scale function at an integer point, straight from its terms."""
    a = mp.mpf(a)
    return sum((c * mp.log(a) ** l * a ** (-m) for l, m, c in f.terms()), mp.mpc(0))


def brute_plain(f, n):
    return sum((feval(f, a) for a in range(1, n)), mp.mpc(0))


def brute_twisted(f, zeta, n):
    table = zeta.power_values()
    k = zeta.order
    return sum((table[a % k] * feval(f, a) for a in range(1, n)), mp.mpc(0))


class TestEulerMaclaurin:
    def test_constant_function_exact(self):
        f = ScaleFunction.term(0, 0, 1)
        for m in (1, 3):
            res = euler_maclaurin(f, 17, m)
            assert abs(res.total - 16) < mp.mpf(2) ** -100

    def test_inverse_square(self):
        f = ScaleFunction.term(0, 2)
        res = euler_maclaurin(f, 50, 4)
        err = abs(res.total - brute_plain(f, 50))
        assert err < mp.mpf("1e-25")
        assert err <= res.remainder_estimate

    def test_log(self):
        f = ScaleFunction.term(1, 0)
        res = euler_maclaurin(f, 30, 3)
        err = abs(res.total - brute_plain(f, 30))
        assert err < mp.mpf("1e-25")
        assert err <= res.remainder_estimate

    def test_validation(self):
        f = ScaleFunction.term(0, 2)
        with pytest.raises(ValueError):
            euler_maclaurin(f, 1, 3)
        with pytest.raises(ValueError):
            euler_maclaurin(f, 10, 0)

    def test_estimate_shrinks_with_order(self):
        f = ScaleFunction.term(0, 2)
        estimates = [euler_maclaurin(f, 40, m).remainder_estimate for m in (2, 4, 6)]
        assert estimates[2] < estimates[1] < estimates[0]


class TestGenEulerBoole:
    @pytest.mark.parametrize("k,num", [(2, 1), (3, 1), (4, 1), (5, 2)])
    def test_inverse_square_all_orders(self, k, num):
        zeta = RotationNumber(num, k)
        f = ScaleFunction.term(0, 2)
        res = gen_euler_boole(f, k, zeta, 25, 5)
        err = abs(res.total - brute_twisted(f, zeta, 25))
        assert err < mp.mpf("1e-25")
        assert err <= res.remainder_estimate

    def test_log_over_square_k4(self):
        zeta = RotationNumber(1, 4)
        f = ScaleFunction.term(1, 2)
        res = gen_euler_boole(f, 4, zeta, 40, 6)
        assert abs(res.total - brute_twisted(f, zeta, 40)) < mp.mpf("1e-25")

    @settings(max_examples=20, deadline=None)
    @example(terms=[(1, 2, 1.0, 0.0), (0, 1, 0.0, 1.0)], n=20, m=6, prec=128)
    @given(terms=st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 3),
                                    st.floats(-2, 2), st.floats(-1, 1)),
                          min_size=1, max_size=3),
           n=st.integers(2, 60), m=st.integers(1, 6), prec=st.sampled_from([53, 128, 256]))
    def test_corrections_vanish_at_k2(self, terms, n, m, prec):
        """E_{2,j}(0) + E_{2,j}(1) = 0, so the integer pass cancels the
        k = 2 corrections to an exact 0 without a special case."""
        with mp.workprec(prec):
            f = ScaleFunction([(l, mm, mp.mpc(re, im)) for l, mm, re, im in terms])
            blocks = dict(gen_euler_boole(f, 2, MINUS_ONE, n, m).boundary_terms)
        assert blocks["step_corrections"] == 0

    def test_corrections_active_for_k3(self):
        f = ScaleFunction.term(0, 2)
        res = gen_euler_boole(f, 3, RotationNumber(1, 3), 20, 6)
        blocks = dict(res.boundary_terms)
        assert abs(blocks["step_corrections"]) > mp.mpf("1e-6")

    def test_validation(self):
        f = ScaleFunction.term(0, 2)
        with pytest.raises(ValueError):
            gen_euler_boole(f, 4, MINUS_ONE, 20, 5)  # not primitive
        with pytest.raises(ValueError):
            gen_euler_boole(f, 3, RotationNumber(1, 3), 2, 5)  # n < k
        with pytest.raises(ValueError):
            gen_euler_boole(f, 3, RotationNumber(1, 3), 20, 0)

    def test_estimate_shrinks_with_order(self):
        f = ScaleFunction.term(0, 2)
        zeta = RotationNumber(1, 3)
        estimates = [gen_euler_boole(f, 3, zeta, 30, m).remainder_estimate
                     for m in (2, 4, 6)]
        assert estimates[2] < estimates[1] < estimates[0]

    def test_random_engine_vs_oracle(self):
        rng = random.Random(7)
        for trial in range(8):
            terms = [
                (rng.randint(0, 2), rng.randint(0, 3),
                 mp.mpc(rng.uniform(-2, 2), rng.uniform(-1, 1)))
                for _ in range(rng.randint(1, 3))
            ]
            f = ScaleFunction(terms)
            k = rng.randint(2, 5)
            num = rng.choice([a for a in range(1, k) if mp.libmp.gcd(a, k) == 1])
            zeta = RotationNumber(num, k)
            n = rng.randint(k + 3, 60)
            m = rng.randint(2, 6)
            res = gen_euler_boole(f, k, zeta, n, m)
            err = abs(res.total - brute_twisted(f, zeta, n))
            assert err <= res.remainder_estimate
            assert err < mp.mpf("1e-20")
            res_em = euler_maclaurin(f, n, m)
            err_em = abs(res_em.total - brute_plain(f, n))
            assert err_em <= res_em.remainder_estimate


def abs_mass(f: ScaleFunction, orders, lo: int, n: int):
    """sum over lo <= t <= n and j in ``orders`` of |f^(j)| term by term."""
    total = mp.mpf(0)
    for j in range(max(orders) + 1):
        if j in orders:
            total += mp.fsum(abs(c) * mp.log(t) ** l * mp.mpf(t) ** -mm
                             for l, mm, c in f.terms() for t in range(lo, n + 1))
        f = f.differentiate()
    return total


ENGINE_DRAWS = dict(terms=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                                             st.floats(-2, 2), st.floats(-1, 1)),
                                   min_size=1, max_size=3),
                    zeta=primitive_roots(6), n=st.integers(8, 60), m=st.integers(2, 6),
                    prec=st.sampled_from([128, 256]))


class TestEngineTables:
    """Every block comes from one pass of integer moment sums, rounded once
    per block.  The remainder and the corrections lie within their derived
    bound of the per-interval reference (``oracles.em_remainder``,
    ``oracles.geb_blocks``) run 64 bits higher, and that bound is at most
    2^(1-prec) (|block| + S), S the absolute mass of f^(m) (the remainder)
    or of f', ..., f^(m-1) (the corrections) over the integers of the pass;
    the end-only blocks, the twisted engine's head and step blocks among
    them, lie within theirs of the per-point reference
    (``oracles.end_blocks``).  The per-interval reference reads its values
    off ``_value_at``, which meets its error bound against mpmath's terms at
    100 more bits."""

    @settings(max_examples=25, deadline=None)
    @given(**ENGINE_DRAWS)
    def test_blocks_match_per_interval_reference(self, terms, zeta, n, m, prec):
        k = zeta.order
        with mp.workprec(prec):
            f = ScaleFunction([(l, mm, mp.mpc(re, im)) for l, mm, re, im in terms])
            for t in range(1, 4):
                value, (ref, bounds) = f._value_at(t), point_value(f, t)
                assert abs(value.real - ref.real) <= bounds[0]
                assert abs(value.imag - ref.imag) <= bounds[1]

            em = euler_maclaurin(f, n, m)
            gb = gen_euler_boole(f, k, zeta, n, m)
            with mp.workprec(prec + 64):
                refs = {"euler_maclaurin": {"remainder_integral": em_remainder(f, n, m)},
                        "gen_euler_boole": dict(zip(("step_corrections", "remainder_integral"),
                                                    geb_blocks(f, k, zeta, n, m)))}
            for engine, res, kk, z, lo in (("euler_maclaurin", em, 1, ONE, 1),
                                           ("gen_euler_boole", gb, k, zeta, k - 1)):
                blocks = dict(res.boundary_terms)
                assert res.total == sum(blocks.values(), mp.mpc(0))
                moments = summod._moment_blocks(f, kk, z, n, m)
                assert set(refs[engine]) <= {name for name, _, _ in moments}
                for name, value, bound in moments:
                    assert blocks[name] == value
                    if name not in refs[engine]:  # an end-only block, checked per point
                        continue
                    assert abs(value - refs[engine][name]) <= bound
                    mass = abs_mass(f, {m} if name == "remainder_integral" else set(range(1, m)),
                                    lo, n)
                    assert bound <= mp.mpf(2) ** (1 - prec) * (abs(value) + mass)

    @settings(max_examples=25, deadline=None)
    @given(**ENGINE_DRAWS)
    def test_end_blocks_match_per_point_reference(self, terms, zeta, n, m, prec):
        k = zeta.order
        with mp.workprec(prec):
            f = ScaleFunction([(l, mm, mp.mpc(re, im)) for l, mm, re, im in terms])
            got = {"euler_maclaurin": summod._moment_blocks(f, 1, ONE, n, m),
                   "gen_euler_boole": summod._moment_blocks(f, k, zeta, n, m)}
            with mp.workprec(prec + 64):
                refs = end_blocks(f, k, zeta, n, m)
            for engine, ref in refs.items():
                moments = {name: (value, bound) for name, value, bound in got[engine]}
                for name, want in ref.items():
                    value, bound = moments[name]
                    assert abs(value - want) <= bound, (engine, name)

    @pytest.mark.parametrize("prec", [53, 128])
    @pytest.mark.parametrize("k, p, n", [(3, 1, 16), (5, 2, 16), (7, 3, 40)])
    def test_head_and_steps_carry_their_floors(self, k, p, n, prec):
        # f = (log x) x^-30 + 1: past t = 1 the values are far below 2^-P, so
        # the floors of X(t), not the relative rounding, bound the upper
        # steps; the constant's key is exact and charges nothing
        with mp.workprec(prec):
            f = ScaleFunction([(1, 30, mp.mpc(1)), (0, 0, mp.mpc(1))])
            zeta = RotationNumber(p, k)
            got = {name: (v, b) for name, v, b in summod._moment_blocks(f, k, zeta, n, 4)}
            with mp.workprec(prec + 64):
                refs = end_blocks(f, k, zeta, n, 4)["gen_euler_boole"]
                for name in ("head", "lower_steps", "upper_steps"):
                    value, bound = got[name]
                    assert abs(value - refs[name]) <= bound, name

    def test_engines_read_no_derivative_values(self, monkeypatch):
        """Both engines read f only through ``terms()``: they never evaluate,
        differentiate or integrate a ScaleFunction."""
        def refuse(*args):
            raise AssertionError("the engines read f, f^(j) and F off the moment pass")

        f = ScaleFunction([(1, 2, 1), (0, -1, mp.mpc(0.5, -1)), (2, 0, 0.25)])
        for name in ("_value_at", "evaluate", "differentiate", "antiderivative"):
            monkeypatch.setattr(ScaleFunction, name, refuse)
        assert euler_maclaurin(f, 30, 4).remainder_estimate < mp.inf
        for zeta in (MINUS_ONE, RotationNumber(1, 3), RotationNumber(3, 5), RotationNumber(5, 12)):
            assert gen_euler_boole(f, zeta.order, zeta, 30, 4).remainder_estimate < mp.inf

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 9), k=st.integers(1, 12), l=st.integers(0, 3), mu=st.integers(-1, 4))
    def test_tables_equal_their_fraction_references(self, m, k, l, mu):
        # the integer rows give the table, its moment weights and the sup
        # bound that Fractions and compose_affine give, bit for bit
        want = engine_table_fractions(m, k)
        assert summod._engine_table(m, k) == want
        weights = summod._moment_weights(l, mu, m, k)
        with mock.patch.object(summod, "_engine_table", lambda *args: want):
            assert weights == summod._moment_weights.__wrapped__(l, mu, m, k)
        if k > 1:
            n = m - 1
            assert eulerpoly.sup_bound(k, n) == min(
                gen_euler_oracle(k, n).coeff_abs_sum(),
                2 * Fraction(k ** (n + 1), n + 1) * eulerpoly.bernoulli_sup_bound(n + 1))

    def test_cold_engines_build_no_polynomial(self, monkeypatch):
        """From cleared memos both engines run on the integer rows alone:
        neither builds a ``RationalPolynomial``."""
        def refuse(*args):
            raise AssertionError("the engines read the integer rows, not a RationalPolynomial")

        for memo in (summod._engine_table, summod._moment_weights, eulerpoly._bernoulli_rows,
                     eulerpoly._euler_rows, eulerpoly.bernoulli_number,
                     eulerpoly.bernoulli_polynomial, eulerpoly.gen_euler_polynomial,
                     eulerpoly.gen_euler_at_zero, eulerpoly.gen_euler_at_one,
                     eulerpoly.sup_bound):
            memo.cache_clear()
        monkeypatch.setattr(eulerpoly.RationalPolynomial, "__init__", refuse)
        f = ScaleFunction([(1, 2, 1), (0, -1, mp.mpc(0.5, -1)), (2, 0, 0.25)])
        for m in (1, 4, 7):
            assert mp.isfinite(euler_maclaurin(f, 30, m).total)
            for k in range(2, 13):
                assert mp.isfinite(gen_euler_boole(f, k, RotationNumber(1, k), 30, m).total)


class TestEngineEstimates:
    """Both engines against brute sums at 100 more bits, in verify's ranges
    at 53 to 512 bits: the error is within ``remainder_estimate``, whose
    rounding part is now derived.  The draws reach k = 2, where the
    correction coefficient vanishes, roots of order up to 12, whose head and
    step weights wrap around mod k, and terms with m <= 0, which grow."""

    @settings(max_examples=40, deadline=None)
    @example(terms=[(0, -2, 1.5, -0.5), (1, 0, -1.0, 0.25)], zeta=MINUS_ONE, n=40, m=4, prec=53)
    @example(terms=[(0, 0, -4.0, 0.0), (0, -2, 1.0, 0.0)], zeta=RotationNumber(1, 3), n=20,
             m=3, prec=128)
    @given(terms=st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 3),
                                    st.floats(-2, 2), st.floats(-1, 1)),
                          min_size=1, max_size=3),
           zeta=primitive_roots(12), n=st.integers(8, 50), m=st.integers(2, 6),
           prec=st.sampled_from([53, 128, 256, 512]))
    def test_error_within_estimate(self, terms, zeta, n, m, prec):
        k = zeta.order
        n = max(n, k)
        with mp.workprec(prec):
            f = ScaleFunction([(l, mm, mp.mpc(re, im)) for l, mm, re, im in terms])
            em = euler_maclaurin(f, n, m)
            gb = gen_euler_boole(f, k, zeta, n, m)
        with mp.workprec(prec + 100):
            assert abs(em.total - brute_plain(f, n)) <= em.remainder_estimate
            assert abs(gb.total - brute_twisted(f, zeta, n)) <= gb.remainder_estimate

    def test_exact_cancellation_within_estimate(self):
        # a constant f over three full periods of a fifth root sums to
        # exactly 0, so the estimate must bound the total itself; at 53 bits
        # it lies below the rounding of a reference at 64 more bits
        # (the draw of ``mplreg verify --suite summation --prec 53 --seed 2``)
        with mp.workprec(53):
            f = ScaleFunction([(0, 0, mp.mpc("0.6433139946280555", "-0.36738814654348162")),
                               (0, 0, mp.mpc("-0.20871255432339542", "0.74952608269593468"))])
            res = gen_euler_boole(f, 5, RotationNumber(4, 5), 16, 6)
            assert abs(res.total) <= res.remainder_estimate < mp.mpf(2) ** -100

    @settings(max_examples=40, deadline=None)
    # a coefficient far below 1, whose moduli at a scale fixed by prec alone
    # were rounded up by 16 units past the cap
    @example(terms=[(2, 1, 0.0, 2.09e-251)], n=31, m=1, prec=128)
    @given(terms=st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 3),
                                    st.floats(-2, 2), st.floats(-1, 1)),
                          min_size=1, max_size=3),
           n=st.integers(2, 50), m=st.integers(1, 6), prec=st.sampled_from([53, 128, 512]))
    def test_beyond_bounds_the_abs_tail(self, terms, n, m, prec):
        # the integer tail of the remainder past n is at or above
        # ``ScaleFunction.abs_tail`` of f^(m) at n, summed at prec + 64 bits,
        # and within a relative 2^(4-prec) of it
        with mp.workprec(prec):
            f = ScaleFunction([(l, mm, mp.mpc(re, im)) for l, mm, re, im in terms])
            got = summod._beyond(f, m, n, mp.mpf(1))
        with mp.workprec(prec + 64):
            g = f
            for _ in range(m):
                g = g.differentiate()
            tail = g.abs_tail()
            if tail is None:
                assert got == mp.inf
                return
            want = mp.fsum(c.real * mp.log(n) ** l * mp.mpf(n) ** -e for l, e, c in tail.terms())
            assert want <= got <= want * (1 + mp.ldexp(1, 4 - prec)) + mp.ldexp(1, -prec - 60)


class TestTermSumExpansion:
    def test_alternating_constant(self):
        res = term_sum_expansion(MINUS_ONE, 0, 0, 4)
        assert abs(res.regularised_value() + mp.mpf("0.5")) < mp.mpf("1e-24")
        assert abs(res.coefficient(MINUS_ONE, 0, 0) + mp.mpf("0.5")) < mp.mpf("1e-24")

    def test_alternating_log(self):
        res = term_sum_expansion(MINUS_ONE, 1, 0, 4)
        assert abs(res.regularised_value() - mp.log(mp.pi / 2) / 2) < mp.mpf("1e-24")
        assert abs(res.coefficient(MINUS_ONE, 1, 0) + mp.mpf("0.5")) < mp.mpf("1e-24")

    def test_basel(self):
        res = term_sum_expansion(ONE, 0, 2, 4)
        assert abs(res.regularised_value() - mp.pi ** 2 / 6) < mp.mpf("1e-24")
        assert abs(res.coefficient(ONE, 0, 1) + 1) < mp.mpf("1e-24")

    def test_euler_mascheroni_and_log_term(self):
        # m = 1: the antiderivative contributes (log n)^(l+1)/(l+1)
        for l in (0, 1, 2):
            res = term_sum_expansion(ONE, l, 1, 4)
            got = res.coefficient(ONE, l + 1, 0)
            assert abs(got - mp.mpf(1) / (l + 1)) < mp.mpf("1e-24")
        gamma = term_sum_expansion(ONE, 0, 1, 4).regularised_value()
        assert abs(gamma - mp.euler) < mp.mpf("1e-24")

    def test_order_bounds(self):
        # order >= min(0, m) for twisted, >= min(0, m-1) for plain
        for m in (-2, 0, 1, 3):
            res = term_sum_expansion(MINUS_ONE, 0, m, 4)
            assert res.order() >= min(0, m)
            res2 = term_sum_expansion(ONE, 0, m, 4)
            assert res2.order() >= min(0, m - 1)

    @pytest.mark.parametrize("num,den,l,m", [
        (1, 2, 0, 0), (1, 2, 1, 2), (1, 3, 0, 1), (1, 4, 1, 0), (2, 3, 0, -1),
        (1, 6, 0, 2), (5, 6, 1, 1),
    ])
    def test_twisted_coefficients_against_telescoping_oracle(self, num, den, l, m):
        xi = RotationNumber(num, den)
        A = 5
        res = term_sum_expansion(xi, l, m, A)
        want = geometric_tail_coeffs(xi.value(), l, m, A)
        seen = set()
        for (char, l2, m2), c in res.items():
            if char == ONE and (l2, m2) == (0, 0):
                continue  # the matched constant is not part of the xi^n-block
            assert char == xi
            ref = want.get((l2, m2), mp.mpc(0))
            assert abs(c - ref) < mp.mpf("1e-22")
            seen.add((l2, m2))
        for key, ref in want.items():
            if key not in seen:
                assert abs(ref) < mp.mpf("1e-22")

    def test_empirical_residual(self):
        cases = [(MINUS_ONE, 0, 2), (RotationNumber(1, 3), 1, 1), (ONE, 1, 2)]
        for xi, l, m in cases:
            A = 5
            res = term_sum_expansion(xi, l, m, A)
            from mplreg.summation import char_partial_sums
            sums = char_partial_sums(xi, l, m, (1000, 10000))
            scaled = []
            for n in (1000, 10000):
                resid = abs(sums[n] - res.evaluate(n))
                scaled.append(resid * mp.mpf(n) ** A / mp.log(n) ** (l + A + 1))
            assert scaled[1] <= max(4 * scaled[0], mp.mpf("1e-20"))

    def test_match_residual_reported(self):
        res = term_sum_expansion(RotationNumber(1, 5), 0, 1, 3)
        assert res.residual_bound < mp.mpf("1e-24")

    def test_precision_failure_when_tolerance_unreachable(self, monkeypatch):
        import mplreg.summation as summod

        monkeypatch.setattr(summod, "MATCH_CEILING", 16000)
        saved = mp.mp.prec
        try:
            mp.mp.prec = 30  # drown the matching in rounding noise
            with pytest.raises(PrecisionError):
                term_sum_expansion(MINUS_ONE, 1, 0, 8, tol=mp.mpf("1e-40"))
        finally:
            mp.mp.prec = saved

    def test_unreachable_tolerance_fails_before_summing(self, monkeypatch):
        def no_sums(*args):
            raise AssertionError("summed although the tolerance is unreachable")

        monkeypatch.setattr(summod, "nested_sums", no_sums)
        with pytest.raises(PrecisionError, match="precision floor"):
            term_sum_expansion(MINUS_ONE, 1, 0, 8, tol=mp.mpf("1e-40"))
        # the floor at 128 bits is 2^-108; a tolerance just above it passes
        assert (summod.resolve_tol(mp.mpf(2) ** -107, summod.DEFAULT_MATCH_TOL)
                == mp.mpf(2) ** -107)

    def test_unreachable_ladder_fails_before_summing(self, monkeypatch):
        # at order 65,537 no ladder point's predicted tail reaches tol/4 and
        # the innermost level carries nothing: PrecisionError before a pass
        def no_sums(*args):
            raise AssertionError("summed although no cutoff can reach the tolerance")

        monkeypatch.setattr(summod, "nested_sums", no_sums)
        with pytest.raises(PrecisionError, match="up to cutoff 1024000"):
            eval_integer_point(ZVector.parse("1/65537"), (1,))

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(st.just(ONE), primitive_roots(60)), st.integers(0, 2),
           st.integers(-2, 3), st.sampled_from([53, 128, 256]))
    def test_against_partial_sum_on_the_per_term_oracle(self, xi, l, m, prec):
        # the depth-1 driver against ``partial_sum`` of the monomial on its
        # own per-term sums: the same keys, the same n-dependent
        # coefficients, the constants within the two residual bounds
        with mp.workprec(prec):
            got = term_sum_expansion(xi, l, m, 3)
            monomial = AsymptoticExpansion({xi: ScaleFunction.term(l, m)}, precision=max(3, m))
            want = partial_sum(monomial, per_term_sums(monomial), carried_growth=(0, 0),
                               precision=3)
            (have, ref) = (dict(e.items()) for e in (got, want))
            assert have.keys() == ref.keys()
            constant = (ONE, 0, 0)
            assert {k: v for k, v in have.items() if k != constant} == \
                {k: v for k, v in ref.items() if k != constant}
            assert (abs(got.regularised_value() - want.regularised_value())
                    <= got.residual_bound + want.residual_bound)


class TestResolveTol:
    # 59 bits is the last precision whose floor 2^(20-prec) lies above the
    # convergent default 1e-12, 60 the first below it
    @pytest.mark.parametrize("prec", [53, 59, 60, 128, 256, 512])
    @pytest.mark.parametrize("default", [summod.DEFAULT_MATCH_TOL, DEFAULT_EVAL_TOL])
    def test_default_floor_and_errors(self, prec, default):
        with mp.workprec(prec):
            floor = mp.mpf(2) ** (20 - prec)
            assert summod.resolve_tol(None, default) == max(mp.mpf(default), floor)
            assert summod.resolve_tol(floor, default) == floor
            for bad in (0, -1):
                with pytest.raises(ValueError, match="must be > 0"):
                    summod.resolve_tol(bad, default)
            with pytest.raises(PrecisionError, match="precision floor"):
                summod.resolve_tol(floor / 2, default)

    @pytest.mark.parametrize("prec", [53, 128])
    def test_error_names_the_given_tolerance(self, prec):
        # the error names the tolerance it was given and the floor it missed
        with mp.workprec(prec):
            floor = mp.mpf(2) ** (20 - prec)
            with pytest.raises(PrecisionError, match=mp.nstr(floor / 2, 5)) as info:
                summod.resolve_tol(floor / 2, DEFAULT_EVAL_TOL)
            assert f"2^{20 - prec} at {prec} bits" in str(info.value)


class TestTwistedTail:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.just(ONE), primitive_roots(60)), st.integers(0, 2),
           st.integers(-2, 3), st.sampled_from([128, 256]))
    def test_tail_bounds_the_remainder_of_brute_sums(self, xi, l, m, prec):
        # c(N) = S(N) - xi^N h(N) is the constant plus the remainder eps(N),
        # so it must sit within tail(N) and rounding of the constant, taken
        # here at prec + 64.  The terms of h at decays 4 and 5 go to the
        # tail at full size and dominate it, which hides K; kept (they are
        # the parts at a_max = 5 past decay 3, the same J), the remainder
        # must sit within the rest of the tail, K (P(N) + int_N^inf P).
        # Both from the first matching cutoff, MATCH_START, and at N = 1000
        with mp.workprec(prec + 64):
            ref = summod.term_sum_expansion(xi, l, m, 3)
            c_ref = ref.regularised_value()
            if xi.is_one():  # the regularised value holds h's constant term
                h0 = summod._nparts_at(xi, l, m, 3, prec + 64)[0]
                c_ref -= summod._scaled_mpc(*h0.terms.get((0, 0), (0, 0)), h0.W)
        with mp.workprec(prec):
            parts, tail = summod._nparts_at(xi, l, m, 3, prec)
            h, _ = summod._nparts_at(xi, l, m, 5, prec)
            dropped = summod.Scaled({key: math.isqrt(x * x + y * y)
                                     for key, (x, y) in h.terms.items() if key[1] > 3}, h.W)
            totals = nested_sums((xi,), (m,), (l,), (summod.MATCH_START, 1000))
            for N, total in totals.items():
                for approx, bound in (
                        (summod.eval_nparts(parts, xi, N), summod.eval_tail(tail, N)),
                        (summod.eval_nparts(h, xi, N),
                         summod.eval_tail(tail, N) - summod.eval_tail(dropped, N))):
                    slack = ref.residual_bound + rounding_slack(N, [total, approx])
                    assert abs(total - approx - c_ref) <= bound + slack, N


# an integer of 0 to 3,000 bits, of either sign, and a divisor of exactly 1 to
# 2,000 bits
numerators = st.integers(0, 3000).flatmap(lambda b: st.integers(-(1 << b), 1 << b))
divisors = st.integers(1, 2000).flatmap(lambda b: st.integers(1 << b - 1, (1 << b) - 1))


class TestQuotient:
    """``_round_block``'s one-division rounding gives the tuple that
    ``from_rational`` gives, ties and exact quotients included."""

    @settings(max_examples=300, deadline=None)
    @example(x=3 * ((1 << 53) + 1), d=3, e=0, prec=53, rnd=round_nearest)
    @example(x=3 * ((1 << 53) + 1) + 1, d=3, e=0, prec=53, rnd=round_nearest)
    @example(x=-3 * ((1 << 53) + 1) - 1, d=3, e=-7, prec=53, rnd=round_ceiling)
    @example(x=0, d=5, e=3, prec=128, rnd=round_ceiling)
    @given(x=numerators, d=divisors, e=st.integers(-300, 300), prec=st.integers(53, 1024),
           rnd=st.sampled_from([round_nearest, round_ceiling]))
    def test_equals_from_rational(self, x, d, e, prec, rnd):
        num, den = (x << e, d) if e >= 0 else (x, d << -e)
        assert _quotient(x, d, e, prec, rnd) == from_rational(num, den, prec, rnd)


class TestMpq:
    @pytest.mark.parametrize("prec", [53, 128, 256])
    def test_correctly_rounded(self, prec):
        # the engines' rational constants: B_j/j! and E_{k,j}(0), E_{k,j}(1),
        # each within half a unit of the last place of its binade.  Rounding
        # the numerator first and then dividing missed that at 28, 21 and 5
        # of them at 53, 128 and 256 bits (B_j/j! first at j = 42, 68, 102).
        # E_{k,j}(x) = k^(j+1)/(j+1) (B_{j+1}((x+1)/k) - B_{j+1}(x/k)) at
        # x = 0, 1 gives the same Fractions as ``gen_euler_at_zero``/``_one``
        # without composing the polynomials
        values = [eulerpoly.bernoulli_number(j) / math.factorial(j) for j in range(121)]
        for k in range(2, 8):
            for j in range(61):
                b, c = eulerpoly.bernoulli_polynomial(j + 1), Fraction(k ** (j + 1), j + 1)
                values += [c * (b(Fraction(x + 1, k)) - b(Fraction(x, k))) for x in (0, 1)]
        assert values[121:123] == [eulerpoly.gen_euler_at_zero(2, 0),
                                   eulerpoly.gen_euler_at_one(2, 0)]
        with mp.workprec(prec):
            for q in values:
                sign, man, exp, _ = summod._mpq(q)._mpf_
                got = Fraction(-man if sign else man) * Fraction(2) ** exp
                if q == 0:
                    assert got == 0
                    continue
                e = abs(q.numerator).bit_length() - q.denominator.bit_length()
                if abs(q) < Fraction(2) ** e:
                    e -= 1
                assert abs(got - q) <= Fraction(2) ** (e - prec), q


# one factor of the nested sum: (weight, exponent, log power)
rotation_weights = st.builds(RotationNumber, st.integers(0, 11), st.integers(1, 12))
exponents = st.one_of(
    st.integers(-2, 3),
    st.builds(lambda re, im: mp.mpc(re, im), st.floats(-1, 3), st.floats(-1, 1)))
factors = st.tuples(rotation_weights, exponents, st.integers(0, 2))


class TestNestedSums:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(factors, min_size=1, max_size=3),
           st.sets(st.integers(1, 12), min_size=1, max_size=3))
    def test_against_direct_enumeration(self, spec, cutoffs):
        z = [w for w, _, _ in spec]
        s = [e for _, e, _ in spec]
        kvec = [k for _, _, k in spec]
        got = nested_sums(z, s, kvec, cutoffs)
        assert set(got) == cutoffs

        def weight(j, n):
            return (z[j] ** n).value() * mp.log(n) ** kvec[j] * mp.mpf(n) ** (-mp.mpc(s[j]))

        for N in cutoffs:
            want, size = mp.mpc(0), mp.mpf(0)
            # n_1 > n_2 > ... > n_r: the combinations of range(1, N) reversed
            for combo in itertools.combinations(range(1, N), len(spec)):
                term = mp.fprod(weight(j, n) for j, n in enumerate(reversed(combo)))
                want += term
                size += abs(term)
            assert abs(got[N] - want) <= mp.mpf(2) ** -110 * (1 + size)


def _against_mpmath_loop(z, s, kvec, cutoffs, prec):
    """nested_sums at prec against the mpmath loop at prec + 64:
    |t_N - ref| <= 2^(10-prec) N (1 + |ref|)."""
    with mp.workprec(prec + 64):
        exps = [summod._exponent(e) for e in s]
        ref = _mpmath_pass(tuple(z), exps, tuple(kvec), sorted(cutoffs))
    with mp.workprec(prec):
        got = nested_sums(z, s, kvec, cutoffs)
        assert set(got) == set(cutoffs)
        for N in cutoffs:
            bound = mp.mpf(2) ** (10 - prec) * N * (1 + abs(ref[N]))
            assert abs(got[N] - ref[N]) <= bound


ROOTS = [RotationNumber(1, 3), RotationNumber(1, 4), RotationNumber(2, 5)]


@contextlib.contextmanager
def small_sieve(cap=64):
    """``SIEVE_CAP`` lowered to ``cap``, the table of smallest factors
    emptied on the way in and out, so that it is sieved to the cap in use."""
    summod._factor_table.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(summod, "SIEVE_CAP", cap)
            yield
    finally:
        summod._factor_table.cache_clear()


class TestFixedPass:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(factors, min_size=1, max_size=3),
           st.sets(st.integers(1, 3000), min_size=1, max_size=2),
           st.sampled_from([128, 256]))
    def test_against_mpmath_loop(self, spec, cutoffs, prec):
        # roots of unity of order <= 12, integral and complex exponents, log
        # powers
        z = [w for w, _, _ in spec]
        s = [e for _, e, _ in spec]
        kvec = [k for _, _, k in spec]
        _against_mpmath_loop(z, s, kvec, cutoffs, prec)

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize("z,a", [
        (ROOTS, (-2, -2, -2)),
        (ROOTS, (3, -2, -2)),
        (ROOTS, (3, mp.mpc(-2, 0.5), mp.mpc(-2, 0.5))),
    ], ids=["a0", "a1", "a2"])
    def test_large_magnitudes(self, z, a, prec):
        # the guard is 140 and 112 bits at a0 and a1.  At (-2, -2, -2) it
        # covers |t_N| ~ 5e25; at (3, -2, -2) the inner sums reach ~2e16
        # while |t_N| ~ 5e4, and with P = prec + 8 the error exceeded the
        # bound a thousandfold.  a2 takes those magnitudes through complex
        # exponents
        _against_mpmath_loop(z, a, [0, 0, 0], {8000, 16000}, prec)

    @pytest.mark.parametrize("z,s,N,prec", [
        (z, s, 20000, prec)
        for z, s in [([RotationNumber(1, 4)], [mp.mpc("0.4", "0.5")]),
                     ([MINUS_ONE, MINUS_ONE], [mp.mpf("0.7"), mp.mpf("0.6")])]
        for prec in (128, 256)
    ] + [
        (ROOTS[:2], [mp.mpc(4.5, 0.5), mp.mpc(-3.5, 1)], 4000, prec)
        for prec in (147, 211)
    ], ids=["root-128", "root-256", "depth2-128", "depth2-256", "growing-147",
            "growing-211"])
    def test_non_integral_exponents_meet_the_guard(self, z, s, N, prec):
        # n^-s from the table of products of stored prime powers: each t_N
        # errs by at most 2^-(prec+8) before its final rounding, as with
        # integral exponents.  One mpmath power per term at prec erred by
        # 4.9 units of 2^-prec (1 + |t_N|) at "root".
        # At "growing" the inner sums grow like n^4.5 and the outer weight
        # damps them back to |t_N| ~ 0.013, so only the guard's N^ceil(-Re s)
        # factor keeps their errors below the bound: at these precisions a
        # guard without it rounds P up to no spare bit and errs 294 times
        # 2^-(prec+8)
        with mp.workprec(prec + 64):
            exps = [summod._exponent(e) for e in s]
            want = _mpmath_pass(tuple(z), exps, (0,) * len(z), [N])[N]
        with mp.workprec(prec):
            got = nested_sums(z, s, [0] * len(z), [N])[N]
        with mp.workprec(prec + 64):
            bound = (mp.mpf(2) ** -(prec + 8)
                     + mp.mpf(2) ** -prec * (abs(want.real) + abs(want.imag)))
            assert abs(got - want) <= bound

    def test_sieve_cap_crossing(self):
        # past the cap a value is a product of stored primes and a cofactor
        # that is stored or computed afresh; at cap 64 the pass to 5,000
        # meets both, and the cofactor 67^2 has no stored prime factor
        z = [RotationNumber(1, 3), RotationNumber(3, 10), ROOTS[1]]
        s = [mp.mpc("0.4", "0.5"), mp.mpc("-0.5", "2"), 2]
        kvec = [1, 0, 0]
        with small_sieve():
            _against_mpmath_loop(z, s, kvec, {63, 64, 65, 4489, 5000}, 128)
        with small_sieve(), mp.workprec(128):
            ref = nested_sums(z, s, kvec, [10, 64, 65, 66, 4490, 5000],
                              summod.NestedPass(5000))
            state = summod.NestedPass(5000)
            got = {}
            for chunk in ([10, 64], [65], [66, 4490], [5000]):
                got.update(nested_sums(z, s, kvec, chunk, state))
                tables = state.tables
                assert tables[2] is None
                assert max(len(tables[0][1]), len(tables[1][1])) <= 64 + 1
            assert got == ref


class TestNestedPass:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.just(ONE), primitive_roots(12)),
                              st.integers(-1, 3), st.integers(0, 2)),
                    min_size=1, max_size=3),
           st.sets(st.integers(1, 3000), min_size=1, max_size=3),
           st.sampled_from([128, 256]))
    @example(spec=[(RotationNumber(2, 7), 1, 2), (ONE, 2, 1)],
             cutoffs={16000, summod.SIEVE_CAP + 3000}, prec=128)
    def test_every_level_meets_the_guard(self, spec, cutoffs, prec):
        # the suffix sum of every level, read off one pass made for the depth
        # driver's top, against the mpmath loop over that suffix series at
        # 64 bits past the pass's P >= prec: each errs by at most
        # 2^-(prec+8) before its final rounding.  The example's logarithms
        # come from the log table and, past ``SIEVE_CAP``, afresh
        z, a, kvec = (tuple(col) for col in zip(*spec))
        cutoffs = sorted(cutoffs)
        with mp.workprec(prec):
            state = summod.NestedPass(2 * summod.MATCH_CEILING)
            top = nested_sums(z, a, kvec, cutoffs, state)
            got = {(N, j): state.suffix_sum(N, j) for N in cutoffs for j in range(len(z))}
        assert all(top[N] == got[N, 0] for N in cutoffs)
        for j in range(len(z)):
            with mp.workprec(state.P + 64):
                ref = _mpmath_pass(z[j:], a[j:], kvec[j:], cutoffs)
                for N in cutoffs:
                    bound = (mp.mpf(2) ** -(prec + 8) + mp.mpf(2) ** -prec
                             * (abs(ref[N].real) + abs(ref[N].imag)))
                    assert abs(got[N, j] - ref[N]) <= bound

    @settings(max_examples=40, deadline=None)
    @given(st.lists(factors, min_size=1, max_size=3),
           st.lists(st.integers(1, 2000), min_size=1, max_size=8, unique=True),
           st.integers(0, 3000), st.sampled_from([128, 256]), st.data())
    def test_resumed_equals_one_shot(self, spec, cutoffs, extra, prec, data):
        # successive calls on one state against one call over every cutoff
        # on a state of the same top, hence the same P: bit for bit the same
        z = [w for w, _, _ in spec]
        s = [e for _, e, _ in spec]
        kvec = [k for _, _, k in spec]
        cutoffs = sorted(cutoffs)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(cutoffs) - 1),
                                        max_size=3))) if len(cutoffs) > 1 else []
        chunks = [cutoffs[i:j] for i, j in zip([0] + cuts, cuts + [len(cutoffs)])]
        with mp.workprec(prec):
            top = cutoffs[-1] + extra
            ref = nested_sums(z, s, kvec, cutoffs, summod.NestedPass(top))
            state = summod.NestedPass(top)
            got = {}
            for chunk in chunks:
                got.update(nested_sums(z, s, kvec, chunk, state))
            assert got == ref
            assert state.terms == cutoffs[-1] - 1

    @pytest.mark.parametrize("z,s", [([RotationNumber(1, 3)], [1]),
                                     ([RotationNumber(3, 10)], [mp.mpf("0.5")])])
    def test_misuse_raises(self, z, s):
        state = summod.NestedPass(1000)
        nested_sums(z, s, [0], [100, 200], state)
        nested_sums(z, s, [0], [200], state)  # standing still is allowed
        with pytest.raises(ValueError):  # rewinding
            nested_sums(z, s, [0], [150, 300], state)
        with pytest.raises(ValueError), mp.workprec(mp.mp.prec + 64):
            nested_sums(z, s, [0], [300], state)
        with pytest.raises(ValueError):  # beyond the top the state was made for
            nested_sums(z, s, [0], [1001], state)
        with pytest.raises(ValueError):  # another input
            nested_sums(z, [2], [0], [300], state)
        assert nested_sums(z, s, [0], [300], state)[300] \
            == nested_sums(z, s, [0], [300])[300]


class TestBlockedPass:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(factors, min_size=1, max_size=3),
           st.sets(st.integers(1, 2600), min_size=1, max_size=3),
           st.integers(1, 2500), st.sets(st.integers(0, 90), max_size=4),
           st.booleans(), st.sampled_from([128, 256]))
    @example(spec=[(RotationNumber(1, 7), mp.mpc("0.4", "0.5"), 2),
                   (RotationNumber(3, 10), 2, 1), (RotationNumber(2, 5), -1, 0)],
             cutoffs={1024, 1025, 2049}, base=1000, offsets={0, 3, 24, 25},
             small_cap=True, prec=128)
    def test_against_the_pass_one_n_at_a_time(self, spec, cutoffs, base, offsets,
                                               small_cap, prec):
        # every level j >= 1 and every n^-s table bit for bit as the per-n
        # pass with the same floors; level 0, summed per residue class of a
        # root z_1, within 2^-(prec+8) of it.  The cutoffs put several hits
        # in one block and the passes cross blocks of ``BLOCK_CAP``; with a
        # cap of 64 the n^-s tables stop early, inside the first block
        z = [w for w, _, _ in spec]
        s = [e for _, e, _ in spec]
        kvec = [k for _, _, k in spec]
        cutoffs = sorted(cutoffs | {base + d for d in offsets})
        with small_sieve() if small_cap else contextlib.nullcontext(), mp.workprec(prec):
            state = summod.NestedPass(cutoffs[-1])
            nested_sums(z, s, kvec, cutoffs, state)
            P, hits, tables = fixed_point_pass(z, s, kvec, cutoffs, cutoffs[-1])
        assert state.P == P
        for N in cutoffs:
            for j in range(1, len(z)):
                assert state.raw_sum(N, j)[:2] == (hits[N][0][j], hits[N][1][j])
            x, y, _ = state.raw_sum(N)
            dx, dy = x - hits[N][0][0], y - hits[N][1][0]
            assert dx * dx + dy * dy <= 4 ** (P - prec - 8)
        for got, ref in zip(state.tables, tables):
            assert (got is None) == (ref is None)
            if got is not None:
                assert list(zip(got[1], got[2]))[1:] == ref[1:]

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize("layout", [lambda cap: (3, cap + 5, -1),
                                        lambda cap: (cap + 1, 2, cap + 700)],
                             ids=["middle", "outer-and-inner"])
    def test_exponents_past_the_cap(self, layout, prec):
        # an integral exponent past 2P divides as 2P does: every level j >= 1
        # and ``NestedPass.power`` bit for bit as the per-n pass's exact n^a,
        # level 0 within 2^-(prec+8) of it
        z, kvec, cutoffs = [RotationNumber(1, 3), MINUS_ONE, RotationNumber(2, 5)], [1, 0, 2], \
            [700, 1025, 1200]
        with mp.workprec(prec):
            # P reads the negative exponents only: the cap is 2P at layout(1)
            cap = 2 * summod.pass_scale(layout(1), kvec, cutoffs[-1])
            a = layout(cap)
            state = summod.NestedPass(cutoffs[-1])
            nested_sums(z, a, kvec, cutoffs, state)
            P, hits, _ = fixed_point_pass(z, a, kvec, cutoffs, cutoffs[-1])
        assert 2 * state.P == cap
        for N in cutoffs:
            for j in range(1, len(z)):
                assert state.raw_sum(N, j)[:2] == (hits[N][0][j], hits[N][1][j])
            x, y, _ = state.raw_sum(N)
            dx, dy = x - hits[N][0][0], y - hits[N][1][0]
            assert dx * dx + dy * dy <= 4 ** (P - prec - 8)
        for j, a_j in enumerate(a):
            for n in (1, 2, 3, 1199):
                want = (1 << P) // n ** a_j if a_j > 0 else n ** -a_j << P
                assert state.power(n, j) == (want, 0)


class TestPowerEntry:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.integers(2, 64), st.integers(2, 2 ** 18 - 15)),
           st.floats(-6, 30), st.floats(-1e4, 1e4), st.sampled_from([53, 128, 256, 512]),
           st.integers(8, 120), st.data())
    def test_within_the_allowance_of_the_guard(self, f0, re_s, im_s, prec, guard, data):
        # primes and cofactors past the cap, f0..f0+15, in integer fixed
        # point against mp.power at 64 bits past P: each part errs by < 1 u
        # in its floor and 2^-8 |f^-s| u before it, the allowance that
        # ``_guard_bits`` charges
        top = data.draw(st.integers(f0 + 16, 2 ** 18 + 1))
        P = prec + guard
        P += -P % 64
        with mp.workprec(prec):
            s = mp.mpc(re_s, im_s)
        fixed = summod._fixed_exponent(s, P, top)
        for f in range(f0, f0 + 16):
            got = summod._power_entry(f, fixed, P)
            with mp.workprec(P + 64):
                want = mp.power(f, -s)
                # compared without rounding: |f^-s| 2^P may be far below 1 u
                allowance = mp.fadd(1, mp.ldexp(abs(want), -8), exact=True)
                for part, scaled in zip((want.real, want.imag), got):
                    assert abs(mp.fsub(mp.ldexp(part, P), scaled, exact=True)) < allowance

    def test_sieved_pass_calls_no_mpmath_exp_or_log(self, monkeypatch):
        # every n^-s of a pass, past the cap too, comes from integer fixed
        # point: mp.exp and mp.log are never called
        calls = collections.Counter()

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(mp, "exp", counted("exp", mp.exp))
        monkeypatch.setattr(mp, "log", counted("log", mp.log))
        entries, power_entry = [], summod._power_entry
        monkeypatch.setattr(summod, "_power_entry",
                            lambda f, *rest: entries.append(f) or power_entry(f, *rest))
        z = [RotationNumber(1, 3), RotationNumber(3, 10)]
        s = [mp.mpc("0.4", "0.5"), mp.mpc("-0.5", "2")]
        with small_sieve(), mp.workprec(128):
            nested_sums(z, s, [1, 0], [5000])
        assert max(entries) > 64  # a cofactor past the cap
        assert calls["exp"] == calls["log"] == 0


class TestFactorTable:
    def test_factor_lists_against_trial_division(self):
        # every n <= 2^17 from a cold table of smallest factors: the lists of
        # the per-pass trial division it replaced, past the cap too
        summod._factor_table.cache_clear()
        primes = []
        for n in range(2, 2 ** 17 + 1):
            assert summod._split(n) == split_reference(n, primes, summod.SIEVE_CAP), n
        assert len(summod._factor_table()[0]) == summod.SIEVE_CAP + 1

    def test_below_a_lowered_cap(self):
        # a full table emptied and sieved to a lowered cap splits past that
        # cap by its primes alone
        summod._split(summod.SIEVE_CAP + 1)
        primes = []
        with small_sieve():
            for n in range(2, 5001):
                assert summod._split(n) == split_reference(n, primes, 64), n


class TestKernelTables:
    @pytest.mark.parametrize("P", [64, 192, 320, 576])
    def test_logs_within_two_units(self, P):
        # log n scaled by 2^P as the kernel reads it: the table entry shifted
        # down 64 bits up to the cap, a fresh logarithm past it
        top = summod.SIEVE_CAP + 4096
        logs = summod._logs(P, top)
        assert len(logs) == summod.SIEVE_CAP + 1
        with mp.workprec(P + 64):
            for n in range(2, top + 1):
                got = logs[n] >> 64 if n < len(logs) else summod.log_int_fixed(n, P)
                assert abs(got - mp.ldexp(mp.log(n), P)) < 2

    @pytest.mark.parametrize("P", [64, 192, 448, 1152])
    def test_log_entries_within_their_derived_bound(self, P):
        # every entry up to the cap, a prime's made from p - 1's by one atanh
        # series on integers, lies below log n 2^(P+64) by less than
        # (2 log2 n - 1)(1 + 2^-5) units (``_logs``; measured at most 0.88
        # of it)
        logs = summod._logs(P, summod.SIEVE_CAP)
        with mp.workprec(P + 128):
            for n in range(2, len(logs)):
                miss = mp.ldexp(mp.log(n), P + 64) - logs[n]
                assert 0 <= miss < (2 * math.log2(n) - 1) * (1 + 2 ** -5)

    @pytest.mark.parametrize("P", [64, 192])
    def test_power_entries_within_their_bound(self, P):
        # xi^a by fixed-point products, floored: < 1 + 2^-18 units 2^-P,
        # for orders q <= 128 (numerators 1, q - 1 and the first coprime
        # one from q/2)
        for q in range(1, 129):
            middle = next(p for p in range(q // 2, q) if math.gcd(p, q) == 1)
            for p in {1 % q, middle, q - 1}:
                table = summod._fixed_power_table(RotationNumber(p, q), P)
                assert len(table) == q
                with mp.workprec(P + 64):
                    bound = 1 + mp.mpf(2) ** -18
                    for a, (x, y) in enumerate(table):
                        want = mp.expjpi(mp.mpf(2 * p * a) / q)
                        assert abs(x - mp.ldexp(want.real, P)) < bound
                        assert abs(y - mp.ldexp(want.imag, P)) < bound


def _pole_rate(xi):
    """1/(2 pi |x|), |x| the distance of xi's rotation number to the
    nearest integer: the poles of 1/(xi e^t - 1) nearest 0 lie at 2 pi |x|."""
    near = min(xi.fraction, 1 - xi.fraction)
    return near.denominator / (2 * mp.pi * near.numerator)


def _cold_geometric_coeffs(xi, J, prec):
    """``oracles.geometric_coeffs`` computed from c_0 on an empty memo."""
    summod._geometric_list.cache_clear()
    return geometric_coeffs(xi, J, prec)


class TestGeometricCoeffs:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.just(ONE), primitive_roots(60)), st.integers(0, 40),
           st.sampled_from([128, 256]))
    def test_memo_is_bit_identical(self, xi, J, prec):
        # every entry extends a shorter one of the same (xi, prec)
        geometric_coeffs(xi, J // 2, prec)
        got = geometric_coeffs(xi, J, prec)
        assert got == _cold_geometric_coeffs(xi, J, prec)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.just(ONE), primitive_roots(91)), st.integers(0, 60),
           st.sampled_from([128, 256]))
    def test_against_closed_form(self, xi, J, prec):
        # s_j = 2 zeta(j+1) (k/2 pi)^(j+1) bounds |c_j| for j >= 1 (the
        # Fourier bound on B_(j+1)), s_0 = k, and so does 3 (2 pi |x|)^-(j+1),
        # |x| the distance of xi's rotation number to the nearest integer
        # (the poles of 1/(xi e^t - 1)); the integer recurrence keeps each
        # c_j within 2 units of 2^-prec times the smaller (measured worst
        # 0.93 units of s_j: order 2, j = 45, 256 bits, over orders 2-7, 12,
        # 55 and 91 to j = 120; 0.72 units of 3 (2 pi |x|)^-(j+1) over twelve
        # roots of orders 2-60 to j = 300 at 128, 256 and 512 bits, where a
        # scale set by the order alone left c_60 at 5/12 within 7e14 units
        # of |c_60| and at 18/37 within 5e19); the mpc recurrence it replaced
        # erred by up to 367 units of s_j
        got = geometric_coeffs(xi, J, prec)
        ref = geometric_closed_form(xi, J)
        k = xi.order
        with mp.workprec(1024):
            for j, (c, want) in enumerate(zip(got, ref)):
                s_j = k if j == 0 else 2 * mp.zeta(j + 1) * (k / (2 * mp.pi)) ** (j + 1)
                e_j = s_j if xi.is_one() else min(s_j, 3 * _pole_rate(xi) ** (j + 1))
                if j and not xi.is_one():
                    # real for odd j, imaginary for even j: the other part is 0
                    zero = "imag" if j % 2 else "real"
                    assert getattr(c, zero) == 0
                    assert abs(getattr(want, zero)) < mp.mpf(2) ** -1000 * s_j
                assert abs(c - want) <= mp.mpf(2) ** (1 - prec) * e_j

    @settings(max_examples=40, deadline=None)
    @given(primitive_roots(91), st.integers(0, 40), st.sampled_from([53, 128, 256]))
    def test_scaled_pairs_within_their_bound(self, xi, J, prec):
        # the pairs u_j + i v_j ~ c_j 2^S_j, S_j = prec + 32 + r j, that the
        # n-parts and K read (``_coefficient_bounds``) err by less than
        # E_j = 2^-(prec+16) e_j 2^S_j, e_j = 3 (2 pi |x|)^-(j+1) (measured
        # below 2^-(prec+27) e_j over orders 2-60 and 91, j <= 40)
        ref = geometric_closed_form(xi, J)
        with mp.workprec(1024):
            for j, (u, v, S, A) in enumerate(summod._coefficient_bounds(xi, J, prec)):
                got = mp.mpc(u, v) / mp.mpf(2) ** S
                e = mp.mpf(2) ** -(prec + 16) * 3 * _pole_rate(xi) ** (j + 1)
                assert abs(got - ref[j]) < e
                assert abs(ref[j]) <= A / mp.mpf(2) ** S

    @settings(max_examples=60, deadline=None)
    @given(primitive_roots(91), st.integers(1, 30), st.sampled_from([128, 256]))
    def test_growth_bound(self, xi, j, prec):
        # the bound of the docstring, through the closed form: |c_j| <=
        # k^j/(j+1)! sum_{a<k} |B_{j+1}(a/k)| <= k^(j+1) sup|B_{j+1}|/(j+1)!
        # <= 2 zeta(j+1) (k/2 pi)^(j+1) = s_j, with c_j within 2 units of
        # 2^-prec s_j (``test_against_closed_form``)
        k = xi.order
        c = geometric_coeffs(xi, j, prec)[j]
        bern = eulerpoly.bernoulli_polynomial(j + 1)
        average = Fraction(k ** j, math.factorial(j + 1)) * sum(
            abs(bern(Fraction(a, k))) for a in range(k))
        with mp.workprec(prec + 64):
            s_j = 2 * mp.zeta(j + 1) * (k / (2 * mp.pi)) ** (j + 1)
            assert abs(c) <= summod._mpq(average) + mp.mpf(2) ** (1 - prec) * s_j
            assert summod._mpq(average) <= s_j
            # the bound from the poles, which ``polylog.eval_convergent``
            # charges for the rounding of c_j
            assert abs(c) <= 3 * _pole_rate(xi) ** (j + 1)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.just(ONE), primitive_roots(60)), st.integers(0, 40),
           st.sampled_from([53, 128, 256, 512]))
    def test_bounds_grown_in_steps_are_bit_identical(self, xi, J, prec):
        # the coefficient bounds grown to J/3, then J/3 more by a read of the
        # c_j, then to J, equal a cold build to J, and so do the c_j read
        # last (filled from the pairs the bounds hold)
        summod._geometric_list.cache_clear()
        summod._coefficient_bounds(xi, J // 3, prec)
        geometric_coeffs(xi, 2 * J // 3, prec)
        grown = summod._coefficient_bounds(xi, J, prec), geometric_coeffs(xi, J, prec)
        summod._geometric_list.cache_clear()
        cold = summod._coefficient_bounds(xi, J, prec)
        assert grown == (cold, _cold_geometric_coeffs(xi, J, prec))

    def test_precision_is_part_of_the_key(self):
        xi = RotationNumber(5, 17)
        low = geometric_coeffs(xi, 20, 128)
        high = geometric_coeffs(xi, 20, 256)
        assert high == _cold_geometric_coeffs(xi, 20, 256)
        assert high != low

    def test_cold_call_needs_no_recursion(self):
        # one list per (xi, prec) is extended by a loop: a cold call at
        # J = 300 runs with the recursion limit 50 frames above this one,
        # and a memo extended in steps gives the same list
        xi, prec, J = RotationNumber(3, 101), 97, 300
        for step in (100, 200):
            geometric_coeffs(xi, step, prec)
        stepped = geometric_coeffs(xi, J, prec)
        summod._geometric_list.cache_clear()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            got = geometric_coeffs(xi, J, prec)
        finally:
            sys.setrecursionlimit(limit)
        assert got == stepped


def _order_J(l, m, a_max):
    """The J of ``summation._nparts_at``."""
    return max(1, a_max + 2 - m, math.ceil(l / math.log(summod.MATCH_START)) - m - 1)


def _true_K(xi, J):
    """K = [xi = 1]/(J+2)! + sum_j |c_j|/(J-j+1)! from the closed form, at
    1,024 bits."""
    ref = geometric_closed_form(xi, J)
    with mp.workprec(1024):
        K = mp.fsum(abs(c) / math.factorial(J - j + 1) for j, c in enumerate(ref))
        return K + (mp.mpf(1) / math.factorial(J + 2) if xi.is_one() else 0)


class TestNparts:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.just(ONE), primitive_roots(60)), st.integers(0, 3),
           st.integers(-2, 3), st.integers(0, 15), st.sampled_from([53, 128, 256]),
           st.booleans())
    @example(xi=ONE, l=3, m=1, a_max=15, prec=53, cold=True)
    def test_within_the_derived_bound_of_the_differentiation_chain(
            self, xi, l, m, a_max, prec, cold):
        # parts and tail from the integer derivative rows, the scaled pairs
        # and the memoised K, with those memos cold or warm (the same bits
        # both times), against the chain of ScaleFunction derivatives on mpc
        # coefficients at prec + 64: the same keys; each part within the
        # bound of ``_nparts_at``, E_j |d_{j,i}| 2^(V-S_j) + 1 units 2^-V
        # (E_j = 1 at xi = 1, else E_j 2^-S_j = 2^-(prec+16) e_j), plus the
        # chain's own error, 2^-(prec+62) e_j |d_{j,i}| by its c_j and
        # 2^-(prec+63) |c| by its roundings; each tail coefficient at or
        # above the chain's and within a relative 2^(4-prec) and 4 units
        # 2^-V of it
        if cold:
            summod._derivative_rows.cache_clear()
            summod._remainder_factor.cache_clear()
        ref_parts, ref_tail = nparts_chain(xi, l, m, a_max, prec + 64)
        summod._nparts_at.cache_clear()
        parts, tail = summod._nparts_at(xi, l, m, a_max, prec)
        summod._nparts_at.cache_clear()
        assert summod._nparts_at(xi, l, m, a_max, prec) == (parts, tail)
        assert parts.W == tail.W
        J = _order_J(l, m, a_max)
        rows, pairs = summod._derivative_rows(l, m, J), summod._coefficient_bounds(xi, J, prec)
        with mp.workprec(prec + 128):
            unit = mp.mpf(2) ** -parts.W
            assert parts.terms.keys() == {(i, mu) for i, mu, _ in ref_parts.terms()}
            for i, mu, want in ref_parts.terms():
                re, im = parts.terms[i, mu]
                bound = unit + mp.mpf(2) ** -(prec + 63) * abs(want)
                if mu >= m and xi.is_one():
                    bound += abs(rows[mu - m][i]) / mp.mpf(2) ** pairs[mu - m][2]
                elif mu >= m:
                    bound += ((mp.mpf(2) ** -(prec + 16) + mp.mpf(2) ** -(prec + 62))
                              * 3 * _pole_rate(xi) ** (mu - m + 1) * abs(rows[mu - m][i]))
                assert abs(re * unit - want.real) <= bound
                assert abs(im * unit - want.imag) <= bound
            assert tail.terms.keys() == {(i, mu) for i, mu, _ in ref_tail.terms()}
            for i, mu, want in ref_tail.terms():
                got = tail.terms[i, mu] * unit
                assert want.real * (1 - mp.mpf(2) ** -(prec + 60)) <= got
                assert got <= want.real * (1 + mp.mpf(2) ** (4 - prec)) + 4 * unit

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.just(ONE), primitive_roots(60)), st.integers(0, 3),
           st.integers(-2, 3), st.integers(0, 15), st.sampled_from([53, 128, 256]))
    def test_tail_holds_the_pointwise_term(self, xi, l, m, a_max, prec):
        # only the pointwise term K |f^(J+1)|(n) lies at decay m + J + 1: each
        # of its coefficients is at least K |d_{J+1,i}|, K from the closed form
        J = _order_J(l, m, a_max)
        _, tail = summod._nparts_at(xi, l, m, a_max, prec)
        K = _true_K(xi, J)
        with mp.workprec(1024):
            for i, d in enumerate(summod._derivative_rows(l, m, J)[J + 1]):
                got = mp.mpf(tail.terms.get((i, m + J + 1), 0)) / mp.mpf(2) ** tail.W
                assert got >= K * abs(d)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.just(ONE), primitive_roots(60)), st.integers(0, 3),
           st.integers(-2, 3), st.integers(0, 15), st.sampled_from([53, 128, 256]),
           st.sampled_from([2, 3, 250, 1000, 4097, 20000, 2 ** 21 + 1]))
    def test_reads_within_their_bound(self, xi, l, m, a_max, prec, n):
        # eval_nparts within 2^-prec |value| plus 2^-W (the bound of
        # ``_read`` + 3 |parts(n)|) of the exact value of its integers, and
        # eval_tail at or above the exact value of the tail's integers and
        # within a relative 2^(2-prec) of it plus the rounding up of
        # ``_read``, < 2^-W sum_terms (2 lb^l + (3 l lb^(l-1) + 2) c_t)
        parts, tail = summod._nparts_at(xi, l, m, a_max, prec)
        with mp.workprec(prec):
            got, up = summod.eval_nparts(parts, xi, n), summod.eval_tail(tail, n)
        with mp.workprec(prec + 2 * parts.W):
            unit, lb, x, inv = mp.mpf(2) ** -parts.W, n.bit_length(), mp.log(n), mp.mpf(1) / n
            terms = [(i, mu, mp.mpc(*c) * unit) for (i, mu), c in parts.terms.items()]
            want = xi.value() ** n * mp.fsum(c * x ** i * inv ** mu for i, mu, c in terms)
            read = mp.fsum(lb ** i + 3 * i * lb ** max(0, i - 1) * abs(c) * inv ** mu
                           for i, mu, c in terms)
            bound = mp.mpf(2) ** -prec * abs(want) + unit * (read + 3 * abs(want))
            assert abs(got - want) <= bound
            terms = [(i, c * unit * inv ** mu) for (i, mu), c in tail.terms.items()]
            exact = mp.fsum(c * x ** i for i, c in terms)
            read = mp.fsum(2 * lb ** i + (3 * i * lb ** max(0, i - 1) + 2) * c for i, c in terms)
            assert exact <= up <= exact * (1 + mp.mpf(2) ** (2 - prec)) + unit * read

    def test_log_reads_match_the_table_and_leave_it(self):
        # a read's log n is the kernel's table entry bit for bit, whether or
        # not the table of its scale holds n yet, and reading it grows no
        # table; past SIEVE_CAP it is log_int_fixed's, as in the kernel
        W, ns = 1856, [2, 250, 1000, 4001, 4096, 7919]
        logs = summod._log_table(W)
        size = len(logs)
        summod._log_at.cache_clear()  # reads memoised before this test
        cold = [summod._log_at(n, W) for n in ns]
        assert len(logs) == size
        table = summod._logs(W, max(ns))
        summod._log_at.cache_clear()
        assert cold == [table[n] >> 64 for n in ns] == [summod._log_at(n, W) for n in ns]
        n = summod.SIEVE_CAP + 1
        assert summod._log_at(n, W) == log_int_fixed(n, W)

    def test_log_reads_at_the_end_of_long_chains(self):
        # primes whose p - 1 factorisations chain far down (the Cunningham
        # chain 89, 179, ..., 2879, each 2p + 1 of the last, and 11,807
        # through 5,903, 2,951 and 59), read while the table of their scale
        # stops at 64: the same integers as the entries it makes later, and
        # no growth of the table
        summod._log_table.cache_clear()
        summod._log_at.cache_clear()
        W, ps = 1152, [89, 179, 359, 719, 1439, 2879, 11807]
        short = list(summod._logs(W, 64))
        cold = [summod._log_at(p, W) for p in ps]
        sums = [summod._log_sum(p, short, W + 64) for p in ps]
        assert len(summod._log_table(W)) == len(short) == 65
        table = summod._logs(W, max(ps))
        assert sums == [table[p] for p in ps]
        assert cold == [table[p] >> 64 for p in ps]

    def test_log_reads_match_every_entry(self):
        # every n <= SIEVE_CAP read off a table that holds none of them (at
        # 192 bits; every third n at 256), through ``_split``'s parts: the
        # entry ``_logs`` then makes, bit for bit
        for W, step in ((192, 1), (256, 3)):
            summod._log_table.cache_clear()
            summod._log_at.cache_clear()
            ns = range(2, summod.SIEVE_CAP + 1, step)
            cold = [summod._log_at(n, W) for n in ns]
            assert len(summod._log_table(W)) == 2
            table = summod._logs(W, summod.SIEVE_CAP)
            assert cold == [table[n] >> 64 for n in ns]

    def test_rows_are_the_derivatives(self):
        # f = (log x)^2 x^-1: f' = (2 log x - (log x)^2) x^-2,
        # f'' = (2 - 6 log x + 2 (log x)^2) x^-3
        assert summod._derivative_rows(2, 1, 1) == ((0, 0, 1), (0, 2, -1), (2, -6, 2))


class TestRemainderFactor:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.just(ONE), primitive_roots(60)), st.integers(0, 30),
           st.sampled_from([53, 128, 256]))
    def test_bounds_the_closed_form(self, xi, J, prec):
        # K from the scaled pairs (the exact c_j at xi = 1), rounded up: at
        # or above [xi = 1]/(J+2)! + sum_j |c_j|/(J-j+1)!, the c_j of the
        # closed form, and within a relative 2^(8-prec) of it
        K, want = summod._remainder_factor(xi, J, prec), _true_K(xi, J)
        with mp.workprec(1024):
            assert want <= K <= want * (1 + mp.mpf(2) ** (8 - prec))


class TestResidueReads:
    @pytest.mark.parametrize("z, s", [
        ((RotationNumber(1, 1009),), (1,)),
        ((RotationNumber(2, 1031), RotationNumber(1, 3)), (mp.mpf("1.5"), 2)),
    ], ids=["depth1", "depth2"])
    def test_windows_read_level0_once_per_block(self, z, s, monkeypatch):
        # a period-long window of cutoffs, as the convergent ladder asks for:
        # level 0 is read in full off the q residue sums only at a block's
        # first cutoff and at the top, the other cutoffs add the terms since
        # the one before; each window spans two blocks (the first crosses
        # 2,049, the second, resumed at 2,509, crosses 3,533), so three full
        # reads where a pass reading every cutoff in full makes q; every
        # level bit for bit as that pass
        q = z[0].order
        windows = [range(1500, 1500 + q), range(3000, 3000 + q)]
        full_reads = []
        residue_sum = summod.NestedPass._residue_sum
        record = summod.NestedPass._record
        monkeypatch.setattr(summod.NestedPass, "_residue_sum",
                            lambda self: full_reads.append(self.n) or residue_sum(self))
        with mp.workprec(128):
            state = summod.NestedPass(windows[-1][-1])
            counts = []
            for w in windows:
                nested_sums(z, s, [0] * len(z), w, state)
                counts.append(len(full_reads) - sum(counts))
            monkeypatch.setattr(summod.NestedPass, "_record",
                                lambda self, N, re, im, level0=None: record(self, N, re, im))
            ref = summod.NestedPass(windows[-1][-1])
            for w in windows:
                nested_sums(z, s, [0] * len(z), w, ref)
        assert counts == [3, 3]
        for N in [*windows[0], *windows[1]]:
            for j in range(len(z)):
                assert state.raw_sum(N, j) == ref.raw_sum(N, j)


class TestRunMatching:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.just(ONE), primitive_roots(60)),
                              st.integers(-2, 3), st.integers(0, 2)), min_size=1, max_size=3),
           st.sampled_from([53, 128, 256, 512]))
    def test_against_the_mpmath_matcher(self, spec, prec):
        # every level of the depth driver matched twice on the same inputs:
        # on integers, and by the mpmath matcher of ``oracles.mp_matching``
        # run 256 bits past the reads' scale 2^3W, so that only its rounding
        # charge, taken at prec, tells it from exact arithmetic.  The same
        # cutoff or the same failure, the constant within the floor to 2^W,
        # and the residual at or above the mpmath one and within 1.01 times
        # it.  The value lies within its residual of the one the mpmath
        # matcher makes at prec + 64
        z, a, kvec = (tuple(col) for col in zip(*spec))
        real, levels = summod.run_matching, []

        def mp_matcher(sums_fn, approx_fn, tail, tol, prop_fn=None):
            U, at = 3 * tail.W, mp.mp.prec

            def sums(cutoffs):  # the pass runs at its own precision
                with mp.workprec(at):
                    raw = sums_fn(cutoffs)
                return {n: summod._scaled_mpc(*v) for n, v in raw.items()}

            with mp.workprec(U + 256):
                return mp_matching(sums, lambda n: summod._scaled_mpc(*approx_fn(n), U), tail,
                                   tol, prop_fn and (lambda n: mp.ldexp(prop_fn(n), -U)), at)

        def both(sums_fn, approx_fn, tail, tol, prop_fn=None):
            args, out = (sums_fn, approx_fn, tail, tol, prop_fn), []
            for match in (mp_matcher, real):
                try:
                    out.append(match(*args))
                except PrecisionError as exc:
                    out.append(exc)
            levels.append((*out, args[2].W))
            if isinstance(out[1], PrecisionError):
                raise out[1]
            return out[1]

        d = DepthSpec(ZVector(z), a, kvec)
        with pytest.MonkeyPatch.context() as patch, mp.workprec(prec):
            patch.setattr(summod, "run_matching", both)
            try:
                got = depth_expansion(d, 2)
            except PrecisionError:
                got = None
        assert levels
        for want, have, W in levels:
            assert isinstance(want, PrecisionError) == isinstance(have, PrecisionError)
            if isinstance(want, PrecisionError):
                continue
            (c_o, r_o, n_o), (c, r, n) = want, have
            assert n == n_o
            with mp.workprec(3 * W + 256):
                assert abs(c - c_o) <= mp.mpf(2) ** (1 - W)
                assert r_o * (1 - mp.mpf(2) ** -prec) <= r <= mp.mpf("1.01") * r_o
        if got is None:
            return
        with pytest.MonkeyPatch.context() as patch, mp.workprec(prec + 64):
            patch.setattr(summod, "run_matching", mp_matcher)
            ref = depth_expansion(d, 2).regularised_value()
            assert abs(got.regularised_value() - ref) <= got.residual_bound


class TestHornerRead:
    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-2, 20)),
                           st.tuples(st.integers(-2 ** 300, 2 ** 300),
                                     st.integers(-2 ** 300, 2 ** 300)), min_size=1, max_size=30),
           st.integers(2, 2 * summod.MATCH_CEILING), st.sampled_from([128, 256, 320, 576]))
    def test_against_the_exact_sum(self, terms, n, W):
        # per power l the exact Fraction sum S_l of C n^-m floored once, as
        # Horner's floored steps in 1/n give it, then times the read's own
        # (log n)^l, X_l: the same integers.  The upper read of the absolute
        # values takes each S_l rounded up and the raised X_l
        log_n = summod._log_at(n, W)
        X = [1 << W]
        for _ in range(3):
            X.append(X[-1] * log_n >> W)
        lb = n.bit_length()
        S = collections.defaultdict(lambda: [Fraction(0), Fraction(0)])
        for (l, m), c in terms.items():
            for part in (0, 1):
                S[l][part] += Fraction(c[part]) / Fraction(n) ** m
        horner = {}
        for l, parts in S.items():
            horner[l] = []
            for part, exact in enumerate(parts):
                # the floored Horner steps, one division by n per decay
                x = 0
                for m in range(20, 0, -1):
                    x = (x + terms.get((l, m), (0, 0))[part]) // n
                x += sum(terms.get((l, -m), (0, 0))[part] * n ** m for m in range(3))
                assert x == math.floor(exact)
                horner[l].append(x)
        assert summod._read(terms, W, n) == tuple(
            sum(horner[l][part] * X[l] for l in horner) for part in (0, 1))
        up_terms = {key: abs(x) for key, (x, _) in terms.items()}
        raised = [x + (3 * l * lb ** (l - 1) + 1 if l else 0) for l, x in enumerate(X)]
        U = collections.defaultdict(Fraction)
        for (l, m), c in up_terms.items():
            U[l] += Fraction(c) / Fraction(n) ** m
        assert summod._read(up_terms, W, n, up=True) == (
            sum(math.ceil(u) * raised[l] for l, u in U.items()), 0)

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-2, 20)),
                           st.tuples(st.integers(-2 ** 300, 2 ** 300),
                                     st.integers(-2 ** 300, 2 ** 300)), min_size=1, max_size=30),
           st.integers(2, 2 * summod.MATCH_CEILING), st.sampled_from([128, 256, 320, 576]))
    def test_within_the_derived_bound(self, terms, n, W):
        # against the true log n: < 2^-W sum_l (lb^l + 3 l lb^(l-1) |S_l|),
        # S_l the exact sum of power l's terms
        lb = n.bit_length()
        with mp.workprec(W + 450):
            x, inv, unit = mp.log(n), mp.mpf(1) / n, mp.mpf(2) ** -W
            S = collections.defaultdict(lambda: mp.mpc(0))
            for (l, m), (re, im) in terms.items():
                S[l] += mp.mpc(re, im) * unit * inv ** m
            want = mp.fsum(v * x ** l for l, v in S.items())
            bound = unit * mp.fsum(lb ** l + 3 * l * lb ** max(0, l - 1) * abs(v)
                                   for l, v in S.items())
            got = mp.mpc(*summod._read(terms, W, n)) * unit ** 2
            assert abs(got.real - want.real) < bound
            assert abs(got.imag - want.imag) < bound


class TestZeroImaginaryLists:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([ONE, MINUS_ONE]), st.integers(-2, 3),
                              st.integers(0, 2)), min_size=1, max_size=3),
           st.sets(st.integers(2, 2600), min_size=1, max_size=3), st.sampled_from([128, 256]))
    def test_plus_minus_one_against_the_pass_one_n_at_a_time(self, spec, cutoffs, prec):
        # at z in {1, -1}^r every imaginary list and level sum is exactly 0:
        # every level j >= 1 bit for bit as the per-n pass, and level 0
        # within 2^-(prec+8) of it, with an imaginary part of exactly 0
        z, a, kvec = (list(col) for col in zip(*spec))
        cutoffs = sorted(cutoffs | {1024, 1025})
        with mp.workprec(prec):
            state = summod.NestedPass(cutoffs[-1])
            nested_sums(z, a, kvec, cutoffs, state)
            P, hits, _ = fixed_point_pass(z, a, kvec, cutoffs, cutoffs[-1])
        for N in cutoffs:
            for j in range(1, len(z)):
                assert state.raw_sum(N, j)[:2] == (hits[N][0][j], hits[N][1][j])
            x, y, _ = state.raw_sum(N)
            assert y == 0 == hits[N][1][0]
            assert abs(x - hits[N][0][0]) <= 2 ** (P - prec - 8)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.just(ONE), st.just(MINUS_ONE), primitive_roots(60)),
           st.one_of(st.integers(-2, 3), st.builds(lambda re, im: mp.mpc(re, im),
                                                   st.floats(-1, 3), st.floats(-1, 1))),
           st.integers(0, 2), st.integers(1, 2500), st.sampled_from([128, 256]))
    def test_depth_one_level_zero_against_residue_sums(self, xi, s, k, base, prec):
        # depth 1: level 0's lists before z_1^n are real.  The residue sums
        # rebuilt from the terms of the per-n pass at z = 1 (the same P,
        # floors and n^-s entries), R_c the sum of the terms of
        # each class n = c mod q, and t_N = sum_c z^c R_c floored once: bit
        # for bit the kernel's, at cutoffs that read level 0 in full and
        # within q of each other
        q = xi.order
        cutoffs = sorted({base, base + 1, base + q // 2 + 1, base + 2 * q + 3, 2 * base + 7})
        top = cutoffs[-1]
        with mp.workprec(prec):
            state = summod.NestedPass(top)
            nested_sums((xi,), (s,), (k,), cutoffs, state)
            P, hits, _ = fixed_point_pass((ONE,), (s,), (k,), range(1, top + 1), top)
        assert state.P == P
        table = summod._fixed_power_table(xi, P)
        for N in cutoffs:
            R, I = [0] * q, [0] * q
            for m in range(1, N):
                R[m % q] += hits[m + 1][0][0] - hits[m][0][0]
                I[m % q] += hits[m + 1][1][0] - hits[m][1][0]
            want = (sum(c * x - s_ * y for (c, s_), x, y in zip(table, R, I)) >> P,
                    sum(s_ * x + c * y for (c, s_), x, y in zip(table, R, I)) >> P)
            assert state.raw_sum(N)[:2] == want
