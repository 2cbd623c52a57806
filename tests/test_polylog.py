import random

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mplreg.asymptotics import DepthSpec, depth_expansion
from mplreg.errors import DomainError, NonConvergenceError, PrecisionError
import mplreg.polylog as polylog_mod
from mplreg.polylog import (
    EvalReport,
    _oscillation_period,
    _tail_exponents,
    brute_partial_sum,
    eval_convergent,
    eval_integer_point,
    pochhammer,
    stieltjes_constant,
    verify_translation,
)
from mplreg.rootsofunity import RotationNumber, ZVector
import mplreg.summation as summod
from mplreg.summation import nested_sums

from oracles import (averaged_limit, em_zeta, mp_operator_series, mp_series_order,
                     per_term_translation, primitive_roots, series_reference,
                     translation_series)

Z = ZVector.parse


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(1, 3) == 6
        assert pochhammer(0, 2) == 0
        assert pochhammer(mp.mpf("0.5"), 2) == mp.mpf("0.75")

    def test_count_validation(self):
        with pytest.raises(ValueError):
            pochhammer(1, 0)


class TestBrutePartialSum:
    def test_depth_one(self):
        got = brute_partial_sum(Z("1"), [2], 3)
        assert got == mp.mpf("1.25")

    def test_depth_two_enumeration(self):
        got = brute_partial_sum(Z("1,-1"), [2, 0], 4)
        assert abs(got + mp.mpf("0.25")) < mp.mpf("1e-35")

    def test_zero_below_depth(self):
        for n in (0, 1, 2):
            assert brute_partial_sum(Z("1,-1"), [2, 0], n) == 0

    def test_tail_is_difference(self):
        z, s = Z("1,-1"), [2, -1]
        t_n = brute_partial_sum(z, s, 20)
        t_m = brute_partial_sum(z, s, 50)
        tail = brute_partial_sum(z, s, 20, 50)
        assert abs(tail - (t_m - t_n)) < mp.mpf("1e-30")

    @pytest.mark.parametrize("N,M", [(0, None), (1, None), (0, 5), (5, None)])
    def test_shape_is_checked_at_every_cutoff(self, N, M):
        # below the depth the sum is 0, but a point of the wrong depth is
        # still an error
        with pytest.raises(DomainError):
            brute_partial_sum(Z("1,-1"), [2], N, M)

    def test_closed_form_limit(self):
        # sum over n1 > n2 of (-1)^n2 / n1^2 converges to -zeta(2)/4
        limit = averaged_limit(
            lambda cs: nested_sums(Z("1,-1"), [2, 0], (0, 0), cs), 2)
        assert abs(limit + em_zeta(2) / 4) < mp.mpf("1e-12")


class TestRootsOnly:
    ENTRIES = {
        "nested_sums": lambda z, s: nested_sums(z, s, (0,) * len(z), [10]),
        "brute_partial_sum": lambda z, s: brute_partial_sum(z, s, 10),
        "verify_translation": lambda z, s: verify_translation(z, s, 20, 10),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("j", [0, 1])
    def test_non_root_weight_raises_before_any_pass(self, monkeypatch, entry, j):
        # a z_j given as a complex number rather than a RotationNumber
        def no_pass(*args):
            raise AssertionError("a pass was started")

        monkeypatch.setattr(summod.NestedPass, "_start", no_pass)
        z = [RotationNumber(1, 3), RotationNumber(1, 4)]
        z[j] = mp.mpc("0.6", "0.3")
        with pytest.raises(TypeError):
            self.ENTRIES[entry](z, [mp.mpf(2), mp.mpf(2)])


class TestEvalConvergent:
    def test_closed_forms(self):
        for s in (2, 3):
            rep = eval_convergent(Z("1,-1"), [s, 0], tol=mp.mpf("1e-12"))
            want = -mp.mpf(2) ** (-s) * em_zeta(s)
            assert abs(rep.value - want) < mp.mpf("1e-11")
            assert abs(rep.value - want) < 4 * rep.abs_error_estimate + mp.mpf("1e-11")

    def test_alternating_halfline(self):
        rep = eval_convergent(Z("-1"), [mp.mpf("0.5")], tol=mp.mpf("1e-10"))
        with mp.workprec(mp.mp.prec + 64):
            err = abs(rep.value - mp.polylog(mp.mpf("0.5"), -1))
        assert err < mp.mpf("1e-8")
        assert err <= rep.abs_error_estimate

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            eval_convergent(Z("1"), [mp.mpf("0.5")])

    def test_boundary_point_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_convergent(Z("1,-1"), [1, 0])

    def test_accelerated_ceiling_raises(self):
        with pytest.raises(NonConvergenceError):
            polylog_mod._ladder(Z("-1"), [mp.mpf("0.1")], mp.mpf("1e-30"), 2000)

    @pytest.mark.parametrize("tol,ceiling", [(0, 20000), (-1, 20000),
                                             ("1e-12", 10), ("1e-12", 63)])
    def test_hopeless_ladder_raises_before_summing(self, tol, ceiling,
                                                   monkeypatch):
        # a tol <= 0 can never be met, and at z = 1/4 the first rung is 64
        def no_sums(*args):
            raise AssertionError("a term was summed")

        monkeypatch.setattr(polylog_mod, "_nested_sums", no_sums)
        with pytest.raises(ValueError):
            eval_convergent(Z("1/4"), [mp.mpf("0.4")], tol=tol, ceiling=ceiling)

    def test_oscillation_period_is_the_full_lcm(self):
        assert _oscillation_period(Z("1/5,1/7,1/13")) == 455
        assert _oscillation_period(Z("1,-1,1/3")) == 6

    def test_raw_mode_matches_contract(self):
        # the convergent route keeps the contract at an absolutely
        # convergent point: the value lies within its estimate
        rep = eval_convergent(Z("-1"), [2], tol=mp.mpf("1e-6"))
        want = -(1 - mp.mpf(2) ** -1) * em_zeta(2)  # -eta(2)
        assert abs(rep.value - want) <= rep.abs_error_estimate + mp.mpf("1e-12")
        assert "accelerated" not in rep.diagnostics


class TestConvergentRoute:
    # tol and ceiling of the benchmark's convergent operations
    TOL, CEILING = mp.mpf("1e-10"), 2 * 10**5

    def convergent(self, z, s):
        return eval_convergent(z, s, tol=self.TOL, ceiling=self.CEILING)

    # at (-1,1) and (1/3,1), a = (1,1), two chains of tail exponents meet and
    # the partial sums carry a log N term
    @pytest.mark.parametrize("ztext,a", [("1/29", (1,)), ("1/3,2/3", (1, 1)),
                                         ("1/7,1/11", (1, 1)), ("-1,1", (1, 1)),
                                         ("1/3,1", (1, 1))])
    def test_agrees_with_regularised_route(self, ztext, a):
        conv = self.convergent(Z(ztext), list(a))
        reg = eval_integer_point(Z(ztext), a)
        assert abs(conv.value - reg.value) <= (conv.abs_error_estimate
                                               + reg.abs_error_estimate)

    def test_stuffle_at_a_slow_tail(self):
        # Li_s(-1) Li_t(-1) = Li_{s,t}(-1,-1) + Li_{t,s}(-1,-1) + zeta(s+t):
        # at s + t = 1.3 the averaged partial sums decay only like N^-0.3
        s, t = mp.mpf("0.7"), mp.mpf("0.6")
        st = self.convergent(Z("-1,-1"), [s, t])
        ts = self.convergent(Z("-1,-1"), [t, s])
        with mp.workprec(mp.mp.prec + 64):
            want = mp.polylog(s, -1) * mp.polylog(t, -1) - mp.zeta(s + t)
        assert abs(st.value + ts.value - want) <= (st.abs_error_estimate
                                                   + ts.abs_error_estimate)

    def test_tail_exponents(self):
        got = _tail_exponents(Z("-1,-1"), [mp.mpf("0.7"), mp.mpf("0.6")], 5)
        want = ["0.3", "1.3", "1.7", "2.3", "2.7"]
        assert all(abs(e - mp.mpf(w)) < mp.mpf("1e-30") for e, w in zip(got, want))
        assert len(got) == 5

    def check_against_mp_polylog(self, xi, s):
        rep = self.convergent(ZVector([xi]), [s])
        with mp.workprec(mp.mp.prec + 64):
            want = mp.polylog(s, xi.value())
        assert abs(rep.value - want) <= rep.abs_error_estimate

    @pytest.mark.parametrize("ztext,s", [("1/3", "0.5"), ("1/6", "1"),
                                         ("1/5", "0.7"), ("2/5", "0.3"),
                                         ("1/12", "0.5")])
    def test_depth_one_against_mp_polylog(self, ztext, s):
        self.check_against_mp_polylog(RotationNumber.parse(ztext), mp.mpf(s))

    @settings(max_examples=8, deadline=None)
    @given(primitive_roots(30), st.floats(0.3, 0.9))
    def test_depth_one_sweep_against_mp_polylog(self, xi, s):
        self.check_against_mp_polylog(xi, mp.mpf(s))

    # a point whose extrapolated increments once fell below its error at 53
    # bits, run at that precision's floor 2^-33
    ROUNDING_POINT = RotationNumber(11, 18), mp.mpf(0.6518809305976807)

    def test_estimate_carries_rounding(self):
        xi, s = self.ROUNDING_POINT
        with mp.workprec(53):
            rep = eval_convergent(ZVector([xi]), [s], tol=mp.mpf(2) ** -33,
                                  ceiling=self.CEILING)
        with mp.workprec(128):
            err = abs(rep.value - mp.polylog(s, xi.value()))
        assert err <= rep.abs_error_estimate

    def test_ladder_estimate_carries_rounding(self):
        # the ladder stops at cutoff 4,608 with 4 times the last increment
        # at 3.1e-13, and the rounding slack of the sums up to the last
        # cutoff reached (8.7e-10) dominates an estimate that must stay
        # above the error (2.6e-16)
        xi, s = self.ROUNDING_POINT
        with mp.workprec(53):
            rep = polylog_mod._ladder(ZVector([xi]), [s], mp.mpf(2) ** -33, self.CEILING)
        with mp.workprec(128):
            err = abs(rep.value - mp.polylog(s, xi.value()))
        assert err <= rep.abs_error_estimate

    def test_ladder_is_one_pass(self):
        # every rung is a multiple of the period, and one pass sums each
        # n below the last cutoff reached (cutoff + period - 1) exactly once
        d = polylog_mod._ladder(Z("1/3"), [mp.mpf("0.5")], self.TOL, self.CEILING).diagnostics
        assert d["cutoff"] % d["period"] == 0
        assert d["terms"] == d["cutoff"] + d["period"] - 2


def hurwitz_polylog(xi: RotationNumber, s):
    """Li_s(xi) = q^-s sum_{c=1..q} xi^c zeta(s, c/q), q the order of xi, by
    mp.zeta (zeta(s) at xi = 1) at the working precision; mp.polylog takes
    5-12 s per value at 576 bits, this 0.1-2.2 s for q <= 60.

    At xi != 1 the poles 1/(s - 1) of the q terms cancel, as
    sum_c xi^c = 0, and so do log2(q/|s - 1|) of their bits: next to s = 1
    the sum runs with that many more.  Within 2^-(prec+64) of s = 1, s = 1
    itself included, each zeta(s, a) - 1/(s - 1) is -psi(a), its value at
    s = 1 (Gauss's digamma theorem then gives -log(1 - xi)), to within
    |gamma_1(a)| |s - 1|, gamma_1 the first Stieltjes constant."""
    q, prec = xi.order, mp.mp.prec
    near = 0 if xi.is_one() else mp.inf if s == 1 else -mp.mag(s - 1)

    def terms(f):
        v = xi.value()
        return mp.fsum(v ** c * f(mp.mpf(c) / q) for c in range(1, q + 1))

    if near > prec + 64:
        return -mp.mpf(q) ** -s * terms(mp.digamma)
    with mp.workprec(prec + (near + q.bit_length() + 8 if near > 0 else 0)):
        return mp.mpf(q) ** -s * terms(lambda a: mp.zeta(s, a))


class TestOperatorSeriesRoute:
    # depth 1: t_N at one cutoff less the operator series of its tail

    @settings(max_examples=16, deadline=None)
    @given(st.one_of(st.just(RotationNumber(0, 1)), primitive_roots(60)),
           st.floats(0, 4, exclude_min=True), st.floats(-5, 5),
           st.sampled_from([53, 128, 256, 512]), st.booleans())
    @example(RotationNumber(0, 1), 1.25, 3.0, 512, False)
    @example(RotationNumber(1, 60), 0.05, -5.0, 512, False)
    @example(RotationNumber(1, 4), 0.4, 0.5, 256, True)
    @example(RotationNumber(1, 3), 1.0, 0.0, 53, False)
    @example(RotationNumber(1, 3), 1.0, 7.966623963182761e-249, 53, False)
    def test_against_closed_form(self, xi, re_s, im_s, prec, at_floor):
        # re_s lies in (0, 4]; at xi = 1 it is mapped into (1, 4], away from
        # the pole, where |zeta(s)| ~ 1/|s - 1| takes the digits a tol needs
        if xi.is_one():
            re_s = 1 + 3 * max(re_s, 0.25) / 4
        s = mp.mpc(re_s, im_s)
        with mp.workprec(prec):
            tol = 4 * mp.mpf(2) ** (20 - prec) if at_floor else mp.mpf("1e-10")
            tol = max(tol, mp.mpf(2) ** (20 - prec))
            rep = eval_convergent(ZVector([xi]), [s], tol=tol)
        with mp.workprec(prec + 64):
            err = abs(rep.value - hurwitz_polylog(xi, s))
        assert err <= rep.abs_error_estimate, (err, rep)
        assert err <= tol, (err, rep)
        assert set(rep.diagnostics) == {"cutoff", "order", "terms"}

    # with the depth-2 points of the benchmark's direct workload
    @pytest.mark.parametrize("ztext,s", [("-1", "0.5"), ("-1", "0.3+1j"), ("1/4", "0.6"),
                                         ("1/4", "0.4+0.5j"), ("1/3", "0.5"), ("1/6", "1"),
                                         ("1/5", "0.7"), ("2/7", "1.5-2j"), ("-1,1", "1.5,0.5"),
                                         ("-1,1/3", "1.5,1"), ("-1,-1", "0.7,0.6")])
    def test_agrees_with_the_ladder(self, ztext, s):
        z, s, tol = Z(ztext), [mp.mpc(complex(x)) for x in s.split(",")], mp.mpf("1e-10")
        rep = eval_convergent(z, s, tol=tol)
        ref = polylog_mod._ladder(z, s, tol, 2 * 10**5)
        assert abs(rep.value - ref.value) <= rep.abs_error_estimate + ref.abs_error_estimate
        assert rep.diagnostics["cutoff"] <= 256

    def test_high_order(self):
        xi, s = RotationNumber(1, 10007), mp.mpf("1.5")
        rep = eval_convergent(ZVector([xi]), [s], tol=mp.mpf("1e-10"))
        with mp.workprec(mp.mp.prec + 64):
            err = abs(rep.value - mp.polylog(s, xi.value()))
        assert err <= rep.abs_error_estimate <= mp.mpf("1e-10")

    def test_small_ceiling_raises_before_summing(self, monkeypatch):
        # order 4,001 at tol 1e-10 needs cutoff 16,384
        def no_sums(*args):
            raise AssertionError("a term was summed")

        monkeypatch.setattr(polylog_mod, "_nested_sums", no_sums)
        with pytest.raises(NonConvergenceError, match="16384"):
            eval_convergent(Z("1/4001"), [mp.mpf("1.5")], tol=mp.mpf("1e-10"), ceiling=10**4)


class TestIntegerOperatorSeries:
    # the operator series and its order rule on integers against the mpc
    # and mpf references (``oracles.mp_operator_series`` at prec + 64,
    # ``oracles.mp_series_order`` at prec)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.just(RotationNumber(0, 1)), primitive_roots(60)),
           st.floats(0, 4, exclude_min=True), st.floats(-5, 5),
           st.sampled_from([64, 256, 4096]), st.integers(0, 40),
           st.sampled_from([53, 128, 256, 512]))
    @example(RotationNumber(1, 2), 0.6, 0.0, 64, 40, 256)
    @example(RotationNumber(0, 1), 4.0, 0.0, 4096, 0, 512)
    @example(RotationNumber(1, 60), 0.05, -5.0, 64, 40, 53)
    def test_against_mpc_reference(self, xi, re_s, im_s, N, J, prec):
        if xi.is_one():  # Re s > 1 there, as on U_1(1)
            re_s = 1 + 3 * max(re_s, 0.25) / 4
        with mp.workprec(prec):
            s = mp.mpc(re_s, im_s)
            value, mass, coeffs = polylog_mod._operator_series(xi, s, N, J, prec, weights=True)
            tol = max(mp.mpf("1e-10"), mp.mpf(2) ** (22 - prec))
            found = polylog_mod._series_order(xi, s, N, tol)
            want = mp_series_order(xi, s, N, tol)
        ref_value, ref_mass, ref_coeffs = mp_operator_series(xi, s, N, J, prec + 64)
        with mp.workprec(prec + 64):
            # the derived bound of the integer series, and the reference's own
            # error at prec + 64 bits
            bound = (mp.ldexp(abs(ref_value), -prec) + mp.ldexp(mass, -prec - 14)
                     + mp.ldexp(1 + ref_mass, -prec - 50))
            assert abs(value - ref_value) <= bound
            assert mass >= ref_mass
            assert len(coeffs) == J + 1
            for (w, W), (ref_w, ref_W) in zip(coeffs, ref_coeffs):
                assert W >= ref_W
                assert abs(w - ref_w) <= mp.ldexp(W, 1 - prec)
        assert (found and found[0]) == (want and want[0])


ROOTS_TO_12 = st.one_of(st.just(RotationNumber(0, 1)), primitive_roots(12))


class TestNestedSeriesRoute:
    # depth 2: the operator series of the inner sum and of each outer tail

    @settings(max_examples=20, deadline=None)
    @given(ROOTS_TO_12, ROOTS_TO_12, st.floats(0.05, 3), st.floats(-3, 3),
           st.floats(-1, 3), st.floats(-3, 3), st.sampled_from([128, 256]),
           st.sampled_from(["1e-10", "1e-20"]))
    @example(RotationNumber(1, 2), RotationNumber(1, 2), 0.7, 0.0, 0.6, 0.0, 256, "1e-60")
    def test_stuffle(self, x, y, re_s, im_s, re_t, im_t, prec, tol):
        # Li(x,y; s,t) + Li(y,x; t,s) = Li_s(x) Li_t(y) - Li_{s+t}(xy) on both
        # U_2 domains, against the depth-1 values at prec + 64
        with mp.workprec(prec):
            s, t, tol = mp.mpc(re_s, im_s), mp.mpc(re_t, im_t), mp.mpf(tol)
            xy, yx = ZVector([x, y]), ZVector([y, x])
            assume(polylog_mod._domain_flags(xy, [s, t])["Urz"]
                   and polylog_mod._domain_flags(yx, [t, s])["Urz"])
            st_, ts = eval_convergent(xy, [s, t], tol=tol), eval_convergent(yx, [t, s], tol=tol)
        with mp.workprec(prec + 64):
            want = hurwitz_polylog(x, s) * hurwitz_polylog(y, t) - hurwitz_polylog(x * y, s + t)
            err = abs(st_.value + ts.value - want)
        assert err <= st_.abs_error_estimate + ts.abs_error_estimate, (err, st_, ts)
        assert set(st_.diagnostics) == {"cutoff", "order", "terms"}

    def test_small_ceiling_raises_before_summing(self, monkeypatch):
        # the outer tail T(z1, s1) at order 4,001 needs cutoff 16,384, as at
        # depth 1
        def no_sums(*args):
            raise AssertionError("a term was summed")

        monkeypatch.setattr(polylog_mod, "_nested_sums", no_sums)
        with pytest.raises(NonConvergenceError, match="16384"):
            eval_convergent(Z("1/4001,1/3"), [mp.mpf("1.5"), mp.mpf("1")],
                            tol=mp.mpf("1e-10"), ceiling=10**4)

    @pytest.mark.parametrize("ztext", ["-1,1", "1/3,1"])
    def test_inner_harmonic_stays_on_the_ladder(self, ztext):
        # z2 = 1 with s2 = 1: the inner sum carries log n
        d = eval_convergent(Z(ztext), [1, 1], tol=mp.mpf("1e-10")).diagnostics
        assert {"rungs", "period"} <= set(d)


class TestEvalIntegerPoint:
    def test_depth_two_alternating_inner(self):
        rep = eval_integer_point(Z("1,-1"), (2, -1), A=6)
        want = mp.log(2) / 2 - mp.pi ** 2 / 16
        assert abs(rep.value - want) < mp.mpf("1e-12")
        assert rep.method == "regularised"

    @pytest.mark.parametrize("ztext,a", [("1,-1", (2, 0)), ("-1", (1,)),
                                         ("1/3,1/2", (2, 1))])
    def test_cross_validation_with_convergent(self, ztext, a):
        reg = eval_integer_point(Z(ztext), a, A=6)
        conv = eval_convergent(Z(ztext), list(a), tol=mp.mpf("1e-12"))
        spread = abs(reg.value - conv.value)
        assert spread <= reg.abs_error_estimate + 4 * conv.abs_error_estimate + mp.mpf("1e-11")

    def test_alternating_harmonic(self):
        rep = eval_integer_point(Z("-1"), (1,), A=5)
        assert abs(rep.value + mp.log(2)) < mp.mpf("1e-15")

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            eval_integer_point(Z("1,-1"), (1, 0))
        # a point of the wrong length is a DomainError, not DepthSpec's ValueError
        with pytest.raises(DomainError, match="point has 1 coordinates, z has depth 2"):
            eval_integer_point(Z("1,1"), (1,))

    def test_oracle_agreement_random_convergent_points(self):
        rng = random.Random(5)
        cases = [
            (Z("-1"), (1,)),
            (Z("1,-1"), (2, 0)),
            (Z("1/3,2/3"), (1, 1)),
            (Z("-1,1,-1"), (1, 1, 0)),
        ]
        for z, a in cases:
            rep = eval_integer_point(z, a, A=5)
            period = 1
            for zi in z:
                period = period * zi.order // mp.libmp.gcd(period, zi.order)
            limit = averaged_limit(
                lambda cs: nested_sums(z, a, (0,) * len(a), cs), period)
            assert abs(rep.value - limit) < mp.mpf("1e-8"), (z, a, rng)

    @pytest.mark.parametrize("ztext, a", [
        ("1/7,2/7", (2, 1)), ("1/3", (1,)), ("-1,1/6", (3, 1)), ("1", (2,))])
    def test_results_do_not_depend_on_the_memos(self, ztext, a):
        # the same value and estimate, bit for bit, with every lru memo of
        # summation cleared (the coefficient bounds with ``_geometric_list``,
        # the log tables, the default tolerances among them), warm, and after
        # the same call at 256 bits and at the conjugate root: no memo keyed
        # on a scale or a precision leaks into another
        z = Z(ztext)

        def bits():
            rep = eval_integer_point(z, a)
            return rep.value._mpc_, rep.abs_error_estimate._mpf_

        cleared = set()
        for name, memo in vars(summod).items():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
                cleared.add(name)
        assert {"_geometric_list", "_log_table", "_default_tol"} <= cleared
        cold, warm = bits(), bits()
        with mp.workprec(256):
            eval_integer_point(z, a)
        eval_integer_point(ZVector([RotationNumber(-z[i].fraction) for i in range(z.r)]), a)
        assert cold == warm == bits()

    def test_reads_build_no_power_table_of_a_product_character(self, monkeypatch):
        # the depth driver reads the character z_1 z_2, of order
        # lcm(101, 103) = 10,403, at the matching cutoffs one value xi^n at a
        # time: the only power tables built are the kernel's, one per root
        orders, table = [], summod._fixed_power_table

        def spy(xi, P):
            orders.append(xi.order)
            return table(xi, P)

        monkeypatch.setattr(summod, "_fixed_power_table", spy)
        eval_integer_point(Z("1/101,1/103"), (1, 1))
        assert set(orders) == {101, 103}

    def test_regularised_route_at_512_bits(self):
        # (1/7, 2/7), a = (2, 1) at 512 bits and tol 1e-90 lies within its
        # estimate (about 2e-101) of the same call at 1,024 bits and tol
        # 1e-200; the two agree to about 1e-125
        z = Z("1/7,2/7")
        with mp.workprec(512):
            lo = eval_integer_point(z, (2, 1), tol=mp.mpf("1e-90"))
        with mp.workprec(1024):
            hi = eval_integer_point(z, (2, 1), tol=mp.mpf("1e-200"))
            assert abs(lo.value - hi.value) <= lo.abs_error_estimate


class TestHighOrderRoutes:
    @settings(max_examples=30, deadline=None)
    @given(primitive_roots(60), st.sampled_from([-1, 0, 1, 2, 3]),
           st.sampled_from([128, 256]))
    def test_depth_one_against_mp_polylog(self, xi, a, prec):
        # a <= 0 lies outside V_1(z), so depth_expansion is called directly
        with mp.workprec(prec):
            e = depth_expansion(DepthSpec(ZVector([xi]), (a,), (0,)), 6)
        with mp.workprec(prec + 64):
            want = mp.polylog(a, xi.value())
        assert abs(e.regularised_value() - want) <= e.residual_bound

    def test_depth_three_across_precisions(self):
        z, a = Z("1/5,1/7,1/13"), (1, 1, 1)
        low = eval_integer_point(z, a, A=5)
        with mp.workprec(192):
            high = eval_integer_point(z, a, A=7)
        assert abs(low.value - high.value) <= (low.abs_error_estimate
                                               + high.abs_error_estimate)


class TestStieltjes:
    def test_examples(self):
        assert abs(stieltjes_constant(Z("-1"), (0,), (0,)) + mp.mpf("0.5")) < mp.mpf("1e-15")
        assert abs(stieltjes_constant(Z("-1"), (0,), (1,))
                   - mp.log(mp.pi / 2) / 2) < mp.mpf("1e-15")
        want = -mp.log(2) / 2 + mp.mpf("0.25")
        assert abs(stieltjes_constant(Z("1,-1"), (2, -2), (0, 0)) - want) < mp.mpf("1e-15")

    def test_no_convergence_gate(self):
        # (1,) is far outside V_1(1) yet the regularised value exists
        value = stieltjes_constant(Z("1"), (1,), (0,), A=4)
        assert abs(value - mp.euler) < mp.mpf("1e-15")

    def test_log_weighted_depth_two_against_averaged_limit(self):
        from mplreg.asymptotics import nested_char_partial_sums

        z, a, kvec = Z("1,-1"), (2, 1), (0, 1)
        value = stieltjes_constant(z, a, kvec, A=6)
        limit = averaged_limit(
            lambda cs: nested_char_partial_sums(z, a, kvec, cs), 2)
        assert abs(value - limit) < mp.mpf("1e-10")

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize("ztext", ["2/5", "1/6"])
    def test_depth_one_nonpositive_estimate_is_honest(self, ztext, prec):
        # the matched constant carries the rounding of the 2N-term sum,
        # which the double-cutoff drift cannot see
        with mp.workprec(prec):
            for a in (-1, 0):
                e = depth_expansion(DepthSpec(Z(ztext), (a,), (0,)), 6)
                with mp.workprec(prec + 64):
                    want = mp.polylog(a, RotationNumber.parse(ztext).value())
                assert abs(e.regularised_value() - want) <= e.residual_bound, a


class TestTranslation:
    def test_depth_one(self):
        rep = verify_translation(Z("-1"), [mp.mpc(1.5, 0.5)], 40, 10,
                                 tol=mp.mpf("1e-22"))
        assert rep.residual < mp.mpf("1e-20")

    def test_depth_two(self):
        rep = verify_translation(Z("1,-1"), [2, -1], 60, 20, tol=mp.mpf("1e-20"))
        assert rep.residual < mp.mpf("1e-18")

    def test_depth_three_random_roots(self):
        rng = random.Random(11)
        for _ in range(3):
            dens = [rng.choice([2, 3, 4, 5, 6]) for _ in range(3)]
            z = ZVector([RotationNumber(rng.randrange(1, d), d) for d in dens])
            s = [mp.mpc(rng.uniform(0.2, 3), rng.uniform(-1, 1)) for _ in range(3)]
            rep = verify_translation(z, s, 50, 15, tol=mp.mpf("1e-17"))
            assert rep.residual < mp.mpf("1e-15")

    def test_residual_tracks_tolerance(self):
        z, s = Z("1,-1"), [2, -1]
        loose = verify_translation(z, s, 60, 20, tol=mp.mpf("1e-12"))
        tight = verify_translation(z, s, 60, 20, tol=mp.mpf("1e-24"))
        assert tight.residual <= loose.residual * 2 + mp.mpf("1e-24")

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            verify_translation(Z("-1"), [2], 10, 10)

    def test_shape_is_checked_before_the_tolerance(self):
        # shape (exit 2), then tolerance (4), then cutoffs (1)
        with pytest.raises(DomainError):
            verify_translation(Z("1/3,1/3"), [mp.mpc(0.8)], 50, 12,
                               tol=mp.mpf("1e-40"))
        with pytest.raises(PrecisionError):
            verify_translation(Z("1/3"), [mp.mpc(0.8)], 10, 10,
                               tol=mp.mpf("1e-40"))

    def test_unreachable_tolerance_fails_before_summing(self, monkeypatch):
        def no_sums(*args):
            raise AssertionError("summed although the tolerance is unreachable")

        monkeypatch.setattr(polylog_mod, "nested_sums", no_sums)
        # the floor at 128 bits is 2^-108, about 3.1e-33
        with pytest.raises(PrecisionError, match="precision floor"):
            verify_translation(Z("1/3"), [mp.mpc(0.8, -0.6)], 50, 12,
                               tol=mp.mpf("1e-40"))

    def test_one_term_tail_at_depth_two(self):
        # M = N + 1 leaves the merged tail t_{M-1,N} empty
        rep = verify_translation(Z("1/2,1/3"), [2, 2], 3, 2, tol=mp.mpf("1e-20"))
        assert rep.residual < mp.mpf("1e-20")

    # the entries of z: 1 (delta_1 = 0) and roots of order <= 12
    WEIGHTS = st.one_of(st.just(RotationNumber(0, 1)), primitive_roots(12))

    @settings(max_examples=30, deadline=None)
    @example(z=[RotationNumber(1, 5)], re_s1=20.0, im_s1=0.0, rest=[(0.2, 0.0)] * 2,
             N=2, span=5, digits=30, prec=128)
    @given(z=st.lists(WEIGHTS, min_size=1, max_size=3),
           re_s1=st.floats(0.2, 20), im_s1=st.floats(-2, 2),
           rest=st.lists(st.tuples(st.floats(0.2, 3), st.floats(-1, 1)),
                         min_size=2, max_size=2),
           N=st.sampled_from([2, 3, 12]), span=st.integers(1, 40),
           digits=st.integers(8, 30), prec=st.sampled_from([128, 256]))
    def test_derived_stop_bounds_the_dropped_terms(self, z, re_s1, im_s1, rest,
                                                   N, span, digits, prec):
        # at Re s_1 up to 20 the coefficients grow before they decay; the
        # series summed on until its bound is below tol 1e-10 differs from
        # the stopped one by at most tol/100 plus rounding.  At the example
        # the coefficients reach 2^80 over 170 terms: with the floors of
        # T_k at 2^-P the rhs erred by 2.7e-32 against a bound of 1.0e-32
        M = N + span
        with mp.workprec(prec):
            tol = mp.mpf(10) ** (-digits * prec // 128)
            s = [mp.mpc(re_s1, im_s1)] + [mp.mpc(re, im) for re, im in rest[:len(z) - 1]]
            rep = verify_translation(z, s, M, N, tol=tol)
            ref = series_reference(z, s, M, N, tol * mp.mpf("1e-10"))
            bound = tol / 100 + mp.mpf(2) ** (10 - prec) * M * (1 + abs(rep.lhs))
            assert abs(rep.rhs - ref) <= bound

    # (z, s, M, N, tol, long): ``long`` cases sum more than 14 Pochhammer terms
    ONE_PASS_CASES = [
        (Z("-1"), [mp.mpc(1.5, 0.5)], 40, 10, "1e-22", False),
        (Z("1/3"), [mp.mpc(0.8, -0.6)], 50, 12, "1e-30", True),
        (Z("1,-1"), [2, -1], 60, 20, "1e-20", False),
        (Z("1/5,2/3"), [mp.mpc(1.2, 0.4), mp.mpc(0.6)], 40, 12, "1e-18", False),
        (Z("1/4,-1,1/3"), [mp.mpc(1.5), mp.mpc(1, 0.5), mp.mpc(0.8)], 50, 12,
         "1e-30", True),
        # M = N + 1: the merged tail is empty
        (Z("1/2,1/3"), [2, 2], 3, 2, "1e-20", False),
        # Re(shift + s_2) < 1: the merged tail's terms grow like n^2.2
        (Z("1,1/3"), [mp.mpc(-1.5, 0.5), mp.mpc(0.3)], 60, 12, "1e-30", True),
    ]

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize("z, s, M, N, tol, long", ONE_PASS_CASES)
    def test_one_pass_against_per_term_tails(self, monkeypatch, z, s, M, N, tol,
                                             long, prec):
        with mp.workprec(prec):
            tol = mp.mpf(tol)
            ref = per_term_translation(z, s, M, N, tol)
            passes = []

            def counting(*args, **kwargs):
                passes.append(args)
                return nested_sums(*args, **kwargs)

            monkeypatch.setattr(polylog_mod, "nested_sums", counting)
            rep = verify_translation(z, s, M, N, tol=tol)
            assert len(passes) == 1
            assert rep.terms_used == ref.terms_used
            assert not long or rep.terms_used > 14
            bound = mp.mpf(2) ** (10 - prec) * M * (1 + abs(ref.lhs))
            assert abs(rep.lhs - ref.lhs) <= bound
            assert abs(rep.rhs - ref.rhs) <= bound


class TestToleranceRule:
    # every route reads its tolerance through summation.resolve_tol: the
    # floor at 128 bits is 2^-108
    ROUTES = {
        "convergent": lambda tol: eval_convergent(Z("-1"), [mp.mpf("0.5")], tol=tol),
        "translation": lambda tol: verify_translation(Z("1/3"), [mp.mpc(0.8, -0.6)],
                                                      50, 12, tol=tol),
        "integer": lambda tol: eval_integer_point(Z("1,-1"), (2, -1), tol=tol),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("tol,error", [(0, ValueError), (-1, ValueError),
                                           (mp.mpf(2) ** -109, PrecisionError)],
                             ids=["zero", "negative", "half-floor"])
    def test_rejected_before_summing(self, monkeypatch, route, tol, error):
        def no_sums(*args):
            raise AssertionError("a term was summed")

        monkeypatch.setattr(summod, "nested_sums", no_sums)
        monkeypatch.setattr(polylog_mod, "nested_sums", no_sums)
        with mp.workprec(128), pytest.raises(error):
            self.ROUTES[route](tol)

    @pytest.mark.parametrize("route", ["convergent", "translation"])
    def test_default_below_the_floor_is_raised_to_it(self, route):
        # at 53 bits the floor 2^-33 lies above the default 1e-12
        with mp.workprec(53):
            self.ROUTES[route](None)


def translation_trials(seed):
    """The translation trials of ``mplreg verify`` at one seed: depth 1-3,
    complex s, M = 50, N = 12."""
    rng = random.Random(seed)
    for trial in range(9):
        r = 1 + trial % 3
        dens = [rng.choice([2, 3, 4, 5, 6]) for _ in range(r)]
        z = ZVector([RotationNumber(rng.randrange(d), d) for d in dens])
        yield z, [mp.mpc(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)) for _ in range(r)]


class TestTranslationSeries:
    @pytest.mark.parametrize("prec", [53, 128, 256, 512, 1024])
    def test_integer_series_against_mpc_reference(self, prec):
        # the translation trials of ``mplreg verify`` (depth 1-3, complex s,
        # M = 50, N = 12, its default tol) at seeds 0-2: the series on the
        # pass's integers agrees with an mpc series at 64 more bits within
        # its rounding bound and stops after the same number of terms
        with mp.workprec(prec):
            tol = max(mp.mpf("1e-12"), 100 * mp.mpf(2) ** (20 - prec)) / 100
            for seed in range(3):
                for z, s in translation_trials(seed):
                    rep = verify_translation(z, s, 50, 12, tol=tol)
                    rhs, terms_used, bound = translation_series(z, s, 50, 12, tol)
                    assert rep.terms_used == terms_used
                    assert abs(rep.rhs - rhs) <= bound

    @pytest.mark.parametrize("prec", [53, 128, 256, 512, 1024])
    def test_heads_against_mpc_powers(self, monkeypatch, prec):
        # the heads and the merged tail read z_1^(n+1) off the pass's root
        # table and n^(1-shift) = n n^-shift off its n^-s table
        # (``NestedPass.power``), N - 1 <= n < M, against mpc powers at P +
        # 64 bits: within 1 + 2^-16 units 2^-P in each part, and n (3 lb
        # n^max(0, -Re shift) + 1) units 2^-P, lb = bit_length(M).  The call
        # makes one pass
        M, N = 50, 12
        made = []

        class Recorded(summod.NestedPass):
            def __init__(self, top):
                super().__init__(top)
                made.append(self)

        monkeypatch.setattr(polylog_mod, "NestedPass", Recorded)
        for seed in range(3):
            for z, s in translation_trials(seed):
                with mp.workprec(prec):
                    shift = s[0] + (polylog_mod._delta(z[0]) if len(s) > 1 else 0)
                    tol = max(mp.mpf("1e-12"), 100 * mp.mpf(2) ** (20 - prec)) / 100
                    made.clear()
                    verify_translation(z, s, M, N, tol=tol)
                [kernel], q = made, z[0].order
                P = kernel.P
                with mp.workprec(P + 64):
                    unit = mp.ldexp(1, -P)
                    for n in range(N - 1, M):
                        x, y = kernel.root[0][(n + 1) % q], kernel.root[1][(n + 1) % q]
                        assert abs(mp.mpc(x, y) * unit - z[0].value() ** (n + 1)) <= 2 * unit
                        x, y = kernel.power(n)
                        err = abs(n * mp.mpc(x, y) * unit - mp.mpf(n) ** (1 - shift))
                        bound = n * (3 * M.bit_length() * n ** max(0, -shift.real) + 1)
                        assert err <= bound * unit


class TestTailDecay:
    def test_max_tail_decreases_along_cutoffs(self):
        z, s = Z("-1,1"), [mp.mpf("1.2"), mp.mpf("0.1")]
        worst = []
        for N in (10**2, 10**3, 10**4):
            tails = [abs(brute_partial_sum(z, s, N, M))
                     for M in (2 * N, 4 * N)]
            worst.append(max(tails))
        assert worst[0] > worst[1] > worst[2]


class TestEvalReport:
    def test_json_shape(self):
        rep = eval_integer_point(Z("-1"), (2,), A=4)
        obj = rep.to_json_obj()
        assert set(obj) == {"value", "abs_error_estimate", "method",
                            "domain_flags", "diagnostics"}
        assert obj["method"] == "regularised"
        assert obj["domain_flags"]["Vrz"] is True
        # "terms" counts kernel terms summed (as in eval_convergent); the
        # size of the expansion has its own key
        assert "terms" not in obj["diagnostics"]
        assert obj["diagnostics"]["expansion_terms"] == len(
            depth_expansion(DepthSpec(Z("-1"), (2,), (0,)), 4))
        back = mp.mpf(obj["value"]["re"])
        assert back == mp.mpc(rep.value).real
