import json
import random

import mpmath as mp
import pytest

from mplreg.asymptotics import (
    AsymptoticExpansion,
    DepthSpec,
    depth_expansion,
    nested_char_partial_sums,
    order_lower_bound,
    partial_sum,
)
from mplreg.errors import PrecisionError
from mplreg.polylog import eval_integer_point, stieltjes_constant
from mplreg.rootsofunity import MINUS_ONE, ONE, RotationNumber, ZVector, rotation_product
from mplreg.scalefun import ScaleFunction
import mplreg.summation as summod

from oracles import per_term_sums

I_4 = RotationNumber(1, 4)


def exp_of(coeffs, precision):
    """An expansion from a {(xi, l, m): coefficient} dict."""
    by_char = {}
    for (xi, l, m), c in coeffs.items():
        by_char.setdefault(xi, []).append((l, m, c))
    return AsymptoticExpansion({xi: ScaleFunction(t) for xi, t in by_char.items()},
                               precision=precision)


class TestAlgebra:
    def test_add_zero(self):
        e = exp_of({(ONE, 1, 0): mp.mpc(2)}, 3)
        z = exp_of({}, 3)
        assert e.add(z).items() == e.items()

    def test_add_cancels(self):
        e1 = exp_of({(ONE, 0, 0): mp.mpc(3)}, 3)
        e2 = exp_of({(ONE, 0, 0): mp.mpc(-3)}, 3)
        assert e1.add(e2).is_empty()

    def test_add_takes_min_precision_and_drops(self):
        e1 = exp_of({(ONE, 0, 5): mp.mpc(1), (ONE, 0, 2): mp.mpc(1)}, 5)
        e2 = exp_of({(MINUS_ONE, 0, 0): mp.mpc(1)}, 3)
        total = e1.add(e2)
        assert total.precision == 3
        assert total.coefficient(ONE, 0, 5) == 0
        assert total.coefficient(ONE, 0, 2) == 1

    def test_multiply_by_trivial_monomial(self):
        e = exp_of({(MINUS_ONE, 1, 2): mp.mpc(5)}, 4)
        out = e.multiply_monomial(ONE, 0, 0)
        assert out.items() == e.items()
        assert out.precision == 4

    def test_multiply_character_cancellation(self):
        e = exp_of({(MINUS_ONE, 0, 0): mp.mpc(1)}, 2)
        out = e.multiply_monomial(MINUS_ONE, 0, 2)
        assert out.coefficient(ONE, 0, 2) == 1
        assert out.precision == 4

    def test_multiply_index_bookkeeping(self):
        e = exp_of({(ONE, 1, 1): mp.mpc(2)}, 3)
        out = e.multiply_monomial(I_4, 1, -1)
        assert out.coefficient(I_4, 2, 0) == 2
        assert out.precision == 2

    def test_multiply_matches_pointwise_product_at_high_order(self):
        # 1/7 * 1/13 = 20/91: a product character of order 91
        xi0 = RotationNumber(1, 13)
        e = exp_of({(RotationNumber(1, 7), 1, 2): mp.mpc(2, -1),
                    (RotationNumber(1, 7), 0, 0): mp.mpc(3),
                    (ONE, 2, 1): mp.mpc(-1, 5)}, 4)
        out = e.multiply_monomial(xi0, 1, 3)
        assert out.coefficient(RotationNumber(20, 91), 2, 5) == mp.mpc(2, -1)
        for n in (91, 1000, 12345):
            mono = xi0.value() ** n * mp.log(n) * mp.mpf(n) ** -3
            want = e.evaluate(n) * mono
            assert abs(out.evaluate(n) - want) <= mp.mpf(2) ** -100 * abs(want)

    def test_order(self):
        assert exp_of({}, 3).order() == mp.inf
        e = exp_of({(ONE, 0, 2): mp.mpc(1), (MINUS_ONE, 1, -1): mp.mpc(1)}, 3)
        assert e.order() == -1

    def test_evaluate(self):
        e = exp_of({(MINUS_ONE, 0, 0): mp.mpc(1), (ONE, 1, 1): mp.mpc(2)}, 2)
        n = 7
        want = (-1) ** n + 2 * mp.log(7) / 7
        assert abs(e.evaluate(n) - want) < mp.mpf("1e-35")

    def test_log_power_cap(self):
        with pytest.raises(PrecisionError):
            exp_of({(ONE, 100, 0): mp.mpc(1)}, 2)

    def test_json_roundtrip_bit_for_bit(self):
        e = exp_of({(I_4, 1, 2): mp.mpc(mp.pi, -mp.euler),
                    (ONE, 0, 0): mp.mpc(mp.log(2))}, 5)
        obj = json.loads(json.dumps(e.to_json_obj()))
        assert obj["precision"] == e.precision
        assert len(obj["terms"]) == len(e)
        for t, ((xi, l, m), c) in zip(obj["terms"], e.items()):
            assert (t["xi"], t["l"], t["m"]) == (str(xi), l, m)
            # exact equality: serialisation must round-trip
            assert mp.mpc(mp.mpf(t["re"]), mp.mpf(t["im"])) == c


def summed(e, **kwargs):
    """``partial_sum`` of e against its exact per-term partial sums."""
    return partial_sum(e, per_term_sums(e), carried_growth=(0, 0), **kwargs)


class TestPartialSum:
    def test_alternating_unit(self):
        e = exp_of({(MINUS_ONE, 0, 0): mp.mpc(1)}, 3)
        out = summed(e)
        assert abs(out.coefficient(ONE, 0, 0) + mp.mpf("0.5")) < mp.mpf("1e-24")
        assert abs(out.coefficient(MINUS_ONE, 0, 0) + mp.mpf("0.5")) < mp.mpf("1e-24")

    def test_empty_input(self):
        out = summed(exp_of({}, 4))
        assert out.is_empty()
        assert out.regularised_value() == 0

    def test_basel_leading_term(self):
        e = exp_of({(ONE, 0, 2): mp.mpc(1)}, 3)
        out = summed(e)
        assert abs(out.regularised_value() - mp.pi ** 2 / 6) < mp.mpf("1e-24")
        assert abs(out.coefficient(ONE, 0, 1) + 1) < mp.mpf("1e-24")

    def test_one_pass_sums_match_the_per_term_oracle(self):
        # (2 + i) times one pass's raw sums, exact, against the oracle's
        # products floored to 2^(3W)
        e = exp_of({(MINUS_ONE, 1, 1): mp.mpc(2, 1)}, 4)

        def sums(cutoffs):
            state = summod.NestedPass(max(cutoffs))
            summod.char_partial_sums(MINUS_ONE, 1, 1, cutoffs, state)
            raw = {n: state.raw_sum(n) for n in cutoffs}
            return {n: (2 * re - im, re + 2 * im, P) for n, (re, im, P) in raw.items()}

        via_oracle = summed(e)
        via_pass = partial_sum(e, sums, carried_growth=(0, 0))
        for (key, c) in via_oracle.items():
            assert abs(via_pass.coefficient(*key) - c) < mp.mpf("1e-22")

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            partial_sum(exp_of({}, 2), "bogus", carried_growth=(0, 0))

    @pytest.mark.parametrize("bound", [mp.inf, mp.nan, mp.mpf(-1)])
    def test_rejects_a_carried_bound_not_finite_and_nonnegative(self, bound):
        # the carried image is an integer bound, which has no infinity: an
        # infinite residual_bound would read as 0 and certify too little
        e = exp_of({(MINUS_ONE, 0, 1): mp.mpc(1)}, 3)
        e.residual_bound = bound
        with pytest.raises(ValueError):
            summed(e)

    @pytest.mark.parametrize("growth", [(0.5, 1), (mp.mpf(1), 0), (1, -1), (1, 1.0)])
    def test_rejects_a_carried_growth_not_of_ints(self, growth):
        e = exp_of({(MINUS_ONE, 0, 1): mp.mpc(1)}, 3)
        with pytest.raises(ValueError):
            partial_sum(e, per_term_sums(e), carried_growth=growth)

    @pytest.mark.parametrize("growth", [(-2, 0), (-1, 2), (0, 0), (0, 1), (2, 1)])
    def test_carried_image_bounds_the_mpmath_one(self, growth, monkeypatch):
        # prop(n) in units 2^-3W at or above residual_bound (1 + log n)^g n^e
        # and within 2^-100 relative of it (plus a unit), also for e < 0
        real, props = summod.run_matching, []

        def spy(sums_fn, approx_fn, tail, tol, prop_fn=None):
            props.append((prop_fn, tail.W))
            return real(sums_fn, approx_fn, tail, tol, prop_fn)

        monkeypatch.setattr(summod, "run_matching", spy)
        e = exp_of({(MINUS_ONE, 0, 1): mp.mpc(1)}, 3)
        e.residual_bound = mp.mpf("3.7e-30")
        partial_sum(e, per_term_sums(e), carried_growth=growth)
        (prop, W), = props
        g_exp, g_log = growth
        with mp.workprec(3 * W + 64):
            for n in (2, 7, 250, 4096, 10 ** 6 + 3):
                want = e.residual_bound * (1 + mp.log(n)) ** g_log * mp.mpf(n) ** g_exp
                got = mp.ldexp(prop(n), -3 * W)
                assert want <= got <= want * (1 + mp.mpf(2) ** -100) + mp.ldexp(1, -3 * W)

    def test_nothing_carried_has_no_image(self, monkeypatch):
        # an input whose residual_bound is 0 hands the matcher no carried
        # image, whatever its growth: the predicted tail alone picks N
        real, props = summod.run_matching, []

        def spy(sums_fn, approx_fn, tail, tol, prop_fn=None):
            props.append(prop_fn)
            return real(sums_fn, approx_fn, tail, tol, prop_fn)

        monkeypatch.setattr(summod, "run_matching", spy)
        e = exp_of({(MINUS_ONE, 0, 1): mp.mpc(1)}, 3)
        partial_sum(e, per_term_sums(e), carried_growth=(2, 1))
        assert props == [None]

    def test_linearity(self):
        e1 = exp_of({(MINUS_ONE, 0, 1): mp.mpc(2)}, 4)
        e2 = exp_of({(ONE, 0, 2): mp.mpc(0, 3)}, 4)
        lhs = summed(e1.add(e2))
        rhs = summed(e1).add(summed(e2))
        for key, c in lhs.items():
            assert abs(rhs.coefficient(*key) - c) < mp.mpf("1e-24")


def random_spec(rng, max_r=3):
    r = rng.randint(1, max_r)
    dens = [rng.choice([1, 2, 3, 4]) for _ in range(r)]
    z = ZVector([RotationNumber(rng.randrange(d), d) for d in dens])
    a = tuple(rng.randint(-3, 3) for _ in range(r))
    kvec = tuple(rng.choice([0, 0, 1]) for _ in range(r))
    return DepthSpec(z, a, kvec)


class TestDepthExpansion:
    def test_depth_one_alternating(self):
        spec = DepthSpec(ZVector.parse("-1"), (0,), (0,))
        e = depth_expansion(spec, 2)
        assert abs(e.regularised_value() + mp.mpf("0.5")) < mp.mpf("1e-24")
        assert abs(e.coefficient(MINUS_ONE, 0, 0) + mp.mpf("0.5")) < mp.mpf("1e-24")

    def test_final_example_constant_and_coefficient(self):
        spec = DepthSpec(ZVector.parse("1,-1"), (2, -2), (0, 0))
        e = depth_expansion(spec, 6)
        want = -mp.log(2) / 2 + mp.mpf("0.25")
        assert abs(e.regularised_value() - want) < mp.mpf("1e-20")
        assert abs(e.coefficient(MINUS_ONE, 0, 0) - mp.mpf("0.25")) < mp.mpf("1e-20")

    def test_depth_two_value(self):
        spec = DepthSpec(ZVector.parse("1,-1"), (2, -1), (0, 0))
        e = depth_expansion(spec, 6)
        want = mp.log(2) / 2 - mp.pi ** 2 / 16
        assert abs(e.regularised_value() - want) < mp.mpf("1e-20")

    def test_consistency_across_precisions(self):
        spec = DepthSpec(ZVector.parse("1,-1"), (2, -2), (0, 0))
        lo = depth_expansion(spec, 4)
        hi = depth_expansion(spec, 6)
        for (key, c) in lo.items():
            assert abs(hi.coefficient(*key) - c) < mp.mpf("1e-18")

    def test_validation(self):
        spec = DepthSpec(ZVector.parse("-1"), (0,), (0,))
        with pytest.raises(ValueError):
            depth_expansion(spec, -1)
        with pytest.raises(ValueError):
            DepthSpec(ZVector.parse("-1,1"), (0,), (0, 0))
        with pytest.raises(ValueError):
            DepthSpec(ZVector.parse("-1"), (0,), (-1,))

    # a non-integral index is an error, not a value at its integer part
    @pytest.mark.parametrize("call", [
        lambda: eval_integer_point(ZVector.parse("-1"), (2.5,)),
        # outside V_r(z) too: the index is checked before the domain
        lambda: eval_integer_point(ZVector.parse("1"), (0.5,)),
        lambda: stieltjes_constant(ZVector.parse("-1"), (1,), (0.7,)),
        lambda: DepthSpec(ZVector.parse("1,-1"), (2, -1.5), (0, 0)),
        lambda: ScaleFunction([(0, 1.5, 1)]),
        lambda: ScaleFunction([(0.5, 2, 1)]),
    ], ids=["eval_integer_point-a", "eval_integer_point-a-outside",
            "stieltjes_constant-k", "DepthSpec-a", "ScaleFunction-m",
            "ScaleFunction-l"])
    def test_non_integral_index_is_rejected(self, call):
        with pytest.raises(ValueError, match="integer"):
            call()

    def test_random_specs_order_bound_and_residual(self):
        rng = random.Random(2024)
        A = 4
        for _ in range(6):
            spec = random_spec(rng)
            e = depth_expansion(spec, A)
            assert e.order() >= order_lower_bound(spec)
            sums = nested_char_partial_sums(spec.z, spec.a, spec.kvec,
                                            (2000, 10000))
            for n in (2000, 10000):
                resid = abs(sums[n] - e.evaluate(n))
                ceiling = mp.mpf(n) ** (-A) * mp.log(n) ** (sum(spec.kvec) + A + 2)
                assert resid <= ceiling

    @pytest.mark.parametrize("ztext, a, kvec", [
        ("-1", (0,), (0,)),
        ("1,-1", (2, -2), (0, 0)),
        ("1/3,1,-1", (1, 2, -1), (0, 1, 0)),
    ])
    def test_one_kernel_pass_per_call(self, monkeypatch, ztext, a, kvec):
        # every level matches against the suffix sums of one pass over the
        # full series; a call without a state would be a pass of its own
        states = []
        kernel = summod.nested_sums

        def counting(z, s, k, cutoffs, state=None):
            states.append(state)
            return kernel(z, s, k, cutoffs, state)

        monkeypatch.setattr(summod, "nested_sums", counting)
        depth_expansion(DepthSpec(ZVector.parse(ztext), a, kvec), 4)
        assert None not in states
        assert len({id(state) for state in states}) == 1

    @pytest.mark.parametrize("prec", [128, 256])
    def test_matching_settles_at_the_first_rung(self, monkeypatch, prec):
        # at the default tol both levels match at (MATCH_START, 2 MATCH_START)
        # = (250, 500): the one kernel pass sums 500 terms and no more
        reached = []
        kernel = summod.nested_sums

        def recording(z, s, k, cutoffs, state=None):
            reached.append(max(cutoffs))
            return kernel(z, s, k, cutoffs, state)

        monkeypatch.setattr(summod, "nested_sums", recording)
        with mp.workprec(prec):
            eval_integer_point(ZVector.parse("1/3,1/4"), (2, 1))
        assert max(reached) == 500

    def test_convergent_spec_has_no_growing_terms(self):
        # strict inequalities A_[1,i] > Q_[1,i]: only the constant sits at m <= 0
        spec = DepthSpec(ZVector.parse("1,-1"), (2, -1), (0, 0))
        e = depth_expansion(spec, 5)
        for (xi, l, m), _ in e.items():
            if m <= 0:
                assert (xi, l, m) == (ONE, 0, 0)


class TestDerivedAccessors:
    def test_exponent_sums(self):
        spec = DepthSpec(ZVector.parse("1,-1,1/3"), (2, -1, 3), (0, 0, 0))
        assert spec.exponent_sum(1, 3) == 4
        assert spec.exponent_sum(2, 2) == -1
        with pytest.raises(IndexError):
            spec.exponent_sum(3, 2)

    def test_product_counts(self):
        # z = (1, -1): q_[1,2] = q_[2,2] = 0, so Q_[1,2] = 0 while Q_[1,1] = 1
        spec = DepthSpec(ZVector.parse("1,-1"), (0, 0), (0, 0))
        assert rotation_product(spec.z, 1, 1).is_one()
        assert not rotation_product(spec.z, 1, 2).is_one()
        assert not rotation_product(spec.z, 2, 2).is_one()
        assert spec.suffix_count(1, 2) == 0
        assert spec.suffix_count(1, 1) == 1
        assert spec.suffix_count(2, 1) == 0

    def test_suffix_count_matches_indicator_sum(self):
        spec = DepthSpec(ZVector.parse("1/2,1/2,1/3,2/3"), (0,) * 4, (0,) * 4)
        for j in range(1, 5):
            for i in range(1, j + 1):
                direct = sum(rotation_product(spec.z, t, j).is_one()
                             for t in range(i, j + 1))
                assert spec.suffix_count(i, j) == direct


class TestOrderLowerBound:
    def test_examples(self):
        assert order_lower_bound(
            DepthSpec(ZVector.parse("1,-1"), (2, -2), (0, 0))) == 0
        assert order_lower_bound(
            DepthSpec(ZVector.parse("1,1,1"), (2, 2, 3), (0, 0, 0))) == 0
        assert order_lower_bound(
            DepthSpec(ZVector.parse("-1"), (-3,), (0,))) == -3

    def test_counts_enter(self):
        # z = (1, 1): Q_1 = 1, Q_2 = 2
        assert order_lower_bound(
            DepthSpec(ZVector.parse("1,1"), (1, 1), (0, 0))) == 0
        assert order_lower_bound(
            DepthSpec(ZVector.parse("1,1"), (1, 0), (0, 0))) == -1


class TestNestedPartialSums:
    def test_log_weights_by_enumeration(self):
        z = ZVector.parse("-1,1")
        got = nested_char_partial_sums(z, (1, 2), (1, 0), (5,))[5]
        want = mp.mpc(0)
        for n1 in range(1, 5):
            for n2 in range(1, n1):
                want += ((-1) ** n1 * mp.log(n1) / n1
                         * mp.mpf(n2) ** -2)
        assert abs(got - want) < mp.mpf("1e-35")
