import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplreg.scalefun import ScaleFunction
from oracles import point_value

# coefficients from a small exact set keeps the algebra checks crisp
coeffs = st.sampled_from([1, -1, 2, mp.mpf("0.5"), mp.mpc(1, 1), -3])
terms = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-3, max_value=4),
    coeffs,
)
scale_functions = st.lists(terms, min_size=0, max_size=4).map(ScaleFunction)


def single(l, m, c=1):
    return ScaleFunction.term(l, m, c)


class TestNormalisation:
    def test_merge_and_drop_zero(self):
        f = ScaleFunction([(0, 1, 1), (0, 1, -1), (1, 2, 3)])
        assert list(f.terms()) == [(1, 2, mp.mpc(3))]

    def test_zero(self):
        assert ScaleFunction.zero().is_zero()
        assert ScaleFunction.zero().min_decay() is None

    def test_rejects_negative_log_power(self):
        with pytest.raises(ValueError):
            ScaleFunction([(-1, 0, 1)])


class TestDifferentiate:
    def test_inverse_t(self):
        assert list(single(0, 1).differentiate().terms()) == [(0, 2, mp.mpc(-1))]

    def test_log(self):
        assert list(single(1, 0).differentiate().terms()) == [(0, 1, mp.mpc(1))]

    def test_product_rule_by_hand(self):
        # d/dt (log t)^2 t^-3 = 2 (log t) t^-4 - 3 (log t)^2 t^-4
        f = single(2, 3).differentiate()
        assert sorted(f.terms()) == [(1, 4, mp.mpc(2)), (2, 4, mp.mpc(-3))]

    @settings(max_examples=40)
    @given(scale_functions, st.sampled_from([mp.mpf(2), mp.mpf(10), mp.mpf(100)]))
    def test_matches_central_differences(self, f, t):
        if f.is_zero():
            return
        h = mp.mpf(2) ** -30
        numeric = (f.evaluate(t + h) - f.evaluate(t - h)) / (2 * h)
        exact = f.differentiate()._value_at(t)
        scale = max(abs(exact), abs(numeric), mp.mpf(1))
        assert abs(numeric - exact) / scale < mp.mpf("1e-6")


class TestAntiderivative:
    def test_examples(self):
        assert list(single(0, 1).antiderivative().terms()) == [(1, 0, mp.mpc(1))]
        assert list(single(0, 2).antiderivative().terms()) == [(0, 1, mp.mpc(-1))]
        got = sorted(single(1, 2).antiderivative().terms())
        assert got == [(0, 1, mp.mpc(-1)), (1, 1, mp.mpc(-1))]

    @given(scale_functions)
    def test_differentiate_antiderivative_roundtrip(self, f):
        back = f.antiderivative().differentiate()
        diff = back - f
        # identity holds exactly in the algebra; floating coefficients may
        # carry a couple of ulps from the rational division/multiplication
        for _, _, c in diff.terms():
            assert abs(c) < mp.mpf(2) ** -100

    def test_definite_integral_against_quadrature(self):
        f = ScaleFunction([(1, 2, 1), (0, 3, mp.mpc(0, 2))])
        g = f.antiderivative()
        a, b = mp.mpf(2), mp.mpf(7)
        exact = g.evaluate(b) - g.evaluate(a)
        numeric = mp.quad(lambda t: f.evaluate(t), [a, b])
        assert abs(exact - numeric) < mp.mpf("1e-30")


class TestEvaluate:
    def test_examples(self):
        assert single(0, 0, 5).evaluate(7) == 5
        assert abs(single(0, 1).evaluate(mp.e) - mp.exp(-1)) < mp.mpf("1e-35")
        got = single(1, 1).evaluate(mp.e ** 2)
        assert abs(got - 2 * mp.exp(-2)) < mp.mpf("1e-35")

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            single(0, 1).evaluate(1)
        with pytest.raises(ValueError):
            single(0, 1).evaluate(0.5)

    # (l, m, decimal exponent, re, im) of each term: coefficients from
    # 1e-40 to 1e10, so that terms of very different size cancel
    GRID_TERMS = st.lists(st.tuples(st.integers(0, 4), st.integers(-7, 9),
                                    st.integers(-40, 10), st.floats(-1, 1), st.floats(-1, 1)),
                          min_size=1, max_size=8)

    @settings(max_examples=150, deadline=None)
    @given(terms=GRID_TERMS, more=GRID_TERMS,
           prec=st.sampled_from([53, 64, 113, 128, 200, 256, 512]),
           points=st.lists(st.one_of(st.integers(1, 3000),
                                     st.sampled_from(["e", 2.5, 1000.25])),
                           min_size=1, max_size=4))
    def test_grid_meets_its_error_bound(self, terms, more, prec, points):
        # ``_value_at`` at each point of a grid: each part errs by at most
        # 2^-prec |part of f(t)| + 2^-(prec+8) S, S the sum of the absolute
        # values of that part of the terms, and evaluate gives the same bits
        with mp.workprec(prec):
            functions = [ScaleFunction([(l, m, mp.mpc(re, im) * mp.mpf(10) ** d)
                                        for l, m, d, re, im in ts]) for ts in (terms, more)]
            points = [+mp.e if t == "e" else mp.mpf(t) for t in [1] + points]
            for t in points:
                for f in functions:
                    value = f._value_at(t)
                    ref, (bound_re, bound_im) = point_value(f, t)
                    assert abs(value.real - ref.real) <= bound_re
                    assert abs(value.imag - ref.imag) <= bound_im
                    if t > 1:
                        assert f.evaluate(t) == value


class TestProduct:
    @settings(max_examples=40)
    @given(scale_functions, scale_functions, st.floats(1.01, 1e6))
    def test_pointwise(self, f, g, t):
        t = mp.mpf(t)

        def size(h):  # sum of the absolute terms: the scale of rounding
            return 1 + sum(abs(c) * mp.log(t) ** l * t ** -m for l, m, c in h.terms())

        want = f.evaluate(t) * g.evaluate(t)
        assert abs((f * g).evaluate(t) - want) <= mp.mpf(2) ** -110 * size(f) * size(g)

    @given(scale_functions)
    def test_identity(self, f):
        assert (f * single(0, 0)).terms() == f.terms()
        assert (single(0, 0) * f).terms() == f.terms()

    @given(scale_functions, st.integers(-3, 3))
    def test_agrees_with_times_power(self, f, e):
        assert (f * single(0, -e)).terms() == f.times_power(e).terms()

    def test_indices_add(self):
        got = ScaleFunction([(1, 2, 3), (0, 0, 1)]) * ScaleFunction([(2, -1, 2)])
        assert got.terms() == [(3, 1, mp.mpc(6)), (2, -1, mp.mpc(2))]


class TestAbsTailBound:
    def test_exact_power_tail(self):
        assert abs(single(0, 2).abs_tail_bound(10) - mp.mpf("0.1")) < mp.mpf("1e-35")

    def test_non_integrable(self):
        assert single(0, 0).abs_tail_bound(2) == mp.inf
        assert single(2, 1).abs_tail_bound(3) == mp.inf

    def test_log_tail_closed_form(self):
        # int_e^inf (log t) t^-2 dt = 2/e; the bound is exactly that here
        bound = single(1, 2).abs_tail_bound(mp.e)
        true = 2 / mp.e
        assert bound >= true - mp.mpf("1e-30")
        assert bound < 2 * true

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=2, max_value=4),
                st.sampled_from([1, -2, mp.mpc(0, 1)]),
            ),
            min_size=1,
            max_size=3,
        ).map(ScaleFunction),
        st.sampled_from([2, 5, 10]),
    )
    def test_is_upper_bound_for_finite_quadrature(self, f, a):
        if f.is_zero():
            return
        bound = f.abs_tail_bound(a)
        partial = mp.quad(lambda t: abs(f.evaluate(t)), [a, a + 100, a + 10**4])
        assert partial <= bound + mp.mpf("1e-25")


class TestShiftExpand:
    def test_identity_at_zero_shift(self):
        f = ScaleFunction([(1, 2, 3), (0, 0, 1)])
        g, order = f.shift_expand(0, 5)
        assert g is f
        assert order == 6

    def test_geometric_series(self):
        g, order = ScaleFunction.term(0, 1).shift_expand(1, 3)
        assert sorted(g.terms()) == [
            (0, 1, mp.mpc(1)),
            (0, 2, mp.mpc(-1)),
            (0, 3, mp.mpc(1)),
        ]
        assert order == 4

    def test_log_taylor(self):
        g, _ = ScaleFunction.term(1, 0).shift_expand(1, 2)
        assert sorted(g.terms()) == [
            (0, 1, mp.mpc(1)),
            (0, 2, mp.mpc(-0.5)),
            (1, 0, mp.mpc(1)),
        ]

    def test_growing_term_is_polynomial(self):
        # (n + 2)^2 = n^2 + 4n + 4 exactly
        g, _ = ScaleFunction.term(0, -2).shift_expand(2, 6)
        assert sorted(g.terms()) == [
            (0, -2, mp.mpc(1)),
            (0, -1, mp.mpc(4)),
            (0, 0, mp.mpc(4)),
        ]

    @pytest.mark.parametrize("l,m,t0,order", [(0, 1, 1, 4), (1, 0, 2, 5), (2, 2, 3, 6), (1, -1, 1, 4),
                                              (3, 0, 4, 7), (2, -2, 5, 6)])
    def test_residual_decay(self, l, m, t0, order):
        f = ScaleFunction.term(l, m)
        g, err_order = f.shift_expand(t0, order)
        assert err_order == order + 1
        # the constant in residual <= C (log n)^l n^-(order+1) inferred at
        # n = 10^3 must keep working at n = 10^4
        ratios = []
        for n in (10**3, 10**4):
            n = mp.mpf(n)
            residual = abs(f.evaluate(n + t0) - g.evaluate(n))
            ratios.append(residual / (mp.log(n) ** max(l, 1) * n ** (-err_order)))
        assert ratios[1] <= 2 * ratios[0]
