"""Exact polynomial machinery, checked against generating-series oracles.

The oracles invert the generating series directly with Fraction power-series
arithmetic, independent of the integer coefficient rows used by the library.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from mplreg.eulerpoly import (
    RationalPolynomial,
    _bernoulli_rows,
    _euler_rows,
    bernoulli_number,
    bernoulli_polynomial,
    bernoulli_sup_bound,
    gen_euler_at_one,
    gen_euler_at_zero,
    gen_euler_polynomial,
    inner_product,
    power_sum,
    sup_bound,
)
from mplreg.rootsofunity import MINUS_ONE, RotationNumber


def series_reciprocal(denom, order):
    """Coefficients of 1/denom(t) up to t^order, denom[0] != 0, exact."""
    out = [Fraction(1) / denom[0]]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for i in range(n):
            if n - i < len(denom):
                acc += out[i] * denom[n - i]
        out.append(-acc / denom[0])
    return out


def bernoulli_poly_oracle(j):
    """B_j(x) from  t e^{xt}/(e^t - 1)  via series inversion."""
    denom = [Fraction(1, math.factorial(i + 1)) for i in range(j + 1)]  # (e^t-1)/t
    rec = series_reciprocal(denom, j)
    coeffs = [Fraction(0)] * (j + 1)
    for i in range(j + 1):
        coeffs[j - i] = Fraction(math.factorial(j), math.factorial(j - i)) * rec[i]
    return RationalPolynomial(coeffs)


def gen_euler_oracle(k, n):
    """E_{k,n}(x) from  k e^{xt} / (1 + e^t + ... + e^{(k-1)t})."""
    denom = [
        Fraction(sum(j**i if i else 1 for j in range(k)), math.factorial(i))
        for i in range(n + 1)
    ]
    rec = series_reciprocal(denom, n)
    coeffs = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        coeffs[n - i] = Fraction(k * math.factorial(n), math.factorial(n - i)) * rec[i]
    return RationalPolynomial(coeffs)


def classical_euler_oracle(n):
    """E_n(x) from  2 e^{xt} / (1 + e^t)."""
    denom = [Fraction(2)] + [Fraction(1, math.factorial(i)) for i in range(1, n + 1)]
    rec = series_reciprocal(denom, n)
    coeffs = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        coeffs[n - i] = Fraction(2 * math.factorial(n), math.factorial(n - i)) * rec[i]
    return RationalPolynomial(coeffs)


class TestBernoulli:
    def test_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_against_oracle(self):
        for j in range(15):
            assert bernoulli_number(j) == bernoulli_poly_oracle(j).coeff(0)

    def test_recurrence_matches_the_polynomials(self):
        # the number recurrence, cold, against B_j = j! [t^j] t/(e^t - 1),
        # the generating series the polynomials' oracle inverts (the
        # polynomials themselves are built from these numbers)
        bernoulli_number.cache_clear()
        rec = series_reciprocal([Fraction(1, math.factorial(i + 1)) for i in range(61)], 60)
        for j in range(61):
            assert bernoulli_number(j) == math.factorial(j) * rec[j]
            assert bernoulli_polynomial(j).coeff(0) == bernoulli_number(j)

    def test_polynomials(self):
        assert bernoulli_polynomial(0) == RationalPolynomial([1])
        assert bernoulli_polynomial(1) == RationalPolynomial([Fraction(-1, 2), 1])
        assert bernoulli_polynomial(2) == RationalPolynomial([Fraction(1, 6), -1, 1])
        for j in range(12):
            assert bernoulli_polynomial(j) == bernoulli_poly_oracle(j)

    def test_value_at_zero_is_number(self):
        for j in range(10):
            assert bernoulli_polynomial(j)(Fraction(0)) == bernoulli_number(j)

    def test_sup_bound(self):
        assert bernoulli_sup_bound(2) >= Fraction(1, 6)
        assert bernoulli_sup_bound(4) >= Fraction(1, 30)

    def test_sup_bound_is_between_the_max_and_the_coefficient_sum(self):
        # the Fourier bound 2 zeta(j) j!/(2 pi)^j with rational pi and zeta(j):
        # above max |B_j| on a grid of 1,025 points, below the coefficient sum
        # it replaces (12 times below at j = 2, about 290 times at j = 6)
        for j in range(21):
            poly = bernoulli_polynomial(j)
            bound = bernoulli_sup_bound(j)
            with mp.workprec(128):
                worst = max(abs(poly(mp.mpf(i) / 1024)) for i in range(1025))
                assert worst <= mp.mpf(bound.numerator) / bound.denominator
                assert bound <= poly.coeff_abs_sum()


class TestGenEuler:
    def test_constant(self):
        for k in (2, 3, 7):
            assert gen_euler_polynomial(k, 0) == RationalPolynomial([1])

    def test_small_cases(self):
        assert gen_euler_polynomial(2, 1) == RationalPolynomial([Fraction(-1, 2), 1])
        assert gen_euler_polynomial(3, 2) == RationalPolynomial([Fraction(1, 3), -2, 1])

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            gen_euler_polynomial(1, 2)

    def test_against_generating_series(self):
        for k in (2, 3, 4, 5):
            for n in range(9):
                assert gen_euler_polynomial(k, n) == gen_euler_oracle(k, n)

    def test_strodt_identity_exact(self):
        for k in range(2, 7):
            for n in range(13):
                poly = gen_euler_polynomial(k, n)
                avg = RationalPolynomial([])
                for j in range(k):
                    avg = avg + poly.compose_affine(1, j)
                monomial = RationalPolynomial([0] * n + [k])
                assert avg == monomial

    def test_derivative_identity_exact(self):
        for k in (2, 3, 5):
            for n in range(1, 11):
                lhs = gen_euler_polynomial(k, n).derivative()
                rhs = gen_euler_polynomial(k, n - 1) * n
                assert lhs == rhs

    def test_classical_reduction(self):
        for n in range(11):
            assert gen_euler_polynomial(2, n) == classical_euler_oracle(n)

    def test_power_sum_convention(self):
        assert power_sum(4, 0) == 4
        assert power_sum(3, 2) == 5


class TestRows:
    def test_bernoulli_rows_against_generating_series(self):
        # B_N for N <= 31, the rows behind E_{k,n} for n <= 30
        for N in range(32):
            row, L = _bernoulli_rows(N)
            assert L == math.lcm(*(bernoulli_number(j).denominator for j in range(N + 1)))
            assert [Fraction(b, L) for b in row] == list(bernoulli_poly_oracle(N).coeffs)

    def test_euler_rows_against_generating_series(self):
        # E_{k,n} for k <= 12 and n <= 30, each over the one denominator L (n + 1)
        for k in range(2, 13):
            for n in range(31):
                row, D = _euler_rows(k, n)
                assert D == _bernoulli_rows(n + 1)[1] * (n + 1)
                assert [Fraction(e, D) for e in row] == list(gen_euler_oracle(k, n).coeffs)

    def test_rows_validate_their_indices(self):
        for args in ((1, 2), (3, -1)):
            with pytest.raises(ValueError):
                _euler_rows(*args)
        with pytest.raises(ValueError):
            _bernoulli_rows(-1)


class TestSupBound:
    def test_examples(self):
        # the coefficient sum at n = 0, the Bernoulli bound beyond it
        assert sup_bound(5, 0) == 1
        assert sup_bound(2, 1) == 4 * bernoulli_sup_bound(2)
        assert sup_bound(3, 2) == 18 * bernoulli_sup_bound(3)
        for k in range(2, 7):
            for n in range(12):
                assert sup_bound(k, n) == min(
                    gen_euler_polynomial(k, n).coeff_abs_sum(),
                    2 * Fraction(k ** (n + 1), n + 1) * bernoulli_sup_bound(n + 1))

    def test_is_upper_bound_on_grid(self):
        for k, n in ((2, 3), (3, 4), (4, 2), (5, 5), (2, 1), (3, 2), (6, 9)):
            bound = sup_bound(k, n)
            poly = gen_euler_polynomial(k, n)
            worst = max(abs(poly(mp.mpf(i) / 64)) for i in range(65))
            assert worst <= mp.mpf(bound.numerator) / bound.denominator + mp.mpf("1e-30")


class TestInnerProduct:
    def test_k2_exact_half(self):
        assert inner_product(2, MINUS_ONE, 1, 1) == mp.mpf("0.5")

    def test_k3_single_term(self):
        zeta = RotationNumber(1, 3)
        got = inner_product(3, zeta, 1, 1)
        want = -mp.mpf(2) / 3 * zeta.value()
        assert abs(got - want) < mp.mpf("1e-36")

    def test_k3_two_terms(self):
        zeta = RotationNumber(1, 3)
        zv = zeta.value()
        want = zv**2 * (mp.mpf(1) / 3 - 1) + zv * (mp.mpf(2) / 3 - 1)
        assert abs(inner_product(3, zeta, 1, 2) - want) < mp.mpf("1e-36")

    def test_index_validation(self):
        with pytest.raises(ValueError):
            inner_product(3, RotationNumber(1, 3), 2, 1)
        with pytest.raises(ValueError):
            inner_product(3, RotationNumber(1, 3), 1, 3)
        with pytest.raises(ValueError):
            inner_product(4, RotationNumber(1, 3), 1, 2)


class TestGenEulerBoundaryValues:
    def test_at_one_vs_at_zero_only_matches_for_k2(self):
        # E_{2,n}(1) = -E_{2,n}(0) for n >= 1; no such relation survives k >= 3
        for n in range(1, 8):
            assert gen_euler_at_one(2, n) == -gen_euler_at_zero(2, n)
        assert gen_euler_at_one(3, 1) != -gen_euler_at_zero(3, 1)

    def test_equal_the_polynomial_at_zero_and_one(self):
        for k in range(2, 8):
            for n in range(31):
                poly = gen_euler_polynomial(k, n)
                assert gen_euler_at_zero(k, n) == poly(Fraction(0))
                assert gen_euler_at_one(k, n) == poly(Fraction(1))

    def test_boundary_values_validate_their_indices(self):
        for fn in (gen_euler_at_zero, gen_euler_at_one):
            with pytest.raises(ValueError):
                fn(1, 2)
            with pytest.raises(ValueError):
                fn(3, -1)


class TestMemoConcurrency:
    def test_concurrent_access_is_deterministic(self):
        import threading

        gen_euler_polynomial.cache_clear()
        bernoulli_number.cache_clear()
        results = [None] * 8
        errors = []

        def worker(slot):
            try:
                acc = []
                for k in (2, 3, 4, 5):
                    for n in range(12):
                        acc.append(gen_euler_polynomial(k, n).coeffs)
                        acc.append(bernoulli_number(n))
                results[slot] = acc
            except BaseException as exc:  # propagate into the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r == results[0] for r in results)
