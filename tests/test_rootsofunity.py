from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplreg import summation as summod
from mplreg.errors import DomainError
from mplreg.rootsofunity import (
    MINUS_ONE,
    ONE,
    ComplexPoint,
    RotationNumber,
    ZVector,
    contains,
    first_nontrivial_prefix,
    index_set_and_count,
    parse_complex,
    rotation_product,
    singular_hyperplanes,
)
from mplreg.rootsofunity import _domain_flags

from oracles import domain_member

rotations = st.builds(
    RotationNumber,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)
zvectors = st.lists(rotations, min_size=1, max_size=6).map(ZVector)


def Z(text):
    return ZVector.parse(text)


class TestRotationNumber:
    def test_reduction_and_aliases(self):
        assert RotationNumber(2, 4) == RotationNumber(1, 2)
        assert RotationNumber(-1, 3) == RotationNumber(2, 3)
        assert RotationNumber(5, 5) == ONE
        assert RotationNumber.parse("1") == ONE
        assert RotationNumber.parse("-1") == MINUS_ONE
        assert RotationNumber.parse("3/6") == MINUS_ONE
        assert RotationNumber(0, 7) == RotationNumber(0, 1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            RotationNumber.parse("1/0")
        with pytest.raises(ValueError):
            RotationNumber.parse("x/3")

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RotationNumber(0.5)

    def test_value(self):
        for prec in (53, 128, 1024):
            with mp.workprec(prec):
                assert MINUS_ONE.value() == -1
                assert ONE.value() == 1
                assert RotationNumber(1, 4).value() == mp.mpc(0, 1)
                assert RotationNumber(3, 4).value() == mp.mpc(0, -1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q))),
           st.sampled_from([53, 128, 256, 512, 1024]))
    def test_value_within_one_ulp(self, pq, prec):
        # one cos/sin of pi 2p/q: each part within 1 ulp of cospi and sinpi
        # at prec + 64
        p, q = pq
        with mp.workprec(prec):
            got = RotationNumber(p, q).value()
        with mp.workprec(prec + 64):
            t = mp.mpf(2 * p) / q
            for part, want in ((got.real, mp.cospi(t)), (got.imag, mp.sinpi(t))):
                ulp = mp.ldexp(1, mp.frexp(want)[1] - prec) if want else 0
                assert abs(part - want) <= ulp

    def test_equal_roots_share_one_hash_and_one_memo_entry(self):
        # 1/3 built as 1/3, 4/3 and the Fraction -2/3: one hash, and one
        # entry of an lru memo keyed on roots
        roots = [RotationNumber(1, 3), RotationNumber(4, 3), RotationNumber(Fraction(-2, 3))]
        assert len({hash(r) for r in roots}) == 1 and len(set(roots)) == 1
        summod._geometric_list.cache_clear()
        entries = [summod._geometric_list(r, 128) for r in roots]
        info = summod._geometric_list.cache_info()
        assert (info.currsize, info.hits) == (1, 2)
        assert entries[0] is entries[1] is entries[2]

    def test_order(self):
        assert RotationNumber(2, 6).order == 3
        assert ONE.order == 1

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.tuples(st.integers(-90, 90), st.integers(-24, 24).filter(bool)),
                     st.tuples(st.fractions(max_denominator=40), st.just(1)),
                     st.tuples(st.fractions(max_denominator=12), st.integers(1, 5))),
           st.tuples(st.integers(-90, 90), st.integers(1, 24)), st.integers(-40, 40))
    def test_integer_pair_behaves_as_the_fraction(self, args, other, e):
        # built from ints (negative, unreduced, a negative denominator),
        # from a Fraction, or from a Fraction over an int: every operation
        # as on the reduced Fraction mod 1 that the root stands for
        frac = Fraction(*args) % 1
        x, y = RotationNumber(*args), RotationNumber(*other)
        fy = Fraction(*other) % 1
        assert x.fraction == frac and isinstance(x.fraction, Fraction)
        assert (x.numerator, x.denominator, x.order) == (frac.numerator, frac.denominator,
                                                         frac.denominator)
        assert x.is_one() == (frac == 0)
        assert x == RotationNumber(frac) and hash(x) == hash((frac.numerator, frac.denominator))
        assert (x == y) == (frac == fy) and (x * y).fraction == (frac + fy) % 1
        assert (x ** e).fraction == frac * e % 1
        assert str(x) == f"{frac.numerator}/{frac.denominator}"
        assert repr(x) == f"RotationNumber({frac.numerator}, {frac.denominator})"
        assert x != frac

    def test_zero_denominator_raises_as_before(self):
        with pytest.raises(ZeroDivisionError, match=r"Fraction\(1, 0\)"):
            RotationNumber(1, 0)

    def test_power_values_memoised_per_precision(self):
        zeta = RotationNumber(2, 7)
        table = zeta.power_values()
        assert isinstance(table, tuple) and len(table) == 7
        assert RotationNumber(2, 7).power_values() is table
        for a, v in enumerate(table):
            assert v == (zeta ** a).value()
        with mp.workprec(256):
            fine = zeta.power_values()
            assert fine is not table
            assert fine[3] == (zeta ** 3).value()
        # the 256-bit table does not leak into 128-bit results
        assert zeta.power_values() is table

    @given(rotations, rotations, rotations)
    def test_group_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(rotations)
    def test_inverse(self, a):
        assert (a * a ** -1).is_one()

    @given(rotations, st.integers(min_value=-5, max_value=10))
    def test_pow_matches_repeated_product(self, a, n):
        acc = ONE
        step = a if n >= 0 else a ** -1
        for _ in range(abs(n)):
            acc = acc * step
        assert a ** n == acc


class TestCombinatorics:
    def test_rotation_product_examples(self):
        # (-1)(-1) = 1
        assert rotation_product(Z("-1,-1"), 1, 2) == ONE
        assert rotation_product(Z("1,-1"), 1, 2) == MINUS_ONE
        # direct rational addition mod 1
        assert rotation_product(Z("1/3,1/3,1/3"), 1, 3) == ONE

    def test_rotation_product_bounds(self):
        with pytest.raises(IndexError):
            rotation_product(Z("1,-1"), 2, 1)
        with pytest.raises(IndexError):
            rotation_product(Z("1,-1"), 1, 3)

    def test_first_nontrivial_prefix(self):
        assert first_nontrivial_prefix(Z("-1,1")) == 1
        assert first_nontrivial_prefix(Z("1,1,1")) == 4  # r + 1
        assert first_nontrivial_prefix(Z("1,-1")) == 2

    def test_index_set_and_count(self):
        assert index_set_and_count(Z("1,-1"), 1) == ((1,), 1)
        assert index_set_and_count(Z("1,-1"), 2) == ((), 0)
        assert index_set_and_count(Z("-1,-1"), 2) == ((1,), 1)

    @given(zvectors)
    def test_count_bounds(self, z):
        q = first_nontrivial_prefix(z)
        for i in range(1, z.r + 1):
            _, qi = index_set_and_count(z, i)
            assert qi <= i
            if i >= q:
                assert qi <= i - 1


class TestDomains:
    def test_boundary_point_excluded(self):
        # (1, 0) sits on the boundary of U_2(-1, 1)
        assert not contains("Urz", Z("-1,1"), (1, 0))

    def test_v_minus_u_example(self):
        z = Z("1,-1")
        assert contains("Vrz", z, (2, -1))
        assert not contains("Urz", z, (2, -1))

    def test_ur_interior(self):
        for z in (Z("1,1,1"), Z("1/3,1/2,5/6")):
            assert contains("Ur", z, (2, 2, 2))

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            contains("Ur", Z("1,-1"), (2,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            contains("Wr", Z("1"), (2,))

    @given(zvectors, st.data())
    @settings(max_examples=60)
    def test_inclusion_chain(self, z, data):
        coords = [
            data.draw(st.integers(min_value=-4, max_value=5))
            + Fraction(data.draw(st.integers(min_value=0, max_value=3)), 4)
            for _ in range(z.r)
        ]
        s = [mp.mpf(c.numerator) / c.denominator for c in coords]
        if contains("Ur", z, s):
            assert contains("Urz", z, s)
        if contains("Urz", z, s):
            assert contains("Vrz", z, s)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 12).flatmap(
        lambda q: st.builds(RotationNumber, st.integers(0, q - 1), st.just(q))),
        min_size=1, max_size=4), st.data())
    def test_one_pass_flags_equal_contains(self, entries, data):
        # the one pass over the prefix products, and ``contains`` on it,
        # against each domain tested from its definition, at integer points
        # near the bounds and at complex ones
        z = ZVector(entries)
        coord = st.one_of(st.integers(-2, 4),
                          st.builds(lambda re, im: mp.mpc(re, im),
                                    st.floats(-2, 4).map(lambda x: round(x, 2)), st.floats(-3, 3)))
        s = data.draw(st.lists(coord, min_size=z.r, max_size=z.r))
        want = {kind: domain_member(kind, z, s) for kind in ("Ur", "Urz", "Vrz")}
        assert _domain_flags(z, s) == want == {kind: contains(kind, z, s) for kind in want}
        with pytest.raises(DomainError):
            _domain_flags(z, s + [1])

    def test_v_equals_u_iff_all_ones(self):
        # sample a rational grid; V = U exactly for the all-ones vector
        grid = [(a, b) for a in range(-2, 5) for b in range(-2, 5)]
        for z, expect_equal in ((Z("1,1"), True), (Z("1,-1"), False), (Z("-1,1/3"), False)):
            equal = all(
                contains("Vrz", z, s) == contains("Ur", z, s) for s in grid
            )
            assert equal == expect_equal


class TestHyperplanes:
    def test_all_prefixes_one(self):
        planes = singular_hyperplanes(Z("1,1"))
        assert [(p.index_sum, p.levels) for p in planes] == [
            (1, ("eq", 1)),
            (2, ("le", 2)),
        ]

    def test_no_trivial_prefix(self):
        assert singular_hyperplanes(Z("-1,1/3")) == []

    def test_case_b(self):
        planes = singular_hyperplanes(Z("-1,-1"))
        assert [(p.index_sum, p.levels) for p in planes] == [(2, ("le", 1))]

    def test_mixed_prefix(self):
        # prefixes of (1/3,1/3,1/3): 1/3, 2/3, 1 -> only i=3 trivial, case (b)
        planes = singular_hyperplanes(Z("1/3,1/3,1/3"))
        assert [(p.index_sum, p.levels) for p in planes] == [(3, ("le", 1))]

    def test_describe(self):
        planes = singular_hyperplanes(Z("1,1"))
        assert planes[0].describe() == "s_1 = 1"
        assert "n <= 2" in planes[1].describe()


class TestParsing:
    def test_parse_complex(self):
        assert parse_complex("2") == mp.mpc(2)
        assert parse_complex("1.5+0.5i") == mp.mpc(1.5, 0.5)
        assert parse_complex("-2-3i") == mp.mpc(-2, -3)
        assert parse_complex("1e-2+1e-3i") == mp.mpc(mp.mpf("1e-2"), mp.mpf("1e-3"))
        assert parse_complex("-i") == mp.mpc(0, -1)
        assert parse_complex("i") == mp.mpc(0, 1)
        assert parse_complex("j") == mp.mpc(0, 1)

    def test_complex_point(self):
        p = ComplexPoint.parse("2,-1")
        assert len(p) == 2
        assert p[1] == mp.mpc(-1)

    def test_zvector_parse_roundtrip(self):
        z = Z("1,-1,1/3")
        assert ZVector.parse(str(z)) == z
