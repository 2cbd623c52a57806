"""Acceptance suite: every criterion pinned at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run).  Reference constants are computed from
independent sources: mpmath's pi/log/euler constants and the standalone
zeta routine in oracles.py; nothing on the expected side routes through the
machinery under test.
"""

import random

import mpmath as mp
import pytest

from mplreg.asymptotics import DepthSpec, depth_expansion, order_lower_bound
from mplreg.eulerpoly import gen_euler_polynomial, inner_product
from mplreg.polylog import (
    brute_partial_sum,
    eval_convergent,
    eval_integer_point,
    verify_translation,
)
from mplreg.rootsofunity import MINUS_ONE, ONE, RotationNumber, ZVector, contains
from mplreg.scalefun import ScaleFunction
from mplreg.summation import euler_maclaurin, gen_euler_boole

from oracles import em_zeta
from test_eulerpoly import classical_euler_oracle

Z = ZVector.parse


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {number:2d}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_alternating_regularised_value():
    spec = DepthSpec(Z("-1"), (0,), (0,))
    e = depth_expansion(spec, 4)
    tol = mp.mpf("1e-12")
    err_const = abs(e.regularised_value() + mp.mpf("0.5"))
    err_coeff = abs(e.coefficient(MINUS_ONE, 0, 0) + mp.mpf("0.5"))
    report(1, "regularised value and oscillatory coefficient of sum (-1)^m "
              "are both -1/2 to 1e-12",
           err_const < tol and err_coeff < tol,
           f"errors {mp.nstr(err_const, 3)}, {mp.nstr(err_coeff, 3)}")


def test_criterion_02_alternating_log_regularised_value():
    spec = DepthSpec(Z("-1"), (0,), (1,))
    value = depth_expansion(spec, 4).regularised_value()
    err = abs(value - mp.log(mp.pi / 2) / 2)
    report(2, "regularised value of sum (-1)^m log m is log(pi/2)/2 to 1e-10",
           err < mp.mpf("1e-10"), f"error {mp.nstr(err, 3)}")


def test_criterion_03_integer_point_value():
    rep = eval_integer_point(Z("1,-1"), (2, -1), A=6)
    want = mp.log(2) / 2 - mp.pi ** 2 / 16
    err = abs(rep.value - want)
    report(3, "value at the integer point (2,-1) for z=(1,-1) equals "
              "log(2)/2 - pi^2/16 to 1e-8",
           err < mp.mpf("1e-8"), f"error {mp.nstr(err, 3)}")


def test_criterion_04_depth_expansion_constant_and_coefficient():
    e = depth_expansion(DepthSpec(Z("1,-1"), (2, -2), (0, 0)), 6)
    tol = mp.mpf("1e-8")
    err_const = abs(e.regularised_value() - (-mp.log(2) / 2 + mp.mpf("0.25")))
    err_coeff = abs(e.coefficient(MINUS_ONE, 0, 0) - mp.mpf("0.25"))
    report(4, "expansion at a=(2,-2), z=(1,-1): constant -log(2)/2 + 1/4 and "
              "oscillatory coefficient 1/4 to 1e-8",
           err_const < tol and err_coeff < tol,
           f"errors {mp.nstr(err_const, 3)}, {mp.nstr(err_coeff, 3)}")


def test_criterion_05_closed_form_by_both_methods():
    tol = mp.mpf("1e-10")
    ok = True
    details = []
    for s in (2, 3):
        want = -mp.mpf(2) ** (-s) * em_zeta(s)
        conv = eval_convergent(Z("1,-1"), [s, 0], tol=tol).value
        regd = eval_integer_point(Z("1,-1"), (s, 0), A=6).value
        err_c, err_r = abs(conv - want), abs(regd - want)
        details.append(f"s={s}: conv {mp.nstr(err_c, 3)}, reg {mp.nstr(err_r, 3)}")
        ok = ok and err_c < tol and err_r < tol
    report(5, "sum over n1>n2 of (-1)^n2 n1^-s equals -2^-s zeta(s) to 1e-10 "
              "by both evaluation routes, s in {2,3}",
           ok, "; ".join(details))


def test_criterion_06_twisted_engine_identity():
    ok = True
    worst = mp.mpf(0)
    for k in (2, 3, 4, 5):
        zeta = RotationNumber(1, k)
        table = zeta.power_values()
        for f in (ScaleFunction.term(0, 2), ScaleFunction.term(1, 2)):
            res = gen_euler_boole(f, k, zeta, 30, 6)
            brute = sum((table[a % k] * f._value_at(a) for a in range(1, 30)),
                        mp.mpc(0))
            err = abs(res.total - brute)
            worst = max(worst, err)
            ok = ok and err <= res.remainder_estimate and err < mp.mpf("1e-20")
    report(6, "twisted summation engine reproduces brute force for "
              "k in {2..5}, f in {t^-2, log(t)/t^2}, n=30, m=6 "
              "(within estimate and 1e-20)",
           ok, f"worst error {mp.nstr(worst, 3)}")


def test_criterion_07_k2_reduction_exact():
    polys_match = all(
        gen_euler_polynomial(2, n) == classical_euler_oracle(n)
        for n in range(11)
    )
    half = inner_product(2, MINUS_ONE, 1, 1) == mp.mpf("0.5")
    report(7, "k=2 polynomials equal the classical Euler polynomials for "
              "n <= 10 (exact) and <v,w> = 1/2 exactly",
           polys_match and half)


def test_criterion_08_euler_maclaurin_identity():
    f = ScaleFunction.term(0, 2)
    res = euler_maclaurin(f, 50, 4)
    brute = sum((f._value_at(i) for i in range(1, 50)), mp.mpc(0))
    err = abs(res.total - brute)
    report(8, "Euler-Maclaurin engine matches brute force for f=t^-2, "
              "n=50, m=4 within its remainder estimate",
           err <= res.remainder_estimate, f"error {mp.nstr(err, 3)}")


def test_criterion_09_translation_residuals():
    rng = random.Random(20250811)
    tol = mp.mpf("1e-14")
    ok = True
    worst = mp.mpf(0)
    for r in (1, 2, 3):
        for _ in range(25):
            dens = [rng.choice([1, 2, 3, 4, 5, 6]) for _ in range(r)]
            z = ZVector([RotationNumber(rng.randrange(d), d) for d in dens])
            s = [mp.mpc(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
                 for _ in range(r)]
            rep = verify_translation(z, s, M=50, N=12, tol=mp.mpf("1e-16"))
            worst = max(worst, rep.residual)
            ok = ok and rep.residual < tol
    report(9, "translation identity residual < 1e-14 for 25 random cases "
              "per depth r in {1,2,3}",
           ok, f"worst residual {mp.nstr(worst, 3)}")


def test_criterion_10_order_bound_random_specs():
    rng = random.Random(424242)
    ok = True
    for _ in range(50):
        r = rng.randint(1, 3)
        dens = [rng.choice([1, 2, 3, 4]) for _ in range(r)]
        z = ZVector([RotationNumber(rng.randrange(d), d) for d in dens])
        a = tuple(rng.randint(-3, 3) for _ in range(r))
        kvec = tuple(rng.choice([0, 0, 1]) for _ in range(r))
        spec = DepthSpec(z, a, kvec)
        e = depth_expansion(spec, 3, tol=mp.mpf("1e-18"))
        if e.order() < order_lower_bound(spec):
            ok = False
            print(f"   order bound violated for {spec}")
    report(10, "expansion order >= certified lower bound for 50 random "
               "depth specifications (r <= 3)", ok)


def test_criterion_11_tail_decay_slope():
    z, s = Z("-1,1"), [mp.mpf("1.2"), mp.mpf("0.1")]
    points = []
    for N in (10**2, 10**3, 10**4):
        tail = brute_partial_sum(z, s, N, 2 * N)
        points.append((mp.log(N), mp.log(abs(tail))))
    # least-squares slope through the three points
    xs, ys = zip(*points)
    xbar, ybar = sum(xs) / 3, sum(ys) / 3
    slope = sum((x - xbar) * (y - ybar) for x, y in points) / \
        sum((x - xbar) ** 2 for x in xs)
    report(11, "log-log slope of the tails t_{2N,N} at s=(1.2,0.1), "
               "z=(-1,1) is <= -0.2",
           slope <= mp.mpf("-0.2"), f"slope {mp.nstr(slope, 4)}")


def test_criterion_12_domain_examples():
    # (1,0) sits on the boundary of U_2(-1,1): first inequality strict,
    # second an equality, with the bounds derived from q(z)
    from mplreg.rootsofunity import first_nontrivial_prefix

    z1 = Z("-1,1")
    point = (mp.mpf(1), mp.mpf(0))
    outside = not contains("Urz", z1, point)
    q = first_nontrivial_prefix(z1)
    bounds = [i if i < q else i - 1 for i in (1, 2)]
    partials = [point[0], point[0] + point[1]]
    first_strict = partials[0] > bounds[0]
    second_equality = partials[1] == bounds[1]
    # (2,-1) separates V from U for z=(1,-1)
    z2 = Z("1,-1")
    separated = contains("Vrz", z2, (2, -1)) and not contains("Urz", z2, (2, -1))
    # U = V for z=(-1,-1) on a 10x10 grid
    z3 = Z("-1,-1")
    grid = [mp.mpf(i) / 2 - 2 for i in range(10)]
    grid_equal = all(
        contains("Urz", z3, (x, y)) == contains("Vrz", z3, (x, y))
        for x in grid for y in grid
    )
    report(12, "domain examples: (1,0) on the boundary of U_2(-1,1); "
               "(2,-1) in V_2(1,-1) minus U_2(1,-1); U = V for z=(-1,-1) "
               "on a 10x10 grid",
           outside and first_strict and second_equality and separated
           and grid_equal)
