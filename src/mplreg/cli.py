"""Command-line interface: classification, evaluation, regularisation,
verification and table generation with machine-readable output.

Exit codes separate the failure classes: 2 for domain errors, 3 for
non-convergence, 4 for precision failures, 1 for anything else, usage
errors included.  Stdout stays machine-readable on failure (a JSON error
object is printed).  Each command takes only the options it reads, and a
command body runs under ``mp.workprec(--prec)``, so the caller's working
precision is left as it was.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import random
import sys

import click
import mpmath as mp

from . import polylog
from .asymptotics import DepthSpec, depth_expansion, fmt_real
from .errors import MplregError
from .eulerpoly import gen_euler_polynomial
from .rootsofunity import (
    ComplexPoint,
    RotationNumber,
    ZVector,
    contains,
    first_nontrivial_prefix,
    index_set_and_count,
    singular_hyperplanes,
)
from .scalefun import ScaleFunction
from .summation import euler_maclaurin, gen_euler_boole, resolve_tol

CSV_COLUMNS = ["z", "a", "k", "method", "re", "im", "abs_err",
               "precision_bits", "order"]

prec_option = click.option("--prec", type=click.IntRange(min=53), default=128,
                           show_default=True, help="working precision in bits")
order_option = click.option("--order", "-A", "order", type=click.IntRange(min=1),
                            default=6, show_default=True,
                            help="expansion precision order")
out_option = click.option("--out", type=click.Path(), default=None,
                          help="also write the output to this file (UTF-8)")
format_option = click.option("--format", "fmt", type=click.Choice(["json", "text"]),
                             default="json", show_default=True, help="output format")


def _write(payload: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


def _emit(payload: str, out):
    _write(payload, out)
    click.echo(payload)


def _fail(exc, out=None):
    """Print ``exc`` as a JSON error object and exit with its code
    (``MplregError.exit_code``, 1 for any other exception).  The object goes
    to stdout first and then, as far as it can, to ``out``: the failure may
    be that ``out`` cannot be written."""
    code = exc.exit_code if isinstance(exc, MplregError) else 1
    payload = json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
    click.echo(payload)
    with contextlib.suppress(OSError):
        _write(payload, out)
    sys.exit(code)


def _json_errors(command):
    """Run a command body at its ``--prec`` and turn a failure into the JSON
    error path.  SystemExit and KeyboardInterrupt are not exceptions in this
    sense and pass through."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            with mp.workprec(kwargs.get("prec") or mp.mp.prec):
                return command(*args, **kwargs)
        except Exception as exc:
            _fail(exc, kwargs.get("out"))

    return wrapper


def _parse_z(text: str) -> ZVector:
    try:
        return ZVector.parse(text)
    except ValueError as exc:
        raise ValueError(f"bad -z value {text!r}: {exc}") from None


def _parse_ints(text: str, flag: str):
    out = []
    for pos, part in enumerate(text.split(",")):
        try:
            out.append(int(part))
        except ValueError:
            raise ValueError(
                f"bad {flag} value: component {pos + 1} ({part!r}) is not an integer"
            ) from None
    return tuple(out)


class _Group(click.Group):
    """A usage error (unknown command or option, bad option value, missing
    command) takes the JSON error path with exit code 1."""

    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            _fail(exc)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(exc)


@click.group(cls=_Group, no_args_is_help=False)
def main():
    """Multiple polylogarithms at roots of unity: domains, values,
    regularisation and verification."""


@main.command()
@click.option("-z", "--roots", "ztext", required=True,
              help="roots of unity, e.g. 1,-1 or 1/3,2/3")
@click.option("-s", "stext", default=None, help="complex point a+bi,...")
@prec_option
@out_option
@format_option
@_json_errors
def domain(ztext, stext, prec, out, fmt):
    """Classify a point: q(z), the counts Q_i(z), domain membership and the
    candidate singular hyperplanes."""
    z = _parse_z(ztext)
    report = {
        "z": str(z),
        "q": first_nontrivial_prefix(z),
        "Q": [index_set_and_count(z, j)[1] for j in range(1, z.r + 1)],
        "hyperplanes": [h.to_json_obj() for h in singular_hyperplanes(z)],
    }
    if stext is not None:
        s = ComplexPoint.parse(stext)
        report["s"] = stext
        report["membership"] = {kind: contains(kind, z, s)
                                for kind in ("Ur", "Urz", "Vrz")}
    if fmt == "text":
        lines = [f"z = {report['z']}", f"q(z) = {report['q']}",
                 f"Q_i(z) = {report['Q']}"]
        if "membership" in report:
            lines.append(f"s = {stext}: " + ", ".join(
                f"{k}={'in' if v else 'out'}"
                for k, v in report["membership"].items()))
        lines += ["singular hyperplane candidates:"] + [
            "  " + h["text"] for h in report["hyperplanes"]]
        if not report["hyperplanes"]:
            lines.append("  (none; the function is entire)")
        _emit("\n".join(lines), out)
    else:
        _emit(json.dumps(report, indent=2), out)


@main.command("eval")
@click.option("-z", "ztext", required=True, help="roots of unity")
@click.option("-s", "stext", default=None, help="complex point a+bi,...")
@click.option("-a", "atext", default=None, help="integer point")
@prec_option
@order_option
@click.option("--tol", default=None,
              help="tolerance, > 0 and >= 2^(20-prec) (default 1e-12 at -s, "
                   "1e-25 at -a, each raised to that floor)")
@click.option("--ceiling", type=int, default=polylog.DEFAULT_CUTOFF_CEILING,
              help="cutoff ceiling of the convergent route (default 10^7)")
@out_option
@format_option
@_json_errors
def cmd_eval(ztext, stext, atext, prec, order, tol, ceiling, out, fmt):
    """Evaluate the nested series: by the regularised route at an integer
    point -a of V_r(z), by the convergent route at a point -s of U_r(z)."""
    z = _parse_z(ztext)
    if (stext is None) == (atext is None):
        raise ValueError("give exactly one of -s or -a")
    if atext is not None:
        a = _parse_ints(atext, "-a")
        report = polylog.eval_integer_point(z, a, A=order, tol=tol)
    else:
        s = ComplexPoint.parse(stext)
        report = polylog.eval_convergent(z, s, tol=tol, ceiling=ceiling)
    obj = report.to_json_obj()
    obj["precision_bits"] = prec
    if fmt == "text":
        value = mp.mpc(report.value)
        _emit(f"value = {mp.nstr(value, mp.mp.dps)}\n"
              f"abs error estimate <= {mp.nstr(mp.mpf(report.abs_error_estimate), 5)}\n"
              f"method = {report.method}", out)
    else:
        _emit(json.dumps(obj, indent=2), out)


@main.command("reg")
@click.option("-z", "ztext", required=True, help="roots of unity")
@click.option("-a", "atext", required=True, help="integer exponents")
@click.option("-k", "ktext", default=None, help="log powers (default all 0)")
@prec_option
@order_option
@out_option
@format_option
@_json_errors
def cmd_reg(ztext, atext, ktext, prec, order, out, fmt):
    """Regularised value plus the full asymptotic expansion of the partial
    sums (multiple Stieltjes constant at the given point and log orders)."""
    z = _parse_z(ztext)
    a = _parse_ints(atext, "-a")
    kvec = _parse_ints(ktext, "-k") if ktext else (0,) * len(a)
    expansion = depth_expansion(DepthSpec(z, a, kvec), order)
    value = expansion.regularised_value()
    if fmt == "text":
        _emit(f"regularised value = {mp.nstr(value, mp.mp.dps)}", out)
        return
    payload = {
        "regularised_value": {"re": fmt_real(value.real), "im": fmt_real(value.imag)},
        "order": (None if expansion.is_empty() else int(expansion.order())),
        "precision_bits": prec,
        "expansion": expansion.to_json_obj(),
        "z": str(z), "a": list(a), "k": list(kvec),
    }
    _emit(json.dumps(payload, indent=2), out)


def _translation_suite(rng: random.Random, trials: int, tol):
    results = []
    for trial in range(trials):
        r = 1 + trial % 3
        dens = [rng.choice([2, 3, 4, 5, 6]) for _ in range(r)]
        z = ZVector([RotationNumber(rng.randrange(d), d) for d in dens])
        s = [mp.mpc(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
             for _ in range(r)]
        rep = polylog.verify_translation(z, s, M=50, N=12, tol=tol)
        results.append({"suite": "translation", "depth": r, "z": str(z),
                        "residual": fmt_real(rep.residual),
                        "pass": bool(rep.residual < tol)})
    return results


def _summation_suite(rng: random.Random, trials: int, tol):
    results = []
    for trial in range(trials):
        terms = [(rng.randint(0, 2), rng.randint(0, 3),
                  mp.mpc(rng.uniform(-2, 2), rng.uniform(-1, 1)))
                 for _ in range(rng.randint(1, 3))]
        f = ScaleFunction(terms)
        n = rng.randint(8, 50)
        m = rng.randint(2, 6)
        k = rng.choice([2, 3, 4, 5])
        num = rng.choice([x for x in range(1, k) if mp.libmp.gcd(x, k) == 1])
        zeta = RotationNumber(num, k)
        n = max(n, k)
        # term by term in mpmath, independent of the evaluator the engines use,
        # at 64 more bits: the engines' estimates bound their own rounding
        with mp.workprec(mp.mp.prec + 64):
            values = [mp.fsum(c * mp.log(i) ** l * mp.mpf(i) ** -e for l, e, c in terms)
                      for i in range(1, n)]
            brute_em = sum(values, mp.mpc(0))
            table = zeta.power_values()
            brute_gb = sum((table[i % k] * v for i, v in enumerate(values, 1)),
                           mp.mpc(0))
        res_em = euler_maclaurin(f, n, m)
        res_gb = gen_euler_boole(f, k, zeta, n, m)
        for label, res, brute in (("euler_maclaurin", res_em, brute_em),
                                  ("gen_euler_boole", res_gb, brute_gb)):
            err = abs(res.total - brute)
            results.append({"suite": "summation", "engine": label, "k": k,
                            "n": n, "m": m, "residual": fmt_real(err),
                            "pass": bool(err <= res.remainder_estimate and err < tol)})
    return results


@main.command("verify")
@click.option("--suite", type=click.Choice(["translation", "summation", "all"]),
              default="all")
@click.option("--trials", type=click.IntRange(min=1), default=10)
@click.option("--seed", type=int, default=0)
@prec_option
@click.option("--tol", default=None,
              help="residual tolerance, > 0 and >= 2^(20-prec) (default "
                   "1e-12 raised to that floor)")
@out_option
@format_option
@_json_errors
def cmd_verify(suite, trials, seed, prec, tol, out, fmt):
    """Run the translation-identity and summation-engine verification suites;
    exits nonzero if any residual exceeds the tolerance."""
    tol = resolve_tol(tol, polylog.DEFAULT_EVAL_TOL)
    rng = random.Random(seed)
    results = []
    if suite in ("translation", "all"):
        results += _translation_suite(rng, trials, tol)
    if suite in ("summation", "all"):
        results += _summation_suite(rng, trials, tol)
    failures = [r for r in results if not r["pass"]]
    payload = {"trials": len(results), "failures": len(failures),
               "tol": fmt_real(tol), "results": results}
    if fmt == "text":
        lines = [f"{r['suite']}: residual {r['residual']} "
                 f"{'PASS' if r['pass'] else 'FAIL'}" for r in results]
        lines.append(f"{len(results) - len(failures)}/{len(results)} passed")
        _emit("\n".join(lines), out)
    else:
        _emit(json.dumps(payload, indent=2), out)
    if failures:
        sys.exit(1)


def _parse_ranges(text: str):
    axes = []
    for pos, part in enumerate(text.split(",")):
        part = part.strip()
        try:
            if ".." in part:
                lo_str, hi_str = part.split("..")
                lo, hi = int(lo_str), int(hi_str)
                if hi < lo:
                    raise ValueError("empty range")
                axes.append(range(lo, hi + 1))
            else:
                v = int(part)
                axes.append(range(v, v + 1))
        except ValueError:
            raise ValueError(
                f"bad -a range: component {pos + 1} ({part!r})") from None
    return axes


@main.command("table")
@click.option("-z", "ztext", required=True, help="roots of unity")
@click.option("-a", "atext", required=True,
              help='integer grid, e.g. "1..3,-1..1" (one range per coordinate)')
@click.option("-k", "ktext", default=None, help="log powers (default all 0)")
@prec_option
@order_option
@out_option
@_json_errors
def cmd_table(ztext, atext, ktext, prec, order, out):
    """Sweep a grid of integer points and emit one CSV row per point."""
    z = _parse_z(ztext)
    axes = _parse_ranges(atext)
    if len(axes) != z.r:
        raise ValueError(f"-a has {len(axes)} coordinates, z has depth {z.r}")
    kvec = _parse_ints(ktext, "-k") if ktext else (0,) * z.r
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=";")
    writer.writerow(CSV_COLUMNS)
    for a in itertools.product(*axes):
        expansion = depth_expansion(DepthSpec(z, a, kvec), order)
        value = expansion.regularised_value()
        writer.writerow([str(z),
                         ",".join(str(x) for x in a),
                         ",".join(str(x) for x in kvec),
                         "regularised",
                         fmt_real(value.real), fmt_real(value.imag),
                         fmt_real(expansion.residual_bound), prec, order])
    _emit(buf.getvalue().rstrip("\n"), out)


@main.command("euler-poly")
@click.argument("k", type=int)
@click.argument("n", type=int)
@out_option
@format_option
@_json_errors
def cmd_euler_poly(k, n, out, fmt):
    """Print the exact coefficients of the generalised Euler polynomial."""
    poly = gen_euler_polynomial(k, n)
    coeffs = [str(c) for c in poly.coeffs]
    if fmt == "text":
        _emit(" + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs)), out)
    else:
        _emit(json.dumps({"k": k, "n": n, "coefficients": coeffs}), out)


if __name__ == "__main__":
    main()
