"""Command-line interface: classification, evaluation, regularisation,
verification and table generation with machine-readable output.

Exit codes separate the failure classes: 2 for domain errors, 3 for
non-convergence, 4 for precision failures, 1 for anything else.  Stdout
stays machine-readable on failure (a JSON error object is printed).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass

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
from .summation import euler_maclaurin, gen_euler_boole

PREC_ENV_VAR = "MPLREG_PREC_BITS"
CSV_COLUMNS = ["z", "a", "k", "method", "re", "im", "abs_err",
               "precision_bits", "order"]


@dataclass
class JobConfig:
    precision_bits: int = 128
    expansion_order: int = 6
    tol: object = None
    cutoff_ceiling: int = 10**7
    output_format: str = "json"

    def __post_init__(self):
        if self.precision_bits < 53:
            raise ValueError("precision must be >= 53 bits")
        if self.expansion_order < 1:
            raise ValueError("expansion order must be >= 1")
        if self.tol is None:
            self.tol = mp.mpf("1e-12")
        else:
            self.tol = mp.mpf(self.tol)
        if not self.tol > 0:
            raise ValueError("tolerance must be > 0")

    @classmethod
    def from_options(cls, prec, order, tol, fmt, ceiling=None) -> "JobConfig":
        if prec is None:
            prec = int(os.environ.get(PREC_ENV_VAR, 128))
        return cls(precision_bits=prec,
                   expansion_order=6 if order is None else order,
                   tol=tol,
                   cutoff_ceiling=10**7 if ceiling is None else ceiling,
                   output_format=fmt or "json")

    def activate(self):
        mp.mp.prec = self.precision_bits


def config_options(f):
    f = click.option("--prec", type=int, default=None,
                     help=f"working precision in bits (env {PREC_ENV_VAR}; default 128)")(f)
    f = click.option("--order", "-A", "order", type=int, default=None,
                     help="expansion precision order (default 6)")(f)
    f = click.option("--tol", default=None, help="tolerance for reported values")(f)
    f = click.option("--ceiling", type=int, default=None,
                     help="cutoff ceiling for direct summation (default 10^7)")(f)
    f = click.option("--out", type=click.Path(), default=None,
                     help="also write the output to this file (UTF-8)")(f)
    f = click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                     default=None, help="output format (default json)")(f)
    return f


def _emit(payload: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    click.echo(payload)


def _json_errors(command):
    """Turn a failed command into a JSON error object on stdout and its exit
    code (``MplregError.exit_code``, 1 for any other exception).  SystemExit
    and KeyboardInterrupt are not exceptions in this sense and pass through."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except Exception as exc:
            code = exc.exit_code if isinstance(exc, MplregError) else 1
            _emit(json.dumps({"error": {"type": type(exc).__name__,
                                        "message": str(exc)}}),
                  kwargs.get("out"))
            sys.exit(code)

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


def _expansion_payload(expansion, cfg: JobConfig) -> dict:
    value = expansion.regularised_value()
    return {
        "regularised_value": {"re": fmt_real(value.real), "im": fmt_real(value.imag)},
        "order": (None if expansion.is_empty() else int(expansion.order())),
        "precision_bits": cfg.precision_bits,
        "expansion": expansion.to_json_obj(),
    }


@click.group()
def main():
    """Multiple polylogarithms at roots of unity: domains, values,
    regularisation and verification."""


@main.command()
@click.option("-z", "--roots", "ztext", required=True,
              help="roots of unity, e.g. 1,-1 or 1/3,2/3")
@click.option("-s", "stext", default=None, help="complex point a+bi,...")
@config_options
@_json_errors
def domain(ztext, stext, prec, order, tol, ceiling, out, fmt):
    """Classify a point: q(z), the counts Q_i(z), domain membership and the
    candidate singular hyperplanes."""
    cfg = JobConfig.from_options(prec, order, tol, fmt, ceiling)
    cfg.activate()
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
    if cfg.output_format == "text":
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
@config_options
@_json_errors
def cmd_eval(ztext, stext, atext, prec, order, tol, ceiling, out, fmt):
    """Evaluate the nested series, dispatching to the regularised route at
    integer points of V_r(z) and to direct convergent evaluation otherwise."""
    cfg = JobConfig.from_options(prec, order, tol, fmt, ceiling)
    cfg.activate()
    z = _parse_z(ztext)
    if (stext is None) == (atext is None):
        raise ValueError("give exactly one of -s or -a")
    if atext is not None:
        a = _parse_ints(atext, "-a")
        if contains("Vrz", z, a):
            report = polylog.eval_integer_point(
                z, a, A=cfg.expansion_order, tol=None)
        else:
            report = polylog.eval_convergent(
                z, a, tol=cfg.tol, ceiling=cfg.cutoff_ceiling)
    else:
        s = ComplexPoint.parse(stext)
        report = polylog.eval_convergent(
            z, s, tol=cfg.tol, ceiling=cfg.cutoff_ceiling)
    obj = report.to_json_obj()
    obj["precision_bits"] = cfg.precision_bits
    if cfg.output_format == "text":
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
@config_options
@_json_errors
def cmd_reg(ztext, atext, ktext, prec, order, tol, ceiling, out, fmt):
    """Regularised value plus the full asymptotic expansion of the partial
    sums (multiple Stieltjes constant at the given point and log orders)."""
    cfg = JobConfig.from_options(prec, order, tol, fmt, ceiling)
    cfg.activate()
    z = _parse_z(ztext)
    a = _parse_ints(atext, "-a")
    kvec = _parse_ints(ktext, "-k") if ktext else (0,) * len(a)
    expansion = depth_expansion(DepthSpec(z, a, kvec), cfg.expansion_order)
    payload = _expansion_payload(expansion, cfg)
    payload.update({"z": str(z), "a": list(a), "k": list(kvec)})
    if cfg.output_format == "text":
        value = expansion.regularised_value()
        _emit(f"regularised value = {mp.nstr(value, mp.mp.dps)}", out)
    else:
        _emit(json.dumps(payload, indent=2), out)


def _translation_suite(rng: random.Random, trials: int, tol):
    failures = []
    results = []
    for trial in range(trials):
        r = 1 + trial % 3
        dens = [rng.choice([2, 3, 4, 5, 6]) for _ in range(r)]
        z = ZVector([RotationNumber(rng.randrange(d), d) for d in dens])
        s = [mp.mpc(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
             for _ in range(r)]
        rep = polylog.verify_translation(z, s, M=50, N=12, tol=tol / 100)
        ok = rep.residual < tol
        results.append({"suite": "translation", "depth": r, "z": str(z),
                        "residual": fmt_real(rep.residual), "pass": bool(ok)})
        if not ok:
            failures.append(results[-1])
    return results, failures


def _summation_suite(rng: random.Random, trials: int, tol):
    failures = []
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
        brute_em = sum((f._value_at(i) for i in range(1, n)), mp.mpc(0))
        table = zeta.power_values()
        brute_gb = sum((table[i % k] * f._value_at(i) for i in range(1, n)),
                       mp.mpc(0))
        res_em = euler_maclaurin(f, n, m)
        res_gb = gen_euler_boole(f, k, zeta, n, m)
        for label, res, brute in (("euler_maclaurin", res_em, brute_em),
                                  ("gen_euler_boole", res_gb, brute_gb)):
            err = abs(res.total - brute)
            ok = err <= res.remainder_estimate and err < tol
            results.append({"suite": "summation", "engine": label, "k": k,
                            "n": n, "m": m, "residual": fmt_real(err),
                            "pass": bool(ok)})
            if not ok:
                failures.append(results[-1])
    return results, failures


@main.command("verify")
@click.option("--suite", type=click.Choice(["translation", "summation", "all"]),
              default="all")
@click.option("--trials", type=int, default=10)
@click.option("--seed", type=int, default=0)
@config_options
@_json_errors
def cmd_verify(suite, trials, seed, prec, order, tol, ceiling, out, fmt):
    """Run the translation-identity and summation-engine verification suites;
    exits nonzero if any residual exceeds the tolerance."""
    cfg = JobConfig.from_options(prec, order, tol, fmt, ceiling)
    cfg.activate()
    rng = random.Random(seed)
    results, failures = [], []
    if suite in ("translation", "all"):
        res, bad = _translation_suite(rng, trials, cfg.tol)
        results += res
        failures += bad
    if suite in ("summation", "all"):
        res, bad = _summation_suite(rng, trials, cfg.tol)
        results += res
        failures += bad
    payload = {"trials": len(results), "failures": len(failures),
               "tol": fmt_real(cfg.tol), "results": results}
    if cfg.output_format == "text":
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
@config_options
@_json_errors
def cmd_table(ztext, atext, ktext, prec, order, tol, ceiling, out, fmt):
    """Sweep a grid of integer points and emit one CSV row per point."""
    cfg = JobConfig.from_options(prec, order, tol, fmt or "csv", ceiling)
    cfg.activate()
    z = _parse_z(ztext)
    axes = _parse_ranges(atext)
    if len(axes) != z.r:
        raise ValueError(f"-a has {len(axes)} coordinates, z has depth {z.r}")
    kvec = _parse_ints(ktext, "-k") if ktext else (0,) * z.r
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=";")
    writer.writerow(CSV_COLUMNS)
    for a in itertools.product(*axes):
        if any(kvec) or not contains("Vrz", z, a):
            expansion = depth_expansion(DepthSpec(z, a, kvec),
                                        cfg.expansion_order)
            value = expansion.regularised_value()
            err = expansion.residual_bound
            method = "regularised"
        else:
            rep = polylog.eval_integer_point(z, a, A=cfg.expansion_order)
            value, err, method = mp.mpc(rep.value), rep.abs_error_estimate, rep.method
        writer.writerow([str(z),
                         ",".join(str(x) for x in a),
                         ",".join(str(x) for x in kvec),
                         method,
                         fmt_real(value.real), fmt_real(value.imag),
                         fmt_real(err), cfg.precision_bits,
                         cfg.expansion_order])
    _emit(buf.getvalue().rstrip("\n"), out)


@main.command("euler-poly")
@click.argument("k", type=int)
@click.argument("n", type=int)
@config_options
@_json_errors
def cmd_euler_poly(k, n, prec, order, tol, ceiling, out, fmt):
    """Print the exact coefficients of the generalised Euler polynomial."""
    cfg = JobConfig.from_options(prec, order, tol, fmt, ceiling)
    poly = gen_euler_polynomial(k, n)
    coeffs = [str(c) for c in poly.coeffs]
    if cfg.output_format == "text":
        _emit(" + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs)), out)
    else:
        _emit(json.dumps({"k": k, "n": n, "coefficients": coeffs}), out)


if __name__ == "__main__":
    main()
