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

import argparse
import contextlib
import csv
import io
import itertools
import json
import random
import re
import sys

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


class _Parser(argparse.ArgumentParser):
    """A usage error (unknown command or option, bad option value, missing
    command) raises ValueError, so it takes the JSON error path with exit
    code 1 like any other failure."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # argparse reads a token such as -1,-1 or -1..2 as an option unless
        # it matches this private pattern (by default plain numbers only);
        # the values of -z, -a and -k may begin with a minus sign
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise ValueError(message)


# built once, at import: building it costs more than parsing a command line
_PARSER = _Parser(prog="mplreg", description="Multiple polylogarithms at roots "
                  "of unity: domains, values, regularisation and verification.")
_SUBPARSERS = _PARSER.add_subparsers(required=True, metavar="command")


def _command(name, *options):
    """Register a command body under ``name`` with the options it reads."""
    def register(run):
        sub = _SUBPARSERS.add_parser(name, help=run.__doc__, description=run.__doc__)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(run=run)
        return run
    return register


def _opt(*flags, **kwargs):
    return flags, kwargs


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


PREC = _opt("--prec", type=_int_at_least(53), default=128,
            help="working precision in bits (default: %(default)s)")
ORDER = _opt("--order", "-A", type=_int_at_least(1), default=6,
             help="expansion precision order (default: %(default)s)")
OUT = _opt("--out", help="also write the output to this file (UTF-8)")
FORMAT = _opt("--format", dest="fmt", choices=["json", "text"], default="json",
              help="output format (default: %(default)s)")
Z = _opt("-z", dest="ztext", metavar="Z", required=True,
         help="roots of unity, e.g. 1,-1 or 1/3,2/3")
S = _opt("-s", dest="stext", metavar="S", help="complex point a+bi,...")
K = _opt("-k", dest="ktext", metavar="K", help="log powers (default all 0)")


def _write(payload: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


def _emit(payload: str, out):
    _write(payload, out)
    print(payload)


def _fail(exc, out=None):
    """Print ``exc`` as a JSON error object and exit with its code
    (``MplregError.exit_code``, 1 for any other exception).  The object goes
    to stdout first and then, as far as it can, to ``out``: the failure may
    be that ``out`` cannot be written."""
    code = exc.exit_code if isinstance(exc, MplregError) else 1
    payload = json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
    print(payload)
    with contextlib.suppress(OSError):
        _write(payload, out)
    sys.exit(code)


def main(args=None, prog_name="mplreg", standalone_mode=True):
    """Run one command line (``sys.argv[1:]`` by default) at its ``--prec``.
    Any exception, a usage error included, takes the JSON error path;
    SystemExit and KeyboardInterrupt pass through.  ``prog_name`` and
    ``standalone_mode`` have no effect."""
    opts = {}
    try:
        opts = vars(_PARSER.parse_args(args))
        run = opts.pop("run")
        with mp.workprec(opts.get("prec") or mp.mp.prec):
            run(**opts)
    except Exception as exc:
        _fail(exc, opts.get("out"))


# bench/run.py calls main.main(args=..., prog_name="mplreg",
# standalone_mode=False) and reads SystemExit; the console script calls
# sys.exit(main())
main.main = main


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


@_command("domain", Z, S, PREC, OUT, FORMAT)
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


@_command("eval", Z, S, _opt("-a", dest="atext", metavar="A", help="integer point"),
          PREC, ORDER,
          _opt("--tol", help="tolerance, > 0 and >= 2^(20-prec) (default 1e-12 "
                             "at -s, 1e-25 at -a, each raised to that floor)"),
          _opt("--ceiling", type=int, default=polylog.DEFAULT_CUTOFF_CEILING,
               help="cutoff ceiling of the convergent route (default 10^7)"),
          OUT, FORMAT)
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


@_command("reg", Z,
          _opt("-a", dest="atext", metavar="A", required=True, help="integer exponents"),
          K, PREC, ORDER, OUT, FORMAT)
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
        # term by term in mpmath, independent of the engines' integer pass, at
        # 256 more bits: the engines' estimates bound their own rounding, and
        # a sum that cancels to 0 leaves the estimate near 2^(-2 prec)
        with mp.workprec(mp.mp.prec + 256):
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


@_command("verify",
          _opt("--suite", choices=["translation", "summation", "all"], default="all"),
          _opt("--trials", type=_int_at_least(1), default=10),
          _opt("--seed", type=int, default=0),
          PREC,
          _opt("--tol", help="residual tolerance, > 0 and >= 2^(20-prec) "
                             "(default 1e-12 raised to that floor)"),
          OUT, FORMAT)
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


@_command("table", Z,
          _opt("-a", dest="atext", metavar="A", required=True,
               help='integer grid, e.g. "1..3,-1..1" (one range per coordinate)'),
          K, PREC, ORDER, OUT)
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


@_command("euler-poly", _opt("k", type=int), _opt("n", type=int), OUT, FORMAT)
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
