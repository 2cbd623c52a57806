"""Regenerate ``refs.json``: reference values for every value a workload can ask for.

    python3 bench/make_refs.py            # from the root of a checkout

Depth-1 values come from mpmath closed forms at 400 bits.  Deeper values come
from the library itself at REF_PREC bits and a matching tolerance far below
what the workloads' 256-bit runs reach, or, for the convergent route, from
period-averaged extrapolation of brute partial sums.  Each entry is
cross-checked once by a second route and the outcome is stored with it:

* closed forms against the library's regularised route;
* deeper regularised values against the library at another precision,
  expansion order and tolerance of the same strength; where the point is also
  convergent, against an averaged-limit oracle on brute nested sums written
  here (no library code), the algorithm of the test suite's
  ``averaged_limit``, as well.  The stored uncertainty is the library's
  residual bound plus the disagreement of the matching-precision check.

Regularised values also get ``seed_est``: per workload precision, the error
estimate the library reports for the value in the workload's own call (the
larger of the two complex conjugates).  These fix the accuracy the harness
holds each value to, so they are recorded once, at the parent commit of the
benchmark, and kept when the table is regenerated.

Only a conjugate-free half of the keys is stored; ``References.lookup``
serves the other half by conjugation.  Entries already in the table are kept;
delete one to have it recomputed.
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath as mp

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from refs import REFS_PATH, closed_form, conjugate_key  # noqa: E402

REF_PREC = 384
REF_TOL = "1e-60"
REF_A = 8
CHECK_PREC = 352
CHECK_TOL = "1e-52"
CHECK_A = 10


def brute_nested(z_fracs, s, cutoffs):
    """{N: sum_{N>n_1>...>n_r>0} prod z_i^{n_i} n_i^{-s_i}}, one forward pass."""
    r = len(z_fracs)
    cutoffs = sorted(set(cutoffs))
    want, top = set(cutoffs), cutoffs[-1]
    running = [mp.mpc(0)] * r + [mp.mpc(1)]
    tables = [[mp.expjpi(2 * mp.mpf((f * i).numerator) / (f * i).denominator)
               for i in range(f.denominator)] for f in z_fracs]
    out = {}
    for n in range(1, top + 1):
        if n in want:
            out[n] = running[0]
        if n == top:
            break
        w = [tables[j][n % len(tables[j])] * mp.power(n, -s[j]) for j in range(r)]
        contrib = [w[j] * running[j + 1] for j in range(r)]
        for j in range(r):
            running[j] += contrib[j]
    return out


def ladder(sums_fn, period, start=512, rungs=9):
    """Partial sums averaged over one period at start * 2^i, i < rungs."""
    values = []
    n = start
    for _ in range(rungs):
        window = sums_fn(range(n, n + period))
        values.append(sum(window.values()) / period)
        n *= 2
    return values


def extrapolate(values):
    """Iterated Aitken along the doubling ladder (the test suite's
    ``averaged_limit`` after its window averaging)."""
    table = [values]
    while len(table[-1]) >= 3:
        prev = table[-1]
        new = []
        for j in range(2, len(prev)):
            d1, d2 = prev[j - 1] - prev[j - 2], prev[j] - prev[j - 1]
            if d2 == 0 or abs(d1 / d2) < mp.mpf("1.2"):
                new.append(prev[j])
            else:
                new.append(prev[j] + d2 / (d1 / d2 - 1))
        table.append(new)
    return table[-1][-1]


def oracle_limit(ztext, s):
    """Averaged limit with its own uncertainty (two ladders that differ in
    length must agree)."""
    fr = [workloads.parse_root(t) for t in ztext.split(",")]
    period = workloads.z_order(ztext)
    with mp.workprec(192):
        s = [mp.mpc(x) for x in s]
        rungs = ladder(lambda cutoffs: brute_nested(fr, s, cutoffs), period)
        v1, v2 = extrapolate(rungs[:-1]), extrapolate(rungs)
    return v2, abs(v2 - v1)


def library_value(z, a, k, prec, A, tol):
    from mplreg.asymptotics import DepthSpec, depth_expansion
    from mplreg.rootsofunity import ZVector

    with mp.workprec(prec):
        e = depth_expansion(DepthSpec(ZVector.parse(z), a, k), A,
                            tol=None if tol is None else mp.mpf(tol))
        return mp.mpc(e.regularised_value()), mp.mpf(e.residual_bound)


def entry(value, err, route, checks):
    """A table entry; ``checks`` is a list of (route, |difference|)."""
    return {"re": mp.nstr(value.real, 130), "im": mp.nstr(value.imag, 130),
            "err": mp.nstr(err, 5), "route": route,
            "cross_check": [{"route": r, "diff": mp.nstr(d, 5)} for r, d in checks]}


def reg_entry(key):
    _, z, a_text, k_text = key.split("|")
    a = tuple(int(x) for x in a_text.split(","))
    k = tuple(int(x) for x in k_text.split(","))
    with mp.workprec(400):
        cf = closed_form(z, a[0], k[0]) if len(a) == 1 else None
    if cf is not None:
        lib, est = library_value(z, a, k, 192, 6, None)
        ok = abs(cf - lib) <= est + mp.mpf(2) ** -170 * max(1, abs(cf))
        return entry(cf, mp.mpf(2) ** -380, "closed form",
                     [("library 192 bits, A=6", abs(cf - lib))]), ok
    value, est = library_value(z, a, k, REF_PREC, REF_A, REF_TOL)
    other, oest = library_value(z, a, k, CHECK_PREC, CHECK_A, CHECK_TOL)
    diff = abs(value - other)
    ok = diff <= est + oest
    checks = [(f"library {CHECK_PREC} bits, A={CHECK_A}, tol {CHECK_TOL}", diff)]
    from mplreg.rootsofunity import ZVector, contains

    zz = ZVector.parse(z)
    if not any(k) and contains("Vrz", zz, a) and contains("Urz", zz, a):
        oracle, oerr = oracle_limit(z, a)
        odiff = abs(value - oracle)
        ok = ok and odiff <= est + 100 * oerr + mp.mpf("1e-25")
        checks.append(("averaged limit of brute nested sums", odiff))
    return entry(value, est + diff,
                 f"library {REF_PREC} bits, A={REF_A}, tol {REF_TOL}", checks), ok


def conv_entry(z, s):
    svals = [mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in s]
    with mp.workprec(400):
        cf = closed_form(z, svals[0]) if len(svals) == 1 else None
    oracle, oerr = oracle_limit(z, svals)
    if cf is not None:
        diff = abs(cf - oracle)
        return entry(cf, mp.mpf(2) ** -380, "closed form (Hurwitz zeta sum)",
                     [("averaged limit of brute nested sums", diff)]), \
            diff <= 100 * oerr + mp.mpf("1e-20")
    # no closed form: the oracle is the reference, with a generous share of
    # its ladder disagreement as uncertainty
    err = max(100 * oerr, mp.mpf("1e-30"))
    return entry(oracle, err, "averaged limit of brute nested sums, 192 bits",
                 [("averaged limit with one rung fewer", oerr)]), True


def seed_estimates(key, keys):
    """{prec: estimate} the library reports for a regularised value in its
    workload's call, the larger over the key and its conjugate."""
    out = {}
    for prec in workloads.PRECISIONS:
        worst = mp.mpf(0)
        for k in {key, conjugate_key(key)} & set(keys):
            _, z, a_text, k_text = k.split("|")
            a = tuple(int(x) for x in a_text.split(","))
            kv = tuple(int(x) for x in k_text.split(","))
            worst = max(worst, library_value(z, a, kv, prec, keys[k], None)[1])
        out[str(prec)] = mp.nstr(worst, 5)
    return out


def main():
    keys = workloads.reference_keys()
    old = {}
    if os.path.exists(REFS_PATH):
        with open(REFS_PATH, encoding="utf-8") as handle:
            old = json.load(handle)["values"]
    values = {}
    bad = []
    for key, conv in sorted(keys.items()):
        alt = conjugate_key(key)
        if alt in values or (alt != key and alt in keys and alt < key):
            continue
        start = time.perf_counter()
        ok = True
        if key in old:
            item = old[key]
        elif key.startswith("reg|"):
            item, ok = reg_entry(key)
        else:
            item, ok = conv_entry(*conv)
        if key.startswith("reg|") and "seed_est" not in item:
            item["seed_est"] = seed_estimates(key, keys)
        values[key] = item
        if not ok:
            bad.append(key)
        print(f"{time.perf_counter() - start:7.2f}s {'ok ' if ok else 'BAD'} {key} "
              f"err {item['err']} cross-check "
              f"{' '.join(c['diff'] for c in item['cross_check'])} "
              f"seed_est {item.get('seed_est')}", flush=True)
        with open(REFS_PATH, "w", encoding="utf-8") as handle:
            json.dump({"values": values}, handle, indent=1, sort_keys=True)
    with open(REFS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"values": values}, handle, indent=1, sort_keys=True)
    if bad:
        print("cross-check failed for:", *bad, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
