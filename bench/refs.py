"""Reference values: independent closed forms and the stored table.

Depth-1 values have closed forms in mpmath that share no code with the
library: ``mp.polylog``, zeta derivatives, Stieltjes constants and Hurwitz
zeta sums.  Deeper values are stored in ``refs.json`` (written by
``make_refs.py`` at a higher precision and cross-checked there once by a
second route).  Each stored entry carries its own uncertainty; regularised
values also carry ``seed_est``, the error estimates the parent commit of the
benchmark reported for them, which set the accuracy they are held to.
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp

from workloads import conj_s, conj_z, parse_root, skey

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def _lin_sum_derivatives(p: int, q: int, s, k: int):
    """(-1)^k d^k/ds^k of  sum_{n>=1} z^n n^-s,  z = e^{2 pi i p/q} != 1,
    from Li_s(z) = q^-s sum_{j=1..q} z^j zeta(s, j/q) (entire in s)."""
    z = [mp.expjpi(mp.mpf(2 * p * j) / q) for j in range(q + 1)]
    s = mp.mpc(s)
    if s == 1:
        # the poles cancel (sum z^j = 0); use the Laurent coefficients
        # zeta(s, x) = 1/(s-1) + sum_n (-1)^n gamma_n(x) (s-1)^n / n!
        inner = [(-1) ** i * mp.fsum(z[j] * mp.stieltjes(i, mp.mpf(j) / q)
                                     for j in range(1, q + 1))
                 for i in range(k + 1)]
    else:
        inner = [mp.fsum(z[j] * mp.zeta(s, mp.mpf(j) / q, i) for j in range(1, q + 1))
                 for i in range(k + 1)]
    logq = mp.log(q)
    total = mp.fsum(math.comb(k, i) * (-logq) ** (k - i) * inner[i]
                    for i in range(k + 1))
    return (-1) ** k * mp.power(q, -s) * total


def closed_form(ztext: str, s, k: int = 0):
    """Depth-1 regularised value of sum z^n (log n)^k n^-s, or None where no
    closed form is used.  ``s`` is an integer or a complex number."""
    if len(ztext.split(",")) != 1:
        return None
    frac = parse_root(ztext)
    if frac == 0:
        if isinstance(s, int) and s >= 2:
            return (-1) ** k * mp.zeta(s, 1, k)
        if isinstance(s, int) and s == 1:
            return mp.stieltjes(k)
        return None
    if k == 0 and isinstance(s, int) and s >= 1:
        return mp.polylog(s, mp.expjpi(2 * mp.mpf(frac.numerator) / frac.denominator))
    return _lin_sum_derivatives(frac.numerator, frac.denominator, s, k)


class References:
    """Stored reference table with conjugate lookup."""

    def __init__(self, path: str = REFS_PATH):
        with open(path, encoding="utf-8") as handle:
            self._table = json.load(handle)["values"]

    def _entry(self, key: str):
        """(entry, conjugated) for a value key, or (None, False).  A key
        missing from the table is served from its complex conjugate."""
        entry = self._table.get(key)
        if entry is not None:
            return entry, False
        alt = conjugate_key(key)
        return self._table.get(alt) if alt else None, True

    def lookup(self, key: str):
        """(value, uncertainty) for a value key, or None."""
        entry, conjugated = self._entry(key)
        if entry is None:
            return None
        im = mp.mpf(entry["im"])
        return (mp.mpc(mp.mpf(entry["re"]), -im if conjugated else im),
                mp.mpf(entry["err"]))

    def seed_estimate(self, key: str, prec: int):
        """The error estimate the benchmark's parent commit reported for a
        regularised value at ``prec`` bits (the larger of the two conjugates),
        or None."""
        entry, _ = self._entry(key)
        est = (entry or {}).get("seed_est", {}).get(str(prec))
        return None if est is None else mp.mpf(est)


def conjugate_key(key: str):
    """Key of the complex-conjugate value: z -> conj z, s -> conj s."""
    kind, z, *rest = key.split("|")
    if kind == "reg":
        return "|".join([kind, conj_z(z)] + rest)
    if kind == "conv":
        pts = []
        for part in rest[0].split(","):
            body = part[:-1]
            cut = max(body.rfind("+"), body.rfind("-"))
            pts.append((body[:cut], body[cut:].lstrip("+")))
        return "|".join([kind, conj_z(z), skey(conj_s(pts))])
    return None
