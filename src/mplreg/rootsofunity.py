"""Exact arithmetic on roots of unity and convergence-domain combinatorics.

A root of unity e^{2*pi*i*p/q} is stored as the reduced fraction p/q mod 1,
so that products, powers and equality with 1 are exact.  On top of that
sit the combinatorial quantities attached to a tuple z = (z_1, ..., z_r):
the first index q(z) whose prefix product differs from 1, the index sets
I_j(z) and counts Q_j(z) built from the products z_i * ... * z_j, and the
three open domains

    U_r     : Re(s_1 + ... + s_i) > i            for all i,
    U_r(z)  : > i for i < q(z), > i - 1 for i >= q(z),
    V_r(z)  : > Q_i(z)                           for all i,

together with the candidate singular-hyperplane list of the meromorphic
continuation.  Membership tests are strict (all three sets are open).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from operator import mul

import mpmath as mp
from mpmath.libmp import from_rational, mpf_cos_sin_pi, round_nearest

from .errors import DomainError

__all__ = [
    "RotationNumber",
    "ZVector",
    "ComplexPoint",
    "Hyperplane",
    "ONE",
    "MINUS_ONE",
    "rotation_product",
    "first_nontrivial_prefix",
    "index_set_and_count",
    "contains",
    "singular_hyperplanes",
]


class RotationNumber:
    """A root of unity e^{2*pi*i*p/q}, stored as the reduced rational p/q mod 1.

    The group law is multiplication of the complex values, i.e. addition of
    the fractions mod 1.  Instances are immutable and hashed once; p and q
    are ints, and a ``Fraction`` is made only when ``fraction`` is read.
    """

    __slots__ = ("_p", "_q", "_hash")

    def __init__(self, numerator, denominator=1):
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("rotation numbers are exact: pass ints or a Fraction")
        if not (isinstance(numerator, int) and isinstance(denominator, int) and denominator):
            frac = Fraction(numerator, denominator)
            numerator, denominator = frac.numerator, frac.denominator
        g = math.gcd(numerator, denominator) * (-1 if denominator < 0 else 1)
        self._p, self._q = numerator // g % (denominator // g), denominator // g
        self._hash = hash((self._p, self._q))

    @classmethod
    def parse(cls, text: str) -> "RotationNumber":
        """Parse "p/q" (meaning e^{2*pi*i*p/q}); "1" and "-1" are aliases."""
        text = text.strip()
        if text == "1":
            return cls(0, 1)
        if text == "-1":
            return cls(1, 2)
        try:
            if "/" in text:
                p_str, q_str = text.split("/")
                return cls(int(p_str), int(q_str))
            return cls(int(text), 1)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse root of unity {text!r}: {exc}") from None

    @property
    def numerator(self) -> int:
        return self._p

    @property
    def denominator(self) -> int:
        return self._q

    @property
    def fraction(self) -> Fraction:
        return Fraction(self._p, self._q)

    @property
    def order(self) -> int:
        """Multiplicative order; equals the reduced denominator."""
        return self._q

    def is_one(self) -> bool:
        return not self._p

    def __mul__(self, other: "RotationNumber") -> "RotationNumber":
        return RotationNumber(self._p * other._q + other._p * self._q, self._q * other._q)

    def __pow__(self, exponent: int) -> "RotationNumber":
        return RotationNumber(self._p * exponent, self._q)

    def value(self) -> mp.mpc:
        """The complex value at the working precision, one cos/sin of pi 2p/q
        (2p/q at prec + 20 + bit_length(q) bits; exact at 1, -1 and +-i)."""
        prec, q = mp.mp.prec, self._q
        x = from_rational(2 * self._p, q, prec + 20 + q.bit_length(), round_nearest)
        return mp.make_mpc(mpf_cos_sin_pi(x, prec, round_nearest))

    def power_values(self) -> tuple:
        """(zeta^0, ..., zeta^(q-1)) at the current precision (zeta^n cycles)."""
        return _power_values(self, mp.mp.prec)

    def __eq__(self, other) -> bool:
        return isinstance(other, RotationNumber) and self._p == other._p and self._q == other._q

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        return f"{self._p}/{self._q}"

    def __repr__(self) -> str:
        return f"RotationNumber({self._p}, {self._q})"


@lru_cache(maxsize=4096)
def _power_values(xi: RotationNumber, prec: int) -> tuple:
    with mp.workprec(prec):
        return tuple((xi ** a).value() for a in range(xi.order))


ONE = RotationNumber(0, 1)
MINUS_ONE = RotationNumber(1, 2)


class ZVector:
    """An ordered tuple (z_1, ..., z_r) of roots of unity, r >= 1."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("ZVector needs at least one entry")
        if not all(isinstance(z, RotationNumber) for z in entries):
            raise TypeError("ZVector entries must be RotationNumber")
        self._entries = entries

    @classmethod
    def parse(cls, text: str) -> "ZVector":
        return cls(RotationNumber.parse(part) for part in text.split(","))

    @property
    def entries(self) -> tuple:
        return self._entries

    @property
    def r(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i):
        return self._entries[i]

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, ZVector) and self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __str__(self) -> str:
        return ",".join(str(z) for z in self._entries)

    def __repr__(self) -> str:
        return f"ZVector.parse({str(self)!r})"


class ComplexPoint:
    """A point (s_1, ..., s_r) with mpmath complex coordinates."""

    __slots__ = ("_coords",)

    def __init__(self, coords):
        self._coords = tuple(mp.mpc(c) for c in coords)

    @classmethod
    def parse(cls, text: str) -> "ComplexPoint":
        return cls(parse_complex(part) for part in text.split(","))

    @property
    def coords(self) -> tuple:
        return self._coords

    def __len__(self):
        return len(self._coords)

    def __getitem__(self, i):
        return self._coords[i]

    def __iter__(self):
        return iter(self._coords)

    def __repr__(self):
        return f"ComplexPoint({[mp.nstr(c, 10) for c in self._coords]})"


def parse_complex(text: str) -> mp.mpc:
    """Parse "a", "a+bi" or "a-bi" with decimal real parts."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty complex literal")
    if text.endswith("i") or text.endswith("j"):
        body = text[:-1]
        # split into real and imaginary at the last sign that is not an exponent sign
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                re_part, im_part = body[:pos], body[pos:]
                break
        else:
            re_part, im_part = "0", body
        if im_part in ("", "+", "-"):
            im_part += "1"
        return mp.mpc(mp.mpf(re_part), mp.mpf(im_part))
    return mp.mpc(mp.mpf(text))


def _coords(s) -> tuple:
    """s as mpc coordinates, every route's one reading: DomainError if one
    is infinite or NaN."""
    coords = s.coords if isinstance(s, ComplexPoint) else tuple(
        map(mp.mpc, s if isinstance(s, (list, tuple)) else (s,)))
    if not all(map(mp.isfinite, coords)):
        raise DomainError("a coordinate is not finite: " + ", ".join(map(mp.nstr, coords)))
    return coords


def rotation_product(z: ZVector, i: int, j: int) -> RotationNumber:
    """Exact product z_i * ... * z_j in Q/Z; indices are 1-based, i <= j."""
    if not (1 <= i <= j <= z.r):
        raise IndexError(f"need 1 <= i <= j <= {z.r}, got i={i}, j={j}")
    return reduce(mul, z.entries[i - 1:j], ONE)


def first_nontrivial_prefix(z: ZVector) -> int:
    """Smallest i with z_1 * ... * z_i != 1, or r + 1 when every prefix is 1."""
    return next((i for i, p in enumerate(accumulate(z, mul), 1) if not p.is_one()), z.r + 1)


def index_set_and_count(z: ZVector, j: int):
    """I_j(z) = {i <= j : z_i * ... * z_j = 1} and Q_j(z) = |I_j(z)|."""
    if not (1 <= j <= z.r):
        raise IndexError(f"need 1 <= j <= {z.r}, got j={j}")
    # walk i downward from j so each suffix product is one more factor
    suffixes = accumulate(reversed(z.entries[:j]), mul)
    members = tuple(reversed([j - t for t, p in enumerate(suffixes) if p.is_one()]))
    return members, len(members)


def _domain_flags(z: ZVector, s) -> dict:
    """Strict membership of s in U_r ("Ur"), U_r(z) ("Urz") and V_r(z)
    ("Vrz"), in one pass over the prefix products p_i = z_1 ... z_i,
    p_0 = 1: Q_i(z) counts the t < i with p_t = p_i, and i < q(z) while
    p_1 = ... = p_i = 1."""
    coords = _coords(s)
    if len(coords) != z.r:
        raise DomainError(f"point has {len(coords)} coordinates, z has depth {z.r}")
    flags, prefixes, running = dict.fromkeys(("Ur", "Urz", "Vrz"), True), [ONE], mp.mpf(0)
    for i, (zi, c) in enumerate(zip(z, coords), start=1):
        prefixes.append(prefixes[-1] * zi)
        running += c.real
        urz = i if all(p.is_one() for p in prefixes) else i - 1
        for kind, bound in (("Ur", i), ("Urz", urz), ("Vrz", prefixes[:-1].count(prefixes[-1]))):
            flags[kind] = flags[kind] and running > bound
    return flags


def contains(domain_kind: str, z: ZVector, s) -> bool:
    """Strict membership of s in U_r ("Ur"), U_r(z) ("Urz") or V_r(z) ("Vrz")."""
    flags = _domain_flags(z, s)
    if domain_kind not in flags:
        raise ValueError(f"unknown domain kind {domain_kind!r}")
    return flags[domain_kind]


@dataclass(frozen=True)
class Hyperplane:
    """A candidate singular hyperplane s_1 + ... + s_{index_sum} = level.

    ``levels`` is ("eq", 1) for the single plane s_1 = 1, or ("le", j) for
    the family with every integer level n <= j admissible.
    """

    index_sum: int
    levels: tuple

    def describe(self) -> str:
        lhs = "s_1" if self.index_sum == 1 else f"s_1+...+s_{self.index_sum}"
        if self.levels[0] == "eq":
            return f"{lhs} = {self.levels[1]}"
        return f"{lhs} = n for all integers n <= {self.levels[1]}"

    def to_json_obj(self) -> dict:
        return {"index_sum": self.index_sum,
                "levels": {"kind": self.levels[0], "bound": self.levels[1]},
                "text": self.describe()}


def singular_hyperplanes(z: ZVector) -> list:
    """Candidate singular hyperplanes of the continued multiple Dirichlet series.

    Empty when no prefix product equals 1 (the function is then entire).
    Genuineness of each listed singularity is not decided here.
    """
    trivial = [i for i in range(1, z.r + 1)
               if rotation_product(z, 1, i).is_one()]
    if not trivial:
        return []
    planes = []
    if trivial[0] == 1:
        planes.append(Hyperplane(index_sum=1, levels=("eq", 1)))
        start_j = 2
    else:
        start_j = 1
    for j in range(start_j, len(trivial) + 1):
        planes.append(Hyperplane(index_sum=trivial[j - 1], levels=("le", j)))
    return planes
