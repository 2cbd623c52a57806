"""Workload definitions: fixed operation templates and their seeded instances.

A workload is a list of templates.  A run is made of whole rounds; each
round runs every template once, in a seed-shuffled order, at 128 bits for
half of the templates and at 256 bits for the other half (the halves swap
from one round to the next, so two rounds run every template at both
precisions).  The seed also picks, per template and round, a variant that
costs the same as the template: the complex conjugate for ``reg-sweep`` and
``direct``, and a Galois conjugate z -> z^u (u a unit mod the order) for
``reg-high-order``.  Every run of a given length thus does the same mix of
work whatever its seed, which keeps the figures of different seeds
comparable.

Every value an operation returns has a reference in ``refs.json`` (keyed by
``reg_key`` or ``conv_key``) or is checked by the harness against an
independent brute sum or identity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

PRECISIONS = (128, 256)

# Per-operation time limits, in the reference seconds of bench/run.py (wall
# seconds scaled by the machine's measured speed).  ``direct`` keeps the
# points on which the convergent route is known to fail; the limit bounds
# what each of them costs, and hitting it counts as a failure.
TIME_LIMIT_S = {"reg-sweep": 20.0, "reg-high-order": 20.0, "direct": 2.5}

# Cutoff ceiling passed to eval_convergent on ``direct``.
DIRECT_CEILING = 2 * 10**5
DIRECT_TOL = "1e-10"
TRANSLATION_TOL = "1e-12"


@dataclass
class Op:
    """One closed-loop request: a CLI invocation or one library call."""

    kind: str                 # "cli" or the library function name
    args: dict                # cli: {"argv": [...]}; library: call arguments
    prec: int
    round: int = 0
    expect_exit: int = 0      # cli only: documented exit code
    label: str = ""
    values: list = field(default_factory=list)  # value keys, library calls


# ---------------------------------------------------------------------------
# exact root-of-unity text helpers (kept apart from the library's parser so
# that the harness can build references without importing the package)
# ---------------------------------------------------------------------------


def parse_root(text: str) -> Fraction:
    """Rotation number p/q mod 1 of a root of unity written as '1', '-1' or 'p/q'."""
    text = text.strip()
    if text == "1":
        return Fraction(0)
    if text == "-1":
        return Fraction(1, 2)
    return Fraction(text) % 1


def root_text(frac: Fraction) -> str:
    frac = frac % 1
    return f"{frac.numerator}/{frac.denominator}"


def zkey(ztext: str) -> str:
    return ",".join(root_text(parse_root(t)) for t in ztext.split(","))


def conj_z(ztext: str) -> str:
    return ",".join(root_text(-parse_root(t)) for t in ztext.split(","))


def galois_z(ztext: str, unit: int) -> str:
    return ",".join(root_text(parse_root(t) * unit) for t in ztext.split(","))


def z_order(ztext: str) -> int:
    order = 1
    for t in ztext.split(","):
        q = parse_root(t).denominator
        order = order * q // math.gcd(order, q)
    return order


def neg_text(x: str) -> str:
    if x in ("0", "-0"):
        return "0"
    return x[1:] if x.startswith("-") else "-" + x


def skey(s) -> str:
    """Key text of a complex point given as [(re, im), ...] decimal strings."""
    return ",".join(f"{re}{'+' if not im.startswith('-') else ''}{im}i"
                    for re, im in s)


def conj_s(s):
    return [(re, neg_text(im)) for re, im in s]


def reg_key(ztext: str, a, k) -> str:
    return f"reg|{zkey(ztext)}|{','.join(map(str, a))}|{','.join(map(str, k))}"


def conv_key(ztext: str, s) -> str:
    return f"conv|{zkey(ztext)}|{skey(s)}"


# ---------------------------------------------------------------------------
# reg-sweep: grid sweeps through the CLI, z of order <= 6, depth 1-3
# ---------------------------------------------------------------------------

# (argv after the command name, expected exit code); the first -z value is
# conjugated by the seed.  Each grid shares one z; grids include log powers
# and integer points outside V_r(z).
REG_SWEEP = [
    (["table", "-z", "-1", "-a", "-1..2"], 0),
    (["table", "-z", "1/3", "-a", "0..2", "-k", "1"], 0),
    (["table", "-z", "1/4", "-a", "-1..1"], 0),
    (["table", "-z", "1", "-a", "1..3", "-k", "1"], 0),
    (["table", "-z", "1/5", "-a", "1..2"], 0),
    (["reg", "-z", "1/6", "-a", "1", "-k", "2"], 0),
    (["eval", "-z", "1", "-a", "2"], 0),
    (["eval", "-z", "2/3", "-a", "1"], 0),
    (["table", "-z", "1,-1", "-a", "2..3,-1..1"], 0),
    (["reg", "-z", "1,-1", "-a", "2,-2"], 0),
    (["table", "-z", "1/3,2/3", "-a", "2,-1..0", "-k", "1,0"], 0),
    (["table", "-z", "5/6,5/6", "-a", "2..3,0"], 0),
    (["eval", "-z", "-1,1/6", "-a", "3,1"], 0),
    (["reg", "-z", "1/4,1/4", "-a", "3,2", "-k", "1,0"], 0),
    (["eval", "-z", "2/3,2/3", "-a", "2,3"], 0),
    (["eval", "-z", "-1,1,-1", "-a", "1,1,0", "-A", "4"], 0),
    (["table", "-z", "1,-1,2/3", "-a", "3,-1,2..3", "-k", "1,0,0"], 0),
    (["reg", "-z", "3/4,3/4,3/4", "-a", "3,2,3", "-k", "1,0,0"], 0),
    (["eval", "-z", "2/3,-1,1/4", "-a", "3,2,1"], 0),
    (["reg", "-z", "2/3,1,-1", "-a", "2,2,-1", "-k", "0,0,1"], 0),
    (["table", "-z", "2/5", "-a", "-1..2"], 0),
    (["table", "-z", "1/6", "-a", "0..3"], 0),
    (["reg", "-z", "1/3", "-a", "-2", "-k", "1"], 0),
    (["table", "-z", "3/4", "-a", "1..2", "-k", "2"], 0),
    (["table", "-z", "-1,-1", "-a", "2..3,1..2"], 0),
    (["table", "-z", "1/4,-1", "-a", "2,-1..1"], 0),
    (["reg", "-z", "1/5,2/5", "-a", "2,1"], 0),
    (["eval", "-z", "1/3,1/6", "-a", "2,2"], 0),
    (["table", "-z", "1,1/3", "-a", "2..3,1"], 0),
    (["reg", "-z", "1/6,3/4,5/6", "-a", "3,2,1"], 0),
    (["eval", "-z", "1,1/3,1/4", "-a", "2,0,3"], 0),
    (["table", "-z", "-1,-1,1", "-a", "2,1,2..3"], 0),
    (["table", "-z", "1/6,1/6", "-a", "3,-1..0", "-k", "1,0"], 0),
    (["eval", "-z", "5/6,-1", "-a", "2,1"], 0),
    (["table", "-z", "1/4,1/4", "-a", "2,1..2", "-k", "1,1"], 0),
    (["reg", "-z", "1/3,-1", "-a", "1,-1", "-k", "1,1"], 0),
    # error path: documented exit code plus a JSON error object
    (["eval", "-z", "1", "-a", "1"], 2),          # outside V_r(z) and U_r(z)
    (["eval", "-z", "1,1", "-a", "1,1"], 2),
    (["eval", "-z", "1/0", "-a", "1"], 1),        # malformed -z
    (["table", "-z", "-1,x", "-a", "1..2,1"], 1),
]


# expansion order of the CLI when no -A is given
CLI_DEFAULT_A = 6


def _conj_argv(argv):
    """The request with its -z conjugated; malformed -z text is left as is."""
    out = list(argv)
    i = out.index("-z") + 1
    try:
        out[i] = conj_z(out[i])
    except (ValueError, ZeroDivisionError):
        pass
    return out


def _reg_sweep_instance(template, conj: bool, prec: int) -> Op:
    argv, code = template
    argv = _conj_argv(argv) if conj else list(argv)
    return Op("cli", {"argv": argv + ["--prec", str(prec)]}, prec,
              expect_exit=code, label=" ".join(argv))


# ---------------------------------------------------------------------------
# reg-high-order: library calls on distinct z of order 7-31, depth 1-2
# ---------------------------------------------------------------------------

# (function, z with p = 1, a, k).  The seed maps z -> z^u for a unit u mod
# the order of z, so every call sees a z not used before in the run (the
# Galois orbit is large enough for the rounds a run reaches).  Depth-2 pairs
# share a denominator, so their product character stays of order <= 31.
REG_HIGH_ORDER = [
    ("eval_integer_point", "1/7", (1,), (0,)),
    ("eval_integer_point", "1/9", (2,), (0,)),
    ("eval_integer_point", "1/11", (1,), (0,)),
    ("eval_integer_point", "1/13", (1,), (0,)),
    ("eval_integer_point", "1/16", (2,), (0,)),
    ("eval_integer_point", "1/19", (1,), (0,)),
    ("eval_integer_point", "1/23", (1,), (0,)),
    ("eval_integer_point", "1/31", (1,), (0,)),
    ("stieltjes_constant", "1/8", (1,), (1,)),
    ("stieltjes_constant", "1/12", (0,), (1,)),
    ("stieltjes_constant", "1/17", (1,), (1,)),
    ("stieltjes_constant", "1/25", (-1,), (0,)),
    ("stieltjes_constant", "1/14", (2,), (2,)),
    ("eval_integer_point", "1/7,2/7", (2, 1), (0, 0)),
    ("eval_integer_point", "1/8,3/8", (2, 1), (0, 0)),
    ("eval_integer_point", "1/9,2/9", (2, 1), (0, 0)),
    ("eval_integer_point", "1/10,3/10", (2, 1), (0, 0)),
    ("eval_integer_point", "1/12,5/12", (2, 1), (0, 0)),
]
HIGH_ORDER_A = 4


def units(q: int):
    return [u for u in range(1, q) if math.gcd(u, q) == 1] or [1]


def _high_order_instance(template, unit: int, prec: int) -> Op:
    fn, z, a, k = template
    zt = galois_z(z, unit)
    args = {"z": zt, "a": a, "A": HIGH_ORDER_A}
    if fn == "stieltjes_constant":
        args["k"] = k
    return Op(fn, args, prec, label=f"{fn} z=({zt}) a={a} k={k}",
              values=[reg_key(zt, a, k)])


# ---------------------------------------------------------------------------
# direct: convergent route, translation identities, summation engines
# ---------------------------------------------------------------------------

# eval_convergent at non-integer and complex s inside U_r(z)
DIRECT_CONVERGENT = [
    ("-1", [("0.5", "0")]),
    ("-1", [("0.3", "1")]),
    ("1/4", [("0.6", "0")]),
    ("1/4", [("0.4", "0.5")]),
    ("-1,1", [("1.5", "0"), ("0.5", "0")]),
    ("-1,1/3", [("1.5", "0"), ("1", "0")]),
    # known failures of the convergent route for roots of order 3, 5, 6
    # and at depth 2; they stay in the mix until the route is fixed
    ("1/3", [("0.5", "0")]),
    ("1/6", [("1", "0")]),
    ("1/5", [("0.7", "0")]),
    ("-1,-1", [("0.7", "0"), ("0.6", "0")]),
]

# verify_translation with complex s (M = 50, N = 12)
DIRECT_TRANSLATION = [
    ("-1", [("0.5", "1")]),
    ("1/3", [("1.2", "-0.7")]),
    ("1/3,2/3", [("1.5", "0.5"), ("0.8", "0")]),
    ("1/4,1/6", [("2", "0"), ("0.6", "0.4")]),
    ("1/4,1/6,-1", [("2", "0"), ("1", "1"), ("0.5", "0")]),
    ("1/6", [("0.9", "0.3")]),
    ("-1,1/4", [("1.5", "-1"), ("0.7", "0")]),
    ("1/5", [("2", "0.5")]),
    ("1/3,1/3", [("1.1", "0"), ("0.9", "0.2")]),
    ("1/4,-1,1/3", [("1.5", "0"), ("1", "0.5"), ("0.8", "0")]),
]

# summation-engine trials, as in ``mplreg verify``: each trial runs both
# engines on one f against brute sums, with verify's ranges (1-3 terms
# log^l(n) n^-m, l <= 2, m <= 3; n in 8..50; m in 2..6; k in 2..5).
# (f's (l, m) shape, n, m, k); the seed draws the complex coefficients of f
# and the numerator of zeta.
DIRECT_ENGINES = [
    ([(0, 2), (1, 3)], 40, 4, 3),
    ([(2, 1), (0, 3)], 30, 6, 4),
    ([(0, 1), (1, 2)], 45, 4, 5),
    ([(1, 1)], 30, 5, 4),
    ([(0, 2), (2, 3)], 50, 6, 5),
    ([(0, 1), (0, 3), (1, 0)], 20, 3, 2),
    ([(0, 3)], 25, 2, 3),
    ([(1, 2), (2, 2)], 35, 5, 2),
    ([(0, 0), (1, 3)], 12, 4, 5),
    ([(2, 0)], 16, 3, 3),
]


def _direct_instances(template, conj: bool, prec: int, rng: random.Random):
    kind, body = template
    if kind == "eval_convergent":
        z, s = body
        if conj:
            z, s = conj_z(z), conj_s(s)
        return [Op(kind, {"z": z, "s": s, "tol": DIRECT_TOL,
                          "ceiling": DIRECT_CEILING}, prec,
                   label=f"eval_convergent z=({zkey(z)}) s=({skey(s)})",
                   values=[conv_key(z, s)])]
    if kind == "verify_translation":
        z, s = body
        if conj:
            z, s = conj_z(z), conj_s(s)
        return [Op(kind, {"z": z, "s": s, "M": 50, "N": 12,
                          "tol": TRANSLATION_TOL}, prec,
                   label=f"verify_translation z=({zkey(z)}) s=({skey(s)})")]
    shape, n, m, k = body
    terms = [(l, mm, (round(rng.uniform(-2, 2), 3), round(rng.uniform(-1, 1), 3)))
             for l, mm in shape]
    zeta = root_text(Fraction(rng.choice(units(k)), k))
    return [Op("euler_maclaurin", {"terms": terms, "n": n, "m": m}, prec,
               label=f"euler_maclaurin n={n} m={m}"),
            Op("gen_euler_boole", {"terms": terms, "n": n, "m": m, "k": k,
                                   "zeta": zeta}, prec,
               label=f"gen_euler_boole n={n} m={m} k={k}")]


# Shares of a ``direct`` round: the verification part mirrors the defaults of
# ``mplreg verify`` (10 translation trials, 10 summation trials of two engine
# calls each: 10 + 20 calls); the 10 convergent evaluations, one per
# translation trial, are a chosen weight, not measured traffic.  So a round
# is 25% eval_convergent, 25% verify_translation and 50% engine calls.
DIRECT = ([("eval_convergent", t) for t in DIRECT_CONVERGENT]
          + [("verify_translation", t) for t in DIRECT_TRANSLATION]
          + [("engines", t) for t in DIRECT_ENGINES])

WORKLOADS = {
    "reg-sweep": REG_SWEEP,
    "reg-high-order": REG_HIGH_ORDER,
    "direct": DIRECT,
}


def operations(workload: str, seed: int):
    """Endless seeded stream of operations for ``workload``."""
    templates = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    # per template: a seeded cycle through its cost-neutral variants
    variants = []
    for t in templates:
        if workload == "reg-high-order":
            # conjugate pairs u, q - u back to back: a round pair then costs
            # the same whichever pair the seed draws first
            q = z_order(t[1])
            pairs = [u for u in units(q) if u < q - u]
            rng.shuffle(pairs)
            cycle = [v for u in pairs for v in (u, q - u)]
        else:
            cycle = [False, True]
            rng.shuffle(cycle)
        variants.append(cycle)
    flip = rng.randrange(2)
    rnd = 0
    while True:
        order = list(range(len(templates)))
        rng.shuffle(order)
        for i in order:
            prec = PRECISIONS[(i + rnd + flip) % 2]
            variant = variants[i][rnd % len(variants[i])]
            t = templates[i]
            if workload == "reg-sweep":
                ops = [_reg_sweep_instance(t, variant, prec)]
            elif workload == "reg-high-order":
                ops = [_high_order_instance(t, variant, prec)]
            else:
                ops = _direct_instances(t, variant, prec, rng)
            for op in ops:
                op.round = rnd
                yield op
        rnd += 1


def reference_keys():
    """Every value key any seed can produce; convergent-route keys map to
    their (z, s), regularised-value keys (which spell out z, a, k) to the
    expansion order their operation uses."""
    keys = {}
    for argv, code in REG_SWEEP:
        if code:
            continue
        order = int(dict(zip(argv[1::2], argv[2::2])).get("-A", CLI_DEFAULT_A))
        for conj in (False, True):
            for key in cli_value_keys(_conj_argv(argv) if conj else argv):
                keys[key] = order
    for t in REG_HIGH_ORDER:
        for u in units(z_order(t[1])):
            keys[_high_order_instance(t, u, 128).values[0]] = HIGH_ORDER_A
    for z, s in DIRECT_CONVERGENT:
        keys[conv_key(z, s)] = (z, s)
    return keys


def _expand_range(text):
    out = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = part.split("..")
            out.append(list(range(int(lo), int(hi) + 1)))
        else:
            out.append([int(part)])
    return out


def cli_value_keys(argv):
    """Value keys of a CLI request that is expected to succeed."""
    import itertools

    opts = dict(zip(argv[1::2], argv[2::2]))
    z = opts["-z"]
    depth = len(z.split(","))
    k = tuple(int(x) for x in opts["-k"].split(",")) if "-k" in opts else (0,) * depth
    if argv[0] == "table":
        return [reg_key(z, a, k) for a in itertools.product(*_expand_range(opts["-a"]))]
    a = tuple(int(x) for x in opts["-a"].split(","))
    return [reg_key(z, a, k)]
