"""mplreg benchmark: one workload, one fresh process, one closed-loop client.

Run from the root of a checkout:

    python3 bench/run.py --workload reg-sweep --seed 1 --seconds 30 --trace 0

Each operation is sent only after the previous one has completed (no
threads, no worker processes).  Every returned value is checked against a
reference; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the per-layer
ones, from spans recorded around the package's public functions.

``--workload all`` runs every workload in turn, each in a fresh process, and
prints all their end-to-end metrics.

Timings are given in reference seconds.  On a shared host the same fixed
pure-mpmath loop runs up to twice as fast at one moment as at another, within
a minute and between runs, and that swamps the changes the benchmark is meant
to see.  So after every operation the benchmark times a short slice of fixed
pure-mpmath work, and scales every time it reports by REF_SLICE_S over the
median slice time of the run.  The program's own speed moves these figures;
the machine's speed cancels out.  The raw wall-clock figures are printed
beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import mpmath as mp  # noqa: E402

import workloads  # noqa: E402

# set-up samples per run, spread evenly between the operations
SETUP_SAMPLES = 16
# fixed pure-mpmath work: the machine record (calib_s) and the slice timed
# after every operation; REF_SLICE_S is the slice's median time on a shared
# 2-vCPU container (Python 3.11, mpmath 1.3, no gmpy2), so that reference
# seconds read close to wall seconds there
CALIB_TERMS = 30000
SLICE_TERMS = 2000
REF_SLICE_S = 0.04
# Accuracy: each value is held to an error set by its operation.  A
# regularised value must be within ACC_FACTOR times the error estimate that
# the benchmark's parent commit reported for the same value and precision
# (``seed_est`` in refs.json); a convergent value within the tolerance the
# call requested; a translation residual below its tolerance; an engine total
# within ENGINE_TOL, the default tolerance of ``mplreg verify``.  A value that
# misses its accuracy fails its operation and makes ``correct`` false.
# Honesty: a value further from the reference than its own reported estimate
# fails its operation and counts in wrong_values, but leaves ``correct`` true.
ACC_FACTOR = 100
ENGINE_TOL = "1e-12"
# One round runs every template once; at the parent commit a round takes
# about ROUND_SECONDS on a shared 2-vCPU container.  The number of rounds
# follows from --seconds alone (never from a timing), so that every commit
# does the same work, and is at most MAX_ROUNDS: a further round would repeat
# earlier operations (reg-sweep and direct have two variants per template)
# and could be served from the library's caches.
ROUND_SECONDS = 15
MAX_ROUNDS = 2
# share of --seconds spent in the traced phase of a --trace 1 run; the rest
# replays the same operations untraced in a fresh process
TRACED_SHARE = 0.5


class OpTimeLimit(Exception):
    """An operation ran past its workload's wall-time limit."""


def _on_alarm(signum, frame):
    raise OpTimeLimit("operation exceeded its wall-time limit")


def import_package():
    """Import mplreg from the checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "mplreg", "__init__.py")):
        sys.exit(f"bench: no package source at {SRC}/mplreg; "
                 "run from the root of a checkout")
    sys.path.insert(0, SRC)
    import mplreg
    import mplreg.cli

    if not os.path.abspath(mplreg.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported mplreg from {mplreg.__file__}, not {SRC}")
    return mplreg


def measure_setup() -> float:
    """Wall time for a fresh interpreter to import mplreg and its CLI."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import mplreg, mplreg.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, SRC], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def calibrate(terms: int = CALIB_TERMS) -> float:
    """A fixed pure-mpmath loop: a record of how fast the machine is now."""
    start = time.perf_counter()
    with mp.workprec(128):
        acc = mp.mpf(0)
        for n in range(1, terms):
            acc += mp.mpf(n) ** -2 * mp.log(n)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# executing and checking one operation
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, pkg, refs, workload, tracer=None):
        self.pkg = pkg
        self.refs = refs
        self.limit = workloads.TIME_LIMIT_S[workload]
        self.tracer = tracer
        self.values_ok = 0
        self.values_checked = 0
        self.wrong_values = 0
        self.inaccurate = 0
        self.unexpected = 0
        self.failures = []

    def execute(self, op, scale=1.0):
        """Run one operation under the time limit, which is given in
        reference seconds and turned into wall seconds by ``scale``
        (reference seconds per wall second), so that it allows the same
        work on a slow machine as on a fast one.

        Returns (latency seconds, outcome, raw result) where outcome is
        "ok", "time_limit", or the exception raised.
        """
        call = self._prepare(op)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit / scale)
            try:
                result = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = "ok"
        except OpTimeLimit:
            result, outcome = None, "time_limit"
        except Exception as exc:  # reported as a failed operation
            result, outcome = None, exc
        return time.perf_counter() - start, outcome, result

    def _prepare(self, op):
        from mplreg import cli, polylog, summation
        from mplreg.rootsofunity import ComplexPoint, RotationNumber, ZVector
        from mplreg.scalefun import ScaleFunction

        a = op.args
        if op.kind == "cli":
            return lambda: self._run_cli(cli, a["argv"])
        prec = op.prec

        def at_prec(fn):
            def call():
                with mp.workprec(prec):
                    return fn()
            return call

        if op.kind in ("eval_integer_point", "stieltjes_constant"):
            z = ZVector.parse(a["z"])
            if op.kind == "eval_integer_point":
                return at_prec(lambda: polylog.eval_integer_point(z, a["a"], A=a["A"]))
            return at_prec(lambda: polylog.stieltjes_constant(z, a["a"], a["k"], A=a["A"]))
        if op.kind in ("eval_convergent", "verify_translation"):
            z = ZVector.parse(a["z"])
            with mp.workprec(prec):
                s = [mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in a["s"]]
                tol = mp.mpf(a["tol"])
            if op.kind == "eval_convergent":
                return at_prec(lambda: polylog.eval_convergent(
                    z, ComplexPoint(s), tol=tol, ceiling=a["ceiling"]))
            return at_prec(lambda: polylog.verify_translation(
                z, s, M=a["M"], N=a["N"], tol=tol / 100))
        with mp.workprec(prec):
            f = ScaleFunction([(l, m, mp.mpc(re, im)) for l, m, (re, im) in a["terms"]])
        if op.kind == "euler_maclaurin":
            return at_prec(lambda: summation.euler_maclaurin(f, a["n"], a["m"]))
        zeta = RotationNumber.parse(a["zeta"])
        return at_prec(lambda: summation.gen_euler_boole(f, a["k"], zeta, a["n"], a["m"]))

    def _run_cli(self, cli, argv):
        buf = io.StringIO()
        code = 0
        saved = mp.mp.prec
        span = self.tracer.span("cli.command") if self.tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(buf), span:
                try:
                    cli.main.main(args=list(argv), prog_name="mplreg",
                                  standalone_mode=False)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
        finally:
            mp.mp.prec = saved
        if code and self.tracer:
            self.tracer.counts["cli.exit_nonzero"] += 1
        return code, buf.getvalue()

    # -- checks ---------------------------------------------------------------

    def check(self, op, outcome, result) -> bool:
        """Check an operation's outputs; True when it delivered what it should."""
        if outcome != "ok":
            typed = outcome == "time_limit" or isinstance(outcome, self.pkg.MplregError)
            if not typed:
                self.unexpected += 1
            self.failures.append(f"{op.label} @{op.prec}: "
                                 f"{outcome if outcome == 'time_limit' else type(outcome).__name__}")
            return False
        with mp.workprec(op.prec + 32):
            if op.kind == "cli":
                return self._check_cli(op, *result)
            if op.kind == "verify_translation":
                return self._count(op, "residual", result.residual,
                                   mp.mpf(op.args["tol"]), None)
            if op.kind in ("euler_maclaurin", "gen_euler_boole"):
                return self._check_engine(op, result)
            if op.kind == "stieltjes_constant":
                return self._check_value(op, op.values[0], result, None)
            return self._check_value(op, op.values[0], result.value,
                                     result.abs_error_estimate)

    def _count(self, op, what, err, target, estimate) -> bool:
        """Record one value with error ``err``: accurate when within
        ``target``, honest when within ``estimate`` (None: none reported)."""
        accurate = err <= target
        honest = estimate is None or err <= estimate
        if estimate is not None:
            self.values_checked += 1
            self.wrong_values += not honest
        self.inaccurate += not accurate
        if accurate and honest:
            self.values_ok += 1
            return True
        self.failures.append(
            f"{op.label} @{op.prec}: {what}: |error| {mp.nstr(err, 3)}, "
            f"{'' if accurate else f'beyond accuracy {mp.nstr(target, 3)}, '}"
            f"estimate {'-' if estimate is None else mp.nstr(estimate, 3)}")
        return False

    def _check_value(self, op, key, value, estimate) -> bool:
        ref = self.refs.lookup(key)
        target = (mp.mpf(op.args["tol"]) if op.kind == "eval_convergent"
                  else self.refs.seed_estimate(key, op.prec))
        if ref is None or target is None:
            self.unexpected += 1
            self.failures.append(f"{op.label}: no reference for {key}")
            return False
        want, ref_err = ref
        if op.kind != "eval_convergent":
            target *= ACC_FACTOR
        # rounding slack covers the printed decimal digits and the working
        # precision of the comparison itself; the reference's own uncertainty
        # widens both bounds
        slack = mp.mpf(2) ** (8 - op.prec) * max(1, abs(want)) + ref_err
        err = abs(mp.mpc(value) - want)
        return self._count(op, f"value for {key}", err, target + slack,
                           None if estimate is None else mp.mpf(estimate) + slack)

    def _check_engine(self, op, res) -> bool:
        a = op.args
        k = a.get("k")
        total = mp.mpc(0)
        for i in range(1, a["n"]):
            fi = mp.fsum(mp.mpc(re, im) * mp.log(i) ** l * mp.mpf(i) ** (-m)
                         for l, m, (re, im) in a["terms"])
            if k is not None:
                num = workloads.parse_root(a["zeta"]).numerator
                fi *= mp.expjpi(mp.mpf(2 * num * i) / k)
            total += fi
        slack = mp.mpf(2) ** (8 - op.prec) * max(1, abs(total))
        return self._count(op, "engine total", abs(res.total - total),
                           mp.mpf(ENGINE_TOL), res.remainder_estimate + slack)

    def _check_cli(self, op, code, out) -> bool:
        if op.expect_exit:
            try:
                obj = json.loads(out)
                good = code == op.expect_exit and "error" in obj
            except ValueError:
                good = False
            if not good:
                self.unexpected += 1
                self.failures.append(f"{op.label}: exit {code}, expected {op.expect_exit}")
            return good
        if code:
            try:
                kind = json.loads(out)["error"]["type"]
            except (ValueError, KeyError, TypeError):
                kind = "unparsable output"
            if kind != OpTimeLimit.__name__ and kind not in vars(self.pkg):
                self.unexpected += 1
            self.failures.append(f"{op.label} @{op.prec}: exit {code} ({kind})")
            return False
        good = True
        argv = op.args["argv"]
        if argv[0] == "table":
            rows = list(csv.DictReader(io.StringIO(out), delimiter=";"))
            keys = workloads.cli_value_keys(argv)
            if len(rows) != len(keys):
                self.unexpected += 1
                self.failures.append(f"{op.label}: {len(rows)} rows for {len(keys)} points")
                return False
            for row, key in zip(rows, keys):
                value = mp.mpc(mp.mpf(row["re"]), mp.mpf(row["im"]))
                good &= self._check_value(op, key, value, mp.mpf(row["abs_err"]))
            return good
        obj = json.loads(out)
        key = workloads.cli_value_keys(argv)[0]
        if argv[0] == "reg":
            v = obj["regularised_value"]
            est = obj["expansion"]["residual_bound"]
        else:
            v = obj["value"]
            est = obj["abs_error_estimate"]
        return self._check_value(op, key, mp.mpc(mp.mpf(v["re"]), mp.mpf(v["im"])),
                                 mp.mpf(est))


def values_of(op) -> int:
    if op.kind == "cli":
        return 0 if op.expect_exit else len(workloads.cli_value_keys(op.args["argv"]))
    return 1


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def rounds_for(seconds: float) -> int:
    return min(MAX_ROUNDS, max(1, round(seconds / ROUND_SECONDS)))


def operations(workload, seed, rounds=None, max_ops=None):
    """The first ``rounds`` whole rounds of operations, or the first ``max_ops``."""
    stream = workloads.operations(workload, seed)
    if max_ops is not None:
        return list(itertools.islice(stream, max_ops))
    return list(itertools.takewhile(lambda op: op.round < rounds, stream))


@dataclass
class Loop:
    """What one closed loop measured, in raw wall seconds."""

    latencies: list = field(default_factory=list)
    slices: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    ok_values: int = 0
    failed: int = 0

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over this loop so far."""
        return REF_SLICE_S / statistics.median(self.slices)


def run_loop(runner, ops, setup_samples=0):
    """Run ``ops`` one after another.  A calibration slice is timed before the
    first operation and after each one; ``setup_samples`` set-up times are
    taken at even intervals between operations."""
    loop = Loop(slices=[calibrate(SLICE_TERMS)])
    every = max(1, len(ops) // setup_samples) if setup_samples else 0
    for i, op in enumerate(ops):
        latency, outcome, result = runner.execute(op, loop.scale)
        loop.latencies.append(latency)
        if runner.check(op, outcome, result):
            loop.ok_values += values_of(op)
        else:
            loop.failed += 1
        loop.slices.append(calibrate(SLICE_TERMS))
        if every and i % every == 0 and len(loop.setups) < setup_samples:
            loop.setups.append(measure_setup())
    return loop


def quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted average of
    all order statistics.  Latencies here cluster by operation kind, and a
    single order statistic jumps between clusters as the machine's speed
    drifts; the weighted average moves smoothly instead."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    with mp.workprec(53):
        cdf = [mp.betainc(a, b, 0, mp.mpf(i) / n, regularized=True) for i in range(n + 1)]
        return float(mp.fsum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def tail_latency(latencies):
    """(value, percentile, samples beyond): the highest percentile that has
    at least ten samples beyond it; the maximum when there are fewer."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0, 0
    p = (n - 10) / n
    return quantile(latencies, p), 100.0 * p, 10


def end_to_end(args, pkg, refs):
    calib = [calibrate()]
    runner = Runner(pkg, refs, args.workload)
    loop = run_loop(runner, operations(args.workload, args.seed,
                                       rounds=rounds_for(args.seconds)),
                    setup_samples=SETUP_SAMPLES)
    calib.append(calibrate())
    raw = loop.latencies
    lat = [x * loop.scale for x in raw]
    attempted, failed = len(lat), loop.failed
    tail, pct, beyond = tail_latency(lat)
    checked = max(runner.values_checked, 1)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(loop.setups) * loop.scale, "s"),
        "evals_per_s": (loop.ok_values / sum(lat), "1/s"),
        "latency_p50_s": (quantile(lat, 0.5), "s"),
        "latency_tail_s": (tail, "s"),
        "ok_share": (1 - failed / attempted, "share"),
        "honest_share": (1 - runner.wrong_values / checked, "share"),
        "peak_rss_mb": (peak, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, "
          f"{loop.ok_values} correct values in {sum(raw):.2f} wall s, "
          f"{sum(lat):.2f} reference s (median slice {REF_SLICE_S / loop.scale:.4f} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:.6g} {unit}")
    print(f"  {'latency_tail_s':16s} is p{pct:.1f} of {attempted} operations "
          f"({beyond} beyond it)")
    print(f"  {'raw wall':16s} setup {statistics.median(loop.setups):.4g} s "
          f"({len(loop.setups)} samples), {loop.ok_values / sum(raw):.4g} values/s, "
          f"p50 {quantile(raw, 0.5):.4g} s, tail {tail_latency(raw)[0]:.4g} s")
    print(f"  {'failed_share':16s} {failed / attempted:.6g} share "
          f"({failed} of {attempted})")
    print(f"  {'wrong_values':16s} {runner.wrong_values} count "
          f"(of {runner.values_checked} with an estimate)")
    print(f"  {'inaccurate':16s} {runner.inaccurate} count (values that miss "
          f"the accuracy of their operation)")
    print(f"  {'calib_s':16s} {statistics.mean(calib):.6g} s "
          f"(start {calib[0]:.4f}, end {calib[1]:.4f})")
    for line in runner.failures[:20]:
        print(f"  failed: {line}")
    return runner, attempted, failed, metrics


def traced(args, pkg, refs):
    from tracing import Tracer

    calib = [calibrate()]
    tracer = Tracer()
    tracer.install(pkg)
    runner = Runner(pkg, refs, args.workload, tracer=tracer)
    loop = run_loop(runner, operations(args.workload, args.seed,
                                       rounds=rounds_for(args.seconds * TRACED_SHARE)))
    tracer.uninstall()
    attempted, failed = len(loop.latencies), loop.failed
    traced_wall = sum(loop.latencies)
    replay = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--replay", str(attempted)],
        check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    # both sides in reference seconds, so that the machine's speed cancels
    untraced = json.loads(replay.stdout.strip().splitlines()[-1])["op_time_s"]
    calib.append(calibrate())
    metrics = tracer.metrics(max(runner.values_ok, 1))
    layer_sum = sum(tracer.layer_self(layer) for layer in
                    ("rootsofunity", "scalefun", "eulerpoly", "summation",
                     "asymptotics", "polylog", "cli"))
    metrics["trace.self_sum_share"] = (layer_sum / traced_wall, "ratio")
    metrics["trace_overhead_share"] = (traced_wall * loop.scale / untraced - 1, "ratio")
    metrics["calib_s"] = (statistics.mean(calib), "s")
    write_spans(tracer, args)
    print(f"workload {args.workload} seed {args.seed} (traced): {attempted} operations, "
          f"traced {traced_wall:.2f} wall s, {traced_wall * loop.scale:.2f} reference s; "
          f"untraced {untraced:.2f} reference s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    for line in runner.failures[:20]:
        print(f"  failed: {line}")
    return runner, attempted, failed, metrics


def write_spans(tracer, args):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for sid, parent, name, start, end in tracer.spans:
            handle.write(json.dumps([sid, parent, name, round(start, 7), round(end, 7)]) + "\n")
    print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}"
          f" ({tracer.dropped} dropped)")


def run_all(args):
    """Every workload in its own fresh process; end-to-end metrics only."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdin=subprocess.DEVNULL, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    pkg = import_package()
    from refs import References

    refs = References()
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.replay is not None:
        loop = run_loop(Runner(pkg, refs, args.workload),
                        operations(args.workload, args.seed, max_ops=args.replay))
        print(json.dumps({"op_time_s": sum(loop.latencies) * loop.scale,
                          "ops": len(loop.latencies)}))
        return 0

    runner, attempted, failed, metrics = (traced if args.trace else end_to_end)(args, pkg, refs)
    correct = runner.inaccurate == 0 and runner.unexpected == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
