import contextlib
import csv
import io
import json
import pathlib
from typing import NamedTuple

import mpmath as mp
import pytest

from mplreg.cli import CSV_COLUMNS, main

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench"


class Result(NamedTuple):
    exit_code: int
    output: str


def invoke(args):
    """Run one command line as bench/run.py does: stdout and the SystemExit
    code (0 when the command returns)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            main.main(args=list(args), prog_name="mplreg", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return Result(code, buf.getvalue())


class TestDomain:
    def test_v_minus_u_example(self):
        res = invoke(["domain", "-z", "1,-1", "-s", "2,-1"])
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["membership"] == {"Ur": False, "Urz": False, "Vrz": True}
        assert obj["q"] == 2
        assert obj["Q"] == [1, 0]

    def test_hyperplane_family(self):
        res = invoke(["domain", "-z", "1/3,1/3,1/3"])
        obj = json.loads(res.output)
        assert obj["hyperplanes"] == [
            {"index_sum": 3, "levels": {"kind": "le", "bound": 1},
             "text": "s_1+...+s_3 = n for all integers n <= 1"}]

    def test_point_in_urz(self):
        res = invoke(["domain", "-z", "-1", "-s", "1"])
        obj = json.loads(res.output)
        assert obj["membership"]["Urz"] is True

    @pytest.mark.parametrize("command", ["domain", "eval"])
    @pytest.mark.parametrize("s", ["inf", "nan", "1+infi"])
    def test_non_finite_point_exits_2(self, command, s):
        res = invoke([command, "-z", "-1", "-s", s])
        assert res.exit_code == 2
        assert json.loads(res.output)["error"]["type"] == "DomainError"

    def test_parse_error_is_json_with_exit_1(self):
        res = invoke(["domain", "-z", "1/x"])
        assert res.exit_code == 1
        obj = json.loads(res.output)
        assert "error" in obj


class TestEval:
    def test_integer_point_value(self):
        res = invoke(["eval", "-z", "1,-1", "-a", "2,-1"])
        assert res.exit_code == 0
        obj = json.loads(res.output)
        got = mp.mpf(obj["value"]["re"])
        want = mp.log(2) / 2 - mp.pi ** 2 / 16
        assert abs(got - want) < mp.mpf("1e-10")
        assert mp.mpf(obj["abs_error_estimate"]) < mp.mpf("1e-10")
        assert obj["method"] == "regularised"

    def test_convergent_dispatch_for_s(self):
        res = invoke(["eval", "-z", "-1", "-s", "0.5", "--tol", "1e-10"])
        obj = json.loads(res.output)
        assert obj["method"] == "convergent"

    def test_domain_error_exit_code(self):
        res = invoke(["eval", "-z", "1", "-s", "0.5"])
        assert res.exit_code == 2
        assert "error" in json.loads(res.output)
        # an integer point outside V_r(z) goes to the regularised route,
        # which names V_r(z)
        res = invoke(["eval", "-z", "1", "-a", "1"])
        assert res.exit_code == 2
        error = json.loads(res.output)["error"]
        assert error["type"] == "DomainError"
        assert "V_r(z)" in error["message"]
        # the domain is checked before the tolerance
        res = invoke(["eval", "-z", "1", "-s", "0.5", "--tol", "1e-40"])
        assert res.exit_code == 2
        assert json.loads(res.output)["error"]["type"] == "DomainError"

    def test_tol_reaches_integer_points(self):
        # an explicit --tol goes to constant matching; 1e-40 is below the
        # precision floor 2^-108 at 128 bits
        res = invoke(["eval", "-z", "1,-1", "-a", "2,-1",
                      "--tol", "1e-40", "--prec", "128"])
        assert res.exit_code == 4
        assert json.loads(res.output)["error"]["type"] == "PrecisionError"

    def test_tol_below_the_floor_fails_before_summing(self, monkeypatch):
        # the convergent route reads --tol by the same rule: exit 4 at once
        # rather than summing to the ceiling
        import mplreg.polylog as polylog_mod

        def no_sums(*args):
            raise AssertionError("a term was summed")

        monkeypatch.setattr(polylog_mod, "nested_sums", no_sums)
        res = invoke(["eval", "-z", "-1", "-s", "0.5", "--tol", "1e-40"])
        assert res.exit_code == 4
        error = json.loads(res.output)["error"]
        assert error["type"] == "PrecisionError"
        assert "1.0e-40" in error["message"]

    def test_nonconvergence_exit_code(self):
        # the operator series settles -1 at s = 0.2 at cutoff 64, while order
        # 4,001 needs cutoff 16,384, past the ceiling: failure class 3
        res = invoke(["eval", "-z", "-1", "-s", "0.2",
                      "--tol", "1e-30", "--ceiling", "1000"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["diagnostics"]["cutoff"] == 64
        res = invoke(["eval", "-z", "1/4001", "-s", "1.5",
                      "--tol", "1e-10", "--ceiling", "1000"])
        assert res.exit_code == 3
        assert json.loads(res.output)["error"]["type"] == "NonConvergenceError"

    def test_precision_failure_exit_code(self, monkeypatch):
        import mplreg.cli as climod
        from mplreg.errors import PrecisionError

        def boom(*args, **kwargs):
            raise PrecisionError("forced")

        monkeypatch.setattr(climod, "depth_expansion", boom)
        res = invoke(["reg", "-z", "-1", "-a", "0"])
        assert res.exit_code == 4
        assert json.loads(res.output)["error"]["type"] == "PrecisionError"

    def test_requires_exactly_one_point(self):
        res = invoke(["eval", "-z", "-1"])
        assert res.exit_code == 1


class TestErrorPath:
    def test_keyboard_interrupt_propagates(self, monkeypatch, capsys):
        # Ctrl-C is not a failed command: KeyboardInterrupt itself reaches
        # the caller, with no JSON error object and no exit 1
        import mplreg.cli as climod

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(climod, "depth_expansion", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main.main(["reg", "-z", "-1", "-a", "0"], standalone_mode=False)
        assert "error" not in capsys.readouterr().out

    def test_unwritable_out_keeps_stdout_json(self, tmp_path):
        # the failure is writing --out itself: stdout still carries exactly
        # one JSON error object, and the command exits 1
        res = invoke(["euler-poly", "3", "2", "--out",
                      str(tmp_path / "missing" / "x.json")])
        assert res.exit_code == 1
        assert json.loads(res.output)["error"]["type"] == "FileNotFoundError"


class TestReg:
    def test_log_alternating(self):
        res = invoke(["reg", "-z", "-1", "-a", "0", "-k", "1"])
        assert res.exit_code == 0
        obj = json.loads(res.output)
        got = mp.mpf(obj["regularised_value"]["re"])
        assert abs(got - mp.log(mp.pi / 2) / 2) < mp.mpf("1e-12")
        assert obj["expansion"]["precision"] == 6

    def test_expansion_roundtrip_bit_for_bit(self):
        from mplreg.asymptotics import fmt_real

        res = invoke(["reg", "-z", "1,-1", "-a", "2,-2"])
        obj = json.loads(res.output)
        assert obj["expansion"]["terms"]
        for t in obj["expansion"]["terms"]:
            for part in ("re", "im"):
                assert fmt_real(mp.mpf(t[part])) == t[part]


class TestVerify:
    def test_translation_suite_passes(self):
        res = invoke(["verify", "--suite", "translation",
                      "--trials", "6", "--tol", "1e-10"])
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["failures"] == 0
        assert obj["trials"] == 6

    def test_default_tolerance_follows_the_precision(self):
        # a fixed 1e-12 would lie below the precision floor 2^-33 at 53 bits
        res = invoke(["verify", "--prec", "53", "--trials", "3"])
        assert res.exit_code == 0, res.output
        obj = json.loads(res.output)
        assert obj["failures"] == 0
        assert mp.almosteq(mp.mpf(obj["tol"]), mp.mpf(2) ** -33, 1e-15)

    def test_tol_error_names_the_given_tolerance(self):
        # the floor is 2^-108 at 128 bits
        res = invoke(["verify", "--suite", "translation", "--trials", "2",
                      "--tol", "1e-33"])
        assert res.exit_code == 4
        error = json.loads(res.output)["error"]
        assert error["type"] == "PrecisionError"
        assert "1.0e-33" in error["message"]

    def test_summation_suite_passes(self):
        res = invoke(["verify", "--suite", "summation",
                      "--trials", "4", "--tol", "1e-18"])
        assert res.exit_code == 0
        assert json.loads(res.output)["failures"] == 0


class TestTable:
    def test_csv_columns_and_grid_order(self):
        res = invoke(["table", "-z", "1,-1", "-a", "2..3,-1..0"])
        assert res.exit_code == 0
        rows = list(csv.reader(io.StringIO(res.output), delimiter=";"))
        assert rows[0] == ["z", "a", "k", "method", "re", "im", "abs_err",
                           "precision_bits", "order"]
        points = [row[1] for row in rows[1:]]
        assert points == ["2,-1", "2,0", "3,-1", "3,0"]
        for row in rows[1:]:
            assert row[3] in ("regularised", "convergent")
            assert mp.mpf(row[6]) < mp.mpf("1e-8")

    def test_out_file(self, tmp_path):
        target = tmp_path / "grid.csv"
        res = invoke(["table", "-z", "-1", "-a", "1..2",
                      "--out", str(target)])
        assert res.exit_code == 0
        # byte for byte: the CSV rows end in \r\n on stdout and in the file
        assert target.read_bytes().decode("utf-8") == res.output


class TestEulerPoly:
    def test_exact_coefficients(self):
        res = invoke(["euler-poly", "3", "2"])
        assert json.loads(res.output) == {
            "k": 3, "n": 2, "coefficients": ["1/3", "-2", "1"]}

    def test_bad_k(self):
        res = invoke(["euler-poly", "1", "2"])
        assert res.exit_code == 1
        assert "error" in json.loads(res.output)


class TestTextFormat:
    # every command that offers --format text, with the lines its value sits on
    @pytest.mark.parametrize("args,lines", [
        (["domain", "-z", "1,-1", "-s", "2,-1"],
         ["s = 2,-1: Ur=out, Urz=out, Vrz=in", "singular hyperplane candidates:"]),
        (["eval", "-z", "1,-1", "-a", "2,-1"], ["value = ", "method = regularised"]),
        (["eval", "-z", "-1", "-s", "0.5", "--tol", "1e-10"],
         ["value = ", "method = convergent"]),
        (["reg", "-z", "-1", "-a", "0"], ["regularised value = "]),
        (["verify", "--trials", "2", "--tol", "1e-10"], ["6/6 passed"]),
        (["euler-poly", "3", "2"], ["(1/3)*x^0 + (-2)*x^1 + (1)*x^2"]),
    ], ids=["domain", "eval-a", "eval-s", "reg", "verify", "euler-poly"])
    def test_text_output(self, args, lines):
        res = invoke(args + ["--format", "text"])
        assert res.exit_code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(res.output)
        for line in lines:
            assert line in res.output


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["reg", "-z", "-1", "-a", "0", "--bogus", "1"],   # unknown option
        ["eval", "-z", "-1", "-a", "2", "--prec", "abc"],  # bad option value
        ["bogus"],                                         # unknown command
        ["--bogus"],                                       # unknown group option
        [],                                                # missing command
        ["table", "-z", "-1", "-a", "1..2", "--format", "json"],  # CSV only
        ["reg", "-z", "-1", "-a", "0", "--format", "csv"],
        ["domain", "-z", "1,-1", "--order", "0"],         # not a domain option
        ["eval", "-z", "-1", "-s", "0.5", "--ceiling", "10"],  # below 1st rung
        ["verify", "--trials", "0"],                      # checks nothing
        ["eval", "-z", "-1", "-s", "0.5", "--tol", "0"],  # tol <= 0, each route
        ["eval", "-z", "1,-1", "-a", "2,-1", "--tol", "0"],
        ["verify", "--trials", "1", "--tol", "0"],
        ["eval", "-z", "-1", "-a", "2", "--pre", "64"],  # no abbreviations
        ["euler-poly", "3", "-1"],                        # negative index
    ])
    def test_usage_error_is_json_with_exit_1(self, args):
        res = invoke(args)
        assert res.exit_code == 1
        assert json.loads(res.output)["error"]["type"] == "ValueError"

    def test_each_command_takes_only_what_it_reads(self):
        import mplreg.cli as climod

        shared = {"prec", "order", "tol", "ceiling", "out", "fmt"}
        want = {
            "domain": {"prec", "out", "fmt"},
            "eval": {"prec", "order", "tol", "ceiling", "out", "fmt"},
            "reg": {"prec", "order", "out", "fmt"},
            "verify": {"prec", "tol", "out", "fmt"},
            "table": {"prec", "order", "out"},
            "euler-poly": {"out", "fmt"},
        }
        commands = climod._SUBPARSERS.choices
        got = {name: {action.dest for action in sub._actions} & shared
               for name, sub in commands.items()}
        assert got == want
        for name, sub in commands.items():
            for action in sub._actions:
                if action.dest == "fmt":
                    assert list(action.choices) == ["json", "text"], name


class TestBenchmarkCalls:
    def test_reg_sweep_templates(self, monkeypatch):
        # every reg-sweep template, plain and conjugated, at both precisions,
        # called as bench/run.py calls the CLI; values that begin with a
        # minus sign (-z -1,1/6, -a -1..2) are values, not options
        monkeypatch.setattr("sys.dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        import workloads

        for argv, want in workloads.REG_SWEEP:
            for conj in (False, True):
                for prec in workloads.PRECISIONS:
                    args = workloads._conj_argv(argv) if conj else list(argv)
                    args += ["--prec", str(prec)]
                    res = invoke(args)
                    assert res.exit_code == want, (args, res.output)
                    if want or args[0] != "table":
                        assert ("error" in json.loads(res.output)) == bool(want), args
                    else:
                        rows = list(csv.reader(io.StringIO(res.output), delimiter=";"))
                        assert rows[0] == CSV_COLUMNS and len(rows) > 1, args
                        assert {len(row) for row in rows} == {len(CSV_COLUMNS)}, args


class TestPrecisionControl:
    def test_precision_is_scoped(self, capsys):
        # a command runs at its --prec and leaves the caller's precision
        mp.mp.prec = 53
        main.main(["eval", "-z", "-1", "-a", "2", "--prec", "200"],
                  standalone_mode=False)
        assert mp.mp.prec == 53
        assert json.loads(capsys.readouterr().out)["precision_bits"] == 200

    def test_rejects_low_precision(self):
        res = invoke(["eval", "-z", "-1", "-a", "2", "--prec", "10"])
        assert res.exit_code == 1

    def test_value_roundtrip_same_precision(self):
        res = invoke(["eval", "-z", "-1", "-a", "2", "--prec", "128"])
        obj = json.loads(res.output)
        text = obj["value"]["re"]
        mp.mp.prec = 128
        assert mp.nstr(mp.mpf(text), mp.mp.dps + 5) == text
