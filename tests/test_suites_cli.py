import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_cli
from oracles import draw_poly_sized, run_suite
from semiq.cli import build_geometry, main, make_parser
from semiq.errors import ConfigError
from semiq.geometry import MAX_JET_BYTES
from semiq.suites import draw_poly, emit_report

ROOT = Path(__file__).resolve().parent.parent

FLAT_CONFIG = {
    "dim": 2,
    "metric": [["1", "0"], ["0", "1"]],
    "poisson": [["0", "1"], ["-1", "0"]],
    "connection": "levi-civita",
    "box": 1.0,
    "name": "config-flat",
}

CURVED_CONFIG = {
    "dim": 2,
    "metric": [["exp(2*x1)", "0"], ["0", "exp(2*x1)"]],
    "poisson": [["0", "exp(-2*x1)"], ["-exp(-2*x1)", "0"]],
    "connection": "levi-civita",
    "box": 0.8,
    "name": "config-conformal",
}


class TestRunSuite:
    def test_unknown_suite(self, flat1):
        with pytest.raises(ConfigError):
            run_suite("nope", flat1)

    def test_flat_dga_residuals_tiny(self, flat1):
        r = run_suite("dga", flat1, points=10, seed=1, tol=1e-12)
        assert r.all_passed
        for c in r.checks:
            assert c.max_abs_classical <= 1e-12 and c.max_abs_lambda <= 1e-12

    def test_cpn_classical_compat_passes(self, cpn2):
        r = run_suite("classical-compat", cpn2, points=30, seed=42, tol=1e-8)
        assert r.all_passed

    def test_torsion_counterexample_fails_qlc(self, torsion2):
        r = run_suite("qlc", torsion2, points=25, seed=7, tol=1e-8)
        assert not r.all_passed
        rec = next(c for c in r.checks if c.check == "qlc-residual")
        assert rec.max_abs_classical > 1e-3

    def test_determinism_byte_identical(self, cpn1):
        a = emit_report(run_suite("metric", cpn1, points=6, seed=5))
        b = emit_report(run_suite("metric", cpn1, points=6, seed=5))
        assert a.encode() == b.encode()

    def test_json_roundtrip(self, flat1):
        r = run_suite("classical-compat", flat1, points=5, seed=2)
        doc = emit_report(r)
        parsed = json.loads(doc)
        assert parsed[0]["suite"] == "classical-compat"
        assert parsed[0]["seed"] == 2
        assert parsed[0]["points"] == 5
        assert parsed[0]["elapsed_ms"] is None
        assert all(c["passed"] for c in parsed[0]["checks"])
        assert emit_report(r) == doc

    def test_config_geometry_suites(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(CURVED_CONFIG))
        G = build_geometry(str(path))
        assert G.tol == 1e-6
        r = run_suite("classical-compat", G, points=10, seed=3)
        assert r.all_passed                    # default tol 1e-6 for parsed mode
        r2 = run_suite("dga", G, points=6, seed=3)
        assert r2.all_passed


class TestCli:
    def test_exit_code_contract(self, capsys):
        assert main(["check", "flat", "--n", "1", "--points", "4", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["check", "flat-torsion", "--points", "4", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "qlc-residual" in err

    # the retired config: spelling is read as a literal file name, which does not exist
    @pytest.mark.parametrize("name, cause", [
        ("torus", "unknown geometry"),
        (f"config:{ROOT}/perfbench/exp_plane.json", "cannot read geometry config"),
    ], ids=["torus", "config-prefix"])
    def test_unknown_geometry(self, name, cause, capsys):
        assert main(["check", name, "--points", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cause} {name!r}")

    def test_report_file_and_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEMIQ_REPORT_DIR", str(tmp_path))
        code = main(["check", "flat", "--points", "3", "--seed", "4",
                     "--report", "out/r.json"])
        assert code == 0
        data = json.loads((tmp_path / "out" / "r.json").read_text())
        assert data[0]["geometry"] == "flat(n=1)"
        capsys.readouterr()

    @pytest.mark.parametrize("target", ["existing", "slash"])
    def test_report_path_naming_a_directory_exits_2(self, target, tmp_path, capsys):
        (tmp_path / "existing").mkdir()
        report = str(tmp_path / target) + ("/" if target == "slash" else "")
        assert main(["check", "flat", "--points", "1", "--suite", "qlc",
                     "--report", report]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "directory" in out.err
        # nothing written: no report, no temporary file, no directory made
        assert [p.name for p in tmp_path.rglob("*")] == ["existing"]

    def test_report_write_failure_exits_2_and_removes_temporary(self, tmp_path, monkeypatch,
                                                                 capsys):
        report = tmp_path / "r.json"

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr("os.replace", refuse)
        assert main(["check", "flat", "--points", "1", "--suite", "qlc",
                     "--report", str(report)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "Permission denied" in out.err
        assert list(tmp_path.iterdir()) == []

    def test_eval_star(self, capsys):
        assert main(["eval", "star", "--geometry", "cpn", "--n", "1",
                     "--a", "z1", "--b", "conj(z1)", "--at", "0.3,0.1"]) == 0
        out = capsys.readouterr().out
        assert "0.605" in out

    def test_evolve(self, capsys):
        assert main(["evolve", "--geometry", "flat", "--n", "1",
                     "--H", "x2^2/2", "--a", "x1", "--at", "0.1,0.5"]) == 0
        out = capsys.readouterr().out
        assert "adot" in out

    def test_timing_adds_only_suite_times(self, capsys):
        argv = ["check", "flat", "--n", "1", "--points", "2", "--seed", "1"]
        out = {}
        for fmt in ("json", "text"):
            for timing in ((), ("--timing",)):
                assert main(argv + ["--format", fmt, *timing]) == 0
                out[fmt, bool(timing)] = capsys.readouterr().out
        report = json.loads(out["json", True])
        for r in report:
            assert math.isfinite(r["elapsed_ms"]) and r["elapsed_ms"] >= 0
            r["elapsed_ms"] = None
        assert json.dumps(report, indent=2) + "\n" == out["json", False]
        # text: each suite header gains " [t ms]", and its underline follows it
        plain, timed = out["text", False].split("\n"), out["text", True].split("\n")
        assert len(plain) == len(timed)
        heads = 0
        for k, (a, b) in enumerate(zip(plain, timed)):
            if a.startswith("suite "):
                heads += 1
                assert re.fullmatch(re.escape(a) + r" \[\d+\.\d ms\]", b), b
                assert (plain[k + 1], timed[k + 1]) == ("-" * len(a), "-" * len(b))
            elif not (k and plain[k - 1].startswith("suite ")):
                assert a == b
        assert heads == len(report) > 1

    def test_parser_keeps_no_state_between_commands(self, capsys):
        # one parser serves every command of a process: neither an appended
        # --suite nor a refused command may reach the next command
        assert make_parser() is make_parser()
        argv = ["check", "cpn", "--n", "1", "--points", "2"]
        assert main(argv + ["--suite", "dga"]) == 0
        assert [r["suite"] for r in json.loads(capsys.readouterr().out)] == ["dga"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--suite", "no-such-suite"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        suites = [r["suite"] for r in json.loads(capsys.readouterr().out)]
        assert suites == list(build_geometry("cpn", 1).suites) and len(suites) > 1

    def test_subprocess_byte_identical_reports(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            r = run_cli(["check", "flat", "--n", "1", "--points", "4", "--seed", "9",
                         "--report", str(p)], cwd=tmp_path)
            assert r.returncode == 0, r.stderr
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]


GENERIC = ["classical-compat", "dga", "metric", "evolution"]
EXP_PLANE = str(ROOT / "perfbench" / "exp_plane.json")


class TestInputValidation:
    @pytest.mark.parametrize("points", ["0", "-3"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_check_needs_a_sample_point(self, points, fmt, capsys):
        assert main(["check", "flat", "--points", points, "--format", fmt]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")

    @pytest.mark.parametrize("points", [10 ** 13, MAX_JET_BYTES // (8 * 2) + 1])
    def test_check_refuses_points_it_cannot_sample(self, points, capsys):
        assert main(["check", "flat", "--points", str(points)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: {points} sample points")

    @pytest.mark.parametrize("at", ["nan,0.1", "0.1,inf", "a,0.1", "0.1,"])
    @pytest.mark.parametrize("cmd", ["eval", "evolve"])
    def test_point_must_be_finite_numbers(self, at, cmd, capsys):
        argv = (["eval", "star", "--geometry", "flat", "--a", "x1", "--b", "x2"]
                if cmd == "eval" else
                ["evolve", "--geometry", "flat", "--H", "x2^2/2", "--a", "x1"])
        assert main(argv + [f"--at={at}"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["eval", "star", "--geometry", "flat", "--a", "x1*x2", "--b", "x2"],
        ["evolve", "--geometry", "flat", "--H", "x2^2/2", "--a", "x1*x2"]],
        ids=["eval", "evolve"])
    @pytest.mark.parametrize("at", ["-1,0.5", "-.5,-2"])
    def test_point_may_start_with_a_minus_sign(self, argv, at, capsys):
        outs = []
        for tail in (["--at", at], [f"--at={at}"]):
            assert main(argv + tail) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and outs[0].out and outs[0].err == ""

    @pytest.mark.parametrize("geometry", ["cpn", "flat"])
    @pytest.mark.parametrize("n", [5, 40, 10 ** 9])
    def test_dimension_too_large_refused_before_building(self, geometry, n, capsys):
        # 16 * (2n)^8 bytes would be needed; each n here is refused before any allocation
        assert main(["check", geometry, "--n", str(n), "--points", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and f"--n {n}" in out.err

    @pytest.mark.parametrize("argv", [
        ["--geometry", "cpn", "--H", "exp(800*x1)", "--a", "x1", "--at", "0.9,0.1"],
        ["--geometry", "flat", "--H", "x2^2/2", "--a", "x1", "--at", ";"],
        ["--geometry", "flat", "--H", "x2^2/2", "--a", "x1", "--at", " "]])
    def test_evolve_prints_nothing_unless_every_point_succeeds(self, argv, capsys):
        assert main(["evolve"] + argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")

    @pytest.mark.parametrize("geometry", ["cpn", "flat"])
    def test_dimension_parameter_at_least_one(self, geometry, tmp_path):
        r = run_cli(["check", geometry, "--n", "0", "--points", "1"], cwd=tmp_path)
        err = r.stderr.decode()
        assert r.returncode == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["check", "flat-torsion", "--n", "7", "--points", "1", "--seed", "1"],
        ["check", EXP_PLANE, "--n", "9", "--points", "1"],
        ["eval", "star", "--geometry", "flat-torsion", "--n", "2",
         "--a", "x1", "--b", "x2", "--at", "0,0"]])
    def test_fixed_chart_rejects_contradicting_n(self, argv, capsys):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "--n" in out.err

    @pytest.mark.parametrize("name", ["flat-torsion", EXP_PLANE],
                             ids=["flat-torsion", "exp_plane"])
    def test_fixed_chart_accepts_its_own_n(self, name):
        assert build_geometry(name, 1).dim == build_geometry(name).dim == 2

    @pytest.mark.parametrize("op", ["star", "commutator", "wedge", "nablaQ"])
    def test_malformed_b_exits_2_for_every_op(self, op, capsys):
        argv = ["eval", op, "--geometry", "cpn", "--a", "x1^2",
                "--b", "not an expression ((", "--at", "0.1,0.2"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")


class TestFloatingPointRange:
    """An expression whose value or derivatives leave the floating-point
    range is an error, never a traceback or a NaN printed with exit 0; one
    outside its function's domain is an error that says so, not a range
    error."""

    @pytest.mark.parametrize("a", ["exp(1000)", "sin(1000i)", "sqrt(1e308)*1e308*10", "1e400",
                                   "x1^1e400", "(x1+2)^1e3", "x1^(-300000)", "x1^(10^400)",
                                   "x1^(1/0)", "config", "sqrt(-x1)"])
    def test_exits_2(self, a, tmp_path):
        if a == "config":
            big = "exp(5000*x1)"
            path = tmp_path / "geometry.json"
            path.write_text(json.dumps(dict(FLAT_CONFIG, poisson=[["0", big], ["-" + big, "0"]])))
            argv = ["check", str(path), "--points", "2"]
        else:
            argv = ["eval", "star", "--geometry", "flat", "--n", "1", "--a", a, "--b", "x1",
                    "--at", "0.1,0.2"]
        r = run_cli(argv, cwd=tmp_path)
        err = r.stderr.decode()
        assert r.returncode == 2 and r.stdout == b""
        assert err.startswith("error:") and "Traceback" not in err
        if a == "sqrt(-x1)":
            assert "sqrt of a jet with non-positive real value" in err and "range" not in err, err


class TestUnreadDerivatives:
    """A derivative that the command does not read refuses nothing, though
    every jet is built to third order: ``eval star`` reads the Poisson
    bivector's value, exp(x1^2), which is finite at x1 = 26.5 where its
    second derivative overflows."""

    def test_star_exits_0(self, tmp_path, capsys):
        path = tmp_path / "geometry.json"
        big = "exp(x1^2)"
        path.write_text(json.dumps({"dim": 2, "metric": [["1", "0"], ["0", "1"]],
                                    "poisson": [["0", big], ["-" + big, "0"]]}))
        argv = ["eval", "star", "--geometry", str(path), "--a", "x1", "--b", "x2",
                "--at", "26.5,0.1"]
        assert main(argv) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert "lambda-coefficient (4.811382906046422e+304+0j)" in out.out


class TestNonFiniteResult:
    """A residual or value that leaves the floating-point range is an error
    naming the check or the command, never a pass or a printed nan or inf."""

    @pytest.mark.parametrize("argv, named", [
        (["check", "CONFIG", "--points", "2", "--suite", "dga"], "'star-associator'"),
        (["eval", "star", "--geometry", "flat", "--a", "x1^2", "--b", "x2^2",
          "--at", "1e154,1e154"], "eval star"),
        (["evolve", "--geometry", "flat", "--H", "x2^2", "--a", "x1^2",
          "--at", "1e154,1e154"], "evolve")], ids=["check", "eval", "evolve"])
    def test_exits_2(self, argv, named, tmp_path):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(dict(FLAT_CONFIG, box=1e200)))
        r = run_cli([str(path) if a == "CONFIG" else a for a in argv], cwd=tmp_path)
        err = r.stderr.decode()
        assert r.returncode == 2 and r.stdout == b""
        assert err.startswith("error:") and named in err and "range" in err


class TestProjectiveChartRange:
    """On CP^n a point whose |x|^2 overflows, so that t^2 = 1/(1 + |x|^2)
    vanishes, is out of floating-point range, as on the flat chart; it used
    to end in an error about a reciprocal of zero."""

    @pytest.mark.parametrize("at", ["1e154,1e154", "1e200,0"])
    @pytest.mark.parametrize("argv", [
        ["eval", "star", "--b", "x2^2"],
        ["eval", "commutator", "--b", "x2^2"],
        ["evolve", "--H", "x2^2"]], ids=["star", "commutator", "evolve"])
    def test_exits_2_naming_the_range(self, argv, at, capsys):
        assert main(argv + ["--geometry", "cpn", "--n", "1", "--a", "x1", f"--at={at}"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")
        assert "out of floating-point range" in out.err and "reciprocal" not in out.err


class TestConfigNumbers:
    """Malformed numeric config entries end in a ConfigError and exit 2."""

    @pytest.mark.parametrize("key, raw", [
        ("dim", '"two"'), ("dim", "2.5"), ("seed", '"x"'), ("box", '"wide"'),
        ("box", "-1"), ("box", '"nan"'), ("box", "1e400"), ("box", "0"),
        ("lambda_im", "NaN"), ("lambda_im", '"one"'), ("seed", "-1"), ("seed", "2.0")])
    def test_invalid_number_exits_2(self, key, raw, tmp_path, capsys):
        cfg = json.loads((ROOT / "perfbench" / "exp_plane.json").read_text())
        cfg[key] = "RAW"
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(cfg).replace('"RAW"', raw))
        assert main(["check", str(path), "--points", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and repr(key) in out.err


class TestConfigShape:
    """A metric that is not symmetric, a Poisson matrix that is not
    antisymmetric, a dimension too large for its jets, or a name that is
    not a string exits 2."""

    @pytest.mark.parametrize("key, value", [
        ("metric", [["1", "x1"], ["0", "1"]]),
        ("poisson", [["1", "1"], ["1", "0"]]),
        ("poisson", [["0", "1"], ["1", "0"]]),
        ("dim", 10),
        ("name", ["a", 1]),
        ("box", 1e308)], ids=["metric-asym", "poisson-diagonal", "poisson-sym", "dim-10",
                              "name-list", "box-1e308"])
    def test_exits_2(self, key, value, tmp_path, capsys):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(dict(FLAT_CONFIG, **{key: value})))
        assert main(["check", str(path), "--points", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and repr(key) in out.err

    def test_entries_written_differently_accepted(self, tmp_path, capsys):
        cfg = dict(FLAT_CONFIG, metric=[["2", "x1*x2"], ["x2*x1", "2"]],
                   poisson=[["0", "x1-x2"], ["x2-x1", "0"]])
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(cfg))
        assert main(["check", str(path), "--points", "1", "--suite", "classical-compat"]) in (0, 1)
        assert capsys.readouterr().out


class TestOneDimensionalChart:
    """On a line every two-form vanishes: the deformed wedge of two
    one-forms is zero, not an error."""

    def test_wedge_and_check_exit_0(self, tmp_path, capsys):
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"dim": 1, "metric": [["1"]], "poisson": [["0"]]}))
        assert main(["eval", "wedge", "--geometry", str(path),
                     "--a", "x1", "--b", "x1", "--at", "0.1"]) == 0
        assert capsys.readouterr().out == ("da wedge1 db components:\n"
                                           "classical [[0.+0.j]]  lambda-coefficient [[0.+0.j]]\n")
        assert main(["check", str(path), "--points", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {r["suite"] for r in report} == {"classical-compat", "dga", "metric", "evolution"}


class TestConfigKeys:
    """A config key outside the schema exits 2 and is named, rather than
    being ignored (a misspelt "connection" used to fall back to Levi-Civita)."""

    @pytest.mark.parametrize("key, raw", [
        ("pairing", '"false"'), ("conection", '[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]'),
        ("lambda_im", "1.0")],
        ids=['pairing-"false"', "conection-array", "lambda_im-1.0"])
    def test_unknown_key_exits_2(self, key, raw, tmp_path, capsys):
        cfg = json.loads((ROOT / "perfbench" / "exp_plane.json").read_text())
        cfg[key] = "RAW"
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(cfg).replace('"RAW"', raw))
        assert main(["check", str(path), "--points", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and repr(key) in out.err

    @pytest.mark.parametrize("doc", ["5", "[1]", '"dim"'])
    def test_config_must_be_an_object(self, doc, tmp_path, capsys):
        path = tmp_path / "geometry.json"
        path.write_text(doc)
        assert main(["check", str(path), "--points", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")

    def test_every_schema_key_accepted(self, tmp_path, capsys):
        cfg = dict(CURVED_CONFIG, seed=3)
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(cfg))
        assert main(["check", str(path), "--points", "1", "--suite", "classical-compat"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["seed"] == 3


class TestSamplingBounds:
    """--tol must be finite and >= 0, the seed an integer >= 0; else exit 2."""

    @pytest.mark.parametrize("argv", [
        ["check", "flat-torsion", "--tol", "inf"],
        ["check", "flat-torsion", "--tol", "nan"],
        ["check", "flat", "--tol", "-1"],
        ["check", "flat", "--seed", "-1"]])
    def test_out_of_range_exits_2(self, argv, capsys):
        assert main(argv + ["--points", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "Traceback" not in out.err

    @pytest.mark.parametrize("tol, seed", [(float("inf"), 0), (-1e-9, 0), (1e-9, -1),
                                           (1e-9, 1.5)])
    def test_run_suite_rejects(self, tol, seed, flat1):
        with pytest.raises(ConfigError):
            run_suite("classical-compat", flat1, points=1, seed=seed, tol=tol)

    def test_zero_tolerance_is_valid(self, flat1):
        r = run_suite("classical-compat", flat1, points=2, seed=0, tol=0.0)
        assert r.all_passed             # flat data is exact


class TestRemovedOptions:
    """The deformation parameter is carried as a grade, never as a number:
    the options that used to set it are rejected by the parser."""

    @pytest.mark.parametrize("option", [["--hbar", "2"], ["--lambda-im", "5"]])
    @pytest.mark.parametrize("argv", [
        ["check", "flat"],
        ["eval", "commutator", "--geometry", "flat", "--a", "x1", "--b", "x2", "--at", "0,0"],
        ["evolve", "--geometry", "flat", "--H", "x2^2/2", "--a", "x1", "--at", "0,0"]])
    def test_rejected(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + option)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestNameIsALabel:
    """Suite selection and checks follow the geometry's data, never its name."""

    def config(self, tmp_path, name):
        cfg = json.loads((ROOT / "perfbench" / "exp_plane.json").read_text())
        cfg["name"] = name
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("name", ["cpn-mine", "flat(mine)", "flat-torsion"])
    def test_config_gets_generic_suites(self, name, tmp_path, capsys):
        code = main(["check", self.config(tmp_path, name), "--points", "3", "--seed", "1"])
        report = json.loads(capsys.readouterr().out)
        assert [r["suite"] for r in report] == GENERIC
        assert all(r["geometry"] == name for r in report)
        assert all(c["passed"] and c["tol"] == 1e-6 for r in report for c in r["checks"])
        assert not any(c["check"] == "cobasis-invariance" for r in report for c in r["checks"])
        assert code == 0

    def test_catalogue_rejected_on_config(self, tmp_path, capsys):
        path = self.config(tmp_path, "cpn-mine")
        assert main(["check", path, "--points", "1", "--suite", "cpn-catalogue"]) == 2
        assert "catalogue" in capsys.readouterr().err


def test_benchmark_trace_binds(monkeypatch, capsys):
    # the benchmark's per-layer trace rebinds these names from outside the
    # package; a rename must fail here rather than in the next benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    t = tracer.Tracer()
    try:
        t.install()
        assert main(["check", "flat", "--points", "1"]) == 0
        assert main(["eval", "nablaQ", "--geometry", "cpn", "--n", "1",
                     "--a", "x1^2*x2", "--at", "0.2,-0.3"]) == 0
        assert main(["check", "cpn", "--points", "1", "--suite", "cpn-catalogue"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    for name in ("suites.dga", "geometry.frame.h_fam", "semiquant.nabla_Q.at",
                 "semiquant.nq_basis", "geometries.provider", "cli.build_geometry",
                 "semiquant.star_product.at", "semiquant.module_action.at",
                 "semiquant.wedge1.at", "semiquant.q_map.at",
                 "geometries.catalogue.z-zbar-comm"):
        assert t.calls[name] > 0, name


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_draw_poly_keeps_the_stream_of_sized_draws(d, seed):
    mine, sized = np.random.default_rng(seed), np.random.default_rng(seed)
    assert repr([draw_poly(d, mine) for _ in range(30)]) == \
        repr([draw_poly_sized(d, sized) for _ in range(30)])
    assert mine.bit_generator.state == sized.bit_generator.state
