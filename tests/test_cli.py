"""End-to-end tests for the command line: definition parsing, report
shape and reproducibility, exit codes, and the propagation commands.

main() is called in-process, except where a test reads the whole stderr
of a child process or the modules a fresh process imports; stdout is
captured as the report channel.
"""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import edsbt.backlund as bk
import edsbt.cli as cli
import edsbt.propagate as pp
from test_propagate import reference_csv


SG_DEF = """\
# auto-transformation for u_xy = sin u
[chart]
coords = x, y, u, v, p, q
x = -1.5, 1.5
y = -1.5, 1.5
u = -1.5, 1.5
v = -1.5, 1.5
p = -1.5, 1.5
q = -1.5, 1.5

[params]
lam = 1.0

[bt]
F = p + 2*lam*sin((u + v)/2)
G = -q + (2/lam)*sin((u - v)/2)
"""

COUPLED_DEF = SG_DEF.split("[bt]")[0] + "[bt]\nF = p + u*v\nG = -q + u*v\n"

MA_CHART = """\
[chart]
coords = x, y, u, p, q
x = -1.5, 1.5
y = -1.5, 1.5
u = -1.5, 1.5
p = -1.5, 1.5
q = -1.5, 1.5
"""

SG_MA_DEF = MA_CHART + """
[ma]
A = 0
B = 1
C = 0
D = 0
E = -sin(u)
"""

LAPLACE_DEF = MA_CHART + """
[ma]
A = 1
B = 0
C = 1
D = 0
E = 0
"""

TZ_DEF = """\
[chart]
coords = x, y
x = 0, 0.5
y = 0, 0.5

[tzitzeica]
h = 1
lambda = 1
alpha0 = 1
beta0 = 1
"""

# the adapted coframe written out in closed form, coefficients in
# d(x, y, u, v, p, q) order
SECTION_DEF = SG_DEF.split("[bt]")[0] + """\
[section]
theta = -(p + 2*lam*sin((u + v)/2)), -q, 1, 0, 0, 0
theta_bar = -p, q - (2/lam)*sin((u - v)/2), 0, 1, 0, 0
w1 = 1, 0, 0, 0, 0, 0
w2 = -lam*cos((u + v)/2)*p, -sin(v) - lam*cos((u + v)/2)*(-q + (2/lam)*sin((u - v)/2)), 0, lam*cos((u + v)/2), 1, 0
w3 = 0, 1, 0, 0, 0, 0
w4 = -sin(u) + (1/lam)*cos((u - v)/2)*(p + 2*lam*sin((u + v)/2)), (1/lam)*cos((u - v)/2)*q, -(1/lam)*cos((u - v)/2), 0, 0, 1
"""

AT_REFERENCE = "x=0,y=0,u=1.5707963267948966,v=0,p=0.3,q=0.7"


def write_def(tmp_path, text, name="system.def"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestDefinitionParsing:
    def test_bt_definition(self, tmp_path):
        defn = cli.parse_definition(write_def(tmp_path, SG_DEF))
        assert defn.kind == "bt"
        assert defn.chart.coords == ("x", "y", "u", "v", "p", "q")
        assert defn.chart.params == {"lam": 1.0}
        assert set(defn.body) == {"F", "G"}

    def test_ranged_param(self, tmp_path):
        text = SG_DEF.replace("lam = 1.0", "lam = [0.5, 2]")
        defn = cli.parse_definition(write_def(tmp_path, text))
        assert defn.chart.params == {"lam": (0.5, 2.0)}

    def test_spec_block(self, tmp_path):
        text = SG_DEF + "\n[spec]\nsamples = 8\ntol = 1e-7\nseed = 5\n"
        defn = cli.parse_definition(write_def(tmp_path, text))
        assert defn.spec_overrides == {"samples": 8, "tol": 1e-7, "seed": 5}

    def test_comments_stripped_anywhere(self, tmp_path):
        text = SG_DEF.replace("lam = 1.0", "lam = 1.0  # coupling")
        defn = cli.parse_definition(write_def(tmp_path, text))
        assert defn.chart.params == {"lam": 1.0}

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda t: t.replace("[params]", "[junk]"),  # unknown block
            lambda t: t + "\n[bt]\nF = p\nG = -q\n",  # duplicate block
            lambda t: "stray = 1\n" + t,  # entry before any header
            lambda t: t.replace("lam = 1.0", "lam 1.0"),  # missing =
            lambda t: t.replace("F = ", "G = ").replace("G = -q", "G: -q"),
            lambda t: t.replace("[chart]\n", "[chart]\nxx = 0, 1\n", 1) and t.replace("coords = x, y, u, v, p, q\n", ""),
            lambda t: t.replace("x = -1.5, 1.5\n", ""),  # missing interval
            lambda t: t.replace("x = -1.5, 1.5", "x = -1.5"),  # short interval
            lambda t: t.replace("x = -1.5, 1.5", "x = lo, 1.5"),  # not a number
            lambda t: t + "\n[tzitzeica]\nh = 1\nlambda = 1\nalpha0 = 1\nbeta0 = 1\n",
            lambda t: t.split("[bt]")[0],  # no primary block
            lambda t: t.replace("coords = x, y, u, v, p, q", "coords = x, y, u, p, q").replace("v = -1.5, 1.5\n", ""),
            lambda t: t.replace("G = -q + (2/lam)*sin((u - v)/2)\n", ""),  # missing G
            lambda t: t + "\n[spec]\nsamples = few\n",
            lambda t: t.replace("F = p + 2*lam*sin((u + v)/2)", "F = p + 2*lam*sin((u + w)/2)"),  # unknown name
            lambda t: t + "\n[spec]\nguard = nan\n",
            lambda t: t + "\n[spec]\nguard = -1\n",
            lambda t: t + "\n[spec]\nsamples = 0\n",
            lambda t: t + "\n[spec]\ntol = nan\n",
            lambda t: t.replace("x = -1.5, 1.5", "x = 1.5, -1.5"),  # degenerate interval
            lambda t: t + "\n[spec]\nsampels = 8\n",  # unknown [spec] key
            lambda t: t + "\n[spec]\ntolerance = 1e-3\n",
            lambda t: t.replace("[chart]\n", "[chart]\nguard = 1e-3\n", 1),  # names no coordinate
            lambda t: t.replace("G = -q + (2/lam)*sin((u - v)/2)", "G = -q + ²"),  # superscript digit
            lambda t: t.replace("x = -1.5, 1.5", "x = -inf, inf"),  # non-finite numbers
            lambda t: t.replace("u = -1.5, 1.5", "u = 0, inf"),
            lambda t: t.replace("lam = 1.0", "lam = inf"),
            lambda t: t.replace("lam = 1.0", "lam = nan"),
            lambda t: t.replace("lam = 1.0", "lam = [0.5, inf]"),
            lambda t: t + "\n[spec]\nguard = inf\n",
            lambda t: TZ_DEF.replace("lambda = 1", "lambda = nan"),
        ],
    )
    def test_malformed_definitions(self, tmp_path, mangle):
        with pytest.raises(cli.DefinitionError):
            cli.parse_definition(write_def(tmp_path, mangle(SG_DEF)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.DefinitionError):
            cli.parse_definition(str(tmp_path / "absent.def"))

    def test_repeated_key_rejected(self, tmp_path):
        text = SG_DEF + "G = -q\n"
        with pytest.raises(cli.DefinitionError):
            cli.parse_definition(write_def(tmp_path, text))


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        code, _ = run(capsys, "check", write_def(tmp_path, SG_DEF), "--samples", "8")
        assert code == 0

    def test_fail_is_one(self, tmp_path, capsys):
        code, _ = run(capsys, "check", write_def(tmp_path, COUPLED_DEF), "--samples", "8")
        assert code == 1

    def test_parse_error_is_two(self, tmp_path, capsys):
        code, report = run(capsys, "check", write_def(tmp_path, SG_DEF.split("[bt]")[0]))
        assert code == 2
        assert report is None

    @pytest.mark.parametrize("text, message", [("p + 1/0", "division by constant zero"),
                                               ("p + 0^-1", "zero to a negative power")])
    def test_constant_that_cannot_fold_is_two(self, tmp_path, capsys, text, message):
        path = write_def(tmp_path, SG_DEF.replace("F = p + 2*lam*sin((u + v)/2)", f"F = {text}"))
        code = cli.main(["check", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"edsbt: {path}: [bt] F: {message}\n"

    def test_nesting_too_deep_is_two(self, tmp_path, capsys):
        nested = "(" * 3000 + "p" + ")" * 3000
        path = write_def(tmp_path, SG_DEF.replace("F = p + ", f"F = {nested} + "))
        code = cli.main(["check", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"edsbt: {path}: [bt] F: nesting too deep (at offset ")
        assert captured.err.count("\n") == 1

    def test_wrong_kind_is_two(self, tmp_path, capsys):
        code, _ = run(capsys, "classify", write_def(tmp_path, TZ_DEF))
        assert code == 2

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["propagate", "whatever.def"])  # missing required flags
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [("--samples", "0"), ("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "inf")],
    )
    def test_bad_sampling_flag_is_two(self, tmp_path, capsys, flags):
        code, report = run(capsys, "check", write_def(tmp_path, SG_DEF), *flags)
        assert code == 2
        assert report is None

    @pytest.mark.parametrize(
        "argv",
        [
            ("propagate", "--seed-u", "0", "--v0", "1", "--grid", "5,5",
             "--domain", "0,1,0,inf", "--out", "OUT"),
            ("propagate", "--seed-u", "0", "--v0", "inf", "--grid", "5,5",
             "--domain", "0,1,0,1", "--out", "OUT"),
            ("torsion", "--at", AT_REFERENCE.replace("p=0.3", "p=nan")),
            ("torsion", "--at", AT_REFERENCE.replace("q=0.7", "q=-inf")),
        ],
    )
    def test_nonfinite_flag_number_is_two(self, tmp_path, capsys, argv):
        command, *flags = argv
        flags = [str(tmp_path / "v.csv") if f == "OUT" else f for f in flags]
        code = cli.main([command, write_def(tmp_path, SG_DEF), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "finite" in captured.err
        assert list(tmp_path.iterdir()) == [tmp_path / "system.def"]

    def test_overflow_leaves_one_stderr_line(self, tmp_path):
        # exp(1000*u) overflows at most samples, and the coframe with it;
        # numpy's RuntimeWarnings must not reach stderr ahead of the
        # breakdown message
        text = SG_DEF.replace("F = p + 2*lam*sin((u + v)/2)", "F = p + exp(1000*u)")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "edsbt.cli", "check", write_def(tmp_path, text),
             "--samples", "8"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("edsbt: coframe singular at ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    @pytest.mark.parametrize("command", ["check", "classify"])
    def test_overflowing_margin_is_one(self, tmp_path, capsys, command):
        # F_p = 2 + exp(1000*u) is at least 2, and inf where exp overflows
        text = SG_DEF.replace("F = p + 2*lam*sin((u + v)/2)", "F = p*(2 + exp(1000*u))")
        code = cli.main([command, write_def(tmp_path, text)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("edsbt: F_p is not finite on the box at p=")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "classify", "torsion"])
    def test_overflowing_power_is_not_finite(self, tmp_path, capsys, command):
        # p^999999999 overflows on most of the box: F_p reads inf there, as
        # it would on an array, and the build names the first such sample
        text = SG_DEF.replace("F = p + ", "F = p^999999999 + ")
        code = cli.main([command, write_def(tmp_path, text)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("edsbt: F_p is not finite on the box at p=")
        assert captured.err.count("\n") == 1

    def test_unknown_command_is_two(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["bogus", "whatever.def"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (SG_DEF, "edsbt: F_p vanishes on the box (min 1.000e+00)"),
            (SECTION_DEF, "edsbt: guard rejected 80 consecutive points (sample 0)"),
        ],
    )
    def test_runtime_breakdown_is_one(self, tmp_path, capsys, text, message):
        # a guard of 10 rejects every sample: the build's F_p margin, or
        # every redraw of the section's first sample
        code = cli.main(["check", write_def(tmp_path, text + "\n[spec]\nguard = 10\n")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.strip() == message


class TestCheckCommand:
    def test_report_shape_and_records(self, tmp_path, capsys):
        path = write_def(tmp_path, SG_DEF)
        code, report = run(capsys, "check", path, "--samples", "16")
        assert code == 0
        assert report["version"]
        assert report["kind"] == "bt"
        assert report["samples"] == 16
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert report["input_digest"] == f"sha256:{digest}"
        names = [r["name"] for r in report["records"]]
        assert names == [
            "section_valid",
            "integrable_extension_dtheta",
            "integrable_extension_dtheta_bar",
            "normal",
            "dropF_condition",
            "dropG_condition",
        ]
        assert all(r["status"] == "pass" for r in report["records"])
        assert report["margin_A1"] == pytest.approx(1.0)
        assert report["margin_A2"] == pytest.approx(1.0)
        assert report["margin_A1A2_minus_1"] == pytest.approx(2.0)
        assert report["notes"] == ""

    def test_report_is_flat(self, tmp_path, capsys):
        _, report = run(capsys, "check", write_def(tmp_path, SG_DEF), "--samples", "8")
        for key, value in report.items():
            if key == "records":
                for rec in value:
                    assert all(
                        isinstance(v, (str, int, float, bool)) for v in rec.values()
                    )
            else:
                assert isinstance(value, (str, int, float, bool)), key

    def test_fail_records_carry_witness(self, tmp_path, capsys):
        code, report = run(
            capsys, "check", write_def(tmp_path, COUPLED_DEF), "--samples", "8"
        )
        assert code == 1
        failed = [r for r in report["records"] if r["status"] == "fail"]
        assert failed
        assert all(r["witness"] for r in failed)
        assert all(r["max_violation"] > 1e-2 for r in failed)

    def test_ma_check(self, tmp_path, capsys):
        code, report = run(capsys, "check", write_def(tmp_path, SG_MA_DEF), "--samples", "8")
        assert code == 0
        assert [r["name"] for r in report["records"]] == ["monge_ampere_valid"]

    def test_ma_check_nonfinite_sample_fails_with_witness(self, tmp_path, capsys):
        # E overflows to inf - inf = nan at some samples; the record fails
        # instead of the SVD behind the rank test raising
        text = SG_MA_DEF.replace("E = -sin(u)", "E = exp(1000*u) - exp(1000*x)")
        with np.errstate(all="ignore"):
            code, report = run(capsys, "check", write_def(tmp_path, text))
        assert code == 1
        (record,) = report["records"]
        assert record["name"] == "monge_ampere_valid"
        assert record["status"] == "fail"
        assert record["max_violation"] == math.inf
        assert record["witness"]

    def test_section_check(self, tmp_path, capsys):
        code, report = run(
            capsys, "check", write_def(tmp_path, SECTION_DEF), "--samples", "8"
        )
        assert code == 0
        assert report["records"][0]["name"] == "section_valid"
        assert report["records"][0]["max_violation"] < 1e-9

    def test_tzitzeica_seed_check(self, tmp_path, capsys):
        # h == 1 solves (ln h)_xy = h - h^-2; h == 2 misses by 7/4
        code, report = run(capsys, "check", write_def(tmp_path, TZ_DEF), "--samples", "8")
        assert code == 0
        assert report["records"][0]["name"] == "seed_solves_equation"

        bad = TZ_DEF.replace("h = 1", "h = 2")
        code, report = run(capsys, "check", write_def(tmp_path, bad, "bad.def"), "--samples", "8")
        assert code == 1
        rec = report["records"][0]
        assert rec["status"] == "fail"
        assert rec["witness"]

    @pytest.mark.parametrize("content", [b"", SG_DEF.encode(), bytes(range(256)) * 4099],
                             ids=["empty", "bt", "binary"])
    def test_input_digest_is_sha256(self, tmp_path, content):
        path = tmp_path / "input.def"
        path.write_bytes(content)
        assert cli._digest(str(path)) == "sha256:" + hashlib.sha256(content).hexdigest()

    def test_digest_loads_no_openssl(self, tmp_path):
        # hashlib loads OpenSSL (_hashlib), about 3.6 MB of every process;
        # the digest comes from CPython's builtin sha256 where there is one
        if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
            pytest.skip("this Python has no builtin sha256 module")
        script = ("import contextlib, io, sys\n"
                  "import edsbt.cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = edsbt.cli.main(sys.argv[1:])\n"
                  "print(code, '_hashlib' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-c", script, "check", write_def(tmp_path, SG_DEF), "--samples", "8"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 False\n"


class TestClassifyCommand:
    def test_default_candidates(self, tmp_path, capsys):
        code, report = run(capsys, "classify", write_def(tmp_path, SG_DEF), "--samples", "16")
        assert code == 0
        assert report["wavelike"] is True
        assert report["quasilinear"] is True
        assert report["autonomous"] is True
        assert report["transversality_det_min"] == pytest.approx(1.0)

    @pytest.mark.parametrize("F, autonomous", [("p + 2*lam*sin((u + v)/2)", True),
                                               ("p + sin(x + (u + v)/2)", False)])
    def test_transversality_det_is_computed_once(self, tmp_path, capsys, monkeypatch, F,
                                                 autonomous):
        # x-dependent data: d/dx is no symmetry, though the pairing stays 1
        calls = []
        det = bk.transversality_det

        def counting(*args, **kwargs):
            calls.append(args)
            return det(*args, **kwargs)

        monkeypatch.setattr(bk, "transversality_det", counting)
        text = SG_DEF.replace("F = p + 2*lam*sin((u + v)/2)", f"F = {F}")
        code, report = run(capsys, "classify", write_def(tmp_path, text), "--samples", "16")
        assert code == 0
        assert len(calls) == 1
        assert report["autonomous"] is autonomous
        assert report["transversality_det_min"] == pytest.approx(1.0)

    def test_explicit_candidates_match_defaults(self, tmp_path, capsys):
        text = SG_DEF + (
            "\n[candidates]\n"
            "eta1 = 1, 0, 0, 0, 0, 0\n"
            "eta3 = 0, 1, 0, 0, 0, 0\n"
            "X = 1, 0, 0, 0, 0, 0\n"
            "Y = 0, 1, 0, 0, 0, 0\n"
        )
        code, report = run(capsys, "classify", write_def(tmp_path, text), "--samples", "16")
        assert code == 0
        assert report["wavelike"] and report["autonomous"]

    def test_false_verdict_still_exits_zero(self, tmp_path, capsys):
        # F_p G_q = -(1 + p^2) depends on p, so quasilinear must be false
        text = SG_DEF.replace(
            "F = p + 2*lam*sin((u + v)/2)",
            "F = p + p^3/3 + 2*lam*sin((u + v)/2)",
        )
        code, report = run(capsys, "classify", write_def(tmp_path, text), "--samples", "16")
        assert code == 0
        assert report["quasilinear"] is False
        assert report["records"][0]["status"] == "pass"

    def test_candidate_outside_block_reads_as_not_wavelike(self, tmp_path, capsys):
        text = SG_DEF + "\n[candidates]\neta1 = 0, 0, 1, 0, 0, 0\n"  # du
        code, report = run(capsys, "classify", write_def(tmp_path, text), "--samples", "8")
        assert code == 0
        assert report["wavelike"] is False
        assert "eta1" in report["notes"]


class TestTorsionCommand:
    def test_at_reference_point(self, tmp_path, capsys):
        code, report = run(
            capsys, "torsion", write_def(tmp_path, SG_DEF), "--at", AT_REFERENCE
        )
        assert code == 0
        root2 = math.sqrt(2.0)
        assert report["points"] == 1
        assert report["A1"] == pytest.approx(1.0, abs=1e-12)
        assert report["A2"] == pytest.approx(-1.0, abs=1e-12)
        assert report["B2"] == pytest.approx(-root2 / 4, abs=1e-12)
        assert report["B4"] == pytest.approx(root2 / 4, abs=1e-12)
        assert report["C2"] == pytest.approx(-root2 / 2, abs=1e-12)
        assert report["C4"] == pytest.approx(-root2 / 2, abs=1e-12)
        for name in ("B1", "B3", "C1", "C3"):
            assert report[name] == pytest.approx(0.0, abs=1e-12)

    def test_sampled_table(self, tmp_path, capsys):
        code, report = run(capsys, "torsion", write_def(tmp_path, SG_DEF), "--samples", "16")
        assert code == 0
        assert report["points"] == 16
        assert report["A1_min"] == pytest.approx(1.0, abs=1e-9)
        assert report["A1_max"] == pytest.approx(1.0, abs=1e-9)
        assert report["A2_min"] == pytest.approx(-1.0, abs=1e-9)
        for name in ("B1", "B3", "C1", "C3"):
            assert abs(report[f"{name}_min"]) < 1e-9
            assert abs(report[f"{name}_max"]) < 1e-9
        assert report["records"][0]["name"] == "normal"
        assert report["records"][0]["status"] == "pass"

    def test_section_definition_accepted(self, tmp_path, capsys):
        code, report = run(
            capsys, "torsion", write_def(tmp_path, SECTION_DEF), "--at", AT_REFERENCE
        )
        assert code == 0
        assert report["A1"] == pytest.approx(1.0, abs=1e-12)
        assert report["C2"] == pytest.approx(-math.sqrt(2.0) / 2, abs=1e-12)

    def test_at_requires_all_coordinates(self, tmp_path, capsys):
        code, _ = run(capsys, "torsion", write_def(tmp_path, SG_DEF), "--at", "x=0,y=0")
        assert code == 2

    def test_at_must_fix_ranged_parameter(self, tmp_path, capsys):
        text = SG_DEF.replace("lam = 1.0", "lam = [0.5, 2]")
        path = write_def(tmp_path, text)
        code, _ = run(capsys, "torsion", path, "--at", AT_REFERENCE)
        assert code == 2
        code, report = run(capsys, "torsion", path, "--at", AT_REFERENCE + ",lam=1")
        assert code == 0
        assert report["A1"] == pytest.approx(1.0, abs=1e-12)

    def test_at_rejects_a_repeated_name(self, tmp_path, capsys):
        path = write_def(tmp_path, SG_DEF)
        code = cli.main(["torsion", path, "--at", AT_REFERENCE + ",x=1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "edsbt: --at repeats x\n"

    def test_at_rejects_unknown_names(self, tmp_path, capsys):
        code, _ = run(
            capsys, "torsion", write_def(tmp_path, SG_DEF), "--at", AT_REFERENCE + ",zz=1"
        )
        assert code == 2


class TestHyperbolicCommand:
    def test_sine_gordon_layout(self, tmp_path, capsys):
        code, report = run(capsys, "hyperbolic", write_def(tmp_path, SG_MA_DEF), "--samples", "16")
        assert code == 0
        assert report["verdict"] == "hyperbolic"
        assert report["n_hyperbolic"] == 16
        assert report["roots_at_first_sample"] == "-0.5,0.5"

    def test_laplace_fails(self, tmp_path, capsys):
        code, report = run(capsys, "hyperbolic", write_def(tmp_path, LAPLACE_DEF), "--samples", "16")
        assert code == 1
        assert report["verdict"] == "non-hyperbolic"
        assert report["n_non_hyperbolic"] == 16
        assert "roots_at_first_sample" not in report


class TestPropagateCommand:
    def test_kink_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path / "v.csv")
        code, report = run(
            capsys,
            "propagate", write_def(tmp_path, SG_DEF),
            "--seed-u", "0", "--v0", repr(math.pi),
            "--grid", "41,41", "--domain", "0,2,0,2",
            "--out", out,
            "--reference", "4*atan(exp(-lam*x - y/lam))",
        )
        assert code == 0
        assert report["records"][0]["status"] == "pass"
        assert report["sup_error"] < 1e-6
        assert report["compatibility_residual"] == 0.0
        field = pp.read_field_csv(out)
        assert field.grid == pp.Grid(41, 41, 0.0, 2.0, 0.0, 2.0)
        assert abs(field.values[0, 0] - math.pi) < 1e-12

    def test_reference_and_write_stay_below_one_mesh_array(self, tmp_path, capsys, monkeypatch):
        # v lives in the rows' shared memory, which tracemalloc does not see.
        # The march compares the reference with each block of v once it is
        # final, and on one CPU this process formats and writes each block
        # as soon as it is final, so the traced peak stays below one mesh
        # array (children: TestFieldRows).  Blocks of about 1,024 values keep
        # one block's evaluation and formatting temporaries well below it: at
        # the default 16,384 the formatter's alone are about 1.5 MB
        monkeypatch.setattr(pp, "_BLOCK", 1 << 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        grid = pp.Grid(401, 401, 0.0, 2.0, 0.0, 2.0)
        peaks = {}

        def traced(name, fn):
            def spy(*args, **kwargs):
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peaks[name] = tracemalloc.get_traced_memory()[1]
            return spy

        monkeypatch.setattr(pp, "bt_propagate", traced("bt_propagate", pp.bt_propagate))
        monkeypatch.setattr(pp.FieldRows, "commit", traced("commit", pp.FieldRows.commit))
        tracemalloc.start()
        try:
            code, report = run(
                capsys, "propagate", write_def(tmp_path, SG_DEF),
                "--seed-u", "0", "--v0", repr(math.pi), "--grid", f"{grid.nx},{grid.ny}",
                "--domain", "0,2,0,2", "--out", str(tmp_path / "v.csv"),
                "--reference", "4*atan(exp(-lam*x - y/lam))",
            )
            whole = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert report["sup_error"] < 1e-6
        assert sorted(peaks) == ["bt_propagate", "commit"]
        assert max(peaks["bt_propagate"], peaks["commit"], whole) < 8 * grid.nx * grid.ny

    def test_ranged_parameter_is_runtime_error(self, tmp_path, capsys):
        text = SG_DEF.replace("lam = 1.0", "lam = [0.5, 2]")
        code, report = run(
            capsys,
            "propagate", write_def(tmp_path, text),
            "--seed-u", "0", "--v0", "1",
            "--grid", "5,5", "--domain", "0,1,0,1",
            "--out", str(tmp_path / "v.csv"),
        )
        assert code == 1
        rec = report["records"][0]
        assert rec["status"] == "error"
        assert "lam" in rec["witness"]
        assert not (tmp_path / "v.csv").exists()

    def test_overflowing_sup_error_reads_inf(self, tmp_path, capsys):
        # v and the reference are finite, |v - reference| overflows
        code = cli.main(["propagate", write_def(tmp_path, SG_DEF), "--seed-u", "0",
                         "--v0=-1e300", "--grid", "11,11", "--domain", "0,1,0,1",
                         "--out", str(tmp_path / "v.csv"),
                         "--reference", "17976931348623157*10^292"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["records"][0]["status"] == "pass"
        assert report["sup_error"] == math.inf

    def test_newton_failure_is_an_error_record(self, tmp_path, capsys):
        # atan(p) never reaches u_x = 2
        text = SG_DEF.split("[bt]")[0] + "[bt]\nF = atan(p)\nG = -q\n"
        code, report = run(capsys, "propagate", write_def(tmp_path, text), "--seed-u", "2*x",
                           "--v0", "0", "--grid", "5,5", "--domain", "0,1,0,1",
                           "--out", str(tmp_path / "v.csv"))
        assert code == 1
        rec = report["records"][0]
        assert (rec["status"], rec["witness"]) == (
            "error", "Newton iteration for the v_x relation failed")
        assert list(tmp_path.iterdir()) == [tmp_path / "system.def"]

    def test_newton_march_writes_the_library_field(self, tmp_path, capsys):
        F, seed, grid = "p + 0.2*p^3", "3*x + sin(x*y)", pp.Grid(41, 31, 0.0, 2.0, 0.0, 1.0)
        text = SG_DEF.split("[bt]")[0] + f"[bt]\nF = {F}\nG = -q\n"
        out = tmp_path / "v.csv"
        code, report = run(capsys, "propagate", write_def(tmp_path, text), "--seed-u", seed,
                           "--v0", "0.5", "--grid", "41,31", "--domain", "0,2,0,1",
                           "--out", str(out))
        assert code == 0
        ch = bk.b_chart(params={"lam": 1.0})
        res = pp.bt_propagate(bk.build_wavelike(F, "-q", ch, ch.sample_spec(count=16)), seed,
                              0.5, grid)
        assert report["compatibility_residual"] == res.compatibility_residual
        assert out.read_bytes() == reference_csv(res.v)

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        code, _ = run(
            capsys,
            "propagate", write_def(tmp_path, SG_DEF),
            "--seed-u", "0", "--v0", "1",
            "--grid", "5x5", "--domain", "0,1,0,1",
            "--out", str(tmp_path / "v.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, grid, flags",
        [
            ("propagate", "2,2", ("--seed-u", "0", "--v0", "3.14", "--out")),
            ("propagate", "2,5", ("--seed-u", "0", "--v0", "3.14", "--out")),
            ("tzitzeica", "5,2", ("--out-hprime",)),
        ],
    )
    def test_grid_without_interior_is_usage_error(self, tmp_path, capsys, command, grid, flags):
        text = SG_DEF if command == "propagate" else TZ_DEF
        out = tmp_path / "field.csv"
        code = cli.main([command, write_def(tmp_path, text), "--grid", grid,
                         "--domain", "0,0.5,0,0.5", *flags, str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("edsbt: bad --grid/--domain: grid ")
        assert not out.exists()
        assert list(tmp_path.iterdir()) == [tmp_path / "system.def"]


    @pytest.mark.parametrize(
        "flag, text",
        [("--seed-u", "4*atan(exp("), ("--seed-u", "z"), ("--reference", "x+(")],
    )
    def test_bad_flag_expression_is_usage_error(self, tmp_path, capsys, flag, text):
        out = tmp_path / "v.csv"
        flags = {"--seed-u": "0", "--reference": "0", flag: text}
        code = cli.main(["propagate", write_def(tmp_path, SG_DEF), "--v0", "1",
                         "--grid", "5,5", "--domain", "0,1,0,1", "--out", str(out),
                         *(item for pair in flags.items() for item in pair)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"edsbt: bad {flag}: ")
        assert not out.exists()


    @pytest.mark.parametrize("flag, text, message", [
        ("--seed-u", "x/0", "division by constant zero"),
        ("--reference", "0^-1 + x", "zero to a negative power"),
    ])
    def test_constant_that_cannot_fold_in_a_flag_is_usage_error(self, tmp_path, capsys, flag,
                                                                text, message):
        out = tmp_path / "v.csv"
        flags = {"--seed-u": "0", "--reference": "0", flag: text}
        code = cli.main(["propagate", write_def(tmp_path, SG_DEF), "--v0", "1",
                         "--grid", "5,5", "--domain", "0,1,0,1", "--out", str(out),
                         *(item for pair in flags.items() for item in pair)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"edsbt: bad {flag}: {message}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "system.def"]


class TestPropagateAbort:
    """A propagate that does not pass writes no file and leaves no
    formatter child, whatever stage it stops in."""

    DIVERGING_DEF = SG_DEF.split("[bt]")[0] + "[bt]\nF = p\nG = -q + v^2\n"

    @pytest.fixture
    def forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        pids = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    def propagate(self, tmp_path, capsys, text, *flags):
        # the .tmp is open from before the march, and gone once it fails
        march, tmp_in_march = pp.bt_propagate, []

        def marching(*args, **kwargs):
            tmp_in_march.append((tmp_path / "v.csv.tmp").exists())
            return march(*args, **kwargs)

        with mock.patch.object(pp, "bt_propagate", marching):
            code = cli.main(["propagate", write_def(tmp_path, text), "--v0", "1", "--seed-u", "0",
                             "--out", str(tmp_path / "v.csv"), *flags])
        captured = capsys.readouterr()
        assert tmp_in_march == [True]
        assert list(tmp_path.iterdir()) == [tmp_path / "system.def"]  # no file, no .tmp
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code, captured

    def test_divergence_after_rows_were_posted(self, tmp_path, capsys, forks):
        # v_y = v^2 blows up near y = 1; the march posts every row first
        code, captured = self.propagate(tmp_path, capsys, self.DIVERGING_DEF,
                                        "--grid", "5,41", "--domain", "0,1,0,2")
        assert code == 1
        assert len(forks) == 2
        rec = json.loads(captured.out)["records"][0]
        assert (rec["status"], rec["witness"]) == ("error", "propagated state diverged on the grid")
        assert captured.err == ""

    def test_divergence_outranks_a_failing_reference(self, tmp_path, capsys, forks):
        # the reference fails on its first block, the march diverges later
        code, captured = self.propagate(tmp_path, capsys, self.DIVERGING_DEF,
                                        "--grid", "5,41", "--domain", "0,1,0,2",
                                        "--reference", "sqrt(x - 2)")
        assert code == 1
        assert len(forks) == 2
        rec = json.loads(captured.out)["records"][0]
        assert (rec["status"], rec["witness"]) == ("error", "propagated state diverged on the grid")
        assert captured.err == ""

    def test_root_solve_error_in_the_column_sweep(self, tmp_path, capsys, monkeypatch, forks):
        rk4_step = pp._rk4_step
        columns = []

        def failing_step(rhs, t, w, h):
            if np.ndim(w):
                columns.append(t)
                if len(columns) == 10:
                    raise pp.RootSolveError("v_x relation failed in column step 10")
            return rk4_step(rhs, t, w, h)

        monkeypatch.setattr(pp, "_rk4_step", failing_step)
        code, captured = self.propagate(tmp_path, capsys, SG_DEF,
                                        "--grid", "9,41", "--domain", "0,1,0,1")
        assert code == 1
        assert len(forks) == 2
        rec = json.loads(captured.out)["records"][0]
        assert (rec["status"], rec["witness"]) == ("error", "v_x relation failed in column step 10")

    def test_root_solve_error_in_the_residual_only(self, tmp_path, capsys, forks):
        # F_p = y - 0.5 vanishes on the row y = 0.5 alone: the march never
        # solves for v_x there, the compatibility residual does
        text = SG_DEF.replace("F = p + ", "F = p*(y - 0.5) + ")
        code, captured = self.propagate(tmp_path, capsys, text,
                                        "--grid", "9,41", "--domain", "0,1,0,2")
        assert code == 1
        assert len(forks) == 2
        rec = json.loads(captured.out)["records"][0]
        assert (rec["status"], rec["witness"]) == ("error", "|F_p| < 1e-06 where v_x is solved for")
        assert captured.err == ""

    def test_reference_that_raises(self, tmp_path, capsys, forks):
        code, captured = self.propagate(tmp_path, capsys, SG_DEF, "--grid", "9,9",
                                        "--domain", "0,1,0,1", "--reference", "sqrt(x - 2)")
        assert code == 1
        assert len(forks) == 2
        assert captured.out == ""
        assert captured.err == "edsbt: sqrt of a negative\n"

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failing_reference_reads_the_same_at_every_cpu_count(self, tmp_path, capsys,
                                                                 monkeypatch, cpus):
        # ln fails on the rows up to y = 0.05 and sqrt from y = 0.15 on; the
        # reference's blocks are set by the grid alone, and its first block
        # of 15 rows holds both failures, of which sqrt's is raised
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        code, captured = self.propagate(tmp_path, capsys, SG_DEF, "--grid", "61,61",
                                        "--domain", "0,1,0,1",
                                        "--reference", "sqrt(0.15 - y) + ln(y - 0.05)")
        assert code == 1
        assert captured.out == ""
        assert captured.err == "edsbt: sqrt of a negative\n"

    def test_reference_that_overflows(self, tmp_path, capsys, forks):
        # exp(1000*x) overflows from x = 0.725 on: the message names the
        # reference and its lowest non-finite node
        code, captured = self.propagate(tmp_path, capsys, SG_DEF, "--grid", "41,41",
                                        "--domain", "0,1,0,1", "--reference", "exp(1000*x)")
        assert code == 1
        assert len(forks) == 2
        assert captured.out == ""
        assert captured.err == ("edsbt: the reference is inf at node i=29, j=0, "
                                "(x, y) = (0.7250000000000001, 0.0)\n")

    def test_interrupt(self, tmp_path, capsys, monkeypatch, forks):
        # interrupted in the march, as the first block of v is compared
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pp.SupError, "add", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.propagate(tmp_path, capsys, SG_DEF, "--grid", "9,9", "--domain", "0,1,0,1",
                           "--reference", "0")
        assert list(tmp_path.iterdir()) == [tmp_path / "system.def"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(forks) == 2

    def test_unwritable_out(self, tmp_path, capsys, forks):
        # the .tmp is opened before the children are forked and the march runs
        out = tmp_path / "missing" / "v.csv"
        code = cli.main(["propagate", write_def(tmp_path, SG_DEF), "--v0", "1", "--seed-u", "0",
                         "--grid", "9,9", "--domain", "0,1,0,1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert forks == []
        assert captured.out == ""
        assert captured.err == f"edsbt: [Errno 2] No such file or directory: '{out}.tmp'\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "system.def"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_directory_out(self, tmp_path, capsys, monkeypatch, forks):
        # commit's rename onto a directory would fail: it is refused before the march
        out = tmp_path / "v.csv"
        out.mkdir()
        marches = []
        monkeypatch.setattr(pp, "bt_propagate", lambda *args, **kwargs: marches.append(args))
        code = cli.main(["propagate", write_def(tmp_path, SG_DEF), "--v0", "1", "--seed-u", "0",
                         "--grid", "9,9", "--domain", "0,1,0,1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert marches == []
        assert forks == []
        assert captured.out == ""
        assert captured.err == f"edsbt: [Errno 21] Is a directory: '{out}'\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "system.def", out]
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    @pytest.mark.parametrize("where", ["directory", "missing"])
    def test_bad_out_hprime_fails_before_the_march(self, tmp_path, capsys, monkeypatch, forks,
                                                   where):
        # tzitzeica opens its output before the march, as propagate does
        out = tmp_path / "hp.csv"
        if where == "directory":
            out.mkdir()
            message = f"[Errno 21] Is a directory: '{out}'"
        else:
            out = tmp_path / "missing" / "hp.csv"
            message = f"[Errno 2] No such file or directory: '{out}.tmp'"
        marches = []
        monkeypatch.setattr(pp, "tzitzeica_propagate", lambda *args, **kwargs: marches.append(args))
        code = cli.main(["tzitzeica", write_def(tmp_path, TZ_DEF), "--grid", "9,9",
                         "--domain", "0,0.5,0,0.5", "--out-hprime", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert marches == []
        assert forks == []
        assert captured.out == ""
        assert captured.err == f"edsbt: {message}\n"
        if where == "directory":
            assert sorted(tmp_path.iterdir()) == [tmp_path / "hp.csv", tmp_path / "system.def"]
            assert list(out.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [tmp_path / "system.def"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestTzitzeicaCommand:
    def test_fixed_point_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path / "hp.csv")
        code, report = run(
            capsys,
            "tzitzeica", write_def(tmp_path, TZ_DEF),
            "--grid", "41,41", "--domain", "0,0.5,0,0.5",
            "--out-hprime", out,
        )
        assert code == 0
        assert report["alpha_compatibility"] == 0.0
        assert report["beta_compatibility"] == 0.0
        assert report["singular_nodes"] == 0
        assert report["h_prime_max_residual"] == 0.0
        field = pp.read_field_csv(out)
        assert np.all(field.values == 1.0)

    def test_no_usable_node_skips_the_residual(self, tmp_path, capsys):
        # from alpha0 = beta0 = 0, h' = 2 alpha beta - 1 stays negative
        text = TZ_DEF.replace("alpha0 = 1", "alpha0 = 0").replace("beta0 = 1", "beta0 = 0")
        out = str(tmp_path / "hp.csv")
        code, report = run(capsys, "tzitzeica", write_def(tmp_path, text), "--grid", "21,21",
                           "--domain", "0,0.3,0,0.3", "--out-hprime", out)
        assert code == 0
        assert report["notes"] == "h' residual skipped: no usable interior nodes"
        assert "h_prime_max_residual" not in report and "h_prime_mean_residual" not in report
        assert report["singular_nodes"] == 0
        assert np.all(pp.read_field_csv(out).values < 0)

    def test_fixed_params_are_bound(self, tmp_path, capsys):
        # h names the [params] entry c
        text = TZ_DEF.replace("[tzitzeica]\nh = 1", "[params]\nc = 1.0\n\n[tzitzeica]\nh = c")
        out = tmp_path / "hp.csv"
        code, report = run(capsys, "tzitzeica", write_def(tmp_path, text),
                           "--grid", "41,41", "--domain", "0,0.5,0,0.5", "--out-hprime", str(out))
        assert code == 0
        assert report["records"][0]["status"] == "pass"
        assert report["h_prime_max_residual"] == 0.0
        assert np.all(pp.read_field_csv(str(out)).values == 1.0)

    def test_ranged_parameter_is_runtime_error(self, tmp_path, capsys):
        # h names the [params] entry c
        text = TZ_DEF.replace("[tzitzeica]\nh = 1", "[params]\nc = [0.5, 2]\n\n[tzitzeica]\nh = c")
        code, report = run(capsys, "tzitzeica", write_def(tmp_path, text),
                           "--grid", "5,5", "--domain", "0,0.5,0,0.5",
                           "--out-hprime", str(tmp_path / "hp.csv"))
        assert code == 1
        rec = report["records"][0]
        assert (rec["status"], rec["witness"]) == (
            "error", "parameter 'c' must be a fixed number for propagation")
        assert list(tmp_path.iterdir()) == [tmp_path / "system.def"]

    def test_degenerate_coupling_is_runtime_error(self, tmp_path, capsys):
        text = TZ_DEF.replace("lambda = 1", "lambda = 0")
        code, report = run(
            capsys,
            "tzitzeica", write_def(tmp_path, text),
            "--grid", "5,5", "--domain", "0,0.5,0,0.5",
            "--out-hprime", str(tmp_path / "hp.csv"),
        )
        assert code == 1
        assert report["records"][0]["status"] == "error"


class TestSlotTablePasses:
    """One slot table per sample point, and one validation per check."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        fn = getattr(bk, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(bk, name, counting)
        return calls

    def test_check(self, tmp_path, capsys, monkeypatch):
        tables = self.counted(monkeypatch, "_slot_table_at")
        passes = self.counted(monkeypatch, "validate_section")
        code, _ = run(capsys, "check", write_def(tmp_path, SG_DEF), "--samples", "8")
        assert code == 0
        assert len(tables) == 8
        assert len(passes) == 1

    def test_torsion(self, tmp_path, capsys, monkeypatch):
        tables = self.counted(monkeypatch, "_slot_table_at")
        code, report = run(capsys, "torsion", write_def(tmp_path, SG_DEF), "--samples", "8")
        assert code == 0
        assert report["points"] == 8
        assert len(tables) == 8


class TestClosureChecks:
    """build_wavelike builds the transformation alone; only `check` runs
    closure_checks."""

    def test_only_check_runs_them(self, tmp_path, capsys, monkeypatch):
        path = write_def(tmp_path, SG_DEF)
        out = tmp_path / "v.csv"
        others = [
            ["torsion", path, "--samples", "8"],
            ["classify", path, "--samples", "8"],
            ["propagate", path, "--v0", "1", "--seed-u", "0", "--grid", "9,9",
             "--domain", "0,1,0,1", "--out", str(out)],
        ]

        def runs():
            reports = [(cli.main(argv), capsys.readouterr()) for argv in others]
            return reports, out.read_bytes()

        before = runs()
        assert all(code == 0 for code, _ in before[0])

        def broken(bt, spec=None):
            raise RuntimeError("closure checks ran")

        monkeypatch.setattr(bk, "closure_checks", broken)
        assert runs() == before
        code = cli.main(["check", path, "--samples", "8"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "edsbt: closure checks ran\n"

    def test_check_records_them_last(self, tmp_path, capsys):
        code, report = run(capsys, "check", write_def(tmp_path, COUPLED_DEF), "--samples", "8")
        assert code == 1
        dropF, dropG = report["records"][-2:]
        assert (dropF["name"], dropG["name"]) == ("dropF_condition", "dropG_condition")
        assert dropF["status"] == dropG["status"] == "fail"
        assert dropF["max_violation"] > 1e-2 and dropG["max_violation"] > 1e-2
        assert dropF["witness"] and dropG["witness"]


class TestReproducibility:
    def test_identical_runs_identical_bytes(self, tmp_path, capsys):
        path = write_def(tmp_path, SG_DEF)
        cli.main(["check", path, "--samples", "8"])
        first = capsys.readouterr().out
        cli.main(["check", path, "--samples", "8"])
        second = capsys.readouterr().out
        assert first == second

    def test_env_seed_changes_samples(self, tmp_path, capsys, monkeypatch):
        path = write_def(tmp_path, SG_DEF)
        cli.main(["torsion", path, "--samples", "8"])
        base = capsys.readouterr().out
        monkeypatch.setenv("EDSBT_SEED", "5")
        cli.main(["torsion", path, "--samples", "8"])
        seeded = capsys.readouterr().out
        assert json.loads(seeded)["seed"] == 5
        assert base != seeded

    def test_flag_beats_env_beats_file(self, tmp_path, capsys, monkeypatch):
        path = write_def(tmp_path, SG_DEF + "\n[spec]\nseed = 9\n")
        _, report = run(capsys, "check", path, "--samples", "4")
        assert report["seed"] == 9
        monkeypatch.setenv("EDSBT_SEED", "5")
        _, report = run(capsys, "check", path, "--samples", "4")
        assert report["seed"] == 5
        _, report = run(capsys, "check", path, "--samples", "4", "--seed", "3")
        assert report["seed"] == 3

    def test_bad_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EDSBT_SEED", "soon")
        code, _ = run(capsys, "check", write_def(tmp_path, SG_DEF), "--samples", "4")
        assert code == 2

    def test_json_file_matches_stdout(self, tmp_path, capsys):
        path = write_def(tmp_path, SG_DEF)
        target = tmp_path / "report.json"
        cli.main(["check", path, "--samples", "8", "--json", str(target)])
        out = capsys.readouterr().out
        assert target.read_text() == out
        assert not (tmp_path / "report.json.tmp").exists()

    @pytest.mark.parametrize("target", ["missing/report.json", "taken"])
    def test_unwritable_json_file_is_one_stderr_line(self, tmp_path, capsys, target):
        # a directory that does not exist, and a directory in the file's place
        path = write_def(tmp_path, SG_DEF)
        (tmp_path / "taken").mkdir()
        before = sorted(tmp_path.iterdir())
        code = cli.main(["check", path, "--samples", "8", "--json", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("edsbt: ") and captured.err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before
        assert list((tmp_path / "taken").iterdir()) == []

    def test_spec_block_drives_defaults(self, tmp_path, capsys):
        path = write_def(tmp_path, SG_DEF + "\n[spec]\nsamples = 4\ntol = 1e-7\n")
        _, report = run(capsys, "check", path)
        assert report["samples"] == 4
        assert report["tol"] == 1e-7
        assert report["records"][0]["samples"] == 4


# Runs each argv of a JSON list through main() in this fresh process and
# prints the exit codes, the stderr of each run and the edsbt submodules
# the process ended up with.
_MODULES_CHILD = """\
import contextlib, io, json, sys
import edsbt.cli
runs = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        runs.append([edsbt.cli.main(argv), err.getvalue()])
modules = sorted(m for m in sys.modules if m.startswith("edsbt."))
print(json.dumps({"runs": runs, "modules": modules}))
"""


class TestStartupImports:
    """Each command imports only the modules it runs.  In-process tests
    cannot see this, because the test session has loaded every module, so
    each case runs in a fresh interpreter."""

    @pytest.mark.parametrize(
        "commands, code, modules",
        [
            ([["check", "BT"], ["torsion", "BT"], ["classify", "BT"]], 0, {"backlund"}),
            ([["hyperbolic", "MA"], ["check", "MA"]], 0, {"monge_ampere"}),
            ([["check", "TZ"]], 0, set()),
            ([["tzitzeica", "TZ", "--grid", "5,5", "--domain", "0,0.5,0,0.5",
               "--out-hprime", "OUT"]], 0, {"propagate"}),
            ([["check", "MISSING"]], 2, set()),
        ],
        ids=["bt", "ma", "tzitzeica-check", "tzitzeica", "usage-error"],
    )
    def test_command_loads_only_its_modules(self, tmp_path, commands, code, modules):
        files = {
            "BT": write_def(tmp_path, SG_DEF, "bt.def"),
            "MA": write_def(tmp_path, SG_MA_DEF, "ma.def"),
            "TZ": write_def(tmp_path, TZ_DEF, "tz.def"),
            "MISSING": str(tmp_path / "missing.def"),
            "OUT": str(tmp_path / "hprime.csv"),
        }
        argvs = [[files.get(a, a) for a in argv] + ["--samples", "8"] for argv in commands]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_CHILD, json.dumps(argvs)],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        for exit_code, stderr in result["runs"]:
            assert exit_code == code
            if code == 2:
                assert stderr.count("\n") == 1 and stderr.startswith("edsbt: ")
        expected = {"cli", "expr", "forms"} | modules
        assert set(result["modules"]) == {f"edsbt.{name}" for name in expected}
