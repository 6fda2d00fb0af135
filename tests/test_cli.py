import argparse
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from expmoment import cli, spectral
from expmoment.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VIOLATED,
    build_parser,
    main,
)


# The environment of a subprocess that imports the package from src/.
_SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(pathlib.Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH")])))


@pytest.fixture
def two_tone(tmp_path):
    path = tmp_path / "two_tone.json"
    path.write_text(json.dumps({"amplitudes": [1.0, 1.0],
                                "frequencies": [0.0, 1.0]}))
    return str(path)


def test_moment_two_tone(two_tone, capsys):
    assert main(["moment", "--instance", two_tone, "--q", "1",
                 "--T", str(math.pi)]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    value = float(rec.get("spectral_exact") or rec.get("quadrature"))
    assert value == pytest.approx(2.0, rel=1e-9)


def test_moment_inline_single(capsys):
    assert main(["moment", "--inline", "a=1;phi=0", "--q", "5",
                 "--T", "1"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert float(rec["spectral_exact"]) == pytest.approx(1.0)


def test_moment_both_engines_reports_disagreement(two_tone, capsys):
    assert main(["moment", "--instance", two_tone, "--q", "2", "--T", "2.5",
                 "--engine", "both"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert "disagreement" in rec
    assert float(rec["disagreement"]) < 1e-9
    assert list(rec)[list(rec).index("error_estimate") + 1] == "error_kind"
    assert rec["error_kind"] == "truncation_bound"
    assert 0 < float(rec["error_estimate"]) <= 1e-9 * float(rec["quadrature"])


def test_moment_both_engines_disagreeing_is_violated(two_tone, monkeypatch,
                                                     capsys):
    exact = spectral.integral_exact
    monkeypatch.setattr(spectral, "integral_exact",
                        lambda expansion, window: 1.01 * exact(expansion, window))
    assert main(["moment", "--instance", two_tone, "--q", "2", "--T", "2.5",
                 "--engine", "both"]) == EXIT_VIOLATED
    rec = json.loads(capsys.readouterr().out)
    assert {"engine", "spectral_exact", "quadrature", "error_estimate",
            "error_kind", "disagreement"} <= set(rec)
    assert float(rec["disagreement"]) == pytest.approx(0.01 / 1.01, rel=1e-6)


def test_moment_output_reparses_exactly(two_tone, capsys):
    assert main(["moment", "--instance", two_tone, "--q", "1",
                 "--T", "1.7", "--engine", "quadrature"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    # 17 significant digits round-trip through float exactly
    v = float(rec["quadrature"])
    assert f"{v:.17g}" == rec["quadrature"]


def test_moment_at_huge_window(capsys):
    # At T = 1e8 the Gauss rule would need ~3e7 panels: auto runs spectral
    # and says why, and quadrature alone stops at max_panels.
    argv = ["moment", "--inline", "a=0.5,1,0.3;phi=0,1.3,-2.7", "--q", "3",
            "--T", "1e8"]
    assert main(argv) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["engine"] == "spectral"
    assert rec["auto"]["reason"] == "quadrature_over_max_panels"
    assert rec["auto"]["quadrature_price"] > rec["auto"]["spectral_price"]
    assert main(argv + ["--engine", "quadrature"]) == EXIT_NOT_CONVERGED
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("engine", ["quadrature", "both"])
@pytest.mark.parametrize("T", ["1e11", "1e15"])
def test_quadrature_refusal_past_the_double_range(T, engine, capsys):
    # The capped Gauss bound is past e^709 here: it is refused in logs,
    # exit 3, not an OverflowError.
    assert main(["moment", "--inline", "a=1,0.5;phi=0,1", "--q", "1",
                 "--T", T, "--engine", engine]) == EXIT_NOT_CONVERGED
    captured = capsys.readouterr()
    assert captured.out == "" and "not converged" in captured.err


def test_each_subcommand_has_exactly_its_options():
    # A new option needs an edit here, so no knob comes back unnoticed.
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: [s for a in p._actions for s in a.option_strings
                      if s not in ("-h", "--help")]
               for name, p in sub.choices.items()}
    assert options == {
        "moment": ["--instance", "--inline", "--q", "--T", "--center",
                   "--engine"],
        "verify": ["--instance", "--inline", "--random", "--seed", "--q", "--T",
                   "--T0", "--H", "--gamma", "--index", "--N", "--nu", "--quick"],
        "zeta": ["--nu", "--N", "--T", "--sweep", "--divisor-sum-only", "--x"],
        "plotdata": ["--instance", "--inline", "--q", "--tmin", "--tmax",
                     "--points"]}


def test_moment_missing_instance_is_invalid(capsys):
    assert main(["moment", "--T", "1"]) == EXIT_INVALID


def test_moment_bad_file_is_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"amplitudes": [-1.0], "frequencies": [0.0]}')
    assert main(["moment", "--instance", str(bad), "--T", "1"]) == EXIT_INVALID


def test_verify_seeded_campaign_reproducible(capsys):
    assert main(["verify", "theorem1", "--random", "5", "--seed", "7"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["verify", "theorem1", "--random", "5", "--seed", "7"]) == EXIT_OK
    assert capsys.readouterr().out == first
    lines = [json.loads(line) for line in first.strip().splitlines()]
    assert len(lines) == 5
    assert all(rec["passed"] for rec in lines)
    assert all(rec["seed"] == 7 for rec in lines)
    assert all(rec["auto"]["reason"] in ("integer_mode", "constant_modulus",
                                         "cheaper") for rec in lines)


def test_verify_eq45_single_instance(two_tone, capsys):
    assert main(["verify", "eq45", "--instance", two_tone, "--H", "50",
                 "--T", "10", "--q", "2"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["check"] == "eq45"
    assert rec["passed"]


def test_verify_all_quick(capsys):
    assert main(["verify", "all", "--quick"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    recs = [json.loads(line) for line in out]
    assert {"theorem1", "lemma", "eq45", "sup_chain",
            "ingham_mordell", "bohr"} <= {rec["check"] for rec in recs}
    # --quick caps only the case count: the sup chain still reaches T = 1000.
    assert all(rec["half_widths"] == [10.0, 100.0, 1000.0]
               for rec in recs if rec["check"] == "sup_chain")


_TWO = "a=1,0.5;phi=0,1"
_TINY = "a=1e-80,1e-80;phi=0,1.5"


@pytest.mark.parametrize("argv, named", [
    (["all", "--random", "0"], "--random"),
    (["theorem1", "--random", "-3"], "--random"),
    (["corollary", "--T", "0"], "half_width"),
    # Unrefused, the next eight crash, print a non-JSON error or pass silently.
    (["sup-chain", "--inline", _TWO, "--T", "1e308"], "2T finite"),
    (["sup-chain", "--inline", _TWO, "--T", "inf"], "2T finite"),
    (["sup-chain", "--inline", _TWO, "--T", "nan"], "2T finite"),
    (["sup-chain", "--inline", _TWO, "--T", "0"], "2T finite"),
    (["sup-chain", "--inline", _TWO, "--T", "-5"], "2T finite"),
    (["ingham", "--inline", _TWO, "--gamma", "nan"], "gap must be > 0"),
    (["ingham", "--inline", _TWO, "--gamma", "1e-320"], "pi/gap finite"),
    (["bohr", "--inline", "a=1,1;phi=1e-320,1", "--index", "1"], "t_max = inf"),
    # Phases t*phi, differences phi_m - phi_n or sinc arguments past the
    # double range: unrefused, each prints a non-JSON error.
    (["sup-chain", "--inline", "a=1,0.5;phi=0,1e10", "--T", "1e300"], "max|phi|"),
    (["sup-chain", "--inline", "a=1,0.5;phi=-1e308,1e308", "--T", "1e-3"],
     "max|phi|"),
    (["ingham", "--inline", "a=1,1;phi=0,1e300", "--gamma", "1e-10"], "max|phi|"),
    (["ingham", "--inline", "a=1,1;phi=-1e308,1e308", "--gamma", "1e300"],
     "max|phi|"),
    # A nonzero side below 2^-1022 has lost its relative precision: these
    # passed on lhs = rhs = 6.1288e-319, on 1.2e-318 <= 3.8e-318 and on
    # 1e-320 <= 2e-320.
    (["eq45", "--inline", _TINY, "--q", "2", "--T", "10"], "below 2^-1022"),
    (["lemma", "--inline", _TINY, "--q", "2", "--T", "10", "--T0", "3"],
     "below 2^-1022"),
    (["sup-chain", "--inline", "a=1e-320,1e-320;phi=0,1", "--T", "5"],
     "below 2^-1022"),
])
def test_verify_out_of_range_is_invalid(argv, named, capsys):
    assert main(["verify", *argv]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert named in err


@pytest.mark.parametrize("inline, lhs", [
    ("a=1e-75,1e-75;phi=0,1.5", 6.1288e-299), ("a=0,0;phi=0,1.5", 0.0)])
def test_verify_decides_a_normal_or_zero_side(inline, lhs, capsys):
    assert main(["verify", "eq45", "--inline", inline, "--q", "2", "--T", "10"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["passed"] and rec["lhs"] == pytest.approx(lhs, rel=1e-4)


def test_verify_corollary(capsys):
    assert main(["verify", "corollary", "--N", "5", "--nu", "1",
                 "--T", "100"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["check"] == "corollary"


def test_zeta_sweep(capsys):
    assert main(["zeta", "--nu", "1", "--sweep", "5:15:5",
                 "--T", "100"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,lhs,rhs,divisor_sum,passed"
    assert len(lines) == 4  # header + N in {5, 10, 15}


@pytest.mark.parametrize("sweep", ["10:5:1", "5:15:0", "10:20", "a:b:c", "1:2:3:4",
                                   "40.7:50:10", "inf:50:10"])
def test_zeta_empty_sweep_is_invalid(sweep, capsys):
    assert main(["zeta", "--nu", "1", "--sweep", sweep,
                 "--T", "100"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "--sweep" in err and "lo:hi:step" in err


def test_zeta_nonpositive_N_is_invalid(capsys):
    assert main(["zeta", "--nu", "2", "--N", "0", "--T", "100"]) == EXIT_INVALID


def test_zeta_divisor_sum_only(capsys):
    assert main(["zeta", "--nu", "2", "--divisor-sum-only",
                 "--x", "1e5"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["target"] == 4
    assert rec["slope"] > 0


def test_zeta_passes_import_no_lazy_numpy_module():
    # numpy.ma (first np.unique) and numpy.polynomial (leggauss) are
    # imported on first use, which would cost milliseconds inside a pass.
    script = (
        "import sys\n"
        "from expmoment.cli import main\n"
        "main(['zeta', '--divisor-sum-only', '--nu', '2', '--x', '1e4'])\n"
        "main(['zeta', '--nu', '2', '--sweep', '10:20:10', '--T', '1e2'])\n"
        "print(sorted({'numpy.ma', 'numpy.polynomial'} & set(sys.modules)))\n")
    run = subprocess.run([sys.executable, "-c", script], env=_SRC_ENV,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[]"


def test_zeta_divisor_sum_single_point_is_invalid():
    # --x 1e3 collapses the 15-point grid on [1e3, x] to a single x.
    assert main(["zeta", "--nu", "2", "--divisor-sum-only",
                 "--x", "1e3"]) == EXIT_INVALID


@pytest.mark.parametrize("x", ["500", "-5", "nan", "inf"])
def test_zeta_divisor_sum_x_out_of_range_is_invalid(x, capsys):
    # geomspace(1e3, x) would run downward below 1e3 or cast nan/inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["zeta", "--nu", "2", "--divisor-sum-only",
                     "--x", x]) == EXIT_INVALID
    assert "--x" in capsys.readouterr().err


def test_plotdata_two_tone(two_tone, capsys):
    assert main(["plotdata", "--instance", two_tone, "--q", "1",
                 "--tmin", str(-math.pi), "--tmax", str(math.pi),
                 "--points", "1001"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,power"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(vals) == 1001
    assert max(vals) == pytest.approx(4.0)
    assert vals == pytest.approx(vals[::-1])  # even in t


def test_plotdata_empty_grid_is_invalid(two_tone):
    assert main(["plotdata", "--instance", two_tone, "--tmin", "0",
                 "--tmax", "1", "--points", "0"]) == EXIT_INVALID


@pytest.mark.parametrize("tmin, tmax, points", [
    ("1", "0", "5"),     # reversed range
    ("0", "0", "2"),     # repeated point
    ("nan", "1", "5"),   # non-finite bound
])
def test_plotdata_bad_grid_is_invalid(two_tone, tmin, tmax, points):
    assert main(["plotdata", "--instance", two_tone, "--tmin", tmin,
                 "--tmax", tmax, "--points", points]) == EXIT_INVALID


def test_plotdata_single_point(capsys):
    assert main(["plotdata", "--inline", "a=1,1,1;phi=0,1,2", "--q", "1",
                 "--tmin", "0", "--tmax", "0", "--points", "1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["t,power", "0,9"]


def test_plotdata_overflow_is_invalid():
    # (sum a_n)^{2q} = (2e200)^4 leaves the double range.
    assert main(["plotdata", "--inline", "a=1e200,1e200;phi=0,1", "--q", "2",
                 "--tmin", "0", "--tmax", "1", "--points", "3"]) == EXIT_INVALID


def test_plotdata_past_the_term_budget(monkeypatch, capsys):
    # 1e12 points x 2 terms: the points x N array would take 32 TB.  It is
    # refused before np.linspace builds the grid.
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")
    monkeypatch.setattr(cli.np, "linspace", no_grid)
    assert main(["plotdata", "--inline", "a=1,1;phi=0,1", "--tmin", "0",
                 "--tmax", "1", "--points", "1000000000000"]) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert str(spectral.DEFAULT_TERM_BUDGET) in err


_HUGE = "a=1e200,1e200;phi=0,1.5"   # (sum a)^2 = 4e400
_EDGE = "a=5e149,4e149;phi=0,1.5"   # (sum a)^2 = 8.1e299
_TOP = "a=1e308,1e308;phi=0,1.5"    # sum a = 2e308
# sum a = 4e299 is inside the guard, but Bohr's rhs sup|S| / (cosine product
# 7.7e-12) is not.
_BOHR = "a=1e299,1e299,1e299,1e299;phi=1,1.0001,1.0002,1.0003"


@pytest.mark.parametrize("argv", [
    ["moment", "--inline", _HUGE, "--T", "1"],
    ["moment", "--inline", _HUGE, "--T", "1", "--engine", "spectral"],
    ["moment", "--inline", _HUGE, "--T", "1", "--engine", "both"],
    ["moment", "--inline", _HUGE, "--T", "1", "--engine", "quadrature"],
    ["verify", "lemma", "--inline", _HUGE, "--T", "1"],
    ["moment", "--inline", _EDGE, "--T", "1e9"],
    ["moment", "--inline", _EDGE, "--T", "1e9", "--engine", "quadrature"],
    ["verify", "theorem1", "--inline", _EDGE, "--T", "1e12"],
    ["verify", "eq45", "--inline", _EDGE, "--T", "2e9"],
    ["verify", "sup-chain", "--inline", _TOP],
    ["verify", "ingham", "--inline", _TOP],
    ["verify", "bohr", "--inline", "a=1e308,1e308;phi=1,1.5"],
    ["plotdata", "--inline", _TOP, "--tmin", "0", "--tmax", "1", "--points", "3"],
    ["moment", "--inline", _TOP, "--T", "1"],
    ["verify", "bohr", "--inline", _BOHR, "--index", "2"],
])
def test_out_of_range_amplitudes_are_invalid(argv, capsys):
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "exceeds 1e300; rescale the amplitudes" in err


_BIG_PHI = "a=1,1;phi=0,1e300"


@pytest.mark.parametrize("argv", [
    ["moment", "--inline", _BIG_PHI, "--T", "1e10"],
    ["moment", "--inline", _BIG_PHI, "--T", "1e10", "--engine", "quadrature"],
    ["moment", "--inline", _BIG_PHI, "--T", "1e10", "--engine", "spectral"],
    ["moment", "--inline", _BIG_PHI, "--T", "1e10", "--engine", "both"],
    ["moment", "--inline", "a=1,1;phi=0,1", "--T", "1", "--center", "1e308"],
    ["verify", "theorem1", "--inline", _BIG_PHI, "--T", "1e10"],
    ["verify", "eq45", "--inline", _BIG_PHI, "--T", "1e10"],
    ["plotdata", "--inline", _BIG_PHI, "--tmin", "0", "--tmax", "1e10", "--points", "3"],
])
def test_out_of_range_phases_are_invalid(argv, capsys):
    # Phases t phi_n past the double range: unrefused, auto and quadrature
    # raised an untyped OverflowError (a traceback), and spectral and
    # plotdata printed nan.
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert "max|phi| is out of range" in err and "rescale the frequencies" in err


@pytest.mark.parametrize("inline", ["a=1,2,3,4,5;phi=0,0.7,1.9,3.1,4.6",
                                    "a=1e-3,2e-3;phi=0,0.7"])
def test_theorem1_lhs_outside_the_normal_range_is_invalid(inline, capsys):
    # (1/3)(sum a^2)^200 overflows (it was an untyped OverflowError, exit 1)
    # or underflows to 0 (it passed on lhs = rhs = 0).
    assert main(["verify", "theorem1", "--inline", inline, "--q", "200",
                 "--T", "10"]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert "outside [2^-1022, inf); rescale the amplitudes" in err


def test_phases_just_inside_the_range(capsys):
    # 2 max|phi| T = 2e307 is finite: auto runs spectral, and the far mode
    # pair adds 2 sin(T d)/(T d), at most 2e-307, to the average 2.
    assert main(["moment", "--inline", _BIG_PHI, "--T", "1e7"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["engine"] == "spectral"
    assert float(rec["spectral_exact"]) == 2.0


def test_form_phase_refusal_names_what_it_checked(capsys):
    # The form checks the modes of S^3 at q = 1; the message said "q = 1".
    argv = ["moment", "--inline", _BIG_PHI, "--T", "1e10", "--q", "3"]
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert "q = 1" not in err and "the mode frequencies of S^q" in err


def test_auto_price_stops_past_max_panels(capsys):
    # T B / 13 is about 7.7e298 panels: the price was a 300-digit integer.
    # Every count past max_panels takes the same branch, so it is capped there.
    assert main(["moment", "--inline", "a=0,0;phi=0.5,1e300", "--T", "1"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert (rec["engine"], rec["auto"]["reason"]) == ("quadrature", "constant_modulus")
    assert rec["auto"]["quadrature_price"] < 16 * 2 * (2 ** 20 + 1) * 2


def test_moment_at_tiny_amplitudes(capsys):
    # (sum a)^2 = 4e-316 is subnormal: the tolerance 1e-15 (sum a)^2 * 2T
    # underflowed to 0, and quadrature died of log(0) with exit 2.
    assert main(["moment", "--inline", "a=1e-158,1e-158;phi=0,1.5", "--T", "10",
                 "--engine", "quadrature"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert float(rec["quadrature"]) == pytest.approx(2.0867050455151474e-316, rel=1e-6)


def test_quadrature_where_the_panel_ratio_underflows(capsys):
    # half / widest panel = 1e-25 / 1e290 underflows to 0 panels, and the
    # rule died of a ZeroDivisionError; one panel holds the average 4 exactly.
    assert main(["moment", "--inline", "a=1,1;phi=0,1e-300", "--T", "1e-25",
                 "--engine", "quadrature"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert float(rec["quadrature"]) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["verify", "theorem1", "--inline", "a=1,1;phi=0,1.5", "--T", "5e-324"],
    ["moment", "--inline", "a=1,1;phi=0,1.5", "--T", "1e-315", "--engine", "spectral"],
    ["verify", "eq45", "--inline", "a=1,1;phi=0,1.5", "--T", "5e-324"],
])
def test_subnormal_half_widths_are_invalid(argv, capsys):
    # The average tends to 4 as T -> 0.  Unrefused, theorem1 passed with rhs 5,
    # spectral printed 4.0000000049406568 and eq45 died of a ZeroDivisionError.
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "2^-1022" in err


def _refuse_constant(name):  # json's hook for NaN, Infinity and -Infinity
    raise ValueError(f"{name} in a report line")


@pytest.mark.parametrize("argv", [
    ["verify", "sup-chain", "--inline", _HUGE],
    ["verify", "bohr", "--inline",
     "a=1e280,1e280,1e280,1e280;phi=1,1.0001,1.0002,1.0003", "--index", "2"],
])
def test_power_one_checks_past_the_energy_overflow(argv, capsys):
    # sum a_n^2 overflows, but these checks only need sum a_n <= 1e300.
    assert main(argv) == EXIT_OK
    rec = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert rec["passed"] and rec["instance"]["energy"] is None


def test_both_engines_agree_just_inside_the_range(capsys):
    # (sum a)^2 * 2T = 9.72e299, just under the 1e300 guard.
    assert main(["moment", "--inline", _EDGE, "--T", "0.6",
                 "--engine", "both"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert math.isfinite(float(rec["spectral_exact"]))
    assert float(rec["spectral_exact"]) > 7e299
    assert float(rec["disagreement"]) <= 1e-12


def test_verify_all_prints_strict_json(capsys):
    assert main(["verify", "all", "--random", "25", "--seed", "42"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 150
    for line in lines:
        json.loads(line, parse_constant=_refuse_constant)


def test_moment_large_frequency_keeps_distinct_modes(capsys):
    # A merge tolerance of 2 once joined the modes at 0 and 1.5 and refused.
    assert main(["moment", "--inline", "a=1,1,1;phi=0,1.5,2000000000.5",
                 "--q", "1", "--T", "10"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert float(rec["spectral_exact"]) == pytest.approx(3.0867050453797953,
                                                         rel=1e-12)


def test_moment_wide_float_merge_is_invalid(capsys):
    # Next to 2^60 the modes at 0 and 1e-3 merge; the window refuses them.
    assert main(["moment", "--inline", "a=1,1,1;phi=0,0.001,1152921504606846976",
                 "--q", "1", "--T", "10"]) == EXIT_INVALID
    assert "integral_exact" in capsys.readouterr().err


@pytest.mark.parametrize("T", ["1e12", "1e15"])
def test_moment_fold_rounding_is_invalid(capsys, T):
    # The q = 2 modes of these float phases are off by rounding; over
    # |t| <= T that moves their phases past the engines' agreement.
    assert main(["moment", "--inline", "a=1,1,1,1;phi=0.1,0.2,0,0.30000000000000204",
                 "--q", "2", "--T", T]) == EXIT_INVALID
    assert "fold rounding" in capsys.readouterr().err


def test_budget_exit_code(capsys):
    assert main(["zeta", "--nu", "3", "--N", "1000"]) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert f"1000000000 entries exceeds budget {spectral.DEFAULT_TERM_BUDGET}" in err


@pytest.mark.parametrize("argv, code", [
    (["zeta", "--N", "0"], EXIT_INVALID),
    (["zeta", "--nu", "0", "--N", "5"], EXIT_INVALID),
    (["zeta", "--nu", "2", "--N", "5", "--T", "-3"], EXIT_INVALID),
    # N = 10 passes and N = 1000 needs 10^9 entries.
    (["zeta", "--nu", "3", "--sweep", "10:1000:990"], EXIT_BUDGET),
])
def test_refused_zeta_prints_no_csv(argv, code, capsys):
    # Every row is computed before the header, so a refusal anywhere in a
    # sweep leaves no partial CSV.
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv, code", [
    (["zeta", "--nu", "3", "--N", "1000"], EXIT_BUDGET),
    (["moment", "--inline", "a=1;phi=0", "--T", "1"], EXIT_OK),
    (["zeta", "--nu", "2", "--N", "10", "--T", "100"], EXIT_OK),
    (["moment", "--T", "1"], EXIT_INVALID),  # no instance given
])
def test_console_entry_exit_codes(argv, code, capsys):
    # python -m expmoment.cli runs cli.entry, as the installed script does,
    # and exits with main's code after printing what main prints in process.
    run = subprocess.run([sys.executable, "-m", "expmoment.cli", *argv], env=_SRC_ENV,
                         capture_output=True, text=True)
    assert run.returncode == main(argv) == code
    assert run.stdout == capsys.readouterr().out
    if code == EXIT_OK:
        assert run.stdout and run.stderr == ""
    else:
        assert run.stdout == "" and run.stderr.startswith("error: ")


@pytest.mark.parametrize("engine", ["spectral", "both"])
def test_moment_past_the_mode_pair_budget(engine, tmp_path, capsys):
    # 200 generic frequencies: S^2 has C(201, 2) = 20,100 modes, and their
    # 20,100^2 pairs pass the 10^8 budget shared with tables and grids.
    wide = tmp_path / "wide.json"
    rng = np.random.default_rng(0)
    wide.write_text(json.dumps({"amplitudes": [1.0] * 200,
                                "frequencies": rng.uniform(-1e3, 1e3, 200).tolist()}))
    assert main(["moment", "--instance", str(wide), "--q", "2", "--T", "1",
                 "--engine", engine]) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert f"20100^2 mode pairs exceed budget {spectral.DEFAULT_TERM_BUDGET}" in err


def test_sup_chain_at_huge_window_passes(capsys):
    # The L1 sides and sup |S| = S(0) are closed forms at any T.
    assert main(["verify", "sup-chain", "--inline", "a=1,0.5;phi=0,1",
                 "--T", "1e7"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert rec["passed"] and rec["sup"] == 1.5
    assert rec["lower_bounds"][0] <= rec["upper_bounds"][0] <= rec["sup"]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # Every command of the README's CLI section exits 0, so a renamed
    # subcommand or flag fails here; inst.json is the file it names.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line)[1:] for line in section.splitlines()
                if line.startswith("expmoment ")]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.json").write_text(json.dumps({"amplitudes": [1.0, 0.5],
                                                    "frequencies": [0.0, 1.0]}))
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
        capsys.readouterr()
