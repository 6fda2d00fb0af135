import json
import math
import pathlib
import shlex
import warnings

import pytest

from expmoment import spectral
from expmoment.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VIOLATED,
    main,
)


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


def test_verify_all_quick(capsys, tmp_path):
    csv_path = tmp_path / "summary.csv"
    assert main(["verify", "all", "--quick", "--csv", str(csv_path)]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    checks = {json.loads(line)["check"] for line in out}
    assert {"theorem1", "lemma", "eq45", "sup_chain",
            "ingham_mordell", "bohr"} <= checks
    header = csv_path.read_text().splitlines()[0]
    assert header == "check,lhs,rhs,margin,passed"


@pytest.mark.parametrize("argv, named", [
    (["all", "--random", "0"], "--random"),
    (["theorem1", "--random", "-3"], "--random"),
    (["corollary", "--T", "0"], "half_width"),
])
def test_verify_out_of_range_is_invalid(argv, named, capsys):
    assert main(["verify", *argv]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


@pytest.mark.parametrize("rel_tol", ["nan", "inf"])
def test_moment_non_finite_rel_tol_is_invalid(rel_tol, capsys):
    assert main(["moment", "--inline", "a=1,1,0.9;phi=0,1,2.3", "--q", "1",
                 "--T", "10", "--engine", "quadrature",
                 "--rel-tol", rel_tol]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "rel_tol" in err


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


_HUGE = "a=1e200,1e200;phi=0,1.5"   # (sum a)^2 = 4e400
_EDGE = "a=5e149,4e149;phi=0,1.5"   # (sum a)^2 = 8.1e299
_TOP = "a=1e308,1e308;phi=0,1.5"    # sum a = 2e308


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
])
def test_out_of_range_amplitudes_are_invalid(argv, capsys):
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "exceeds 1e300; rescale the amplitudes" in err


def test_both_engines_agree_just_inside_the_range(capsys):
    # (sum a)^2 * 2T = 9.72e299, just under the 1e300 guard.
    assert main(["moment", "--inline", _EDGE, "--T", "0.6",
                 "--engine", "both"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert math.isfinite(float(rec["spectral_exact"]))
    assert float(rec["spectral_exact"]) > 7e299
    assert float(rec["disagreement"]) <= 1e-12


def test_verify_all_prints_strict_json(capsys):
    def refuse(name):
        raise ValueError(f"{name} in a report line")
    assert main(["verify", "all", "--random", "25", "--seed", "42"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 150
    for line in lines:
        json.loads(line, parse_constant=refuse)


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


def test_budget_exit_code(capsys):
    assert main(["zeta", "--nu", "3", "--N", "1000"]) == EXIT_BUDGET


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
