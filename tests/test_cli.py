import json

import pytest

import gtrotor.cli as cli
from gtrotor.cli import run
from gtrotor.oracle import SignCalibrationFailed


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_patterns_json(capsys):
    code, out, _ = run_capture(capsys, ["patterns", "--weight", "1,0,-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 8
    assert payload["order"] == "l21,l22,l11-lex"
    assert len(payload["patterns"]) == 8
    assert payload["patterns"][0] == "[1 0 -1 / 0 -1 / -1]"


def test_patterns_deterministic(capsys):
    _, out1, _ = run_capture(capsys, ["patterns", "--weight", "2,0,-2"])
    _, out2, _ = run_capture(capsys, ["patterns", "--weight", "2,0,-2"])
    assert out1 == out2


def test_rep_matrix_json(capsys):
    code, out, _ = run_capture(
        capsys, ["rep-matrix", "--weight", "1,0,-1", "--element", "C2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["element"] == "C2"
    assert payload["entries"] == [[i, i, "6"] for i in range(8)]


def test_rep_matrix_csv(capsys):
    code, out, _ = run_capture(
        capsys,
        ["rep-matrix", "--weight", "2/3,-1/3,-1/3", "--element", "e21", "--format", "csv"],
    )
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 3 and all(len(r.split(",")) == 3 for r in rows)


def test_tau_matches_library(capsys):
    from gtrotor.gt_basis import HighestWeight, basis_for
    from gtrotor.numerics import format_rational
    from gtrotor.rotations import tau

    code, out, _ = run_capture(capsys, ["tau", "--weight", "1,0,-1"])
    assert code == 0
    payload = json.loads(out)
    t = tau(basis_for(HighestWeight.parse("1,0,-1")))
    expected = [
        [i, j, format_rational(v)] for (i, j), v in sorted(t.entries.items())
    ]
    assert payload["entries"] == expected


def test_sigma_paths_agree(capsys):
    """Formula and product print the same exact entries, cos = 0 included."""
    for weight, angles in (
        ("2/3,-1/3,-1/3", "3/5:4/5,0:1,3/5:4/5"),
        ("1,0,-1", "1:0,3/5:4/5,0:1"),
        ("2,0,-2", "1:0,3/5:4/5,5/13:12/13"),
    ):
        argv = ["sigma", f"--weight={weight}", f"--angles={angles}"]
        code, out_formula, _ = run_capture(capsys, argv + ["--path=formula"])
        assert code == 0
        _, out_product, _ = run_capture(capsys, argv + ["--path=product"])
        formula = json.loads(out_formula)
        product = json.loads(out_product)
        assert formula["entries"] == product["entries"]
        assert formula["angles"]["mode"] == "exact"
        assert formula["path"] == "formula"


def test_sigma_oracle_path_float(capsys):
    code, out, _ = run_capture(
        capsys,
        ["sigma", "--weight", "1,0,-1", "--angles", "rad=0.3,rad=1.1,rad=-0.4",
         "--path", "oracle"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["angles"]["mode"] == "float"


def test_sigma_formula_rejects_float_angles(capsys):
    code, out, err = run_capture(
        capsys,
        ["sigma", "--weight=1,0,-1", "--angles=rad=0.3,rad=1.1,rad=-0.4",
         "--path=formula"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "--path product" in err and "--path oracle" in err


def test_polys_eval_krawtchouk(capsys):
    code, out, _ = run_capture(
        capsys,
        ["polys", "eval", "--family", "krawtchouk", "--n", "1", "--x", "1",
         "--p", "1/2", "--N", "2"],
    )
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_polys_eval_racah(capsys):
    code, out, _ = run_capture(
        capsys,
        ["polys", "eval", "--family", "racah", "--n", "1", "--x", "1",
         "--alpha", "-4", "--beta", "-4", "--gamma", "-4", "--delta", "0"],
    )
    assert code == 0
    assert json.loads(out)["value"] == "5/9"


def test_polys_missing_params_is_usage_error(capsys):
    code, _, err = run_capture(
        capsys, ["polys", "eval", "--family", "krawtchouk", "--n", "1", "--x", "1"]
    )
    assert code == 2
    assert "error" in err


def test_bad_weight_is_domain_error(capsys):
    code, _, err = run_capture(capsys, ["patterns", "--weight", "2,1,-2"])
    assert code == 2
    assert "error" in err


def test_bad_angle_is_domain_error(capsys):
    code, _, err = run_capture(
        capsys, ["sigma", "--weight", "1,0,-1", "--angles", "1/2:1/2,0:1,0:1"]
    )
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_hilbert_command(capsys):
    code, out, _ = run_capture(capsys, ["hilbert", "--max-degree", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"][:4] == [1, 2, 6, 12]
    assert payload["status"] == "PASS"


def test_verify_small_suite(capsys):
    code, out, _ = run_capture(
        capsys, ["verify", "--suite", "hilbert", "--max-height", "2"]
    )
    assert code == 0
    assert "suite hilbert" in out and "PASS" in out


def test_verify_rep_height_two(capsys):
    code, out, _ = run_capture(
        capsys, ["verify", "--suite", "rep", "--max-height", "2", "--threads", "1"]
    )
    assert code == 0
    assert "FAIL" not in out


def test_tau_height_ten_succeeds(capsys):
    code, out, _ = run_capture(capsys, ["tau", "--weight=6,-2,-4"])
    assert code == 0
    assert json.loads(out)["weight"] == "6,-2,-4"


@pytest.mark.parametrize(
    "exc",
    [
        ArithmeticError("boom"),
        ZeroDivisionError("boom"),
        SignCalibrationFailed("boom"),
        MemoryError("boom"),
    ],
)
def test_internal_errors_exit_two_with_message(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_tau", fail)
    code, out, err = run_capture(capsys, ["tau", "--weight", "1,0,-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "boom" in err
    assert "Traceback" not in err


def test_verify_height_above_a_suite_cap_is_refused(capsys, monkeypatch):
    """--max-height above a suite's cap exits 2 naming the suite and its
    cap, before any suite runs."""
    import gtrotor.verify as verify

    def no_work(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "_pmap", no_work)
    for suite, height, cap in (("all", 6, 5), ("bispectral", 5, 4), ("rotations", 6, 5)):
        code, out, err = run_capture(
            capsys, ["verify", "--suite", suite, "--max-height", str(height)]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"capped at height {cap}" in err


def test_verify_all_defaults_to_acceptance_heights(capsys, monkeypatch):
    """Without --max-height each suite runs at its acceptance height and its
    summary line names it; a given height is not repeated there."""
    import gtrotor.verify as verify
    from gtrotor.reporting import Report

    ran = {}

    def fake(name):
        def run(max_height, threads):
            ran[name] = max_height
            report = Report(name)
            report.add("stub", None, True)
            return report

        return run

    for name in verify.ACCEPTANCE_HEIGHTS:
        monkeypatch.setitem(verify.SUITES, name, fake(name))
    code, out, _ = run_capture(capsys, ["verify", "--suite", "all"])
    assert code == 0
    assert ran == verify.ACCEPTANCE_HEIGHTS
    for name, height in verify.ACCEPTANCE_HEIGHTS.items():
        assert f"suite {name} up to height {height}: 1 checks, PASS" in out
    assert "suite hilbert: " in out

    code, out, _ = run_capture(capsys, ["verify", "--suite", "rep", "--max-height", "3"])
    assert code == 0 and ran["rep"] == 3
    assert out.splitlines()[-1] == "suite rep: 1 checks, PASS"


def test_sigma_float_angles_refused_above_height_cap(capsys):
    import time

    t0 = time.perf_counter()
    code, out, err = run_capture(
        capsys,
        ["sigma", "--weight=40,-20,-20", "--angles=rad=0.3,rad=0.7,rad=1.1"],
    )
    assert time.perf_counter() - t0 < 2
    assert code == 2
    assert out == ""
    assert "height 20" in err and "--path oracle" in err and "'s:c'" in err


def test_emit_streams_the_json_text(capsys):
    """Several 2^16-chunk slices join to exactly the text of json.dumps."""
    payload = {"entries": [[i, i + 1, f"{i}/7"] for i in range(20000)], "n": 1}
    cli._emit(payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
