"""End-to-end tests for the command-line interface.

Every test drives main(argv) directly and asserts on exit codes, stdout,
and the files written, so the process-level contract is covered without
spawning subprocesses.
"""

import json

import numpy as np
import pytest

from pwmlp import (
    DEFAULT_SLOPE,
    KnotGrid,
    TargetSamples,
    build_network,
    forward_grid,
    load_model,
)
from pwmlp.cli import build_parser, main
from pwmlp.targets import get_target


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_lists_methods_and_targets(capsys):
    code, out, err = run(capsys, "info")
    assert code == 0
    for token in ("constant", "linear-relu", "linear-ramp", "cubic",
                  "cubic-spaced", "sin2pi", "runge"):
        assert token in out
    assert "pwmlp" in err


def test_build_writes_model(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, text, _ = run(capsys, "build", "--method", "linear-ramp",
                        "--n", "8", "--target", "sin2pi",
                        "--out", str(out))
    assert code == 0
    assert "built linear-ramp n=8" in text
    doc = json.loads(out.read_text())
    assert doc["method"] == "linear-ramp"
    assert doc["n"] == 8
    assert len(doc["neurons"]) == 18


def test_build_requires_exactly_one_target_source(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _, err = run(capsys, "build", "--method", "constant", "--n", "4",
                       "--out", str(out))
    assert code == 2 and "target" in err
    csv = tmp_path / "t.csv"
    csv.write_text("x,f1\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
    code, _, err = run(capsys, "build", "--method", "constant", "--n", "2",
                       "--target", "affine", "--csv", str(csv),
                       "--out", str(out))
    assert code == 2 and "not both" in err


def test_eval_stdout_round_trips_model_outputs(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    run(capsys, "build", "--method", "cubic", "--n", "8",
        "--target", "runge", "--out", str(model_path))
    code, out, _ = run(capsys, "eval", str(model_path), "--grid", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y1"
    assert len(lines) == 10
    net = load_model(model_path.read_text())
    xs = np.linspace(0.0, 1.0, 9)
    expected = forward_grid(net, xs)[:, 0]
    for line, x, y in zip(lines[1:], xs, expected):
        cx, cy = line.split(",")
        # shortest round-trip formatting reproduces the doubles exactly
        assert float(cx) == x and float(cy) == y


def test_eval_explicit_point_list(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    run(capsys, "build", "--method", "constant", "--n", "4",
        "--target", "affine", "--out", str(model_path))
    code, out, _ = run(capsys, "eval", str(model_path),
                       "--grid", "0.125,0.625")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0.125", "0.625"]
    # piecewise constant holds the left-knot value of 2x + 1
    assert [float(r.split(",")[1]) for r in rows] == [1.0, 2.0]


def test_eval_to_file(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    run(capsys, "build", "--method", "linear-relu", "--n", "4",
        "--target", "affine", "--out", str(model_path))
    out_path = tmp_path / "vals.csv"
    code, out, _ = run(capsys, "eval", str(model_path), "--grid", "5",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("x,y1\n")


def test_eval_bad_inputs(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    run(capsys, "build", "--method", "constant", "--n", "2",
        "--target", "const1", "--out", str(model_path))
    code, _, err = run(capsys, "eval", str(model_path), "--grid", "0")
    assert code == 2 and "grid" in err
    code, _, err = run(capsys, "eval", str(model_path), "--grid", "abc")
    assert code == 2
    code, _, _ = run(capsys, "eval", str(tmp_path / "missing.json"),
                     "--grid", "5")
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{\"method\": \"constant\"}")
    code, _, err = run(capsys, "eval", str(bad), "--grid", "5")
    assert code == 3 and "error:" in err


def test_eval_rejects_tampered_model(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    run(capsys, "build", "--method", "linear-ramp", "--n", "2",
        "--target", "affine", "--out", str(model_path))
    doc = json.loads(model_path.read_text())
    doc["outputs"][0]["weights"].append(1.0)
    model_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "eval", str(model_path), "--grid", "3")
    assert code == 3
    assert "outputs[0].weights" in err


def test_eval_overflowing_model_exits_4_without_output(tmp_path, capsys):
    # one relu unit whose tap product overflows: the output is not a
    # number, which must end in exit 4, not in "0.5,nan" and exit 0
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps({
        "method": "linear-relu", "n": 1, "knots": {"n": 1},
        "neurons": [{"weight": 1e300, "bias": 0.0,
                     "activation": {"kind": "relu"}}],
        "outputs": [{"weights": [1e300], "bias": 0.0}],
    }))
    out_path = tmp_path / "vals.csv"
    code, out, err = run(capsys, "eval", str(model_path), "--grid", "0.5",
                         "--out", str(out_path))
    assert code == 4 and "x=0.5" in err
    assert out == "" and not out_path.exists()
    code, out, _ = run(capsys, "eval", str(model_path), "--grid", "0.5")
    assert code == 4 and out == ""


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--method", "linear-relu",
                       "--n", "32", "--target", "sin2pi")
    assert code == 0
    assert out.startswith("PASS linear-relu n=32")


def test_verify_all_methods_pass(capsys):
    for method in ("constant", "linear-ramp", "cubic", "cubic-spaced"):
        code, out, _ = run(capsys, "verify", "--method", method,
                           "--n", "16", "--target", "runge",
                           "--grid", "2001")
        assert code == 0, out
        assert out.startswith("PASS")


def test_verify_mismatched_reference_fails(capsys):
    code, out, _ = run(capsys, "verify", "--method", "constant",
                       "--n", "16", "--target", "sin2pi",
                       "--mismatch-oracle")
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--method", "cubic-spaced",
                       "--n", "7", "--target", "sin2pi")
    assert code == 2 and "even" in err
    code, _, err = run(capsys, "verify", "--method", "cubic", "--n", "8",
                       "--target", "sin2pi", "--slope", "0.9")
    assert code == 2


def test_build_from_csv_matches_builtin(tmp_path, capsys):
    n = 8
    grid = KnotGrid.uniform(n)
    fn = get_target("runge").fn
    csv_path = tmp_path / "samples.csv"
    lines = ["x,f1"]
    for x in grid.knots:
        lines.append("%r,%r" % (float(x), float(fn(x))))
    csv_path.write_text("\n".join(lines) + "\n")

    out_csv = tmp_path / "m_csv.json"
    out_builtin = tmp_path / "m_builtin.json"
    assert run(capsys, "build", "--method", "linear-ramp", "--n", str(n),
               "--csv", str(csv_path), "--out", str(out_csv))[0] == 0
    assert run(capsys, "build", "--method", "linear-ramp", "--n", str(n),
               "--target", "runge", "--out", str(out_builtin))[0] == 0
    assert out_csv.read_text() == out_builtin.read_text()


def test_csv_sample_errors(tmp_path, capsys):
    out = tmp_path / "m.json"
    short = tmp_path / "short.csv"
    short.write_text("x,f1\n0.0,1.0\n1.0,2.0\n")
    code, _, err = run(capsys, "build", "--method", "constant", "--n", "4",
                       "--csv", str(short), "--out", str(out))
    assert code == 2 and "N+1" in err

    shifted = tmp_path / "shifted.csv"
    shifted.write_text("x,f1\n0.0,1.0\n0.4,2.0\n1.0,3.0\n")
    code, _, err = run(capsys, "build", "--method", "constant", "--n", "2",
                       "--csv", str(shifted), "--out", str(out))
    assert code == 2 and "knots" in err

    garbled = tmp_path / "garbled.csv"
    garbled.write_text("x,f1\n0.0,one\n0.5,2.0\n1.0,3.0\n")
    code, _, err = run(capsys, "build", "--method", "constant", "--n", "2",
                       "--csv", str(garbled), "--out", str(out))
    assert code == 3 and "not a number" in err

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run(capsys, "build", "--method", "constant", "--n", "2",
                       "--csv", str(empty), "--out", str(out))
    assert code == 3


def test_convergence_outputs(tmp_path, capsys):
    prefix = str(tmp_path / "conv")
    code, out, _ = run(capsys, "convergence", "--method", "linear-ramp",
                       "--target", "sin2pi", "--n-list", "8,16,32",
                       "--grid", "2001", "--out", prefix)
    assert code == 0
    assert "fitted order" in out

    csv_lines = (tmp_path / "conv.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "n,h,sup_error,l2_error"
    assert len(csv_lines) == 4
    assert csv_lines[1].split(",")[0] == "8"

    doc = json.loads((tmp_path / "conv.json").read_text())
    assert doc["method"] == "linear-ramp"
    assert doc["n_values"] == [8, 16, 32]
    assert doc["zero_error"] is False
    assert 1.8 <= doc["fitted_order"] <= 2.2
    assert doc["r_squared"] > 0.97


def test_convergence_zero_error_path(tmp_path, capsys):
    prefix = str(tmp_path / "flat")
    code, out, _ = run(capsys, "convergence", "--method", "linear-relu",
                       "--target", "affine", "--n-list", "8,16,32",
                       "--grid", "2001", "--out", prefix)
    assert code == 0
    assert "zero error" in out
    doc = json.loads((tmp_path / "flat.json").read_text())
    assert doc["zero_error"] is True
    assert doc["fitted_order"] is None and doc["r_squared"] is None


def test_convergence_bad_n_list(tmp_path, capsys):
    code, _, err = run(capsys, "convergence", "--method", "constant",
                       "--target", "sin2pi", "--n-list", "8,x,32",
                       "--out", str(tmp_path / "c"))
    assert code == 2 and "n-list" in err


def test_fit_kernel_recovers_and_reports(tmp_path, capsys):
    n = 6
    grid = KnotGrid.uniform(n)
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(-1.0, 1.0, n + 1)
    samples = TargetSamples(grid, coeffs)
    net = build_network("linear-ramp", samples)
    xs = np.linspace(0.0, 1.0, 200)
    ys = forward_grid(net, xs)[:, 0]
    csv_path = tmp_path / "dense.csv"
    csv_path.write_text(
        "x,y\n" + "\n".join("%r,%r" % (float(x), float(y))
                            for x, y in zip(xs, ys)) + "\n"
    )
    out = tmp_path / "fit.json"
    code, text, _ = run(capsys, "fit-kernel", "triangle", "--n", str(n),
                        "--csv", str(csv_path), "--out", str(out))
    assert code == 0
    assert "rms residual" in text
    doc = json.loads(out.read_text())
    assert doc["kernel"] == "triangle" and doc["n"] == n
    assert np.max(np.abs(np.asarray(doc["omega"]) - coeffs)) <= 1e-8
    assert doc["rms_residual"] <= 1e-10


def test_fit_kernel_underdetermined(tmp_path, capsys):
    csv_path = tmp_path / "few.csv"
    csv_path.write_text("x,y\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
    code, _, err = run(capsys, "fit-kernel", "box", "--n", "8",
                       "--csv", str(csv_path),
                       "--out", str(tmp_path / "f.json"))
    assert code == 2 and "underdetermined" in err


def test_fit_kernel_missing_file(tmp_path, capsys):
    code, _, _ = run(capsys, "fit-kernel", "triangle", "--n", "4",
                     "--csv", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "f.json"))
    assert code == 3


def test_argparse_exits_are_mapped(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "teleport")[0] == 2
    assert run(capsys, "build", "--method", "nope", "--n", "4",
               "--target", "affine", "--out", "x.json")[0] == 2


def test_banner_goes_to_stderr_only(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    run(capsys, "build", "--method", "constant", "--n", "2",
        "--target", "const1", "--out", str(model_path))
    code, out, err = run(capsys, "eval", str(model_path), "--grid", "3")
    assert code == 0
    assert "pwmlp" in err
    assert "pwmlp" not in out


def test_slope_defaults_to_the_builders_slope():
    parser = build_parser()
    for argv in (["build", "--method", "cubic", "--n", "8", "--out", "m"],
                 ["verify", "--method", "cubic", "--n", "8"],
                 ["convergence", "--method", "cubic", "--target", "sin2pi",
                  "--n-list", "8,16,32", "--out", "c"],
                 ["fit-kernel", "cubic", "--n", "8", "--csv", "d.csv",
                  "--out", "f"]):
        assert parser.parse_args(argv).slope == DEFAULT_SLOPE
