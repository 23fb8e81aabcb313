"""End-to-end tests for the command-line interface.

Every test drives main(argv) directly and asserts on exit codes, stdout,
and the files written, so the process-level contract is covered without
spawning subprocesses.
"""

import base64
import csv
import io
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from format1 import format1_text, network_bytes
from format2 import format2_text

from pwmlp import (
    DEFAULT_SLOPE,
    METHODS,
    KernelKind,
    KnotGrid,
    TargetSamples,
    build_network,
    fit_kernel_weights,
    forward_grid,
    load_model,
    save_model,
)
from pwmlp import cli
from pwmlp.cli import build_parser, main
from pwmlp.targets import get_target
from test_network import FORMAT3_FAULTS, tampered


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_lists_methods_and_targets(capsys):
    code, out, err = run(capsys, "info")
    assert code == 0
    # each method and target heads a line of its own
    listed = {line.split()[0] for line in out.splitlines()
              if line.startswith("  ")}
    assert set(METHODS) | {"sin2pi", "runge"} <= listed
    assert "pwmlp" in err


def test_build_writes_model(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, text, _ = run(capsys, "build", "--method", "linear-ramp",
                        "--n", "8", "--target", "sin2pi",
                        "--out", str(out))
    assert code == 0
    assert "built linear-ramp n=8" in text
    doc = json.loads(out.read_text())
    assert doc["format"] == 3
    assert doc["method"] == "linear-ramp"
    assert doc["n"] == 8
    # 8 bytes per unit
    assert len(base64.b64decode(doc["weight"])) == 8 * 18
    assert len(base64.b64decode(doc["group"])) == 8 * 18
    assert [len(base64.b64decode(c)) for c in doc["taps"]] == [8 * 18]
    # the same network in format 2: one JSON number per unit
    net = load_model(out.read_text())
    doc = json.loads(format2_text(net))
    assert len(doc["weight"]) == len(doc["group"]) == 18
    assert [len(column) for column in doc["taps"]] == [18]
    assert network_bytes(load_model(json.dumps(doc))) == network_bytes(net)
    # and in format 1: one object per neuron
    doc = json.loads(format1_text(net))
    assert doc["method"] == "linear-ramp"
    assert doc["n"] == 8
    assert len(doc["neurons"]) == 18
    assert network_bytes(load_model(json.dumps(doc))) == network_bytes(net)


def test_readme_model_example_is_what_build_writes(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    example = re.search(r"\n## Model JSON\n.*?\n```json\n(.*?)```\n", readme,
                        re.S).group(1)
    assert save_model(load_model(example)) == example
    out = tmp_path / "m.json"
    code, _, _ = run(capsys, "build", "--method", "linear-ramp", "--n", "2",
                     "--target", "sin2pi", "--out", str(out))
    assert code == 0 and out.read_text() == example


def test_readme_quickstart_runs(capsys):
    # every python block, the Library quickstart among them, names only
    # what the package exports and runs as written; only the quickstart
    # prints
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    blocks = re.findall(r"\n```python\n(.*?)```\n", readme, re.S)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % i, "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and abs(float(printed[0]) - 1.99) < 0.01


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
    # a list token that is not a number is named; an empty list is refused
    for spec, named in (("0.5,abc", "'abc'"), (",", "empty evaluation grid")):
        code, out, err = run(capsys, "eval", str(model_path), "--grid", spec)
        assert (code, out) == (2, "") and named in err
    code, _, _ = run(capsys, "eval", str(tmp_path / "missing.json"),
                     "--grid", "5")
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{\"method\": \"constant\"}")
    code, _, err = run(capsys, "eval", str(bad), "--grid", "5")
    assert code == 3 and "error:" in err
    bad.write_bytes(b'{"format": 2, "method": "\xff"}')
    code, out, err = run(capsys, "eval", str(bad), "--grid", "5")
    assert (code, out) == (3, "") and "Traceback" not in err
    assert "error: %s: not UTF-8 text" % bad in err
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "eval", str(bad), "--grid", "5")
    assert (code, out) == (3, "") and "Traceback" not in err


def _built_model(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    run(capsys, "build", "--method", "linear-ramp", "--n", "2",
        "--target", "affine", "--out", str(model_path))
    return model_path


def _eval_error(capsys, model_path, doc):
    model_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", str(model_path), "--grid", "3")
    assert code == 3 and out == "" and "Traceback" not in err
    return err


def test_eval_rejects_tampered_model(tmp_path, capsys):
    model_path = _built_model(tmp_path, capsys)
    doc = json.loads(format1_text(load_model(model_path.read_text())))
    doc["outputs"][0]["weights"].append(1.0)
    assert "outputs[0].weights" in _eval_error(capsys, model_path, doc)


def test_eval_rejects_tampered_format2_model(tmp_path, capsys):
    model_path = _built_model(tmp_path, capsys)
    doc = json.loads(format2_text(load_model(model_path.read_text())))
    doc["taps"][0].append(1.0)
    assert "taps[0]" in _eval_error(capsys, model_path, doc)


@pytest.mark.parametrize("fault", FORMAT3_FAULTS)
def test_eval_rejects_bad_format3_model(tmp_path, capsys, fault):
    model_path = _built_model(tmp_path, capsys)
    text = model_path.read_text()
    for field, edit, pattern in FORMAT3_FAULTS[fault]:
        err = _eval_error(capsys, model_path,
                          tampered(json.loads(text), field, edit))
        message = err.splitlines()[-1]
        assert message.startswith("error: ")
        assert re.search(pattern, message[len("error: "):]), err


def test_eval_huge_integer_in_model_exits_3(tmp_path, capsys):
    # float(10 ** 400) raises OverflowError, not a package error
    model_path = _built_model(tmp_path, capsys)
    text = model_path.read_text()
    doc = json.loads(format2_text(load_model(text)))
    doc["bias"][2] = 10 ** 400
    assert "bias[2]" in _eval_error(capsys, model_path, doc)
    doc = json.loads(format1_text(load_model(text)))
    doc["neurons"][2]["weight"] = -10 ** 400
    assert "neurons[2].weight" in _eval_error(capsys, model_path, doc)


def test_eval_overflowing_model_exits_4_without_output(tmp_path, capsys):
    # one relu unit whose tap product overflows: the output is not a
    # number, which must end in exit 4, not in "0.5,nan" and exit 0
    model_path = tmp_path / "m.json"
    v1 = {"method": "linear-relu", "n": 1, "knots": {"n": 1},
          "neurons": [{"weight": 1e300, "bias": 0.0,
                       "activation": {"kind": "relu"}}],
          "outputs": [{"weights": [1e300], "bias": 0.0}]}
    v2 = {"format": 2, "method": "linear-relu", "n": 1,
          "acts": [{"kind": "relu"}], "group": [0], "weight": [1e300],
          "bias": [0.0], "taps": [[1e300]], "tap_bias": [0.0]}
    v3 = json.loads(save_model(load_model(json.dumps(v2))))
    for doc in (v1, v2, v3):
        model_path.write_text(json.dumps(doc))
        out_path = tmp_path / "vals.csv"
        code, out, err = run(capsys, "eval", str(model_path), "--grid",
                             "0.5", "--out", str(out_path))
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


def test_verify_mismatched_reference_fails(capsys, monkeypatch):
    # negative control: compare against the wrong model
    wrong = cli.matching_oracle
    monkeypatch.setattr(cli, "matching_oracle", lambda method, *args:
                        wrong("linear-relu", *args))
    code, out, _ = run(capsys, "verify", "--method", "constant",
                       "--n", "16", "--target", "sin2pi")
    assert code == 1
    assert out.startswith("FAIL")


# numpy refuses these counts as too large (ValueError), out of its index
# range (IndexError) and past any address space (MemoryError) before it
# allocates anything.
_REFUSED_COUNTS = (10**20, 2**63 - 1, 2**59)


@pytest.mark.parametrize("count", _REFUSED_COUNTS)
def test_eval_refused_grid_count_exits_2(tmp_path, capsys, count):
    model_path = _built_model(tmp_path, capsys)
    out_path = tmp_path / "vals.csv"
    code, out, err = run(capsys, "eval", str(model_path), "--grid",
                         str(count), "--out", str(out_path))
    assert code == 2 and out == ""
    assert str(count) in err and "Traceback" not in err
    assert not out_path.exists()


def test_verify_refused_grid_count_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--method", "constant", "--n", "4",
                         "--target", "sin2pi", "--grid", str(10**20))
    assert code == 2 and out == ""
    assert str(10**20) in err


@pytest.mark.parametrize("n", [10**19, 10**21, 2**63 - 2, 2**63 - 1])
def test_refused_knot_count_exits_2(tmp_path, capsys, n):
    # numpy refuses the first two counts before it allocates anything,
    # and returns no knots for the two near 2**63
    csv_path = tmp_path / "dense.csv"
    csv_path.write_text("x,y\n0,0\n1,1\n")
    for argv in (["build", "--method", "constant", "--target", "sin2pi",
                  "--out", str(tmp_path / "m.json")],
                 ["verify", "--method", "constant", "--target", "sin2pi"],
                 ["fit-kernel", "box", "--csv", str(csv_path),
                  "--out", str(tmp_path / "fit.json")]):
        code, out, err = run(capsys, *argv, "--n", str(n))
        assert code == 2 and out == "", argv
        assert "knot grid of n = %d cannot be made" % n in err, argv
        assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("command", ["build", "verify", "fit-kernel"])
def test_zero_knot_count_exits_2(tmp_path, capsys, command):
    csv_path = tmp_path / "dense.csv"
    csv_path.write_text("x,y\n0,0\n1,1\n")
    out_path = tmp_path / "out.json"
    argv = {
        "build": ["build", "--method", "constant", "--target", "sin2pi",
                  "--out", str(out_path)],
        "verify": ["verify", "--method", "constant", "--target", "sin2pi"],
        "fit-kernel": ["fit-kernel", "box", "--csv", str(csv_path),
                       "--out", str(out_path)],
    }[command]
    code, out, err = run(capsys, *argv, "--n", "0")
    assert code == 2 and out == ""
    assert "n >= 1" in err and "Traceback" not in err
    assert not out_path.exists()


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--method", "cubic-spaced",
                       "--n", "7", "--target", "sin2pi")
    assert code == 2 and "even" in err
    code, _, err = run(capsys, "verify", "--method", "cubic", "--n", "8",
                       "--target", "sin2pi", "--slope", "0.9")
    assert code == 2
    for tol in ("nan", "-1e-9"):
        code, out, err = run(capsys, "verify", "--method", "linear-ramp",
                             "--n", "8", "--target", "sin2pi", "--tol=" + tol)
        assert code == 2 and out == "" and "tolerance" in err


@pytest.mark.parametrize("method", METHODS)
def test_slope_out_of_range_exits_2_for_every_method(tmp_path, capsys,
                                                     method):
    out_path = tmp_path / "m.json"
    for slope in ("-7", "0.9", "nan"):
        code, out, err = run(capsys, "build", "--method", method, "--n", "4",
                             "--target", "sin2pi", "--slope", slope,
                             "--out", str(out_path))
        assert code == 2 and "outside [0, 0.75]" in err
        assert out == "" and not out_path.exists()
        code, out, err = run(capsys, "verify", "--method", method, "--n", "4",
                             "--target", "sin2pi", "--slope", slope)
        assert code == 2 and out == "" and "outside [0, 0.75]" in err
        prefix = tmp_path / "conv"
        code, out, err = run(capsys, "convergence", "--method", method,
                             "--target", "sin2pi", "--n-list", "4,8,16",
                             "--slope", slope, "--out", str(prefix))
        assert code == 2 and out == "" and "outside [0, 0.75]" in err
        assert list(tmp_path.glob("conv*")) == []


def _write_samples(path, values):
    grid = KnotGrid.uniform(len(values) - 1)
    path.write_text("x,f1\n" + "".join(
        "%r,%r\n" % (float(x), float(v)) for x, v in zip(grid.knots, values)))


_ALTERNATING = (-1.0) ** np.arange(65)


@pytest.mark.parametrize("method,values", [
    ("constant", 1e308 * _ALTERNATING),
    ("linear-relu", 1e307 * np.sin(2.0 * np.pi * KnotGrid.uniform(64).knots)),
    ("cubic-spaced", np.full(65, 1e308)),
    ("cubic", 1e307 * _ALTERNATING),
])
def test_build_overflow_exits_4_without_model(tmp_path, capsys, method,
                                              values):
    csv_path = tmp_path / "samples.csv"
    _write_samples(csv_path, values)
    out = tmp_path / "m.json"
    code, text, err = run(capsys, "build", "--method", method, "--n", "64",
                          "--csv", str(csv_path), "--out", str(out))
    assert code == 4 and "error:" in err and "Traceback" not in err
    assert text == "" and not out.exists()


def test_build_overflow_names_the_coupling_column(tmp_path, capsys):
    grid = KnotGrid.uniform(64)
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("x,f1,f2\n" + "".join(
        "%r,1.0,%r\n" % (float(x), float(v))
        for x, v in zip(grid.knots, 1e307 * _ALTERNATING)))
    out = tmp_path / "m.json"
    code, text, err = run(capsys, "build", "--method", "cubic", "--n", "64",
                          "--csv", str(csv_path), "--out", str(out))
    assert code == 4 and "coupling residual nan of output 1" in err
    assert text == "" and not out.exists()


def test_verify_cubic_at_32768_in_bounded_memory(capsys):
    # the dense LU of the coupling system would need about 8.6 GB here
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "--method", "cubic",
                           "--n", "32768", "--target", "sin2pi")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("PASS")
    assert peak < 200e6


def _traced_peak(capsys, *argv):
    """tracemalloc's peak over one in-process CLI call, which must exit 0."""
    tracemalloc.start()
    try:
        code = run(capsys, *argv)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_build_and_eval_peaks_stay_near_the_model_size(tmp_path, capsys):
    # save_model joins one flat list of pieces, and load_model decodes
    # each array once into bytes the network keeps, so neither call
    # holds more than about twice the text beyond the network
    model = tmp_path / "m.json"
    build = _traced_peak(capsys, "build", "--method", "linear-relu",
                         "--n", "4096", "--target", "sin2pi",
                         "--out", str(model))
    size = model.stat().st_size
    evaluate = _traced_peak(capsys, "eval", str(model), "--grid", "0.1,0.5",
                            "--out", str(tmp_path / "e.csv"))
    assert build <= 3.5 * size, build / size
    assert evaluate <= 2.6 * size, evaluate / size


def test_verify_overflowing_compiled_form_exits_4(tmp_path, capsys):
    # a3 * w**3 * c overflows in the compiled form of the cubic network
    csv_path = tmp_path / "samples.csv"
    _write_samples(csv_path,
                   1e305 * np.sin(2.0 * np.pi * KnotGrid.uniform(64).knots))
    code, out, err = run(capsys, "verify", "--method", "cubic", "--n", "64",
                         "--csv", str(csv_path), "--tol", "1e296")
    assert code == 4 and out == "" and "not finite" in err


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


def test_csv_samples_load_within_twice_the_file_size(tmp_path):
    # the header is read without a copy of the whole text, which a
    # StringIO would hold four bytes a character (5.6 times the file)
    grid = KnotGrid.uniform(16384)
    csv_path = tmp_path / "samples.csv"
    _write_samples(csv_path, np.sin(7.0 * grid.knots))
    size = csv_path.stat().st_size
    tracemalloc.start()
    try:
        samples = cli._load_target_samples(str(csv_path), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.values.shape == (16385, 1)
    assert peak < 2 * size


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

    nan_x = tmp_path / "nan_x.csv"
    nan_x.write_text("x,f1\n0.0,1.0\nnan,2.0\n1.0,3.0\n")
    for argv in (("build", "--out", str(out)), ("verify",)):
        code, text, err = run(capsys, argv[0], "--method", "constant",
                              "--n", "2", "--csv", str(nan_x), *argv[1:])
        assert (code, text) == (2, "")
        assert "CSV x column does not match the knots of N=2" in err

    garbled = tmp_path / "garbled.csv"
    garbled.write_text("x,f1\n0.0,one\n0.5,2.0\n1.0,3.0\n")
    code, _, err = run(capsys, "build", "--method", "constant", "--n", "2",
                       "--csv", str(garbled), "--out", str(out))
    assert code == 3 and "not a number" in err and "row 2" in err

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x,f1\n0.0,1.0\n0.5\n1.0,3.0\n")
    code, _, err = run(capsys, "build", "--method", "constant", "--n", "2",
                       "--csv", str(ragged), "--out", str(out))
    assert code == 3 and "ragged rows: row 3" in err
    assert not out.exists()

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run(capsys, "build", "--method", "constant", "--n", "2",
                       "--csv", str(empty), "--out", str(out))
    assert code == 3

    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"x,f\xe91\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
    code, _, err = run(capsys, "build", "--method", "constant", "--n", "2",
                       "--csv", str(latin1), "--out", str(out))
    assert code == 3 and "not UTF-8 text: invalid continuation byte at " \
        "byte 3" in err
    assert not out.exists()


_KNOT_ROWS = [[0.0, 1.0], [1.0, 2.0]]


def _walked_csv_body(monkeypatch, csv_path):
    """The body as the csv.reader walk of _read_csv parses it, with
    np.loadtxt made to refuse every text."""
    def refuse(*args, **kwargs):
        raise ValueError("loadtxt refused")

    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", refuse)
        return cli._read_csv(str(csv_path))[1]


# Each input gives what csv.reader plus float() gave: its values, or the
# error message and exit code of the cell walk.
@pytest.mark.parametrize("body, expected", [
    ("\n0.0,1.0\n\n1.0,2.0\n\n", _KNOT_ROWS),
    ("0.0,1.0\n \t \n1.0,2.0\n", (3, "ragged rows: row 3 has 1 cells")),
    ("0.0,1.0\r\n1.0,2.0\r\n", _KNOT_ROWS),
    ("0.0,1.0\r1.0,2.0\r", _KNOT_ROWS),
    ("# knots\n0.0,1.0\n1.0,2.0\n", (3, "ragged rows: row 2 has 1 cells")),
    ("0.0,1.0,\n1.0,2.0,\n", (3, "ragged rows: row 2 has 3 cells")),
    ("", (2, "exactly the N+1 knot values (0 rows for N=1)")),
    ('"0.0",1.0\n1.0,"2.0"\n', _KNOT_ROWS),
    ("0.0,1_0\n1.0,2.0\n", [[0.0, 10.0], [1.0, 2.0]]),
    (" 0.0 ,  1.0\n1.0 ,2.0 \n", _KNOT_ROWS),
    ("0.0,\t1.0\n1.0\t,2.0\n", _KNOT_ROWS),
    ("0.0,\n1.0,2.0\n", (3, "row 2: not a number: ''")),
    ("0.0,1.0\x00\n1.0,2.0\n", (3, "row 2: not a number: '1.0\\x00'")),
    ("0.0,\u0661\n1.0,2.0\n", _KNOT_ROWS),
    ("0.0,\x1c1.0\n1.0,2.0\n", (3, "row 2: not a number: '\\x1c1.0'")),
], ids=["blank-lines", "whitespace-line", "crlf", "bare-cr", "hash-line",
        "trailing-comma", "header-only", "quoted", "underscore", "padded",
        "tab", "empty-cell", "nul", "arabic-indic-digit", "separator"])
def test_csv_body_parses_as_the_cell_walk(tmp_path, capsys, monkeypatch,
                                          body, expected):
    csv_path = tmp_path / "samples.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y\n" + body)
    out = tmp_path / "m.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text, err = run(capsys, "build", "--method", "constant",
                              "--n", "1", "--csv", str(csv_path),
                              "--out", str(out))
    assert not caught and "Traceback" not in err
    if isinstance(expected, list):
        assert code == 0
        header, data = cli._read_csv(str(csv_path))
        assert header == ["x", "y"]
        assert data.tobytes() == np.array(expected).tobytes()
        walk = _walked_csv_body(monkeypatch, csv_path)
        assert data.tobytes() == walk.tobytes()
        return
    exit_code, message = expected
    assert (code, text) == (exit_code, "") and message in err
    assert not out.exists()
    if exit_code == 3:
        # fit-kernel reads its samples through the same reader
        code, _, err = run(capsys, "fit-kernel", "box", "--n", "1",
                           "--csv", str(csv_path),
                           "--out", str(tmp_path / "f.json"))
        assert code == 3 and message in err


@pytest.mark.parametrize("header", [
    "x,y\n", "x,y\r\n", "x,y\r", 'x,"y\r\nz"\n', 'x,"y\rz"\r', "x,é\n",
], ids=["lf", "crlf", "bare-cr", "quoted-crlf", "quoted-cr", "non-ascii"])
def test_csv_header_is_the_first_csv_record(tmp_path, monkeypatch, header):
    # the header's lines are split out of the bytes; they give the record
    # a csv.reader over the decoded text gives, and both parsers of the
    # body start after it
    text = header + "0.0,1.0\n1.0,2.0\n"
    csv_path = tmp_path / "samples.csv"
    csv_path.write_bytes(text.encode("utf-8"))
    expected = next(csv.reader(io.StringIO(text, newline="")))
    header_read, data = cli._read_csv(str(csv_path))
    assert header_read == expected
    assert data.tolist() == _KNOT_ROWS
    assert _walked_csv_body(monkeypatch, csv_path).tolist() == _KNOT_ROWS


def test_csv_body_values_equal_float_of_each_cell(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    values = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-320, 308,
                                                                  4000)
    values[:4] = (-0.0, 0.0, 5e-324, -1.7976931348623157e308)
    styles = ("%r", "%.17g", "%.6e", "%.30e", " %.3f", "%+.20g ")
    cells = [styles[i % len(styles)] % v
             for i, v in enumerate(values.tolist())]
    csv_path = tmp_path / "dense.csv"
    csv_path.write_text("x,y\n" + "".join(
        "%d,%s\n" % (i, c) for i, c in enumerate(cells)))
    data = cli._read_csv(str(csv_path))[1]
    assert data[:, 1].tobytes() == np.array([float(c) for c in cells]).tobytes()
    walk = _walked_csv_body(monkeypatch, csv_path)
    assert data.tobytes() == walk.tobytes()


# 200001 characters, beyond the csv module's field limit of 131072
_LONG_CELL = "0." + "0" * 199999

_SAMPLES_FILE_COMMANDS = [
    ("build", "--method", "constant", "--n", "1", "--out", "m.json"),
    ("verify", "--method", "constant", "--n", "1"),
    ("fit-kernel", "box", "--n", "1", "--out", "f.json"),
]


@pytest.mark.parametrize("text, message", [
    (b"x,y\n0.0,1.0\n1.0,\xff2.0\n", ": not UTF-8 text: invalid start byte"),
    (("x%s,y\n0.0,1.0\n1.0,2.0\n" % _LONG_CELL).encode(),
     " row 1: field larger than field limit"),
    (('x,y\n"%s",1.0\n1.0,2.0\n' % _LONG_CELL).encode(),
     " row 2: field larger than field limit"),
], ids=["not-utf8", "long-header-cell", "long-quoted-cell"])
@pytest.mark.parametrize("argv", _SAMPLES_FILE_COMMANDS,
                         ids=lambda argv: argv[0])
def test_unreadable_samples_file_exits_3(tmp_path, capsys, monkeypatch,
                                         text, message, argv):
    monkeypatch.chdir(tmp_path)
    csv_path = tmp_path / "samples.csv"
    csv_path.write_bytes(text)
    code, out, err = run(capsys, *argv, "--csv", str(csv_path))
    assert (code, out) == (3, "") and "Traceback" not in err
    assert "error: %s%s" % (csv_path, message) in err
    assert not (tmp_path / "m.json").exists()
    assert not (tmp_path / "f.json").exists()


def test_long_unquoted_cell_parses_through_loadtxt(tmp_path, capsys):
    # the csv.reader walk would refuse this cell
    long_csv = tmp_path / "long.csv"
    long_csv.write_text("x,y\n%s,1.0\n1.0,2.0\n" % _LONG_CELL)
    short_csv = tmp_path / "short.csv"
    short_csv.write_text("x,y\n0.0,1.0\n1.0,2.0\n")
    for csv_path in (long_csv, short_csv):
        code, _, _ = run(capsys, "build", "--method", "constant", "--n", "1",
                         "--csv", str(csv_path),
                         "--out", str(csv_path.with_suffix(".json")))
        assert code == 0
    assert (long_csv.with_suffix(".json").read_bytes()
            == short_csv.with_suffix(".json").read_bytes())


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
    assert len(doc["local_orders"]) == 2
    assert all(1.8 <= o <= 2.2 for o in doc["local_orders"])
    assert list(doc)[:5] == ["method", "target", "n_values", "fitted_order",
                             "local_orders"]


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
    # NaN local orders are written as null, not as a NaN literal
    assert doc["local_orders"] == [None, None]
    assert "NaN" not in (tmp_path / "flat.json").read_text()


def test_convergence_bad_n_list(tmp_path, capsys):
    code, _, err = run(capsys, "convergence", "--method", "constant",
                       "--target", "sin2pi", "--n-list", "8,x,32",
                       "--out", str(tmp_path / "c"))
    assert code == 2 and "n-list" in err


@pytest.mark.parametrize("kernel", ["box", "triangle", "cubic"])
def test_fit_kernel_refuses_a_slope_out_of_range_for_every_kernel(
        tmp_path, capsys, kernel):
    csv_path = tmp_path / "dense.csv"
    xs = np.linspace(0.0, 1.0, 40)
    csv_path.write_text("x,y\n" + "".join("%r,%r\n" % (x, x * x)
                                          for x in xs.tolist()))
    out = tmp_path / "fit.json"
    code, text, err = run(capsys, "fit-kernel", kernel, "--n", "8",
                          "--csv", str(csv_path), "--slope", "7",
                          "--out", str(out))
    assert code == 2 and text == "" and not out.exists()
    assert "inflection slope 7.0 outside [0, 0.75]" in err


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


def test_fit_kernel_cubic_writes_the_bump_fit(tmp_path, capsys):
    n = 16
    xs = np.linspace(0.0, 1.0, 257)
    data = np.column_stack([xs, np.sin(2.0 * np.pi * xs)])
    csv_path = tmp_path / "dense.csv"
    csv_path.write_text("x,y\n" + "".join("%r,%r\n" % (float(x), float(y))
                                          for x, y in data))
    omegas = []
    for slope in (0.75, 0.5):
        out = tmp_path / ("fit-%r.json" % slope)
        code, text, _ = run(capsys, "fit-kernel", "cubic", "--n", str(n),
                            "--slope", repr(slope), "--csv", str(csv_path),
                            "--out", str(out))
        assert code == 0 and "rms residual" in text
        doc = json.loads(out.read_text())
        fit = fit_kernel_weights(data, KernelKind.cubic_bump(slope),
                                 KnotGrid.uniform(n))
        omega = np.asarray(doc["omega"])
        assert doc["kernel"] == "cubic" and doc["n"] == n
        assert omega.tobytes() == fit.omega.tobytes()
        assert doc["rms_residual"] == fit.rms_residual
        omegas.append(omega)
    assert not np.array_equal(*omegas)


def test_bad_header_exits_3(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    out_path = tmp_path / "out.json"
    for text in ("t,f1\n0.0,1.0\n0.5,2.0\n1.0,3.0\n", "x\n0.0\n0.5\n1.0\n"):
        csv_path.write_text(text)
        code, out, err = run(capsys, "build", "--method", "constant",
                             "--n", "2", "--csv", str(csv_path),
                             "--out", str(out_path))
        assert code == 3 and out == "" and "expected header x,f1" in err
    for header in ("t,y", "x,y,z"):
        cells = header.count(",") + 1
        csv_path.write_text(header + "\n" + "".join(
            ",".join(["%r" % (j / 8.0)] * cells) + "\n" for j in range(9)))
        code, out, err = run(capsys, "fit-kernel", "box", "--n", "2",
                             "--csv", str(csv_path), "--out", str(out_path))
        assert code == 3 and out == "" and "expected header x,y" in err
    assert not out_path.exists()


def test_fit_kernel_underdetermined(tmp_path, capsys):
    csv_path = tmp_path / "few.csv"
    csv_path.write_text("x,y\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
    code, _, err = run(capsys, "fit-kernel", "box", "--n", "8",
                       "--csv", str(csv_path),
                       "--out", str(tmp_path / "f.json"))
    assert code == 2 and "underdetermined" in err


def test_fit_kernel_ragged_csv(tmp_path, capsys):
    csv_path = tmp_path / "ragged.csv"
    for body in ("0.0,1.0\n0.5\n1.0,3.0\n", "0.0,1.0\n0.5,2.0,9.0\n"):
        csv_path.write_text("x,y\n" + body)
        code, _, err = run(capsys, "fit-kernel", "box", "--n", "1",
                           "--csv", str(csv_path),
                           "--out", str(tmp_path / "f.json"))
        assert code == 3 and "ragged rows: row 3" in err


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
