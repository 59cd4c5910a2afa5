import json
import subprocess
import sys

import numpy as np
import pytest

from dpgraph import GraphBuilder, freeze, runtime
from dpgraph.cli import main
from dpgraph.model_io import load_model, save_model
from dpgraph.models import mlp_classifier

from conftest import signed_parameters


@pytest.fixture(autouse=True)
def fresh_cache():
    runtime.clear_cache()
    yield


AFFINE_MODEL = {
    "tensors": [
        {"name": "x", "shape": [], "role": "private_input", "bounds": [0.0, 1.0]},
    ],
    "ops": [
        {"name": "alpha", "kind": "Constant", "attrs": {"value": 3.0}, "inputs": []},
        {"name": "y", "kind": "Mul", "inputs": ["alpha", "x"]},
    ],
    "outputs": ["y"],
}

MEAN_MODEL = {
    "tensors": [
        {"name": "x", "shape": [10, 1], "role": "private_input",
         "bounds": [0.0, 1.0]},
    ],
    "ops": [
        {"name": "m", "kind": "Mean", "inputs": ["x"], "attrs": {"axis": None}},
    ],
    "outputs": ["m"],
}


def _mlp_model(width=2, in_features=2, layers=4):
    # the label is a bounded parameter here, so the sensitivity target is the
    # feature tensor alone
    tensors = [
        {"name": "x", "shape": [in_features, 1], "role": "private_input",
         "bounds": [0.0, 1.0]},
        {"name": "t", "shape": [width, 1], "role": "parameter",
         "bounds": [0.0, 1.0]},
    ]
    ops = []
    prev, fan_in = "x", in_features
    for i in range(1, layers + 1):
        tensors.append({"name": f"w{i}", "shape": [width, fan_in],
                        "role": "parameter", "bounds": [0.0, 1.0]})
        tensors.append({"name": f"b{i}", "shape": [width, 1],
                        "role": "parameter", "bounds": [0.0, 1.0]})
        ops.append({"name": f"a{i}", "kind": "MatMul",
                    "inputs": [f"w{i}", prev]})
        ops.append({"name": f"z{i}", "kind": "Add", "inputs": [f"a{i}", f"b{i}"]})
        ops.append({"name": f"h{i}", "kind": "Sigmoid", "inputs": [f"z{i}"]})
        prev, fan_in = f"h{i}", width
    ops.append({"name": "loss", "kind": "BinaryCrossEntropy",
                "inputs": [prev, "t"]})
    return {"tensors": tensors, "ops": ops, "outputs": ["loss"]}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _write_csv(tmp_path, name, array):
    path = tmp_path / name
    np.savetxt(path, np.atleast_2d(array), delimiter=",")
    return path


# -- analyze ------------------------------------------------------------------

def test_analyze_affine_both_methods(tmp_path, capsys):
    model = _write(tmp_path, "affine.json", AFFINE_MODEL)
    out = tmp_path / "report.json"
    code = main(["analyze", "--model", str(model), "--out", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert table.count("3.000000") >= 2
    doc = json.loads(out.read_text())
    assert set(doc) == {"tool_version", "model_path", "fingerprint", "reports"}
    methods = {r["method"]: r for r in doc["reports"]}
    assert methods["ibp"]["bound"] == pytest.approx(3.0, abs=1e-9)
    assert methods["global_opt"]["bound"] == pytest.approx(3.0, abs=1e-9)
    assert methods["ibp"]["interval_low"] == 0.0
    assert methods["ibp"]["n_evaluations"] is None
    assert methods["global_opt"]["n_evaluations"] > 0


def test_analyze_mlp_gap(tmp_path):
    model = _write(tmp_path, "mlp.json", _mlp_model())
    out = tmp_path / "report.json"
    code = main(["analyze", "--model", str(model), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    methods = {r["method"]: r for r in doc["reports"]}
    assert methods["global_opt"]["bound"] <= 2.0
    assert methods["ibp"]["bound"] >= 100 * methods["global_opt"]["bound"]


def test_analyze_sum_sigmoid_at_ten_thousand(tmp_path):
    n = 10_000
    b = GraphBuilder()
    x = b.input("x", (n, 1), bounds=(-1.0, 1.0))
    b.output(b.reduce_sum(b.sigmoid(x), axis=None))
    model = tmp_path / "sumsig.json"
    save_model(b.graph(), model)
    out = tmp_path / "report.json"
    assert main(["analyze", "--model", str(model), "--methods", "ibp,global_opt",
                 "--out", str(out)]) == 0
    bounds = {r["method"]: r["bound"] for r in json.loads(out.read_text())["reports"]}
    assert bounds["global_opt"] == pytest.approx(0.25 * np.sqrt(n), rel=1e-12)
    assert bounds["ibp"] >= bounds["global_opt"]


def test_analyze_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["analyze", "--model", str(missing)])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_analyze_bad_json_has_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n "tensors": [}')
    code = main(["analyze", "--model", str(path)])
    assert code == 2
    assert "broken.json:2:" in capsys.readouterr().err


def test_analyze_unknown_method(tmp_path):
    model = _write(tmp_path, "affine.json", AFFINE_MODEL)
    assert main(["analyze", "--model", str(model), "--methods", "magic"]) == 2


def test_analyze_validation_failure(tmp_path, capsys):
    doc = json.loads(json.dumps(AFFINE_MODEL))
    del doc["tensors"][0]["bounds"]
    model = _write(tmp_path, "unbounded.json", doc)
    assert main(["analyze", "--model", str(model)]) == 2
    assert "bounds" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [["0", True], [False, 1], [0, "1e0"]], ids=str)
def test_analyze_refuses_bounds_that_are_not_numbers(tmp_path, capsys, bounds):
    doc = json.loads(json.dumps(AFFINE_MODEL))
    doc["tensors"][0]["bounds"] = bounds
    model = _write(tmp_path, "bounds.json", doc)
    assert main(["analyze", "--model", str(model)]) == 2
    assert "bounds must hold numbers" in capsys.readouterr().err


def test_analyze_refuses_a_bool_inside_bounds(tmp_path, capsys):
    doc = json.loads(json.dumps(MEAN_MODEL))
    doc["tensors"][0]["bounds"] = [[[True]] + [[0.0]] * 9, [[1.0]] * 10]
    model = _write(tmp_path, "bounds.json", doc)
    assert main(["analyze", "--model", str(model)]) == 2
    assert "bounds must hold numbers" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"tensors": ["x"], "ops": [], "outputs": []},
    {"tensors": [], "ops": [7], "outputs": []},
    {"tensors": {"x": 1}, "ops": [], "outputs": []},
], ids=["tensor-string", "op-number", "tensors-mapping"])
def test_analyze_refuses_an_entry_that_is_not_an_object(tmp_path, doc):
    # each once exited 1 with an AttributeError traceback from the loader
    model = _write(tmp_path, "entries.json", doc)
    proc = subprocess.run(
        [sys.executable, "-m", "dpgraph.cli", "analyze", "--model", str(model)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "must be an object" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_analyze_refuses_a_tensor_named_by_a_number(tmp_path):
    # it once loaded and exited 1 with a TypeError from the content hash
    doc = json.loads(json.dumps(AFFINE_MODEL))
    doc["tensors"][0]["name"] = 7
    doc["ops"][1]["inputs"] = ["alpha", 7]
    model = _write(tmp_path, "named.json", doc)
    proc = subprocess.run(
        [sys.executable, "-m", "dpgraph.cli", "analyze", "--model", str(model)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "name must be a string" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_analyze_past_the_sobol_cap_exits_3(tmp_path):
    # mlp_classifier(128) has 66,304 free scalars; the Sobol' direction-number
    # table covers at most 21,201, and a run past it once ended in a traceback
    model = tmp_path / "mlp128.json"
    save_model(mlp_classifier(128), model)
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dpgraph.cli", "analyze", "--model", str(model),
         "--methods", "global_opt", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "domain has 66304" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("op", [
    {"name": "p", "kind": "Pow", "inputs": ["x"], "attrs": {"exponent": float("nan")}},
    {"name": "p", "kind": "Pow", "inputs": ["x"], "attrs": {"exponent": float("inf")}},
    {"name": "p", "kind": "Clip", "inputs": ["x"],
     "attrs": {"lo": float("nan"), "hi": 1.0}},
], ids=["pow-nan", "pow-inf", "clip-nan"])
def test_analyze_refuses_non_finite_attrs(tmp_path, capsys, op):
    # a NaN exponent once ended in a ValueError traceback from the interval
    # layer, and a NaN Clip bound in certified bounds for a NaN query
    doc = json.loads(json.dumps(MEAN_MODEL))
    doc["ops"] = [op, {"name": "m", "kind": "Sum", "inputs": ["p"]}]
    model = _write(tmp_path, "nonfinite.json", doc)
    assert main(["analyze", "--model", str(model)]) == 2
    assert f"'{next(iter(op['attrs']))}'" in capsys.readouterr().err


def test_analyze_refuses_attrs_that_are_not_an_object(tmp_path):
    # it once ended in an AttributeError traceback and exit 1
    doc = json.loads(json.dumps(MEAN_MODEL))
    doc["ops"][0]["attrs"] = ["axis"]
    model = _write(tmp_path, "listattrs.json", doc)
    proc = subprocess.run(
        [sys.executable, "-m", "dpgraph.cli", "analyze", "--model", str(model),
         "--methods", "ibp"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "op 'm': attrs must be an object" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["analyze", "--seed", "-1"],
    ["analyze", "--samples", "-4"],
    ["analyze", "--samples", "0"],
    ["run", "--seed", "-3"],
    ["run", "--optimizer-seed", "-3"],
], ids=["analyze-seed", "analyze-negative-samples", "analyze-no-samples",
        "run-seed", "run-optimizer-seed"])
def test_negative_seeds_and_sample_counts_are_usage_errors(tmp_path, argv):
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    csv = _write_csv(tmp_path, "x.csv", np.full((10, 1), 0.5))
    out = tmp_path / "out.json"
    command, *options = argv
    if command == "run":
        options += ["--data", f"x={csv}", "--epsilon", "1.0", "--delta", "1e-5"]
    proc = subprocess.run(
        [sys.executable, "-m", "dpgraph.cli", command, "--model", str(model),
         "--out", str(out), *options],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ")
    assert f"argument {options[0]}: must be at least" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# -- run ----------------------------------------------------------------------

def _run_mean(tmp_path, data, seed="42", extra=()):
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    csv = _write_csv(tmp_path, "x.csv", data)
    out = tmp_path / "out.json"
    argv = ["run", "--model", str(model), "--data", f"x={csv}",
            "--epsilon", "1.0", "--delta", "1e-5", "--seed", seed,
            "--out", str(out), *extra]
    return main(argv), out


def test_run_mean_reproducible(tmp_path, rng):
    data = rng.uniform(0, 1, (10, 1))
    code, out = _run_mean(tmp_path, data)
    assert code == 0
    first = out.read_bytes()
    code, out = _run_mean(tmp_path, data)
    assert code == 0
    assert out.read_bytes() == first

    doc = json.loads(first)
    assert set(doc) == {"value", "sigma", "clipped_fraction", "output_l2_norm",
                        "seed", "fingerprint"}
    true_mean = float(np.mean(data))
    assert doc["value"]["m"] != pytest.approx(true_mean, abs=1e-12)
    assert doc["seed"] == 42
    assert doc["sigma"] > 0


def _integers(doc):
    """Every integer field of a JSON document, at any depth."""
    if isinstance(doc, dict):
        return [i for v in doc.values() for i in _integers(v)]
    if isinstance(doc, list):
        return [i for v in doc for i in _integers(v)]
    return [doc] if isinstance(doc, int) and not isinstance(doc, bool) else []


def _regenerates_the_raw_mean(doc, true_mean):
    """Whether subtracting default_rng(s).normal(0, sigma), for some integer
    field s of a `run` document, gives back the raw mean."""
    return any(doc["value"]["m"] - np.random.default_rng(s).normal(0.0, doc["sigma"])
               == pytest.approx(true_mean, rel=1e-12, abs=0)
               for s in _integers(doc) if s >= 0)


def test_run_without_a_seed_publishes_none(tmp_path, rng, capsys):
    data = rng.uniform(0, 1, (10, 1))
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    csv = _write_csv(tmp_path, "x.csv", data)
    out = tmp_path / "out.json"
    code = main(["run", "--model", str(model), "--data", f"x={csv}", "--epsilon", "1.0",
                 "--delta", "1e-5", "--out", str(out)])
    assert code == 0
    assert "seed=" not in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert set(doc) == {"value", "sigma", "clipped_fraction", "output_l2_norm",
                        "seed", "fingerprint"}
    assert doc["seed"] is None
    true_mean = float(np.mean(data))
    assert not _regenerates_the_raw_mean(doc, true_mean)

    # a given seed is published, and gives the raw mean back
    code, out = _run_mean(tmp_path, data)
    assert code == 0
    assert "a published seed removes the noise" in capsys.readouterr().out
    assert _regenerates_the_raw_mean(json.loads(out.read_text()), true_mean)


def test_run_reports_clipping(tmp_path):
    data = np.concatenate([np.full((4, 1), 2.0), np.full((6, 1), 0.5)])
    code, out = _run_mean(tmp_path, data)
    assert code == 0
    assert json.loads(out.read_text())["clipped_fraction"] == pytest.approx(0.4)


def test_run_rejects_bad_delta(tmp_path, rng):
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    csv = _write_csv(tmp_path, "x.csv", rng.uniform(0, 1, (10, 1)))
    code = main(["run", "--model", str(model), "--data", f"x={csv}",
                 "--epsilon", "1.0", "--delta", "1.5", "--seed", "0"])
    assert code == 4


def test_run_rejects_delta_below_float64_reach(tmp_path, rng):
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    csv = _write_csv(tmp_path, "x.csv", rng.uniform(0, 1, (10, 1)))
    proc = subprocess.run(
        [sys.executable, "-m", "dpgraph.cli", "run", "--model", str(model),
         "--data", f"x={csv}", "--epsilon", "1.0", "--delta", "1e-250",
         "--seed", "0", "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.json").exists()


def test_run_rejects_epsilon_beyond_float64_reach(tmp_path, rng):
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    csv = _write_csv(tmp_path, "x.csv", rng.uniform(0, 1, (10, 1)))
    out = tmp_path / "out.json"
    code = main(["run", "--model", str(model), "--data", f"x={csv}",
                 "--epsilon", "710", "--delta", "1e-5", "--seed", "0",
                 "--out", str(out)])
    assert code == 4
    assert not out.exists()


def test_run_rejects_exceeded_cap(tmp_path, rng):
    data = rng.uniform(0, 1, (10, 1))
    code, _ = _run_mean(tmp_path, data, extra=("--cap", "0.01"))
    assert code == 4


def test_run_accepts_generous_cap(tmp_path, rng):
    data = rng.uniform(0, 1, (10, 1))
    code, out = _run_mean(tmp_path, data, extra=("--cap", "10.0"))
    assert code == 0
    assert json.loads(out.read_text())["sigma"] > 0


def test_run_optimizer_failure_exits_3(tmp_path, rng):
    doc = {
        "tensors": [{"name": "x", "shape": [], "role": "private_input",
                     "bounds": [500.0, 600.0]}],
        "ops": [{"name": "e1", "kind": "Exp", "inputs": ["x"]},
                {"name": "e2", "kind": "Exp", "inputs": ["e1"]}],
        "outputs": ["e2"],
    }
    model = _write(tmp_path, "hot.json", doc)
    csv = _write_csv(tmp_path, "x.csv", np.array([[550.0]]))
    code = main(["run", "--model", str(model), "--data", f"x={csv}",
                 "--epsilon", "1.0", "--delta", "1e-5", "--seed", "0"])
    assert code == 3


def test_run_with_cached_analysis(tmp_path, rng):
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    report_path = tmp_path / "report.json"
    assert main(["analyze", "--model", str(model), "--out",
                 str(report_path)]) == 0
    csv = _write_csv(tmp_path, "x.csv", rng.uniform(0, 1, (10, 1)))
    out = tmp_path / "out.json"
    code = main(["run", "--model", str(model), "--data", f"x={csv}",
                 "--epsilon", "1.0", "--delta", "1e-5", "--seed", "7",
                 "--analysis", str(report_path), "--out", str(out)])
    assert code == 0


def test_run_rejects_stale_analysis(tmp_path, rng):
    affine = _write(tmp_path, "affine.json", AFFINE_MODEL)
    report_path = tmp_path / "affine-report.json"
    assert main(["analyze", "--model", str(affine), "--out",
                 str(report_path)]) == 0
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    csv = _write_csv(tmp_path, "x.csv", rng.uniform(0, 1, (10, 1)))
    code = main(["run", "--model", str(model), "--data", f"x={csv}",
                 "--epsilon", "1.0", "--delta", "1e-5", "--seed", "7",
                 "--analysis", str(report_path)])
    assert code == 3


def test_a_frozen_model_needs_no_flag_and_binds_its_parameters(tmp_path, rng, capsys):
    g = mlp_classifier(2)
    theta = signed_parameters(g)
    frozen, source = tmp_path / "frozen.json", tmp_path / "source.json"
    save_model(freeze(g, theta), frozen)
    save_model(g, source)
    assert runtime.graph_fingerprint(load_model(frozen)) \
        == runtime.graph_fingerprint(freeze(g, theta))
    analysis = tmp_path / "frozen.analysis.json"
    assert main(["analyze", "--model", str(frozen), "--out", str(analysis)]) == 0

    def data(values):
        args = []
        for name, value in values.items():
            args += ["--data", f"{name}={_write_csv(tmp_path, name + '.csv', value)}"]
        return args

    private = {"x": rng.uniform(0, 1, (2, 1)), "t": rng.uniform(0, 1, (2, 1))}
    run = ["run", "--epsilon", "1.0", "--delta", "1e-5", "--seed", "7",
           "--analysis", str(analysis), "--out", str(tmp_path / "out.json")]
    assert main([*run, "--model", str(frozen), *data(private)]) == 0
    # the analysis binds theta: the source model, given theta as data, is refused
    assert main([*run, "--model", str(source), *data({**private, **theta})]) == 3
    assert "no report matching the model fingerprint" in capsys.readouterr().err


def test_run_refuses_nan_data_before_analysis(tmp_path, rng):
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    data = rng.uniform(0, 1, (10, 1))
    data[3, 0] = np.nan
    csv = _write_csv(tmp_path, "x.csv", data)
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dpgraph.cli", "run", "--model", str(model),
         "--data", f"x={csv}", "--epsilon", "1.0", "--delta", "1e-5",
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert str(csv) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_run_clips_infinite_data_to_bounds(tmp_path, rng):
    data = rng.uniform(0, 1, (10, 1))
    data[3, 0] = np.inf
    code, out = _run_mean(tmp_path, data)
    assert code == 0
    assert json.loads(out.read_text())["clipped_fraction"] == pytest.approx(0.1)


def test_run_shape_mismatched_csv(tmp_path, rng):
    data = rng.uniform(0, 1, (3, 2))
    code, _ = _run_mean(tmp_path, data)
    assert code == 2


@pytest.mark.parametrize("declared,stacked", [([10], (3, 10)), ([], (3, 1))],
                         ids=["vector", "scalar"])
def test_run_refuses_data_with_an_extra_leading_axis(tmp_path, rng, declared, stacked):
    model = _write(tmp_path, "mean.json", {
        "tensors": [{"name": "x", "shape": declared, "role": "private_input",
                     "bounds": [0.0, 1.0]}],
        "ops": [{"name": "m", "kind": "Mean", "inputs": ["x"], "attrs": {"axis": None}}],
        "outputs": ["m"],
    })
    csv = _write_csv(tmp_path, "x.csv", rng.uniform(0, 1, stacked))
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dpgraph.cli", "run", "--model", str(model),
         "--data", f"x={csv}", "--epsilon", "1.0", "--delta", "1e-5",
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_run_refuses_data_for_a_tensor_of_three_axes(tmp_path, rng, capsys):
    # it once fell through to the scalar case: "declared scalar but CSV is (4, 2)"
    model = _write(tmp_path, "cube.json", {
        "tensors": [{"name": "x", "shape": [2, 2, 2], "role": "private_input",
                     "bounds": [0.0, 1.0]}],
        "ops": [{"name": "m", "kind": "Mean", "inputs": ["x"], "attrs": {"axis": None}}],
        "outputs": ["m"],
    })
    csv = _write_csv(tmp_path, "x.csv", rng.uniform(0, 1, (4, 2)))
    code = main(["run", "--model", str(model), "--data", f"x={csv}",
                 "--epsilon", "1.0", "--delta", "1e-5", "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "at most two axes" in err and "(2,2,2)" in err
    assert "scalar" not in err


def _run_csv(tmp_path, declared, text):
    """`dpgraph run` of the mean of x, declared with shape `declared`, on a
    CSV file holding `text`, or on a missing file when `text` is None."""
    model = _write(tmp_path, "m.json", {
        "tensors": [{"name": "x", "shape": declared, "role": "private_input",
                     "bounds": [0.0, 1.0]}],
        "ops": [{"name": "m", "kind": "Mean", "inputs": ["x"], "attrs": {"axis": None}}],
        "outputs": ["m"],
    })
    csv = tmp_path / "x.csv"
    if text is not None:
        csv.write_text(text)
    out = tmp_path / "out.json"
    code = main(["run", "--model", str(model), "--data", str(csv), "--epsilon", "1.0",
                 "--delta", "1e-5", "--seed", "0", "--out", str(out)])
    return code, out.read_text() if code == 0 else None


def test_run_reads_a_vector_from_a_row_or_a_column_and_a_scalar_from_one_cell(tmp_path):
    code, row = _run_csv(tmp_path, [3], "0.1,0.2,0.3\n")
    assert code == 0
    code, column = _run_csv(tmp_path, [3], "0.1\n0.2\n0.3\n")
    assert code == 0 and column == row
    assert json.loads(row)["clipped_fraction"] == 0.0
    code, _ = _run_csv(tmp_path, [], "0.5\n")
    assert code == 0


@pytest.mark.parametrize("declared,text,message", [
    ([], "0.1,0.2,0.3\n", "declared scalar but CSV is (1, 3)"),
    ([3], "0.1,nan,0.3\n", "data contains NaN"),
    ([3], "0.1,abc,0.3\n", "cannot parse CSV"),
    ([3], None, "cannot read data file"),
], ids=["scalar-row", "nan", "text", "missing-file"])
def test_run_refuses_csv_data_it_cannot_bind(tmp_path, capsys, declared, text, message):
    code, _ = _run_csv(tmp_path, declared, text)
    assert code == 2
    assert message in capsys.readouterr().err


def test_run_missing_tensor_data(tmp_path):
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    code = main(["run", "--model", str(model), "--epsilon", "1.0",
                 "--delta", "1e-5", "--seed", "0"])
    assert code == 2


def test_run_multi_tensor_requires_names(tmp_path, rng, capsys):
    model = _write(tmp_path, "mlp.json", _mlp_model(width=1, in_features=1,
                                                    layers=1))
    csv = _write_csv(tmp_path, "x.csv", np.array([[0.5]]))
    code = main(["run", "--model", str(model), "--data", str(csv),
                 "--epsilon", "1.0", "--delta", "1e-5", "--seed", "0"])
    assert code == 2
    assert "name=path" in capsys.readouterr().err


# -- bench --------------------------------------------------------------------

def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--widths", "2,4,8", "--reps", "3",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "width,param_count,compile_s,compile_cached_s,exec_us"
    assert len(lines) == 4


def test_bench_single_rep_warns(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--widths", "2", "--reps", "1", "--out", str(out)])
    assert code == 0
    assert "noisy" in capsys.readouterr().err


def test_bench_default_widths():
    from dpgraph.cli import _build_parser
    args = _build_parser().parse_args(["bench"])
    assert args.widths == "16,64,256,1024"
    assert args.reps == 100


def test_bench_bad_widths():
    assert main(["bench", "--widths", "0,-4"]) == 2


@pytest.mark.parametrize("command", ["analyze", "run", "bench"])
def test_an_out_path_that_cannot_be_written_is_refused_before_any_work(tmp_path, command):
    # the refusal names the path, exits 2 and leaves no file: a run has drawn
    # no noise, and a benchmark has timed nothing
    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    csv = _write_csv(tmp_path, "x.csv", np.full((10, 1), 0.5))
    out = tmp_path / "missing" / "out.json"
    argv = {"analyze": ["--model", str(model)],
            "run": ["--model", str(model), "--data", str(csv), "--epsilon", "1",
                    "--delta", "1e-5", "--seed", "0"],
            "bench": ["--widths", "2", "--reps", "1"]}[command]
    proc = subprocess.run(
        [sys.executable, "-m", "dpgraph.cli", command, *argv, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write ") and str(out) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mean.json", "x.csv"]


@pytest.mark.parametrize("command", ["analyze", "run", "bench"])
def test_a_write_that_fails_is_refused_and_leaves_no_file(
        tmp_path, monkeypatch, capsys, command):
    # the path passes the check before the work, and the write itself then
    # fails part way, after it has made the file
    def fail_part_way(path):
        path.write_bytes(b"partial")
        raise OSError(28, "No space left on device")

    model = _write(tmp_path, "mean.json", MEAN_MODEL)
    csv = _write_csv(tmp_path, "x.csv", np.full((10, 1), 0.5))
    monkeypatch.setattr("pathlib.Path.write_text",
                        lambda self, text, *a, **k: fail_part_way(self))
    monkeypatch.setattr(runtime, "write_bench_csv",
                        lambda records, path: fail_part_way(path))
    out = tmp_path / "out.json"
    argv = {"analyze": ["--model", str(model), "--methods", "ibp"],
            "run": ["--model", str(model), "--data", str(csv), "--epsilon", "1",
                    "--delta", "1e-5", "--seed", "0"],
            "bench": ["--widths", "2", "--reps", "1"]}[command]
    assert main([command, *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out}: " in err and "No space left" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mean.json", "x.csv"]


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "dpgraph.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
