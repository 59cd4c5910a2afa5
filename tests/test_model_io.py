import json

import numpy as np
import pytest

from dpgraph import GraphBuilder, ModelFormatError
from dpgraph.model_io import dumps_model, load_model, loads_model, save_model
from dpgraph.models import mlp_classifier, mean_query
from dpgraph import runtime


AFFINE = {
    "tensors": [
        {"name": "x", "shape": [], "role": "private_input", "bounds": [0.0, 1.0]},
    ],
    "ops": [
        {"name": "alpha", "kind": "Constant", "attrs": {"value": 3.0}, "inputs": []},
        {"name": "y", "kind": "Mul", "inputs": ["alpha", "x"]},
    ],
    "outputs": ["y"],
}


def test_load_affine_model():
    g = loads_model(json.dumps(AFFINE))
    assert g.validate() == []
    assert g.nodes[g.outputs[0]].name == "y"


def test_roundtrip_preserves_fingerprint(tmp_path):
    for g in (mean_query(5), mlp_classifier(3, in_features=2)):
        path = tmp_path / "model.json"
        save_model(g, path)
        g2 = load_model(path)
        assert runtime.graph_fingerprint(g2) == runtime.graph_fingerprint(g)


def test_roundtrip_of_jacobian_graph(tmp_path):
    from dpgraph.autodiff import jacobian

    g = mlp_classifier(2, in_features=1)
    jg = jacobian(g, [g.find("x")])
    text = dumps_model(jg.graph)
    g2 = loads_model(text)
    assert runtime.graph_fingerprint(g2) == runtime.graph_fingerprint(jg.graph)


def test_layout_ops_roundtrip(tmp_path, rng):
    b = GraphBuilder()
    x = b.input("x", (2, 3), bounds=(-1, 1))
    y = b.parameter("y", (2, 1), bounds=(-1, 1))
    parts = b.concat([y, b.sigmoid(x), y], axis=1)
    flat = b.reshape(b.slice(parts, axis=1, start=1, stop=4), (6,))
    b.output(b.reduce_sum(b.mul(flat, flat)))
    g = b.graph()
    path = tmp_path / "layout.json"
    save_model(g, path)
    doc = json.loads(path.read_text())
    attrs = {op["kind"]: op["attrs"] for op in doc["ops"]}
    assert attrs["Reshape"] == {"shape": [6]}
    assert attrs["Concat"] == {"axis": 1}
    assert attrs["Slice"] == {"axis": 1, "start": 1, "stop": 4}
    g2 = load_model(path)
    assert runtime.graph_fingerprint(g2) == runtime.graph_fingerprint(g)
    point = {"x": rng.uniform(-1, 1, (2, 3)), "y": rng.uniform(-1, 1, (2, 1))}
    (want,) = runtime.execute(runtime.compile(g), point)
    (got,) = runtime.execute(runtime.compile(g2), point)
    assert np.array_equal(got, want)


def test_unknown_top_level_key():
    doc = dict(AFFINE, extra=1)
    with pytest.raises(ModelFormatError, match="extra"):
        loads_model(json.dumps(doc))


def test_unknown_tensor_key():
    doc = json.loads(json.dumps(AFFINE))
    doc["tensors"][0]["units"] = "kg"
    with pytest.raises(ModelFormatError, match="units"):
        loads_model(json.dumps(doc))


def test_unknown_op_key():
    doc = json.loads(json.dumps(AFFINE))
    doc["ops"][0]["fused"] = True
    with pytest.raises(ModelFormatError, match="fused"):
        loads_model(json.dumps(doc))


def test_missing_required_key():
    doc = {"tensors": [], "ops": []}
    with pytest.raises(ModelFormatError, match="outputs"):
        loads_model(json.dumps(doc))


def test_bad_role():
    doc = json.loads(json.dumps(AFFINE))
    doc["tensors"][0]["role"] = "secret"
    with pytest.raises(ModelFormatError, match="role"):
        loads_model(json.dumps(doc))


def test_undefined_input_reference():
    doc = json.loads(json.dumps(AFFINE))
    doc["ops"][1]["inputs"] = ["alpha", "ghost"]
    with pytest.raises(ModelFormatError, match="ghost"):
        loads_model(json.dumps(doc))


def test_unknown_kind():
    doc = json.loads(json.dumps(AFFINE))
    doc["ops"][1]["kind"] = "Conv2D"
    with pytest.raises(ModelFormatError, match="Conv2D"):
        loads_model(json.dumps(doc))


def test_json_error_carries_line():
    with pytest.raises(ModelFormatError, match=r"model.json:2:"):
        loads_model('{\n "tensors": [}', origin="model.json")


def test_bad_bounds_order():
    doc = json.loads(json.dumps(AFFINE))
    doc["tensors"][0]["bounds"] = [1.0, 0.0]
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps(doc))


# a float64 conversion reads the strings as numbers and true and false as
# 1 and 0, so these would load as the box [0, 1]
@pytest.mark.parametrize("bounds", [["0", True], [False, 1], [0, "1e0"]], ids=str)
def test_bounds_halves_must_be_numbers(bounds):
    doc = json.loads(json.dumps(AFFINE))
    doc["tensors"][0]["bounds"] = bounds
    with pytest.raises(ModelFormatError, match="tensor 'x': bounds must hold numbers"):
        loads_model(json.dumps(doc))


# NumPy promotes a bool among numbers to an integer, so these once loaded as
# the lo [[1, 0], [1, 2]] and the value [1, 2.5]
def test_a_bool_inside_bounds_is_refused():
    doc = {
        "tensors": [{"name": "x", "shape": [2, 2], "role": "private_input",
                     "bounds": [[[True, 0], [1, 2]], [[3, 3], [3, 3]]]}],
        "ops": [{"name": "s", "kind": "Sum", "inputs": ["x"]}],
        "outputs": ["s"],
    }
    with pytest.raises(ModelFormatError, match="tensor 'x': bounds must hold numbers"):
        loads_model(json.dumps(doc))


def test_a_bool_inside_a_constant_is_refused():
    doc = json.loads(json.dumps(AFFINE))
    doc["tensors"][0]["shape"] = [2]
    doc["ops"][0]["attrs"]["value"] = [True, 2.5]
    with pytest.raises(ModelFormatError, match="'value' must hold numbers"):
        loads_model(json.dumps(doc))


def test_nested_array_bounds():
    doc = {
        "tensors": [{"name": "x", "shape": [2, 1], "role": "private_input",
                     "bounds": [[[0.0], [0.1]], [[1.0], [1.1]]]}],
        "ops": [{"name": "m", "kind": "Mean", "inputs": ["x"],
                 "attrs": {"axis": None}}],
        "outputs": ["m"],
    }
    g = loads_model(json.dumps(doc))
    b = g.bounds.get(g.find("x"))
    np.testing.assert_array_equal(b.hi, [[1.0], [1.1]])


def test_matmul_attrs_roundtrip():
    b = GraphBuilder()
    x = b.input("x", (2, 3), bounds=(0, 1))
    w = b.parameter("w", (2, 4), bounds=(0, 1))
    b.output(b.matmul(x, w, transpose_a=True))
    g = b.graph()
    g2 = loads_model(dumps_model(g))
    assert runtime.graph_fingerprint(g2) == runtime.graph_fingerprint(g)


def _one_op(kind, inputs, attrs):
    return {
        "tensors": [{"name": n, "shape": [2, 3], "role": "private_input",
                     "bounds": [0.0, 1.0]} for n in ("x", "y")],
        "ops": [{"name": "op", "kind": kind, "inputs": inputs, "attrs": attrs}],
        "outputs": ["op"],
    }


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind,inputs,attrs,match", [
    ("MatMul", ["x", "y"], {"transpose_a": "false"}, "transpose_a"),
    ("MatMul", ["x", "y"], {"transpose_a": 1}, "transpose_a"),
    ("Sum", ["x"], {"axis": 0.9}, "axis"),
    ("Concat", ["x", "y"], {"axis": 1.7}, "axis"),
    ("Slice", ["x"], {"axis": 1, "start": 0.5, "stop": 2}, "start"),
    ("Reshape", ["x"], {"shape": [6.5]}, "shape"),
    ("Pow", ["x"], {"exponent": NAN}, "exponent"),
    ("Pow", ["x"], {"exponent": INF}, "exponent"),
    ("Pow", ["x"], {"exponent": "2"}, "exponent"),
    ("Clip", ["x"], {"lo": NAN, "hi": 1.0}, "lo"),
    ("Clip", ["x"], {"lo": INF, "hi": INF}, "lo"),
    ("Clip", ["x"], {"lo": -INF, "hi": -INF}, "hi"),
    ("InInterval", ["x"], {"lo": 0.0, "hi": NAN}, "hi"),
    ("Constant", [], {}, "value"),
    ("Constant", [], {"value": "1.5"}, "value"),
    ("Constant", ["x"], {"value": 1.0}, "inputs"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
def test_attr_values_are_checked_not_coerced(kind, inputs, attrs, match):
    # each of these loaded at one time, with the value coerced: a string
    # "false" read as true, an axis or a bound truncated, a NaN kept
    with pytest.raises(ModelFormatError, match=match):
        loads_model(json.dumps(_one_op(kind, inputs, attrs)))


@pytest.mark.parametrize("attrs", [["axis"], [], None, "axis", 0],
                         ids=["list", "empty-list", "null", "string", "number"])
def test_attrs_that_are_not_an_object_are_refused(attrs):
    # ["axis"] once ended in an AttributeError from attrs.get, and [] loaded
    doc = _one_op("Mean", ["x"], attrs)
    with pytest.raises(ModelFormatError, match="op 'op': attrs must be an object"):
        loads_model(json.dumps(doc))


def test_infinite_interval_ends_open_the_interval():
    doc = _one_op("Clip", ["x"], {"lo": -INF, "hi": 0.5})
    g = loads_model(json.dumps(doc))
    point = {"x": np.ones((2, 3)), "y": np.ones((2, 3))}
    (out,) = runtime.execute(runtime.compile(g), point)
    np.testing.assert_array_equal(out, np.full((2, 3), 0.5))


def test_tensor_shapes_are_integers():
    doc = _one_op("Neg", ["x"], {})
    doc["tensors"][0]["shape"] = [2.7, 3]
    with pytest.raises(ModelFormatError, match="2.7"):
        loads_model(json.dumps(doc))


@pytest.mark.parametrize("doc,what", [
    ({"tensors": ["x"], "ops": [], "outputs": []}, "tensor"),
    ({"tensors": {"x": 1}, "ops": [], "outputs": []}, "tensor"),
    ({"tensors": [], "ops": [7], "outputs": []}, "op"),
], ids=["tensor-string", "tensors-mapping", "op-number"])
def test_an_entry_that_is_not_an_object_is_refused(doc, what):
    # each once ended in an AttributeError from entry.get
    with pytest.raises(ModelFormatError, match=f"each {what} must be an object"):
        loads_model(json.dumps(doc))


@pytest.mark.parametrize("where,value", [
    ("tensors", 5), ("tensors", ["x"]), ("ops", 5), ("ops", None),
], ids=["tensor-number", "tensor-list", "op-number", "op-null"])
def test_a_name_that_is_not_a_string_is_refused(where, value):
    # a tensor named 5 once loaded and then failed in the content hash
    doc = json.loads(json.dumps(AFFINE))
    doc[where][0]["name"] = value
    with pytest.raises(ModelFormatError, match="name must be a string"):
        loads_model(json.dumps(doc))


def test_inputs_that_are_not_a_list_are_refused():
    # "xy" once loaded as the two inputs x and y
    doc = {
        "tensors": [{"name": n, "shape": [], "role": "private_input",
                     "bounds": [0.0, 1.0]} for n in "xy"],
        "ops": [{"name": "s", "kind": "Add", "inputs": "xy"}],
        "outputs": ["s"],
    }
    with pytest.raises(ModelFormatError, match="inputs must be a list"):
        loads_model(json.dumps(doc))


@pytest.mark.parametrize("name", [5, 0, b"x", ("x",)], ids=str)
def test_the_builder_refuses_a_name_that_is_not_a_string(name):
    b = GraphBuilder()
    with pytest.raises(ValueError):
        b.input(name, (), bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        b.constant(1.0, name=name)
    assert len(b.graph().nodes) == 0
