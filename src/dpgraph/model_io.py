"""Loading and saving the JSON model format.

Schema (all field names exact, unknown keys rejected):

    {
      "tensors": [{"name", "shape", "role": "private_input"|"parameter",
                   "bounds": [lo, hi]}, ...],
      "ops":     [{"name", "kind", "inputs", "attrs"}, ...],
      "outputs": ["opname", ...]
    }

`bounds` halves are numbers or nested arrays of numbers matching the shape
(a string or a bool is refused); the key may be omitted for parameters.
Constants are ops of kind "Constant" with a "value" attr. Ops must be listed
after every name they reference.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DpGraphError, ModelFormatError
from .graph import Graph, GraphBuilder, OpKind, _array

_TOP_KEYS = {"tensors", "ops", "outputs"}
_TENSOR_KEYS = {"name", "shape", "role", "bounds"}
_OP_KEYS = {"name", "kind", "inputs", "attrs"}
_ROLES = {"private_input", "parameter"}


def _reject_unknown(entry: dict, allowed: set, where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise ModelFormatError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def _object(entry, what: str) -> dict:
    if not isinstance(entry, dict):
        raise ModelFormatError(f"each {what} must be an object, got {entry!r}")
    return entry


def _require(entry: dict, key: str, where: str):
    if key not in entry:
        raise ModelFormatError(f"missing key {key!r} in {where}")
    return entry[key]


def _name(entry: dict, where: str) -> str:
    name = _require(entry, "name", where)
    if not isinstance(name, str):
        raise ModelFormatError(f"{where}: name must be a string, got {name!r}")
    return name


def loads_model(text: str, origin: str = "<string>") -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(
            f"{origin}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{origin}: top level must be an object")
    _reject_unknown(doc, _TOP_KEYS, "the top-level object")
    tensors = _require(doc, "tensors", "the top-level object")
    ops = _require(doc, "ops", "the top-level object")
    outputs = _require(doc, "outputs", "the top-level object")

    b = GraphBuilder()
    try:
        for entry in tensors:
            entry = _object(entry, "tensor")
            where = f"tensor {entry.get('name', '?')!r}"
            _reject_unknown(entry, _TENSOR_KEYS, where)
            name = _name(entry, where)
            shape = _require(entry, "shape", where)
            role = _require(entry, "role", where)
            if role not in _ROLES:
                raise ModelFormatError(f"{where}: role must be one of {_ROLES}")
            bounds = entry.get("bounds")
            if bounds is not None:
                if not isinstance(bounds, list) or len(bounds) != 2:
                    raise ModelFormatError(f"{where}: bounds must be [lo, hi]")
                try:
                    bounds = (_array(bounds[0]), _array(bounds[1]))
                except ValueError as err:
                    raise ModelFormatError(f"{where}: bounds {err}") from err
            if role == "private_input":
                b.input(name, shape, bounds)
            else:
                b.parameter(name, shape, bounds)

        for entry in ops:
            entry = _object(entry, "op")
            where = f"op {entry.get('name', '?')!r}"
            _reject_unknown(entry, _OP_KEYS, where)
            name = _name(entry, where)
            kind_name = _require(entry, "kind", where)
            try:
                kind = OpKind(kind_name)
            except ValueError:
                raise ModelFormatError(f"{where}: unknown kind {kind_name!r}")
            inputs = _require(entry, "inputs", where)
            if not isinstance(inputs, list):
                raise ModelFormatError(f"{where}: inputs must be a list of names")
            inputs = [b._names[i] if i in b._names else _bad_ref(where, i)
                      for i in inputs]
            attrs = entry.get("attrs", {})
            if not isinstance(attrs, dict):
                raise ModelFormatError(f"{where}: attrs must be an object, got {attrs!r}")
            b.build(kind, inputs, attrs, name)

        if not isinstance(outputs, list):
            raise ModelFormatError("outputs must be a list of op names")
        for name in outputs:
            if name not in b._names:
                raise ModelFormatError(f"output {name!r} names no tensor or op")
            b.output(b._names[name])
    except ModelFormatError:
        raise
    except DpGraphError as err:
        raise ModelFormatError(f"{origin}: {err}") from err
    except (TypeError, ValueError, KeyError) as err:
        raise ModelFormatError(f"{origin}: {err}") from err
    return b.graph()


def _bad_ref(where: str, name) -> int:
    raise ModelFormatError(f"{where}: input {name!r} is not defined yet")


def load_model(path) -> Graph:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ModelFormatError(f"cannot read model file {path}: {err}") from err
    return loads_model(text, origin=str(path))


def _attr_json(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def dumps_model(graph: Graph) -> str:
    tensors = []
    for h in graph.leaves():
        node = graph.nodes[h]
        entry = {
            "name": node.name,
            "shape": list(node.shape.dims),
            "role": "private_input" if node.kind is OpKind.INPUT else "parameter",
        }
        b = node.bounds
        if b is not None:
            entry["bounds"] = [b.lo.tolist(), b.hi.tolist()]
        tensors.append(entry)

    ops = []
    for node in graph.nodes:
        if node.kind in (OpKind.INPUT, OpKind.PARAMETER):
            continue
        ops.append({
            "name": node.name,
            "kind": node.kind.value,
            "inputs": [graph.nodes[i].name for i in node.inputs],
            "attrs": {k: _attr_json(v) for k, v in node.attrs.items()},
        })

    doc = {
        "tensors": tensors,
        "ops": ops,
        "outputs": [graph.nodes[h].name for h in graph.outputs],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def save_model(graph: Graph, path) -> None:
    Path(path).write_text(dumps_model(graph) + "\n")
