"""Tensor expression graphs: shapes, nodes, construction, validation, optimization.

Graphs are append-only while being built and immutable afterwards, so they can
be shared freely between threads. Node handles are plain integers; a node only
ever references earlier handles, which makes every graph acyclic by
construction and makes the node table a valid topological order.

A graph is its nodes and its outputs. An Input or Parameter node carries its
own bounds, and its kind is its role; `Graph.private_inputs`, `parameters`,
`bounds` and the name table are read-only views read off the nodes. A
transform that carries a node carries its name, role and bounds with it.

Each op kind has one entry in `OPS`: its arity, its attributes with their
converters and defaults, its shape rule and its kernel, a binder of the
attrs that returns the function of the operands. `GraphBuilder.build`,
`normalize_attrs`, `apply_kind` and the compiled plan read that entry alone,
so an attribute is checked where it is defined. A new kind needs an `OpKind`
member and one entry here, plus its derivative rule in `autodiff.VJP_RULES`
and its interval rule in `interval.INTERVAL_RULES`.

`optimize` is one rewrite pass (folding, identities and CSE, each reading the
rewritten operands), then a drop of the nodes that no output reaches. The
pass carries each node it keeps into the new graph as it is, with its shape,
attrs and bounds; only a folded constant is built anew, so a cold compile
builds each node once.

Reachability is one sweep per graph: `Graph.reached`, the nodes the outputs
reach, is one reverse pass over the node table, kept on the graph, and the
optimizer, `runtime.content_hash`, the linearizer and `interval.propagate`
all read it.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import compress
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import expit

from .errors import (
    ArityError,
    InvalidParams,
    ShapeMismatch,
    UnknownNode,
    ValidationFailed,
)

# Probability clamp applied inside the fused cross-entropy primitive. Keeps
# log gradients finite at 0/1 for both execution and interval propagation.
BCE_CLAMP = 1e-7


class OpKind(str, Enum):
    INPUT = "Input"
    PARAMETER = "Parameter"
    CONSTANT = "Constant"
    ADD = "Add"
    SUB = "Sub"
    MUL = "Mul"
    DIV = "Div"
    NEG = "Neg"
    MATMUL = "MatMul"
    POW = "Pow"
    EXP = "Exp"
    LOG = "Log"
    SIGMOID = "Sigmoid"
    SUM = "Sum"
    MEAN = "Mean"
    CLIP = "Clip"
    BCE = "BinaryCrossEntropy"
    # Elementwise 0/1 indicator of membership in [lo, hi]. Needed so the
    # almost-everywhere derivative of Clip (and of the cross-entropy clamp) is
    # expressible as a graph; never required in hand-written models.
    IN_INTERVAL = "InInterval"
    # Layout ops: a Jacobian row is the concatenation of flattened leaf
    # gradients, and the derivative of Concat is a Slice of its cotangent.
    RESHAPE = "Reshape"
    CONCAT = "Concat"
    SLICE = "Slice"


@dataclass(frozen=True)
class TensorShape:
    """Ordered tuple of positive extents; () is the scalar shape."""

    dims: tuple[int, ...]

    def __post_init__(self):
        for d in self.dims:
            if not isinstance(d, int) or d < 1:
                raise ShapeMismatch(f"invalid extent {d!r} in shape {self.dims}")

    @classmethod
    def coerce(cls, value) -> "TensorShape":
        if isinstance(value, TensorShape):
            return value
        if isinstance(value, (int, np.integer)):
            value = (value,)
        return cls(tuple(_index(d) for d in value))

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @cached_property
    def text(self) -> str:
        """The dims as "(2,3)", worked out once: graphs share their shapes,
        and content hashes read this for every leaf and constant."""
        return "(" + ",".join(map(str, self.dims)) + ")"

    def __str__(self) -> str:
        return self.text


SCALAR = TensorShape(())


@dataclass(frozen=True)
class Bounds:
    """Elementwise closed interval attached to one tensor.

    lo/hi are float64 arrays, either matching the tensor shape or scalar
    (0-d), in which case they broadcast to every element.
    """

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def make(cls, lo, hi) -> "Bounds":
        lo_a = np.array(lo, dtype=np.float64)
        hi_a = np.array(hi, dtype=np.float64)
        if lo_a.shape != hi_a.shape:
            raise ShapeMismatch(
                f"bound halves have different shapes {lo_a.shape} vs {hi_a.shape}"
            )
        if not (np.all(np.isfinite(lo_a)) and np.all(np.isfinite(hi_a))):
            raise ValueError("bounds must be finite")
        if np.any(lo_a > hi_a):
            raise ValueError("bounds require lo <= hi elementwise")
        lo_a.setflags(write=False)
        hi_a.setflags(write=False)
        return cls(lo_a, hi_a)

    def matches(self, shape: TensorShape) -> bool:
        return self.lo.shape == () or self.lo.shape == shape.dims

    def broadcast_to(self, shape: TensorShape) -> tuple[np.ndarray, np.ndarray]:
        dims = shape.dims
        return (
            np.broadcast_to(self.lo, dims).astype(np.float64),
            np.broadcast_to(self.hi, dims).astype(np.float64),
        )


@dataclass(frozen=True, eq=False)
class Node:
    id: int
    kind: OpKind
    inputs: tuple[int, ...]
    shape: TensorShape
    attrs: Mapping[str, Any]
    name: str
    bounds: Bounds | None = None  # the box of an Input or Parameter, if it has one

    def __repr__(self) -> str:
        return f"%{self.id}:{self.kind.value}{self.shape}('{self.name}')"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    node: int | None = None


# ---------------------------------------------------------------------------
# the op table: attribute converters, shape rules and kernels, then `OPS`

REQUIRED = object()  # the default of an attribute that has to be given

# Attribute converters return the canonical value of an attribute and raise
# ValueError for a value that the conversion would change.


def _number(v) -> float:
    """A number other than NaN; a bool, a string or an array is refused."""
    if (isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real)
            or math.isnan(v)):
        raise ValueError(f"must be a number other than NaN, got {v!r}")
    return float(v)


def _finite(v) -> float:
    if not math.isfinite(x := _number(v)):
        raise ValueError(f"must be finite, got {x}")
    return x


def _flag(v) -> bool:
    if not isinstance(v, (bool, np.bool_)):
        raise ValueError(f"must be true or false, got {v!r}")
    return bool(v)


def _index(v) -> int:
    """An integer; a bool is refused, and so is a float, which int() truncates."""
    if not isinstance(v, (bool, np.bool_)):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"must be an integer, got {v!r}")


def _count(v, least: int, what: str) -> int:
    """An integer no smaller than `least`; anything else is refused with
    InvalidParams naming `what`."""
    try:
        n = _index(v)
    except ValueError as err:
        raise InvalidParams(f"{what} {err}") from None
    if n < least:
        raise InvalidParams(f"{what} must be at least {least}, got {n}")
    return n


def _holds_bool(v) -> bool:
    if isinstance(v, (list, tuple)):
        return any(_holds_bool(e) for e in v)
    return isinstance(v, (bool, np.bool_))


def _array(v) -> np.ndarray:
    """A read-only float64 copy of an array of integers or floats. A bool is
    refused anywhere in a nested list, where NumPy would promote it to an
    integer among numbers; an ndarray is checked by its dtype alone."""
    a = np.asarray(v)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"must hold numbers, got an array of {a.dtype}")
    if not isinstance(v, np.ndarray) and _holds_bool(v):
        raise ValueError("must hold numbers, got a bool among them")
    a = a.astype(np.float64)
    a.setflags(write=False)
    return a


# Shape rules map the operand shapes and the normalized attrs to the result
# shape; `GraphBuilder.build` puts the kind's name in front of their errors.


def _first(shapes, attrs) -> TensorShape:
    return shapes[0]


def _pair(shapes, attrs) -> TensorShape:
    a, b = shapes
    if a == b or b.rank == 0:
        return a
    if a.rank == 0:
        return b
    raise ShapeMismatch(
        f"operands must have equal shapes or a scalar operand, got {a} and {b}")


def _loss(shapes, attrs) -> TensorShape:
    _pair(shapes, attrs)
    return SCALAR


def _interval(shapes, attrs) -> TensorShape:
    """An infinite end leaves the interval open on its side."""
    lo, hi = attrs["lo"], attrs["hi"]
    if not (lo <= hi and lo < math.inf and hi > -math.inf):
        raise ValueError(
            f"interval [{lo}, {hi}] needs lo <= hi, lo < inf and hi > -inf")
    return shapes[0]


def _matmul_shape(shapes, attrs) -> TensorShape:
    a, b = shapes
    if a.rank != 2 or b.rank != 2:
        raise ShapeMismatch(f"2-D operands required, got {a} and {b}")
    am, ak = a.dims
    bk, bn = b.dims
    if attrs["transpose_a"]:
        am, ak = ak, am
    if attrs["transpose_b"]:
        bk, bn = bn, bk
    if ak != bk:
        raise ShapeMismatch(f"inner dimensions differ: {ak} vs {bk}")
    return TensorShape((am, bn))


def _check_axis(a: TensorShape, axis: int) -> None:
    if not 0 <= axis < a.rank:
        raise ShapeMismatch(f"axis {axis} out of range for shape {a}")


def _reduce_shape(shapes, attrs) -> TensorShape:
    (a,) = shapes
    axis = attrs["axis"]
    if axis is None:
        return SCALAR
    if a.rank != 2:
        raise ShapeMismatch(f"an integer axis requires a 2-D operand, got {a}")
    _check_axis(a, axis)
    dims = list(a.dims)
    dims[axis] = 1
    return TensorShape(tuple(dims))


def _reshape_shape(shapes, attrs) -> TensorShape:
    (a,) = shapes
    out = TensorShape(attrs["shape"])
    if out.num_elements != a.num_elements:
        raise ShapeMismatch(f"cannot turn {a} into {out}")
    return out


def _concat_shape(shapes, attrs) -> TensorShape:
    axis = attrs["axis"]
    first = shapes[0]
    _check_axis(first, axis)

    def off_axis(s: TensorShape) -> tuple[int, ...]:
        return s.dims[:axis] + s.dims[axis + 1:]

    total = 0
    for s in shapes:
        if s.rank != first.rank or off_axis(s) != off_axis(first):
            raise ShapeMismatch(
                f"operands must agree off axis {axis}, got {first} and {s}")
        total += s.dims[axis]
    dims = list(first.dims)
    dims[axis] = total
    return TensorShape(tuple(dims))


def _slice_shape(shapes, attrs) -> TensorShape:
    (a,) = shapes
    axis, start, stop = attrs["axis"], attrs["start"], attrs["stop"]
    _check_axis(a, axis)
    if not 0 <= start < stop <= a.dims[axis]:
        raise ShapeMismatch(
            f"[{start}:{stop}] out of range for extent {a.dims[axis]} of {a}")
    dims = list(a.dims)
    dims[axis] = stop - start
    return TensorShape(tuple(dims))


# Kernels are binders: `kernel(attrs)` takes the node's attrs, with
# `attrs["ranks"]` holding the declared rank of each operand, and returns the
# function that maps the operand values to the result value. The compiled plan
# binds each instruction once, and `apply_kind` binds for one call, reading
# the ranks off its operands; whatever the attrs and ranks decide (a lift, a
# reduction's axes, a transpose) is settled at binding. Every bound kernel is
# batch-polymorphic. An operand holds either its declared shape or a batch
# shape followed by it, so a kernel counts its axes from the end and leaves
# the leading batch axes alone. Operands that carry batch axes all carry the
# same ones. The unbatched call is the batch-shape () case.


def _elementwise(fn, attrs):
    """fn bound to one operand: fn itself, or for a declared scalar (rank 0)
    fn with its result wrapped in np.asarray."""
    return fn if attrs["ranks"][0] else lambda a: np.asarray(fn(a))


def _k_pow(attrs):
    exponent = attrs["exponent"]
    return _elementwise(lambda a: np.power(a, exponent), attrs)


def _k_clip(attrs):
    lo, hi = attrs["lo"], attrs["hi"]
    return lambda a: a.clip(lo, hi)  # what np.clip calls, without its wrapper


def _k_in_interval(attrs):
    lo, hi = attrs["lo"], attrs["hi"]
    return lambda a: np.asarray((a >= lo) & (a <= hi), dtype=np.float64)


def _lifted(op, ra, rb):
    """op(a, b) for operands of declared ranks ra and rb, one of them 0 when
    they differ. The declared scalar gets the other operand's rank, so that
    its batch axes, if it has any, stay in front when the two broadcast."""
    if ra < rb:
        pad = (1,) * rb
        return lambda a, b: op(a.reshape(a.shape + pad) if a.ndim else a, b)
    if rb < ra:
        pad = (1,) * ra
        return lambda a, b: op(a, b.reshape(b.shape + pad) if b.ndim else b)
    return op


def _k_pair(op):
    def bind(attrs):
        ra, rb = attrs["ranks"]
        if ra or rb:
            return _lifted(op, ra, rb)
        return lambda a, b: np.asarray(op(a, b))

    return bind


def _k_matmul(attrs):
    ta, tb = attrs["transpose_a"], attrs["transpose_b"]
    if not (ta or tb):
        return np.matmul

    def kernel(a, b):
        return np.matmul(a.swapaxes(-1, -2) if ta else a,
                         b.swapaxes(-1, -2) if tb else b)

    return kernel


def _k_sum(attrs):
    (rank,) = attrs["ranks"]
    axis = attrs["axis"]
    if axis is not None:
        axis -= rank
        return lambda x: np.add.reduce(x, axis, keepdims=True)
    axes = tuple(range(-rank, 0))  # the declared axes behind a batch
    return lambda x: np.asarray(np.add.reduce(x, None if x.ndim == rank else axes))


def _k_mean(attrs):
    """np.mean's own sum and division, without its overhead: the same axis
    argument to the same reduction, divided by the same count."""
    (rank,) = attrs["ranks"]
    axis = attrs["axis"]
    if axis is not None:
        axis -= rank
        return lambda x: np.add.reduce(x, axis, keepdims=True) / x.shape[axis]
    axes = tuple(range(-rank, 0))  # the declared axes behind a batch; () for a scalar

    def kernel(x):
        if x.ndim == rank:
            return np.asarray(np.add.reduce(x, None) / x.size)
        return np.add.reduce(x, axes) / math.prod(x.shape[x.ndim - rank:])

    return kernel


def _bce_loss(p, t):
    pc = p.clip(BCE_CLAMP, 1.0 - BCE_CLAMP)
    return -(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))


def _k_bce(attrs):
    rp, rt = attrs["ranks"]
    elementwise = _lifted(_bce_loss, rp, rt)
    mean = _k_mean({"axis": None, "ranks": (max(rp, rt),)})
    return lambda p, t: mean(elementwise(p, t))


def _k_reshape(attrs):
    (rank,) = attrs["ranks"]
    shape = attrs["shape"]
    return lambda a: a.reshape(a.shape[:a.ndim - rank] + shape)


def _k_concat(attrs):
    rank = attrs["ranks"][0]
    axis = attrs["axis"] - rank

    def kernel(*parts):
        batch = max((p.shape[:p.ndim - rank] for p in parts), key=len)
        if batch:  # an unbatched operand, such as a zero constant, is shared
            parts = [np.broadcast_to(p, batch + p.shape[p.ndim - rank:]) for p in parts]
        return np.concatenate(parts, axis=axis)

    return kernel


def _k_slice(attrs):
    (rank,) = attrs["ranks"]
    index = ((Ellipsis, slice(attrs["start"], attrs["stop"]))
             + (slice(None),) * (rank - 1 - attrs["axis"]))
    return lambda a: a[index]


class OpSpec(NamedTuple):
    arity: int | None  # inputs taken; None for one or more (Concat)
    attrs: Mapping[str, tuple[Callable, Any]]  # name -> (converter, default or REQUIRED)
    shape: Callable | None  # (shapes, attrs) -> shape; None for Input and Parameter
    kernel: Callable | None  # attrs -> (*operands -> value); None for the leaf kinds


_LEAF = OpSpec(0, {}, None, None)
_AXIS = {"axis": (lambda v: None if v is None else _index(v), None)}
_BOUNDS = {"lo": (_number, REQUIRED), "hi": (_number, REQUIRED)}
_INDEX = (_index, REQUIRED)
_FLAG = (_flag, False)

OPS: dict[OpKind, OpSpec] = {
    OpKind.INPUT: _LEAF,
    OpKind.PARAMETER: _LEAF,
    OpKind.CONSTANT: OpSpec(0, {"value": (_array, REQUIRED)},
                            lambda _, attrs: TensorShape(attrs["value"].shape), None),
    OpKind.ADD: OpSpec(2, {}, _pair, _k_pair(np.add)),
    OpKind.SUB: OpSpec(2, {}, _pair, _k_pair(np.subtract)),
    OpKind.MUL: OpSpec(2, {}, _pair, _k_pair(np.multiply)),
    OpKind.DIV: OpSpec(2, {}, _pair, _k_pair(np.divide)),
    OpKind.NEG: OpSpec(1, {}, _first, lambda attrs: _elementwise(np.negative, attrs)),
    OpKind.MATMUL: OpSpec(2, {"transpose_a": _FLAG, "transpose_b": _FLAG},
                          _matmul_shape, _k_matmul),
    OpKind.POW: OpSpec(1, {"exponent": (_finite, REQUIRED)}, _first, _k_pow),
    OpKind.EXP: OpSpec(1, {}, _first, lambda attrs: np.exp),
    OpKind.LOG: OpSpec(1, {}, _first, lambda attrs: np.log),
    OpKind.SIGMOID: OpSpec(1, {}, _first, lambda attrs: _elementwise(expit, attrs)),
    OpKind.SUM: OpSpec(1, _AXIS, _reduce_shape, _k_sum),
    OpKind.MEAN: OpSpec(1, _AXIS, _reduce_shape, _k_mean),
    OpKind.CLIP: OpSpec(1, _BOUNDS, _interval, _k_clip),
    OpKind.BCE: OpSpec(2, {}, _loss, _k_bce),
    OpKind.IN_INTERVAL: OpSpec(1, _BOUNDS, _interval, _k_in_interval),
    OpKind.RESHAPE: OpSpec(
        1, {"shape": (lambda v: TensorShape.coerce(v).dims, REQUIRED)},
        _reshape_shape, _k_reshape),
    OpKind.CONCAT: OpSpec(None, {"axis": _INDEX}, _concat_shape, _k_concat),
    OpKind.SLICE: OpSpec(1, {"axis": _INDEX, "start": _INDEX, "stop": _INDEX},
                         _slice_shape, _k_slice),
}

LEAF_KINDS = frozenset(kind for kind, spec in OPS.items() if spec.kernel is None)


def normalize_attrs(kind: OpKind, attrs: Mapping | None) -> dict[str, Any]:
    """Every attr of the kind's `OPS` entry, converted, or its default when it
    is not given. A missing required attr or an unknown one raises
    ArityError; attrs that are not a mapping, or a value that the conversion
    would change, raise ValueError."""
    spec = OPS[kind].attrs
    if attrs is None:
        attrs = {}
    elif not isinstance(attrs, (dict, Mapping)):  # dict first: the ABC check is slow
        raise ValueError(
            f"{kind.value} attrs must be a mapping, got {type(attrs).__name__}")
    unknown = set(attrs) - set(spec)
    if unknown:
        raise ArityError(f"{kind.value} does not accept attrs {sorted(unknown)}")
    out = {}
    for key, (convert, default) in spec.items():
        value = attrs.get(key, default)
        if value is REQUIRED:
            raise ArityError(f"{kind.value} requires a {key!r} attr")
        try:
            out[key] = convert(value)
        except (TypeError, ValueError) as err:
            raise ValueError(f"{kind.value} attr {key!r} {err}") from None
    return out


def attr_key(attrs: Mapping[str, Any]) -> tuple:
    """Hashable canonical encoding of a normalized attr dict."""
    parts = []
    for k in sorted(attrs):
        v = attrs[k]
        if isinstance(v, np.ndarray):
            parts.append((k, v.shape, v.tobytes()))
        else:
            parts.append((k, v))
    return tuple(parts)


def apply_kind(kind: OpKind, attrs: Mapping, *operands: np.ndarray) -> np.ndarray:
    """Bind one kernel to unbatched operands and run it, with FP flags ignored."""
    operands = tuple(np.asarray(x) for x in operands)
    kernel = OPS[kind].kernel({**attrs, "ranks": tuple(x.ndim for x in operands)})
    with np.errstate(all="ignore"):
        return kernel(*operands)


# ---------------------------------------------------------------------------
# graph and builder


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable DAG of tensor operations: its nodes and its outputs. The
    roles, the bounds and the name table are read off the nodes, once each."""

    nodes: tuple[Node, ...]
    outputs: tuple[int, ...]

    @cached_property
    def private_inputs(self) -> tuple[int, ...]:
        """The Input nodes, in declaration order."""
        kind = OpKind.INPUT  # looked up once: an Enum member lookup is slow
        return tuple(n.id for n in self.nodes if n.kind is kind)

    @cached_property
    def parameters(self) -> tuple[int, ...]:
        """The Parameter nodes, in declaration order."""
        kind = OpKind.PARAMETER
        return tuple(n.id for n in self.nodes if n.kind is kind)

    @cached_property
    def bounds(self) -> Mapping[int, Bounds]:
        """A read-only {handle: Bounds} of the leaves that carry bounds."""
        return MappingProxyType(
            {n.id: n.bounds for n in self.nodes if n.bounds is not None})

    @cached_property
    def _names(self) -> Mapping[str, int]:
        return MappingProxyType({n.name: n.id for n in self.nodes})

    def node(self, handle: int) -> Node:
        if not isinstance(handle, (int, np.integer)) or not 0 <= handle < len(self.nodes):
            raise UnknownNode(f"no node with handle {handle!r}")
        return self.nodes[handle]

    def find(self, name: str) -> int:
        try:
            return self._names[name]
        except KeyError:
            raise UnknownNode(f"no node named {name!r}") from None

    def leaves(self) -> tuple[int, ...]:
        """Private inputs followed by parameters, in declaration order."""
        return tuple(self.private_inputs) + tuple(self.parameters)

    def ancestors(self, handles: Iterable[int]) -> set[int]:
        """The given handles and every node they reach through inputs.

        One sweep from the highest handle back to the first node: a node only
        references earlier handles, so each node is marked before the sweep
        passes it. A handle that is not a node raises UnknownNode.
        """
        marks = bytearray(len(self.nodes))
        top = -1
        for h in handles:
            marks[self.node(h).id] = 1
            top = max(top, h)
        for node in reversed(self.nodes[:top + 1]):
            if marks[node.id]:
                for i in node.inputs:
                    marks[i] = 1
        return set(compress(range(top + 1), marks))

    @cached_property
    def reached(self) -> frozenset[int]:
        """The nodes the outputs reach, outputs included: one sweep, kept on
        the graph, since a graph never changes."""
        return frozenset(self.ancestors(self.outputs))

    def validate(self) -> list[Diagnostic]:
        """Check every structural invariant; returns all violations."""
        diags: list[Diagnostic] = []
        if not self.outputs:
            diags.append(Diagnostic("no-outputs", "graph declares no outputs"))
        for h in self.outputs:
            if not 0 <= h < len(self.nodes):
                diags.append(Diagnostic("bad-output", f"output handle {h} does not exist"))
        for node in self.nodes:
            for i in node.inputs:
                if i >= node.id:
                    diags.append(Diagnostic(
                        "cycle", f"node '{node.name}' references a later node", node.id))
        for h in self.private_inputs:
            if self.nodes[h].bounds is None:
                diags.append(Diagnostic(
                    "missing-bounds",
                    f"missing bounds on input '{self.nodes[h].name}' (#{h})", h))
        for node in self.nodes:
            if node.bounds is not None and not node.bounds.matches(node.shape):
                diags.append(Diagnostic(
                    "bounds-shape",
                    f"bounds on '{node.name}' do not match shape {node.shape}", node.id))
        return diags

    def require_valid(self) -> None:
        diags = self.validate()
        if diags:
            raise ValidationFailed(diags)


class GraphBuilder:
    """Single-threaded, append-only constructor for Graph values."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._names: dict[str, int] = {}
        self._outputs: list[int] = []

    @classmethod
    def extending(cls, graph: Graph) -> "GraphBuilder":
        """A builder that starts with `graph`'s nodes, and so its names, roles
        and bounds, but none of its outputs; the graph's handles stay valid in
        it."""
        nb = cls()
        nb._nodes = list(graph.nodes)
        nb._names = dict(graph._names)
        return nb

    # -- leaves

    def input(self, name: str, shape, bounds=None) -> int:
        h = self._leaf(OpKind.INPUT, name, shape)
        if bounds is not None:
            self.set_bounds(h, *bounds)
        return h

    def parameter(self, name: str, shape, bounds=None) -> int:
        h = self._leaf(OpKind.PARAMETER, name, shape)
        if bounds is not None:
            self.set_bounds(h, *bounds)
        return h

    def constant(self, value, name: str | None = None) -> int:
        return self.build(OpKind.CONSTANT, (), {"value": value}, name)

    def _leaf(self, kind: OpKind, name: str, shape) -> int:
        if not name:
            raise ValueError(f"{kind.value} nodes require an explicit name")
        return self._append(kind, (), TensorShape.coerce(shape), {}, name)

    # -- generic construction

    def build(self, kind: OpKind | str, inputs: Sequence[int], attrs=None,
              name: str | None = None) -> int:
        if type(kind) is not OpKind:
            kind = OpKind(kind)
        spec = OPS[kind]
        if spec.shape is None:
            raise ArityError(f"{kind.value} nodes are created via input()/parameter()")
        handles = tuple(int(h) for h in inputs)
        if spec.arity is None and not handles:
            raise ArityError(f"{kind.value} expects at least one input")
        if spec.arity is not None and len(handles) != spec.arity:
            raise ArityError(
                f"{kind.value} expects {spec.arity} inputs, got {len(handles)}")
        for h in handles:
            if not 0 <= h < len(self._nodes):
                raise UnknownNode(f"no node with handle {h}")
        norm = normalize_attrs(kind, attrs) if spec.attrs or attrs is not None else {}
        try:
            shape = spec.shape([self._nodes[h].shape for h in handles], norm)
        except (ShapeMismatch, ValueError) as err:
            raise type(err)(f"{kind.value}: {err}") from None
        return self._append(kind, handles, shape, norm, name)

    def _carry(self, node: Node, inputs: tuple[int, ...], name: str | None) -> int:
        """Append `node` of another graph on the operands `inputs`, with its
        kind, shape, attrs and bounds taken as they are: the caller vouches
        that the operands have the shapes of the node's own."""
        return self._append(node.kind, inputs, node.shape, node.attrs, name, node.bounds)

    def _append(self, kind, inputs, shape, attrs, name, bounds=None) -> int:
        nid = len(self._nodes)
        if name is None:
            name = f"n{nid}"
            while name in self._names:
                name += "_"
        elif not isinstance(name, str):
            raise ValueError(f"node name must be a string, got {name!r}")
        elif name in self._names:
            raise ValueError(f"node name {name!r} already used")
        self._nodes.append(Node(nid, kind, inputs, shape, attrs, name, bounds))
        self._names[name] = nid
        return nid

    # -- sugar; numeric arguments are wrapped as constants

    def _coerce(self, h) -> int:
        if isinstance(h, (int, np.integer)):
            return int(h)
        return self.constant(h)

    def add(self, a, b) -> int:
        return self.build(OpKind.ADD, [self._coerce(a), self._coerce(b)])

    def sub(self, a, b) -> int:
        return self.build(OpKind.SUB, [self._coerce(a), self._coerce(b)])

    def mul(self, a, b) -> int:
        return self.build(OpKind.MUL, [self._coerce(a), self._coerce(b)])

    def div(self, a, b) -> int:
        return self.build(OpKind.DIV, [self._coerce(a), self._coerce(b)])

    def neg(self, a) -> int:
        return self.build(OpKind.NEG, [a])

    def matmul(self, a, b, transpose_a=False, transpose_b=False) -> int:
        return self.build(OpKind.MATMUL, [a, b],
                          {"transpose_a": transpose_a, "transpose_b": transpose_b})

    def power(self, a, exponent: float) -> int:
        return self.build(OpKind.POW, [a], {"exponent": exponent})

    def exp(self, a) -> int:
        return self.build(OpKind.EXP, [a])

    def log(self, a) -> int:
        return self.build(OpKind.LOG, [a])

    def sigmoid(self, a) -> int:
        return self.build(OpKind.SIGMOID, [a])

    def reduce_sum(self, a, axis=None) -> int:
        return self.build(OpKind.SUM, [a], {"axis": axis})

    def reduce_mean(self, a, axis=None) -> int:
        return self.build(OpKind.MEAN, [a], {"axis": axis})

    def clip(self, a, lo: float, hi: float) -> int:
        return self.build(OpKind.CLIP, [a], {"lo": lo, "hi": hi})

    def in_interval(self, a, lo: float, hi: float) -> int:
        return self.build(OpKind.IN_INTERVAL, [a], {"lo": lo, "hi": hi})

    def binary_cross_entropy(self, p, t) -> int:
        return self.build(OpKind.BCE, [self._coerce(p), self._coerce(t)])

    def reshape(self, a, shape) -> int:
        return self.build(OpKind.RESHAPE, [a], {"shape": shape})

    def concat(self, parts: Sequence[int], axis: int) -> int:
        return self.build(OpKind.CONCAT, parts, {"axis": axis})

    def slice(self, a, axis: int, start: int, stop: int) -> int:
        return self.build(OpKind.SLICE, [a], {"axis": axis, "start": start, "stop": stop})

    # -- finishing

    def set_bounds(self, handle: int, lo, hi) -> None:
        node = self._nodes[handle]
        if node.kind not in (OpKind.INPUT, OpKind.PARAMETER):
            raise ValueError("bounds attach only to Input or Parameter nodes")
        b = Bounds.make(lo, hi)
        if not b.matches(node.shape):
            raise ShapeMismatch(
                f"bounds shape {b.lo.shape} does not match '{node.name}' {node.shape}")
        self._nodes[handle] = replace(node, bounds=b)

    def output(self, handle: int) -> int:
        if not 0 <= handle < len(self._nodes):
            raise UnknownNode(f"no node with handle {handle}")
        self._outputs.append(handle)
        return handle

    def graph(self) -> Graph:
        return Graph(nodes=tuple(self._nodes), outputs=tuple(self._outputs))


def freeze(graph: Graph, values: Mapping[str, Any]) -> Graph:
    """`graph` with each Parameter that `values` names replaced by a Constant
    of its value, under the same handle and name and without bounds, so that
    the content hash, and so a report's fingerprint, binds the value. Raises
    `UnknownNode` for an unknown name, and `InvalidParams` for a node other
    than a Parameter (a private Input would put private bytes into the
    fingerprint), a value of another shape or a non-finite value."""
    constants: dict[int, Node] = {}
    for name, value in values.items():
        node = graph.nodes[graph.find(name)]
        if node.kind is not OpKind.PARAMETER:
            what = "private input" if node.kind is OpKind.INPUT else "non-leaf node"
            raise InvalidParams(f"cannot freeze {what} '{name}'")
        try:
            value = _array(value)
        except ValueError as err:
            raise InvalidParams(f"frozen value for '{name}' {err}") from None
        if value.shape != node.shape.dims:
            raise InvalidParams(f"'{name}' expects shape {node.shape}, got {value.shape}")
        if not np.isfinite(value).all():
            raise InvalidParams(f"frozen value for '{name}' must be finite")
        constants[node.id] = replace(node, kind=OpKind.CONSTANT, attrs={"value": value},
                                     bounds=None)
    return replace(graph, nodes=tuple(constants.get(n.id, n) for n in graph.nodes))


# ---------------------------------------------------------------------------
# optimization passes


def _is_const(nodes: list[Node], h: int, value=None) -> bool:
    n = nodes[h]
    if n.kind is not OpKind.CONSTANT:
        return False
    if value is None:
        return True
    return bool(np.all(n.attrs["value"] == value))


def _identity_rewrite(nodes: list[Node], kind: OpKind, inputs: tuple[int, ...],
                      shape: TensorShape) -> int | None:
    """x+0, 0+x, x-0, x*1, 1*x, x/1, -(-x), and a Reshape, Concat or Slice
    that returns its only operand unchanged; only when the result shape is
    kept."""
    a = inputs[0]
    b = inputs[1] if len(inputs) > 1 else None
    if kind is OpKind.ADD:
        if _is_const(nodes, b, 0.0) and nodes[a].shape == shape:
            return a
        if _is_const(nodes, a, 0.0) and nodes[b].shape == shape:
            return b
    elif kind is OpKind.SUB:
        if _is_const(nodes, b, 0.0) and nodes[a].shape == shape:
            return a
    elif kind is OpKind.MUL:
        if _is_const(nodes, b, 1.0) and nodes[a].shape == shape:
            return a
        if _is_const(nodes, a, 1.0) and nodes[b].shape == shape:
            return b
    elif kind is OpKind.DIV:
        if _is_const(nodes, b, 1.0) and nodes[a].shape == shape:
            return a
    elif kind is OpKind.NEG:
        inner = nodes[a]
        if inner.kind is OpKind.NEG:
            return inner.inputs[0]
    elif kind in (OpKind.RESHAPE, OpKind.CONCAT, OpKind.SLICE):
        if len(inputs) == 1 and nodes[a].shape == shape:
            return a
    return None


def _rewrite(graph: Graph) -> Graph:
    """Fold, simplify and merge the nodes an output reaches, and keep every
    Input and Parameter. A node that stays is carried as it is, with its
    shape, attrs and bounds; only a folded constant is built anew."""
    reached = graph.reached
    nb = GraphBuilder()
    mapping: dict[int, int] = {}
    memo: dict[tuple, int] = {}
    constants: set[int] = set()  # handles of nb's constants

    def intern_constant(value: np.ndarray, node: Node | None = None) -> int:
        """The one constant of `value`: `node` carried when it is given, else
        a new constant built."""
        key = (OpKind.CONSTANT, (), attr_key({"value": value}))
        if key in memo:
            return memo[key]
        if node is None:
            h = nb.constant(value)
        else:
            h = nb._carry(node, (), node.name if node.name not in nb._names else None)
        memo[key] = h
        constants.add(h)
        return h

    for node in graph.nodes:
        kind = node.kind
        if kind is OpKind.INPUT or kind is OpKind.PARAMETER:
            mapping[node.id] = nb._carry(node, (), node.name)
            continue
        if node.id not in reached:
            continue
        if kind is OpKind.CONSTANT:
            mapping[node.id] = intern_constant(node.attrs["value"], node)
            continue

        new_inputs = tuple(mapping[i] for i in node.inputs)

        if all(h in constants for h in new_inputs):
            values = [nb._nodes[h].attrs["value"] for h in new_inputs]
            folded = apply_kind(kind, node.attrs, *values)
            if np.all(np.isfinite(folded)):
                mapping[node.id] = intern_constant(folded)
                continue

        rewritten = _identity_rewrite(nb._nodes, kind, new_inputs, node.shape)
        if rewritten is not None:
            mapping[node.id] = rewritten
            continue

        key = (kind, new_inputs, attr_key(node.attrs))
        if key in memo:
            mapping[node.id] = memo[key]
            continue
        name = node.name if node.name not in nb._names else None
        h = nb._carry(node, new_inputs, name)
        memo[key] = h
        mapping[node.id] = h

    for out in graph.outputs:
        nb.output(mapping[out])
    return nb.graph()


def _drop_unreached(graph: Graph) -> Graph:
    """Keep the nodes an output reaches and every Input and Parameter,
    renumbered in order, with the outputs remapped."""
    keep = graph.reached.union(graph.leaves())
    if len(keep) == len(graph.nodes):
        return graph
    new_id: dict[int, int] = {}
    nodes: list[Node] = []
    for node in graph.nodes:
        if node.id in keep:
            new_id[node.id] = len(nodes)
            nodes.append(replace(node, id=len(nodes),
                                 inputs=tuple(new_id[i] for i in node.inputs)))
    return Graph(nodes=tuple(nodes), outputs=tuple(new_id[h] for h in graph.outputs))


def optimize(graph: Graph) -> Graph:
    """Constant folding, algebraic identity removal, CSE, dead-code removal.

    One rewrite pass, then the nodes that no output reaches are dropped; the
    rewrites read the rewritten operands, so the result is a fixed point.
    Returns a semantics-equivalent graph; Input and Parameter nodes are always
    retained so the optimized graph binds the same runtime inputs.
    """
    return _drop_unreached(_rewrite(graph))
