"""Reverse-mode differentiation as graph-to-graph transforms.

Both transforms share one reverse sweep (`_ReverseSweep`), which extends the
source graph: its builder starts with the source's nodes, roles and bounds,
and each backward pass appended to it is seeded with a cotangent handle for
one output. Derivative rules are registered per node kind in `VJP_RULES`, so
a new operation only needs a table entry.

* `jacobian` runs one pass per scalar output element, seeded with a one-hot
  constant; each pass yields one row of the Jacobian of the flattened
  outputs with respect to the chosen Input/Parameter nodes. A row is the
  `Concat` along axis 1 of every `wrt` leaf's gradient flattened by
  `Reshape` to (1, size), with a zero constant for a leaf the output does
  not depend on, and the rows are stacked by one `Concat` along axis 0 into
  the single matrix output (a lone leaf or a lone row needs no `Concat`).
  Row by row accumulation keeps the graph at one reverse pass per output
  element, however many columns there are (Griewank & Walther, *Evaluating
  Derivatives*, ch. 3-5). The forward work that the rules repeat is undone
  by common-subexpression elimination when the result is compiled.
* `vjp` runs a single pass seeded with a new Parameter leaf that holds the
  output's cotangent at run time, so its size grows with the source graph
  alone.

The results are graphs themselves, returned as the sweep built them: the
source nodes no output reaches are still there, and nothing is folded.
`runtime.compile` optimizes them, so each derivative graph is optimized once;
`higher_order` optimizes each order before it differentiates it again. A
Jacobian graph keeps the source's bounds, so it can be interval-propagated
as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonDifferentiable, UnknownNode
from .graph import (
    BCE_CLAMP,
    LEAF_KINDS,
    Graph,
    GraphBuilder,
    OpKind,
    TensorShape,
    _count,
    _index,
    optimize,
)


@dataclass(frozen=True, eq=False)
class JacobianGraph:
    """Graph whose output is the (output_size, wrt_size) Jacobian matrix."""

    graph: Graph
    wrt: tuple[int, ...]
    wrt_names: tuple[str, ...]
    output_size: int
    wrt_size: int


def _one_hot(shape: TensorShape, flat_index: int) -> np.ndarray:
    v = np.zeros(shape.dims)
    v.reshape(-1)[flat_index] = 1.0
    return v


def _reduce_like(nb: GraphBuilder, cot: int, target: TensorShape) -> int:
    """Collapse a cotangent to the shape of a scalar-broadcast operand."""
    if nb._nodes[cot].shape == target:
        return cot
    return nb.reduce_sum(cot, axis=None)


def _shape(nb: GraphBuilder, h: int) -> TensorShape:
    return nb._nodes[h].shape


# Each rule receives the builder that extends the source graph, the source
# node, its input handles, and the adjoint handle (same shape as the node).
# It returns one cotangent handle per input; None means identically zero.


def _vjp_add(nb, node, ins, adj):
    a, b = ins
    return [_reduce_like(nb, adj, _shape(nb, a)),
            _reduce_like(nb, adj, _shape(nb, b))]


def _vjp_sub(nb, node, ins, adj):
    a, b = ins
    return [_reduce_like(nb, adj, _shape(nb, a)),
            _reduce_like(nb, nb.neg(adj), _shape(nb, b))]


def _vjp_mul(nb, node, ins, adj):
    a, b = ins
    return [_reduce_like(nb, nb.mul(adj, b), _shape(nb, a)),
            _reduce_like(nb, nb.mul(adj, a), _shape(nb, b))]


def _vjp_div(nb, node, ins, adj):
    a, b = ins
    da = nb.div(adj, b)
    db = nb.neg(nb.div(nb.mul(adj, a), nb.mul(b, b)))
    return [_reduce_like(nb, da, _shape(nb, a)),
            _reduce_like(nb, db, _shape(nb, b))]


def _vjp_neg(nb, node, ins, adj):
    return [nb.neg(adj)]


def _vjp_matmul(nb, node, ins, adj):
    a, b = ins
    ta = node.attrs["transpose_a"]
    tb = node.attrs["transpose_b"]
    if not ta:
        da = nb.matmul(adj, b, transpose_b=not tb)
    else:
        da = nb.matmul(b, adj, transpose_a=tb, transpose_b=True)
    if not tb:
        db = nb.matmul(a, adj, transpose_a=not ta)
    else:
        db = nb.matmul(adj, a, transpose_a=True, transpose_b=ta)
    return [da, db]


def _vjp_pow(nb, node, ins, adj):
    (x,) = ins
    p = node.attrs["exponent"]
    if p == 0.0:
        return [None]
    return [nb.mul(adj, nb.mul(nb.constant(p), nb.power(x, p - 1.0)))]


def _vjp_exp(nb, node, ins, adj):
    (x,) = ins
    return [nb.mul(adj, nb.exp(x))]


def _vjp_log(nb, node, ins, adj):
    (x,) = ins
    return [nb.div(adj, x)]


def _vjp_sigmoid(nb, node, ins, adj):
    (x,) = ins
    s = nb.sigmoid(x)
    return [nb.mul(adj, nb.mul(s, nb.sub(nb.constant(1.0), s)))]


def _vjp_reduce(nb, node, ins, adj):
    (x,) = ins
    x_shape = _shape(nb, x)
    axis = node.attrs["axis"]
    count = x_shape.num_elements if axis is None else x_shape.dims[axis]
    scale = 1.0 / count if node.kind is OpKind.MEAN else None
    if axis is None:
        ones = np.full(x_shape.dims, 1.0 if scale is None else scale)
        return [nb.mul(adj, nb.constant(ones))]
    m, n = x_shape.dims
    if axis == 0:
        spread = nb.matmul(nb.constant(np.ones((m, 1))), adj)
    else:
        spread = nb.matmul(adj, nb.constant(np.ones((1, n))))
    if scale is not None:
        spread = nb.mul(spread, nb.constant(scale))
    return [spread]


def _vjp_clip(nb, node, ins, adj):
    (x,) = ins
    mask = nb.in_interval(x, node.attrs["lo"], node.attrs["hi"])
    return [nb.mul(adj, mask)]


def _vjp_in_interval(nb, node, ins, adj):
    return [None]  # piecewise constant


def _vjp_bce(nb, node, ins, adj):
    p, t = ins
    p_shape, t_shape = _shape(nb, p), _shape(nb, t)
    term_shape = t_shape if p_shape.rank == 0 else p_shape
    count = term_shape.num_elements
    pc = nb.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    one = nb.constant(1.0)
    # fused stable form (pc - t) / (pc (1 - pc)), zero outside the clamp band
    ratio = nb.div(nb.sub(pc, t), nb.mul(pc, nb.sub(one, pc)))
    band = nb.in_interval(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    dp = nb.mul(adj, nb.mul(nb.constant(1.0 / count), nb.mul(ratio, band)))
    dt = nb.mul(adj, nb.mul(nb.constant(1.0 / count),
                            nb.sub(nb.log(nb.sub(one, pc)), nb.log(pc))))
    return [_reduce_like(nb, dp, p_shape), _reduce_like(nb, dt, t_shape)]


def _vjp_reshape(nb, node, ins, adj):
    (x,) = ins
    return [nb.reshape(adj, _shape(nb, x).dims)]


def _vjp_concat(nb, node, ins, adj):
    axis = node.attrs["axis"]
    cots, start = [], 0
    for x in ins:
        stop = start + _shape(nb, x).dims[axis]
        cots.append(nb.slice(adj, axis, start, stop))
        start = stop
    return cots


def _vjp_slice(nb, node, ins, adj):
    (x,) = ins
    axis, start, stop = (node.attrs[k] for k in ("axis", "start", "stop"))
    dims = _shape(nb, x).dims

    def zeros(extent):
        return nb.constant(np.zeros(dims[:axis] + (extent,) + dims[axis + 1:]))

    parts = [adj]
    if start > 0:
        parts.insert(0, zeros(start))
    if stop < dims[axis]:
        parts.append(zeros(dims[axis] - stop))
    return [nb.concat(parts, axis)]


VJP_RULES = {
    OpKind.ADD: _vjp_add,
    OpKind.SUB: _vjp_sub,
    OpKind.MUL: _vjp_mul,
    OpKind.DIV: _vjp_div,
    OpKind.NEG: _vjp_neg,
    OpKind.MATMUL: _vjp_matmul,
    OpKind.POW: _vjp_pow,
    OpKind.EXP: _vjp_exp,
    OpKind.LOG: _vjp_log,
    OpKind.SIGMOID: _vjp_sigmoid,
    OpKind.SUM: _vjp_reduce,
    OpKind.MEAN: _vjp_reduce,
    OpKind.CLIP: _vjp_clip,
    OpKind.IN_INTERVAL: _vjp_in_interval,
    OpKind.BCE: _vjp_bce,
    OpKind.RESHAPE: _vjp_reshape,
    OpKind.CONCAT: _vjp_concat,
    OpKind.SLICE: _vjp_slice,
}


def _descendants(graph: Graph, roots: set[int]) -> set[int]:
    out = set(roots)
    for node in graph.nodes:
        if any(i in out for i in node.inputs):
            out.add(node.id)
    return out


class _ReverseSweep:
    """Reverse passes appended to the source graph.

    `nb` starts with every node, name, role and bound of `graph` but none of
    its outputs, so a source handle is also a handle of the result. Each
    `backward` call appends one reverse pass to `nb`; optimizing the result
    drops the source nodes that no output of it reaches.
    """

    def __init__(self, graph: Graph, wrt):
        graph.require_valid()
        try:
            self.wrt = tuple(_index(h) for h in wrt)
        except ValueError as err:
            raise UnknownNode(f"wrt entry {err}") from None
        if not self.wrt:
            raise NonDifferentiable("empty differentiation target list")
        for i, h in enumerate(self.wrt):
            node = graph.node(h)
            if node.kind not in (OpKind.INPUT, OpKind.PARAMETER):
                raise NonDifferentiable(
                    f"'{node.name}' is not an Input or Parameter node")
            if h in self.wrt[:i]:
                raise NonDifferentiable(f"'{node.name}' is listed twice in wrt")
        for node in graph.nodes:
            if node.kind not in VJP_RULES and node.kind not in LEAF_KINDS:
                raise NonDifferentiable(f"no derivative rule for {node.kind.value}")

        self.graph = graph
        self.nb = GraphBuilder.extending(graph)
        self.active = _descendants(graph, set(self.wrt))

    def backward(self, out_h: int, seed: int) -> dict[int, int]:
        """Seed output `out_h` with cotangent handle `seed` (same shape) and
        return the adjoint handle of every source node the pass reached."""
        nb = self.nb
        adjoint: dict[int, int] = {out_h: seed}
        for node in reversed(self.graph.nodes):
            if not (node.id in self.active or node.id == out_h):
                continue
            adj = adjoint.get(node.id)
            if adj is None or node.kind in LEAF_KINDS:
                continue
            cots = VJP_RULES[node.kind](nb, node, node.inputs, adj)
            for src, cot in zip(node.inputs, cots):
                if cot is None or src not in self.active:
                    continue
                if src in adjoint:
                    adjoint[src] = nb.add(adjoint[src], cot)
                else:
                    adjoint[src] = cot
        return adjoint


def jacobian(graph: Graph, wrt) -> JacobianGraph:
    """Build the graph computing the full Jacobian of outputs w.r.t. `wrt`.

    `wrt` is an ordered list of Input/Parameter handles of `graph`; an entry
    that is not an integer handle, a name included, raises `UnknownNode`. The
    returned graph extends the source, so it keeps every node of it (same
    handles, names, roles, and bounds), and has a single (output_size,
    wrt_size) matrix output. It is not optimized.
    """
    sweep = _ReverseSweep(graph, wrt)
    nb, wrt = sweep.nb, sweep.wrt
    sizes = [graph.nodes[h].shape.num_elements for h in wrt]

    rows: list[int] = []
    for out_h in graph.outputs:
        out_node = graph.nodes[out_h]
        for element in range(out_node.shape.num_elements):
            adjoint = sweep.backward(
                out_h, nb.constant(_one_hot(out_node.shape, element)))
            parts = []
            for h, size in zip(wrt, sizes):
                grad = adjoint.get(h)
                parts.append(nb.constant(np.zeros((1, size))) if grad is None
                             else nb.reshape(grad, (1, size)))
            rows.append(parts[0] if len(parts) == 1 else nb.concat(parts, axis=1))
    nb.output(rows[0] if len(rows) == 1 else nb.concat(rows, axis=0))

    return JacobianGraph(
        graph=nb.graph(),
        wrt=wrt,
        wrt_names=tuple(graph.nodes[h].name for h in wrt),
        output_size=len(rows),
        wrt_size=sum(sizes),
    )


def vjp(graph: Graph, wrt) -> tuple[Graph, str]:
    """Build the vector-Jacobian product of a single-output graph.

    The returned graph keeps every leaf of `graph` and adds one unbounded
    Parameter, shaped like the output, that holds its cotangent c. Its name
    is one that no node of `graph` uses, and it is returned with the graph.
    There is one output per `wrt` handle, in order: the gradient of
    <c, output> with respect to that leaf, shaped like the leaf. The graph is
    not optimized.
    """
    if len(graph.outputs) != 1:
        raise NonDifferentiable(
            f"vjp needs a single-output graph, got {len(graph.outputs)} outputs")
    sweep = _ReverseSweep(graph, wrt)
    nb = sweep.nb
    name = "cotangent"
    while name in graph._names:
        name += "_"
    (out_h,) = graph.outputs
    adjoint = sweep.backward(out_h, nb.parameter(name, graph.nodes[out_h].shape))
    for h in sweep.wrt:
        grad = adjoint.get(h)
        if grad is None:
            grad = nb.constant(np.zeros(graph.nodes[h].shape.dims))
        nb.output(grad)
    return nb.graph(), name


def higher_order(graph: Graph, wrt, order: int) -> JacobianGraph:
    """Iterate `jacobian` `order` times; order 1 is exactly `jacobian`.

    Each order is optimized before it is differentiated again, so the next
    sweep runs over the folded graph and not over every node the previous
    sweeps appended; the last order is returned unoptimized. An order that
    is not an integer of at least 1 is refused with `InvalidParams`.
    """
    order = _count(order, 1, "order")
    jg = jacobian(graph, wrt)
    for _ in range(order - 1):
        g = optimize(jg.graph)
        nxt = jacobian(g, [g.find(name) for name in jg.wrt_names])
        jg = JacobianGraph(
            graph=nxt.graph,
            wrt=jg.wrt,
            wrt_names=jg.wrt_names,
            output_size=nxt.output_size,
            wrt_size=nxt.wrt_size,
        )
    return jg
