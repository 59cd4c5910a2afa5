"""Shared test helpers: an independent reference interpreter and graph generators.

The reference interpreter below is deliberately written from the operation
definitions with plain numpy expressions. It shares no code with the compiled
execution path so it can serve as a differential-testing oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from dpgraph.errors import DomainError, ValidationFailed
from dpgraph.graph import Diagnostic, Graph, GraphBuilder, OpKind, apply_kind

CLAMP = 1e-7  # probability clamp of the fused cross-entropy


def ref_eval_all(graph: Graph, inputs: dict) -> dict[int, np.ndarray]:
    """Evaluate every node recursively; returns handle -> value."""
    values: dict[int, np.ndarray] = {}

    def ev(h: int) -> np.ndarray:
        if h in values:
            return values[h]
        node = graph.nodes[h]
        k = node.kind
        if k in (OpKind.INPUT, OpKind.PARAMETER):
            v = np.asarray(inputs[node.name], dtype=np.float64)
        elif k is OpKind.CONSTANT:
            v = node.attrs["value"]
        elif k is OpKind.ADD:
            v = ev(node.inputs[0]) + ev(node.inputs[1])
        elif k is OpKind.SUB:
            v = ev(node.inputs[0]) - ev(node.inputs[1])
        elif k is OpKind.MUL:
            v = ev(node.inputs[0]) * ev(node.inputs[1])
        elif k is OpKind.DIV:
            v = ev(node.inputs[0]) / ev(node.inputs[1])
        elif k is OpKind.NEG:
            v = -ev(node.inputs[0])
        elif k is OpKind.MATMUL:
            a, b = ev(node.inputs[0]), ev(node.inputs[1])
            if node.attrs["transpose_a"]:
                a = a.T
            if node.attrs["transpose_b"]:
                b = b.T
            v = a @ b
        elif k is OpKind.POW:
            v = ev(node.inputs[0]) ** node.attrs["exponent"]
        elif k is OpKind.EXP:
            v = np.exp(ev(node.inputs[0]))
        elif k is OpKind.LOG:
            v = np.log(ev(node.inputs[0]))
        elif k is OpKind.SIGMOID:
            x = ev(node.inputs[0])
            v = 1.0 / (1.0 + np.exp(-x))
        elif k in (OpKind.SUM, OpKind.MEAN):
            x = ev(node.inputs[0])
            fn = np.sum if k is OpKind.SUM else np.mean
            axis = node.attrs["axis"]
            v = fn(x) if axis is None else fn(x, axis=axis, keepdims=True)
        elif k is OpKind.CLIP:
            v = np.minimum(np.maximum(ev(node.inputs[0]), node.attrs["lo"]),
                           node.attrs["hi"])
        elif k is OpKind.BCE:
            p, t = ev(node.inputs[0]), ev(node.inputs[1])
            pc = np.minimum(np.maximum(p, CLAMP), 1.0 - CLAMP)
            v = np.mean(-(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc)))
        elif k is OpKind.IN_INTERVAL:
            x = ev(node.inputs[0])
            v = np.where((x >= node.attrs["lo"]) & (x <= node.attrs["hi"]), 1.0, 0.0)
        elif k is OpKind.RESHAPE:
            v = ev(node.inputs[0]).reshape(node.attrs["shape"])
        elif k is OpKind.CONCAT:
            v = np.concatenate([ev(i) for i in node.inputs], axis=node.attrs["axis"])
        elif k is OpKind.SLICE:
            x = ev(node.inputs[0])
            v = np.take(x, range(node.attrs["start"], node.attrs["stop"]),
                        axis=node.attrs["axis"])
        else:  # pragma: no cover
            raise AssertionError(f"reference interpreter misses kind {k}")
        values[h] = np.asarray(v, dtype=np.float64)
        return values[h]

    for out in graph.outputs:
        ev(out)
    return values


def ref_eval(graph: Graph, inputs: dict) -> list[np.ndarray]:
    values = ref_eval_all(graph, inputs)
    return [values[h] for h in graph.outputs]


def sample_inputs(graph: Graph, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform in-bounds values for every Input/Parameter node."""
    out = {}
    for h in graph.leaves():
        node = graph.nodes[h]
        b = graph.bounds.get(h)
        if b is None:
            out[node.name] = rng.uniform(-1.0, 1.0, node.shape.dims)
        else:
            lo, hi = b.broadcast_to(node.shape)
            out[node.name] = rng.uniform(lo, hi)
    return out


# ---------------------------------------------------------------------------
# reference interval propagation: the textbook rules applied to each end on
# its own, as `dpgraph.interval` applied them before it stacked the ends


def _ref_mul(a, b):
    cands = np.stack(np.broadcast_arrays(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]))
    return cands.min(axis=0), cands.max(axis=0)


def _ref_sub(a, b):
    return a[0] - b[1], a[1] - b[0]


def _ref_neg(a):
    return -a[1], -a[0]


def _ref_scalar(value):
    v = np.asarray(value, dtype=np.float64)
    return v, v


def _ref_matmul(a, b, attrs):
    (al, ah), (bl, bh) = a, b
    if attrs["transpose_a"]:
        al, ah = al.T, ah.T
    if attrs["transpose_b"]:
        bl, bh = bl.T, bh.T
    p = np.stack([
        al[:, :, None] * bl[None, :, :],
        al[:, :, None] * bh[None, :, :],
        ah[:, :, None] * bl[None, :, :],
        ah[:, :, None] * bh[None, :, :],
    ])
    return p.min(axis=0).sum(axis=1), p.max(axis=0).sum(axis=1)


def _ref_pow(a, p, name):
    lo_in, hi_in = a
    if p == 0.0:
        return np.ones_like(lo_in), np.ones_like(hi_in)
    fractional = p != int(p)
    if fractional and np.any(lo_in < 0):
        raise DomainError(f"Pow exponent {p} needs a nonnegative base at node '{name}'")
    if p < 0 and np.any((lo_in <= 0) & (hi_in >= 0)):
        raise DomainError(f"Pow exponent {p} has a pole at 0 inside node '{name}'")
    ends = lo_in ** p, hi_in ** p
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    if not fractional and int(p) % 2 == 0:
        lo = np.where((lo_in < 0) & (hi_in > 0), 0.0, lo)
    return lo, hi


def _ref_log(a, name):
    if np.any(a[0] < 0):
        raise DomainError(f"Log of an interval with negative values at node '{name}'")
    return np.log(a[0]), np.log(a[1])


def _ref_div(a, b, name):
    blo, bhi = np.broadcast_arrays(*b)
    if np.any((blo <= 0) & (bhi >= 0)):
        raise DomainError(f"Div by an interval containing 0 at node '{name}'")
    return _ref_mul(a, (1.0 / bhi, 1.0 / blo))


def _ref_in_interval(a, lo, hi):
    inside = (a[0] >= lo) & (a[1] <= hi)
    outside = (a[1] < lo) | (a[0] > hi)
    return np.where(inside, 1.0, 0.0), np.where(outside, 0.0, 1.0)


def _ref_bce(p, t):
    pc = np.clip(p[0], CLAMP, 1.0 - CLAMP), np.clip(p[1], CLAMP, 1.0 - CLAMP)
    log_p = np.log(pc[0]), np.log(pc[1])
    one_minus = _ref_sub(_ref_scalar(1.0), pc)
    log_q = np.log(one_minus[0]), np.log(one_minus[1])
    mt, mq = _ref_mul(t, log_p), _ref_mul(_ref_sub(_ref_scalar(1.0), t), log_q)
    term = _ref_neg((mt[0] + mq[0], mt[1] + mq[1]))
    return np.mean(term[0]), np.mean(term[1])


def _ref_interval_rule(node, ins):
    k, attrs = node.kind, node.attrs
    if k is OpKind.CONSTANT:
        return _ref_scalar(attrs["value"])
    if k is OpKind.SUB:
        return _ref_sub(*ins)
    if k is OpKind.MUL:
        return _ref_mul(*ins)
    if k is OpKind.DIV:
        return _ref_div(*ins, node.name)
    if k is OpKind.NEG:
        return _ref_neg(ins[0])
    if k is OpKind.MATMUL:
        return _ref_matmul(*ins, attrs)
    if k is OpKind.POW:
        return _ref_pow(ins[0], attrs["exponent"], node.name)
    if k is OpKind.LOG:
        return _ref_log(ins[0], node.name)
    if k is OpKind.IN_INTERVAL:
        return _ref_in_interval(ins[0], attrs["lo"], attrs["hi"])
    if k is OpKind.BCE:
        return _ref_bce(*ins)
    # a kind that does not decrease in any operand: its kernel on each end
    return (apply_kind(k, attrs, *(a[0] for a in ins)),
            apply_kind(k, attrs, *(a[1] for a in ins)))


def ref_propagate(graph: Graph) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """handle -> (lo, hi) for every node the outputs reach, each end computed
    on its own with floating-point flags ignored."""
    result = {}
    missing = []
    with np.errstate(all="ignore"):
        for node in graph.nodes:
            if node.id not in graph.reached:
                continue
            if node.kind in (OpKind.INPUT, OpKind.PARAMETER):
                if node.bounds is None:
                    missing.append(node)
                else:
                    lo, hi = node.bounds.broadcast_to(node.shape)
                    result[node.id] = lo, hi
                continue
            if missing:
                continue
            ends = _ref_interval_rule(node, [result[i] for i in node.inputs])
            result[node.id] = tuple(np.asarray(e, dtype=np.float64) for e in ends)
    if missing:
        raise ValidationFailed([
            Diagnostic("missing-bounds", f"missing bounds on '{n.name}' (#{n.id})", n.id)
            for n in missing])
    return result


# ---------------------------------------------------------------------------
# random graph generation

_EW_KINDS = (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.NEG, OpKind.SIGMOID)


def random_graph(rng: np.random.Generator, *, scalars_only: bool = False,
                 n_leaves: int | None = None, depth: int = 6,
                 force_kinds: tuple[OpKind, ...] = (), smooth_only: bool = False,
                 unit_leaves: bool = False, wild: bool = False) -> Graph:
    """Random well-posed graph: poles are kept away from reachable values.

    Division and Log only ever see operands of the form sigmoid(u) + 0.5,
    which stay in [0.5, 1.5] for any real input, so every generated graph is
    finite on its whole bounded box. With `wild=True` they see raw operands
    instead, and Pow also draws the exponents -1 and 0.5, so some inputs
    leave the domains of Log, Div and Pow.
    """
    b = GraphBuilder()
    n_leaves = n_leaves if n_leaves is not None else int(rng.integers(1, 4))
    pool: list[int] = []
    if scalars_only:
        shapes = [()]
    else:
        shapes = [(), (2, 2), (2, 1), (3, 1)]
    for i in range(n_leaves):
        shape = shapes[int(rng.integers(0, len(shapes)))]
        lo, hi = (0.0, 1.0) if unit_leaves else (-1.0, 1.0)
        if rng.random() < 0.5:
            pool.append(b.input(f"x{i}", shape, bounds=(lo, hi)))
        else:
            pool.append(b.parameter(f"p{i}", shape, bounds=(lo, hi)))

    def tame(h: int) -> int:
        # sigmoid(u) + 0.5 lies in [0.5, 1.5]: safe divisor / log argument
        if wild:
            return h
        return b.add(b.sigmoid(h), b.constant(0.5))

    def squash(h: int) -> int:
        return b.clip(h, -3.0, 3.0) if not smooth_only else b.mul(h, b.constant(0.25))

    def pick() -> int:
        return pool[int(rng.integers(0, len(pool)))]

    def pick_shape(dims) -> int | None:
        matches = [h for h in pool if b._nodes[h].shape.dims == dims]
        return matches[int(rng.integers(0, len(matches)))] if matches else None

    def pick_tensor() -> int:
        # a node of rank 2, or a scalar one reshaped to (1, 1)
        tensors = [h for h in pool if b._nodes[h].shape.rank]
        if tensors:
            return tensors[int(rng.integers(0, len(tensors)))]
        return b.reshape(pick(), (1, 1))

    def emit(kind: OpKind) -> int | None:
        if kind in (OpKind.ADD, OpKind.SUB, OpKind.MUL):
            a = pick()
            other = pick_shape(b._nodes[a].shape.dims)
            second = other if (other is not None and rng.random() < 0.7) else b.constant(
                rng.uniform(-1, 1))
            return b.build(kind, [a, second])
        if kind is OpKind.NEG:
            return b.neg(pick())
        if kind is OpKind.DIV:
            a = pick()
            src = pick_shape(b._nodes[a].shape.dims)
            if src is None or rng.random() < 0.3:
                src = b.constant(rng.uniform(-1, 1))
            return b.div(a, tame(src))
        if kind is OpKind.LOG:
            return b.log(tame(pick()))
        if kind is OpKind.EXP:
            return b.exp(squash(pick()))
        if kind is OpKind.SIGMOID:
            return b.sigmoid(pick())
        if kind is OpKind.POW:
            exponent = float(rng.choice([-1.0, 0.5, 2.0, 3.0] if wild else [2.0, 3.0]))
            return b.power(pick(), exponent)
        if kind is OpKind.CLIP:
            return b.clip(pick(), -0.75, 0.75)
        if kind is OpKind.IN_INTERVAL:
            return b.in_interval(pick(), -0.5, 2.0)
        if kind is OpKind.SUM or kind is OpKind.MEAN:
            a = pick()
            rank = b._nodes[a].shape.rank
            axis = None if rank != 2 or rng.random() < 0.5 else int(rng.integers(0, 2))
            return (b.reduce_sum if kind is OpKind.SUM else b.reduce_mean)(a, axis=axis)
        if kind is OpKind.MATMUL:
            a = pick_shape((2, 2))
            if a is None:
                return None
            other = pick_shape((2, 2)) if rng.random() < 0.5 else pick_shape((2, 1))
            return b.matmul(a, other) if other is not None else None
        if kind is OpKind.BCE:
            p = b.sigmoid(pick())
            t_src = pick_shape(b._nodes[p].shape.dims)
            t = b.sigmoid(t_src) if t_src is not None else b.constant(0.6)
            return b.binary_cross_entropy(p, t)
        if kind is OpKind.RESHAPE:
            a = pick()
            size = b._nodes[a].shape.num_elements
            targets = [(size, 1), (1, size)] + ([()] if size == 1 else [])
            return b.reshape(a, targets[int(rng.integers(0, len(targets)))])
        if kind is OpKind.CONCAT:
            a = pick_tensor()
            dims = b._nodes[a].shape.dims
            axis = int(rng.integers(0, 2))
            other = pick_shape(dims)
            extra = list(dims)
            extra[axis] = int(rng.integers(1, 3))
            parts = [a, other if other is not None else a,
                     b.constant(rng.uniform(-1, 1, extra))]
            return b.concat([parts[i] for i in rng.permutation(3)], axis)
        if kind is OpKind.SLICE:
            a = pick_tensor()
            dims = b._nodes[a].shape.dims
            axis = int(rng.integers(0, 2))
            start = int(rng.integers(0, dims[axis]))
            stop = int(rng.integers(start + 1, dims[axis] + 1))
            return b.slice(a, axis, start, stop)
        return None

    wanted = list(force_kinds)
    steps = max(depth, len(wanted))
    for step in range(steps):
        if step < len(wanted):
            kind = wanted[step]
        else:
            choices = list(_EW_KINDS) + [OpKind.SUM, OpKind.MEAN, OpKind.POW,
                                         OpKind.EXP, OpKind.LOG, OpKind.DIV]
            if not smooth_only:
                choices += [OpKind.CLIP, OpKind.IN_INTERVAL, OpKind.BCE]
            if not scalars_only:
                choices.append(OpKind.MATMUL)
            kind = choices[int(rng.integers(0, len(choices)))]
        h = emit(kind)
        if h is not None:
            pool.append(h)

    # reduce to a scalar-ish output so downstream consumers stay small
    out = pool[-1]
    if b._nodes[out].shape.rank != 0 and rng.random() < 0.5:
        out = b.reduce_mean(out, axis=None)
    b.output(out)
    return b.graph()


def kink_free_point(graph: Graph, rng: np.random.Generator, margin: float = 1e-3,
                    tries: int = 50) -> dict[str, np.ndarray]:
    """In-bounds point whose forward pass stays `margin` away from every
    Clip/InInterval edge and from the cross-entropy clamp; needed before
    finite-difference checks."""
    for _ in range(tries):
        point = sample_inputs(graph, rng)
        values = ref_eval_all(graph, point)
        ok = True
        for node in graph.nodes:
            if any(i not in values for i in node.inputs):
                continue  # dead branch: cannot influence the output
            if node.kind in (OpKind.CLIP, OpKind.IN_INTERVAL):
                x = values[node.inputs[0]]
                lo, hi = node.attrs["lo"], node.attrs["hi"]
                if np.any(np.abs(x - lo) < margin) or np.any(np.abs(x - hi) < margin):
                    ok = False
                    break
            if node.kind is OpKind.BCE:
                p = values[node.inputs[0]]
                if np.any(p < CLAMP + margin) or np.any(p > 1.0 - CLAMP - margin):
                    ok = False
                    break
        if ok:
            return point
    raise AssertionError("could not sample a kink-free point")


def finite_difference(graph: Graph, inputs: dict, wrt_names, step: float = 1e-5):
    """Central-difference Jacobian of the flattened outputs, column by column."""
    cols = []
    for name in wrt_names:
        base = np.asarray(inputs[name], dtype=np.float64)
        for flat in range(base.size if base.shape else 1):
            plus = dict(inputs)
            minus = dict(inputs)
            bp = base.copy().reshape(-1)
            bm = base.copy().reshape(-1)
            bp[flat if base.shape else 0] += step
            bm[flat if base.shape else 0] -= step
            plus[name] = bp.reshape(base.shape)
            minus[name] = bm.reshape(base.shape)
            fp = np.concatenate([v.reshape(-1) for v in ref_eval(graph, plus)])
            fm = np.concatenate([v.reshape(-1) for v in ref_eval(graph, minus)])
            cols.append((fp - fm) / (2 * step))
    return np.stack(cols, axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def signed_parameters(graph: Graph, seed: int = 0) -> dict[str, np.ndarray]:
    """Parameter values of an MLP as training would start them: weights from
    N(0, 1/fan_in) and biases from N(0, 0.1^2), drawn in `graph.parameters`
    order from `np.random.default_rng(seed)`. A weight's name starts with w."""
    draw = np.random.default_rng(seed)
    values = {}
    for h in graph.parameters:
        node = graph.nodes[h]
        dims = node.shape.dims
        scale = np.sqrt(1.0 / dims[1]) if node.name.startswith("w") else 0.1
        values[node.name] = draw.normal(0.0, scale, dims)
    return values
