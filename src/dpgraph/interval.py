"""Interval arithmetic over graphs and the interval-propagation sensitivity bound.

An enclosure is one float64 array of shape (2,) + the tensor's dims: row 0
holds the lower ends and row 1 the upper ends. Propagation applies the
textbook interval rules node by node, one entry of `INTERVAL_RULES` per kind;
each rule takes its operands' stacked ends and returns the node's, so it runs
each NumPy operation once for both ends. A kind that does not decrease in any
operand (the layout kinds, Add, Exp, Sigmoid, Sum, Mean and Clip) shares one
rule: its kernel from `graph.OPS`, bound to the operands' declared ranks, run
once with the end axis as a leading batch axis. Sub and Neg are one operation
against the reversed ends, and Mul, Div and MatMul take the hull of the four
end products from one broadcast multiply. The whole pass runs under one
`np.errstate` that ignores every floating-point flag.

An end product 0 * ±inf is NaN, and stays NaN: without outward rounding a 0
end may be a positive value that underflowed and an inf end a finite one that
overflowed, so no convention for it is sound.

Occurrences of the same variable are treated independently on purpose
(x - x over [-1, 1] yields [-2, 2]); this dependency looseness is the known
weakness of the baseline and it is preserved, not patched.

`ibp_bound` propagates the boxes through the Jacobian graph as `jacobian`
returns it, unoptimized; `lipschitz.estimate_sensitivity` wraps it in the
`ibp` report.
"""

from __future__ import annotations

import numpy as np

from .autodiff import jacobian
from .errors import DomainError, ValidationFailed
from .graph import BCE_CLAMP, OPS, Diagnostic, Graph, OpKind, _lifted


class IntervalTensor:
    """Elementwise enclosure [lo, hi] of one tensor, kept as its stacked ends:
    `ends[0]` is `lo` and `ends[1]` is `hi`."""

    __slots__ = ("ends",)

    def __init__(self, ends: np.ndarray):
        self.ends = ends

    @property
    def lo(self) -> np.ndarray:
        return self.ends[0]

    @property
    def hi(self) -> np.ndarray:
        return self.ends[1]


def _box(lo, hi, dims: tuple[int, ...]) -> np.ndarray:
    ends = np.empty((2,) + dims)
    ends[0] = lo
    ends[1] = hi
    return ends


def _constant(node, ins) -> np.ndarray:
    value = node.attrs["value"]
    return _box(value, value, value.shape)


def _bound_kernel(kind: OpKind, attrs, ins):
    """The kind's `graph.OPS` kernel bound to the declared ranks of stacked
    operands: each carries the end axis in front of its declared axes."""
    return OPS[kind].kernel({**attrs, "ranks": tuple(a.ndim - 1 for a in ins)})


def _end_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The four end products a[i] * b[j] of stacked operands that broadcast,
    from one multiply, stacked in the order lo*lo, lo*hi, hi*lo, hi*hi."""
    p = a[:, None] * b[None]
    return p.reshape((4,) + p.shape[2:])


def _hull(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least (row 0) and greatest (row 1) of the four end products."""
    p = _end_products(a, b)
    out = np.empty_like(p[:2])  # the memory order of the products
    np.minimum.reduce(p, axis=0, out=out[0, ...])
    np.maximum.reduce(p, axis=0, out=out[1, ...])
    return out


def _pair_hull(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`_hull` of the stacked operands of a pair kind, a declared scalar
    lifted to the other operand's rank behind its end axis."""
    return _lifted(_hull, a.ndim - 1, b.ndim - 1)(a, b)


def _monotone(node, ins) -> np.ndarray:
    """A kind that does not decrease in any operand takes its least value at
    the lower ends and its greatest at the upper ones; for the layout kinds,
    which move elements without computing, the enclosure is exact."""
    return _bound_kernel(node.kind, node.attrs, ins)(*ins)


def _sub(node, ins) -> np.ndarray:
    a, b = ins
    return _bound_kernel(node.kind, node.attrs, ins)(a, b[::-1])


def _mul(node, ins) -> np.ndarray:
    return _pair_hull(*ins)


def _div(node, ins) -> np.ndarray:
    a, b = ins
    if np.any((b[0] <= 0) & (b[1] >= 0)):
        raise DomainError(f"Div by an interval containing 0 at node '{node.name}'")
    return _pair_hull(a, 1.0 / b[::-1])


def _matmul(node, ins) -> np.ndarray:
    a, b = ins
    if node.attrs["transpose_a"]:
        a = a.swapaxes(-1, -2)
    if node.attrs["transpose_b"]:
        b = b.swapaxes(-1, -2)
    # exact interval product: the hull of the four end products of each term
    # a_ik * b_kj, then each end summed over k on its own. NumPy orders a sum
    # by the memory order of its operand and of its result, and that order
    # follows the transposed operands, so the hull, the sum and the stacked
    # result all keep it, as each end's operations did on their own
    p = _end_products(a[:, :, :, None], b[:, None, :, :])
    lo = np.add.reduce(np.minimum.reduce(p, axis=0), axis=1)
    hi = np.add.reduce(np.maximum.reduce(p, axis=0), axis=1)
    return np.concatenate((lo[None], hi[None]))


def _pow(node, ins) -> np.ndarray:
    (a,) = ins
    p = node.attrs["exponent"]
    if p == 0.0:
        return np.ones_like(a)
    lo, hi = a
    fractional = p != int(p)
    if fractional and np.any(lo < 0):
        raise DomainError(
            f"Pow exponent {p} needs a nonnegative base at node '{node.name}'")
    if p < 0 and np.any((lo <= 0) & (hi >= 0)):
        raise DomainError(
            f"Pow exponent {p} has a pole at 0 inside node '{node.name}'")
    # x^p is monotone on each side of 0, and an odd power across it too, so
    # only an even power over a box that straddles 0 has its minimum, 0, inside
    ends = a ** p
    out = np.empty_like(ends)
    np.minimum(ends[0], ends[1], out=out[0, ...])
    np.maximum(ends[0], ends[1], out=out[1, ...])
    if not fractional and int(p) % 2 == 0:
        np.copyto(out[0, ...], 0.0, where=(lo < 0) & (hi > 0))
    return out


def _log(node, ins) -> np.ndarray:
    (a,) = ins
    if np.any(a[0] < 0):
        raise DomainError(f"Log of an interval with negative values at node "
                          f"'{node.name}'")
    return np.log(a)


def _in_interval(node, ins) -> np.ndarray:
    (a,) = ins
    lo, hi = node.attrs["lo"], node.attrs["hi"]
    out = np.empty_like(a)
    out[0] = (a[0] >= lo) & (a[1] <= hi)  # inside
    out[1] = ~((a[1] < lo) | (a[0] > hi))  # not outside
    return out


def _bce(node, ins) -> np.ndarray:
    p, t = ins
    pc = p.clip(BCE_CLAMP, 1.0 - BCE_CLAMP)
    log_p = np.log(pc)
    log_q = np.log(1.0 - pc[::-1])
    term = -(_pair_hull(t, log_p) + _pair_hull(1.0 - t[::-1], log_q))[::-1]
    return _bound_kernel(OpKind.MEAN, {"axis": None}, (term,))(term)


# One rule per non-leaf kind plus Constant; each receives the node and the
# stacked ends of its inputs and returns the node's stacked ends.
INTERVAL_RULES = {
    OpKind.CONSTANT: _constant,
    OpKind.ADD: _monotone,
    OpKind.SUB: _sub,
    OpKind.MUL: _mul,
    OpKind.DIV: _div,
    OpKind.NEG: lambda node, ins: -ins[0][::-1],
    OpKind.MATMUL: _matmul,
    OpKind.POW: _pow,
    OpKind.EXP: _monotone,
    OpKind.LOG: _log,
    OpKind.SIGMOID: _monotone,
    OpKind.SUM: _monotone,
    OpKind.MEAN: _monotone,
    OpKind.CLIP: _monotone,
    OpKind.IN_INTERVAL: _in_interval,
    OpKind.BCE: _bce,
    OpKind.RESHAPE: _monotone,
    OpKind.CONCAT: _monotone,
    OpKind.SLICE: _monotone,
}


def propagate(graph: Graph) -> dict[int, IntervalTensor]:
    """Sound enclosures for every node reachable from the outputs.

    Every Input/Parameter feeding an output must carry bounds. Division and
    Log raise DomainError when their operand interval reaches a pole. A graph
    whose node reads a later node, or whose output is no node, raises
    ValidationFailed.
    """
    graph._require_ordered()
    reachable = graph.reached
    ends: dict[int, np.ndarray] = {}
    missing = []
    with np.errstate(all="ignore"):
        for node in graph.nodes:
            if node.id not in reachable:
                continue
            k = node.kind
            if k in (OpKind.INPUT, OpKind.PARAMETER):
                b = node.bounds
                if b is None:
                    missing.append(node)
                else:
                    ends[node.id] = _box(b.lo, b.hi, node.shape.dims)
                continue
            if missing:
                continue
            ends[node.id] = INTERVAL_RULES[k](node, [ends[i] for i in node.inputs])
    if missing:
        raise ValidationFailed([
            Diagnostic("missing-bounds",
                       f"missing bounds on '{n.name}' (#{n.id})", n.id)
            for n in missing])
    return {h: IntervalTensor(e) for h, e in ends.items()}


def ibp_bound(graph: Graph, wrt) -> float:
    """Frobenius-dominated spectral bound from intervals on the Jacobian graph.

    U = sqrt(sum of max(|lo|, |hi|)^2) over the enclosures of the Jacobian
    entries with respect to the `wrt` handles is a sound upper bound of the
    supremum of the Jacobian's spectral norm over the box, and usually a
    loose one. An enclosure of the Jacobian that holds NaN bounds nothing,
    and raises DomainError naming the first node whose enclosure does.
    """
    jg = jacobian(graph, wrt).graph
    enclosures = propagate(jg)
    out = enclosures[jg.outputs[0]].ends
    if np.isnan(out).any():
        first = jg.nodes[next(h for h, iv in enclosures.items()
                              if np.isnan(iv.ends).any())]
        raise DomainError(f"interval propagation reaches NaN at node "
                          f"'{first.name}' ({first.kind.value})")
    magnitude = np.maximum(*np.abs(out))
    return float(np.sqrt(np.sum(magnitude ** 2)))
