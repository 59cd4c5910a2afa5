"""Interval arithmetic over graphs and the interval-propagation sensitivity bound.

Propagation applies the textbook interval rules node by node, one entry of
`INTERVAL_RULES` per kind. A kind that does not decrease in any operand (the
layout kinds, Add, Exp, Sigmoid, Sum, Mean and Clip) shares one rule: its
kernel from `graph.OPS` applied to the lower endpoints and to the upper
endpoints. Occurrences of the same variable are treated independently on
purpose (x - x over [-1, 1] yields [-2, 2]); this dependency looseness is the
known weakness of the baseline and it is preserved, not patched.

`ibp_bound` propagates the boxes through the Jacobian graph as `jacobian`
returns it, unoptimized; `lipschitz.estimate_sensitivity` wraps it in the
`ibp` report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import jacobian
from .errors import DomainError, ValidationFailed
from .graph import BCE_CLAMP, Diagnostic, Graph, OpKind, apply_kind


@dataclass(frozen=True)
class IntervalTensor:
    """Elementwise enclosure [lo, hi] for one tensor."""

    lo: np.ndarray
    hi: np.ndarray

    @property
    def diverged(self) -> bool:
        """True when an operation provably escaped to an infinite endpoint."""
        return not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))


def _iv(lo, hi) -> IntervalTensor:
    return IntervalTensor(np.asarray(lo, dtype=np.float64),
                          np.asarray(hi, dtype=np.float64))


def _mul(a: IntervalTensor, b: IntervalTensor) -> IntervalTensor:
    cands = np.stack(np.broadcast_arrays(
        a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi))
    return _iv(cands.min(axis=0), cands.max(axis=0))


def _add(a, b):
    return _iv(a.lo + b.lo, a.hi + b.hi)


def _sub(a, b):
    return _iv(a.lo - b.hi, a.hi - b.lo)


def _neg(a):
    return _iv(-a.hi, -a.lo)


def _scalar(value) -> IntervalTensor:
    v = np.asarray(value, dtype=np.float64)
    return _iv(v, v)


def _matmul(a: IntervalTensor, b: IntervalTensor, attrs) -> IntervalTensor:
    al, ah = a.lo, a.hi
    bl, bh = b.lo, b.hi
    if attrs["transpose_a"]:
        al, ah = al.T, ah.T
    if attrs["transpose_b"]:
        bl, bh = bl.T, bh.T
    # exact interval product: extreme of the four endpoint products per term
    p = np.stack([
        al[:, :, None] * bl[None, :, :],
        al[:, :, None] * bh[None, :, :],
        ah[:, :, None] * bl[None, :, :],
        ah[:, :, None] * bh[None, :, :],
    ])
    return _iv(p.min(axis=0).sum(axis=1), p.max(axis=0).sum(axis=1))


def _pow(a: IntervalTensor, exponent: float, node_name: str) -> IntervalTensor:
    p = exponent
    if p == 0.0:
        return _iv(np.ones_like(a.lo), np.ones_like(a.hi))
    fractional = p != int(p)
    if fractional and np.any(a.lo < 0):
        raise DomainError(
            f"Pow exponent {p} needs a nonnegative base at node '{node_name}'")
    if p < 0 and np.any((a.lo <= 0) & (a.hi >= 0)):
        raise DomainError(
            f"Pow exponent {p} has a pole at 0 inside node '{node_name}'")
    # x^p is monotone on each side of 0, and an odd power across it too, so
    # only an even power over a box that straddles 0 has its minimum, 0, inside
    ends = a.lo ** p, a.hi ** p
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    if not fractional and int(p) % 2 == 0:
        lo = np.where((a.lo < 0) & (a.hi > 0), 0.0, lo)
    return _iv(lo, hi)


def _log(a: IntervalTensor, node_name: str) -> IntervalTensor:
    if np.any(a.lo < 0):
        raise DomainError(f"Log of an interval with negative values at node "
                          f"'{node_name}'")
    with np.errstate(divide="ignore"):
        return _iv(np.log(a.lo), np.log(a.hi))


def _div(a: IntervalTensor, b: IntervalTensor, node_name: str) -> IntervalTensor:
    blo, bhi = np.broadcast_arrays(b.lo, b.hi)
    if np.any((blo <= 0) & (bhi >= 0)):
        raise DomainError(f"Div by an interval containing 0 at node '{node_name}'")
    recip = _iv(1.0 / bhi, 1.0 / blo)
    return _mul(a, recip)


def _in_interval(a: IntervalTensor, lo: float, hi: float) -> IntervalTensor:
    inside = (a.lo >= lo) & (a.hi <= hi)
    outside = (a.hi < lo) | (a.lo > hi)
    return _iv(np.where(inside, 1.0, 0.0), np.where(outside, 0.0, 1.0))


def _bce(p: IntervalTensor, t: IntervalTensor) -> IntervalTensor:
    pc = _iv(np.clip(p.lo, BCE_CLAMP, 1.0 - BCE_CLAMP),
             np.clip(p.hi, BCE_CLAMP, 1.0 - BCE_CLAMP))
    log_p = _iv(np.log(pc.lo), np.log(pc.hi))
    one_minus = _sub(_scalar(1.0), pc)
    log_q = _iv(np.log(one_minus.lo), np.log(one_minus.hi))
    term = _neg(_add(_mul(t, log_p), _mul(_sub(_scalar(1.0), t), log_q)))
    return _iv(np.mean(term.lo), np.mean(term.hi))


def _monotone(node, ins) -> IntervalTensor:
    """A kind that does not decrease in any operand takes its least value at
    the lower endpoints and its greatest at the upper ones; for the layout
    kinds, which move elements without computing, the enclosure is exact."""
    return _iv(apply_kind(node.kind, node.attrs, *(a.lo for a in ins)),
               apply_kind(node.kind, node.attrs, *(a.hi for a in ins)))


# One rule per non-leaf kind plus Constant; each receives the node and the
# enclosures of its inputs and returns the node's enclosure.
INTERVAL_RULES = {
    OpKind.CONSTANT: lambda node, ins: _scalar(node.attrs["value"]),
    OpKind.ADD: _monotone,
    OpKind.SUB: lambda node, ins: _sub(*ins),
    OpKind.MUL: lambda node, ins: _mul(*ins),
    OpKind.DIV: lambda node, ins: _div(ins[0], ins[1], node.name),
    OpKind.NEG: lambda node, ins: _neg(ins[0]),
    OpKind.MATMUL: lambda node, ins: _matmul(ins[0], ins[1], node.attrs),
    OpKind.POW: lambda node, ins: _pow(ins[0], node.attrs["exponent"], node.name),
    OpKind.EXP: _monotone,
    OpKind.LOG: lambda node, ins: _log(ins[0], node.name),
    OpKind.SIGMOID: _monotone,
    OpKind.SUM: _monotone,
    OpKind.MEAN: _monotone,
    OpKind.CLIP: _monotone,
    OpKind.IN_INTERVAL: lambda node, ins: _in_interval(
        ins[0], node.attrs["lo"], node.attrs["hi"]),
    OpKind.BCE: lambda node, ins: _bce(ins[0], ins[1]),
    OpKind.RESHAPE: _monotone,
    OpKind.CONCAT: _monotone,
    OpKind.SLICE: _monotone,
}


def propagate(graph: Graph) -> dict[int, IntervalTensor]:
    """Sound enclosures for every node reachable from the outputs.

    Every Input/Parameter feeding an output must carry bounds. Division and
    Log raise DomainError when their operand interval reaches a pole.
    """
    reachable = graph.reached
    result: dict[int, IntervalTensor] = {}
    missing = []
    for node in graph.nodes:
        if node.id not in reachable:
            continue
        k = node.kind
        if k in (OpKind.INPUT, OpKind.PARAMETER):
            b = node.bounds
            if b is None:
                missing.append(node)
                continue
            lo, hi = b.broadcast_to(node.shape)
            result[node.id] = _iv(lo, hi)
            continue
        if missing:
            continue
        ins = [result[i] for i in node.inputs]
        result[node.id] = INTERVAL_RULES[k](node, ins)
    if missing:
        raise ValidationFailed([
            Diagnostic("missing-bounds",
                       f"missing bounds on '{n.name}' (#{n.id})", n.id)
            for n in missing])
    return result


def ibp_bound(graph: Graph, wrt) -> float:
    """Frobenius-dominated spectral bound from intervals on the Jacobian graph.

    U = sqrt(sum of max(|lo|, |hi|)^2) over the enclosures of the Jacobian
    entries with respect to the `wrt` handles is a sound upper bound of the
    supremum of the Jacobian's spectral norm over the box, and usually a
    loose one.
    """
    jg = jacobian(graph, wrt)
    out = propagate(jg.graph)[jg.graph.outputs[0]]
    magnitude = np.maximum(np.abs(out.lo), np.abs(out.hi))
    return float(np.sqrt(np.sum(magnitude ** 2)))
