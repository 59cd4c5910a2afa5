import numpy as np
import pytest

from dpgraph import (
    ArityError,
    GraphBuilder,
    OpKind,
    ShapeMismatch,
    TensorShape,
    UnknownNode,
    optimize,
)
from dpgraph.autodiff import jacobian, vjp
from dpgraph import graph
from dpgraph.graph import LEAF_KINDS, attr_key
from dpgraph.models import mlp_classifier

from conftest import random_graph, ref_eval, sample_inputs


def test_elementwise_shape_rule():
    b = GraphBuilder()
    a = b.input("a", (2, 3), bounds=(0, 1))
    c = b.input("c", (2, 3), bounds=(0, 1))
    h = b.build(OpKind.ADD, [a, c])
    assert b._nodes[h].shape == TensorShape((2, 3))


def test_matmul_shape_rule():
    b = GraphBuilder()
    a = b.input("a", (2, 3), bounds=(0, 1))
    c = b.input("c", (3, 4), bounds=(0, 1))
    h = b.matmul(a, c)
    assert b._nodes[h].shape == TensorShape((2, 4))


def test_matmul_inner_dim_mismatch():
    b = GraphBuilder()
    a = b.input("a", (2, 3), bounds=(0, 1))
    c = b.input("c", (2, 3), bounds=(0, 1))
    with pytest.raises(ShapeMismatch):
        b.matmul(a, c)


def test_scalar_broadcast():
    b = GraphBuilder()
    a = b.input("a", (2, 2), bounds=(0, 1))
    s = b.constant(2.0)
    h = b.mul(a, s)
    assert b._nodes[h].shape == TensorShape((2, 2))


def test_arity_error():
    b = GraphBuilder()
    a = b.input("a", (), bounds=(0, 1))
    with pytest.raises(ArityError):
        b.build(OpKind.NEG, [a, a])


def test_layout_shape_rules_and_errors():
    b = GraphBuilder()
    a = b.input("a", (2, 3), bounds=(0, 1))
    c = b.input("c", (2, 1), bounds=(0, 1))
    assert b._nodes[b.reshape(a, (3, 2))].shape == TensorShape((3, 2))
    assert b._nodes[b.reshape(b.reduce_sum(a), (1, 1))].shape == TensorShape((1, 1))
    assert b._nodes[b.concat([c, a, c], axis=1)].shape == TensorShape((2, 5))
    assert b._nodes[b.slice(a, axis=1, start=1, stop=3)].shape == TensorShape((2, 2))
    with pytest.raises(ShapeMismatch):
        b.reshape(a, (4, 2))
    with pytest.raises(ShapeMismatch):
        b.concat([a, c], axis=0)
    with pytest.raises(ShapeMismatch):
        b.concat([a, a], axis=2)
    with pytest.raises(ShapeMismatch):
        b.slice(a, axis=1, start=2, stop=2)
    with pytest.raises(ShapeMismatch):
        b.slice(a, axis=0, start=0, stop=3)
    with pytest.raises(ArityError):
        b.concat([], axis=0)
    with pytest.raises(ArityError):
        b.build(OpKind.SLICE, [a], {"axis": 0, "start": 0})


def test_optimize_drops_identity_layouts():
    b = GraphBuilder()
    a = b.input("a", (2, 3), bounds=(0, 1))
    same = b.slice(b.concat([b.reshape(a, (2, 3))], axis=0), axis=1, start=0, stop=3)
    b.output(b.sigmoid(same))
    g = optimize(b.graph())
    assert [n.kind for n in g.nodes] == [OpKind.INPUT, OpKind.SIGMOID]


def test_unknown_handle():
    b = GraphBuilder()
    with pytest.raises(UnknownNode):
        b.build(OpKind.NEG, [7])


def test_duplicate_names_rejected():
    b = GraphBuilder()
    b.input("x", (), bounds=(0, 1))
    with pytest.raises(ValueError):
        b.input("x", (), bounds=(0, 1))


def test_bounds_require_lo_le_hi():
    b = GraphBuilder()
    x = b.input("x", ())
    with pytest.raises(ValueError):
        b.set_bounds(x, 2.0, 1.0)


def test_validate_missing_bounds_and_no_outputs():
    b = GraphBuilder()
    x = b.input("x", (3, 1))
    g = b.graph()
    codes = {d.code for d in g.validate()}
    assert "missing-bounds" in codes
    assert "no-outputs" in codes
    messages = " ".join(d.message for d in g.validate())
    assert "x" in messages


def test_validate_reports_all_violations():
    b = GraphBuilder()
    b.input("x", (2, 1))
    b.input("y", (2, 1))
    g = b.graph()
    assert len([d for d in g.validate() if d.code == "missing-bounds"]) == 2


def test_validate_mlp_ok():
    g = mlp_classifier(3)
    assert g.validate() == []


def test_constant_folding_collapses_to_single_constant():
    b = GraphBuilder()
    c1 = b.constant(2.0)
    c2 = b.constant(3.0)
    b.output(b.add(c1, c2))
    og = optimize(b.graph())
    kinds = [n.kind for n in og.nodes]
    assert kinds == [OpKind.CONSTANT]
    assert og.nodes[og.outputs[0]].attrs["value"] == pytest.approx(5.0)


def test_cse_merges_identical_subtrees():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0, 1))
    s1 = b.sigmoid(x)
    s2 = b.sigmoid(x)
    b.output(b.add(s1, s2))
    og = optimize(b.graph())
    assert sum(1 for n in og.nodes if n.kind is OpKind.SIGMOID) == 1


def test_algebraic_identities():
    b = GraphBuilder()
    x = b.input("x", (2, 2), bounds=(0, 1))
    y = b.add(x, b.constant(0.0))
    y = b.mul(y, b.constant(1.0))
    y = b.neg(b.neg(y))
    b.output(y)
    og = optimize(b.graph())
    assert og.outputs[0] == og.find("x")


def _table(g):
    """Nodes with their names, roles, bounds and outputs."""
    return ([(n.id, n.kind, n.inputs, attr_key(n.attrs), n.shape, n.name) for n in g.nodes],
            g.private_inputs, g.parameters, g.outputs,
            [(h, b.lo.tobytes(), b.hi.tobytes()) for h, b in g.bounds.items()])


def test_optimize_idempotent(rng):
    kinds = [k for k in OpKind if k not in LEAF_KINDS]
    for i in range(40):
        g = random_graph(rng, wild=i % 2 == 1, force_kinds=(kinds[i % len(kinds)],))
        wrt = list(g.leaves())
        for graph in (g, jacobian(g, wrt).graph, vjp(g, wrt)[0]):
            once = optimize(graph)
            assert _table(optimize(once)) == _table(once)


def test_optimize_never_grows(rng):
    for _ in range(20):
        g = random_graph(rng)
        assert len(optimize(g).nodes) <= len(g.nodes)


def test_optimize_preserves_semantics(rng):
    for _ in range(100):
        g = random_graph(rng)
        og = optimize(g)
        x = sample_inputs(g, rng)
        for got, want in zip(ref_eval(og, x), ref_eval(g, x)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_topological_order_is_stable():
    def build():
        b = GraphBuilder()
        x = b.input("x", (), bounds=(0, 1))
        b.output(b.mul(b.sigmoid(x), b.exp(x)))
        return b.graph()

    g1, g2 = build(), build()
    assert [n.kind for n in g1.nodes] == [n.kind for n in g2.nodes]
    assert all(i < n.id for n in g1.nodes for i in n.inputs)


def _bce_by_mean(ranks, p, t):
    """The BCE kernel as it was written with np.mean, lifting a declared
    scalar operand to the other's rank behind its batch axes."""
    rp, rt = ranks
    if rp < rt and p.ndim:
        p = p.reshape(p.shape + (1,) * rt)
    elif rt < rp and t.ndim:
        t = t.reshape(t.shape + (1,) * rp)
    pc = np.clip(p, graph.BCE_CLAMP, 1.0 - graph.BCE_CLAMP)
    loss = -(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))
    rank = max(rp, rt)
    return np.asarray(np.mean(loss, axis=None if loss.ndim == rank
                              else tuple(range(-rank, 0))))


@pytest.mark.parametrize("ranks,p_shape,t_shape", [
    ((2, 2), (3, 4), (3, 4)),
    ((1, 1), (7,), (7,)),
    ((0, 0), (), ()),
    ((2, 2), (5, 3, 4), (3, 4)),
    ((2, 2), (2, 5, 3, 4), (2, 5, 3, 4)),
    ((0, 0), (6,), ()),
    ((0, 2), (), (3, 4)),
    ((0, 2), (5,), (5, 3, 4)),
    ((1, 0), (5, 3), ()),
], ids=["matrix", "vector", "scalar", "batched", "batched_2d", "batched_rank0",
        "rank0_prediction", "batched_rank0_prediction", "rank0_target"])
def test_bce_kernel_has_the_bits_of_the_mean(ranks, p_shape, t_shape, rng):
    p = rng.uniform(0.0, 1.0, p_shape)
    t = rng.uniform(0.0, 1.0, t_shape)
    got = graph._k_bce({"ranks": ranks})(p, t)
    expected = _bce_by_mean(ranks, p, t)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
