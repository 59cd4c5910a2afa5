import hashlib

import numpy as np
import pytest

from dpgraph import GraphBuilder, NonDifferentiable, OpKind
from dpgraph.autodiff import VJP_RULES, higher_order, jacobian, vjp
from dpgraph.graph import LEAF_KINDS, OPS
from dpgraph.lipschitz import _JacobianObjective, estimate_sensitivity
from dpgraph.models import mean_query, mlp_classifier
from dpgraph import runtime

from conftest import (
    finite_difference,
    kink_free_point,
    random_graph,
    ref_eval,
    ref_eval_all,
)


def _scalar_query(fn):
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 1.0))
    b.output(fn(b, x))
    return b.graph(), "x"


def _eval_jacobian(jg, inputs):
    program = runtime.compile(jg.graph)
    (j,) = runtime.execute(program, inputs)
    return j


def test_scaled_identity_has_constant_jacobian():
    g, _ = _scalar_query(lambda b, x: b.mul(b.constant(3.0), x))
    jg = jacobian(g, [g.find("x")])
    # after folding, the Jacobian is literally a constant matrix
    opt = runtime.compile(jg.graph).optimized_graph
    out = opt.nodes[opt.outputs[0]]
    assert out.kind is OpKind.CONSTANT
    np.testing.assert_allclose(out.attrs["value"], [[3.0]])


def test_square_jacobian_value():
    g, _ = _scalar_query(lambda b, x: b.mul(x, x))
    jg = jacobian(g, [g.find("x")])
    j = _eval_jacobian(jg, {"x": 0.7})
    np.testing.assert_allclose(j, [[1.4]], atol=1e-12)


def test_sigmoid_jacobian_at_zero():
    g, _ = _scalar_query(lambda b, x: b.sigmoid(x))
    jg = jacobian(g, [g.find("x")])
    j = _eval_jacobian(jg, {"x": 0.0})
    np.testing.assert_allclose(j, [[0.25]], atol=1e-12)


def test_jacobian_shape_contract():
    b = GraphBuilder()
    x = b.input("x", (3, 1), bounds=(0, 1))
    w = b.parameter("w", (2, 3), bounds=(0, 1))
    b.output(b.sigmoid(b.matmul(w, x)))
    g = b.graph()
    jg = jacobian(g, [g.find("x"), g.find("w")])
    assert (jg.output_size, jg.wrt_size) == (2, 9)
    j = _eval_jacobian(jg, {"x": np.full((3, 1), 0.5), "w": np.full((2, 3), 0.5)})
    assert j.shape == (2, 9)


def test_higher_order_square_is_two():
    g, _ = _scalar_query(lambda b, x: b.mul(x, x))
    jg = higher_order(g, [g.find("x")], order=2)
    j = _eval_jacobian(jg, {"x": 0.3})
    np.testing.assert_allclose(j, [[2.0]], atol=1e-12)


def test_higher_order_linear_is_zero():
    g, _ = _scalar_query(lambda b, x: b.mul(b.constant(3.0), x))
    jg = higher_order(g, [g.find("x")], order=2)
    j = _eval_jacobian(jg, {"x": 0.3})
    np.testing.assert_allclose(j, [[0.0]], atol=1e-12)


def test_higher_order_exp_third_derivative():
    g, _ = _scalar_query(lambda b, x: b.exp(x))
    jg = higher_order(g, [g.find("x")], order=3)
    j = _eval_jacobian(jg, {"x": 1.0})
    np.testing.assert_allclose(j, [[np.e]], rtol=1e-12)


def test_order_one_matches_jacobian():
    g, _ = _scalar_query(lambda b, x: b.sigmoid(x))
    j1 = _eval_jacobian(jacobian(g, [g.find("x")]), {"x": 0.4})
    h1 = _eval_jacobian(higher_order(g, [g.find("x")], order=1), {"x": 0.4})
    np.testing.assert_allclose(j1, h1, atol=0)


def test_wrt_must_be_leaf():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0, 1))
    y = b.sigmoid(x)
    b.output(y)
    g = b.graph()
    with pytest.raises(NonDifferentiable):
        jacobian(g, [y])


def test_every_kind_has_a_rule():
    missing = [k for k in OpKind if k not in LEAF_KINDS and k not in VJP_RULES]
    assert missing == []
    assert set(OPS) == set(OpKind)


def test_clip_derivative_inside_outside_boundary():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(-2.0, 2.0))
    b.output(b.clip(x, -1.0, 1.0))
    g = b.graph()
    jg = jacobian(g, [g.find("x")])
    assert _eval_jacobian(jg, {"x": 0.5})[0, 0] == 1.0
    assert _eval_jacobian(jg, {"x": 1.5})[0, 0] == 0.0
    assert _eval_jacobian(jg, {"x": 1.0})[0, 0] == 1.0  # boundary counts as inside


def test_finite_difference_agreement(rng):
    kinds = [k for k in OpKind if k not in LEAF_KINDS]
    # vjp's preferred cotangent leaf name is taken twice over here
    clash = GraphBuilder()
    c0 = clash.input("cotangent", (2, 1), bounds=(-1, 1))
    c1 = clash.parameter("cotangent_", (2, 1), bounds=(-1, 1))
    clash.output(clash.sigmoid(clash.mul(c0, c1)))
    cot_rng = np.random.default_rng(3)
    seen = set()
    worst = 0.0
    worst_vjp = 0.0
    for i in range(51):
        if i < 50:
            force = (kinds[i % len(kinds)],)
            g = random_graph(rng, force_kinds=force)
        else:
            g = clash.graph()
        seen.update(n.kind for n in g.nodes)
        wrt = list(g.leaves())
        jg = jacobian(g, wrt)
        point = kink_free_point(g, rng)
        j = _eval_jacobian(jg, point)
        fd = finite_difference(g, point, jg.wrt_names)
        scale = max(1.0, np.max(np.abs(j)))
        worst = max(worst, np.max(np.abs(j - fd)) / scale)

        # vjp with cotangent c is c^T J, split per leaf
        vg, cot_name = vjp(g, wrt)
        assert cot_name not in {n.name for n in g.nodes}
        c = cot_rng.standard_normal(g.nodes[g.outputs[0]].shape.dims)
        grads = runtime.execute(runtime.compile(vg), {**point, cot_name: c})
        assert [x.shape for x in grads] == [g.nodes[h].shape.dims for h in wrt]
        want = c.reshape(-1) @ j
        got = np.concatenate([x.reshape(-1) for x in grads])
        worst_vjp = max(worst_vjp, np.max(np.abs(got - want)) /
                        max(1.0, np.max(np.abs(want))))
    assert worst < 1e-5
    assert worst_vjp < 1e-12
    assert {k for k in OpKind if k not in (OpKind.INPUT,)} <= seen | {OpKind.PARAMETER}


def test_linearity_of_jacobian(rng):
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=(0, 1))
    q1 = b.sigmoid(x)
    q2 = b.mul(x, x)
    combo = b.add(b.mul(b.constant(2.5), q1), b.mul(b.constant(-1.5), q2))
    b.output(combo)
    g = b.graph()

    b1 = GraphBuilder()
    x1 = b1.input("x", (2, 1), bounds=(0, 1))
    b1.output(b1.sigmoid(x1))
    g1 = b1.graph()

    b2 = GraphBuilder()
    x2 = b2.input("x", (2, 1), bounds=(0, 1))
    b2.output(b2.mul(x2, x2))
    g2 = b2.graph()

    point = {"x": rng.uniform(0, 1, (2, 1))}
    j = _eval_jacobian(jacobian(g, [g.find("x")]), point)
    j1 = _eval_jacobian(jacobian(g1, [g1.find("x")]), point)
    j2 = _eval_jacobian(jacobian(g2, [g2.find("x")]), point)
    np.testing.assert_allclose(j, 2.5 * j1 - 1.5 * j2, atol=1e-12)


def test_chain_rule_composition(rng):
    # q2(q1(x)) with q1 = sigmoid(W x), q2 = mean of squares
    b = GraphBuilder()
    x = b.input("x", (3, 1), bounds=(0, 1))
    w_val = rng.uniform(0, 1, (2, 3))
    h = b.sigmoid(b.matmul(b.constant(w_val), x))
    b.output(b.reduce_mean(b.mul(h, h), axis=None))
    g = b.graph()

    b1 = GraphBuilder()
    x1 = b1.input("x", (3, 1), bounds=(0, 1))
    b1.output(b1.sigmoid(b1.matmul(b1.constant(w_val), x1)))
    g1 = b1.graph()

    b2 = GraphBuilder()
    u = b2.input("u", (2, 1), bounds=(0, 1))
    b2.output(b2.reduce_mean(b2.mul(u, u), axis=None))
    g2 = b2.graph()

    point = {"x": rng.uniform(0, 1, (3, 1))}
    (inner,) = ref_eval(g1, point)
    j_full = _eval_jacobian(jacobian(g, [g.find("x")]), point)
    j1 = _eval_jacobian(jacobian(g1, [g1.find("x")]), point)
    j2 = _eval_jacobian(jacobian(g2, [g2.find("u")]), {"u": inner})
    np.testing.assert_allclose(j_full, j2 @ j1, atol=1e-10)


def _layout_graph(kind):
    """A small graph whose output is one Reshape, Concat or Slice of
    nonlinear terms in two leaves."""
    b = GraphBuilder()
    x = b.input("x", (2, 3), bounds=(-1.0, 1.0))
    y = b.parameter("y", (2, 1), bounds=(-1.0, 1.0))
    if kind is OpKind.RESHAPE:
        out = b.reshape(b.sigmoid(b.mul(x, x)), (3, 2))
    elif kind is OpKind.CONCAT:
        out = b.concat([b.sigmoid(x), b.mul(y, y), x], axis=1)
    else:
        out = b.slice(b.mul(b.sigmoid(x), x), axis=1, start=1, stop=3)
    b.output(b.mul(out, b.sigmoid(b.reduce_sum(y, axis=None))))
    return b.graph()


LAYOUT_KINDS = (OpKind.RESHAPE, OpKind.CONCAT, OpKind.SLICE)


@pytest.mark.parametrize("kind", LAYOUT_KINDS, ids=lambda k: k.value)
def test_layout_op_kernel_and_jacobian(kind, rng):
    g = _layout_graph(kind)
    point = {"x": rng.uniform(-1, 1, (2, 3)), "y": rng.uniform(-1, 1, (2, 1))}
    (got,) = runtime.execute(runtime.compile(g), point)
    (want,) = ref_eval(g, point)
    assert np.array_equal(got, want)
    # the kernel bound to the node's attrs and operand ranks, on the
    # reference operands and on a batch of two copies of them
    values = ref_eval_all(g, point)
    (node,) = [n for n in g.nodes if n.kind is kind]
    ranks = tuple(g.nodes[i].shape.rank for i in node.inputs)
    kernel = OPS[kind].kernel({**node.attrs, "ranks": ranks})
    operands = [values[i] for i in node.inputs]
    assert np.array_equal(kernel(*operands), values[node.id])
    batched = kernel(*[np.stack([v, v]) for v in operands])
    assert np.array_equal(batched, np.stack([values[node.id]] * 2))
    jg = jacobian(g, [g.find("x"), g.find("y")])
    j = _eval_jacobian(jg, point)
    fd = finite_difference(g, point, jg.wrt_names)
    assert j.shape == (want.size, 8)
    np.testing.assert_allclose(j, fd, atol=1e-8)


@pytest.mark.parametrize("kind", LAYOUT_KINDS, ids=lambda k: k.value)
def test_layout_op_vjp_second_order(kind, rng):
    # the Jacobian of the Jacobian differentiates through Concat's Slice
    # cotangents and Slice's zero-padded Concat
    g = _layout_graph(kind)
    point = {"x": rng.uniform(-1, 1, (2, 3)), "y": rng.uniform(-1, 1, (2, 1))}
    wrt = [g.find("x"), g.find("y")]
    jg = jacobian(g, wrt)
    h = _eval_jacobian(higher_order(g, wrt, order=2), point)
    fd = finite_difference(jg.graph, point, jg.wrt_names)
    np.testing.assert_allclose(h, fd, atol=1e-7)


def test_jacobian_rows_for_several_leaves_and_outputs():
    b = GraphBuilder()
    s = b.input("s", (), bounds=(-1.0, 1.0))
    m = b.parameter("m", (2, 2), bounds=(-1.0, 1.0))
    unused = b.parameter("unused", (3, 1), bounds=(-1.0, 1.0))
    b.output(b.mul(s, m))                                  # 4 rows
    b.output(b.mul(s, s))                                  # 1 row, no m term
    g = b.graph()
    jg = jacobian(g, [g.find("m"), g.find("unused"), g.find("s")])
    assert (jg.output_size, jg.wrt_size) == (5, 8)
    sv, mv = 0.3, np.array([[1.0, -2.0], [0.5, 4.0]])
    j = _eval_jacobian(jg, {"s": sv, "m": mv, "unused": np.zeros((3, 1))})
    want = np.zeros((5, 8))
    want[:4, :4] = sv * np.eye(4)        # d(s m)/dm, flattened row-major
    want[:4, 7] = mv.reshape(-1)         # d(s m)/ds
    want[4, 7] = 2 * sv                  # d(s^2)/ds
    np.testing.assert_allclose(j, want, atol=1e-15)


def test_jacobian_graph_size_does_not_grow_with_columns():
    def sum_sigmoid(n):
        b = GraphBuilder()
        x = b.input("x", (n, 1), bounds=(-1.0, 1.0))
        b.output(b.reduce_sum(b.sigmoid(x), axis=None))
        return b.graph()

    sizes = []
    for n in (100, 10_000):
        g = sum_sigmoid(n)
        sizes.append(len(jacobian(g, [g.find("x")]).graph.nodes))
    assert sizes[0] == sizes[1]


def test_derivative_graphs_drop_unreached_source_nodes():
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=(0.0, 1.0))
    b.exp(x)  # reached by no output
    b.output(b.reduce_sum(b.sigmoid(x), axis=None))
    g = b.graph()
    for derivative in (jacobian(g, [x]).graph, vjp(g, [x])[0]):
        result = runtime.compile(derivative).optimized_graph
        assert OpKind.EXP not in {n.kind for n in result.nodes}
        assert result.find("x") == x


def test_a_jacobian_wrt_one_leaf_is_its_columns_of_the_full_one(rng):
    # the sweep builds cotangents only toward the wrt leaves; each rule must
    # still build every one that they need
    kinds = [k for k in OpKind if k not in LEAF_KINDS]
    for i in range(2 * len(kinds)):
        g = random_graph(rng, force_kinds=(kinds[i % len(kinds)],), n_leaves=3)
        leaves = list(g.leaves())
        point = kink_free_point(g, rng)
        full = _eval_jacobian(jacobian(g, leaves), point)
        start = 0
        for h in leaves:
            stop = start + g.nodes[h].shape.num_elements
            part = _eval_jacobian(jacobian(g, [h]), point)
            np.testing.assert_allclose(part, full[:, start:stop], rtol=1e-12, atol=1e-12)
            start = stop


def _sum_sigmoid(n):
    b = GraphBuilder()
    x = b.input("x", (n, 1), bounds=(-1.0, 1.0))
    b.output(b.reduce_sum(b.sigmoid(x), axis=None))
    return b.graph()


# Each query pins the content hashes of the optimized graphs of its jacobian
# and vjp programs, then those of higher_order at orders 2, 3, ... as far as
# the tuple goes.
@pytest.mark.parametrize("make,fingerprints", [
    (lambda: mlp_classifier(2),
     ("960788348575db7749a6ff0b885b00f5f6149b84dfda5cc95557f5b4dddb1779",
      "de3b929b80a9f9ae497acc594b589d23a40c12c47f183f1c0c0457ab3f916605",
      "0fe33439a065955c50ac29d439a4e9912e3f551eab2be6c549a9ac3ef951e4ec",
      "7e4137480ee09290b18c8b5a19ac5e653318fd527171806ac1276fa320903a0e")),
    (lambda: mlp_classifier(4),
     ("b6abd0f5ab49e021eba45c43c7d104256282f6cc871edad554a665b097929c7d",
      "f1f13125e1d6330b1493711a5e51eb8d2e560b92c547c809f940946ec96cffc4",
      "f2887a051981e3a4f7d09b1db4c93511a8fbecc3fe742668b90c0abf9a5bd0fc",
      "5957d0be3c6424f18785ce99283296ec891fba7d2376ff01a8f8f676d6be88de")),
    (lambda: _sum_sigmoid(64),
     ("e8544bbcadbff368238d461c84e5d959eac7ee359434a9cdad3a3adf6509dae3",
      "38d80d782bee69a5afc4604facaeccb555477c11f4dc16ed5903b9c1f0c14d19")),
], ids=["mlp2", "mlp4", "sum_sigmoid64"])
def test_derivative_program_fingerprints_are_pinned(make, fingerprints):
    # the content hash covers the whole optimized graph but for interior
    # names, so a change to the sweep or to optimize that alters the
    # derivative programs of these queries shows here
    def optimized_hash(graph):
        return runtime.content_hash(runtime.compile(graph).optimized_graph)

    g = make()
    wrt = [g.find("x")]
    got = (optimized_hash(jacobian(g, wrt).graph), optimized_hash(vjp(g, wrt)[0]))
    got += tuple(optimized_hash(higher_order(g, wrt, order).graph)
                 for order in range(2, len(fingerprints)))
    assert got == fingerprints


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# Each program of global_opt's Jacobian objective, its J program and its
# sigma_max gradient program (the vjp of the optimized J graph), pins the
# digest of its plan's (kind, in_slots, out_slot) rows, then that of its
# instruction labels and that of its optimized graph's node names. A label or
# a default node name numbers the node in the graph the sweep built, so the
# last two digests pin the order in which the sweep builds its nodes. The
# (kind, in_slots, out_slot) digests are those of the sweep that also built
# the cotangents of t and of the weights; the label and name digests are not,
# except sum_sigmoid64-jacobian's: without those dead nodes every later
# default name counts from a lower number (n44 becomes n37).
@pytest.mark.parametrize("make,program,instructions,digests", [
    (lambda: mlp_classifier(2), "program", 37,
     ("59211edd40fe49afad9d95a08eb8dc3885389e745e581eedea061363f915a807",
      "0e1e2dc2e139bd635777b0c61f99796b349993cd25715c66ffaf6e5e4d692361",
      "60b300a198e563ef8e54e04cab9f552af7b6c6cb71a9a12cc16125dee4d74a11")),
    (lambda: mlp_classifier(2), "_grad_program", 102,
     ("094acc27b9d5371db61d22daba93ee7cc472b68ee7a893245c1f3713c3d880bb",
      "a5b7f4a9de6a90068b2947b981a7b488e3a59b936405a3371e8232c4f513771a",
      "ea45d8653599eccba60da9cdf5c22f1a9bc33bd9836505279c08236466ba59cc")),
    (lambda: _sum_sigmoid(64), "program", 4,
     ("d42f45953b57e348eb9f322d59506f85ff6d5b90c200f94ea209914c291cc423",
      "0890057604f6f4a8c7b09e20e7eba0869024b33cdec77f27fa937f8b25777ba7",
      "25e48687fc6bc9ab08c5f080f239734ff2fab6deac9b50b19552340b0c183bc5")),
    (lambda: _sum_sigmoid(64), "_grad_program", 9,
     ("54cdbdfd54a88dd8cfc9b15c6eae0b12294f8e189f2e2d704bcfbb7f45568b3c",
      "f3cec400945ae5884767766f91decc0a2d4997c018969aa809a6f67d1ea601b7",
      "2776b49453b1202368e5c10b0870b38c9efea0225d16de6937ff2575f2b10aeb")),
], ids=["mlp2-jacobian", "mlp2-sigma-gradient", "sum_sigmoid64-jacobian",
        "sum_sigmoid64-sigma-gradient"])
def test_derivative_plans_and_names_are_pinned(make, program, instructions, digests):
    # the fingerprints above see neither the plan that _linearize lays out
    # nor the interior names
    g = make()
    runtime.clear_cache()
    compiled = getattr(_JacobianObjective(g, [g.find("x")]), program)
    plan = compiled.plan
    assert len(plan) == instructions
    assert (_digest([(i.kind.value, i.in_slots, i.out_slot) for i in plan]),
            _digest([i.label for i in plan]),
            _digest([n.name for n in compiled.optimized_graph.nodes])) == digests


def test_every_node_the_sweep_appends_reaches_an_output():
    # a cotangent of t or of a weight, which no wrt=[x] row reads, is not built
    g = mlp_classifier(2)
    for graph in (jacobian(g, [g.find("x")]).graph, vjp(g, [g.find("x")])[0]):
        appended = set(range(len(g.nodes), len(graph.nodes)))
        assert appended and appended <= graph.reached


def test_a_leaf_listed_twice_in_wrt_is_refused():
    # once an 8-column J for a 4-element leaf, and a bound sqrt(2) too high
    g = mean_query(4)
    x = g.find("x")
    for transform in (jacobian, vjp):
        with pytest.raises(NonDifferentiable, match="'x' is listed twice"):
            transform(g, [x, x])
    for method in ("ibp", "global_opt"):
        with pytest.raises(NonDifferentiable, match="'x' is listed twice"):
            estimate_sensitivity(g, wrt=[x, x], method=method)
    assert estimate_sensitivity(g, wrt=[x], method="ibp").bound == pytest.approx(0.5)
