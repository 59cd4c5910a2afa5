import numpy as np
import pytest

from dpgraph import DomainError, GraphBuilder, ValidationFailed
from dpgraph.autodiff import jacobian
from dpgraph.graph import LEAF_KINDS, OpKind, optimize
from dpgraph.interval import INTERVAL_RULES, propagate
from dpgraph.lipschitz import estimate_sensitivity
from dpgraph.models import mlp_classifier

from conftest import random_graph, ref_eval_all, sample_inputs


def _single(fn, lo, hi):
    b = GraphBuilder()
    x = b.input("x", (), bounds=(lo, hi))
    out = fn(b, x)
    b.output(out)
    g = b.graph()
    return g, propagate(g)[g.outputs[0]]


def test_square_as_self_product():
    _, iv = _single(lambda b, x: b.mul(x, x), 0.0, 1.0)
    assert iv.lo == pytest.approx(0.0)
    assert iv.hi == pytest.approx(1.0)


def test_interval_dependency_x_minus_x():
    _, iv = _single(lambda b, x: b.sub(x, x), -1.0, 1.0)
    assert iv.lo == pytest.approx(-2.0)
    assert iv.hi == pytest.approx(2.0)


def test_sigmoid_enclosure():
    _, iv = _single(lambda b, x: b.sigmoid(x), 0.0, 1.0)
    assert iv.lo == pytest.approx(0.5)
    assert iv.hi == pytest.approx(np.e / (1 + np.e), abs=1e-10)
    assert iv.hi == pytest.approx(0.7310585786, abs=1e-9)


def test_div_pole_raises():
    with pytest.raises(DomainError):
        b = GraphBuilder()
        x = b.input("x", (), bounds=(-1.0, 1.0))
        b.output(b.div(b.constant(1.0), x))
        propagate(b.graph())


def test_log_negative_raises_and_zero_diverges():
    with pytest.raises(DomainError):
        _single(lambda b, x: b.log(x), -0.5, 1.0)
    _, iv = _single(lambda b, x: b.log(x), 0.0, 1.0)
    assert iv.lo == -np.inf


def test_matmul_enclosure_is_sound_and_exact_for_constants(rng):
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=(-1.0, 1.0))
    w = rng.uniform(-1, 1, (2, 2))
    b.output(b.matmul(b.constant(w), x))
    g = b.graph()
    iv = propagate(g)[g.outputs[0]]
    for _ in range(200):
        v = rng.uniform(-1, 1, (2, 1))
        y = w @ v
        assert np.all(y >= iv.lo - 1e-12) and np.all(y <= iv.hi + 1e-12)


def test_soundness_monte_carlo(rng):
    for _ in range(15):
        g = random_graph(rng)
        enclosures = propagate(g)
        for _ in range(100):
            point = sample_inputs(g, rng)
            values = ref_eval_all(g, point)
            for h, iv in enclosures.items():
                v = values[h]
                assert np.all(v >= iv.lo - 1e-9)
                assert np.all(v <= iv.hi + 1e-9)


def test_ibp_affine_is_exact():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 1.0))
    b.output(b.mul(b.constant(3.0), x))
    report = estimate_sensitivity(b.graph(), method="ibp")
    assert report.bound == pytest.approx(3.0, abs=1e-12)
    assert report.interval_low == 0.0
    assert report.certified
    assert report.argmax is None


def test_ibp_square_bound():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 1.0))
    b.output(b.mul(x, x))
    report = estimate_sensitivity(b.graph(), method="ibp")
    assert report.bound == pytest.approx(2.0, abs=1e-12)


def test_ibp_linear_graph_matches_frobenius(rng):
    w1 = rng.uniform(-1, 1, (3, 4))
    w2 = rng.uniform(-1, 1, (2, 3))
    b = GraphBuilder()
    x = b.input("x", (4, 1), bounds=(0.0, 1.0))
    h = b.matmul(b.constant(w1), x)
    h = b.add(h, b.constant(rng.uniform(-1, 1, (3, 1))))
    b.output(b.matmul(b.constant(w2), h))
    report = estimate_sensitivity(b.graph(), method="ibp")
    assert report.bound == pytest.approx(np.linalg.norm(w2 @ w1, "fro"), rel=1e-12)


def test_ibp_mlp_is_much_looser_than_truth():
    g = mlp_classifier(2, in_features=1)
    report = estimate_sensitivity(g, wrt=g.private_inputs, method="ibp")
    # the true supremum for this network is below 2; interval dependency
    # inflates the baseline far beyond it
    assert report.bound > 2.0


def _output_enclosure(graph):
    try:
        out = propagate(graph)[graph.outputs[0]]
    except DomainError as err:
        return str(err)
    return out.lo.tobytes(), out.hi.tobytes()


def test_jacobian_enclosures_do_not_depend_on_optimize(rng):
    # ibp_bound propagates the Jacobian graph as jacobian returns it; the
    # enclosure of its output is the one of the optimized graph, bit for bit
    cases = [(g, [g.find("x")]) for g in map(mlp_classifier, (2, 3, 4))]
    kinds = [k for k in OpKind if k not in LEAF_KINDS]
    for i in range(40):  # the draws of test_optimize_idempotent
        g = random_graph(rng, wild=i % 2 == 1, force_kinds=(kinds[i % len(kinds)],))
        cases.append((g, list(g.leaves())))
    for g, wrt in cases:
        jg = jacobian(g, wrt).graph
        assert _output_enclosure(jg) == _output_enclosure(optimize(jg))


def test_every_kind_has_an_interval_rule():
    assert {k for k in OpKind if k not in LEAF_KINDS} | {OpKind.CONSTANT} == set(INTERVAL_RULES)


LAYOUTS = {
    "Reshape": (lambda b, x, y: b.reshape(x, (3, 2)),
                lambda x, y: x.reshape(3, 2)),
    "Concat": (lambda b, x, y: b.concat([y, x, y], axis=1),
               lambda x, y: np.concatenate([y, x, y], axis=1)),
    "Slice": (lambda b, x, y: b.slice(x, axis=1, start=1, stop=3),
              lambda x, y: x[:, 1:3]),
}


@pytest.mark.parametrize("kind", sorted(LAYOUTS))
def test_layout_enclosure_is_exact(kind, rng):
    # per-element bounds, so a misplaced element shows in the enclosure
    build, layout = LAYOUTS[kind]
    x_lo, y_lo = rng.uniform(-2, 0, (2, 3)), rng.uniform(-2, 0, (2, 1))
    x_hi, y_hi = x_lo + rng.uniform(0, 1, (2, 3)), y_lo + rng.uniform(0, 1, (2, 1))
    b = GraphBuilder()
    x = b.input("x", (2, 3), bounds=(x_lo, x_hi))
    y = b.input("y", (2, 1), bounds=(y_lo, y_hi))
    out = build(b, x, y)
    b.output(b.sigmoid(out))
    g = b.graph()
    iv = propagate(g)[out]
    np.testing.assert_array_equal(iv.lo, layout(x_lo, y_lo))
    np.testing.assert_array_equal(iv.hi, layout(x_hi, y_hi))
    for _ in range(200):
        point = sample_inputs(g, rng)
        v = ref_eval_all(g, point)[out]
        assert np.all(iv.lo <= v) and np.all(v <= iv.hi)


@pytest.mark.parametrize("box", [(-2.0, -0.5), (0.5, 2.0), (-1.0, 1.0)], ids=str)
@pytest.mark.parametrize("p", [0, 0.5, 1.5, -0.5, -1, -2, 3])
def test_pow_encloses_its_values_or_refuses(p, box):
    lo, hi = box
    build = lambda b, x: b.power(x, p)
    if p != int(p) and lo < 0:
        with pytest.raises(DomainError, match="nonnegative base"):
            _single(build, lo, hi)
    elif p < 0 and lo <= 0 <= hi:
        with pytest.raises(DomainError, match="pole"):
            _single(build, lo, hi)
    else:
        _, iv = _single(build, lo, hi)
        values = np.linspace(lo, hi, 101) ** p
        assert iv.lo <= values.min() and values.max() <= iv.hi
        assert iv.lo in values and iv.hi in values  # the endpoints, or 0 for x^0 and x^2


def test_ibp_bounds_a_negative_integer_power_over_a_box_without_zero():
    # d/dx sum(x^-1) runs x^-2, which once refused as a fractional power
    b = GraphBuilder()
    x = b.input("x", (3,), bounds=(-2.0, -1.0))
    b.output(b.reduce_sum(b.power(x, -1)))
    g = b.graph()
    ibp = estimate_sensitivity(g, method="ibp")
    opt = estimate_sensitivity(g, method="global_opt")
    assert opt.bound == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert ibp.certified and ibp.bound >= opt.bound


@pytest.mark.parametrize("x_bounds", [(0.0, 1.0), None], ids=["x-bounded", "x-unbounded"])
def test_propagate_names_each_unbounded_leaf_it_reaches(x_bounds):
    b = GraphBuilder()
    x = b.input("x", (3, 1), bounds=x_bounds)
    p = b.parameter("p", (3, 1))
    b.parameter("unused", (3, 1))
    b.output(b.reduce_sum(b.mul(x, p)))
    with pytest.raises(ValidationFailed) as info:
        propagate(b.graph())
    diags = info.value.diagnostics
    assert [d.code for d in diags] == ["missing-bounds"] * len(diags)
    assert [d.node for d in diags] == ([p] if x_bounds else [x, p])
    assert "'p'" in diags[-1].message
