import numpy as np
import pytest

from dpgraph import DomainError, GraphBuilder, ValidationFailed
from dpgraph.autodiff import jacobian
from dpgraph.graph import LEAF_KINDS, OpKind, optimize
from dpgraph.interval import INTERVAL_RULES, propagate
from dpgraph.lipschitz import estimate_sensitivity
from dpgraph.models import mean_query, mlp_classifier

from conftest import random_graph, ref_eval_all, ref_propagate, sample_inputs


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


def _outcome(propagation, graph):
    """handle -> (shape, lo bytes, hi bytes) of every enclosure, or the
    DomainError's message."""
    try:
        enclosures = propagation(graph)
    except DomainError as err:
        return str(err)
    return {h: (np.shape(lo), np.asarray(lo).tobytes(), np.asarray(hi).tobytes())
            for h, (lo, hi) in enclosures.items()}


# At n >= 8 the order of a sum shows in its bits. NumPy orders a sum by the
# memory order of its operands, and a product of two transposes lays each end
# out column by column: the graphs reduce over slices and reshapes, take
# products with each transpose, and feed such a product to each kind.
WIDE = [
    lambda b, n, x, v, w, tt: b.reduce_sum(b.slice(x, 1, 1, n)),
    lambda b, n, x, v, w, tt: b.reduce_mean(b.slice(x, 0, 2, n), axis=1),
    lambda b, n, x, v, w, tt: b.reduce_sum(b.sigmoid(b.matmul(x, w, transpose_a=True)), axis=0),
    lambda b, n, x, v, w, tt: b.reduce_mean(b.mul(b.matmul(w, x, transpose_b=True), x)),
    lambda b, n, x, v, w, tt: b.reduce_sum(b.matmul(x, v, transpose_a=True)),
    lambda b, n, x, v, w, tt: tt(v, x),
    lambda b, n, x, v, w, tt: b.reduce_sum(b.matmul(w, tt(x, w))),
    lambda b, n, x, v, w, tt: b.reduce_sum(b.in_interval(tt(x, w), -1.0, 1.0), axis=0),
    lambda b, n, x, v, w, tt: b.reduce_sum(b.mul(b.in_interval(tt(x, w), -1.0, 1.0), tt(x, w)), axis=0),
    lambda b, n, x, v, w, tt: b.power(tt(x, x), 2.0),
    lambda b, n, x, v, w, tt: b.sub(b.clip(tt(w, x), -2.0, 2.0), x),
    lambda b, n, x, v, w, tt: b.reshape(b.exp(tt(x, w)), (n * n, 1)),
    lambda b, n, x, v, w, tt: b.concat([b.neg(tt(x, w)), x], 1),
]


def _wide_graph(n, shape, rng):
    b = GraphBuilder()
    x = b.input("x", (n, n), bounds=(rng.uniform(-2, 0, (n, n)), rng.uniform(0, 2, (n, n))))
    v = b.input("v", (n, 3), bounds=(-1.0, 1.0))
    w = b.constant(rng.uniform(-1, 1, (n, n)))
    tt = lambda p, q: b.matmul(p, q, transpose_a=True, transpose_b=True)
    out = WIDE[shape](b, n, x, v, w, tt)
    if b._nodes[out].shape.rank:
        out = b.reduce_sum(b.mul(out, out))
    b.output(out)
    return b.graph()


def test_stacked_enclosures_have_the_bits_of_the_per_end_rules():
    # the stacked rules give the shapes and bits of the textbook rules applied
    # to each end on its own, or the same refusal, wherever those hold no NaN
    rng = np.random.default_rng(35)
    kinds = [k for k in OpKind if k not in LEAF_KINDS]
    graphs = [jacobian(g, wrt).graph
              for g in map(mlp_classifier, (2, 3, 4, 8, 9))
              for wrt in ([g.find("x")], list(g.leaves()))]
    for n in (9, 17):
        for shape in range(len(WIDE)):
            g = _wide_graph(n, shape, rng)
            graphs += [g, jacobian(g, list(g.leaves())).graph]
    for i in range(240):
        g = random_graph(rng, wild=i % 2 == 1, force_kinds=(kinds[i % len(kinds)],))
        graphs += [g, jacobian(g, list(g.leaves())).graph]
    stacked = lambda g: {h: (iv.lo, iv.hi) for h, iv in propagate(g).items()}
    compared = 0
    for g in graphs:
        want = _outcome(ref_propagate, g)
        if not isinstance(want, str) and any(
                np.isnan(np.frombuffer(lo + hi)).any() for _, lo, hi in want.values()):
            continue
        assert _outcome(stacked, g) == want
        compared += 1
    assert compared >= 400


def _mean_graph(n, lo, hi, inner):
    b = GraphBuilder()
    x = b.input("x", (n, 1), bounds=(lo, hi))
    b.output(inner(b, x))
    return b.graph()


IBP_PINS = {
    "mlp2": (lambda: mlp_classifier(2), "0x1.4bf6e3f8a8725p+4"),
    "mlp3": (lambda: mlp_classifier(3), "0x1.177b854783963p+8"),
    "mlp4": (lambda: mlp_classifier(4), "0x1.18f634485b1eap+11"),
    "mlp8": (lambda: mlp_classifier(8), "0x1.65942816fa395p+20"),
    "mean100": (lambda: mean_query(100), "0x1.999999999999ap-4"),
    "mean1000": (lambda: mean_query(1000), "0x1.030dc4ea03a73p-5"),
    **{f"clipmean{n}": (
        lambda n=n: _mean_graph(n, -2.0, 2.0,
                                lambda b, x: b.reduce_mean(b.clip(x, -1.0, 1.0), axis=None)),
        pin) for n, pin in ((100, "0x1.999999999999ap-4"), (450, "0x1.822cb17ff2eb9p-5"))},
    **{f"sumsig{n}": (
        lambda n=n: _mean_graph(n, -1.0, 1.0,
                                lambda b, x: b.reduce_sum(b.sigmoid(x), axis=None)),
        pin) for n, pin in ((64, "0x1.11a2fd9ecd1d8p+2"), (450, "0x1.6acb5eaab53fap+3"))},
}


@pytest.mark.parametrize("name", IBP_PINS)
def test_ibp_bounds_are_pinned(name):
    # mlp_classifier with wrt=x, the means over their one input
    build, pin = IBP_PINS[name]
    g = build()
    wrt = [g.find("x")] if name.startswith("mlp") else None
    assert estimate_sensitivity(g, wrt=wrt, method="ibp").bound.hex() == pin


def test_an_end_product_zero_times_inf_is_refused():
    # d/dx sum(0 * exp(x)) over x in [0, 800]^3 is 0 * exp(x), and exp(800)
    # overflows to inf: the end product 0 * inf is NaN, which bounds nothing
    b = GraphBuilder()
    x = b.input("x", (3,), bounds=(0.0, 800.0))
    b.output(b.reduce_sum(b.mul(b.constant(0.0), b.exp(x))))
    with pytest.raises(DomainError, match=r"NaN at node '\w+' \(Mul\)"):
        estimate_sensitivity(b.graph(), method="ibp")


@pytest.mark.parametrize("slope", [0.0, 1e-3])
def test_an_underflowed_zero_times_an_overflowed_inf_is_refused(slope):
    # exp(-x) * exp(x) * x + slope * x is (1 + slope) x, whose Lipschitz
    # constant is 1 + slope; over x in [800, 801] exp(-x) underflows to
    # [0, 0] and exp(x) overflows to [inf, inf]. Taking their end products
    # as 0 would certify slope, far below the true constant
    b = GraphBuilder()
    x = b.input("x", (3,), bounds=(800.0, 801.0))
    y = b.mul(b.mul(b.exp(b.neg(x)), b.exp(x)), x)
    if slope:
        y = b.add(y, b.mul(b.constant(slope), x))
    b.output(b.reduce_sum(y))
    with pytest.raises(DomainError, match=r"NaN at node '\w+' \(Mul\)"):
        estimate_sensitivity(b.graph(), method="ibp")


def test_ibp_refuses_an_enclosure_that_holds_nan():
    # the Jacobian of sum(exp(x) - exp(x)) over x in [800, 900] adds exp(x),
    # whose ends are inf, to -exp(x), whose ends are -inf
    b = GraphBuilder()
    x = b.input("x", (3,), bounds=(800.0, 900.0))
    b.output(b.reduce_sum(b.sub(b.exp(x), b.exp(x))))
    with pytest.raises(DomainError, match=r"NaN at node '\w+' \(Add\)"):
        estimate_sensitivity(b.graph(), method="ibp")
