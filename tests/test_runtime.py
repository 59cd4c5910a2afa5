import threading
import time
import warnings

import numpy as np
import pytest

from dpgraph import (
    GraphBuilder,
    MissingInput,
    NumericalError,
    ShapeMismatch,
    UnknownNode,
    ValidationFailed,
)
from dpgraph.autodiff import jacobian
from dpgraph.graph import BCE_CLAMP, LEAF_KINDS, OPS, Bounds, OpKind
from dpgraph.models import mean_query, mlp_classifier
from dpgraph import mechanism, runtime

from conftest import random_graph, ref_eval, ref_eval_all, sample_inputs


def _affine():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 1.0))
    b.output(b.mul(b.constant(3.0), x))
    return b.graph()


def test_compile_twice_same_fingerprint_and_faster():
    g = _affine()
    runtime.clear_cache()
    t0 = time.perf_counter()
    p1 = runtime.compile(g)
    cold = time.perf_counter() - t0

    cached_times = []
    for _ in range(20):
        t0 = time.perf_counter()
        p2 = runtime.compile(g)
        cached_times.append(time.perf_counter() - t0)
    assert p2.fingerprint == p1.fingerprint
    assert p2 is p1
    assert cold >= 5 * sorted(cached_times)[len(cached_times) // 2]


def test_fingerprint_ignores_construction_order():
    def build(sigmoid_first: bool):
        b = GraphBuilder()
        x = b.input("x", (), bounds=(0.0, 1.0))
        y = b.input("y", (), bounds=(0.0, 1.0))
        if sigmoid_first:
            s = b.sigmoid(x)
            e = b.exp(y)
        else:
            e = b.exp(y)
            s = b.sigmoid(x)
        b.output(b.add(s, e))
        return b.graph()

    runtime.clear_cache()
    assert runtime.compile(build(True)).fingerprint == \
        runtime.compile(build(False)).fingerprint


def test_fingerprint_tracks_bounds():
    def build(hi):
        b = GraphBuilder()
        x = b.input("x", (), bounds=(0.0, hi))
        b.output(b.sigmoid(x))
        return b.graph()

    assert runtime.compile(build(1.0)).fingerprint != \
        runtime.compile(build(2.0)).fingerprint


def test_content_hash_is_stable():
    # saved analyses are matched by fingerprint, so the digest format is fixed
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=([[-1.0], [0.0]], [[1.0], [2.0]]))
    w = b.parameter("w", (2, 2))
    b.exp(x)  # dead node: not part of the digest
    h = b.matmul(w, b.clip(x, -0.5, 0.5), transpose_a=True)
    b.output(b.reduce_mean(
        b.sigmoid(b.add(h, b.constant([[0.25], [-0.75]]))), axis=0))
    assert runtime.content_hash(b.graph()) == (
        "efcee6944158f494bf2d19176504efe713e443d9d823416ec08a3c6c7cf182f5")


@pytest.mark.parametrize("make,fingerprint", [
    (lambda: mean_query(10),
     "f967da21d691dd1abd447d6dd42128a944a97cabd98f7f9c17d5b9fbe2070c5a"),
    (lambda: mlp_classifier(2),
     "c672bb42003e999c93076fa597ad4ef7b32718cbd2b2af5dab9357e51a54da99"),
], ids=["mean10", "mlp2"])
def test_fingerprint_is_the_content_hash_of_the_graph_as_given(make, fingerprint):
    # analyses saved for these models keep matching their programs
    g = make()
    assert runtime.graph_fingerprint(g) == runtime.content_hash(g) == fingerprint
    assert runtime.compile(g).fingerprint == fingerprint


def test_deep_jacobian_graph_compiles():
    # one Jacobian row of n entries, the flattened gradient s (1 - s)
    n = 600
    b = GraphBuilder()
    x = b.input("x", (n, 1), bounds=(-1.0, 1.0))
    b.output(b.reduce_sum(b.sigmoid(x), axis=None))
    g = b.graph()
    program = runtime.compile(jacobian(g, [g.find("x")]).graph)
    xv = np.linspace(-1.0, 1.0, n).reshape(n, 1)
    (j,) = runtime.execute(program, {"x": xv})
    s = 1.0 / (1.0 + np.exp(-xv))
    np.testing.assert_allclose(j, (s * (1.0 - s)).T, rtol=1e-12)


def test_cached_and_cold_compiles_agree(rng):
    g = mlp_classifier(3)
    runtime.clear_cache()
    cached = runtime.compile(g)
    cached_again = runtime.compile(g)
    runtime.clear_cache()
    cold = runtime.compile(g)
    assert cached_again is cached
    assert cold is not cached
    assert cold.fingerprint == cached.fingerprint
    x = sample_inputs(g, rng)
    for a, b in zip(runtime.execute(cached, x), runtime.execute(cold, x)):
        assert np.array_equal(a, b)


def test_compile_invalid_graph():
    b = GraphBuilder()
    b.input("x", ())
    g = b.graph()
    with pytest.raises(ValidationFailed) as err:
        runtime.compile(g)
    assert any(d.code == "no-outputs" for d in err.value.diagnostics)


def test_identity_graph_roundtrips_input():
    b = GraphBuilder()
    x = b.input("x", (3, 1), bounds=(0.0, 1.0))
    b.output(x)
    program = runtime.compile(b.graph())
    data = np.array([[0.1], [0.2], [0.3]])
    (out,) = runtime.execute(program, {"x": data})
    np.testing.assert_array_equal(out, data)


def test_mlp_zero_point_closed_form():
    g = mlp_classifier(4)
    program = runtime.compile(g)
    inputs = {g.nodes[h].name: np.zeros(g.nodes[h].shape.dims) for h in g.leaves()}
    inputs["t"] = np.ones((4, 1))
    (loss,) = runtime.execute(program, inputs)
    assert loss == pytest.approx(-np.log(0.5), abs=1e-12)


def test_differential_against_reference_interpreter(rng):
    for _ in range(100):
        g = random_graph(rng)
        program = runtime.compile(g)
        x = sample_inputs(g, rng)
        got = runtime.execute(program, x)
        want = ref_eval(g, x)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_missing_input():
    program = runtime.compile(_affine())
    with pytest.raises(MissingInput):
        runtime.execute(program, {})


def test_an_input_the_program_does_not_declare_is_refused():
    program = runtime.compile(mean_query(3))
    with pytest.raises(UnknownNode, match="no declared input named 'y'"):
        runtime.execute(program, {"x": np.zeros((3, 1)), "y": np.zeros((3, 1))})


def test_shape_mismatch():
    program = runtime.compile(_affine())
    with pytest.raises(ShapeMismatch):
        runtime.execute(program, {"x": np.zeros((2, 2))})


def test_numerical_error_names_node():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(-10.0, 10.0))
    b.output(b.build("Log", [x], name="badlog"))
    program = runtime.compile(b.graph())
    with pytest.raises(NumericalError) as err:
        runtime.execute(program, {"x": -1.0})
    assert "badlog" in str(err.value)


def test_execution_is_deterministic(rng):
    g = mlp_classifier(3)
    program = runtime.compile(g)
    x = sample_inputs(g, rng)
    a = runtime.execute(program, x)
    b = runtime.execute(program, x)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_inputs_never_mutated(rng):
    g = mlp_classifier(3)
    program = runtime.compile(g)
    x = sample_inputs(g, rng)
    copies = {k: v.copy() for k, v in x.items()}
    runtime.execute(program, x)
    for k in x:
        assert np.array_equal(x[k], copies[k])


def test_concurrent_execution(rng):
    g = mlp_classifier(3)
    program = runtime.compile(g)
    x = sample_inputs(g, rng)
    expected = runtime.execute(program, x)
    results = [None] * 8

    def worker(i):
        results[i] = runtime.execute(program, x)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in results:
        assert np.array_equal(r[0], expected[0])


def test_benchmark_records_and_csv(tmp_path):
    records = runtime.benchmark([4, 8, 16], repetitions=5)
    assert [r.width for r in records] == [4, 8, 16]
    counts = [r.param_count for r in records]
    assert counts == sorted(counts) and counts[0] < counts[-1]
    out = tmp_path / "bench.csv"
    runtime.write_bench_csv(records, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "width,param_count,compile_s,compile_cached_s,exec_us"
    assert len(lines) == 4


# -- finiteness invariant: inputs and constants checked once, FP traps after --

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_nonfinite_input_names_the_input(bad):
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=(-1.0, 1.0))
    w = b.parameter("w", (2, 1))
    b.output(b.sigmoid(b.add(x, w)))
    program = runtime.compile(b.graph())
    value = np.array([[0.5], [bad]])
    with pytest.raises(NumericalError, match="'w'"):
        runtime.execute(program, {"x": np.zeros((2, 1)), "w": value})


def _overflow_matmul():
    b = GraphBuilder()
    a = b.parameter("a", (1, 2))
    x = b.parameter("x", (2, 1))
    b.output(b.build("MatMul", [a, x], name="mm"))
    return b.graph(), {"a": np.full((1, 2), 1e200), "x": np.full((2, 1), 1e200)}


def _overflow_exp():
    b = GraphBuilder()
    x = b.parameter("x", ())
    b.output(b.build("Exp", [x], name="hot"))
    return b.graph(), {"x": 800.0}


def _overflow_sum():
    b = GraphBuilder()
    x = b.parameter("x", (3, 1))
    b.output(b.build("Sum", [x], {"axis": None}, name="total"))
    return b.graph(), {"x": np.full((3, 1), 1e308)}


@pytest.mark.parametrize("case,label", [
    (_overflow_matmul, "mm"), (_overflow_exp, "hot"), (_overflow_sum, "total"),
], ids=["MatMul", "Exp", "Sum"])
def test_overflow_names_the_node(case, label):
    g, inputs = case()
    program = runtime.compile(g)
    with pytest.raises(NumericalError, match=f"'{label}'"):
        runtime.execute(program, inputs)


def test_nonfinite_constant_is_caught():
    # inf + finite raises no floating-point flag, so the trap alone would
    # let this through; the constant is checked when the program is built
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=(0.0, 1.0))
    c = b.constant([[np.inf], [0.0]], name="hot")
    b.output(b.clip(b.add(x, c), 0.0, 1.0))
    program = runtime.compile(b.graph())
    with pytest.raises(NumericalError, match="'hot'"):
        runtime.execute(program, {"x": np.zeros((2, 1))})


def test_exp_underflow_is_not_an_error():
    b = GraphBuilder()
    x = b.parameter("x", ())
    b.output(b.exp(x))
    (out,) = runtime.execute(runtime.compile(b.graph()), {"x": -800.0})
    assert out == 0.0


def _wild_inputs(graph, rng):
    # mostly moderate values, with exact zeros (poles of Log, Div and
    # Pow(-1)), negatives (outside Log and Pow(0.5)) and huge entries
    # (overflow under Pow, Mul and MatMul)
    out = {}
    for h in graph.leaves():
        node = graph.nodes[h]
        value = rng.uniform(-2.0, 2.0, node.shape.dims)
        flat = value.reshape(-1)
        roll = rng.random(flat.size)
        flat[roll < 0.1] = 0.0
        flat[roll > 0.9] = 1e155 * rng.choice([-1.0, 1.0])
        out[node.name] = value
    return out


def test_raises_exactly_where_the_reference_is_nonfinite(rng):
    raised = finite = 0
    for _ in range(50):
        g = random_graph(rng, wild=True)
        program = runtime.compile(g)
        for _ in range(4):
            x = _wild_inputs(g, rng)
            with np.errstate(all="ignore"):
                values = ref_eval_all(program.optimized_graph, x)
            nonfinite = any(not np.all(np.isfinite(v)) for v in values.values())
            if nonfinite:
                raised += 1
                with pytest.raises(NumericalError):
                    runtime.execute(program, x)
                continue
            finite += 1
            got = runtime.execute(program, x)
            with np.errstate(all="ignore"):
                want = ref_eval(g, x)
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    assert raised >= 20 and finite >= 20


# -- the group-wise check: one finiteness scan per leaf group ------------------

def _leaf_inputs(program, fill=0.5):
    g = program.optimized_graph
    return {g.nodes[h].name: np.full(g.nodes[h].shape.dims, fill) for h in g.leaves()}


def _mixed_layout():
    """A group of three bounded leaves whose last one reaches no output, a
    per-element-bounded leaf and two unbounded ones, one of them unreached."""
    b = GraphBuilder()
    x = b.input("x", (3, 2), bounds=(0.0, 1.0))
    y = b.input("y", (4, 1), bounds=(0.0, 1.0))
    b.input("u", (2, 1), bounds=(0.0, 1.0))  # reaches no output
    z = b.input("z", (2, 2), bounds=([[-1.0, 0.0], [0.0, -2.0]], [[1.0, 1.0], [2.0, 0.0]]))
    w = b.parameter("w", (2, 2))
    b.parameter("v", (3,))  # unbounded, reaches no output
    b.output(b.add(b.add(b.reduce_sum(x), b.reduce_sum(y)), b.reduce_sum(b.matmul(w, z))))
    return b.graph()


def test_layout_covers_every_leaf_with_its_register():
    program = runtime.compile(_mixed_layout())
    layout = {name: (bounds, slot) for bounds, members in program.leaf_groups
              for name, _, _, _, slot in members}
    assert sorted(layout) == sorted(program.leaf_names) == ["u", "v", "w", "x", "y", "z"]
    (unbounded,) = [m for bounds, m in program.leaf_groups if bounds is None]
    assert [name for name, *_ in unbounded] == ["w", "v"]
    assert layout["u"][1] is None and layout["v"][1] is None
    slots = [layout[name][1] for name in "xyzw"]
    assert len(set(slots)) == 4 and all(isinstance(s, int) for s in slots)


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_nan_in_any_member_of_a_group_names_that_member(position):
    program = runtime.compile(mlp_classifier(2))
    (group,) = program.leaf_groups
    names = [name for name, *_ in group.members]
    assert len(names) == 10
    name = names[{"first": 0, "middle": 5, "last": 9}[position]]
    inputs = _leaf_inputs(program)
    inputs[name].flat[-1] = np.nan
    with pytest.raises(NumericalError, match=f"input '{name}'"):
        runtime.execute(program, inputs)
    # a batch of four points, only the third of which holds the NaN
    batched = {k: np.stack([v] * 4) if k in (name, names[0], names[9]) else v
               for k, v in _leaf_inputs(program).items()}
    batched[name][2].flat[0] = np.nan
    with pytest.raises(NumericalError, match=f"input '{name}'"):
        runtime.execute(program, batched, batch_shape=(4,))
    batched[name][2].flat[0] = 0.5
    (out,) = runtime.execute(program, batched, batch_shape=(4,))
    assert out.shape == (4,) + program.output_dims[0] and np.isfinite(out).all()


@pytest.mark.parametrize("name", ["x", "u", "z", "w", "v"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_values_are_refused_in_every_group(name, bad):
    # bounded, unreached, per-element bounded, unbounded, unbounded unreached
    program = runtime.compile(_mixed_layout())
    inputs = _leaf_inputs(program)
    inputs[name].flat[0] = bad
    with pytest.raises(NumericalError, match=f"input '{name}'"):
        runtime.execute(program, inputs)


def test_missing_and_misshapen_values_come_before_nonfinite_ones_in_a_group():
    program = runtime.compile(_mixed_layout())
    inputs = _leaf_inputs(program)
    inputs["x"][0, 0] = np.nan
    with pytest.raises(MissingInput, match="'u'"):
        runtime.execute(program, {k: v for k, v in inputs.items() if k != "u"})
    with pytest.raises(ShapeMismatch, match="'y'"):
        runtime.execute(program, dict(inputs, y=np.zeros((1, 4))))
    with pytest.raises(NumericalError, match="'x'"):
        runtime.execute(program, inputs)


@pytest.mark.parametrize("value", [
    [["a"]] * 4,
    np.full((4, 1), 1 + 2j),
    [[1.0], [2.0, 3.0], [4.0], [5.0]],
    [[None]] * 4,
], ids=["strings", "complex", "ragged", "none"])
def test_values_that_are_not_real_numbers_are_refused(value):
    b = GraphBuilder()
    x = b.input("x", (4, 1), bounds=(0.0, 1.0))
    b.output(b.reduce_sum(x))
    program = runtime.compile(b.graph())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning, no dropped part
        with pytest.raises(NumericalError, match="input 'x'"):
            runtime.execute(program, {"x": value})


def test_integers_booleans_and_lists_are_bound_as_float64():
    b = GraphBuilder()
    x = b.input("x", (4, 1), bounds=(0.0, 1.0))
    b.output(b.reduce_sum(x))
    program = runtime.compile(b.graph())
    for value in ([[1], [0], [1], [1]], np.array([[True], [False], [True], [True]]),
                  np.ones((4, 1), dtype=np.float32), np.array([[1], [0], [2], [3]], np.int8)):
        (out,) = runtime.execute(program, {"x": value})
        assert out == np.sum(np.asarray(value, dtype=np.float64))


# -- batched execution ---------------------------------------------------------

def test_default_batch_shape_rejects_a_stacked_input():
    # a leading axis of one would release one point's answer under the same
    # shape rule that guards a release, so only an explicit batch_shape allows it
    program = runtime.compile(mlp_classifier(2))
    inputs = {}
    for h in program.optimized_graph.leaves():
        node = program.optimized_graph.nodes[h]
        inputs[node.name] = np.zeros(node.shape.dims)
    inputs["x"] = inputs["x"][None]
    with pytest.raises(ShapeMismatch, match="'x'"):
        runtime.execute(program, inputs)
    runtime.execute(program, inputs, batch_shape=(1,))
    with pytest.raises(ShapeMismatch, match="'x'"):
        runtime.execute(program, inputs, batch_shape=(2,))


def _stacked(graph, rng, n_points, wild):
    """n_points values of each leaf, stacked, or at random one shared value."""
    draw = _wild_inputs if wild else sample_inputs
    points = [draw(graph, rng) for _ in range(n_points)]
    inputs, stacked = {}, set()
    for name in points[0]:
        if rng.random() < 0.7:
            inputs[name] = np.stack([p[name] for p in points])
            stacked.add(name)
        else:
            inputs[name] = points[0][name]
    return inputs, stacked


def test_batched_execute_equals_per_point_execute(rng):
    kinds = [k for k in OpKind if k not in LEAF_KINDS]
    assert len(kinds) == 18
    n_points = 6
    compared = trapped = last_bit = 0
    worst = 0.0
    for i in range(4 * len(kinds)):
        wild = i % 2 == 1
        g = random_graph(rng, force_kinds=(kinds[i % len(kinds)],), wild=wild)
        program = runtime.compile(g)
        batch = (2, 3) if i % 4 == 0 else (n_points,)
        flat, stacked = _stacked(g, rng, n_points, wild)
        inputs = {name: v.reshape(batch + v.shape[1:]) if name in stacked else v
                  for name, v in flat.items()}
        per_point, failed = [], []
        for j in range(n_points):
            point = {name: v[j] if name in stacked else v for name, v in flat.items()}
            try:
                per_point.append(runtime.execute(program, point))
            except NumericalError as err:
                failed.append(str(err))
        if failed:
            trapped += 1
            with pytest.raises(NumericalError) as err:
                runtime.execute(program, inputs, batch_shape=batch)
            # the first instruction that traps on the batch is the first one
            # that traps on some point
            assert str(err.value) in failed
            continue
        compared += 1
        outs = runtime.execute(program, inputs, batch_shape=batch)
        for out, dims in zip(outs, program.output_dims):
            assert out.shape == batch + dims
        for j, want in enumerate(per_point):
            for out, w in zip(outs, want):
                got = out.reshape((n_points,) + w.shape)[j]
                if not np.array_equal(got, w):
                    last_bit += 1
                    scale = np.maximum(np.abs(w), np.finfo(float).tiny)
                    worst = max(worst, float(np.max(np.abs(got - w) / scale)))
    print(f"{compared} graphs compared, {trapped} trapped; {last_bit} point outputs "
          f"differ from per-point execution, worst relative {worst:.1e}")
    assert worst <= 1e-12
    assert compared >= 30 and trapped >= 5


def test_batched_scalars_lift_over_tensor_operands(rng):
    # a declared scalar meets a (2, 2) tensor in Mul, Div and the cross-entropy;
    # its Jacobian adds Concat with a shared zero block for the unused leaf
    b = GraphBuilder()
    s = b.input("s", (), bounds=(0.5, 1.0))
    m = b.parameter("m", (2, 2), bounds=(0.0, 1.0))
    b.parameter("unused", (3, 1), bounds=(-1.0, 1.0))
    h = b.sigmoid(b.div(b.mul(s, m), s))
    b.output(b.binary_cross_entropy(h, s))
    b.output(b.sub(s, m))
    g = b.graph()
    jg = jacobian(g, [g.find("s"), g.find("m"), g.find("unused")])
    for graph in (g, jg.graph):
        program = runtime.compile(graph)
        for shared in ([], ["s"], ["m"], ["unused"]):
            stack = {"s": rng.uniform(0.5, 1.0, 5), "m": rng.uniform(0, 1, (5, 2, 2)),
                     "unused": rng.uniform(-1, 1, (5, 3, 1))}
            inputs = {k: v[0] if k in shared else v for k, v in stack.items()}
            outs = runtime.execute(program, inputs, batch_shape=(5,))
            for j in range(5):
                point = {k: v if k in shared else v[j] for k, v in inputs.items()}
                for out, want in zip(outs, runtime.execute(program, point)):
                    np.testing.assert_array_equal(out[j], want)


M, S = (2, 3), ()  # the declared shapes of the kernel cases


def _pair_cases(method):
    # equal ranks, then a declared scalar on either side of a tensor
    return [((M, M), method), ((S, S), method), ((S, M), method), ((M, S), method)]


def _unary_cases(method):
    return [((M,), method), ((S,), method)]


# kind -> (leaf shapes, builder method applied to the leaves) for each case;
# the leaves are bounded to [0.5, 2.0], where every kind is finite
KERNEL_CASES = {
    OpKind.ADD: _pair_cases(lambda b, x, y: b.add(x, y)),
    OpKind.SUB: _pair_cases(lambda b, x, y: b.sub(x, y)),
    OpKind.MUL: _pair_cases(lambda b, x, y: b.mul(x, y)),
    OpKind.DIV: _pair_cases(lambda b, x, y: b.div(x, y)),
    OpKind.BCE: _pair_cases(lambda b, p, t: b.binary_cross_entropy(p, t)),
    OpKind.NEG: _unary_cases(lambda b, x: b.neg(x)),
    OpKind.EXP: _unary_cases(lambda b, x: b.exp(x)),
    OpKind.LOG: _unary_cases(lambda b, x: b.log(x)),
    OpKind.SIGMOID: _unary_cases(lambda b, x: b.sigmoid(x)),
    OpKind.POW: _unary_cases(lambda b, x: b.power(x, -1.5)),
    OpKind.CLIP: _unary_cases(lambda b, x: b.clip(x, 0.8, 1.5)),
    OpKind.IN_INTERVAL: _unary_cases(lambda b, x: b.in_interval(x, 0.8, 1.5)),
    OpKind.MATMUL: [
        (((2, 3), (3, 4)), lambda b, x, y: b.matmul(x, y)),
        (((3, 2), (3, 4)), lambda b, x, y: b.matmul(x, y, transpose_a=True)),
        (((2, 3), (4, 3)), lambda b, x, y: b.matmul(x, y, transpose_b=True)),
        (((3, 2), (4, 3)), lambda b, x, y: b.matmul(x, y, True, True)),
    ],
    OpKind.SUM: [((M,), lambda b, x, axis=axis: b.reduce_sum(x, axis=axis))
                 for axis in (None, 0, 1)] + [((S,), lambda b, x: b.reduce_sum(x))],
    OpKind.MEAN: [((M,), lambda b, x, axis=axis: b.reduce_mean(x, axis=axis))
                  for axis in (None, 0, 1)] + [((S,), lambda b, x: b.reduce_mean(x))],
    OpKind.RESHAPE: [((M,), lambda b, x: b.reshape(x, (3, 2))),
                     ((M,), lambda b, x: b.reshape(x, (6,))),
                     ((S,), lambda b, x: b.reshape(x, (1, 1)))],
    # with a shared constant block beside the leaves
    OpKind.CONCAT: [(((2, 3), (2, 1)), lambda b, x, y: b.concat(
                        [x, b.constant(np.zeros((2, 2))), y], axis=1)),
                    (((2, 3), (1, 3)), lambda b, x, y: b.concat([y, x], axis=0)),
                    # three leaves: the one kernel that takes a list of operands
                    (((1, 3), (2, 3), (1, 3)), lambda b, x, y, z: b.concat(
                        [x, y, z], axis=0))],
    OpKind.SLICE: [((M,), lambda b, x: b.slice(x, axis=1, start=1, stop=3)),
                   ((M,), lambda b, x: b.slice(x, axis=0, start=0, stop=1))],
}


@pytest.mark.parametrize("kind", [k for k in OpKind if k not in LEAF_KINDS],
                         ids=lambda k: k.value)
def test_every_kernel_batches_with_the_bits_of_one_point(kind, rng):
    # every case of every kind that has a kernel: a batch, with every leaf
    # stacked and with each leaf shared in turn, has the bits of the points
    # executed one at a time
    for shapes, method in KERNEL_CASES[kind]:
        b = GraphBuilder()
        leaves = [b.input(f"x{i}", shape, bounds=(0.5, 2.0))
                  for i, shape in enumerate(shapes)]
        b.output(method(b, *leaves))
        program = runtime.compile(b.graph())
        assert kind in {instr.kind for instr in program.plan}
        stack = {f"x{i}": rng.uniform(0.5, 2.0, (5,) + shape)
                 for i, shape in enumerate(shapes)}
        for shared in [None] + list(stack):
            inputs = {k: v[0] if k == shared else v for k, v in stack.items()}
            (out,) = runtime.execute(program, inputs, batch_shape=(5,))
            for j in range(5):
                point = {k: v if k == shared else v[j] for k, v in inputs.items()}
                (want,) = runtime.execute(program, point)
                assert out[j].shape == want.shape
                assert out[j].tobytes() == want.tobytes()


def test_batched_trap_names_the_node():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(-10.0, 10.0))
    b.output(b.build("Log", [x], name="badlog"))
    program = runtime.compile(b.graph())
    with pytest.raises(NumericalError, match="'badlog'"):
        runtime.execute(program, {"x": [1.0, 2.0, 3.0, 4.0, 5.0, -1.0, 7.0]},
                        batch_shape=(7,))
    (out,) = runtime.execute(program, {"x": [1.0, 2.0]}, batch_shape=(2,))
    np.testing.assert_array_equal(out, np.log([1.0, 2.0]))


def test_batched_constant_output_is_broadcast():
    # the Jacobian of a mean is a constant row, shared by every point
    b = GraphBuilder()
    x = b.input("x", (4, 1), bounds=(0.0, 1.0))
    b.output(b.reduce_mean(x, axis=None))
    g = b.graph()
    program = runtime.compile(jacobian(g, [g.find("x")]).graph)
    (j,) = runtime.execute(program, {"x": np.zeros((3, 2, 4, 1))}, batch_shape=(3, 2))
    assert j.shape == (3, 2, 1, 4)
    np.testing.assert_array_equal(j, np.full((3, 2, 1, 4), 0.25))


def test_batches_run_in_chunks_under_the_byte_budget(monkeypatch):
    program = runtime.compile(mlp_classifier(2))
    rng = np.random.default_rng(3)
    inputs = {}
    for h in program.optimized_graph.leaves():
        node = program.optimized_graph.nodes[h]
        inputs[node.name] = rng.uniform(0.0, 1.0, (50,) + node.shape.dims)
    (whole,) = runtime.execute(program, inputs, batch_shape=(50,))
    monkeypatch.setattr(runtime, "BATCH_BYTES", 3 * program.point_bytes)
    assert runtime.chunk_points(program) == 3
    (chunked,) = runtime.execute(program, inputs, batch_shape=(50,))
    np.testing.assert_array_equal(chunked, whole)


def _aliasing_graph():
    # outputs that could share memory: a leaf, one node twice, a constant, a
    # node that no per-point input reaches and a view of a leaf
    b = GraphBuilder()
    x = b.input("x", (3,), bounds=(0.0, 1.0))
    w = b.parameter("w", (2,), bounds=(0.0, 1.0))
    y = b.exp(x)
    for h in (x, y, y, b.constant(np.arange(3.0)), b.exp(w), b.reshape(x, (3, 1))):
        b.output(h)
    return b.graph()


@pytest.mark.parametrize("batch, chunks", [((), 1), ((5,), 1), ((5,), 3),
                                           ((2, 3), 1), ((2, 3), 3)],
                         ids=["unbatched", "5-one-chunk", "5-chunks",
                              "2x3-one-chunk", "2x3-chunks"])
def test_outputs_never_alias_inputs_constants_or_each_other(batch, chunks,
                                                            monkeypatch, rng):
    program = runtime.compile(_aliasing_graph())
    if chunks > 1:
        monkeypatch.setattr(runtime, "BATCH_BYTES", 2 * program.point_bytes)
    assert -(-int(np.prod(batch)) // runtime.chunk_points(program)) == chunks
    inputs = {"x": rng.uniform(0.0, 1.0, batch + (3,)),
              "w": rng.uniform(0.0, 1.0, (2,))}
    given = {k: v.copy() for k, v in inputs.items()}
    constants = [value.copy() for _, value in program.const_loads]
    outs = runtime.execute(program, inputs, batch_shape=batch)
    want = [out.copy() for out in outs]
    assert [out.shape for out in outs] == [batch + dims for dims in program.output_dims]
    for out in outs:
        out += 1.0
    for out, w in zip(outs, want):  # no output shares another's memory
        np.testing.assert_array_equal(out, w + 1.0)
    for k, v in inputs.items():
        assert v.tobytes() == given[k].tobytes()
    for (_, value), c in zip(program.const_loads, constants):
        assert value.tobytes() == c.tobytes()
    for out, w in zip(runtime.execute(program, inputs, batch_shape=batch), want):
        assert out.tobytes() == w.tobytes()


# -- compile cache -------------------------------------------------------------

def _scaled(alpha):
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=(0.0, 1.0))
    b.output(b.sigmoid(b.mul(b.constant(alpha), x)))
    return b.graph()


def test_cache_info_counts_hits_misses_and_size(monkeypatch):
    runtime.clear_cache()
    assert runtime.cache_info() == (0, 0, 0)
    g = _scaled(2.0)
    runtime.compile(g)
    assert runtime.cache_info() == (0, 1, 1)
    runtime.compile(g)
    assert runtime.cache_info() == (1, 1, 1)
    # a graph that optimizes to g's program differs as given, so it is a
    # miss and a program of its own, under its own key
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=(0.0, 1.0))
    b.output(b.sigmoid(b.mul(b.mul(b.constant(2.0), x), b.constant(1.0))))
    same_as_g = b.graph()
    p_same, p_g = runtime.compile(same_as_g), runtime.compile(g)
    assert p_same is not p_g and p_same.fingerprint != p_g.fingerprint
    assert runtime.content_hash(p_same.optimized_graph) == \
        runtime.content_hash(p_g.optimized_graph)
    assert runtime.cache_info() == (2, 2, 2)

    monkeypatch.setattr(runtime, "CACHE_SIZE", 3)
    runtime.compile(_scaled(3.0))
    runtime.compile(_scaled(4.0))  # drops same_as_g's program, the oldest
    assert runtime.cache_info() == (2, 4, 3)
    runtime.compile(g)
    runtime.compile(same_as_g)  # compiled again; drops 3.0
    assert runtime.cache_info() == (3, 5, 3)
    runtime.compile(_scaled(3.0))
    assert runtime.cache_info() == (3, 6, 3)
    runtime.clear_cache()
    assert runtime.cache_info() == (0, 0, 0)


# -- binding by group vectors ---------------------------------------------------

def _vectors(program, inputs, batch):
    """One flat vector per leaf group, laid out as `LeafGroup.members` says:
    of shape (size,) when every member is shared, else batch + (size,)."""
    vectors = []
    for _, members in program.leaf_groups:
        values = [np.asarray(inputs[name], dtype=np.float64) for name, *_ in members]
        if all(v.shape == dims for v, (_, dims, *_) in zip(values, members)):
            vectors.append(np.concatenate([v.ravel() for v in values]))
        else:
            vectors.append(np.concatenate(
                [np.broadcast_to(v, batch + dims).reshape(batch + (stop - start,))
                 for v, (_, dims, start, stop, _) in zip(values, members)], axis=-1))
    return vectors


@pytest.mark.parametrize("mode", ["unbatched", "batched", "chunked"])
def test_group_vectors_bind_as_named_inputs_do(mode, monkeypatch, rng):
    batch = () if mode == "unbatched" else (2, 3)
    for _ in range(24):
        g = random_graph(rng, n_leaves=int(rng.integers(1, 5)))
        program = runtime.compile(g)
        if batch:
            flat, stacked = _stacked(g, rng, 6, wild=False)
            inputs = {name: v.reshape(batch + v.shape[1:]) if name in stacked else v
                      for name, v in flat.items()}
        else:
            inputs = sample_inputs(g, rng)
        if mode == "chunked":
            monkeypatch.setattr(runtime, "BATCH_BYTES", 2 * program.point_bytes)
            assert runtime.chunk_points(program) == 2  # three chunks of the six points
        vectors = _vectors(program, inputs, batch)
        given = [v.copy() for v in vectors]
        named = runtime.execute(program, inputs, batch_shape=batch)
        grouped = runtime.execute(program, tuple(vectors), batch_shape=batch)
        assert [out.shape for out in grouped] == [out.shape for out in named]
        assert [out.tobytes() for out in grouped] == [out.tobytes() for out in named]
        for out in grouped:
            assert not any(np.shares_memory(out, v) for v in vectors)
        assert all(np.array_equal(v, w) for v, w in zip(vectors, given))


def _two_groups():
    # x and w share the bounds [0, 1], so one vector holds x then w; s is alone
    b = GraphBuilder()
    x = b.input("x", (3,), bounds=(0.0, 1.0))
    s = b.parameter("s", (), bounds=(-1.0, 1.0))
    w = b.parameter("w", (2,), bounds=(0.0, 1.0))
    b.output(b.add(b.reduce_sum(x), b.mul(s, b.reduce_sum(w))))
    return b.graph()


def test_group_vectors_are_checked():
    program = runtime.compile(_two_groups())
    layout = [[(name, start, stop) for name, _, start, stop, _ in members]
              for _, members in program.leaf_groups]
    assert layout == [[("x", 0, 3), ("w", 3, 5)], [("s", 0, 1)]]
    xw, s = np.full(5, 0.5), np.full(1, 0.5)
    (out,) = runtime.execute(program, [xw, s])
    assert out == 1.5 + 0.5 * 1.0
    with pytest.raises(ShapeMismatch, match="2 group vectors, got 1"):
        runtime.execute(program, [xw])
    with pytest.raises(ShapeMismatch, match=r"'x' expects shape \(5,\), got \(4,\)"):
        runtime.execute(program, [np.zeros(4), s])
    with pytest.raises(ShapeMismatch, match=r"\(5,\) or \(3, 5\), got \(2, 5\)"):
        runtime.execute(program, [np.zeros((2, 5)), s], batch_shape=(3,))
    with pytest.raises(ShapeMismatch, match=r"'s' expects shape \(1,\), got \(3, 1\)"):
        runtime.execute(program, [xw, np.zeros((3, 1))])  # a batch without batch_shape
    (stacked,) = runtime.execute(program, [np.zeros((3, 5)), s], batch_shape=(3,))
    assert stacked.shape == (3,)
    for at, name in (([4], "w"), ([1, 4], "x"), ([2, 3], "x")):
        bad = xw.copy()
        bad[at] = np.nan
        with pytest.raises(NumericalError, match=f"input '{name}'"):
            runtime.execute(program, [bad, s])
        rows = np.tile(xw, (3, 1))
        rows[2, at] = np.inf
        with pytest.raises(NumericalError, match=f"input '{name}'"):
            runtime.execute(program, [rows, s], batch_shape=(3,))
    with pytest.raises(NumericalError, match="input 's'"):
        runtime.execute(program, [xw, np.array([np.nan])])


# -- kernel bits ----------------------------------------------------------------

def _operand(rng, shape, infinite=False):
    """Uniform values in [-1.5, 1.5] with -0.0 and 0.0 among them, and with
    infinite=True ±inf too; a rank-0 operand is a 0-d array."""
    x = rng.uniform(-1.5, 1.5, shape)
    specials = [-0.0, 0.0] + ([np.inf, -np.inf] if infinite else [])
    flat = x.reshape(-1)
    for i in rng.choice(flat.size, size=min(flat.size, len(specials)), replace=False):
        flat[i] = specials[int(rng.integers(len(specials)))]
    return x


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
@pytest.mark.parametrize("dims", [(), (3,), (2, 3)])
def test_mean_clip_and_bce_kernels_keep_numpys_bits(batch, dims, rng):
    rank = len(dims)
    trailing = tuple(range(-rank, 0)) if batch else None  # np.mean's axes
    mean_axes = [None] + list(range(rank))
    for _ in range(5):
        x = _operand(rng, batch + dims)
        for axis in mean_axes:
            kernel = OPS[OpKind.MEAN].kernel({"axis": axis, "ranks": (rank,)})
            want = (np.mean(x, axis=trailing) if axis is None
                    else np.mean(x, axis=axis - rank, keepdims=True))
            assert _same_bits(kernel(x), want)
        zeros = np.full(batch + dims, -0.0)  # np.add.reduce makes their sum 0.0
        kernel = OPS[OpKind.MEAN].kernel({"axis": None, "ranks": (rank,)})
        assert _same_bits(kernel(zeros), np.mean(zeros, axis=trailing))

        wild = _operand(rng, batch + dims, infinite=True)
        for lo, hi in ((-0.75, 0.5), (0.0, 1.0), (-0.0, 0.0)):
            kernel = OPS[OpKind.CLIP].kernel({"lo": lo, "hi": hi, "ranks": (rank,)})
            assert _same_bits(kernel(wild), np.clip(wild, lo, hi))
            bounds = Bounds.make(lo, hi)
            clipped, fraction = mechanism.clip(wild, bounds)
            want = np.clip(wild, lo, hi)
            assert _same_bits(clipped, want)
            assert fraction == float(np.mean(want != wild))
        per_element = Bounds.make(np.full(batch + dims, -0.5), np.full(batch + dims, 0.5))
        clipped, fraction = mechanism.clip(wild, per_element)
        assert _same_bits(clipped, np.clip(wild, per_element.lo, per_element.hi))

        p = _operand(rng, batch + dims, infinite=True)
        t = np.abs(_operand(rng, batch + dims)) / 1.5
        pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
        loss = -(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))
        kernel = OPS[OpKind.BCE].kernel({"ranks": (rank, rank)})
        assert _same_bits(kernel(p, t), np.mean(loss, axis=trailing))
