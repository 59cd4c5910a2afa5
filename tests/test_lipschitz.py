import itertools
import logging
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import expit
from scipy.stats import qmc

from dpgraph import (
    DimensionTooLarge,
    GraphBuilder,
    InvalidParams,
    NonFinite,
    NumericalError,
    OptimizerFailure,
    UnknownNode,
)
from dpgraph.lipschitz import (
    OptimizerConfig,
    _JacobianObjective,
    _Recorder,
    _ascend,
    _fd_gradient,
    _sample_points,
    estimate_sensitivity,
    global_maximize,
    spectral_norm,
    spectral_norm_with_vectors,
    spectral_norms_with_vectors,
)
from dpgraph import autodiff, lipschitz, runtime
from dpgraph.graph import optimize
from dpgraph.models import mean_query, mlp_classifier
from dpgraph.report import SensitivityReport

from conftest import random_graph


# -- spectral norm -----------------------------------------------------------

def test_spectral_norm_scalar():
    assert spectral_norm([[3.0]]) == pytest.approx(3.0)


def test_spectral_norm_diagonal():
    assert spectral_norm([[1.0, 0.0], [0.0, 2.0]]) == pytest.approx(2.0)


def test_spectral_norm_permutation():
    assert spectral_norm([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0)


def test_spectral_norm_vector_is_euclidean(rng):
    v = rng.standard_normal(7)
    assert spectral_norm(v[None, :]) == pytest.approx(np.linalg.norm(v))
    assert spectral_norm(v[:, None]) == pytest.approx(np.linalg.norm(v))


def test_spectral_norm_nonfinite():
    with pytest.raises(NonFinite):
        spectral_norm([[np.nan]])


# both sides above 64, a shape for which the top singular pair once came
# from a power iteration that stopped short of the SVD's
@pytest.mark.parametrize("seed,shape", [(80, (100, 2000)), (99, (2000, 100))],
                         ids=["wide", "tall"])
def test_large_matrices_get_the_svd_triple(seed, shape):
    m = np.random.default_rng(seed).standard_normal(shape)
    sigma, u, w = spectral_norm_with_vectors(m)
    w_svd = np.linalg.svd(m, full_matrices=False)[2][0]
    assert sigma == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-12, abs=0)
    assert abs(w @ w_svd) >= 1 - 1e-12
    assert u @ m @ w == pytest.approx(sigma, rel=1e-12)


# -- global maximization -----------------------------------------------------

def test_maximize_norm_on_unit_box():
    res = global_maximize(lambda v: np.linalg.norm(v, axis=1),
                          (np.zeros(2), np.ones(2)))
    assert res.value == pytest.approx(np.sqrt(2), abs=1e-8)
    np.testing.assert_allclose(res.argmax, [1.0, 1.0], atol=1e-8)


def test_maximize_negated_norm_finds_origin():
    res = global_maximize(lambda v: -np.linalg.norm(v, axis=1),
                          (-np.ones(2), np.ones(2)))
    assert res.value == pytest.approx(0.0, abs=1e-6)
    np.testing.assert_allclose(res.argmax, [0.0, 0.0], atol=1e-6)


def test_maximize_infeasible_objective():
    with pytest.raises(OptimizerFailure):
        global_maximize(lambda v: np.full(len(v), np.nan),
                        (np.zeros(2), np.ones(2)))


def test_maximize_bad_box():
    with pytest.raises(InvalidParams):
        global_maximize(lambda v: np.zeros(len(v)), (np.ones(2), np.zeros(2)))


def test_a_stack_that_raises_is_halved_to_the_points_that_do():
    # the same landscape, once raising on any stack that holds a row with
    # x0 < 0 and once marking those rows NaN
    def nan_below_zero(v):
        return np.where(v[:, 0] < 0, np.nan, np.sin(3 * v[:, 0]) + v[:, 1] ** 2)

    def raises_below_zero(v):
        if np.any(v[:, 0] < 0):
            raise FloatingPointError("invalid value in the test")
        return nan_below_zero(v)

    box = (np.array([-1.0, -1.0]), np.array([2.0, 1.0]))
    want = global_maximize(nan_below_zero, box)
    got = global_maximize(raises_below_zero, box)
    assert got.value == want.value
    assert np.array_equal(got.argmax, want.argmax)
    assert got.n_evaluations == want.n_evaluations


def test_global_opt_refuses_a_box_past_the_sobol_cap(monkeypatch):
    # the Sobol' direction-number table ends at MAXDIM; past it, scipy's
    # sampler once ended such a run in a ValueError
    d = qmc.Sobol.MAXDIM + 1
    calls = []
    with pytest.raises(DimensionTooLarge, match=f"domain has {d}"):
        global_maximize(lambda v: calls.append(len(v)) or np.zeros(len(v)),
                        (np.zeros(d), np.ones(d)))
    assert calls == []
    g = mlp_classifier(128)  # 66,304 free scalars
    execute = runtime.execute
    monkeypatch.setattr(runtime, "execute",
                        lambda *a, **k: calls.append(a) or execute(*a, **k))
    with pytest.raises(DimensionTooLarge, match="domain has 66304"):
        estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    assert calls == []


def test_maximize_is_deterministic():
    cfg = OptimizerConfig(seed=7)
    f = lambda v: np.sin(3 * v[:, 0]) + v[:, 1] ** 2
    box = (np.array([-2.0, -1.0]), np.array([2.0, 1.0]))
    a = global_maximize(f, box, cfg)
    b = global_maximize(f, box, cfg)
    assert a.value == b.value
    assert np.array_equal(a.argmax, b.argmax)


# -- sensitivity estimation ---------------------------------------------------

def _affine(alpha=3.0):
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 1.0))
    b.output(b.mul(b.constant(alpha), x))
    return b.graph()


def _square():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 1.0))
    b.output(b.mul(x, x))
    return b.graph()


def test_affine_sensitivity_exact_and_certified():
    report = estimate_sensitivity(_affine(), method="global_opt")
    assert report.bound == pytest.approx(3.0, abs=1e-9)
    assert report.certified
    assert report.interval_low == report.bound
    assert report.method == "global_opt"


def test_square_sensitivity_argmax_at_one():
    report = estimate_sensitivity(_square(), method="global_opt")
    assert report.bound == pytest.approx(2.0, abs=1e-6)
    assert report.argmax["x"] == pytest.approx(1.0, abs=1e-6)


def test_square_grid_oracle():
    report = estimate_sensitivity(_square(), method="grid_oracle")
    assert report.bound == pytest.approx(2.0, abs=1e-9)
    assert not report.certified


def test_report_counts_objective_evaluations(monkeypatch):
    calls = []  # one entry per point evaluated, whether stacked or single
    objective = _JacobianObjective.__call__
    monkeypatch.setattr(_JacobianObjective, "__call__",
                        lambda self, v: calls.extend(np.atleast_2d(v))
                        or objective(self, v))
    report = estimate_sensitivity(_square(), method="global_opt")
    assert report.n_evaluations == len(calls) > 0
    grid = estimate_sensitivity(_square(), method="grid_oracle")
    assert grid.n_evaluations == OptimizerConfig().grid_resolution
    assert estimate_sensitivity(_square(), method="ibp").n_evaluations is None

    doc = report.to_json_dict()
    assert SensitivityReport.from_json_dict(doc).n_evaluations == report.n_evaluations
    del doc["n_evaluations"]  # analysis files written before the field
    assert SensitivityReport.from_json_dict(doc).n_evaluations is None


def test_argmax_reproduces_bound():
    g = _square()
    report = estimate_sensitivity(g, method="global_opt")
    from dpgraph.autodiff import jacobian
    jg = jacobian(g, list(g.private_inputs))
    program = runtime.compile(jg.graph)
    (j,) = runtime.execute(program, {k: v for k, v in report.argmax.items()})
    assert spectral_norm(j) == pytest.approx(report.bound, abs=1e-9)


def test_ibp_method_delegates():
    report = estimate_sensitivity(_affine(), method="ibp")
    assert report.method == "ibp"
    assert report.bound == pytest.approx(3.0, abs=1e-12)
    assert report.interval_low == 0.0


def test_unknown_method():
    with pytest.raises(InvalidParams):
        estimate_sensitivity(_affine(), method="newton")


def test_grid_dimension_cap():
    b = GraphBuilder()
    x = b.input("x", (3, 1), bounds=(0.0, 1.0))
    w = b.parameter("w", (3, 1), bounds=(0.0, 1.0))
    b.output(b.reduce_sum(b.mul(x, w), axis=None))
    with pytest.raises(DimensionTooLarge):
        estimate_sensitivity(b.graph(), method="grid_oracle")


def test_freeze_removes_coordinates():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 1.0))
    w = b.parameter("w", ())
    b.output(b.mul(w, x))
    g = b.graph()
    cfg = OptimizerConfig(freeze={"w": 2.5})
    report = estimate_sensitivity(g, method="global_opt", config=cfg)
    assert report.bound == pytest.approx(2.5, abs=1e-9)
    assert report.argmax["w"] == pytest.approx(2.5)


@pytest.mark.parametrize("method", lipschitz.METHODS)
def test_freeze_names_are_checked_for_every_method(method):
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 1.0))
    w = b.parameter("w", (), bounds=(1.0, 3.0))
    b.output(b.mul(w, b.mul(b.constant(1.0, name="one"), x)))
    g = b.graph()

    def bound(freeze):
        config = OptimizerConfig(freeze=freeze, grid_resolution=21)
        return estimate_sensitivity(g, method=method, config=config).bound

    with pytest.raises(UnknownNode):
        bound({"W": 2.0})
    with pytest.raises(InvalidParams, match="non-leaf"):
        bound({"one": 2.0})
    assert bound({"w": 2.0}) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("value", [2.0, np.ones(4), np.ones((2, 2, 1))],
                         ids=["scalar", "flat", "extra-axis"])
@pytest.mark.parametrize("method", lipschitz.METHODS)
def test_freeze_values_need_the_exact_shape_for_every_method(method, value):
    # ibp once broadcast a scalar over w (2x2), and refused a value of another
    # shape with ValidationFailed, while the sampling methods raised InvalidParams
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=(0.0, 1.0))
    w = b.parameter("w", (2, 2), bounds=(-1.0, 1.0))
    b.output(b.reduce_sum(b.matmul(w, x)))
    config = OptimizerConfig(freeze={"w": value}, grid_resolution=5)
    with pytest.raises(InvalidParams, match="'w' expects shape"):
        estimate_sensitivity(b.graph(), method=method, config=config)
    config = OptimizerConfig(freeze={"w": np.eye(2)}, grid_resolution=5)
    assert estimate_sensitivity(b.graph(), method=method, config=config).bound \
        == pytest.approx(np.sqrt(2.0), abs=1e-9)


@pytest.mark.parametrize("method,calls", [("global_opt", 2), ("ibp", 0)])
def test_each_graph_is_optimized_once(monkeypatch, method, calls):
    # for global_opt the Jacobian and vjp graphs when they are compiled;
    # fingerprinting the source graph compiles nothing, jacobian and vjp
    # return their graphs unoptimized, and ibp propagates its Jacobian as is
    optimized = []

    def counting(graph):
        optimized.append(graph)
        return optimize(graph)

    for module in (runtime, autodiff):
        monkeypatch.setattr(module, "optimize", counting)
    runtime.clear_cache()
    g = mlp_classifier(2)
    estimate_sensitivity(g, wrt=[g.find("x")], method=method)
    assert len(optimized) == calls


def test_frozen_ibp_compiles_nothing():
    runtime.clear_cache()
    g = mlp_classifier(2)
    w1 = np.full(g.nodes[g.find("w1")].shape.dims, 0.5)
    estimate_sensitivity(g, wrt=[g.find("x")], method="ibp",
                         config=OptimizerConfig(freeze={"w1": w1}))
    assert runtime.cache_info().misses == 0


def test_ibp_makes_no_compile_call(monkeypatch):
    calls = []
    compile_ = runtime.compile

    def counting(graph):
        calls.append(graph)
        return compile_(graph)

    monkeypatch.setattr(runtime, "compile", counting)
    runtime.clear_cache()
    g = mlp_classifier(2)
    estimate_sensitivity(g, wrt=[g.find("x")], method="ibp")
    assert calls == []
    assert runtime.cache_info() == (0, 0, 0)


@pytest.mark.parametrize("fields", [{"seed": -1}, {"n_samples": 0}, {"n_samples": -4}],
                         ids=["seed", "no-samples", "negative-samples"])
def test_config_rejects_negative_seeds_and_sample_counts(fields):
    with pytest.raises(InvalidParams):
        OptimizerConfig(**fields)


@pytest.mark.parametrize("resolution", [1, 0, -3])
def test_config_rejects_a_grid_without_both_ends(resolution):
    with pytest.raises(InvalidParams, match="grid_resolution"):
        OptimizerConfig(grid_resolution=resolution)


def test_grid_of_two_points_per_axis_takes_both_ends():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 1.0))
    b.output(b.mul(x, x))
    report = estimate_sensitivity(b.graph(), method="grid_oracle",
                                  config=OptimizerConfig(grid_resolution=2))
    assert report.n_evaluations == 2
    assert report.bound == 2.0 and float(report.argmax["x"]) == 1.0


def test_polynomial_derivative_bound_matches_dense_grid():
    # d/dx (x^3 - x) = 3x^2 - 1, sup |3x^2 - 1| on [-2, 2] is 11 at the edges
    b = GraphBuilder()
    x = b.input("x", (), bounds=(-2.0, 2.0))
    b.output(b.sub(b.power(x, 3.0), x))
    g = b.graph()
    report = estimate_sensitivity(g, method="global_opt")
    assert report.bound == pytest.approx(11.0, abs=1e-6)
    xs = np.linspace(-2, 2, 10_000)
    assert report.bound == pytest.approx(np.max(np.abs(3 * xs ** 2 - 1)), abs=1e-3)


def test_optimizer_failure_when_every_point_is_infeasible():
    b = GraphBuilder()
    x = b.input("x", (), bounds=(500.0, 600.0))
    # exp(exp(x)) overflows for every x in the box, and so does its derivative
    b.output(b.exp(b.exp(x)))
    with pytest.raises(OptimizerFailure):
        estimate_sensitivity(b.graph(), method="global_opt")


def test_grid_oracle_failure_when_every_point_is_infeasible():
    # every point of a 2-D grid traps, and each batch keeps going after it
    b = GraphBuilder()
    x = b.input("x", (), bounds=(500.0, 600.0))
    y = b.input("y", (), bounds=(0.0, 1.0))
    b.output(b.mul(b.exp(b.exp(x)), y))
    with pytest.raises(OptimizerFailure, match="grid oracle"):
        estimate_sensitivity(b.graph(), method="grid_oracle",
                             config=OptimizerConfig(grid_resolution=41))


def test_oracle_consistency_on_random_small_graphs(rng):
    agreements = 0
    for i in range(8):
        g = random_graph(rng, scalars_only=True, n_leaves=1 + i % 2,
                         depth=4, smooth_only=True)
        cfg = OptimizerConfig(grid_resolution=201)
        go = estimate_sensitivity(g, wrt=list(g.leaves()), method="global_opt",
                                  config=cfg)
        oracle = estimate_sensitivity(g, wrt=list(g.leaves()),
                                      method="grid_oracle", config=cfg)
        assert abs(go.bound - oracle.bound) <= 0.05 * max(oracle.bound, 1e-9)
        agreements += 1
    assert agreements == 8


def test_bounds_override_widens_domain():
    from dpgraph import BoundsSpec

    g = _square()
    wider = BoundsSpec()
    wider.set(g.find("x"), 0.0, 2.0)
    report = estimate_sensitivity(g, bounds=wider, method="global_opt")
    assert report.bound == pytest.approx(4.0, abs=1e-6)
    ibp = estimate_sensitivity(g, bounds=wider, method="ibp")
    assert ibp.bound == pytest.approx(4.0, abs=1e-9)


def test_monotone_in_domain():
    bounds_chain = [(0.0, 0.5), (0.0, 1.0), (-1.0, 2.0)]
    prev = 0.0
    for lo, hi in bounds_chain:
        b = GraphBuilder()
        x = b.input("x", (), bounds=(lo, hi))
        b.output(b.mul(x, x))
        report = estimate_sensitivity(b.graph(), method="global_opt")
        assert report.bound >= prev - 1e-12
        prev = report.bound


def test_definition_coherence(rng):
    # |q(a) - q(b)| <= K |a - b| for in-box segments when K covers the box
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=(0.0, 1.0))
    h = b.sigmoid(b.matmul(b.constant([[1.0, -2.0], [0.5, 1.5]]), x))
    b.output(b.reduce_mean(b.mul(h, h), axis=None))
    g = b.graph()
    bound = estimate_sensitivity(g, method="global_opt").bound
    program = runtime.compile(g)
    for _ in range(100):
        a = rng.uniform(0, 1, (2, 1))
        c = rng.uniform(0, 1, (2, 1))
        (qa,) = runtime.execute(program, {"x": a})
        (qc,) = runtime.execute(program, {"x": c})
        lhs = np.linalg.norm(qa - qc)
        assert lhs <= bound * np.linalg.norm(a - c) + 1e-9


def test_bound_covers_every_evaluated_point():
    seen = []

    def f(v):
        values = np.sin(3 * v[:, 0]) * np.cos(2 * v[:, 1]) + 0.1 * v[:, 0]
        seen.extend(values)
        return values

    res = global_maximize(f, (np.array([-2.0, -2.0]), np.array([2.0, 2.0])))
    assert res.value == pytest.approx(max(seen))
    assert all(res.value >= v for v in seen)
    assert res.n_evaluations == len(seen)


def _narrow_mlp():
    # widths 2,2,2,1 with a scalar feature and scalar final bias
    b = GraphBuilder()
    x = b.input("x", (1, 1), bounds=(0.0, 1.0))
    t = b.input("t", (1, 1), bounds=(0.0, 1.0))
    h, fan_in = x, 1
    for i, width in enumerate([2, 2, 2, 1], start=1):
        w = b.parameter(f"w{i}", (width, fan_in), bounds=(0.0, 1.0))
        bias = b.parameter(f"b{i}", (width, 1), bounds=(0.0, 1.0))
        h = b.sigmoid(b.add(b.matmul(w, h), bias))
        fan_in = width
    b.output(b.binary_cross_entropy(h, t))
    return b.graph()


def test_reduced_mlp_instance_matches_grid_oracle(rng):
    g = _narrow_mlp()
    # keep x and the final bias free; pin every other tensor at a bound corner
    freeze = {}
    for h in g.leaves():
        node = g.nodes[h]
        if node.name in ("x", "b4"):
            continue
        lo, hi = g.bounds.get(h).broadcast_to(node.shape)
        corners = rng.integers(0, 2, node.shape.dims)
        freeze[node.name] = np.where(corners == 0, lo, hi)
    cfg = OptimizerConfig(freeze=freeze, grid_resolution=21)
    wrt = [g.find("x")]
    go = estimate_sensitivity(g, wrt=wrt, method="global_opt", config=cfg)
    oracle = estimate_sensitivity(g, wrt=wrt, method="grid_oracle", config=cfg)
    assert abs(go.bound - oracle.bound) <= 0.05 * max(oracle.bound, 1e-12)
    assert go.bound >= oracle.bound - 1e-12


def test_ibp_dominates_global_opt(rng):
    for _ in range(6):
        g = random_graph(rng, scalars_only=True, n_leaves=2, depth=4)
        wrt = list(g.leaves())
        upper = estimate_sensitivity(g, wrt=wrt, method="ibp").bound
        lower = estimate_sensitivity(g, wrt=wrt, method="global_opt").bound
        assert upper >= lower - 1e-9


# -- gradient of the objective ------------------------------------------------

def _sum_sigmoid(n):
    b = GraphBuilder()
    x = b.input("x", (n, 1), bounds=(-1.0, 1.0))
    b.output(b.reduce_sum(b.sigmoid(x), axis=None))
    return b.graph()


def _assert_matches_central_differences(obj, v, g, step=1e-6):
    fd = np.empty_like(v)
    for i in range(v.size):
        e = np.zeros_like(v)
        e[i] = step
        fd[i] = (obj(v + e) - obj(v - e)) / (2 * step)
    np.testing.assert_allclose(g, fd, rtol=0, atol=1e-7 * np.max(np.abs(fd)))


@pytest.mark.parametrize("graph", [mlp_classifier(2), _sum_sigmoid(64)],
                         ids=["mlp2", "sumsig64"])
def test_gradient_matches_central_differences(graph):
    obj = _JacobianObjective(graph, [graph.find("x")], OptimizerConfig())
    rng = np.random.default_rng(5)
    for _ in range(3):
        v = rng.uniform(obj.lo, obj.hi)
        obj(v)
        _assert_matches_central_differences(obj, v, obj.gradient(v))


def test_gradient_reuses_the_evaluated_jacobian(monkeypatch):
    g = mlp_classifier(2)
    obj = _JacobianObjective(g, [g.find("x")], OptimizerConfig())
    obj(np.zeros(obj.dim))
    obj.gradient(np.zeros(obj.dim))  # builds the vjp program
    programs = []
    execute = runtime.execute
    monkeypatch.setattr(runtime, "execute", lambda p, inputs, **kwargs:
                        programs.append(p) or execute(p, inputs, **kwargs))
    rng = np.random.default_rng(8)
    stack = rng.uniform(obj.lo, obj.hi, (5, obj.dim))
    obj(stack)
    assert programs == [obj.program]
    at_stack = obj.gradient(stack[[3, 1]])
    assert programs == [obj.program, obj._grad_program]

    # the singular vectors of a point have the same bits in any stack
    fresh = _JacobianObjective(g, [g.find("x")], OptimizerConfig())
    fresh(stack[[3, 1]])
    np.testing.assert_array_equal(at_stack, fresh.gradient(stack[[3, 1]]))
    for v, grad in zip(stack[[3, 1]], at_stack):
        _assert_matches_central_differences(obj, v, grad)

    # the vectors are keyed by value, not by the array the caller passed
    other = rng.uniform(obj.lo, obj.hi, (2, obj.dim))
    obj(other)
    evaluated = other.copy()
    other[:] = rng.uniform(obj.lo, obj.hi, other.shape)
    _assert_matches_central_differences(obj, evaluated[0], obj.gradient(evaluated[0]))


@pytest.mark.parametrize("graph", [_sum_sigmoid(64), mean_query(1000),
                                   mlp_classifier(8)],
                         ids=["sumsig64", "mean1000", "mlp8"])
def test_gradient_makes_no_objective_evaluations(graph, monkeypatch):
    obj = _JacobianObjective(graph, [graph.find("x")], OptimizerConfig())
    v = np.random.default_rng(6).uniform(obj.lo, obj.hi)
    obj(v)
    calls = []
    objective = _JacobianObjective.__call__
    monkeypatch.setattr(_JacobianObjective, "__call__",
                        lambda self, v: calls.append(1) or objective(self, v))
    g = obj.gradient(v)
    assert calls == []
    assert g.shape == v.shape and np.all(np.isfinite(g))


@pytest.mark.parametrize("graph,sup,ibp_bound", [
    (mean_query(10_000), 1.0 / np.sqrt(10_000), 1.0 / np.sqrt(10_000)),
    # sigmoid' peaks at 1/4 at 0; its interval over [-1, 1] reaches
    # sigmoid(1)^2 because s and 1 - s are bounded independently
    (_sum_sigmoid(10_000), 0.25 * np.sqrt(10_000), expit(1.0) ** 2 * np.sqrt(10_000)),
], ids=["mean1e4", "sumsig1e4"])
def test_elementwise_queries_at_ten_thousand(graph, sup, ibp_bound):
    go = estimate_sensitivity(graph, method="global_opt")
    assert go.bound == pytest.approx(sup, rel=1e-12)
    ibp = estimate_sensitivity(graph, method="ibp")
    assert ibp.bound == pytest.approx(ibp_bound, rel=1e-12)


# -- stacked evaluation ---------------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 5), (3, 4), (6, 1), (90, 80)],
                         ids=["row", "matrix", "column", "both-sides-large"])
def test_stacked_sigma_equals_spectral_norm(shape, rng):
    stack = rng.standard_normal((7,) + shape)
    stack[3, 0, 0] = np.nan
    sigmas, us, ws = spectral_norms_with_vectors(stack)
    assert sigmas.shape == (7,) and sigmas[3] == -np.inf
    assert us.shape == (7, shape[0]) and ws.shape == (7, shape[1])
    assert not us[3].any() and not ws[3].any()
    for i in (0, 1, 2, 4, 5, 6):
        sigma, u, w = spectral_norm_with_vectors(stack[i])
        assert sigmas[i] == sigma
        np.testing.assert_array_equal(us[i], u)
        np.testing.assert_array_equal(ws[i], w)


def _x_log_x():
    # d/dx x log x = log x + 1 runs Log, which traps for x <= 0
    b = GraphBuilder()
    x = b.input("x", (), bounds=(-1.0, 2.0))
    b.output(b.mul(x, b.log(x)))
    return b.graph()


def test_out_of_domain_point_is_infeasible_alone():
    g = _x_log_x()
    obj = _JacobianObjective(g, [g.find("x")], OptimizerConfig())
    stack = np.array([[0.5], [1.5], [-0.5], [2.0], [0.0], [1.0]])
    values = obj(stack)
    assert values[2] == values[4] == -np.inf
    np.testing.assert_array_equal(values, [obj(v) for v in stack])
    inside = [0, 1, 3, 5]
    np.testing.assert_allclose(values[inside], np.abs(np.log(stack[inside, 0]) + 1),
                               rtol=1e-12)


@pytest.mark.parametrize("budget", [None, 5], ids=["one-chunk", "chunks-of-5"])
def test_trapping_points_are_isolated_by_halving(budget, monkeypatch):
    # every other point leaves the domain of Log; finding the first trapping
    # point and resuming after it ran 32,957 point evaluations on this stack
    g = _x_log_x()
    obj = _JacobianObjective(g, [g.find("x")], OptimizerConfig())
    if budget is not None:
        monkeypatch.setattr(runtime, "BATCH_BYTES", budget * obj.program.point_bytes)
    (slot,) = [slot for _, members in obj.program.leaf_groups
               for name, *_, slot in members if name == "x"]
    evaluated = []
    run = runtime._run

    def counting_run(program, regs):
        evaluated.append(np.size(regs[slot]))
        run(program, regs)

    monkeypatch.setattr(runtime, "_run", counting_run)
    stack = np.where(np.arange(256) % 2 == 0, 0.5, -0.5)[:, None]
    values = obj(stack)
    assert sum(evaluated) <= 256 * (1 + 8)
    np.testing.assert_array_equal(np.flatnonzero(values == -np.inf),
                                  np.arange(1, 256, 2))
    assert values[0::2].tobytes() == np.full(128, obj(np.array([0.5]))).tobytes()


@pytest.mark.parametrize("budget", [None, 5], ids=["one-chunk", "chunks-of-5"])
@pytest.mark.parametrize("graph", ["affine", "random"])
def test_grid_oracle_matches_a_per_point_loop(graph, budget, monkeypatch):
    if graph == "affine":  # every value ties, so the first grid point wins
        g = _affine()
    else:
        g = random_graph(np.random.default_rng(17), scalars_only=True, n_leaves=2,
                         depth=4, smooth_only=True)
    wrt = list(g.leaves())
    cfg = OptimizerConfig(grid_resolution=31)
    obj = _JacobianObjective(g, wrt, cfg)
    if budget is not None:
        monkeypatch.setattr(runtime, "BATCH_BYTES", budget * obj.program.point_bytes)
    report = estimate_sensitivity(g, wrt=wrt, method="grid_oracle", config=cfg)
    best, best_point = -np.inf, None
    axes = [np.linspace(lo, hi, 31) for lo, hi in zip(obj.lo, obj.hi)]
    for point in itertools.product(*axes):
        v = np.asarray(point)
        value = obj(v)
        if value > best:
            best, best_point = value, v
    assert report.bound == best
    for name, value in obj.unpack(best_point).items():
        assert np.array_equal(report.argmax[name], value)


def test_no_gradient_runs_the_jacobian_during_global_opt(monkeypatch):
    # every ascent point, a phase-B start found in phase A too, was evaluated
    # before its gradient, so each gradient runs only the vector-Jacobian product
    g = mlp_classifier(2)
    jacobian_programs, in_gradient, run_in_gradient = [], [False], []
    gradient, execute = _JacobianObjective.gradient, runtime.execute

    def marked(self, v):
        jacobian_programs.append(self.program)
        in_gradient[0] = True
        try:
            return gradient(self, v)
        finally:
            in_gradient[0] = False

    monkeypatch.setattr(_JacobianObjective, "gradient", marked)
    monkeypatch.setattr(runtime, "execute", lambda p, inputs, **kwargs:
                        (in_gradient[0] and run_in_gradient.append(p))
                        or execute(p, inputs, **kwargs))
    estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    assert jacobian_programs and run_in_gradient
    assert all(p is not jacobian_programs[0] for p in run_in_gradient)


def test_no_point_is_evaluated_twice(monkeypatch):
    g = mlp_classifier(2)
    seen = []
    objective = _JacobianObjective.__call__
    monkeypatch.setattr(_JacobianObjective, "__call__",
                        lambda self, v: seen.extend(p.tobytes() for p in np.atleast_2d(v))
                        or objective(self, v))
    report = estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    assert len(seen) == len(set(seen)) == report.n_evaluations


def test_phases_share_one_sobol_draw():
    lo = np.array([-1.0, 0.0, 2.0, -3.0, 0.5, 1.0, -2.0])
    hi = np.array([1.0, 3.0, 2.5, -1.0, 0.75, 4.0, 2.0])
    assert 2 ** lo.size > lipschitz.MAX_CORNER_SAMPLES  # corners drawn at random
    cfg = OptimizerConfig(n_samples=16)
    phase_b, in_a = _sample_points(lo, hi, cfg)
    phase_a = phase_b[in_a]

    def rows(points):
        return {p.tobytes() for p in points}

    sobol = qmc.Sobol(lo.size, scramble=True, seed=cfg.seed).random(cfg.n_samples)
    assert rows(lo + sobol * (hi - lo)) <= rows(phase_a) < rows(phase_b)
    assert len(phase_b) - len(phase_a) == cfg.n_samples


def test_gradient_fallback_is_logged(monkeypatch, caplog):
    g = mlp_classifier(2)
    obj = _JacobianObjective(g, [g.find("x")], OptimizerConfig())
    v = np.full(obj.dim, 0.5)
    obj(v)
    want = obj.gradient(v)
    execute = runtime.execute

    def failing_vjp(program, inputs, **kwargs):
        if program is obj._grad_program:
            raise NumericalError("overflow in the test")
        return execute(program, inputs, **kwargs)

    monkeypatch.setattr(runtime, "execute", failing_vjp)
    with caplog.at_level(logging.WARNING, logger="dpgraph"):
        got = obj.gradient(v)
    assert "finite differences" in caplog.text
    assert "overflow in the test" in caplog.text
    np.testing.assert_allclose(got, want, rtol=1e-5)


def test_a_point_whose_gradient_traps_falls_back_alone(monkeypatch, caplog):
    g = _x_log_x()
    obj = _JacobianObjective(g, [g.find("x")], OptimizerConfig())
    stack = np.array([[0.5], [1.5], [2.0]])
    obj(stack)
    alone = np.array([obj.gradient(p) for p in stack[[0, 2]]])
    execute = runtime.execute

    def vjp_traps_at_one_and_a_half(program, inputs, **kwargs):
        if program is obj._grad_program and np.any(np.ravel(inputs["x"]) == 1.5):
            raise NumericalError("overflow in the test")
        return execute(program, inputs, **kwargs)

    monkeypatch.setattr(runtime, "execute", vjp_traps_at_one_and_a_half)
    with caplog.at_level(logging.WARNING, logger="dpgraph"):
        grads = obj.gradient(stack)
    assert grads[[0, 2]].tobytes() == alone.tobytes()
    assert grads[1, 0] == pytest.approx(1 / 1.5, rel=1e-5)  # |log x + 1|' by differences
    assert len(caplog.records) == 1
    assert "overflow in the test" in caplog.text


# -- lockstep ascent ------------------------------------------------------------

def _recorder(objective, gradient, lo, hi):
    """A recorder and the gradient that global_maximize ascends with."""
    f = _Recorder(objective)
    return f, gradient or (lambda xs: _fd_gradient(f, xs, lo, hi))


def _ascend_one_point(f, gradient, x0, lo, hi):
    """Projected gradient ascent from one start, one point per evaluation:
    the reference each start of the lockstep ascent must follow."""
    x = np.clip(x0, lo, hi)
    fx = f(x[None, :])[0]
    if not np.isfinite(fx):
        return x, fx
    step = 0.25 * float(np.max(hi - lo)) or 1.0
    flat_streak = 0
    for _ in range(lipschitz.MAX_REFINE_ITERS):
        g = gradient(x[None, :])[0]
        norm_g = np.linalg.norm(g)
        if norm_g == 0.0 or not np.isfinite(norm_g):
            break
        direction = g / norm_g
        improved = False
        s = step
        for _ in range(30):
            cand = np.clip(x + s * direction, lo, hi)
            if np.array_equal(cand, x):
                s *= 0.5
                continue
            fc = f(cand[None, :])[0]
            if fc > fx:
                gain = fc - fx
                x, fx = cand, fc
                step = min(s * 2.0, float(np.max(hi - lo)))
                improved = True
                flat_streak = (flat_streak + 1
                               if gain <= lipschitz.VALUE_TOL * (1.0 + abs(fx)) else 0)
                break
            s *= 0.5
        if not improved or flat_streak >= 2:
            break
    return x, fx


def _assert_lockstep_equals_one_start_at_a_time(objective, gradient, starts, lo, hi):
    together, together_gradient = _recorder(objective, gradient, lo, hi)
    x, fx = _ascend(together, together_gradient, starts, lo, hi)
    visited = set()
    for i, start in enumerate(starts):
        alone, alone_gradient = _recorder(objective, gradient, lo, hi)
        xi, fxi = _ascend(alone, alone_gradient, start[None, :], lo, hi)
        assert xi[0].tobytes() == x[i].tobytes()
        assert fxi[0].tobytes() == fx[i].tobytes()
        visited |= set(alone.values)
        reference, reference_gradient = _recorder(objective, gradient, lo, hi)
        xr, fxr = _ascend_one_point(reference, reference_gradient, start, lo, hi)
        assert xr.tobytes() == x[i].tobytes() and fxr == fx[i]
        assert set(reference.values) == set(alone.values)
    assert set(together.values) == visited
    return x, fx


def test_lockstep_ascent_follows_each_start_on_mlp3(monkeypatch):
    g = mlp_classifier(3)
    starts = []
    ascend = lipschitz._ascend
    monkeypatch.setattr(lipschitz, "_ascend", lambda f, gradient, s, *args:
                        starts.append(np.array(s)) or ascend(f, gradient, s, *args))
    estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    monkeypatch.undo()
    assert len(starts) == 1 and len(starts[0]) > 1  # one stack for both phases
    obj = _JacobianObjective(g, [g.find("x")], OptimizerConfig())
    _assert_lockstep_equals_one_start_at_a_time(obj, obj.gradient, starts[0],
                                                obj.lo, obj.hi)


def _terrain(v):
    # infeasible for x < -0.8, flat for y < -0.7, rising to the corner (1, 1)
    x, y = v[:, 0], v[:, 1]
    hills = x + y + 0.5 * np.sin(3 * x) * np.cos(2 * y)
    return np.where(x < -0.8, np.nan, np.where(y < -0.7, 0.0, hills))


def test_lockstep_ascent_follows_each_start_with_finite_differences():
    lo, hi = -np.ones(2), np.ones(2)
    starts = np.array([
        [0.1, 0.2], [-0.5, 0.5], [0.3, -0.3], [0.1, 0.2],  # a start twice
        [-0.9, 0.0],   # infeasible
        [0.0, -0.9],   # on the plateau: zero gradient
        [1.0, 1.0],    # a corner whose gradient points out of the box
        [0.6, -0.6],
    ])
    x, fx = _assert_lockstep_equals_one_start_at_a_time(_terrain, None, starts, lo, hi)
    assert fx[4] == -np.inf and np.array_equal(x[4], starts[4])
    assert np.array_equal(x[5], starts[5]) and np.array_equal(x[6], starts[6])
    assert fx[0] > _terrain(starts[:1])[0]


# 2^40, where a float's spacing is 2^-12: a step of 2^-13 rounds back
_FAR = 2.0 ** 40


def _downhill_below_three_quarters(xs):
    """A gradient of v - 2^40 that points down the slope below 2^40 + 0.75:
    every move it proposes there loses."""
    return np.where(xs < _FAR + 0.75, -1.0, 1.0)


def test_lockstep_ascent_follows_starts_that_cannot_move():
    lo, hi = np.array([_FAR]), np.array([_FAR + 1.0])
    starts = np.array([
        [_FAR],          # a corner whose gradient points out of the box
        [_FAR + 0.5],    # halves on losing moves until x + s d rounds to x
        [_FAR + 0.8],    # climbs to the far corner, then points out of it
    ])
    def objective(v):
        return v[:, 0] - _FAR

    x, fx = _assert_lockstep_equals_one_start_at_a_time(
        objective, _downhill_below_three_quarters, starts, lo, hi)
    assert x.tolist() == [[_FAR], [_FAR + 0.5], [_FAR + 1.0]]
    assert fx.tolist() == [0.0, 0.5, 1.0]
    # a start that cannot move stops climbing: only the third one, after its
    # climb, is asked for a second gradient
    asked = []
    _ascend(_Recorder(objective),
            lambda xs: asked.append(len(xs)) or _downhill_below_three_quarters(xs),
            starts, lo, hi)
    assert asked == [3, 1]


def _wave(v):
    return np.sin(3 * v[:, 0]) + v[:, 1] ** 2


def _ripples(v):
    return (np.sin(5 * v) * np.cos(3 * v[:, ::-1])).sum(axis=1)


# value, certificate and n_evaluations of global_maximize by central
# differences, as measured before both phases ascended in one lockstep
@pytest.mark.parametrize("objective,lo,hi,seed,value,certificate,n_evaluations", [
    (_wave, [-2.0, -1.0], [2.0, 1.0], 0, "0x1.fffffffffff24p+0", False, 938),
    (_wave, [-2.0, -1.0], [2.0, 1.0], 7, "0x1.fffffffffff9ap+0", True, 1763),
    (_terrain, [-1.0, -1.0], [1.0, 1.0], 0, "0x1.f87ba53250e77p+0", True, 355),
    (_ripples, [-1.0] * 5, [2.0] * 5, 7, "0x1.124319679e691p+2", False, 11883),
], ids=["wave-seed0", "wave-seed7", "terrain-seed0", "ripples-seed7"])
def test_finite_difference_maximize_is_pinned(objective, lo, hi, seed, value,
                                              certificate, n_evaluations):
    result = global_maximize(objective, (np.array(lo), np.array(hi)),
                             OptimizerConfig(seed=seed))
    assert (result.value.hex(), result.certificate, result.n_evaluations) == (
        value, certificate, n_evaluations)


def test_ascent_keys_a_start_that_the_clip_moved_by_its_new_bytes():
    # np.clip turns -0.0 into 0.0 on the box [-0.0, 0.0], so the start's own
    # bytes would name a point the objective never saw
    evaluated = []

    def objective(v):
        evaluated.extend(v.tolist())
        return v[:, 1]

    lo, hi = np.array([-0.0, 0.0]), np.array([0.0, 1.0])
    starts = np.array([[-0.0, 0.5], [0.0, 0.25]])
    f, gradient = _recorder(objective, None, lo, hi)
    _ascend(f, gradient, starts, lo, hi)
    assert set(f.values) == {np.array(p).tobytes() for p in evaluated}


def test_global_opt_takes_one_gradient_call_per_iteration(monkeypatch):
    g = mlp_classifier(3)
    calls = []
    gradient = _JacobianObjective.gradient
    monkeypatch.setattr(_JacobianObjective, "gradient",
                        lambda self, v: calls.append(len(v)) or gradient(self, v))
    estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    assert 0 < len(calls) <= lipschitz.MAX_REFINE_ITERS
    assert max(calls) > 1


def test_global_opt_path_on_mlp2_is_pinned(monkeypatch):
    # the ascent's path, not only its result: objective and gradient calls
    # and distinct points evaluated
    calls = {"objective": 0, "gradient": 0}
    objective, gradient = _JacobianObjective.__call__, _JacobianObjective.gradient

    def counted(name, fn):
        return lambda self, v: calls.update({name: calls[name] + 1}) or fn(self, v)

    monkeypatch.setattr(_JacobianObjective, "__call__", counted("objective", objective))
    monkeypatch.setattr(_JacobianObjective, "gradient", counted("gradient", gradient))
    g = mlp_classifier(2)
    report = estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    assert (calls["objective"], calls["gradient"], report.n_evaluations) == (30, 30, 502)


def _fd_one_point_at_a_time(f, x, lo, hi, rel_step=1e-6):
    """Central differences at one point, one objective call per row."""
    g = np.zeros_like(x)
    span = np.maximum(hi - lo, 1.0)
    for i in range(x.size):
        h = rel_step * span[i]
        xp, xm = x.copy(), x.copy()
        xp[i] = min(x[i] + h, hi[i])
        xm[i] = max(x[i] - h, lo[i])
        dx = xp[i] - xm[i]
        if dx == 0.0:
            continue
        fp, fm = f(xp[None, :])[0], f(xm[None, :])[0]
        if np.isfinite(fp) and np.isfinite(fm):
            g[i] = (fp - fm) / dx
    return g


@pytest.mark.parametrize("pairs_per_call", [None, 5], ids=["one-call", "chunks-of-5"])
def test_stacked_finite_differences_equal_a_per_point_loop(pairs_per_call, monkeypatch):
    if pairs_per_call is not None:  # 16 bytes per coordinate of a +- pair
        monkeypatch.setattr(runtime, "BATCH_BYTES", pairs_per_call * 16 * 4)

    def objective(v):
        calls.append(len(v))
        return _terrain(v[:, :2]) + v[:, 2] ** 3

    lo, hi = np.array([-1.0, -1.0, 0.5, 2.0]), np.array([1.0, 1.0, 3.0, 2.0])
    points = np.array([[0.1, 0.2, 1.0, 2.0],
                       [1.0, -0.2, 0.5, 2.0],    # on two faces
                       [-0.8, 0.3, 2.0, 2.0],    # one side infeasible
                       [0.4, -0.7, 3.0, 2.0]])   # the plateau's edge
    calls = []
    stacked = _Recorder(objective)
    got = _fd_gradient(stacked, points, lo, hi)
    assert len(calls) == (1 if pairs_per_call is None else 3)  # 12 pairs
    per_point = _Recorder(objective)
    want = np.array([_fd_one_point_at_a_time(per_point, p, lo, hi) for p in points])
    assert got.tobytes() == want.tobytes()
    assert list(stacked.values) == list(per_point.values)
    assert got[2, 0] == 0.0 and got[0, 0] != 0.0
    assert not got[:, 3].any()  # the zero-width coordinate is skipped


# -- sampling set-up: nearest neighbours and row sort ----------------------------

def _exact_squared_distances(z):
    """Squared distances by sums of squared differences, +inf to a row itself."""
    sq = np.array([((z - row) ** 2).sum(axis=1) for row in z])
    np.fill_diagonal(sq, np.inf)
    return sq


def _tree_neighbours(z, k):
    return [set(row[1:]) for row in cKDTree(z).query(z, k=k + 1)[1].tolist()]


@pytest.mark.parametrize("blocks", ["one-block", "blocks-of-40-rows"])
@pytest.mark.parametrize("points", ["random", "sobol"])
@pytest.mark.parametrize("d", [1, 2, 28, 1000])
def test_nearest_matches_a_kd_tree(d, points, blocks, monkeypatch):
    rng = np.random.default_rng(d)
    if points == "random":
        z = rng.uniform(size=(150, d))
    else:
        z = qmc.Sobol(d, scramble=True, seed=d).random(128)
    if blocks != "one-block":  # 8 bytes per distance
        monkeypatch.setattr(runtime, "BATCH_BYTES", 8 * len(z) * 40)
    subset = rng.uniform(size=len(z)) < 0.6
    k_all, k_subset = min(2 * d + 2, 16), min(2 * d + 2, 16) - 1
    for sq, k in [(_exact_squared_distances(z), k_all),
                  (_exact_squared_distances(z[subset]), k_subset)]:
        ranked = np.sort(sq, axis=1)  # no ties at the k-th neighbour
        assert np.all(ranked[:, k] - ranked[:, k - 1] > 1e-9 * ranked[:, k])
    near_all, near_subset = lipschitz._nearest(z, k_all, subset, k_subset)
    assert [set(row) for row in near_all.tolist()] == _tree_neighbours(z, k_all)
    assert ([set(row) for row in near_subset.tolist()]
            == _tree_neighbours(z[subset], k_subset))


@pytest.mark.parametrize("d", [2, 3, 6, 28, 1000])
def test_nearest_among_tied_corners_is_no_farther_than_the_kth(d):
    if 2 ** d <= lipschitz.MAX_CORNER_SAMPLES:
        z = np.array(list(itertools.product([0.0, 1.0], repeat=d)))
    else:
        z = np.unique(np.random.default_rng(d).integers(0, 2, (64, d)), axis=0) * 1.0
    subset = np.arange(len(z)) % 3 != 0
    k = min(2 * d + 2, 16, int(subset.sum()) - 1)
    for rows, near in zip([z, z[subset]], lipschitz._nearest(z, k, subset, k)):
        sq = _exact_squared_distances(rows)
        kth = np.sort(sq, axis=1)[:, k - 1]
        assert near.shape == (len(rows), k)
        for i, row in enumerate(near):
            assert len(set(row)) == k and i not in row
            assert sq[i, row].max() <= kth[i]


@pytest.mark.parametrize("d", [1, 2, 3, 28, 1000])
def test_unique_rows_match_numpy_unique(d):
    rng = np.random.default_rng(d)
    values = np.array([-1.5, -0.0, 0.25, 3.0, -2.0, 1e-300, -1e-300, 5e-324, -np.inf])
    rows = np.concatenate([rng.choice(values, size=(40, d)),  # shared leading columns
                           rng.standard_normal((60, d))])
    rows[rng.uniform(size=rows.shape) < 0.1] = -0.0
    if d > 1:  # zeros of both signs, equal in the first column
        rows = np.concatenate([rows, [[-0.0] + [2.0] * (d - 1), [0.0] + [1.0] * (d - 1)]])
    rows = np.concatenate([rows, rows[:9], rows[-5:]])  # repeated rows
    rng.shuffle(rows)
    first = lipschitz._unique_rows(rows)
    assert rows[first].tobytes() == np.unique(rows, axis=0).tobytes()
    assert len(first) < len(rows)
    for i in first:  # the first copy of each row
        assert not (rows[:i] == rows[i]).all(axis=1).any()


def test_unique_rows_keep_the_first_of_rows_equal_but_for_a_zero_sign():
    rows = np.array([[1.0, -0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, -0.0]])
    assert lipschitz._unique_rows(rows).tolist() == [2, 0]


# mean_query(1000) evaluates 321 distinct points and mlp_classifier(2) 502
@pytest.mark.parametrize("graph,points", [(mean_query(1000), 321), (mlp_classifier(2), 502)],
                         ids=["mean1000", "mlp2"])
def test_global_opt_digests_each_point_once(graph, points, monkeypatch):
    # each point's Jacobian is built and decomposed once: the gradient finds
    # the singular vectors of an evaluated point by the point's bytes
    rows, seen = [], []
    triples = _JacobianObjective._triples
    monkeypatch.setattr(_JacobianObjective, "_triples",
                        lambda self, stack: rows.extend(p.tobytes() for p in stack)
                        or triples(self, stack))
    objective = _JacobianObjective.__call__
    monkeypatch.setattr(_JacobianObjective, "__call__",
                        lambda self, v: seen.extend(p.tobytes() for p in np.atleast_2d(v))
                        or objective(self, v))
    report = estimate_sensitivity(graph, wrt=[graph.find("x")], method="global_opt")
    assert len(rows) == len(set(rows)) == report.n_evaluations == points
    assert len(seen) == len(set(seen)) == points


@pytest.mark.parametrize("graph", [mlp_classifier(2), _x_log_x()], ids=["mlp2", "xlogx"])
def test_global_opt_asks_gradients_only_at_evaluated_points(graph, monkeypatch):
    asked = []
    gradient = _JacobianObjective.gradient

    def checked(self, v):
        stack = np.atleast_2d(v)
        assert all(p.tobytes() in self._vectors for p in stack)
        asked.append(len(stack))
        return gradient(self, v)

    monkeypatch.setattr(_JacobianObjective, "gradient", checked)
    estimate_sensitivity(graph, wrt=[graph.find("x")], method="global_opt")
    assert asked


def _clipped_mean(n):
    b = GraphBuilder()
    x = b.input("x", (n, 1), bounds=(-2.0, 2.0))
    b.output(b.reduce_mean(b.clip(x, -1.0, 1.0), axis=None))
    return b.graph()


# bound, certified and n_evaluations of global_opt wrt x at the default
# config, as measured before the kd-tree and np.unique were replaced
@pytest.mark.parametrize("graph,bound,certified,n_evaluations", [
    (mean_query(1000), "0x1.030dc4ea03a73p-5", True, 321),
    (mean_query(100), "0x1.999999999999ap-4", True, 321),
    (_sum_sigmoid(64), "0x1.0000000000001p+1", True, 321),
    (_clipped_mean(100), "0x1.999999999999ap-4", True, 321),
    (mlp_classifier(2), "0x1.4464e6cd0e6c7p-4", True, 502),
    (mlp_classifier(3), "0x1.41c020803624bp-3", True, 2042),
    (mlp_classifier(4), "0x1.f7d8a3fd6f7b1p-3", False, 2621),
    (mlp_classifier(8), "0x1.6672a8c40b5c4p-1", True, 2121),
], ids=["mean1000", "mean100", "sumsig64", "clipmean100", "mlp2", "mlp3", "mlp4", "mlp8"])
def test_global_opt_reports_are_pinned(graph, bound, certified, n_evaluations):
    report = estimate_sensitivity(graph, wrt=[graph.find("x")], method="global_opt")
    assert (report.bound.hex(), report.certified, report.n_evaluations) == (
        bound, certified, n_evaluations)


def test_global_opt_runs_on_one_core():
    # a BLAS product large enough to run on several threads leaves the idle
    # ones spinning, and process_time counts their spin; other tenants' load
    # can only raise the wall time
    g = mean_query(1000)
    cpu, wall = time.process_time(), time.perf_counter()
    estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    assert cpu <= 1.25 * wall + 0.05
