import itertools
import logging
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    ValidationFailed,
)
from dpgraph.lipschitz import (
    OptimizerConfig,
    _JacobianObjective,
    _Recorder,
    _ascend,
    _fd_gradient,
    _row_norms,
    _sample_points,
    estimate_sensitivity,
    global_maximize,
    spectral_norm,
    spectral_norm_with_vectors,
    spectral_norms_with_vectors,
)
from dpgraph import _sobol, autodiff, lipschitz, runtime
from dpgraph.graph import freeze, optimize
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


def _ulps_from_exact_norm(sigma: float, v) -> float:
    """(sigma - ||v||) / ulp(sigma), with ||v|| exact: the sum of squares in
    rationals, and its square root from an integer square root carried 1,200
    bits past the binary point, far below an ulp at any float64 scale."""
    s = sum(Fraction(float(x)) ** 2 for x in np.ravel(v))
    bits = 1200
    root = Fraction(math.isqrt(s.numerator * s.denominator << 2 * bits),
                    s.denominator << bits)
    return float((Fraction(sigma) - root) / Fraction(float(np.spacing(sigma))))


def test_spectral_norm_vector_is_euclidean(rng):
    v = rng.standard_normal(7)
    assert abs(_ulps_from_exact_norm(spectral_norm(v[None, :]), v)) <= 1
    assert abs(_ulps_from_exact_norm(spectral_norm(v[:, None]), v)) <= 1


# a vector on either side of J, at the lengths of the wrt=x queries and past
# them, against the SVD that every shape took before
@pytest.mark.parametrize("n", [1, 2, 100, 10_000])
@pytest.mark.parametrize("side", ["row", "column"])
def test_vector_triples_match_the_svd(side, n, rng):
    stack = rng.standard_normal((5, 1, n) if side == "row" else (5, n, 1))
    sigmas, us, ws = spectral_norms_with_vectors(stack)
    u_svd, s_svd, vt_svd = np.linalg.svd(stack, full_matrices=False)
    for i in range(len(stack)):
        assert abs(sigmas[i] - s_svd[i, 0]) <= 2 * np.spacing(s_svd[i, 0])
        assert abs(ws[i] @ vt_svd[i, 0]) >= 1 - 1e-15
        assert abs(us[i] @ u_svd[i, :, 0]) >= 1 - 1e-15
        # the gradient's cotangent u w^T is J / sigma, one rounding away from
        # it; LAPACK's vectors of a row of 10^4 are up to about 1e-13 off
        cotangent = np.outer(us[i], ws[i])
        np.testing.assert_allclose(
            cotangent, np.outer(u_svd[i, :, 0], vt_svd[i, 0]), rtol=1e-12, atol=0)
        np.testing.assert_allclose(cotangent, stack[i] / sigmas[i], rtol=4e-16, atol=0)
        assert us[i] @ stack[i] @ ws[i] == pytest.approx(sigmas[i], rel=1e-14)


# unscaled, the squares of a row at 1e-300 would underflow to 0 and at 1e300
# overflow to inf; pytest turns a RuntimeWarning into a failure
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("n", [1, 2, 100, 10_000])
def test_vector_norms_are_exact_to_two_ulps_at_any_scale(n, scale, rng):
    rows = rng.standard_normal((4, 1, n)) * scale
    for stack in (rows, rows.transpose(0, 2, 1)):
        sigmas, us, ws = spectral_norms_with_vectors(stack)
        for i, sigma in enumerate(sigmas):
            assert abs(_ulps_from_exact_norm(sigma, stack[i])) <= 2


def test_a_norm_past_the_float_range_is_inf():
    # as the SVD gives it, without an overflow warning
    sigmas, us, ws = spectral_norms_with_vectors(np.full((1, 1, 4), 1e308))
    assert sigmas[0] == np.inf
    np.testing.assert_array_equal(ws[0], 0.5)


def test_global_opt_over_a_gradient_past_the_float_range_warns_of_nothing():
    # exp(x) over [0, 800] overflows: the ascent's gradient norms reach inf,
    # which stops those starts, without an overflow warning
    b = GraphBuilder()
    x = b.input("x", (3,), bounds=(0.0, 800.0))
    b.output(b.reduce_sum(b.exp(x)))
    report = estimate_sensitivity(b.graph(), method="global_opt")
    assert not report.certified


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (1, 1)],
                         ids=["row", "column", "scalar"])
def test_zero_and_nonfinite_vectors(shape):
    stack = np.zeros((3,) + shape)
    stack[1].flat[-1] = np.nan
    stack[2].flat[0] = np.inf
    sigmas, us, ws = spectral_norms_with_vectors(stack)
    u_svd, s_svd, vt_svd = np.linalg.svd(np.zeros(shape))
    # a zero vector gets the unit vectors the SVD gives it: e_1 and [1]
    assert sigmas[0] == s_svd[0] == 0.0
    np.testing.assert_array_equal(us[0], u_svd[:, 0])
    np.testing.assert_array_equal(ws[0], vt_svd[0])
    assert us[0][0] == ws[0][0] == 1.0
    assert list(sigmas[1:]) == [-np.inf, -np.inf]
    assert not us[1:].any() and not ws[1:].any()


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
    report = estimate_sensitivity(freeze(b.graph(), {"w": 2.5}), method="global_opt")
    assert report.bound == pytest.approx(2.5, abs=1e-9)
    assert "w" not in report.argmax  # a Constant, not a coordinate of the box


@pytest.mark.parametrize("method", lipschitz.METHODS)
def test_freeze_names_are_checked_for_every_method(method):
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 1.0))
    w = b.parameter("w", (), bounds=(1.0, 3.0))
    b.output(b.mul(w, b.mul(b.constant(1.0, name="one"), x)))
    g = b.graph()

    def bound(values):
        config = OptimizerConfig(grid_resolution=21)
        return estimate_sensitivity(freeze(g, values), method=method, config=config).bound

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
    config = OptimizerConfig(grid_resolution=5)
    with pytest.raises(InvalidParams, match="'w' expects shape"):
        estimate_sensitivity(freeze(b.graph(), {"w": value}), method=method, config=config)
    frozen = freeze(b.graph(), {"w": np.eye(2)})
    assert estimate_sensitivity(frozen, method=method, config=config).bound \
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
    estimate_sensitivity(freeze(g, {"w1": w1}), wrt=[g.find("x")], method="ibp")
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
    # _square's x * x with x in [0, 2] instead of [0, 1]: a graph's box is the
    # bounds its leaves were built with, so a wider box is another graph
    b = GraphBuilder()
    x = b.input("x", (), bounds=(0.0, 2.0))
    b.output(b.mul(x, x))
    g = b.graph()
    report = estimate_sensitivity(g, method="global_opt")
    assert report.bound == pytest.approx(4.0, abs=1e-6)
    ibp = estimate_sensitivity(g, method="ibp")
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
    # keep the inputs x and t and the final bias free; pin every other
    # parameter inside its box (pins at the box's corners can zero w4, and
    # the bound with it)
    values = {}
    for h in g.parameters:
        node = g.nodes[h]
        if node.name != "b4":
            values[node.name] = rng.uniform(*g.bounds.get(h).broadcast_to(node.shape))
    g = freeze(g, values)
    cfg = OptimizerConfig(grid_resolution=21)
    wrt = [g.find("x")]
    go = estimate_sensitivity(g, wrt=wrt, method="global_opt", config=cfg)
    oracle = estimate_sensitivity(g, wrt=wrt, method="grid_oracle", config=cfg)
    assert oracle.bound > 0.0
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
    obj = _JacobianObjective(graph, [graph.find("x")])
    rng = np.random.default_rng(5)
    for _ in range(3):
        v = rng.uniform(obj.lo, obj.hi)
        obj(v)
        _assert_matches_central_differences(obj, v, obj.gradient(v))


def _interleaved():
    """x and z share bounds and y between them does not, so the leaf groups
    are {x, z} and {y}: a point is x, z, y, not `Graph.leaves` order."""
    b = GraphBuilder()
    x = b.input("x", (2, 1), bounds=(0.0, 1.0))
    y = b.input("y", (3, 1), bounds=(-1.0, 2.0))
    z = b.input("z", (2, 1), bounds=(0.0, 1.0))
    s = b.add(b.reduce_sum(b.mul(b.sigmoid(x), z)), b.reduce_sum(b.mul(y, b.sigmoid(y))))
    b.output(s)
    return b.graph()


def test_a_point_lays_out_the_leaf_groups_end_to_end():
    g = _interleaved()
    obj = _JacobianObjective(g, [g.find(n) for n in "xyz"])
    assert [[m[0] for m in members] for _, members in obj.program.leaf_groups] == [
        ["x", "z"], ["y"]]
    assert obj.dim == 7
    columns = obj.unpack(np.arange(7.0))
    assert [columns[n].ravel().tolist() for n in "xzy"] == [[0, 1], [2, 3], [4, 5, 6]]
    for bound, want in ((obj.lo, {"x": 0.0, "y": -1.0, "z": 0.0}),
                        (obj.hi, {"x": 1.0, "y": 2.0, "z": 1.0})):
        values = obj.unpack(bound)
        assert set(values) == set(want)
        for name, value in values.items():
            assert value.shape == g.nodes[g.find(name)].shape.dims
            assert np.all(value == want[name])
    rng = np.random.default_rng(11)
    stack = rng.uniform(obj.lo, obj.hi, (4, obj.dim))
    sigmas = obj(stack)
    for v, sigma in zip(stack, sigmas):
        (j,) = runtime.execute(obj.program, obj.unpack(v))
        assert sigma == pytest.approx(np.linalg.norm(j, 2), rel=1e-12)
        _assert_matches_central_differences(obj, v, obj.gradient(v))

    report = estimate_sensitivity(g, [g.find(n) for n in "xyz"])
    for name, value in report.argmax.items():
        lo, hi = (0.0, 1.0) if name in "xz" else (-1.0, 2.0)
        assert np.all((lo <= value) & (value <= hi))


def _layout(groups):
    """Each group's bounds as bytes (None for none) and its members without
    their register slots."""
    return [(b if b is None else (b.lo.tobytes(), b.hi.tobytes()),
             [member[:4] for member in members]) for b, members in groups]


@pytest.mark.parametrize("graph,wrt", [(_interleaved(), "xyz"), (mlp_classifier(2), "x")],
                         ids=["interleaved", "mlp2"])
def test_the_gradient_program_groups_are_j_and_the_cotangent(graph, wrt):
    obj = _JacobianObjective(graph, [graph.find(n) for n in wrt])
    groups = _layout(obj._grad_program.leaf_groups)
    assert groups[:-1] == _layout(obj.program.leaf_groups)
    bounds, members = groups[-1]
    assert bounds is None and len(members) == 1
    assert members[0][1] == obj.program.output_dims[0]


def test_gradient_reuses_the_evaluated_jacobian(monkeypatch):
    g = mlp_classifier(2)
    obj = _JacobianObjective(g, [g.find("x")])
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
    fresh = _JacobianObjective(g, [g.find("x")])
    fresh(stack[[3, 1]])
    np.testing.assert_array_equal(at_stack, fresh.gradient(stack[[3, 1]]))
    # and a stack that holds a point never evaluated has its triples found
    # first, to the same bits
    anew = _JacobianObjective(g, [g.find("x")])
    anew(stack[[3]])
    np.testing.assert_array_equal(at_stack, anew.gradient(stack[[3, 1]]))
    np.testing.assert_array_equal(
        at_stack, _JacobianObjective(g, [g.find("x")]).gradient(stack[[3, 1]]))
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
    obj = _JacobianObjective(graph, [graph.find("x")])
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


def test_row_norms_have_the_bits_of_each_row_alone(rng):
    # the ascent's stacked norms against np.linalg.norm of each row: 2,170
    # rows from d = 1 to 4096, scales from 1e-300 to 1e300, zero rows included
    for d in (1, 2, 3, 5, 28, 64, 100, 255, 1024, 4096):
        for scale in (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300):
            g = rng.standard_normal((31, d)) * scale
            g[::7] = 0.0
            with np.errstate(over="ignore"):  # squares past 1e308 are inf
                norms = _row_norms(g)
                alone = [np.linalg.norm(row) for row in g]
            assert norms.shape == (len(g),)
            for norm, want in zip(norms, alone):
                assert norm.tobytes() == want.tobytes()


def _x_log_x():
    # d/dx x log x = log x + 1 runs Log, which traps for x <= 0
    b = GraphBuilder()
    x = b.input("x", (), bounds=(-1.0, 2.0))
    b.output(b.mul(x, b.log(x)))
    return b.graph()


def test_out_of_domain_point_is_infeasible_alone():
    g = _x_log_x()
    obj = _JacobianObjective(g, [g.find("x")])
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
    obj = _JacobianObjective(g, [g.find("x")])
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
    obj = _JacobianObjective(g, wrt)
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
    points, n_a = _sample_points(lo, hi, cfg)
    n = cfg.n_samples

    # qmc.Sobol's unscrambled points XOR the seed's digital shift: phase A
    # starts with the first n of them and phase B adds the other n at the end
    unscrambled = qmc.Sobol(lo.size, scramble=False).random(2 * n)
    shift = np.random.default_rng(cfg.seed).integers(0, 1 << 30, size=lo.size,
                                                     dtype=np.uint32)
    sobol = ((unscrambled * 2.0 ** 30).astype(np.uint32) ^ shift) * 2.0 ** -30
    drawn = lo + sobol * (hi - lo)
    assert points[:n].tobytes() == drawn[:n].tobytes()
    assert points[n_a:].tobytes() == drawn[n:].tobytes()
    assert len(points) - n_a == n


@given(d=st.sampled_from([*range(1, 13), 28, 64]), data=st.data())
@settings(max_examples=80, deadline=None)
def test_sampled_rows_are_distinct_and_phase_a_is_their_prefix(d, data):
    lo = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))
    width = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
    hi = lo + np.array(data.draw(st.lists(width, min_size=d, max_size=d)))
    cfg = OptimizerConfig(n_samples=data.draw(st.sampled_from([1, 2, 3, 16, 128])),
                          seed=data.draw(st.integers(0, 5)))
    points, n_a = _sample_points(lo, hi, cfg)
    n = cfg.n_samples
    assert len(points) == n_a + n
    if np.any(lo != hi):
        assert len({p.tobytes() for p in points}) == len(points)
    unit = _sobol.sobol_integers(d, 2 * n, cfg.seed) * 2.0 ** -_sobol.BITS
    drawn = unit * (hi - lo) + lo
    assert points[:n].tobytes() == drawn[:n].tobytes()
    assert points[n_a:].tobytes() == drawn[n:].tobytes()
    assert points[n].tobytes() == ((lo + hi) / 2.0).tobytes()
    # the distinct corners, each the first of its values: every corner of a
    # box with at most MAX_CORNER_SAMPLES, else those of the random bits
    if 2 ** d <= lipschitz.MAX_CORNER_SAMPLES:
        corners = itertools.product(*zip(lo, hi))
    else:
        bits = np.random.default_rng(cfg.seed + 1).integers(
            0, 2, size=(lipschitz.MAX_CORNER_SAMPLES, d))
        corners = map(tuple, np.where(bits == 1, hi, lo))
    assert np.array_equal(points[n + 1:n_a], list(dict.fromkeys(corners)))


def test_a_gradient_that_traps_is_nan_and_logged_per_point(monkeypatch, caplog):
    g = mlp_classifier(2)
    obj = _JacobianObjective(g, [g.find("x")])
    stack = np.random.default_rng(3).uniform(obj.lo, obj.hi, (3, obj.dim))
    obj(stack)
    execute = runtime.execute

    def failing_vjp(program, inputs, **kwargs):
        if program is obj._grad_program:
            raise NumericalError("overflow in the test")
        return execute(program, inputs, **kwargs)

    monkeypatch.setattr(runtime, "execute", failing_vjp)
    with caplog.at_level(logging.WARNING, logger="dpgraph"):
        got = obj.gradient(stack)
    assert got.shape == stack.shape and np.isnan(got).all()
    assert len(caplog.records) == 3
    assert all("ascent stops" in r.getMessage() and "overflow in the test" in r.getMessage()
               for r in caplog.records)


def test_a_point_whose_gradient_traps_stops_alone(monkeypatch, caplog):
    g = _x_log_x()
    obj = _JacobianObjective(g, [g.find("x")])
    stack = np.array([[0.5], [1.5], [2.0]])
    obj(stack)
    alone = np.array([obj.gradient(p) for p in stack[[0, 2]]])
    alone_x, alone_fx = _ascend(_Recorder(obj), obj.gradient, stack[[0, 2]], obj.lo, obj.hi)
    execute = runtime.execute

    def vjp_traps_at_one_and_a_half(program, inputs, **kwargs):
        # the objective binds one flat vector per leaf group; x is its slice
        x = next(vec[..., start:stop]
                 for (_, members), vec in zip(program.leaf_groups, inputs)
                 for name, _, start, stop, _ in members if name == "x")
        if program is obj._grad_program and np.any(x == 1.5):
            raise NumericalError("overflow in the test")
        return execute(program, inputs, **kwargs)

    monkeypatch.setattr(runtime, "execute", vjp_traps_at_one_and_a_half)
    with caplog.at_level(logging.WARNING, logger="dpgraph"):
        grads = obj.gradient(stack)
    assert grads[[0, 2]].tobytes() == alone.tobytes()
    assert np.isnan(grads[1]).all()
    assert len(caplog.records) == 1
    assert "overflow in the test" in caplog.text

    # in the ascent only that start stops climbing, once asked and logged once
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="dpgraph"):
        x, fx = _ascend(_Recorder(obj), obj.gradient, stack, obj.lo, obj.hi)
    assert len(caplog.records) == 1
    assert x[1, 0] == 1.5 and fx[1] == obj(stack[1])
    assert x[[0, 2]].tobytes() == alone_x.tobytes()
    assert fx[[0, 2]].tobytes() == alone_fx.tobytes()


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
        visited |= set(alone.memo)
        reference, reference_gradient = _recorder(objective, gradient, lo, hi)
        xr, fxr = _ascend_one_point(reference, reference_gradient, start, lo, hi)
        assert xr.tobytes() == x[i].tobytes() and fxr == fx[i]
        assert set(reference.memo) == set(alone.memo)
    assert set(together.memo) == visited
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
    obj = _JacobianObjective(g, [g.find("x")])
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
# differences, as measured when the samples became digitally shifted Sobol'
# points; terrain-seed0 evaluated 343 points until the samples stayed in draw
# order, since the starts that tie on its plateau are taken in that order
@pytest.mark.parametrize("objective,lo,hi,seed,value,certificate,n_evaluations", [
    (_wave, [-2.0, -1.0], [2.0, 1.0], 0, "0x1.ffffffffffee4p+0", True, 1275),
    (_wave, [-2.0, -1.0], [2.0, 1.0], 7, "0x1.ffffffffffeecp+0", True, 1330),
    (_terrain, [-1.0, -1.0], [1.0, 1.0], 0, "0x1.f87ba53250e77p+0", True, 331),
    (_ripples, [-1.0] * 5, [2.0] * 5, 7, "0x1.22e1f737311d7p+2", False, 11859),
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
    assert set(f.memo) == {np.array(p).tobytes() for p in evaluated}


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
    assert (calls["objective"], calls["gradient"], report.n_evaluations) == (30, 30, 509)


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
    assert list(stacked.memo) == list(per_point.memo)
    assert got[2, 0] == 0.0 and got[0, 0] != 0.0
    assert not got[:, 3].any()  # the zero-width coordinate is skipped


# -- sampling set-up: stars and row sort ------------------------------------------

def _exact_squared_distances(z):
    """Squared distances by sums of squared differences, +inf to a row itself."""
    sq = np.array([((z - row) ** 2).sum(axis=1) for row in z])
    np.fill_diagonal(sq, np.inf)
    return sq


def _in_value_order(stars, vals):
    """The rows of a star mask, highest first with ties in index order, the
    first MAX_STARTS of them."""
    candidates = np.flatnonzero(stars)
    return candidates[np.argsort(-vals[candidates], kind="stable")][:lipschitz.MAX_STARTS]


def _eager_starts(z, vals, k):
    """The star rule over all pairs at once: every feasible row no lower than
    any of its k nearest other rows, by exact distances, highest first with
    ties in index order, the first MAX_STARTS of them."""
    near = np.argsort(_exact_squared_distances(z), axis=1, kind="stable")[:, :k]
    stars = np.isfinite(vals)
    if k:
        stars &= vals >= vals[near].max(axis=1)
    return _in_value_order(stars, vals)


def _tree_starts(z, vals, k):
    """The same rule with each row's k nearest other rows from a kd-tree."""
    near = cKDTree(z).query(z, k=k + 1)[1][:, 1:]  # the row itself comes first
    return _in_value_order(np.isfinite(vals) & (vals >= vals[near].max(axis=1)), vals)


def _stars_of_both_phases(z, vals, subset):
    k = min(2 * z.shape[1] + 2, 16, len(z) - 1)
    k_subset = min(2 * z.shape[1] + 2, 16, int(subset.sum()) - 1)
    got = lipschitz._stars(z, vals, subset)
    cols = np.flatnonzero(subset)
    want = (_eager_starts(z, vals, k), cols[_eager_starts(z[subset], vals[subset], k_subset)])
    return got, want


def _no_tie_at_the_kth(z, k):
    ranked = np.sort(_exact_squared_distances(z), axis=1)
    return bool(np.all(ranked[:, k] - ranked[:, k - 1] > 1e-9 * ranked[:, k]))


@pytest.mark.parametrize("blocks", ["one-block", "blocks-of-40-rows"])
@pytest.mark.parametrize("points", ["random", "sobol"])
@pytest.mark.parametrize("d", [1, 2, 28, 1000])
def test_nearest_matches_a_kd_tree(d, points, blocks, monkeypatch):
    # with no tie at the k-th nearest distance, the stars are those of the k
    # nearest neighbours that a kd-tree finds, and those of the eager rule
    rng = np.random.default_rng(d)
    if points == "random":
        z = rng.uniform(size=(150, d))
    else:
        z = qmc.Sobol(d, scramble=True, seed=d).random(128)
    subset = rng.uniform(size=len(z)) < 0.6
    k = min(2 * d + 2, 16)  # below either phase's number of rows
    assert int(subset.sum()) - 1 > k
    assert _no_tie_at_the_kth(z, k) and _no_tie_at_the_kth(z[subset], k)
    if blocks != "one-block":
        monkeypatch.setattr(runtime, "BATCH_BYTES", 8 * len(z) * 40)
    cols = np.flatnonzero(subset)
    # random values have many stars; one smooth peak has few, so that every
    # feasible row is tested
    for vals in (rng.standard_normal(len(z)), -((z - 0.3) ** 2).sum(axis=1)):
        got = [s.tolist() for s in lipschitz._stars(z, vals, subset)]
        for starts in (_tree_starts, _eager_starts):
            want = (starts(z, vals, k), cols[starts(z[subset], vals[subset], k)])
            assert got == [s.tolist() for s in want]


@pytest.mark.parametrize("d", [2, 3, 6, 28, 1000])
def test_nearest_among_tied_corners_is_no_farther_than_the_kth(d):
    # the box's corners tie at many distances: a row is no star exactly when
    # its nearest strictly higher row of the phase is no farther than its
    # k-th nearest other row, whichever rows tie there
    if 2 ** d <= lipschitz.MAX_CORNER_SAMPLES:
        z = np.array(list(itertools.product([0.0, 1.0], repeat=d)))
    else:
        z = np.unique(np.random.default_rng(d).integers(0, 2, (64, d)), axis=0) * 1.0
    subset = np.arange(len(z)) % 3 != 0
    vals = np.random.default_rng(d).integers(0, 4, len(z)) * 1.0
    vals[::7] = -np.inf
    got = lipschitz._stars(z, vals, subset)
    tied = False
    for phase, rows in ((0, np.arange(len(z))), (1, np.flatnonzero(subset))):
        k = min(2 * d + 2, 16, len(rows) - 1)
        sq = _exact_squared_distances(z[rows])
        kth = np.sort(sq, axis=1)[:, k - 1]
        tied |= not _no_tie_at_the_kth(z[rows], k)
        higher = vals[rows][None, :] > vals[rows][:, None]
        nearest_higher = np.where(higher, sq, np.inf).min(axis=1)
        stars = np.isfinite(vals[rows]) & (nearest_higher > kth)
        assert got[phase].tolist() == rows[_in_value_order(stars, vals[rows])].tolist()
    assert tied


@pytest.mark.parametrize("values", ["random", "ties", "with-inf", "all-equal"])
@pytest.mark.parametrize("d", [1, 2, 28, 1000])
def test_stars_match_an_eager_reference(d, values):
    rng = np.random.default_rng(d)
    z = rng.uniform(size=(150, d))  # no ties at the k-th neighbour (see above)
    subset = rng.uniform(size=len(z)) < 0.6
    vals = {"random": rng.standard_normal(len(z)),
            "ties": rng.integers(0, 5, len(z)) * 1.0,
            "with-inf": np.where(rng.uniform(size=len(z)) < 0.3, -np.inf,
                                 rng.standard_normal(len(z))),
            "all-equal": np.full(len(z), 0.25)}[values]
    got, want = _stars_of_both_phases(z, vals, subset)
    assert [s.tolist() for s in got] == [s.tolist() for s in want]
    assert all(len(s) <= lipschitz.MAX_STARTS for s in got)


def test_stars_of_equal_values_are_the_first_feasible_indices_in_order():
    rng = np.random.default_rng(5)
    z = rng.uniform(size=(200, 3))
    subset = rng.uniform(size=len(z)) < 0.5
    vals = np.where(rng.uniform(size=len(z)) < 0.2, -np.inf, 1.5)
    starts, starts_subset = lipschitz._stars(z, vals, subset)
    feasible = np.isfinite(vals)
    assert starts.tolist() == np.flatnonzero(feasible)[:lipschitz.MAX_STARTS].tolist()
    assert (starts_subset.tolist()
            == np.flatnonzero(feasible & subset)[:lipschitz.MAX_STARTS].tolist())


def test_global_opt_starts_equal_values_at_the_first_feasible_points(monkeypatch):
    lo, hi = np.zeros(3), np.ones(3)
    ascended = []
    ascend = lipschitz._ascend
    monkeypatch.setattr(lipschitz, "_ascend", lambda f, gradient, starts, *args:
                        ascended.append(starts.copy()) or ascend(f, gradient, starts, *args))

    def objective(v):  # flat but for the half-space x0 > 0.9, which is infeasible
        return np.where(v[:, 0] > 0.9, np.nan, 2.0)

    global_maximize(objective, (lo, hi))
    pts, n_a = _sample_points(lo, hi, OptimizerConfig())
    feasible = np.flatnonzero(pts[:, 0] <= 0.9)
    # both phases' first feasible points are phase A's, the prefix of the draw
    first = feasible[:lipschitz.MAX_STARTS]
    assert first[-1] < n_a
    assert [s.tobytes() for s in ascended] == [pts[first].tobytes()]


@pytest.mark.parametrize("finite", [True, False])
def test_stars_of_a_zero_width_box_take_no_neighbours(finite):
    # every sample of a box with no width is its one point, so a star has no
    # neighbour but copies of itself: global_maximize evaluates that point
    # once, certifies it, and fails when it is infeasible
    lo = hi = np.array([0.5, -2.0])
    evaluated = []

    def objective(v):
        evaluated.extend(v.tolist())
        return np.full(len(v), 1.5 if finite else np.nan)

    if finite:
        result = global_maximize(objective, (lo, hi))
        assert result.argmax.tolist() == [0.5, -2.0] and result.value == 1.5
        assert result.certificate and result.warning is None and result.n_evaluations == 1
    else:
        with pytest.raises(OptimizerFailure):
            global_maximize(objective, (lo, hi))
    assert evaluated == [[0.5, -2.0]]


def test_stars_are_the_same_in_blocks_of_a_few_rows(monkeypatch):
    # mlp_classifier(3)'s samples and values, and a random objective's
    calls = []
    stars = lipschitz._stars
    monkeypatch.setattr(lipschitz, "_stars", lambda *args: calls.append(args) or stars(*args))
    g = mlp_classifier(3)
    estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    rng = np.random.default_rng(3)
    z = rng.uniform(size=(300, 4))
    calls.append((z, rng.standard_normal(len(z)), rng.uniform(size=len(z)) < 0.5))
    one_block = [stars(*args) for args in calls]
    distances = []  # per block
    rows = lipschitz._distance_rows
    monkeypatch.setattr(lipschitz, "_distance_rows", lambda z, norms, r:
                        distances.append(len(r) * len(z)) or rows(z, norms, r))
    for args, want in zip(calls, one_block):
        monkeypatch.setattr(runtime, "BATCH_BYTES", 8 * len(args[0]) * 3)  # 3 rows
        distances.clear()
        assert [s.tolist() for s in stars(*args)] == [s.tolist() for s in want]
        assert len(distances) > 2 and 8 * max(distances) <= runtime.BATCH_BYTES


@pytest.mark.parametrize("graph,every_point",
                         [(mean_query(100), False), (mlp_classifier(2), True)],
                         ids=["mean100", "mlp2"])
def test_global_opt_builds_neighbour_rows_only_until_it_has_its_starts(
        graph, every_point, monkeypatch):
    tested, values = [], []
    rows, stars = lipschitz._distance_rows, lipschitz._stars
    monkeypatch.setattr(lipschitz, "_distance_rows", lambda z, norms, r:
                        tested.extend(r.tolist()) or rows(z, norms, r))
    monkeypatch.setattr(lipschitz, "_stars", lambda z, vals, *args:
                        values.append(vals) or stars(z, vals, *args))
    estimate_sensitivity(graph, wrt=[graph.find("x")], method="global_opt")
    assert len(tested) == len(set(tested))
    if every_point:
        assert sorted(tested) == np.flatnonzero(np.isfinite(values[0])).tolist()
    else:
        assert len(tested) <= 2 * lipschitz.MAX_STARTS


# mean_query(1000) evaluates 321 distinct points and mlp_classifier(2) 509
@pytest.mark.parametrize("graph,points", [(mean_query(1000), 321), (mlp_classifier(2), 509)],
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
    recorders = []

    class Recorder(_Recorder):
        def __init__(self, fn):
            super().__init__(fn)
            recorders.append(self)

    def checked(self, v):
        stack = np.atleast_2d(v)
        (f,) = recorders
        assert all(np.isfinite(f.memo[p.tobytes()]) for p in stack)
        # the objective kept the singular vectors of J at each of them
        assert all(p.tobytes() in self._vectors for p in stack)
        asked.append(len(stack))
        return gradient(self, v)

    monkeypatch.setattr(lipschitz, "_Recorder", Recorder)
    monkeypatch.setattr(_JacobianObjective, "gradient", checked)
    estimate_sensitivity(graph, wrt=[graph.find("x")], method="global_opt")
    assert asked


def test_global_maximize_hands_plain_arrays_to_the_objective_and_gradient(monkeypatch):
    kinds = {"objective": set(), "gradient": set()}
    objective, gradient = _JacobianObjective.__call__, _JacobianObjective.gradient
    monkeypatch.setattr(_JacobianObjective, "__call__", lambda self, v: kinds[
        "objective"].add(type(v)) or objective(self, v))
    monkeypatch.setattr(_JacobianObjective, "gradient", lambda self, v: kinds[
        "gradient"].add(type(v)) or gradient(self, v))
    g = mlp_classifier(2)
    estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    assert kinds == {"objective": {np.ndarray}, "gradient": {np.ndarray}}


def test_global_opt_keys_no_point_when_the_jacobian_is_a_constant():
    g = mean_query(1000)
    obj = _JacobianObjective(g, [g.find("x")])
    result = global_maximize(obj, (obj.lo, obj.hi), gradient=obj.gradient)
    assert obj._constant is not None and obj._vectors == {}
    report = estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    assert result.value == report.bound and result.n_evaluations == report.n_evaluations


def _plus_unbounded(read: bool, j_constant: bool = True):
    """sum(x) + sum(p), or sum(x * p) when J reads p, with x in [0, 1]^(3x1)
    and p unbounded; sum(sigmoid(x * x)) in place of sum(x) makes J vary."""
    b = GraphBuilder()
    x = b.input("x", (3, 1), bounds=(0.0, 1.0))
    p = b.parameter("p", ())
    if read:
        b.output(b.reduce_sum(b.mul(x, p), axis=None))
    else:
        s = b.reduce_sum(x if j_constant else b.sigmoid(b.mul(x, x)), axis=None)
        b.output(b.add(s, p))
    return b.graph()


def test_an_unbounded_leaf_that_j_does_not_read_is_no_coordinate():
    g = _plus_unbounded(read=False)
    bounds = {m: estimate_sensitivity(g, wrt=[g.find("x")], method=m).bound
              for m in lipschitz.METHODS}
    assert bounds["ibp"] == 1.7320508075688772
    for bound in bounds.values():
        assert bound == pytest.approx(math.sqrt(3.0), rel=1e-12, abs=0)
    report = estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    assert set(report.argmax) == {"x"}


def test_an_unread_unbounded_leaf_is_bound_to_zeros_in_both_programs():
    g = _plus_unbounded(read=False, j_constant=False)
    obj = _JacobianObjective(g, [g.find("x")])
    assert obj.dim == 3 and obj._constant is None
    # the gradient program's unbounded group is p, then its cotangent
    (members,) = [m for b, m in obj._grad_program.leaf_groups if b is None]
    assert [name for name, *_ in members][0] == "p" and len(members) == 2
    assert members[1][1] == obj.program.output_dims[0]
    rng = np.random.default_rng(3)
    for v in rng.uniform(obj.lo, obj.hi, (3, obj.dim)):
        obj(v)
        _assert_matches_central_differences(obj, v, obj.gradient(v))
    report = estimate_sensitivity(g, wrt=[g.find("x")], method="global_opt")
    assert 0 < report.bound <= estimate_sensitivity(g, wrt=[g.find("x")], method="ibp").bound


@pytest.mark.parametrize("method", lipschitz.METHODS)
def test_an_unbounded_leaf_that_j_reads_is_refused_by_name(method):
    g = _plus_unbounded(read=True)
    with pytest.raises(ValidationFailed, match="'p'"):
        estimate_sensitivity(g, wrt=[g.find("x")], method=method)


def test_the_refusal_names_the_unbounded_leaf_that_j_reads():
    b = GraphBuilder()
    x = b.input("x", (3, 1), bounds=(0.0, 1.0))
    p, q = b.parameter("p", ()), b.parameter("q", ())
    b.output(b.add(b.reduce_sum(b.mul(x, q), axis=None), p))
    g = b.graph()
    for method in ("global_opt", "grid_oracle"):
        with pytest.raises(ValidationFailed, match="'q' has no bounds"):
            estimate_sensitivity(g, wrt=[g.find("x")], method=method)


def _clipped_mean(n):
    b = GraphBuilder()
    x = b.input("x", (n, 1), bounds=(-2.0, 2.0))
    b.output(b.reduce_mean(b.clip(x, -1.0, 1.0), axis=None))
    return b.graph()


# bound, certified and n_evaluations of global_opt wrt x at the default
# config. The first four, as measured before the kd-tree and np.unique were
# replaced, do not depend on where the samples fall. The classifiers' as
# measured when the samples became digitally shifted Sobol' points: every
# point moved, mlp2 kept its bound's bits, and mlp3 and mlp8 found higher
# values. Every J here has one row, so no SVD runs
@pytest.mark.parametrize("graph,bound,certified,n_evaluations", [
    (mean_query(1000), "0x1.030dc4ea03a73p-5", True, 321),
    (mean_query(100), "0x1.999999999999ap-4", True, 321),
    (_sum_sigmoid(64), "0x1.0000000000000p+1", True, 321),
    (_clipped_mean(100), "0x1.999999999999ap-4", True, 321),
    (mlp_classifier(2), "0x1.4464e6cd0e6c7p-4", False, 509),
    (mlp_classifier(3), "0x1.41c020b52acfbp-3", False, 2058),
    (mlp_classifier(4), "0x1.f7d87cfca0174p-3", False, 2321),
    (mlp_classifier(8), "0x1.6833b52cbbdc9p-1", False, 2021),
], ids=["mean1000", "mean100", "sumsig64", "clipmean100", "mlp2", "mlp3", "mlp4", "mlp8"])
def test_global_opt_reports_are_pinned(graph, bound, certified, n_evaluations,
                                       monkeypatch):
    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", svd)
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


# -- a Jacobian that is one Constant ----------------------------------------------

def _infinite_slope():
    b = GraphBuilder()
    x = b.input("x", (1, 1), bounds=(0.0, 1.0))
    b.output(b.mul(b.constant(np.full((1, 1), np.inf)), x))
    return b.graph()


def test_a_non_finite_constant_jacobian_is_infeasible_everywhere():
    g = _infinite_slope()
    obj = _JacobianObjective(g, [g.find("x")])
    assert obj._constant is not None and obj._constant[0] == -np.inf
    with pytest.raises(OptimizerFailure):
        estimate_sensitivity(g, method="global_opt")


@pytest.mark.parametrize("graph", [mean_query(5), _infinite_slope()], ids=["mean5", "inf"])
def test_a_constant_jacobian_has_the_bits_of_the_executed_one(graph):
    obj = _JacobianObjective(graph, [graph.find("x")])
    assert obj._constant is not None
    rng = np.random.default_rng(4)
    stack = rng.uniform(obj.lo, obj.hi, (7, obj.dim))
    stack[2, 0], stack[4, -1], stack[5, 0] = np.nan, np.inf, -np.inf
    got = obj._triples(stack)
    assert got[0][[2, 4, 5]].tolist() == [-np.inf] * 3  # as execute traps there
    finite = [0, 1, 3, 6]
    # each finite row: the triple of J executed and decomposed at the point alone
    obj._constant = None
    for i in finite:
        want = obj._triples(stack[i:i + 1])
        for a, b in zip(got, want):
            assert a[i].tobytes() == b[0].tobytes()
    # and the bits of the whole stack executed at once
    executed = obj._triples(stack)
    assert got[0].tobytes() == executed[0].tobytes()


def test_a_constant_jacobian_is_never_executed(monkeypatch):
    g = mean_query(100)
    obj = _JacobianObjective(g, [g.find("x")])
    programs = []
    execute = runtime.execute
    monkeypatch.setattr(runtime, "execute", lambda p, inputs, **kwargs:
                        programs.append(p) or execute(p, inputs, **kwargs))
    result = global_maximize(obj, (obj.lo, obj.hi), gradient=obj.gradient)
    assert result.n_evaluations == 321 and result.value == pytest.approx(0.1, rel=1e-12)
    # only the gradient's vector-Jacobian product runs
    assert programs and all(p is obj._grad_program for p in programs)


def test_global_opt_on_a_wide_box_holds_few_copies_of_its_samples():
    # mean_query(10^4) evaluates 321 points of 10^4 coordinates: one float64
    # stack of them is 25.7 MB, and the search peaks under 4.5 of them
    g = mean_query(10_000)
    estimate_sensitivity(g, method="global_opt")  # compiled outside the measure
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = estimate_sensitivity(g, method="global_opt")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.n_evaluations == 321
    assert peak <= 4.5 * 8 * 321 * 10_000
