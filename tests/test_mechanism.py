import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from dpgraph import (
    FingerprintMismatch,
    InvalidParams,
    ShapeMismatch,
)
from dpgraph import mechanism
from dpgraph.graph import Bounds
from dpgraph.mechanism import (
    MIN_DELTA,
    PrivacyParams,
    calibrate_sigma,
    clip,
    gaussian_condition,
    privatize,
)
from dpgraph.lipschitz import estimate_sensitivity
from dpgraph.models import mean_query
from dpgraph import runtime


EPS_DELTA_GRID = [(e, d) for e in (0.1, 0.5, 1.0, 2.0, 5.0)
                  for d in (1e-7, 1e-5, 1e-3)]


def test_classic_formula_is_a_ceiling():
    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    sigma = calibrate_sigma(1.0, params)
    classic = math.sqrt(2 * math.log(1.25 / 1e-5))
    assert sigma <= classic
    assert sigma <= 4.8414
    assert sigma == pytest.approx(3.7306, abs=1e-3)
    assert sigma > 1.0


def test_condition_tight_at_solution():
    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    sigma = calibrate_sigma(1.0, params)
    value = gaussian_condition(1.0, 1.0, sigma)
    assert value <= 1e-5
    assert value == pytest.approx(1e-5, abs=1e-6)


@pytest.mark.parametrize("epsilon,delta", EPS_DELTA_GRID)
def test_calibration_sound_and_minimal(epsilon, delta):
    params = PrivacyParams(epsilon=epsilon, delta=delta)
    sigma = calibrate_sigma(1.0, params)
    assert gaussian_condition(1.0, epsilon, sigma) <= delta
    assert gaussian_condition(1.0, epsilon, 0.999 * sigma) > delta


@given(delta2=st.floats(min_value=1e-6, max_value=1e6),
       scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=40, deadline=None)
def test_calibration_scales_linearly(delta2, scale):
    params = PrivacyParams(epsilon=1.3, delta=1e-5)
    a = calibrate_sigma(delta2, params)
    b = calibrate_sigma(scale * delta2, params)
    assert b == pytest.approx(scale * a, rel=1e-9)


def test_invalid_privacy_params():
    with pytest.raises(InvalidParams):
        PrivacyParams(epsilon=0.0, delta=1e-5)
    with pytest.raises(InvalidParams):
        PrivacyParams(epsilon=1.0, delta=1.5)
    with pytest.raises(InvalidParams):
        PrivacyParams(epsilon=1.0, delta=1e-5, sensitivity_cap=0.0)
    with pytest.raises(InvalidParams):
        calibrate_sigma(0.0, PrivacyParams(epsilon=1.0, delta=1e-5))


def _log_delta(epsilon, sigma):
    """log of the delta that unit-sensitivity noise sigma achieves, from
    log Phi values, so no step subtracts two numbers close to 1."""
    a, b = 1.0 / (2.0 * sigma), epsilon * sigma
    log_first = float(log_ndtr(a - b))
    ratio = epsilon + float(log_ndtr(-a - b)) - log_first  # log(second / first)
    if ratio > -math.log(2.0):
        return log_first + math.log(-math.expm1(ratio))
    return log_first + math.log1p(-math.exp(ratio))


def test_calibration_meets_delta_in_the_tails():
    # 1e-10 relative slack on delta; minimal means 1e-6 less noise misses it
    misses = []
    for epsilon in np.geomspace(0.01, 50.0, 25):
        for delta in np.geomspace(1e-200, 0.999, 30):
            sigma = calibrate_sigma(1.0, PrivacyParams(float(epsilon), float(delta)))
            meets = _log_delta(epsilon, sigma) <= math.log(delta) + 1e-10
            minimal = _log_delta(epsilon, sigma * (1.0 - 1e-6)) > math.log(delta)
            if not (meets and minimal):
                misses.append((epsilon, delta, meets, minimal))
    assert misses == []


def _bisected_sigma_ratio(epsilon, delta):
    """The calibration the Newton solver replaced: double until the condition
    holds, then bisect to a relative width of 1e-9 and return the upper end."""
    hi = 1.0
    for _ in range(200):
        if gaussian_condition(1.0, epsilon, hi) <= delta:
            break
        hi *= 2.0
    else:
        raise AssertionError("failed to bracket the calibration condition")
    lo = 0.0
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if gaussian_condition(1.0, epsilon, mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def _per_request_pool():
    """The 1,024 per-request budgets of perfbench's release mix."""
    rng = np.random.default_rng(20210921)
    eps = np.exp(rng.uniform(math.log(0.1), math.log(8.0), 1024))
    delta = np.exp(rng.uniform(math.log(1e-12), math.log(1e-4), 1024))
    return [(float(e), float(d)) for e, d in zip(eps, delta)]


TAILS_GRID = [(float(e), float(d)) for e in np.geomspace(0.01, 50.0, 25)
              for d in np.geomspace(1e-200, 0.999, 30)]


@pytest.fixture
def cold_sigma_cache():
    mechanism._sigma_ratio.cache_clear()
    yield
    mechanism._sigma_ratio.cache_clear()


@pytest.mark.parametrize("budgets", [TAILS_GRID, _per_request_pool()],
                         ids=["tails_grid", "per_request_pool"])
def test_calibration_agrees_with_bisection(budgets):
    far = []
    for epsilon, delta in budgets:
        sigma = calibrate_sigma(1.0, PrivacyParams(epsilon, delta))
        ref = _bisected_sigma_ratio(epsilon, delta)
        if not ref * (1.0 - 2e-9) <= sigma <= ref * (1.0 + 2e-9):
            far.append((epsilon, delta, sigma, ref))
    assert far == []


def test_cold_calibration_evaluates_the_condition_few_times(monkeypatch, cold_sigma_cache):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return gaussian_condition(*args)

    monkeypatch.setattr(mechanism, "gaussian_condition", counted)
    pool = _per_request_pool()
    for epsilon, delta in pool:
        calibrate_sigma(1.0, PrivacyParams(epsilon, delta))
    # bisection from a doubled bracket made about 35 per budget
    assert calls / len(pool) <= 10


@pytest.mark.parametrize("epsilon", [1e-300, 1e-12, 709.7])
@pytest.mark.parametrize("delta", [MIN_DELTA, 1.0 - 1e-16])
def test_calibration_certifies_its_bracket_at_the_extremes(epsilon, delta):
    sigma = calibrate_sigma(1.0, PrivacyParams(epsilon, delta))
    assert gaussian_condition(1.0, epsilon, sigma) <= delta
    assert gaussian_condition(1.0, epsilon, sigma * (1.0 - 2e-9)) > delta


def test_epsilon_beyond_float64_reach_is_refused():
    params = PrivacyParams(epsilon=709.7, delta=1e-5)
    sigma = calibrate_sigma(1.0, params)
    assert gaussian_condition(1.0, 709.7, sigma) <= 1e-5
    assert gaussian_condition(1.0, 709.7, sigma * (1.0 - 2e-9)) > 1e-5
    for epsilon in (710.0, 1e308, math.inf):
        with pytest.raises(InvalidParams, match="overflows"):
            PrivacyParams(epsilon=epsilon, delta=1e-5)


def test_delta_below_float64_reach_is_refused():
    PrivacyParams(epsilon=1.0, delta=1e-200)
    for delta in (1e-201, 1e-250, 1e-320):
        with pytest.raises(InvalidParams):
            PrivacyParams(epsilon=1.0, delta=delta)


# -- clipping -----------------------------------------------------------------

def test_clip_mixed_values():
    out, fraction = clip([-0.5, 0.5, 1.5], Bounds.make(0.0, 1.0))
    np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])
    assert fraction == pytest.approx(2 / 3)


def test_clip_in_bounds_identity():
    data = np.array([0.25, 0.75])
    out, fraction = clip(data, Bounds.make(0.0, 1.0))
    np.testing.assert_array_equal(out, data)
    assert fraction == 0.0


def test_clip_scalar_bound_broadcasts():
    out, fraction = clip(np.full((2, 2), 9.0), Bounds.make(0.0, 1.0))
    np.testing.assert_array_equal(out, np.ones((2, 2)))
    assert fraction == 1.0


def test_clip_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        clip(np.zeros(3), Bounds.make(np.zeros(4), np.ones(4)))


@pytest.mark.parametrize("data,bounds", [
    (np.array([np.nan, -0.0, 0.0, 2.0, -3.0, 0.5]), Bounds.make(-0.0, 1.0)),
    (np.array([[np.nan, -0.0], [0.0, 5.0]]),
     Bounds.make(np.full((2, 2), -0.0), np.full((2, 2), 1.0))),
    (np.array([-0.0, np.nan, 1.5]), Bounds.make([0.0, -1.0, 0.0], [1.0, 1.0, 1.0])),
    (np.zeros((0,)), Bounds.make(0.0, 1.0)),
    (np.zeros((0, 3)), Bounds.make(np.zeros((0, 3)), np.ones((0, 3)))),
    (np.arange(7.0) - 3.0, Bounds.make(-1.0, 1.0)),
], ids=["nan_and_signed_zero", "signed_zero_bound", "full_shape", "empty", "empty_full_shape",
        "sevenths"])
def test_clip_fraction_has_the_bits_of_the_mean(data, bounds):
    clipped, fraction = clip(data, bounds)
    expected = float(np.mean(clipped != data)) if data.size else 0.0
    assert type(fraction) is float
    assert np.float64(fraction).tobytes() == np.float64(expected).tobytes()
    assert np.array_equal(clipped, np.clip(data, bounds.lo, bounds.hi), equal_nan=True)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_clip_idempotent(values):
    b = Bounds.make(-1.0, 1.0)
    once, _ = clip(values, b)
    twice, fraction = clip(once, b)
    np.testing.assert_array_equal(once, twice)
    assert fraction == 0.0


# -- privatize ----------------------------------------------------------------

@pytest.fixture(scope="module")
def mean_setup():
    g = mean_query(10)
    program = runtime.compile(g)
    report = estimate_sensitivity(g, method="global_opt")
    return g, program, report


def test_privatize_reproducible(mean_setup, rng):
    _, program, report = mean_setup
    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    data = {"x": rng.uniform(0, 1, (10, 1))}
    out1 = privatize(program, data, params, report, seed=42)
    out2 = privatize(program, data, params, report, seed=42)
    assert np.array_equal(out1.value["n1"], out2.value["n1"])
    assert out1.sigma == out2.sigma
    assert out1.seed == 42


def test_privatize_noise_matches_seeded_draw(mean_setup, rng):
    _, program, report = mean_setup
    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    data = {"x": np.full((10, 1), 0.5)}
    out = privatize(program, data, params, report, seed=7)
    expected_noise = np.random.default_rng(7).normal(0.0, out.sigma, size=())
    assert out.value["n1"] == pytest.approx(0.5 + expected_noise, abs=1e-15)
    assert out.output_l2_norm == pytest.approx(0.5)


def test_noise_independent_of_data(mean_setup, rng):
    _, program, report = mean_setup
    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    d1 = {"x": rng.uniform(0, 1, (10, 1))}
    d2 = {"x": rng.uniform(0, 1, (10, 1))}
    o1 = privatize(program, d1, params, report, seed=11)
    o2 = privatize(program, d2, params, report, seed=11)
    diff = float(o1.value["n1"] - o2.value["n1"])
    assert diff == pytest.approx(float(np.mean(d1["x"]) - np.mean(d2["x"])), abs=1e-12)


def test_privatize_clips_and_reports_fraction(mean_setup):
    _, program, report = mean_setup
    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    data = {"x": np.concatenate([np.full((5, 1), -1.0), np.full((5, 1), 0.5)])}
    out = privatize(program, data, params, report, seed=0)
    assert out.clipped_fraction == pytest.approx(0.5)
    # the released value reflects the clipped mean, not the raw one
    assert out.output_l2_norm == pytest.approx(0.25)


def test_privatize_fingerprint_mismatch(mean_setup):
    g, program, report = mean_setup
    other = runtime.compile(mean_query(11))
    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    with pytest.raises(FingerprintMismatch):
        privatize(other, {"x": np.zeros((11, 1))}, params, report, seed=0)


def test_privatize_refuses_a_negative_seed(mean_setup):
    _, program, report = mean_setup
    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    with pytest.raises(InvalidParams, match="seed"):
        privatize(program, {"x": np.zeros((10, 1))}, params, report, seed=-3)


def test_privatize_refuses_stacked_data(mean_setup, rng):
    # three records' worth of data would release three answers under a
    # sigma sized for one
    _, program, report = mean_setup
    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    with pytest.raises(ShapeMismatch):
        privatize(program, {"x": rng.uniform(0, 1, (3, 10, 1))}, params, report, seed=0)


def test_privatize_cap_mode(mean_setup):
    _, program, report = mean_setup
    ok = PrivacyParams(epsilon=1.0, delta=1e-5, sensitivity_cap=1.0)
    out = privatize(program, {"x": np.zeros((10, 1))}, ok, report, seed=1)
    assert out.sigma > 0
    tight = PrivacyParams(epsilon=1.0, delta=1e-5, sensitivity_cap=report.bound / 2)
    with pytest.raises(InvalidParams, match="exceeds cap"):
        privatize(program, {"x": np.zeros((10, 1))}, tight, report, seed=1)


def test_privatize_std_sanity(mean_setup):
    _, program, report = mean_setup
    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    data = {"x": np.full((10, 1), 0.5)}
    outs = np.array([
        float(privatize(program, data, params, report, seed=s).value["n1"])
        for s in range(4000)
    ])
    sigma = calibrate_sigma(report.bound, params)
    assert np.std(outs) == pytest.approx(sigma, rel=0.05)
