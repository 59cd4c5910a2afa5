"""Gaussian mechanism: noise calibration, clipping, and privatized execution.

Calibration solves the analytic condition
    Phi(D/(2s) - e*s/D) - exp(e) * Phi(-D/(2s) - e*s/D) <= delta
for the smallest s by bisection, where Phi is the standard normal CDF. This
is tighter than the classic s = D * sqrt(2 ln(1.25/delta)) / e formula and
remains valid for epsilon > 1, where the classic formula does not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import FingerprintMismatch, InvalidParams, ShapeMismatch
from .graph import Bounds
from .report import SensitivityReport
from .runtime import CompiledProgram, execute

_BISECT_REL_TOL = 1e-9

# Smallest delta that calibration accepts. Near delta = 1e-300 the Phi terms
# of the condition reach float64's subnormal range and the calibrated sigma
# misses its target; 1e-200 keeps a wide margin from there.
MIN_DELTA = 1e-200


@dataclass(frozen=True)
class PrivacyParams:
    """Target guarantee: (epsilon, delta), optionally gated by a sensitivity
    cap: with a cap, `privatize` refuses a report whose bound exceeds it."""

    epsilon: float
    delta: float
    sensitivity_cap: float | None = None

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise InvalidParams(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidParams(f"delta must lie in (0, 1), got {self.delta}")
        if self.delta < MIN_DELTA:
            raise InvalidParams(
                f"delta={self.delta} is below {MIN_DELTA}, where float64 "
                f"cannot evaluate the calibration condition reliably")
        if self.sensitivity_cap is not None and not self.sensitivity_cap > 0:
            raise InvalidParams("sensitivity_cap must be positive")


@dataclass(frozen=True)
class MechanismOutput:
    """Privatized result plus the audit fields that are safe to release."""

    value: Mapping[str, np.ndarray]
    sigma: float
    clipped_fraction: float
    output_l2_norm: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "value": {k: np.asarray(v).tolist() for k, v in self.value.items()},
            "sigma": self.sigma,
            "clipped_fraction": self.clipped_fraction,
            "output_l2_norm": self.output_l2_norm,
            "seed": self.seed,
        }


def _phi(x: float) -> float:
    # erfc keeps full relative precision in the lower tail, where the
    # textbook 0.5 * (1 + erf(x / sqrt(2))) cancels to a few digits or to 0.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_condition(delta2: float, epsilon: float, sigma: float) -> float:
    """Left side of the analytic condition; at most delta means DP holds."""
    if sigma <= 0:
        return 1.0
    a = delta2 / (2.0 * sigma)
    b = epsilon * sigma / delta2
    try:
        scale = math.exp(epsilon)
    except OverflowError:
        raise InvalidParams(f"epsilon={epsilon} is too large to calibrate")
    return _phi(a - b) - scale * _phi(-a - b)


@functools.lru_cache(maxsize=512)
def _sigma_ratio(epsilon: float, delta: float) -> float:
    """Smallest sigma for unit sensitivity; scales linearly in sensitivity."""
    hi = 1.0
    for _ in range(200):
        if gaussian_condition(1.0, epsilon, hi) <= delta:
            break
        hi *= 2.0
    else:
        raise InvalidParams("failed to bracket the calibration condition")
    lo = 0.0
    while (hi - lo) > _BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if gaussian_condition(1.0, epsilon, mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def calibrate_sigma(delta2: float, params: PrivacyParams) -> float:
    """Smallest noise scale meeting (epsilon, delta) at L2-sensitivity delta2.

    The condition depends only on sigma/delta2, so the unit-sensitivity ratio
    is solved once and scaled; the returned sigma never exceeds the classic
    sqrt(2 ln(1.25/delta))/epsilon bound when epsilon <= 1.
    """
    if not (delta2 > 0 and math.isfinite(delta2)):
        raise InvalidParams(f"sensitivity must be positive and finite, got {delta2}")
    return delta2 * _sigma_ratio(params.epsilon, params.delta)


def clip(data, bounds: Bounds) -> tuple[np.ndarray, float]:
    """Project data onto its declared interval; reports the altered fraction."""
    arr = np.asarray(data, dtype=np.float64)
    lo, hi = bounds.lo, bounds.hi
    if lo.shape != () and lo.shape != arr.shape:
        raise ShapeMismatch(
            f"bounds of shape {lo.shape} cannot clip data of shape {arr.shape}")
    clipped = np.clip(arr, lo, hi)
    fraction = float(np.mean(clipped != arr)) if arr.size else 0.0
    return clipped, fraction


def privatize(program: CompiledProgram, data: Mapping[str, Any],
              params: PrivacyParams, report: SensitivityReport,
              seed: int | None = None) -> MechanismOutput:
    """Clip, evaluate, and release the query output under Gaussian noise.

    The report must carry the fingerprint of the program's graph; refusing a
    stale report prevents calibrating with a bound computed for different
    bounds or structure. The raw query value never leaves this function;
    only its L2-norm is exposed for accounting.
    """
    if report.fingerprint != program.fingerprint:
        raise FingerprintMismatch(
            "sensitivity report was computed on a different graph than the "
            "compiled program")
    if not (math.isfinite(report.bound) and report.bound > 0):
        raise InvalidParams(f"sensitivity bound must be finite and positive, "
                            f"got {report.bound}")
    if params.sensitivity_cap is not None and report.bound > params.sensitivity_cap:
        raise InvalidParams(
            f"sensitivity exceeds cap: {report.bound} > {params.sensitivity_cap}")

    if seed is None:
        seed = int(np.random.SeedSequence().entropy) % (2 ** 63)
    elif seed < 0:
        raise InvalidParams(f"seed must be non-negative, got {seed}")

    graph = program.optimized_graph
    clipped_inputs: dict[str, np.ndarray] = {}
    altered = 0.0
    bounded_elements = 0
    for h in graph.leaves():
        node = graph.nodes[h]
        if node.name not in data:
            continue
        b = graph.bounds.get(h)
        if b is None:
            clipped_inputs[node.name] = np.asarray(data[node.name], dtype=np.float64)
            continue
        value, fraction = clip(data[node.name], b)
        clipped_inputs[node.name] = value
        altered += fraction * value.size
        bounded_elements += value.size
    clipped_fraction = altered / bounded_elements if bounded_elements else 0.0

    raw = execute(program, clipped_inputs)
    sigma = calibrate_sigma(report.bound, params)
    rng = np.random.default_rng(seed)
    noisy = {}
    for name, value in zip(program.output_names, raw):
        noisy[name] = value + rng.normal(0.0, sigma, size=value.shape)
    norm = math.sqrt(sum(float(np.sum(v ** 2)) for v in raw))
    return MechanismOutput(
        value=noisy,
        sigma=sigma,
        clipped_fraction=clipped_fraction,
        output_l2_norm=norm,
        seed=seed,
    )
