"""Gaussian mechanism: noise calibration, clipping, and privatized execution.

Calibration solves the analytic condition
    Phi(D/(2s) - e*s/D) - exp(e) * Phi(-D/(2s) - e*s/D) <= delta
for the smallest s, where Phi is the standard normal CDF, by safeguarded
Newton steps that return the end of a bracket as bisection would certify
it. This is tighter than the classic s = D * sqrt(2 ln(1.25/delta)) / e
formula and remains valid for epsilon > 1, where the classic formula does
not.

Release walks the leaf layout that compilation builds once per program
(`runtime.LeafGroup`), the same table `execute` binds through: the bounded
leaves that share one `Bounds` are flattened end to end and clipped by one
`clip` call per group, the unbounded leaves pass through unclipped, and one
`execute` call takes the clipped vectors as they are, one per group, scans
each for NaN and Inf once and evaluates the query; no leaf is sliced or
reshaped on the way. `clipped_fraction` is the exact count of altered
entries over the count of bounded entries. `clip` calls `ndarray.clip`,
which `np.clip` dispatches to: the same bits without the wrapper's cost.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import FingerprintMismatch, InvalidParams, ShapeMismatch
from .graph import Bounds, _index, _number
from .report import SensitivityReport
from .runtime import CompiledProgram, execute, group_vector, leaf_array

# A calibrated sigma is the upper end of a checked bracket no wider than
# 2 * _REL_TOL relative, as a bisection to width 1e-9 would leave it.
_REL_TOL = 1e-9
# Newton needs about 5 evaluations and log-space halving about 50; the cap
# only stops a loop that neither could end.
_MAX_STEPS = 200

# Smallest delta that calibration accepts. Near delta = 1e-300 the Phi terms
# of the condition reach float64's subnormal range and the calibrated sigma
# misses its target; 1e-200 keeps a wide margin from there.
MIN_DELTA = 1e-200
# Largest epsilon that calibration accepts: exp(epsilon) in the condition
# overflows float64 above it.
MAX_EPSILON = math.log(sys.float_info.max)


@dataclass(frozen=True)
class PrivacyParams:
    """Target guarantee: (epsilon, delta), optionally gated by a sensitivity
    cap: with a cap, `privatize` refuses a report whose bound exceeds it."""

    epsilon: float
    delta: float
    sensitivity_cap: float | None = None

    def __post_init__(self):
        for name in ("epsilon", "delta", "sensitivity_cap"):
            value = getattr(self, name)
            if value is not None:
                try:
                    object.__setattr__(self, name, _number(value))
                except ValueError as err:
                    raise InvalidParams(f"{name} {err}") from None
        if not self.epsilon > 0:
            raise InvalidParams(f"epsilon must be positive, got {self.epsilon}")
        if self.epsilon > MAX_EPSILON:
            raise InvalidParams(
                f"epsilon={self.epsilon} is above {MAX_EPSILON:.6g}, where "
                f"exp(epsilon) overflows float64")
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
    seed: int | None  # None when the noise came from OS entropy

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
    """Smallest sigma for unit sensitivity; scales linearly in sensitivity.

    Newton steps on log g against log sigma, where g is `gaussian_condition`,
    start from the classic sqrt(2 ln(1.25/delta))/epsilon. Since
    exp(epsilon) * phi(-a-b) = phi(a-b), the derivative is
    g'(sigma) = -phi(1/(2 sigma) - epsilon sigma) / sigma**2. Every
    evaluation narrows a bracket g(lo) > delta >= g(hi), and a step that
    would leave it halves the bracket in log sigma instead. Once a step
    moves sigma by less than _REL_TOL, its root r is certified as bisection
    certifies: g(r(1 + tol)) <= delta < g(r(1 - tol)), and r(1 + tol) is
    returned. The upward slack matters: in the tails g rounds by about 1e-9
    relative, so r itself can miss delta.
    """
    # every accepted epsilon gives g(lo) = 1 and g(hi) <= 0 at these ends
    lo, hi = sys.float_info.min, sys.float_info.max
    log_delta = math.log(delta)
    sigma = min(math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon, hi)
    for _ in range(_MAX_STEPS):
        value = gaussian_condition(1.0, epsilon, sigma)
        if value <= delta:
            hi = sigma
        else:
            lo = sigma
        if hi - lo <= _REL_TOL * hi:
            return hi
        x = 0.5 / sigma - epsilon * sigma
        density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        target = math.nan
        if value > 0.0 and density > 0.0:
            # an overflow here gives inf or nan, which the bracket test refuses
            step = (math.log(value) - log_delta) * sigma * value / density
            if abs(step) <= MAX_EPSILON:  # exp(step) is finite
                target = sigma * math.exp(step)
        if not lo < target < hi:
            sigma = math.sqrt(lo) * math.sqrt(hi)
        elif abs(target - sigma) > _REL_TOL * target:
            sigma = target
        else:
            up, down = target * (1.0 + _REL_TOL), target * (1.0 - _REL_TOL)
            if gaussian_condition(1.0, epsilon, up) <= delta < gaussian_condition(
                    1.0, epsilon, down):
                return up
            sigma = math.sqrt(lo) * math.sqrt(hi)
    raise InvalidParams(f"calibration did not converge for epsilon={epsilon}, "
                        f"delta={delta}")


def calibrate_sigma(delta2: float, params: PrivacyParams) -> float:
    """Smallest noise scale meeting (epsilon, delta) at L2-sensitivity delta2.

    The condition depends only on sigma/delta2, so the unit-sensitivity ratio
    is solved once and scaled; the returned sigma never exceeds the classic
    sqrt(2 ln(1.25/delta))/epsilon bound when epsilon <= 1. Raises
    `InvalidParams` when delta2 is not positive and finite, or when the
    scaled sigma is 0, subnormal or infinite.
    """
    if not (delta2 > 0 and math.isfinite(delta2)):
        raise InvalidParams(f"sensitivity must be positive and finite, got {delta2}")
    sigma = delta2 * _sigma_ratio(params.epsilon, params.delta)
    # a product that underflows to a subnormal or to 0 has lost the precision
    # the calibration certified, and one that overflows is no noise scale
    if not sys.float_info.min <= sigma <= sys.float_info.max:
        raise InvalidParams(
            f"sensitivity {delta2} at epsilon={params.epsilon}, delta={params.delta} "
            f"gives sigma={sigma}, which is not a normal float64")
    return sigma


def clip(data, bounds: Bounds) -> tuple[np.ndarray, float]:
    """Project data onto its declared interval; reports the altered fraction."""
    arr = np.asarray(data, dtype=np.float64)
    lo, hi = bounds.lo, bounds.hi
    if lo.shape != () and lo.shape != arr.shape:
        raise ShapeMismatch(
            f"bounds of shape {lo.shape} cannot clip data of shape {arr.shape}")
    clipped = arr.clip(lo, hi)  # what np.clip calls, without its wrapper
    # the same bits as float(np.mean(clipped != arr)), in less time
    fraction = int(np.count_nonzero(clipped != arr)) / arr.size if arr.size else 0.0
    return clipped, fraction


def privatize(program: CompiledProgram, data: Mapping[str, Any],
              params: PrivacyParams, report: SensitivityReport,
              seed: int | None = None) -> MechanismOutput:
    """Clip, evaluate, and release the query output under Gaussian noise.

    Each bounded group of `program.leaf_groups` is clipped by one `clip`
    call on the concatenation of its leaves' data, the unbounded leaves are
    packed into their group's vector as given, and the program runs once on
    these vectors, one per group. The caller's arrays are never mutated, and
    data for names the program does not declare are ignored. A missing leaf raises `MissingInput`, a leaf of the wrong shape
    `ShapeMismatch`, and a value that is not real numbers, or a NaN or Inf
    that reaches `execute`, `NumericalError`; an Inf in a bounded leaf is
    clipped and counted. Without a seed the noise is drawn from OS entropy
    and the output records no seed. A given seed must be a non-negative
    integer, of any integer type but bool, and the output records it as an
    `int`; anyone who holds it can regenerate the noise and subtract it, so
    a seed is for tests and replays, never for a published release. The
    output L2-norm is summed with scaling, so it overflows only if the norm
    itself exceeds float64.

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

    if seed is not None:
        try:
            seed = _index(seed)
        except ValueError:
            raise InvalidParams(
                f"seed must be a non-negative integer, got {seed!r}") from None
        if seed < 0:
            raise InvalidParams(f"seed must be non-negative, got {seed}")

    vectors = []
    altered = bounded = 0
    for bounds, members in program.leaf_groups:
        if bounds is None:
            vectors.append(group_vector(data, members))
            continue
        if len(members) == 1:  # per-element bounds clip data of the leaf's shape
            name, dims, _, size, _ = members[0]
            clipped, fraction = clip(leaf_array(data, name, dims), bounds)
            clipped = clipped.reshape(size)
        else:
            clipped, fraction = clip(np.concatenate(
                [leaf_array(data, name, dims).ravel() for name, dims, *_ in members]),
                bounds)
        vectors.append(clipped)
        # clip's fraction is count / size correctly rounded, so this is the count
        altered += round(fraction * clipped.size)
        bounded += clipped.size
    clipped_fraction = altered / bounded if bounded else 0.0

    raw = execute(program, vectors)
    sigma = calibrate_sigma(report.bound, params)
    rng = np.random.default_rng(seed)
    noisy = {}
    for name, value in zip(program.output_names, raw):
        noisy[name] = value + rng.normal(0.0, sigma, size=value.shape)
    # hypot scales as it sums, so no square overflows; of one value it is |v|
    norm = math.hypot(*np.concatenate([v.ravel() for v in raw]).tolist())
    return MechanismOutput(
        value=noisy,
        sigma=sigma,
        clipped_fraction=clipped_fraction,
        output_l2_norm=norm,
        seed=seed,
    )
