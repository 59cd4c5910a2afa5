"""Sensitivity bounds via global maximization of the Jacobian spectral norm.

The maximizer follows a simplicial-sampling scheme: low-discrepancy samples
over the box, a nearest-neighbour complex to identify locally maximal sample
stars, then projected gradient ascent from each star. The convergence
certificate is heuristic: the stationary-value set must be stable when the
sample count is doubled. When it is not, the result is still a valid lower
bound (it is the max over every point evaluated) but is flagged with a
warning instead of a certificate. The doubled set extends the first one's
Sobol sequence, and no point is evaluated twice.

The objective is evaluated on stacks of points: each sampling phase, and
each chunk of the grid oracle, is one batched `runtime.execute` followed by
one stacked SVD, while the ascent evaluates single points.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import qmc

from .autodiff import jacobian, vjp
from .errors import (
    DimensionTooLarge,
    InvalidParams,
    NonFinite,
    NumericalError,
    OptimizerFailure,
    ValidationFailed,
)
from .graph import Diagnostic, Graph, OpKind
from .interval import ibp_sensitivity
from .report import SensitivityReport
from . import runtime

METHODS = ("ibp", "global_opt", "grid_oracle")

_log = logging.getLogger("dpgraph")


# ---------------------------------------------------------------------------
# spectral norm

_SVD_MAX_SIDE = 64
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 1000


def spectral_norm(matrix) -> float:
    """Largest singular value; equals the Euclidean norm for vectors."""
    return spectral_norm_with_vectors(matrix)[0]


def spectral_norm_with_vectors(matrix) -> tuple[float, np.ndarray, np.ndarray]:
    """(sigma, u, v) with sigma = u^T M v the largest singular triple."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2:
        m = np.atleast_2d(m)
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or Inf")
    if min(m.shape) <= _SVD_MAX_SIDE:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        return float(s[0]), u[:, 0], vt[0]
    return _power_iteration(m)


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a (k, R, C) stack, equal bit
    for bit to `spectral_norm` of each; -inf for a matrix holding NaN or Inf."""
    ms = np.asarray(stack, dtype=np.float64)
    sigmas = np.full(len(ms), -np.inf)
    finite = np.isfinite(ms).all(axis=(1, 2))
    if min(ms.shape[1:]) <= _SVD_MAX_SIDE:
        if finite.any():
            sigmas[finite] = np.linalg.svd(ms[finite], full_matrices=False)[1][:, 0]
    else:
        for i in np.flatnonzero(finite):
            sigmas[i] = _power_iteration(ms[i])[0]
    return sigmas


def _power_iteration(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    rows, cols = m.shape
    gram_on_right = cols <= rows
    n = cols if gram_on_right else rows
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = m.T @ (m @ v) if gram_on_right else m @ (m.T @ v)
        lam = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0, np.zeros(rows), np.zeros(cols)
        v = w / norm_w
        if abs(lam - lam_prev) <= _POWER_TOL * max(1.0, abs(lam)):
            break
        lam_prev = lam
    sigma = float(np.sqrt(max(lam, 0.0)))
    if gram_on_right:
        right = v
        left = m @ v
    else:
        left = v
        right = m.T @ v
    left_n = np.linalg.norm(left)
    right_n = np.linalg.norm(right)
    return sigma, left / (left_n or 1.0), right / (right_n or 1.0)


# ---------------------------------------------------------------------------
# optimizer configuration


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the global maximizer and the grid oracle."""

    n_samples: int = 128          # initial low-discrepancy samples
    max_starts: int = 16          # refinement starts per phase
    max_refine_iters: int = 100
    seed: int = 0
    value_tol: float = 1e-9
    certificate_rtol: float = 1e-4
    grid_resolution: int = 201
    grid_dim_cap: int = 4
    include_corners: bool = True
    max_corner_samples: int = 64
    freeze: Mapping | None = None  # tensor name -> fixed value, removed from the box


class MaximizeResult(NamedTuple):
    argmax: np.ndarray
    value: float
    certificate: bool
    warning: str | None
    n_evaluations: int


# ---------------------------------------------------------------------------
# global maximization


def _point_key(x: np.ndarray) -> bytes:
    # a digest of the bytes, so that keys stay small at 10^4 dimensions
    return hashlib.blake2b(x.tobytes(), digest_size=16).digest()


class _Recorder:
    """Wraps a stacked objective and its gradient: evaluates each distinct
    point once, by the bytes of the point, and tracks the best feasible
    value in the order the points were first evaluated."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], gradient=None):
        self.fn = fn
        self.grad_fn = gradient
        self.values: dict[bytes, float] = {}
        self.grads: dict[bytes, np.ndarray] = {}
        self.best_value = -np.inf
        self.best_point: np.ndarray | None = None

    @property
    def count(self) -> int:
        return len(self.values)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of a (k, d) stack; only unseen rows reach fn."""
        keys = [_point_key(p) for p in points]
        fresh: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in self.values and key not in fresh:
                fresh[key] = i
        if fresh:
            rows = list(fresh.values())
            for key, i, value in zip(fresh, rows, self._evaluate(points[rows])):
                self.values[key] = value
                if value > self.best_value:
                    self.best_value = value
                    self.best_point = np.array(points[i])
        return np.array([self.values[key] for key in keys])

    def at(self, x: np.ndarray) -> float:
        return float(self(x[None, :])[0])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        key = _point_key(x)
        if key not in self.grads:
            self.grads[key] = self.grad_fn(x)
        return self.grads[key]

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        try:
            values = np.asarray(self.fn(points), dtype=np.float64).reshape(len(points))
        except FloatingPointError:
            if len(points) == 1:
                return np.array([-np.inf])
            values = np.concatenate([self._evaluate(p[None, :]) for p in points])
        return np.where(np.isnan(values), -np.inf, values)


def _fd_gradient(f, x, lo, hi, rel_step=1e-6):
    """Central differences of a stacked objective, one point per call."""
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


def _ascend(f: _Recorder, x0, lo, hi, config: OptimizerConfig):
    x = np.clip(np.asarray(x0, dtype=np.float64), lo, hi)
    fx = f.at(x)
    if not np.isfinite(fx):
        return x, fx
    step = 0.25 * float(np.max(hi - lo)) or 1.0
    flat_streak = 0
    for _ in range(config.max_refine_iters):
        g = f.gradient(x)
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
            fc = f.at(cand)
            if fc > fx:
                gain = fc - fx
                x, fx = cand, fc
                step = min(s * 2.0, float(np.max(hi - lo)))
                improved = True
                if gain <= config.value_tol * (1.0 + abs(fx)):
                    flat_streak += 1
                else:
                    flat_streak = 0
                break
            s *= 0.5
        if not improved or flat_streak >= 2:
            break
    return x, fx


def _sample_points(lo, hi, n, config: OptimizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Phase A's and phase B's point sets from one scrambled Sobol draw of 2n
    points: A takes the first n, B all 2n, and both the midpoint and the
    corners, which are drawn once."""
    d = lo.size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        unit = qmc.Sobol(d, scramble=True, seed=config.seed).random(2 * n)
    extra = [(lo + hi)[None, :] / 2.0]
    if config.include_corners:
        if 2 ** d <= config.max_corner_samples:
            corners = np.array(list(itertools.product(*zip(lo, hi))))
        else:
            rng = np.random.default_rng(config.seed + 1)
            picks = rng.integers(0, 2, size=(config.max_corner_samples, d))
            corners = np.where(picks == 0, lo, hi)
        extra.append(corners)

    def point_set(u):
        return np.unique(np.concatenate([lo + u * (hi - lo)] + extra, axis=0), axis=0)

    return point_set(unit[:n]), point_set(unit)


def _value_groups(values, rtol) -> int:
    finite = sorted((v for v in values if np.isfinite(v)), reverse=True)
    if not finite:
        return 0
    groups = 1
    for prev, cur in zip(finite, finite[1:]):
        if prev - cur > rtol * max(1.0, abs(prev)):
            groups += 1
    return groups


def global_maximize(objective, box, config: OptimizerConfig | None = None,
                    gradient=None) -> MaximizeResult:
    """Maximize a pure objective over an axis-aligned box.

    `objective` maps a (k, d) stack of points to their k values; a single
    point arrives as a stack of one. Each distinct point is evaluated once:
    values and gradients are remembered by the bytes of the point, so the
    second sampling phase, which contains the first, and the ascents it
    repeats cost nothing again. `gradient`, if given, maps one point of
    shape (d,) to its gradient; otherwise central differences are taken.

    Returns the best point evaluated anywhere in the procedure, a heuristic
    stability certificate, and the number of distinct points evaluated.
    Points where the objective is NaN or raises FloatingPointError are
    treated as infeasible.
    """
    config = config or OptimizerConfig()
    lo = np.asarray(box[0], dtype=np.float64).ravel()
    hi = np.asarray(box[1], dtype=np.float64).ravel()
    if lo.shape != hi.shape or np.any(lo > hi) or not (
            np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidParams("box must be finite with lo <= hi")
    f = _Recorder(objective, gradient)
    if lo.size == 0:
        value = f.at(np.zeros(0))
        if not np.isfinite(value):
            raise OptimizerFailure("objective is infeasible")
        return MaximizeResult(np.zeros(0), value, True, None, f.count)
    if gradient is None:
        f.grad_fn = lambda x: _fd_gradient(f, x, lo, hi)
    span = np.maximum(hi - lo, 1e-30)

    def run_phase(pts: np.ndarray):
        vals = f(pts)
        feasible = np.isfinite(vals)
        if not np.any(feasible):
            return -np.inf, 0
        k = int(min(2 * lo.size + 2, 16, len(pts) - 1))
        if k >= 1 and len(pts) > 1:
            tree = cKDTree(pts / span)
            _, nbr = tree.query(pts / span, k=k + 1)
            is_star_max = feasible & (vals >= vals[nbr[:, 1:]].max(axis=1))
            candidates = np.flatnonzero(is_star_max)
        else:
            candidates = np.flatnonzero(feasible)
        order = candidates[np.argsort(-vals[candidates])][:config.max_starts]
        refined_vals = []
        for idx in order:
            _, fv = _ascend(f, pts[idx], lo, hi, config)
            if np.isfinite(fv):
                refined_vals.append(fv)
        if not refined_vals:
            best = float(np.max(vals[feasible]))
            return best, 1
        return max(refined_vals), _value_groups(refined_vals,
                                                config.certificate_rtol)

    pts_a, pts_b = _sample_points(lo, hi, config.n_samples, config)
    best_a, groups_a = run_phase(pts_a)
    best_b, groups_b = run_phase(pts_b)
    if f.best_point is None:
        raise OptimizerFailure("no feasible objective evaluation in the box")

    stable = (
        groups_a == groups_b
        and np.isfinite(best_a) and np.isfinite(best_b)
        and abs(best_a - best_b) <= config.certificate_rtol * max(1.0, abs(best_b))
    )
    warning = None
    if not stable:
        warning = ("stationary set changed under sample doubling; "
                   "reporting the best evaluated point without a certificate")
    return MaximizeResult(f.best_point, f.best_value, stable, warning, f.count)


# ---------------------------------------------------------------------------
# sensitivity estimation over graphs


class _JacobianObjective:
    """Spectral norm of the Jacobian as a function of the boxed free tensors."""

    def __init__(self, graph: Graph, wrt, config: OptimizerConfig):
        graph.require_valid()
        self.config = config
        self.jg = jacobian(graph, wrt)
        self.program = runtime.compile(self.jg.graph)
        frozen_spec = dict(config.freeze or {})
        self.frozen: dict[str, np.ndarray] = {}
        self.free: list[tuple[str, tuple[int, ...]]] = []
        lo_parts, hi_parts = [], []
        g = self.jg.graph
        for h in g.leaves():
            node = g.nodes[h]
            if node.name in frozen_spec:
                value = np.asarray(frozen_spec[node.name], dtype=np.float64)
                if value.shape != node.shape.dims:
                    raise InvalidParams(
                        f"frozen value for '{node.name}' expects shape "
                        f"{node.shape}, got {value.shape}")
                self.frozen[node.name] = value
                continue
            b = g.bounds.get(h)
            if b is None:
                raise ValidationFailed([Diagnostic(
                    "missing-bounds",
                    f"'{node.name}' has no bounds and is not frozen", h)])
            lo, hi = b.broadcast_to(node.shape)
            self.free.append((node.name, node.shape.dims))
            lo_parts.append(lo.ravel())
            hi_parts.append(hi.ravel())
        self.lo = np.concatenate(lo_parts) if lo_parts else np.zeros(0)
        self.hi = np.concatenate(hi_parts) if hi_parts else np.zeros(0)
        self._slices: list[tuple[str, tuple[int, ...], int, int]] = []
        pos = 0
        for name, dims in self.free:
            size = int(np.prod(dims)) if dims else 1
            self._slices.append((name, dims, pos, pos + size))
            pos += size
        self._grad_program = None
        self._cotangent = ""
        # the last point evaluated (as bytes) with its J and top singular triple
        self._last_key: bytes | None = None
        self._last: tuple[np.ndarray, float, np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.lo.size

    def unpack(self, v: np.ndarray) -> dict[str, np.ndarray]:
        """Input values for one point v of shape (d,), or for each row of a
        (k, d) stack with a leading batch axis; frozen tensors are shared."""
        v = np.asarray(v)
        batch = v.shape[:-1]
        inputs = dict(self.frozen)
        for name, dims, start, stop in self._slices:
            inputs[name] = v[..., start:stop].reshape(batch + dims)
        return inputs

    def jacobian_at(self, v: np.ndarray) -> np.ndarray:
        (j,) = runtime.execute(self.program, self.unpack(v))
        return j

    def _evaluate(self, v: np.ndarray):
        """(J, sigma, u, w) at v; the last point's values are reused."""
        key = np.asarray(v, dtype=np.float64).tobytes()
        if key != self._last_key:
            j = self.jacobian_at(v)
            self._last = (j, *spectral_norm_with_vectors(j))
            self._last_key = key
        return self._last

    def __call__(self, v: np.ndarray):
        """sigma_max(J) at each row of a (k, d) stack, or at one point v of
        shape (d,); -inf where J cannot be evaluated.

        One point, or a stack of one, takes the unbatched path, which keeps
        J and its singular triple for `gradient`. A larger stack is evaluated
        by batched executes in chunks of `runtime.chunk_points`.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 1:
            return self._value(v)
        if len(v) == 1:
            return np.array([self._value(v[0])])
        step = runtime.chunk_points(self.program)
        return np.concatenate([self._values(v[i:i + step])
                               for i in range(0, len(v), step)])

    def _value(self, v: np.ndarray) -> float:
        try:
            return self._evaluate(v)[1]
        except (NumericalError, NonFinite):
            return -np.inf

    def _values(self, stack: np.ndarray) -> np.ndarray:
        """Batched executes and a stacked sigma. A point that traps is -inf;
        the points before it are evaluated without it, and evaluation
        resumes after it."""
        values = np.full(len(stack), -np.inf)
        start = 0
        while start < len(stack):
            stop = len(stack)
            try:
                values[start:stop] = spectral_norms(self._jacobians(stack[start:stop]))
            except NumericalError as err:
                if err.point is None:  # no single point to blame: all fail
                    break
                stop = start + err.point  # the first point that traps
                if stop > start:
                    values[start:stop] = spectral_norms(self._jacobians(stack[start:stop]))
            start = stop + 1
        return values

    def _jacobians(self, stack: np.ndarray) -> np.ndarray:
        (js,) = runtime.execute(self.program, self.unpack(stack),
                                batch_shape=(len(stack),))
        return js

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """d sigma_max / dv by one reverse pass over the Jacobian graph.

        For a top singular triple (sigma, u, w) of J(v), the gradient of
        sigma is the gradient of <u w^T, J(v)> with u and w held fixed, so
        the vector-Jacobian product of the Jacobian graph seeded with the
        cotangent u w^T gives it. The identity holds where sigma_max is
        simple; where it is repeated, the result is the derivative along
        the singular pair that the decomposition returned. At the point the
        objective evaluated last, J and the triple are reused, so only the
        vector-Jacobian product program runs.
        """
        if self._grad_program is None:
            g = self.jg.graph
            grad_graph, self._cotangent = vjp(
                g, [g.find(name) for name, _ in self.free])
            self._grad_program = runtime.compile(grad_graph)
        try:
            j, _, u, w = self._evaluate(v)
            inputs = self.unpack(v)
            inputs[self._cotangent] = np.outer(u, w).reshape(j.shape)
            grads = runtime.execute(self._grad_program, inputs)
        except (NumericalError, NonFinite) as err:
            _log.warning("sigma_max gradient falls back to finite differences "
                         "at a point of the box: %s", err)
            return _fd_gradient(self, v, self.lo, self.hi)
        return np.concatenate([grad.ravel() for grad in grads])


def _grid_chunks(lo, hi, resolution, size):
    """The grid's points in row-major order, as (<= size, d) stacks."""
    axes = [np.linspace(lo[i], hi[i], resolution) for i in range(lo.size)]
    points = itertools.product(*axes)
    while chunk := list(itertools.islice(points, size)):
        yield np.array(chunk).reshape(len(chunk), lo.size)


def estimate_sensitivity(graph: Graph, wrt=None, bounds=None,
                         method: str = "global_opt",
                         config: OptimizerConfig | None = None) -> SensitivityReport:
    """Bound sup of the Jacobian spectral norm over the bounded box.

    `wrt` selects the differentiation targets (default: all private inputs);
    every non-frozen Input/Parameter still varies over its box as a free
    coordinate of the supremum. `bounds` overrides the graph's own bounds.
    Methods: `global_opt` (sampling plus refined ascent), `grid_oracle`
    (brute force, small dimensions only), `ibp` (interval baseline).
    """
    if method not in METHODS:
        raise InvalidParams(f"unknown method {method!r}; expected one of {METHODS}")
    config = config or OptimizerConfig()
    if bounds is not None:
        graph = replace(graph, bounds=bounds)
    if wrt is None:
        wrt = list(graph.private_inputs) or list(graph.leaves())
    else:
        wrt = list(wrt)

    t0 = time.perf_counter()
    fingerprint = runtime.graph_fingerprint(graph)

    if method == "ibp":
        target = graph
        if config.freeze:
            target = _freeze_bounds(graph, config.freeze)
        report = ibp_sensitivity(target, wrt=wrt)
        return replace(report, fingerprint=fingerprint,
                       wall_time=time.perf_counter() - t0)

    objective = _JacobianObjective(graph, wrt, config)

    if method == "grid_oracle":
        if objective.dim > config.grid_dim_cap:
            raise DimensionTooLarge(
                f"grid oracle supports at most {config.grid_dim_cap} free "
                f"scalar variables, domain has {objective.dim}")
        best_val, best_pt = -np.inf, None
        for chunk in _grid_chunks(objective.lo, objective.hi, config.grid_resolution,
                                  runtime.chunk_points(objective.program)):
            vals = objective(chunk)
            i = int(np.argmax(vals))  # the first of equal values, as in row order
            if vals[i] > best_val:
                best_val, best_pt = vals[i], chunk[i]
        if best_pt is None or not np.isfinite(best_val):
            raise OptimizerFailure("grid oracle found no feasible point")
        return SensitivityReport(
            method="grid_oracle", bound=float(best_val),
            interval_low=float(best_val), certified=False,
            argmax=objective.unpack(best_pt),
            wall_time=time.perf_counter() - t0, fingerprint=fingerprint,
            n_evaluations=config.grid_resolution ** objective.dim)

    result = global_maximize(objective, (objective.lo, objective.hi), config,
                             gradient=objective.gradient)
    return SensitivityReport(
        method="global_opt", bound=float(result.value),
        interval_low=float(result.value), certified=result.certificate,
        argmax=objective.unpack(result.argmax),
        wall_time=time.perf_counter() - t0, fingerprint=fingerprint,
        warning=result.warning, n_evaluations=result.n_evaluations)


def _freeze_bounds(graph: Graph, freeze: Mapping) -> Graph:
    bounds = graph.bounds.copy()
    for name, value in freeze.items():
        h = graph.find(name)
        if graph.nodes[h].kind not in (OpKind.INPUT, OpKind.PARAMETER):
            raise InvalidParams(f"cannot freeze non-leaf node '{name}'")
        bounds.set(h, value, value)
    return replace(graph, bounds=bounds)
