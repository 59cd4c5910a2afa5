"""Sensitivity bounds via global maximization of the Jacobian spectral norm.

The maximizer follows a simplicial-sampling scheme: low-discrepancy samples
over the box, a nearest-neighbour complex to identify locally maximal sample
stars, then projected gradient ascent from each star. The convergence
certificate is heuristic: the stationary-value set must be stable when the
sample count is doubled. When it is not, the result is still a valid lower
bound (it is the max over every point evaluated) but is flagged with a
warning instead of a certificate. The doubled set extends the first one's
Sobol' sequence, and no point is evaluated twice. The samples are scrambled
Sobol' points from `_sobol`, a NumPy engine that builds them from Joe &
Kuo's direction-number table, bit for bit those of scipy's `qmc.Sobol`.

The sampling set-up serves both phases at once. One stable sort of the
doubled set's rows by their first coordinate, with the rows that tie there
(the box's corners) sorted again as byte strings, orders them and drops
repeats (`_unique_rows`); the first set is a mask over the result. The
neighbours are exact k-nearest ones, found by brute force for every dimension
(`_nearest`): squared distances from Gram products, in tiles that BLAS runs
on one thread, in blocks of rows; each block serves both phases.

The objective and its gradient are evaluated on stacks of points: each
sampling phase, and each chunk of the grid oracle, is one batched
`runtime.execute` followed by one stacked SVD. A stack on which an
evaluation traps (Log or Div at a pole, Pow overflow) is halved down to the
points that trap, which are infeasible, while the points around them keep
their values; `_halving` is the one place that does this, for J, for the
sigma_max gradient and for a caller's own objective.

The first phase's set is part of the second's, so one ascent serves both:
the distinct union of the two phases' starts ascends in lockstep, and each
phase reads its stationary values at its own starts. Each iteration takes
one stacked gradient of the starts still climbing, and each halving of the
line search evaluates one stack of the starts still searching, so every
start visits the points it would visit alone. A start whose projected step
lands on its own point leaves the line search at once and stops climbing:
every shorter step lands there too, so the remaining halvings of its 30
would evaluate nothing.

A point's bytes are its only key. `_Recorder` evaluates each distinct point
once, and the Jacobian objective keeps the top singular vectors of J at
every feasible point it evaluates. The ascent asks for gradients only at
such points, so a gradient runs only the vector-Jacobian product and never
J. The grid oracle, which takes no gradients, bypasses the memo.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .autodiff import jacobian, vjp
from .errors import (
    DimensionTooLarge,
    InvalidParams,
    NonFinite,
    NumericalError,
    OptimizerFailure,
    ValidationFailed,
)
from .graph import Diagnostic, Graph, OpKind, _count
from .interval import ibp_bound
from .report import SensitivityReport
from . import _sobol, runtime

METHODS = ("ibp", "global_opt", "grid_oracle")

_log = logging.getLogger("dpgraph")


# ---------------------------------------------------------------------------
# spectral norm

def spectral_norm(matrix) -> float:
    """Largest singular value; equals the Euclidean norm for vectors."""
    return spectral_norm_with_vectors(matrix)[0]


def spectral_norm_with_vectors(matrix) -> tuple[float, np.ndarray, np.ndarray]:
    """(sigma, u, v) with sigma = u^T M v the largest singular triple."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or Inf")
    sigmas, us, ws = spectral_norms_with_vectors(m[None])
    return float(sigmas[0]), us[0], ws[0]


def spectral_norms_with_vectors(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma, u, w) of each matrix of a (k, R, C) stack, from one stacked
    SVD of its finite matrices whatever their shape; sigma is -inf, with
    zero vectors, for a matrix holding NaN or Inf. A matrix gets the same
    bits in any stack."""
    ms = np.asarray(stack, dtype=np.float64)
    k, rows, cols = ms.shape
    sigmas, us, ws = np.full(k, -np.inf), np.zeros((k, rows)), np.zeros((k, cols))
    finite = np.isfinite(ms).all(axis=(1, 2))
    if finite.any():
        u, s, vt = np.linalg.svd(ms[finite], full_matrices=False)
        sigmas[finite], us[finite], ws[finite] = s[:, 0], u[:, :, 0], vt[:, 0]
    return sigmas, us, ws


# ---------------------------------------------------------------------------
# optimizer configuration

# The search policy, fixed for every call.
MAX_STARTS = 16            # ascent starts per sampling phase
MAX_REFINE_ITERS = 100     # ascent iterations per phase
VALUE_TOL = 1e-9           # relative gain below which an ascent step is flat
CERTIFICATE_RTOL = 1e-4    # relative gap at which two stationary values differ
MAX_CORNER_SAMPLES = 64    # box corners sampled; all of them up to 2^6
GRID_DIM_CAP = 4           # free scalars the grid oracle accepts


@dataclass(frozen=True)
class OptimizerConfig:
    """What a caller chooses for the global maximizer and the grid oracle."""

    n_samples: int = 128          # low-discrepancy samples of the first phase
    seed: int = 0
    grid_resolution: int = 201
    freeze: Mapping | None = None  # tensor name -> fixed value, removed from the box

    def __post_init__(self):
        # stored as plain ints; a grid axis needs both of its ends
        for name, least in (("n_samples", 1), ("seed", 0), ("grid_resolution", 2)):
            object.__setattr__(self, name, _count(getattr(self, name), least, name))


class MaximizeResult(NamedTuple):
    argmax: np.ndarray
    value: float
    certificate: bool
    warning: str | None
    n_evaluations: int


# ---------------------------------------------------------------------------
# global maximization


class _Recorder:
    """Wraps a stacked objective: evaluates each distinct point once, keyed
    by the point's own bytes, and tracks the best feasible value in the
    order the points were first evaluated."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn
        self.values: dict[bytes, float] = {}
        self.best_value = -np.inf
        self.best_point: np.ndarray | None = None

    @property
    def count(self) -> int:
        return len(self.values)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of a (k, d) stack; only the first copy of each
        unseen row reaches fn."""
        keys = [p.tobytes() for p in points]
        fresh: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in self.values:
                fresh.setdefault(key, i)
        if fresh:
            rows = list(fresh.values())
            for key, i, value in zip(fresh, rows, self._evaluate(points[rows])):
                self.values[key] = value
                if value > self.best_value:
                    self.best_value = value
                    self.best_point = np.array(points[i])
        return np.array([self.values[key] for key in keys])

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        values = np.full(len(points), -np.inf)  # a point that traps stays -inf

        def run(start, stop):
            values[start:stop] = np.asarray(
                self.fn(points[start:stop]), dtype=np.float64).reshape(stop - start)

        _halving(run, 0, len(points))
        return np.where(np.isnan(values), -np.inf, values)


def _halving(run, start: int, stop: int) -> dict[int, Exception]:
    """Calls run(start, stop) on the points [start, stop) of a stack; when
    that raises NumericalError or FloatingPointError, halves the range down
    to the single points that trap. Returns those points with their errors.
    Each level of halving evaluates at most the k points of the range, so
    the cost is at most k(1 + ceil(log2 k)) point evaluations."""
    if start == stop:
        return {}
    try:
        run(start, stop)
        return {}
    except (NumericalError, FloatingPointError) as err:
        if stop - start == 1:
            return {start: err}
    mid = (start + stop) // 2
    return {**_halving(run, start, mid), **_halving(run, mid, stop)}


def _fd_gradient(f, xs, lo, hi, rel_step=1e-6):
    """Central differences of a stacked objective at each row of a (k, d)
    stack. Every x +- h e_i row whose coordinate can move is evaluated, in
    the order point, coordinate, then + before -, by one call of f per
    `runtime.BATCH_BYTES` of rows."""
    h = rel_step * np.maximum(hi - lo, 1.0)
    up = np.minimum(xs + h, hi)
    down = np.maximum(xs - h, lo)
    dx = up - down
    point, coord = np.nonzero(dx)
    values = np.empty(2 * len(point))
    step = max(1, runtime.BATCH_BYTES // (16 * max(xs.shape[1], 1)))
    for start in range(0, len(point), step):
        p, i = point[start:start + step], coord[start:start + step]
        rows = np.repeat(xs[p], 2, axis=0)
        n = np.arange(len(p))
        rows[2 * n, i], rows[2 * n + 1, i] = up[p, i], down[p, i]
        values[2 * start:2 * (start + len(p))] = f(rows)
    fp, fm = values[0::2], values[1::2]
    ok = np.isfinite(fp) & np.isfinite(fm)
    g = np.zeros_like(xs)
    g[point[ok], coord[ok]] = (fp[ok] - fm[ok]) / dx[point[ok], coord[ok]]
    return g


def _ascend(f: _Recorder, gradient, starts: np.ndarray, lo, hi):
    """Projected gradient ascent from each row of a (k, d) stack of starts,
    in lockstep. Each start keeps its own point, value, step and streak of
    flat gains, so it follows the path it would follow alone; each iteration
    calls `gradient` once, on the stack of the starts still climbing, and
    each halving of the line search evaluates one stack of the starts still
    halving. A start whose projected candidate is its own point stops halving
    at once and, having found no better point, stops climbing: a halved step
    rounds and projects back onto the point again (halving is exact and
    rounding monotone), so the 30 halvings would evaluate nothing more.
    Returns the final points and their values."""
    x = np.clip(starts, lo, hi)
    fx = f(x)
    width = float(np.max(hi - lo))
    step = np.full(len(x), 0.25 * width or 1.0)
    flat_streak = np.zeros(len(x), dtype=int)
    climbing = np.flatnonzero(np.isfinite(fx))
    for _ in range(MAX_REFINE_ITERS):
        if climbing.size == 0:
            break
        g = np.asarray(gradient(x[climbing]), dtype=np.float64)
        # the norm of each row alone: norm(axis=1) may sum in another order
        norm_g = np.array([np.linalg.norm(row) for row in g])
        moves = (norm_g != 0.0) & np.isfinite(norm_g)
        climbing = climbing[moves]
        direction = g[moves] / norm_g[moves, None]
        s = step[climbing]
        searching = np.ones(len(climbing), dtype=bool)  # no better point yet
        halving = searching.copy()
        for _ in range(30):
            rows = np.flatnonzero(halving)
            if rows.size == 0:
                break
            at = climbing[rows]
            cand = np.clip(x[at] + s[rows, None] * direction[rows], lo, hi)
            moved = np.any(cand != x[at], axis=1)
            fc = np.full(len(rows), -np.inf)  # a candidate that did not move
            if moved.any():
                fc[moved] = f(cand[moved])
            better = fc > fx[at]
            won = at[better]
            gain = fc[better] - fx[won]
            x[won], fx[won] = cand[better], fc[better]
            step[won] = np.minimum(s[rows[better]] * 2.0, width)
            flat = gain <= VALUE_TOL * (1.0 + np.abs(fx[won]))
            flat_streak[won] = np.where(flat, flat_streak[won] + 1, 0)
            searching[rows[better]] = False
            halving[rows[better | ~moved]] = False
            s[rows[~better]] *= 0.5
        climbing = climbing[~searching & (flat_streak[climbing] < 2)]
    return x, fx


def _sample_points(lo, hi, config: OptimizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Phase B's points, each once and in lexicographic row order, and the
    mask of phase A's points among them. Both phases come from one scrambled
    Sobol draw of 2n points, n = config.n_samples: A takes the first n, B all
    2n, and both the midpoint and the corners, which are drawn once."""
    d, n = lo.size, config.n_samples
    unit = _sobol.sobol(d, 2 * n, config.seed)
    if 2 ** d <= MAX_CORNER_SAMPLES:
        corners = np.array(list(itertools.product(*zip(lo, hi))))
    else:
        rng = np.random.default_rng(config.seed + 1)
        corners = np.where(rng.integers(0, 2, size=(MAX_CORNER_SAMPLES, d)) == 0, lo, hi)
    sobol = lo + unit * (hi - lo)
    # phase A's rows come first, so that the first copy of a point is A's
    # whenever A has one
    rows = np.concatenate([sobol[:n], (lo + hi)[None, :] / 2.0, corners, sobol[n:]])
    first = _unique_rows(rows)
    return rows[first], first < n + 1 + len(corners)


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The index of the first copy of each distinct row of a (m, d) array of
    floats without NaN, d >= 1, the rows in lexicographic order. A row's -0.0
    equals its 0.0, so rows[_unique_rows(rows)] are the rows NumPy's `unique`
    gives along axis 0; of rows equal but for the sign of a zero, the first
    stays.

    A float compares as an order-preserving map of it to uint64. One stable
    sort of the first coordinate's keys orders the rows; only runs of rows
    that tie there, such as the box's corners, are sorted again, stably, by
    the big-endian bytes of all their keys, and compared row by row."""
    first = _order_keys(rows[:, 0])
    order = np.argsort(first, kind="stable")
    same = first[order[1:]] == first[order[:-1]]
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] |= same
    tied[:-1] |= same
    distinct = ~tied
    at = np.flatnonzero(tied)
    if at.size:
        keys = _order_keys(rows[order[at]]).astype(">u8")
        strings = keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel()
        resort = np.argsort(strings, kind="stable")
        order[at], strings = order[at][resort], strings[resort]
        distinct[at[0]] = True
        distinct[at[1:]] = strings[1:] != strings[:-1]
    return order[distinct]


def _order_keys(values: np.ndarray) -> np.ndarray:
    """uint64 keys of floats without NaN that order as the floats do, with
    -0.0 folded into 0.0."""
    keys = (values + 0.0).view(np.int64)
    # flips every bit of a negative float and the sign bit of the others
    keys ^= (keys >> 63) | np.int64(-2 ** 63)
    return keys.view(np.uint64)


# OpenBLAS runs a matrix product of m x k by k x n on one thread when
# m * n * k is at most this; above it, the idle worker threads spin after
# the product and `time.process_time` counts their spin
_ONE_THREAD_PRODUCT = 1 << 18


def _squared_distances(z: np.ndarray, norms: np.ndarray, side: int,
                       start: int, stop: int) -> np.ndarray:
    """The (stop - start, m) squared Euclidean distances from the rows
    start..stop of a (m, d) array to all of its rows, +inf from a row to
    itself. Each is ||a||^2 + ||b||^2 - 2 a.b, from `norms` and Gram products
    of side x side tiles; start and stop are multiples of side or m, and a
    tile whose rows and columns both lie in start..stop is taken once and
    mirrored."""
    m = len(z)
    block = np.empty((stop - start, m))
    for i in range(start, stop, side):
        for j in range(0, m, side):
            if start <= j < i:  # mirrored from the tile at (j, i)
                continue
            gram = z[i:i + side] @ z[j:j + side].T
            block[i - start:i + side - start, j:j + side] = gram
            if i < j < stop:
                block[j - start:j + side - start, i:i + side] = gram.T
    block *= -2.0
    block += norms[start:stop, None]
    block += norms[None, :]
    block[np.arange(stop - start), np.arange(start, stop)] = np.inf
    return block


def _nearest(z: np.ndarray, k_all: int, subset: np.ndarray,
             k_subset: int) -> tuple[np.ndarray, np.ndarray]:
    """The k_all nearest other rows of each row of a (m, d) array, and the
    k_subset nearest other rows of each row of z[subset] among z[subset], as
    indices into z[subset]; each k is below the number of rows it searches.

    Both come from one pass over the squared distances, in blocks of rows of
    at most `runtime.BATCH_BYTES`, with Gram tiles small enough to run on one
    thread. The search is exact up to the rounding of the distances; among
    tied distances it picks any."""
    m, d = z.shape
    rows_per_block = max(1, runtime.BATCH_BYTES // (8 * m))
    side = min(rows_per_block, max(1, math.isqrt(_ONE_THREAD_PRODUCT // max(d, 1))))
    rows_per_block -= rows_per_block % side
    norms = np.einsum("ij,ij->i", z, z)
    cols = np.flatnonzero(subset)
    near_all = np.empty((m, k_all), dtype=np.intp)
    near_subset = np.empty((len(cols), k_subset), dtype=np.intp)
    done = 0  # rows of the subset
    for start in range(0, m, rows_per_block):
        stop = min(start + rows_per_block, m)
        block = _squared_distances(z, norms, side, start, stop)
        near_all[start:stop] = np.argpartition(block, k_all - 1, axis=1)[:, :k_all]
        within = block[subset[start:stop]][:, cols]
        near_subset[done:done + len(within)] = np.argpartition(
            within, k_subset - 1, axis=1)[:, :k_subset]
        done += len(within)
    return near_all, near_subset


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

    `objective` maps a (k, d) stack of points to their k values, and
    `gradient`, if given, maps a (k, d) stack of points to their (k, d)
    gradients; otherwise central differences are taken, with the rows of
    one gradient call in one objective call (one per `runtime.BATCH_BYTES`
    of rows at high dimension). A single point arrives as a stack of one.
    Each distinct point is evaluated once, remembered by its bytes. The
    second sampling phase contains the first, so both are evaluated, first
    phase first, and then the distinct union of their starts ascends once,
    in lockstep (see `_ascend`); each phase reads its stationary values at
    its own starts.

    Returns the best point evaluated anywhere in the procedure, a heuristic
    stability certificate, and the number of distinct points evaluated.
    Points where the objective is NaN are infeasible. A stack on which it
    raises FloatingPointError or NumericalError is halved down to the points
    that raise (`_halving`), and those are infeasible too.

    Raises `DimensionTooLarge` before any sampling when the box has more
    free scalars than the Sobol' engine's direction-number table covers
    (`_sobol.max_dimension()`, 21,201).
    """
    config = config or OptimizerConfig()
    lo = np.asarray(box[0], dtype=np.float64).ravel()
    hi = np.asarray(box[1], dtype=np.float64).ravel()
    if lo.shape != hi.shape or np.any(lo > hi) or not (
            np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidParams("box must be finite with lo <= hi")
    if lo.size > _sobol.max_dimension():
        raise DimensionTooLarge(
            f"global_opt samples at most {_sobol.max_dimension()} free scalar "
            f"variables, domain has {lo.size}")
    f = _Recorder(objective)
    if lo.size == 0:
        value = float(f(np.zeros((1, 0)))[0])
        if not np.isfinite(value):
            raise OptimizerFailure("objective is infeasible")
        return MaximizeResult(np.zeros(0), value, True, None, f.count)
    if gradient is None:
        gradient = lambda xs: _fd_gradient(f, xs, lo, hi)

    def k_nearest(points: int) -> int:
        return min(2 * lo.size + 2, 16, points - 1)

    def starts(vals: np.ndarray, near: np.ndarray) -> np.ndarray:
        """The highest MAX_STARTS feasible points at least as high as their
        neighbours, as indices into vals."""
        stars = np.isfinite(vals)
        if near.shape[1]:
            stars &= vals >= vals[near].max(axis=1)
        candidates = np.flatnonzero(stars)
        return candidates[np.argsort(-vals[candidates])][:MAX_STARTS]

    pts_b, in_a = _sample_points(lo, hi, config)
    # the neighbours of each point in the box scaled to the unit cube
    span = np.maximum(hi - lo, 1e-30)
    near_b, near_a = _nearest((pts_b - lo) / span, k_nearest(len(pts_b)),
                              in_a, k_nearest(int(in_a.sum())))
    # phase A's rows are evaluated first: the best value keeps the first of
    # equal values, and on a mean query every value is equal
    f(pts_b[in_a])
    vals_b = f(pts_b)
    if f.best_point is None:
        raise OptimizerFailure("no feasible objective evaluation in the box")
    starts_a = np.flatnonzero(in_a)[starts(vals_b[in_a], near_a)]
    starts_b = starts(vals_b, near_b)
    union = np.concatenate([starts_a, starts_b[~np.isin(starts_b, starts_a)]])
    refined = np.full(len(pts_b), -np.inf)
    refined[union] = _ascend(f, gradient, pts_b[union], lo, hi)[1]

    def stationary(vals: np.ndarray, phase_starts: np.ndarray):
        """A phase's best stationary value and its number of distinct ones."""
        feasible = vals[np.isfinite(vals)]
        if not feasible.size:
            return -np.inf, 0
        found = [float(v) for v in refined[phase_starts] if np.isfinite(v)]
        if not found:
            return float(feasible.max()), 1
        return max(found), _value_groups(found, CERTIFICATE_RTOL)

    best_a, groups_a = stationary(vals_b[in_a], starts_a)
    best_b, groups_b = stationary(vals_b, starts_b)

    stable = bool(
        groups_a == groups_b
        and np.isfinite(best_a) and np.isfinite(best_b)
        and abs(best_a - best_b) <= CERTIFICATE_RTOL * max(1.0, abs(best_b))
    )
    warning = None
    if not stable:
        warning = ("stationary set changed under sample doubling; "
                   "reporting the best evaluated point without a certificate")
    return MaximizeResult(f.best_point, float(f.best_value), stable, warning, f.count)


# ---------------------------------------------------------------------------
# sensitivity estimation over graphs


class _JacobianObjective:
    """Spectral norm of the Jacobian as a function of the boxed free tensors."""

    def __init__(self, graph: Graph, wrt, config: OptimizerConfig):
        self.program = runtime.compile(jacobian(graph, wrt).graph)
        freeze = config.freeze or {}  # shapes checked by estimate_sensitivity
        self.frozen: dict[str, np.ndarray] = {}
        self.free: list[tuple[str, tuple[int, ...]]] = []
        lo_parts, hi_parts = [], []
        g = self.program.optimized_graph
        for h in g.leaves():
            node = g.nodes[h]
            if node.name in freeze:
                self.frozen[node.name] = np.asarray(freeze[node.name], dtype=np.float64)
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
        # the bytes of each feasible point evaluated -> the top singular
        # vectors (u, w) of J there
        self._vectors: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

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

    def __call__(self, v: np.ndarray):
        """sigma_max(J) at each row of a (k, d) stack; -inf where J cannot be
        evaluated. A point of shape (d,) is a stack of one and gets a float.

        The stack is evaluated by one batched execute and one stacked SVD;
        the top singular vectors of J at its feasible points are kept for
        `gradient`.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 1:
            return float(self(v[None, :])[0])
        values, u, w = self._triples(v)
        for i in np.flatnonzero(np.isfinite(values)):
            self._vectors[v[i].tobytes()] = u[i], w[i]
        return values

    def _triples(self, stack: np.ndarray):
        """(sigma, u, w) of J at each point of a stack. A point that traps is
        -inf with zero vectors; `_halving` evaluates the points around it
        without it."""
        k = len(stack)
        rows, cols = self.program.output_dims[0]
        sigmas, us, ws = np.full(k, -np.inf), np.zeros((k, rows)), np.zeros((k, cols))

        def run(start, stop):
            (js,) = runtime.execute(self.program, self.unpack(stack[start:stop]),
                                    batch_shape=(stop - start,))
            sigmas[start:stop], us[start:stop], ws[start:stop] = (
                spectral_norms_with_vectors(js))

        _halving(run, 0, k)
        return sigmas, us, ws

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """d sigma_max / dv at each row of a (k, d) stack, by one reverse pass
        over the optimized Jacobian graph; a point of shape (d,) is a stack
        of one.

        For a top singular triple (sigma, u, w) of J(v), the gradient of
        sigma is the gradient of <u w^T, J(v)> with u and w held fixed, so
        the vector-Jacobian product of the Jacobian graph seeded with the
        cotangent u w^T gives it. The identity holds where sigma_max is
        simple; where it is repeated, the result is the derivative along
        the singular pair that the decomposition returned.

        Precondition: the objective has evaluated every point of the stack
        and found it feasible, as `_ascend` asks only at points whose
        recorded value is finite. The singular vectors `__call__` kept
        there, found by the point's bytes, seed the cotangent, so only the
        vector-Jacobian product program runs, in one batched execute.
        Nothing else is remembered: a gradient asked for twice is computed
        twice. A point where the graph gradient cannot be evaluated falls
        back to finite differences alone.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 1:
            return self.gradient(v[None, :])[0]
        if self._grad_program is None:
            g = self.program.optimized_graph
            grad_graph, self._cotangent = vjp(
                g, [g.find(name) for name, _ in self.free])
            self._grad_program = runtime.compile(grad_graph)
        k = len(v)
        rows, cols = self.program.output_dims[0]
        u, w = np.empty((k, rows)), np.empty((k, cols))
        for i, point in enumerate(v):
            u[i], w[i] = self._vectors[point.tobytes()]
        grads = np.empty((k, self.dim))

        def run(start, stop):
            inputs = self.unpack(v[start:stop])
            inputs[self._cotangent] = u[start:stop, :, None] * w[start:stop, None, :]
            outs = runtime.execute(self._grad_program, inputs,
                                   batch_shape=(stop - start,))
            grads[start:stop] = np.concatenate(
                [out.reshape(stop - start, -1) for out in outs], axis=1)

        for i, err in sorted(_halving(run, 0, k).items()):
            _log.warning("sigma_max gradient falls back to finite differences "
                         "at a point of the box: %s", err)
            grads[i] = _fd_gradient(self, v[i:i + 1], self.lo, self.hi)[0]
        return grads


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
    for name, value in (config.freeze or {}).items():
        node = graph.nodes[graph.find(name)]
        if node.kind not in (OpKind.INPUT, OpKind.PARAMETER):
            raise InvalidParams(f"cannot freeze non-leaf node '{name}'")
        if np.shape(value) != node.shape.dims:
            raise InvalidParams(f"frozen value for '{name}' expects shape "
                                f"{node.shape}, got {np.shape(value)}")

    t0 = time.perf_counter()
    fingerprint = runtime.graph_fingerprint(graph)
    if method == "ibp":
        target = _freeze_bounds(graph, config.freeze) if config.freeze else graph
        found = dict(bound=ibp_bound(target, wrt), interval_low=0.0,
                     certified=True, argmax=None)
    else:
        objective = _JacobianObjective(graph, wrt, config)
        if method == "grid_oracle":
            result = _grid_maximize(objective, config)
        else:
            result = global_maximize(objective, (objective.lo, objective.hi), config,
                                     gradient=objective.gradient)
        found = dict(bound=float(result.value), interval_low=float(result.value),
                     certified=result.certificate,
                     argmax=objective.unpack(result.argmax),
                     warning=result.warning, n_evaluations=result.n_evaluations)
    return SensitivityReport(method=method, wall_time=time.perf_counter() - t0,
                             fingerprint=fingerprint, **found)


def _grid_maximize(objective: _JacobianObjective,
                   config: OptimizerConfig) -> MaximizeResult:
    """The best point of the grid, the first in row order among equal values;
    never certified."""
    if objective.dim > GRID_DIM_CAP:
        raise DimensionTooLarge(
            f"grid oracle supports at most {GRID_DIM_CAP} free "
            f"scalar variables, domain has {objective.dim}")
    best_val, best_pt = -np.inf, None
    for chunk in _grid_chunks(objective.lo, objective.hi, config.grid_resolution,
                              runtime.chunk_points(objective.program)):
        vals = objective._triples(chunk)[0]
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_pt = vals[i], chunk[i]
    if best_pt is None or not np.isfinite(best_val):
        raise OptimizerFailure("grid oracle found no feasible point")
    return MaximizeResult(best_pt, float(best_val), False, None,
                          config.grid_resolution ** objective.dim)


def _freeze_bounds(graph: Graph, freeze: Mapping) -> Graph:
    bounds = graph.bounds.copy()
    for name, value in freeze.items():
        bounds.set(graph.find(name), value, value)
    return replace(graph, bounds=bounds)
