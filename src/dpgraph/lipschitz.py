"""Sensitivity bounds via global maximization of the Jacobian spectral norm.

The maximizer follows a simplicial-sampling scheme: low-discrepancy samples
over the box, a nearest-neighbour complex to identify locally maximal sample
stars, then projected gradient ascent from each star. The convergence
certificate is heuristic: the stationary-value set must be stable when the
sample count is doubled. When it is not, the result is still a valid lower
bound (it is the max over every point evaluated) but is flagged with a
warning instead of a certificate. The doubled set extends the first one's
Sobol' sequence, and no point is evaluated twice. The samples are digitally
shifted Sobol' points from `_sobol`, a NumPy engine that builds them from Joe
& Kuo's direction-number table: scipy's unscrambled `qmc.Sobol` points, each
XOR one random word per dimension drawn from the seed.

The sampling set-up serves both phases at once. The samples stay in the
order they are drawn, the first set's Sobol' rows, the box's midpoint and
its corners, then the doubled set's other Sobol' rows, so the first set is
a prefix of the second. A corner is drawn once, and a Sobol' row repeats no
other row on a coordinate of nonzero width, so only a box with no width has
equal samples; the point memo (`_Recorder`) is the one dedupe. Each phase
starts from its MAX_STARTS highest stars: feasible samples with at least k
other samples of the phase strictly closer than their nearest strictly
higher one, which, unless samples tie at the k-th nearest distance, are
those no lower than any of their k exact nearest neighbours (Törn & Viitanen
1992). `_stars` tests the samples from the highest value down and
stops once both phases have their starts, so only the samples it tests get
distance rows (`_distance_rows`), a block at a time; each block serves both
phases.

A point of the Jacobian objective is the J program's bounded leaf-group
vectors (`runtime.LeafGroup`) laid end to end, so both of its programs, J
and the vector-Jacobian product that gives the sigma_max gradient, bind each
group from a view of one column block of a stack of points. The unbounded
group is bound to zeros when J reads none of its leaves, and refused when J
reads one. A gradient that traps at a point is NaN there, which stops that
start of the ascent.

The objective and its gradient are evaluated on stacks of points: each
sampling phase, and each chunk of the grid oracle, is one batched
`runtime.execute` followed by one stacked spectral norm. When J has one row
or one column, as on every wrt=x query of a scalar output, sigma_max is the
Euclidean norm of that vector, taken by a scaled pairwise sum with no BLAS
or LAPACK call; any other J takes one stacked SVD. A stack on which an
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

`global_maximize` hands its objective and gradient plain (k, d) arrays
and takes back plain arrays. A point's bytes are its only key, and
`_Recorder` is the maximizer's one memo: it keys each distinct point once
and keeps the point's value under that key. The Jacobian objective keeps
what it needs itself: the top singular vectors of J at each point where it
evaluates J, under the point's bytes, which its gradient reads back, so a
gradient at an evaluated point runs only the vector-Jacobian product and
never J. The grid oracle, which takes no gradients, bypasses the memo. When
the optimized Jacobian graph's output is a Constant, as on every mean or sum
query, J is decomposed once and its triple serves every point, with no
execute and no key.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import jacobian, vjp
from .errors import (
    DimensionTooLarge,
    InvalidParams,
    NonFinite,
    NumericalError,
    OptimizerFailure,
    ShapeMismatch,
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
    """(sigma, u, v) with sigma = u^T M v the largest singular triple.

    Raises `NumericalError` when `matrix` is not an array of real numbers,
    `ShapeMismatch` when it is empty or has more than two axes, and
    `NonFinite` when it holds NaN or Inf."""
    m = np.atleast_2d(runtime.real_array(matrix, "matrix"))
    if m.ndim != 2 or m.size == 0:
        raise ShapeMismatch(f"expected a non-empty matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or Inf")
    sigmas, us, ws = spectral_norms_with_vectors(m[None])
    return float(sigmas[0]), us[0], ws[0]


def spectral_norms_with_vectors(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma, u, w) of each matrix of a (k, R, C) stack, R and C >= 1; sigma
    is -inf, with zero vectors, for a matrix holding NaN or Inf. A matrix
    gets the same bits in any stack.

    The path is chosen by the matrices' shape. When R or C is 1 each matrix
    is a vector v, and its triple is (||v||, v / ||v||, [1]) on the sides
    they belong to (`_vector_triples`); a zero vector gets the unit vectors
    e_1 and [1], as the SVD gives it. Any other shape takes one stacked SVD
    of the finite matrices."""
    ms = np.asarray(stack, dtype=np.float64)
    k, rows, cols = ms.shape
    finite = np.isfinite(ms).all(axis=(1, 2))
    good = ms if finite.all() else ms[finite]
    if rows == 1 or cols == 1:
        s, vectors = _vector_triples(good.reshape(len(good), rows * cols))
        ones = np.ones((len(good), 1))
        u, w = (ones, vectors) if rows == 1 else (vectors, ones)
    else:
        u, s, vt = np.linalg.svd(good, full_matrices=False)
        s, u, w = s[:, 0], u[:, :, 0], vt[:, 0]
    if good is ms:
        return s, u, w
    sigmas, us, ws = np.full(k, -np.inf), np.zeros((k, rows)), np.zeros((k, cols))
    sigmas[finite], us[finite], ws[finite] = s, u, w
    return sigmas, us, ws


def _vector_triples(vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Euclidean norm of each row of a finite (k, n) stack, n >= 1, and
    the row divided by it (e_1 for a zero row).

    Each row is scaled by 2^-e, e the exponent of its largest |v|, so that
    its squares neither overflow nor underflow where they matter, and the
    squares are summed by NumPy's pairwise sum along the row (Blue 1978;
    Higham 2002, section 4.2). Scaling by a power of two is exact, so the
    norm is off by a few ulps at most at any scale, and no BLAS or LAPACK
    routine runs."""
    exponent = np.frexp(np.max(np.abs(vs), axis=1))[1]
    scaled = np.ldexp(vs, -exponent[:, None])
    root = np.sqrt(np.sum(scaled * scaled, axis=1))
    zero = root == 0.0
    vectors = scaled / np.where(zero, 1.0, root)[:, None]
    vectors[zero, 0] = 1.0
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return np.ldexp(root, exponent), vectors


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
    """What a caller chooses for the global maximizer and the grid oracle; a
    parameter is held at a known value by `graph.freeze`, not here."""

    n_samples: int = 128          # low-discrepancy samples of the first phase
    seed: int = 0
    grid_resolution: int = 201

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
    """Wraps a stacked objective as the one memo of a maximization: each
    distinct point is evaluated once and keyed once, by its own bytes, and
    the key holds the point's value. Tracks the best feasible value in the
    order the points were first evaluated."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn
        self.memo: dict[bytes, float] = {}
        self.best_value = -np.inf
        self.best_point: np.ndarray | None = None

    @property
    def count(self) -> int:
        return len(self.memo)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of a (k, d) stack, after the first copy of each
        unseen row has been evaluated; a stack whose rows are all unseen and
        distinct reaches fn as it is."""
        memo = self.memo
        keys = [p.tobytes() for p in points]
        fresh: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in memo:
                fresh.setdefault(key, i)
        if fresh:
            rows = list(fresh.values())
            values = self._evaluate(points if len(rows) == len(points) else points[rows])
            for key, i, value in zip(fresh, rows, values):
                memo[key] = value
                if value > self.best_value:
                    self.best_value = value
                    self.best_point = np.array(points[i])
        return np.array([memo[key] for key in keys])

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        values = np.full(len(points), -np.inf)  # a point that traps stays -inf

        def run(start, stop):
            out = self.fn(points[start:stop])
            values[start:stop] = np.asarray(out, dtype=np.float64).reshape(stop - start)

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
        norm_g = _row_norms(g)
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


def _row_norms(g: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a (k, d) stack, with the bits that
    `np.linalg.norm` gives the row alone: both take the row's dot product
    with itself, where norm(axis=1) may sum in another order."""
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])


def _sample_points(lo, hi, config: OptimizerConfig) -> tuple[np.ndarray, int]:
    """Both phases' points in the order they are drawn, and n_a: phase A is
    the first n_a rows, phase B all of them. One shifted Sobol' draw of 2n
    points, n = config.n_samples, serves both: the rows are A's n Sobol'
    rows, the midpoint, the corners, then B's other n Sobol' rows. A Sobol'
    row is its integer point times 2^-BITS, times hi - lo, plus lo: the bits
    of lo + unit * (hi - lo).

    Each corner is drawn once: every corner when the box has at most
    MAX_CORNER_SAMPLES, with one value for a coordinate whose ends are equal,
    else the first copy of each of MAX_CORNER_SAMPLES random bit patterns,
    read with zero-width coordinates at lo. Each one-dimensional projection
    of a Sobol' sequence is a (0,1)-sequence in base 2, and a digital shift
    is a bijection, so Sobol' rows differ on a coordinate of nonzero width:
    rows repeat only on a box with no width, and `_Recorder` evaluates a
    repeated row once."""
    d, n = lo.size, config.n_samples
    if 2 ** d <= MAX_CORNER_SAMPLES:
        corners = list(itertools.product(*[(a,) if a == b else (a, b)
                                           for a, b in zip(lo, hi)]))
    else:
        rng = np.random.default_rng(config.seed + 1)
        bits = (rng.integers(0, 2, size=(MAX_CORNER_SAMPLES, d)) == 1) & (lo != hi)
        corners = np.where(list({row.tobytes(): row for row in bits}.values()), hi, lo)
    n_a = n + 1 + len(corners)
    points = np.empty((n_a + n, d))
    integers = _sobol.sobol_integers(d, 2 * n, config.seed)
    for part, rows in ((points[:n], integers[:n]), (points[n_a:], integers[n:])):
        np.multiply(rows, 2.0 ** -_sobol.BITS, out=part)
        part *= hi - lo
        part += lo
    del integers
    points[n] = (lo + hi) / 2.0
    points[n + 1:n_a] = corners
    return points, n_a


# OpenBLAS runs a matrix product of m x k by k x n on one thread when
# m * n * k is at most this; above it, the idle worker threads spin after
# the product and `time.process_time` counts their spin
_ONE_THREAD_PRODUCT = 1 << 18


def _distance_rows(z: np.ndarray, norms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (len(rows), m) squared distances from each z[i], i in rows, to
    every row of a (m, d) array z, +inf to z[i] itself; `norms` holds the
    squared norms of z's rows. A squared distance is ||a||^2 + ||b||^2 -
    2 a.b, the a.b from Gram tiles small enough to run on one thread."""
    m, d = z.shape
    tile_rows = max(1, min(len(rows), math.isqrt(_ONE_THREAD_PRODUCT // max(d, 1))))
    tile_cols = max(1, _ONE_THREAD_PRODUCT // (tile_rows * max(d, 1)))
    block = np.empty((len(rows), m))
    for i in range(0, len(rows), tile_rows):
        left = z[rows[i:i + tile_rows]]
        for j in range(0, m, tile_cols):
            block[i:i + tile_rows, j:j + tile_cols] = left @ z[j:j + tile_cols].T
    block *= -2.0
    block += norms[rows, None]
    block += norms[None, :]
    block[np.arange(len(rows)), rows] = np.inf
    return block


def _is_star(block: np.ndarray, ahead: np.ndarray, higher: np.ndarray,
             columns, k: int) -> np.ndarray:
    """Whether each row of a block of squared distances has at least k of
    the columns that the mask `columns` holds (every column when None)
    strictly closer than its nearest strictly higher row. `ahead` is the
    phase's feasible rows from the highest value down; a row's strictly
    higher rows are the first `higher` of them, counts that do not decrease
    down the block, so each row's nearest one is a prefix minimum."""
    ahead = ahead[:higher.max(initial=0)]
    prefix = np.arange(len(ahead)) < higher[:, None]
    nearest = np.where(prefix, np.take(block, ahead, axis=1), np.inf).min(
        axis=1, initial=np.inf)
    closer = block < nearest[:, None]
    if columns is not None:
        closer = closer[:, columns]
    return np.count_nonzero(closer, axis=1) >= k


def _stars(z: np.ndarray, vals: np.ndarray,
           subset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The starts of both sampling phases, as indices into the rows of a
    (m, d) array z: of all its rows, and of the rows that the mask subset
    holds, the MAX_STARTS highest stars, highest first and ties in index
    order. A star is a feasible row with at least k other rows of its phase
    strictly closer than its nearest row of the phase with a strictly higher
    value, or with no higher row; k is 2d + 2, at most 16 and below the
    phase's number of rows. When no other row lies at the k-th nearest
    distance, a star is a row no lower than any of its k nearest other rows;
    when some do, a higher one among them makes it no star.

    The rows are tested in that order, a block of distance rows at a time
    (MAX_STARTS rows, then at most `runtime.BATCH_BYTES` of distances), until
    both phases have their starts; the subset's order is the whole set's
    restricted to it, so each block serves both phases."""
    m, d = z.shape
    k, k_subset = (min(2 * d + 2, 16, n - 1) for n in (m, int(subset.sum())))
    norms = np.einsum("ij,ij->i", z, z)
    feasible = np.flatnonzero(np.isfinite(vals))
    walk = feasible[np.argsort(-vals[feasible], kind="stable")]
    # each phase's feasible rows in walk order, and for each of them how many
    # of those have a strictly higher value
    phases = []
    for ahead, columns, k_phase in ((walk, None, k), (walk[subset[walk]], subset, k_subset)):
        keys = -vals[ahead]  # ascending
        higher = np.zeros(m, dtype=np.intp)
        higher[ahead] = np.searchsorted(keys, keys, side="left")
        phases.append((ahead, higher, columns, k_phase))
    found: tuple[list, list] = ([], [])
    rows_per_block = max(1, runtime.BATCH_BYTES // (8 * m))
    size = min(MAX_STARTS, rows_per_block)
    while walk.size and min(map(len, found)) < MAX_STARTS:
        if len(found[0]) == MAX_STARTS:
            walk = walk[subset[walk]]
        rows, walk = walk[:size], walk[size:]
        block = _distance_rows(z, norms, rows)
        for stars, in_phase, (ahead, higher, columns, k_phase) in zip(
                found, (slice(None), subset[rows]), phases):
            if len(stars) < MAX_STARTS:
                tested = rows[in_phase]
                star = _is_star(block[in_phase], ahead, higher[tested], columns, k_phase)
                stars.extend(tested[star][:MAX_STARTS - len(stars)])
        size = rows_per_block
    return tuple(np.array(stars, dtype=np.intp) for stars in found)


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
    of rows at high dimension). A single point arrives as a stack of one,
    and every stack is a plain `np.ndarray`. Each distinct point is
    evaluated once, its value remembered by its bytes, and a gradient is
    asked for only at points already evaluated to a value above -inf. The
    first sampling phase is a prefix of the second, so both are evaluated,
    first phase first, and then the distinct union of their starts ascends
    once, in lockstep (see `_ascend`); each phase reads its stationary
    values at its own starts.

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

    points, n_a = _sample_points(lo, hi, config)
    # phase A's rows are evaluated first: the best value keeps the first of
    # equal values, and on a mean query every value is equal
    vals = np.empty(len(points))
    vals[:n_a] = f(points[:n_a])
    vals[n_a:] = f(points[n_a:])
    if f.best_point is None:
        raise OptimizerFailure("no feasible objective evaluation in the box")
    # neighbours are nearest in the box scaled to the unit cube
    unit = points - lo
    unit /= np.maximum(hi - lo, 1e-30)
    starts_b, starts_a = _stars(unit, vals, np.arange(len(points)) < n_a)
    union = np.concatenate([starts_a, starts_b[~np.isin(starts_b, starts_a)]])
    refined = np.full(len(points), -np.inf)
    refined[union] = _ascend(f, gradient, points[union], lo, hi)[1]

    def stationary(vals: np.ndarray, phase_starts: np.ndarray):
        """A phase's best stationary value and its number of distinct ones."""
        feasible = vals[np.isfinite(vals)]
        if not feasible.size:
            return -np.inf, 0
        found = [float(v) for v in refined[phase_starts] if np.isfinite(v)]
        if not found:
            return float(feasible.max()), 1
        return max(found), _value_groups(found, CERTIFICATE_RTOL)

    best_a, groups_a = stationary(vals[:n_a], starts_a)
    best_b, groups_b = stationary(vals, starts_b)

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
    """Spectral norm of the Jacobian as a function of the boxed free tensors.

    A point is the vectors of the J program's bounded leaf groups
    (`runtime.LeafGroup`) laid end to end, so its programs bind each group
    from a view of one column block of a stack of points. The gradient
    program, the vector-Jacobian product of the optimized J graph, has the
    same groups, its cotangent the last member of the unbounded group, and
    is built with J. An unbounded leaf that J does not read is no coordinate
    of the box, and both programs bind it to zeros; one that J reads is
    refused. The objective keeps the top singular vectors of J at each point
    where it evaluates J (`_vectors`, keyed by the point's bytes), and
    `gradient` reads them there. When the optimized Jacobian graph's output
    is a Constant, its triple is decomposed once and serves every point, and
    no point is keyed. A point where the gradient program traps gets a NaN
    gradient, which stops its start of the ascent."""

    def __init__(self, graph: Graph, wrt):
        self.program = runtime.compile(jacobian(graph, wrt).graph)
        g = self.program.optimized_graph
        # each bounded group's columns of a point, and each of its leaves'
        # name, dims and columns, in the point's order
        self._groups: list[slice] = []
        self._slices: list[tuple[str, tuple[int, ...], int, int]] = []
        # the index and size of the unbounded group, which J does not read
        self._unread: tuple[int, int] | None = None
        lo_parts, hi_parts = [], []
        offset = 0
        for i, (b, members) in enumerate(self.program.leaf_groups):
            size = members[-1][3]
            if b is None:
                read = [name for name, *_, slot in members if slot is not None]
                if read:
                    raise ValidationFailed([Diagnostic(
                        "missing-bounds", f"'{read[0]}' has no bounds; bound it or freeze it",
                        g.find(read[0]))])
                self._unread = i, size
                continue
            self._groups.append(slice(offset, offset + size))
            self._slices += [(name, dims, offset + start, offset + stop)
                             for name, dims, start, stop, _ in members]
            lo_parts.append(np.broadcast_to(b.lo.ravel(), (size,)))
            hi_parts.append(np.broadcast_to(b.hi.ravel(), (size,)))
            offset += size
        self.lo = np.concatenate(lo_parts) if lo_parts else np.zeros(0)
        self.hi = np.concatenate(hi_parts) if hi_parts else np.zeros(0)
        # a box with no coordinates takes no gradient
        self._grad_program = runtime.compile(vjp(
            g, [g.find(name) for name, *_ in self._slices])[0]) if self._slices else None
        self._vectors: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        # (sigma, u, w) of J when it is the same Constant at every point
        self._constant = None
        out = g.nodes[g.outputs[0]]
        if out.kind is OpKind.CONSTANT:
            matrix = np.reshape(out.attrs["value"], self.program.output_dims[0])
            self._constant = tuple(a[0] for a in spectral_norms_with_vectors(matrix[None]))

    @property
    def dim(self) -> int:
        return self.lo.size

    def unpack(self, v: np.ndarray) -> dict[str, np.ndarray]:
        """Input values, by leaf name, for one point v of shape (d,)."""
        v = np.asarray(v)
        return {name: v[start:stop].reshape(dims)
                for name, dims, start, stop in self._slices}

    def _bind(self, points: np.ndarray, cotangents: np.ndarray | None = None) -> list:
        """The group vectors of the J program at a stack of points, or, given
        their cotangents, of the gradient program."""
        vectors = [points[:, c] for c in self._groups]
        if self._unread is None:
            return vectors if cotangents is None else vectors + [cotangents]
        at, size = self._unread
        if cotangents is None:
            unbounded = np.zeros(size)
        else:
            unbounded = np.zeros((len(points), size + cotangents.shape[1]))
            unbounded[:, size:] = cotangents
        vectors.insert(at, unbounded)
        return vectors

    def __call__(self, v: np.ndarray):
        """sigma_max(J) at each row of a (k, d) stack; -inf where J cannot be
        evaluated. A point of shape (d,) is a stack of one and gets a float.

        The stack is evaluated by one batched execute and one stacked
        spectral norm. Unless J is a Constant, the top singular vectors
        (u, w) of J at each point where J is evaluated are kept for
        `gradient`.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 1:
            return float(self(v[None, :])[0])
        sigmas, us, ws = self._triples(v)
        if self._constant is None:
            for i in np.flatnonzero(sigmas != -np.inf):
                self._vectors[v[i].tobytes()] = us[i], ws[i]
        return sigmas

    def _triples(self, stack: np.ndarray):
        """(sigma, u, w) of J at each point of a stack. A point that traps is
        -inf with zero vectors; `_halving` evaluates the points around it
        without it. A constant J traps only at a point with NaN or Inf, as
        `runtime.execute` would, and is -inf everywhere when it holds one."""
        k = len(stack)
        rows, cols = self.program.output_dims[0]
        if self._constant is not None:
            sigma, u, w = self._constant
            sigmas = np.where(np.isfinite(stack).all(axis=1), sigma, -np.inf)
            return sigmas, np.broadcast_to(u, (k, rows)), np.broadcast_to(w, (k, cols))
        sigmas, us, ws = np.full(k, -np.inf), np.zeros((k, rows)), np.zeros((k, cols))

        def run(start, stop):
            (js,) = runtime.execute(self.program, self._bind(stack[start:stop]),
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

        The singular vectors seed the cotangent. `global_maximize` asks only
        at points where the objective evaluated J, whose vectors `__call__`
        kept, so only the vector-Jacobian product program runs, in one
        batched execute that binds the point's group slices and the
        cotangents. A constant J's vectors are broadcast, and a stack that
        holds a point with no kept vectors has its triples found first.
        Nothing else is remembered: a gradient asked for twice is computed
        twice. A point where the gradient program traps gets a row of NaN,
        logged once, and `_ascend` stops that start.
        """
        if np.ndim(v) == 1:
            return self.gradient(np.asarray(v, dtype=np.float64)[None, :])[0]
        v = np.asarray(v, dtype=np.float64)
        k = len(v)
        if self._constant is not None:
            _, u, w = self._constant
            u, w = np.broadcast_to(u, (k, u.size)), np.broadcast_to(w, (k, w.size))
        else:
            kept = [self._vectors.get(p.tobytes()) for p in v]
            if kept and all(item is not None for item in kept):
                u, w = map(np.array, zip(*kept))
            else:
                u, w = self._triples(v)[1:]
        # the cotangent u w^T of each point, as its (k, R*C) vector
        cotangents = (u[:, :, None] * w[:, None, :]).reshape(k, -1)
        grads = np.empty((k, self.dim))

        def run(start, stop):
            outs = runtime.execute(self._grad_program,
                                   self._bind(v[start:stop], cotangents[start:stop]),
                                   batch_shape=(stop - start,))
            for (_, _, a, b), out in zip(self._slices, outs):
                grads[start:stop, a:b] = out.reshape(stop - start, b - a)

        for i, err in sorted(_halving(run, 0, k).items()):
            _log.warning("sigma_max gradient cannot be evaluated at a point of "
                         "the box; its ascent stops there: %s", err)
            grads[i] = np.nan
        return grads


def _grid_chunks(lo, hi, resolution, size):
    """The grid's points in row-major order, as (<= size, d) stacks."""
    axes = [np.linspace(lo[i], hi[i], resolution) for i in range(lo.size)]
    points = itertools.product(*axes)
    while chunk := list(itertools.islice(points, size)):
        yield np.array(chunk).reshape(len(chunk), lo.size)


def estimate_sensitivity(graph: Graph, wrt=None,
                         method: str = "global_opt",
                         config: OptimizerConfig | None = None) -> SensitivityReport:
    """Bound sup of the Jacobian spectral norm over the bounded box.

    `wrt` selects the differentiation targets (default: all private inputs);
    every Input and Parameter, unless `graph.freeze` made it a Constant, varies
    over its box as a free coordinate; an unbounded one that the Jacobian
    does not read is none, and one that it reads is refused with
    `ValidationFailed`. Methods: `global_opt` (sampling plus
    refined ascent), `grid_oracle` (brute force, small dimensions only),
    `ibp` (interval baseline).
    """
    if method not in METHODS:
        raise InvalidParams(f"unknown method {method!r}; expected one of {METHODS}")
    config = config or OptimizerConfig()
    if wrt is None:
        wrt = list(graph.private_inputs) or list(graph.leaves())
    else:
        wrt = list(wrt)

    t0 = time.perf_counter()
    fingerprint = runtime.graph_fingerprint(graph)
    if method == "ibp":
        found = dict(bound=ibp_bound(graph, wrt), interval_low=0.0,
                     certified=True, argmax=None)
    else:
        objective = _JacobianObjective(graph, wrt)
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
