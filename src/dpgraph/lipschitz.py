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

The sampling set-up serves both phases at once. One stable sort of the
doubled set's rows by their first coordinate, with the rows that tie there
(the box's corners) sorted again as byte strings, orders them and drops
repeats (`_unique_rows`); the first set is a mask over the result. Each
phase starts from its MAX_STARTS highest stars: feasible samples with at
least k other samples of the phase strictly closer than their nearest
strictly higher one, which, unless samples tie at the k-th nearest distance,
are those no lower than any of their k exact nearest neighbours (Törn &
Viitanen 1992). `_stars` tests the samples from the highest value down and
stops once both phases have their starts, so only the samples it tests get
distance rows (`_distance_rows`), a block at a time; each block serves both
phases.

A point of the Jacobian objective is the J program's leaf-group vectors
(`runtime.LeafGroup`) laid end to end, so both of its programs, J and the
vector-Jacobian product that gives the sigma_max gradient, bind each group
from a view of one column block of a stack of points. A gradient that traps
at a point is NaN there, which stops that start of the ascent.

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

A point's bytes are its only key, and `_Recorder` is the one memo: it keys
each distinct point once and keeps under that key the point's value and
what the objective's values carried for it (`_Kept`), which for the
Jacobian objective is the top singular vectors of J there. The ascent hands
each gradient call the vectors of its points, so a gradient runs only the
vector-Jacobian product and never J. The grid oracle, which takes no
gradients, bypasses the memo. When the optimized Jacobian graph's output is
a Constant, as on every mean or sum query, J is decomposed once and its
triple serves every point, with no execute.
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


class _Kept(np.ndarray):
    """An array that carries `kept`, a list of one item per row: on the
    values an objective returns, what to keep beside each point's value; on
    the stack a gradient is asked for, what was kept at each of its points.
    Any other array has no `kept`."""

    kept: list | None = None


def _keeping(array: np.ndarray, kept: list) -> np.ndarray:
    """A view of `array` that carries `kept`."""
    view = array.view(_Kept)
    view.kept = kept
    return view


class _Recorder:
    """Wraps a stacked objective as the one memo of a maximization: each
    distinct point is evaluated once and keyed once, by its own bytes, and
    the key holds the point's value and the item that the objective's values
    carried for it as `kept` (None when they carried none). Tracks the best
    feasible value in the order the points were first evaluated."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn
        self.memo: dict[bytes, tuple[float, object]] = {}
        self.keeps = False  # whether fn's values have carried `kept`
        self.best_value = -np.inf
        self.best_point: np.ndarray | None = None

    @property
    def count(self) -> int:
        return len(self.memo)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of a (k, d) stack."""
        memo = self.memo
        return np.array([memo[key][0] for key in self._record(points)])

    def evaluate(self, points: np.ndarray) -> tuple[np.ndarray, list]:
        """Values at the rows of a (k, d) stack, and the item kept at each."""
        found = [self.memo[key] for key in self._record(points)]
        return np.array([value for value, _ in found]), [item for _, item in found]

    def _record(self, points: np.ndarray) -> list[bytes]:
        """The keys of a stack's rows, after the first copy of each unseen row
        has been evaluated; a stack whose rows are all unseen and distinct
        reaches fn as it is."""
        keys = [p.tobytes() for p in points]
        fresh: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in self.memo:
                fresh.setdefault(key, i)
        if fresh:
            rows = list(fresh.values())
            values, kept = self._evaluate(points if len(rows) == len(points)
                                          else points[rows])
            for key, i, value, item in zip(fresh, rows, values, kept):
                self.memo[key] = value, item
                if value > self.best_value:
                    self.best_value = value
                    self.best_point = np.array(points[i])
        return keys

    def _evaluate(self, points: np.ndarray) -> tuple[np.ndarray, list]:
        values = np.full(len(points), -np.inf)  # a point that traps stays -inf
        kept: list = [None] * len(points)

        def run(start, stop):
            out = self.fn(points[start:stop])
            values[start:stop] = np.asarray(out, dtype=np.float64).reshape(stop - start)
            if getattr(out, "kept", None) is not None:
                self.keeps = True
                kept[start:stop] = out.kept

        _halving(run, 0, len(points))
        return np.where(np.isnan(values), -np.inf, values), kept


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
    When the objective keeps items (`_Kept`), each start carries its point's
    item, and the stack a gradient is asked for carries them.
    Returns the final points and their values."""
    x = np.clip(starts, lo, hi)
    fx, kept = f.evaluate(x)
    width = float(np.max(hi - lo))
    step = np.full(len(x), 0.25 * width or 1.0)
    flat_streak = np.zeros(len(x), dtype=int)
    climbing = np.flatnonzero(np.isfinite(fx))
    for _ in range(MAX_REFINE_ITERS):
        if climbing.size == 0:
            break
        at_points = x[climbing]
        if f.keeps:
            at_points = _keeping(at_points, [kept[i] for i in climbing])
        g = np.asarray(gradient(at_points), dtype=np.float64)
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
                fc[moved], found = f.evaluate(cand[moved])
            better = fc > fx[at]
            won = at[better]
            gain = fc[better] - fx[won]
            x[won], fx[won] = cand[better], fc[better]
            # a winner moved, so its item is at its rank among the moved
            for i, j in zip(won, np.cumsum(moved)[better] - 1):
                kept[i] = found[j]
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
    return np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])


def _sample_points(lo, hi, config: OptimizerConfig
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase B's points, each once and in lexicographic row order, the mask
    of phase A's points among them, and a spare (m, d) buffer, m at least
    the number of points, that nothing else holds. Both phases come from one
    shifted Sobol' draw of 2n points, n = config.n_samples: A takes the
    first n, B all 2n, and both the midpoint and the corners, which are
    drawn once.

    Every row is written into the one buffer that the gather of the
    distinct rows leaves spare: A's Sobol' rows, the midpoint and the
    corners first, so that the first copy of a point is A's whenever A has
    one, then B's other Sobol' rows. A Sobol' row is its integer point times
    2^-BITS, times hi - lo, plus lo: the bits of lo + unit * (hi - lo)."""
    d, n = lo.size, config.n_samples
    few = 2 ** d <= MAX_CORNER_SAMPLES
    n_corners = 2 ** d if few else MAX_CORNER_SAMPLES
    end_a = n + 1 + n_corners
    rows = np.empty((end_a + n, d))
    integers = _sobol.sobol_integers(d, 2 * n, config.seed)
    for part, points in ((rows[:n], integers[:n]), (rows[end_a:], integers[n:])):
        np.multiply(points, 2.0 ** -_sobol.BITS, out=part)
        part *= hi - lo
        part += lo
    del integers
    rows[n] = (lo + hi) / 2.0
    corners = rows[n + 1:end_a]
    if few:
        corners[:] = list(itertools.product(*zip(lo, hi)))
    else:
        rng = np.random.default_rng(config.seed + 1)
        np.copyto(corners, hi)
        np.copyto(corners, lo, where=rng.integers(0, 2, size=corners.shape) == 0)
    first = _unique_rows(rows)
    return rows[first], first < end_a, rows


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
    of rows at high dimension). A single point arrives as a stack of one.
    Each distinct point is evaluated once, remembered by its bytes; values
    that carry `kept` (`_Kept`) have each row's item remembered with it, and
    a gradient is asked for on a stack that carries its points' items. The
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

    pts_b, in_a, spare = _sample_points(lo, hi, config)
    # phase A's rows are evaluated first: the best value keeps the first of
    # equal values, and on a mean query every value is equal. Both phases'
    # rows are gathered into the sampler's spare buffer, A's first (mode
    # "clip" writes there directly; the indices are in range)
    order = np.argsort(~in_a, kind="stable")
    stack = np.take(pts_b, order, axis=0, out=spare[:len(pts_b)], mode="clip")
    n_a = int(np.count_nonzero(in_a))
    vals_b = np.empty(len(pts_b))
    vals_b[order[:n_a]] = f(stack[:n_a])
    vals_b[order[n_a:]] = f(stack[n_a:])
    if f.best_point is None:
        raise OptimizerFailure("no feasible objective evaluation in the box")
    # neighbours are nearest in the box scaled to the unit cube, written over
    # the evaluated stack
    unit = np.subtract(pts_b, lo, out=stack)
    unit /= np.maximum(hi - lo, 1e-30)
    starts_b, starts_a = _stars(unit, vals_b, in_a)
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
    """Spectral norm of the Jacobian as a function of the boxed free tensors.

    A point is the vectors of the J program's leaf groups
    (`runtime.LeafGroup`) laid end to end, so its programs bind each group
    from a view of one column block of a stack of points. The gradient
    program, the vector-Jacobian product of the optimized J graph, has the
    same groups followed by its cotangent's, and is built with J. The
    objective remembers no point: its values carry the top singular vectors
    of J at each point as `kept`, which a `_Recorder` keeps under the
    point's key and `gradient` reads from the stack it is given. When the
    optimized Jacobian graph's output is a Constant, its triple is decomposed
    once and serves every point. A point where the gradient program traps
    gets a NaN gradient, which stops its start of the ascent."""

    def __init__(self, graph: Graph, wrt):
        self.program = runtime.compile(jacobian(graph, wrt).graph)
        g = self.program.optimized_graph
        # each group's columns of a point, and each leaf's name, dims and
        # columns, in the point's order
        self._groups: list[slice] = []
        self._slices: list[tuple[str, tuple[int, ...], int, int]] = []
        lo_parts, hi_parts = [], []
        offset = 0
        for b, members in self.program.leaf_groups:
            if b is None:
                raise ValidationFailed([Diagnostic(
                    "missing-bounds",
                    f"'{members[0][0]}' has no bounds; bound it or freeze it",
                    g.find(members[0][0]))])
            size = members[-1][3]
            self._groups.append(slice(offset, offset + size))
            self._slices += [(name, dims, offset + start, offset + stop)
                             for name, dims, start, stop, _ in members]
            lo_parts.append(np.broadcast_to(b.lo.ravel(), (size,)))
            hi_parts.append(np.broadcast_to(b.hi.ravel(), (size,)))
            offset += size
        self.lo = np.concatenate(lo_parts)
        self.hi = np.concatenate(hi_parts)
        grad_graph, _ = vjp(g, [g.find(name) for name, *_ in self._slices])
        self._grad_program = runtime.compile(grad_graph)
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

    def __call__(self, v: np.ndarray):
        """sigma_max(J) at each row of a (k, d) stack; -inf where J cannot be
        evaluated. A point of shape (d,) is a stack of one and gets a float.

        The stack is evaluated by one batched execute and one stacked
        spectral norm. The values carry the top singular vectors (u, w) of J
        at each point as `kept`, for `gradient`.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 1:
            return float(self(v[None, :])[0])
        sigmas, us, ws = self._triples(v)
        return _keeping(sigmas, list(zip(us, ws)))

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
            points = stack[start:stop]
            (js,) = runtime.execute(self.program, [points[:, c] for c in self._groups],
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

        The singular vectors seed the cotangent. `_ascend` asks only at
        points whose recorded value is finite, on a stack that carries the
        vectors `__call__` gave there as `kept`, so only the vector-Jacobian
        product program runs, in one batched execute that binds the point's
        group slices and the cotangents; a stack without them has its
        triples found first. Nothing is remembered: a gradient asked for
        twice is computed twice. A point where the gradient program traps
        gets a row of NaN, logged once, and `_ascend` stops that start.
        """
        if np.ndim(v) == 1:
            return self.gradient(np.asarray(v, dtype=np.float64)[None, :])[0]
        kept = getattr(v, "kept", None)
        v = np.asarray(v, dtype=np.float64)
        k = len(v)
        if kept is None:
            u, w = self._triples(v)[1:]
        else:
            u, w = map(np.array, zip(*kept))
        # the cotangent u w^T of each point, as its (k, R*C) vector
        cotangents = (u[:, :, None] * w[:, None, :]).reshape(k, -1)
        grads = np.empty((k, self.dim))

        def run(start, stop):
            points = v[start:stop]
            vectors = [points[:, c] for c in self._groups] + [cotangents[start:stop]]
            outs = runtime.execute(self._grad_program, vectors,
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
    over its box as a free coordinate. Methods: `global_opt` (sampling plus
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
