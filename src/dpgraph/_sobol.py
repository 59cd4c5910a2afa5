"""Digitally shifted Sobol' points, without importing `scipy.stats`: the
points of scipy's `qmc.Sobol(d, scramble=False).random(n)`, bit for bit,
each XOR one random BITS-bit word per dimension.

The direction numbers come from Joe & Kuo's (2008) table of primitive
polynomials and initial direction numbers, which scipy ships as a data file
beside its Sobol' engine. The points follow the Gray-code order of Antonov &
Saleev (1979), with 30 bits, as scipy's do. The shift is d words drawn from
`np.random.default_rng(seed)`. A random digital shift keeps the net's
structure: every elementary interval holds as many points as before
(Matoušek 1998; Owen 1995). It forgoes the variance reduction of a full
scramble, which an integral would want and the ascent's starts do not, and
a second seed is a second, independent draw at the cost of d words.
"""

from __future__ import annotations

import functools
import importlib.util
import os

import numpy as np

BITS = 30


@functools.cache
def _joe_kuo() -> tuple[np.ndarray, np.ndarray]:
    """The primitive polynomials (d,) and initial direction numbers (d, 18)
    of the table, read on first use, so that a process that never samples
    never opens the file; find_spec locates scipy without importing
    scipy.stats."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = os.path.join(scipy_dir, "stats", "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        return table["poly"], table["vinit"]


def max_dimension() -> int:
    """The most dimensions the table covers: 21,201."""
    return len(_joe_kuo()[0])


# the unscrambled direction numbers of the largest d computed so far, a pure
# function of d; any smaller d takes a prefix of them
_table = np.zeros((0, BITS), dtype=np.uint32)


def _direction_numbers(d: int) -> np.ndarray:
    """The (d, BITS) unscrambled direction numbers, column j scaled by
    2^(BITS - 1 - j) (Bratley & Fox 1988, recurrence on page 90)."""
    global _table
    if d <= len(_table):
        return _table[:d]
    poly, vinit = _joe_kuo()
    poly, vinit = poly[:d], vinit[:d].astype(np.uint32)
    maxdeg = vinit.shape[1]
    degree = np.frexp(poly.astype(np.float64))[1] - 1  # floor(log2(poly))
    k = np.arange(maxdeg)
    # coefficient k of the recurrence: bit degree - 1 - k of the polynomial
    coeff = np.where(k < degree[:, None],
                     (poly[:, None] >> np.maximum(degree[:, None] - 1 - k, 0)) & 1,
                     0).astype(np.uint32)
    shifts = (k + 1).astype(np.uint32)
    # v[:, j] sits at column maxdeg + j, behind maxdeg columns of zeros
    v = np.zeros((d, maxdeg + BITS), dtype=np.uint32)
    rows = np.arange(d)
    for j in range(BITS):
        # v[j - k - 1] << (k + 1) for k = 0 .. maxdeg - 1, and v[j - degree]
        terms = np.empty((d, maxdeg + 1), dtype=np.uint32)
        terms[:, :maxdeg] = (v[:, j:j + maxdeg][:, ::-1] << shifts) * coeff
        terms[:, maxdeg] = v[rows, maxdeg + j - degree]
        new = np.bitwise_xor.reduce(terms, axis=1)
        if j < maxdeg:
            new = np.where(j < degree, vinit[:, j], new)
        v[:, maxdeg + j] = new
    v = np.ascontiguousarray(v[:, maxdeg:])
    v[0] = 1  # the first dimension is the van der Corput sequence
    v <<= np.arange(BITS - 1, -1, -1, dtype=np.uint32)
    _table = v
    return v


def sobol_integers(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the shifted Sobol' sequence as a (n, d) uint32
    array of BITS-bit integers; point k is the shift XOR the direction
    numbers at the set bits of its Gray code k ^ (k >> 1)."""
    direction = _direction_numbers(d)
    points = np.empty((n, d), dtype=np.uint32)
    points[:1] = np.random.default_rng(seed).integers(0, 1 << BITS, size=d,
                                                      dtype=np.uint32)
    # the Gray codes of size .. 2 size - 1 are size | those of size - 1 .. 0
    size, bit = 1, 0
    while size < n:
        count = min(size, n - size)
        points[size:size + count] = points[size - 1::-1][:count] ^ direction[:, bit]
        size, bit = 2 * size, bit + 1
    return points

