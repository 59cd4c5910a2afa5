"""Scrambled Sobol' points, bit for bit those of scipy's
`qmc.Sobol(d, scramble=True, seed=seed).random(n)`, without importing
`scipy.stats`.

The direction numbers come from Joe & Kuo's (2008) table of primitive
polynomials and initial direction numbers, which scipy ships as a data file
beside its Sobol' engine. The scramble is Matoušek's (1998) linear matrix
scramble followed by a digital shift, drawn from `np.random.default_rng(seed)`
exactly as scipy draws them. The points follow the Gray-code order of
Antonov & Saleev (1979), with 30 bits, as scipy's do.
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


# dimensions whose scramble matrices are drawn and packed at a time
_SCRAMBLE_CHUNK = 256


def _coin_flips(bit_generator, count: int) -> np.ndarray:
    """The next `count` (even) values of `Generator.integers(2, dtype=uint32)`
    on this bit generator, as uint32, from half as many raw 64-bit words.

    That call takes one 32-bit word per value, the low half of a 64-bit
    output and then its high half, and returns the word's top bit (Lemire's
    method with a range of 2 never rejects). The words are read as
    little-endian, whatever the machine's byte order, so that each one's low
    half comes first."""
    words = bit_generator.random_raw(count // 2).astype("<u8", copy=False)
    return words.view("<u4") >> np.uint32(31)


def _scrambled(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (d, BITS) scrambled direction numbers and the (d,) digital shift.

    They come from scipy's draws, in scipy's order, bit for bit: the shift's
    (d, BITS) bits, then each dimension's BITS x BITS lower-triangular matrix
    L, row by row. The matrices are read from the generator's raw words a
    chunk of dimensions at a time, so the (d, BITS, BITS) bits are never held
    at once."""
    bit_generator = np.random.default_rng(seed).bit_generator
    shift_bits = _coin_flips(bit_generator, d * BITS).reshape(d, BITS)
    shift = np.bitwise_or.reduce(shift_bits << np.arange(BITS, dtype=np.uint32), axis=1)
    # column c of each L, with a unit diagonal, packed into one word whose bit
    # BITS - 1 - p is L[p, c]
    diagonal = np.uint32(1) << np.arange(BITS - 1, -1, -1, dtype=np.uint32)
    columns = np.empty((d, BITS), dtype=np.uint32)
    for start in range(0, d, _SCRAMBLE_CHUNK):
        stop = min(start + _SCRAMBLE_CHUNK, d)
        lower = _coin_flips(bit_generator, (stop - start) * BITS * BITS)
        columns[start:stop] = np.einsum(
            "dpc,p->dc", lower.reshape(stop - start, BITS, BITS), diagonal)
    columns = (columns & (2 * diagonal - 1)) | diagonal
    # L times each direction number over GF(2): bit BITS - 1 - c of a number
    # selects column c
    direction = _direction_numbers(d)
    scrambled = np.zeros((d, BITS), dtype=np.uint32)
    for i in range(BITS):
        bit = (direction >> np.uint32(BITS - 1 - i)) & np.uint32(1)
        scrambled ^= bit * columns[:, i, None]
    return scrambled, shift


def sobol_integers(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the scrambled Sobol' sequence as a (n, d) uint32
    array of BITS-bit integers; point k is the shift XOR the scrambled
    direction numbers at the set bits of its Gray code k ^ (k >> 1)."""
    direction, shift = _scrambled(d, seed)
    points = np.empty((n, d), dtype=np.uint32)
    points[:1] = shift
    # the Gray codes of size .. 2 size - 1 are size | those of size - 1 .. 0
    size, bit = 1, 0
    while size < n:
        count = min(size, n - size)
        points[size:size + count] = points[size - 1::-1][:count] ^ direction[:, bit]
        size, bit = 2 * size, bit + 1
    return points


def sobol(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the scrambled Sobol' sequence in [0, 1)^d, as a
    (n, d) float64 array equal to `qmc.Sobol(d, scramble=True,
    seed=seed).random(n)`: `sobol_integers` times 2^-BITS."""
    return sobol_integers(d, n, seed) * 2.0 ** -BITS
