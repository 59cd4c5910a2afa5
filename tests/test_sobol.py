"""The NumPy Sobol' engine against scipy's unscrambled `qmc.Sobol` XOR the
digital shift, its oracle here, and the guard that no dpgraph process
imports `scipy.stats`."""

import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from dpgraph import _sobol


def _qmc_points(engine: qmc.Sobol, n: int) -> np.ndarray:
    engine.reset()
    with warnings.catch_warnings():  # n need not be a power of 2
        warnings.simplefilter("ignore")
        return engine.random(n)


def _shift(d: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << _sobol.BITS, size=d,
                                                dtype=np.uint32)


def _assert_shifted_qmc_points(d: int, seed: int, ns):
    """The engine's points are qmc.Sobol's unscrambled ones, as BITS-bit
    integers, XOR the shift, and its direction numbers are qmc.Sobol's (the
    first n points use only the first ceil(log2 n) of each dimension; this
    compares all BITS of them)."""
    engine = qmc.Sobol(d, scramble=False)
    direction = _sobol._direction_numbers(d)
    assert direction.dtype == engine._sv.dtype and np.array_equal(direction, engine._sv)
    shift = _shift(d, seed)
    for n in ns:
        unscrambled = _qmc_points(engine, n) * 2.0 ** _sobol.BITS
        assert np.array_equal(unscrambled, np.floor(unscrambled))
        want = unscrambled.astype(np.uint32) ^ shift
        got = _sobol.sobol_integers(d, n, seed)
        assert got.dtype == np.uint32 and np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 28, 64, 100, 1000, 3000])
def test_engine_matches_qmc_sobol_bit_for_bit(d, seed):
    _assert_shifted_qmc_points(d, seed, [1, 2, 3, 256, 257])


def test_engine_matches_qmc_sobol_at_the_last_dimension():
    for seed in [5, 0, 12345]:
        _assert_shifted_qmc_points(_sobol.max_dimension(), seed, [1, 3])


def test_a_smaller_dimension_takes_a_prefix_of_the_cached_table(monkeypatch):
    monkeypatch.setattr(_sobol, "_table", np.zeros((0, _sobol.BITS), dtype=np.uint32))
    fresh = _sobol.sobol_integers(5, 9, 3)
    assert len(_sobol._table) == 5
    _sobol.sobol_integers(100, 1, 0)
    assert len(_sobol._table) == 100
    assert np.array_equal(_sobol.sobol_integers(5, 9, 3), fresh)
    _assert_shifted_qmc_points(5, 3, [9])


def test_max_dimension_is_qmc_sobols():
    assert _sobol.max_dimension() == qmc.Sobol.MAXDIM == 21201


def test_two_seeds_give_different_points():
    a, b = (_sobol.sobol_integers(28, 64, seed) * 2.0 ** -_sobol.BITS for seed in (0, 1))
    assert not np.array_equal(a, b)
    for points in (a, b):
        assert np.all((0.0 <= points) & (points < 1.0))
        assert len(np.unique(points, axis=0)) == 64


def test_no_dpgraph_process_imports_scipy_stats():
    # importing scipy.stats costs about a second of CPU and 46 MB of memory
    # in every process; only the Sobol' table is needed of it, read as data
    code = "\n".join([
        "import sys",
        "import dpgraph, dpgraph.cli",
        "from dpgraph.models import mean_query",
        "g = mean_query(3)",
        "report = dpgraph.estimate_sensitivity(g, wrt=[g.find('x')], method='global_opt')",
        "print(report.n_evaluations, sorted(m for m in sys.modules if m.startswith('scipy.stats')))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    n_evaluations, modules = proc.stdout.split(" ", 1)
    assert int(n_evaluations) > 0
    assert modules.strip() == "[]"
