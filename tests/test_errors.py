"""Every failure at the library boundary surfaces as a typed DpGraphError,
and the command line maps each error type to one exit code."""

import numpy as np
import pytest

from dpgraph import errors, runtime, spectral_norm
from dpgraph.autodiff import higher_order, jacobian
from dpgraph.cli import _exit_code
from dpgraph.graph import freeze
from dpgraph.errors import (
    ArityError,
    DimensionTooLarge,
    DomainError,
    DpGraphError,
    FingerprintMismatch,
    InvalidParams,
    MissingInput,
    ModelFormatError,
    NonDifferentiable,
    NonFinite,
    NumericalError,
    OptimizerFailure,
    ShapeMismatch,
    UnknownNode,
    ValidationFailed,
)
from dpgraph.lipschitz import OptimizerConfig, estimate_sensitivity
from dpgraph.mechanism import PrivacyParams, privatize
from dpgraph.models import mean_query, mlp_classifier
from dpgraph.report import SensitivityReport


EXIT_CODES = {
    DpGraphError: 2,
    ShapeMismatch: 2,
    ArityError: 2,
    UnknownNode: 2,
    ValidationFailed: 2,
    NonDifferentiable: 2,
    DomainError: 2,
    MissingInput: 2,
    ModelFormatError: 2,
    NonFinite: 3,
    DimensionTooLarge: 3,
    OptimizerFailure: 3,
    FingerprintMismatch: 3,
    NumericalError: 3,
    InvalidParams: 4,
}


def test_the_exit_code_table_covers_every_error():
    declared = {c for c in vars(errors).values()
                if isinstance(c, type) and issubclass(c, DpGraphError)}
    assert declared == set(EXIT_CODES)


@pytest.mark.parametrize("cls,code", EXIT_CODES.items(),
                         ids=[c.__name__ for c in EXIT_CODES])
def test_exit_code(cls, code):
    err = cls([]) if cls is ValidationFailed else cls("refused")
    assert _exit_code(err) == code


_GRAPH = mlp_classifier(2)
_X = _GRAPH.find("x")
_W1 = np.zeros(_GRAPH.nodes[_GRAPH.find("w1")].shape.dims)


def _inputs(program):
    return {name: np.zeros(dims) for _, members in program.leaf_groups
            for name, dims, *_ in members}


def _execute(batch_shape):
    program = runtime.compile(_GRAPH)
    return runtime.execute(program, _inputs(program), batch_shape=batch_shape)


def _privatize(seed, bound=1.0, params=PrivacyParams(1.0, 1e-5)):
    program = runtime.compile(_GRAPH)
    report = SensitivityReport(method="ibp", bound=bound, interval_low=0.0,
                               certified=True, argmax=None, wall_time=0.0,
                               fingerprint=program.fingerprint)
    return privatize(program, _inputs(program), params, report, seed=seed)


@pytest.mark.parametrize("call,error", [
    (lambda: estimate_sensitivity(_GRAPH, wrt=["x"]), UnknownNode),
    (lambda: jacobian(_GRAPH, ["x"]), UnknownNode),
    (lambda: jacobian(_GRAPH, [_X + 0.7]), UnknownNode),  # int() would truncate
    (lambda: higher_order(_GRAPH, [_X], 0), InvalidParams),
    (lambda: higher_order(_GRAPH, [_X], 1.5), InvalidParams),
    (lambda: OptimizerConfig(n_samples="3"), InvalidParams),
    (lambda: OptimizerConfig(seed=1.5), InvalidParams),
    (lambda: OptimizerConfig(seed=True), InvalidParams),
    (lambda: OptimizerConfig(grid_resolution=2.5), InvalidParams),
    (lambda: PrivacyParams("1", 1e-5), InvalidParams),
    (lambda: PrivacyParams(True, 1e-5), InvalidParams),
    (lambda: PrivacyParams(1.0, 1e-5, sensitivity_cap="2"), InvalidParams),
    (lambda: _execute((-1,)), ShapeMismatch),
    (lambda: _execute((1.5,)), ShapeMismatch),
    (lambda: _execute(4), ShapeMismatch),
    (lambda: _privatize(True), InvalidParams),
    (lambda: _privatize(np.bool_(True)), InvalidParams),
    # sigma would be 0.0, inf and a subnormal 2.57e-322
    (lambda: _privatize(1, 5e-324, PrivacyParams(50.0, 0.5)), InvalidParams),
    (lambda: _privatize(1, 1e308, PrivacyParams(0.01, 1e-10)), InvalidParams),
    (lambda: _privatize(1, 1e-320, PrivacyParams(700.0, 0.9)), InvalidParams),
    (lambda: mean_query(10).ancestors([99]), UnknownNode),
    (lambda: mean_query(10).ancestors([0.5]), UnknownNode),
    (lambda: spectral_norm([]), ShapeMismatch),
    (lambda: spectral_norm(np.zeros((3, 0))), ShapeMismatch),
    (lambda: spectral_norm(np.ones((2, 3, 4))), ShapeMismatch),
    (lambda: spectral_norm([["1", "2"]]), NumericalError),
    (lambda: spectral_norm([[1.0, 2j]]), NumericalError),
    (lambda: spectral_norm([[1.0], [2.0, 3.0]]), NumericalError),
    (lambda: freeze(_GRAPH, {"x": np.zeros((2, 1))}), InvalidParams),
    (lambda: freeze(_GRAPH, {"w1": np.full_like(_W1, np.nan)}), InvalidParams),
    (lambda: freeze(_GRAPH, {"w1": _W1 == 0.0}), InvalidParams),
    (lambda: freeze(_GRAPH, {"W1": _W1}), UnknownNode),
    (lambda: estimate_sensitivity(freeze(_GRAPH, {"w1": _W1}),
                                  wrt=[_GRAPH.find("w1")]), NonDifferentiable),
], ids=["estimate-wrt-name", "jacobian-wrt-name", "jacobian-wrt-float",
        "higher-order-0", "higher-order-float", "n-samples-str", "seed-float",
        "seed-bool", "grid-resolution-float", "epsilon-str", "epsilon-bool",
        "cap-str", "batch-negative", "batch-float", "batch-int",
        "privatize-seed-bool", "privatize-seed-numpy-bool", "sigma-zero",
        "sigma-infinite", "sigma-subnormal",
        "ancestors-out-of-range", "ancestors-float", "spectral-norm-empty",
        "spectral-norm-no-columns", "spectral-norm-3d", "spectral-norm-str",
        "spectral-norm-complex", "spectral-norm-ragged", "freeze-private-input",
        "freeze-nan", "freeze-bool", "freeze-unknown-name", "frozen-wrt"])
def test_a_bad_argument_is_a_typed_refusal(call, error):
    with pytest.raises(error):
        call()


def test_integer_fields_of_the_config_become_ints():
    config = OptimizerConfig(n_samples=np.int64(4), seed=np.uint8(3),
                             grid_resolution=np.int32(5))
    assert [type(v) for v in (config.n_samples, config.seed,
                              config.grid_resolution)] == [int, int, int]
