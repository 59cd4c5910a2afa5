"""Static tensor-graph sensitivity analysis and differentially private execution.

Typical flow: build or load a Graph, bound every Input and bound or `freeze`
every Parameter, compile it, bound its sensitivity with `estimate_sensitivity`,
then release results through `privatize`. The `dpgraph` console script wraps
the same steps.
The library logs through `logging.getLogger("dpgraph")`.
"""

import logging

from .errors import (
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
from .graph import (
    BCE_CLAMP,
    Bounds,
    BoundsSpec,
    Diagnostic,
    Graph,
    GraphBuilder,
    Node,
    OpKind,
    TensorShape,
    freeze,
    optimize,
)
from .autodiff import JacobianGraph, higher_order, jacobian
from .interval import IntervalTensor, propagate
from .report import SensitivityReport
from .lipschitz import (
    OptimizerConfig,
    estimate_sensitivity,
    global_maximize,
    spectral_norm,
)
from .mechanism import (
    MechanismOutput,
    PrivacyParams,
    calibrate_sigma,
    clip,
    gaussian_condition,
    privatize,
)
from .model_io import dumps_model, load_model, loads_model, save_model
from .runtime import (
    BenchRecord,
    CompiledProgram,
    benchmark,
    cache_info,
    clear_cache,
    execute,
    graph_fingerprint,
)
from .runtime import compile as compile_graph

__version__ = "0.1.0"

logging.getLogger("dpgraph").addHandler(logging.NullHandler())

__all__ = [
    "ArityError", "BCE_CLAMP", "BenchRecord", "Bounds", "BoundsSpec",
    "CompiledProgram", "Diagnostic", "DimensionTooLarge", "DomainError",
    "DpGraphError", "FingerprintMismatch", "Graph", "GraphBuilder",
    "IntervalTensor", "InvalidParams", "JacobianGraph", "MechanismOutput",
    "MissingInput", "ModelFormatError", "Node", "NonDifferentiable",
    "NonFinite", "NumericalError", "OpKind", "OptimizerConfig",
    "OptimizerFailure", "PrivacyParams", "SensitivityReport", "ShapeMismatch",
    "TensorShape", "UnknownNode", "ValidationFailed", "benchmark",
    "cache_info", "calibrate_sigma", "clear_cache", "clip", "compile_graph", "dumps_model",
    "estimate_sensitivity", "execute", "freeze", "gaussian_condition",
    "global_maximize", "graph_fingerprint", "higher_order",
    "jacobian", "load_model", "loads_model", "optimize", "privatize",
    "propagate", "save_model", "spectral_norm",
]
