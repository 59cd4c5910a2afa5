"""Exception hierarchy shared by all dpgraph modules."""

from __future__ import annotations


class DpGraphError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(DpGraphError):
    """Operand shapes are incompatible under the operation's shape rule."""


class ArityError(DpGraphError):
    """Wrong number of inputs for a node kind."""


class UnknownNode(DpGraphError):
    """A node handle or name does not exist in the graph."""


class ValidationFailed(DpGraphError):
    """Graph validation produced diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(d.message for d in self.diagnostics)
        super().__init__(f"graph validation failed: {lines}")


class NonDifferentiable(DpGraphError):
    """No derivative rule is registered for a node kind."""


class DomainError(DpGraphError):
    """An interval operation hit a pole or an undefined region."""


class NonFinite(DpGraphError):
    """A matrix passed to a numeric routine contains NaN or Inf."""


class DimensionTooLarge(DpGraphError):
    """A domain has more free scalars than a method supports: the grid
    oracle's cap, or the Sobol' table's of the global maximizer."""


class OptimizerFailure(DpGraphError):
    """The global maximizer obtained no feasible objective evaluation."""


class InvalidParams(DpGraphError):
    """Privacy parameters are out of range or inconsistent."""


class FingerprintMismatch(DpGraphError):
    """A sensitivity report and a compiled program come from different graphs."""


class MissingInput(DpGraphError):
    """Execution was not given a value for a declared input."""


class NumericalError(DpGraphError):
    """Execution produced NaN or Inf; a batched execute raises it when any
    of its points traps, naming a node where one does."""


class ModelFormatError(DpGraphError):
    """A model file does not conform to the documented schema."""
