"""Reference query architectures used by the benchmark harness and the tests."""

from __future__ import annotations

from .graph import Graph, GraphBuilder


def mlp_classifier(width: int, in_features: int | None = None) -> Graph:
    """Sigmoid MLP with a cross-entropy objective over bounded data.

    Four linear layers of the given width feed a fused binary cross-entropy
    against a target tensor `t`. Features `x` and targets `t` are private
    inputs; weights and biases are parameters. Every tensor is bounded to
    [0, 1] elementwise.
    """
    if width < 1:
        raise ValueError("width must be positive")
    in_features = width if in_features is None else in_features
    b = GraphBuilder()
    x = b.input("x", (in_features, 1), bounds=(0.0, 1.0))
    t = b.input("t", (width, 1), bounds=(0.0, 1.0))
    h = x
    fan_in = in_features
    for i in range(1, 5):
        w = b.parameter(f"w{i}", (width, fan_in), bounds=(0.0, 1.0))
        bias = b.parameter(f"b{i}", (width, 1), bounds=(0.0, 1.0))
        h = b.sigmoid(b.add(b.matmul(w, h), bias))
        fan_in = width
    loss = b.binary_cross_entropy(h, t)
    b.output(loss)
    return b.graph()


def mean_query(n: int, bounds=(0.0, 1.0)) -> Graph:
    """Mean of an n-element private column vector."""
    b = GraphBuilder()
    x = b.input("x", (n, 1), bounds=bounds)
    b.output(b.reduce_mean(x, axis=None))
    return b.graph()
