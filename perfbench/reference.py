"""References computed apart from dpgraph, used to check the benchmark's outputs.

Nothing here imports dpgraph. The MLP forward pass and its gradient are plain
NumPy written from the layer definitions, the elementwise queries have closed
forms, and the Gaussian condition is evaluated in log space with
`scipy.special.log_ndtr`, so it does not cancel in the tails the way
`0.5 * (1 + erf(x))` does.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, log_ndtr

BCE_CLAMP = 1e-7  # probability clamp of the fused cross-entropy


# ---------------------------------------------------------------------------
# the reference classifier: `layers` sigmoid layers and a mean cross-entropy


def mlp_forward(x, t, weights, biases):
    """Loss and per-layer activations of the sigmoid MLP on column vectors."""
    acts = [np.asarray(x, dtype=np.float64)]
    for w, b in zip(weights, biases):
        acts.append(expit(w @ acts[-1] + b))
    p = acts[-1]
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = float(np.mean(-(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))))
    return loss, acts


def mlp_grad_x(x, t, weights, biases):
    """Gradient of the loss with respect to x, by hand-written backprop.

    The clamp of the cross-entropy makes the derivative zero outside the band
    [BCE_CLAMP, 1 - BCE_CLAMP], endpoints included.
    """
    _, acts = mlp_forward(x, t, weights, biases)
    p = acts[-1]
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    band = (p >= BCE_CLAMP) & (p <= 1.0 - BCE_CLAMP)
    grad = np.where(band, (pc - t) / (pc * (1.0 - pc)), 0.0) / p.size
    for w, s in zip(reversed(weights), reversed(acts[1:])):
        grad = w.T @ (grad * s * (1.0 - s))
    return grad


# ---------------------------------------------------------------------------
# elementwise queries over an (n, 1) column: Jacobians and suprema


def mean_jacobian(x):
    """Jacobian of mean(x): every entry 1/n."""
    x = np.asarray(x)
    return np.full((1, x.size), 1.0 / x.size)


def clipped_mean_jacobian(x, lo=-1.0, hi=1.0):
    """Jacobian of mean(clip(x, lo, hi)): 1/n where lo <= x <= hi, else 0."""
    x = np.asarray(x).ravel()
    return (((x >= lo) & (x <= hi)) / x.size).reshape(1, -1).astype(np.float64)


def sum_sigmoid_jacobian(x):
    """Jacobian of sum(sigmoid(x)): s (1 - s) per coordinate."""
    s = expit(np.asarray(x, dtype=np.float64).ravel())
    return (s * (1.0 - s)).reshape(1, -1)


def mean_supremum(n: int) -> float:
    """sup of the Jacobian norm of both means: 1/sqrt(n), reached wherever
    every coordinate lies inside the clip interval."""
    return 1.0 / math.sqrt(n)


def sum_sigmoid_supremum(n: int) -> float:
    """sup of the Jacobian norm of sum(sigmoid(x)) on a box around 0:
    0.25 sqrt(n), reached at x = 0."""
    return 0.25 * math.sqrt(n)


# ---------------------------------------------------------------------------
# the analytic Gaussian condition (Balle and Wang 2018) in log space


def _log1mexp(a: float) -> float:
    """log(1 - exp(a)) for a < 0, accurate on both sides of -log 2."""
    if a > -math.log(2.0):
        return math.log(-math.expm1(a))
    return math.log1p(-math.exp(a))


def log_gaussian_delta(epsilon: float, sigma: float, sensitivity: float = 1.0) -> float:
    """log of the delta that noise scale sigma achieves at (epsilon, sensitivity).

    delta = Phi(D/(2s) - e s/D) - exp(e) Phi(-D/(2s) - e s/D). Both terms are
    taken as logs and the difference as log(Phi_1) + log(1 - Phi_2/Phi_1), so
    no step subtracts two numbers close to 1.
    """
    a = sensitivity / (2.0 * sigma)
    b = epsilon * sigma / sensitivity
    log_first = float(log_ndtr(a - b))
    log_second = epsilon + float(log_ndtr(-a - b))
    return log_first + _log1mexp(log_second - log_first)
