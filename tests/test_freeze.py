"""Freezing: each named Parameter becomes a Constant, and a report made on the
frozen graph releases only on a program compiled from the same values."""

import numpy as np
import pytest

from dpgraph import (
    DimensionTooLarge,
    FingerprintMismatch,
    OpKind,
    PrivacyParams,
    compile_graph,
    estimate_sensitivity,
    freeze,
    privatize,
)
from dpgraph.models import mlp_classifier

from conftest import signed_parameters


def test_freeze_keeps_handles_and_names_and_drops_the_bounds():
    g = mlp_classifier(2)
    values = signed_parameters(g)
    frozen = freeze(g, {"w1": values["w1"], "b4": values["b4"]})
    w1, b4 = g.find("w1"), g.find("b4")
    assert (frozen.find("w1"), frozen.find("b4")) == (w1, b4)
    for h in (w1, b4):
        node = frozen.nodes[h]
        assert node.kind is OpKind.CONSTANT and node.shape == g.nodes[h].shape
        assert np.array_equal(node.attrs["value"], values[node.name])
        assert h not in frozen.bounds and h not in frozen.parameters
    assert frozen.private_inputs == g.private_inputs
    assert frozen.parameters == tuple(h for h in g.parameters if h not in (w1, b4))
    assert all(a is b for a, b in zip(frozen.nodes, g.nodes) if a.id not in (w1, b4))
    assert frozen.require_valid() is None


def test_a_report_at_other_parameters_is_refused():
    # a report frozen at theta0 once carried the unfrozen graph's fingerprint,
    # and released data whose parameters were theta1 (the argmax of the
    # unfrozen global_opt) with 34 times too little noise
    g = mlp_classifier(4)
    x = [g.find("x")]
    free = estimate_sensitivity(g, wrt=x, method="global_opt")
    theta1 = {g.nodes[h].name: free.argmax[g.nodes[h].name] for h in g.parameters}
    private = {"x": free.argmax["x"], "t": free.argmax["t"]}
    at_theta0 = freeze(g, signed_parameters(g))
    report = estimate_sensitivity(at_theta0, wrt=x, method="global_opt")
    needed = estimate_sensitivity(freeze(g, theta1), wrt=x, method="global_opt")
    assert needed.bound > 30 * report.bound

    params = PrivacyParams(epsilon=1.0, delta=1e-5)
    with pytest.raises(FingerprintMismatch):
        privatize(compile_graph(g), {**private, **theta1}, params, report, seed=0)
    with pytest.raises(FingerprintMismatch):
        privatize(compile_graph(freeze(g, theta1)), private, params, report, seed=0)
    out = privatize(compile_graph(at_theta0), private, params, report, seed=0)
    assert out.sigma > 0.0


# The bounds of OptimizerConfig(freeze=...), the knob that `freeze` replaced,
# on mlp_classifier(w) with wrt=x at the signed parameters: the transform
# kept every bit, the certificate and the count of points evaluated. The
# global_opt columns were re-measured when the samples became digitally
# shifted Sobol' points: the counts moved, and w8's bound fell by 1.0e-5
# relative, a tenth of CERTIFICATE_RTOL
@pytest.mark.parametrize("width,ibp,global_opt,n_evaluations", [
    (2, "0x1.47fbf882df238p-8", "0x1.ec9a6c19c09f0p-11", 1503),
    (4, "0x1.b131cc77b050ep-5", "0x1.dbd27fe63f83ep-8", 1650),
    (8, "0x1.b69e92323ff4cp-2", "0x1.dc24e0488c890p-8", 2321),
    (16, "0x1.98a0025efae8cp+2", "0x1.09838bd2d87c6p-8", 2021),
], ids=["w2", "w4", "w8", "w16"])
def test_frozen_bounds_are_pinned(width, ibp, global_opt, n_evaluations):
    g = mlp_classifier(width)
    frozen = freeze(g, signed_parameters(g))
    x = [g.find("x")]
    assert estimate_sensitivity(frozen, wrt=x, method="ibp").bound.hex() == ibp
    report = estimate_sensitivity(frozen, wrt=x, method="global_opt")
    assert report.bound.hex() == global_opt
    assert report.certified
    assert report.n_evaluations == n_evaluations


def test_a_wide_classifier_is_bounded_at_its_parameters():
    # 66,304 free scalars with every leaf free, past the Sobol' table; frozen,
    # x and t leave 256
    g = mlp_classifier(128)
    x = [g.find("x")]
    with pytest.raises(DimensionTooLarge):
        estimate_sensitivity(g, wrt=x, method="global_opt")
    report = estimate_sensitivity(freeze(g, signed_parameters(g)), wrt=x,
                                  method="global_opt")
    assert np.isfinite(report.bound) and report.bound > 0.0
