"""Query sets, the (epsilon, delta) mix and the output checks of the workloads.

Every workload is the whole pipeline a user runs: load the queries, analyse
them (compile, ibp, global_opt) and release results through `privatize`. The
workloads differ in their query sets, and so in which layer does most of the
work. All calls into dpgraph go through module attributes (`runtime.compile`,
`lipschitz.estimate_sensitivity`, ...) so that the traced run's wrappers see
them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import expit

from dpgraph import autodiff, lipschitz, mechanism, model_io, runtime
from dpgraph.graph import Graph, GraphBuilder
from dpgraph.models import mean_query, mlp_classifier
from dpgraph.report import SensitivityReport

import reference as ref
import speed

MLP_LAYERS = 4  # depth of dpgraph.models.mlp_classifier

# Relative tolerances of the checks. The log-space reference agrees with
# 50-digit mpmath to about 1e-12, so a delta that exceeds its target by more
# than CALIBRATION_RTOL is a real miss, not reference noise.
JACOBIAN_RTOL = 1e-9
SUPREMUM_RTOL = 1e-9
CALIBRATION_RTOL = 1e-10
MINIMALITY_STEP = 1e-6
CHECK_POINTS = 3  # seeded points per query and round for the Jacobian checks

# Operations are timed in CPU seconds of this process and scaled to a
# reference machine speed by the speed probes around them (speed.py). On a
# shared machine the wall time of the same work moves with other tenants'
# load even more than CPU time does.
clock = time.process_time
RELEASE_SLICE = 64  # requests served between two speed probes


# ---------------------------------------------------------------------------
# queries


def clipped_mean(n: int) -> Graph:
    """mean(clip(x, -1, 1)) over x in [-2, 2]^n."""
    b = GraphBuilder()
    x = b.input("x", (n, 1), bounds=(-2.0, 2.0))
    b.output(b.reduce_mean(b.clip(x, -1.0, 1.0), axis=None))
    return b.graph()


def sum_sigmoid(n: int) -> Graph:
    """sum(sigmoid(x)) over x in [-1, 1]^n."""
    b = GraphBuilder()
    x = b.input("x", (n, 1), bounds=(-1.0, 1.0))
    b.output(b.reduce_sum(b.sigmoid(x), axis=None))
    return b.graph()


def _mlp_params(values: dict) -> tuple[list, list]:
    weights = [values[f"w{i}"] for i in range(1, MLP_LAYERS + 1)]
    biases = [values[f"b{i}"] for i in range(1, MLP_LAYERS + 1)]
    return weights, biases


def mlp_jacobian(point: dict) -> np.ndarray:
    weights, biases = _mlp_params(point)
    return ref.mlp_grad_x(point["x"], point["t"], weights, biases).reshape(1, -1)


def mlp_loss(values: dict) -> float:
    weights, biases = _mlp_params(values)
    return ref.mlp_forward(values["x"], values["t"], weights, biases)[0]


@dataclass
class Query:
    """One analysed query: what to run on it and its independent references.

    `supremum` is the closed-form sup of the Jacobian norm over the box, or
    None when only pointwise references exist (the classifier).
    """

    name: str
    build: Callable[[], Graph]
    methods: tuple[str, ...]
    jacobian_ref: Callable[[dict], np.ndarray]
    supremum: float | None = None
    graph: Graph | None = None


@dataclass
class ReleaseQuery:
    """One released query: its box, how far request data strays outside it,
    and the NumPy forward pass on clipped data."""

    name: str
    build: Callable[[], Graph]
    box: tuple[float, float]
    spread: float
    output_ref: Callable[[dict], float]
    graph: Graph | None = None
    program: object = None
    report: SensitivityReport | None = None
    params: dict = field(default_factory=dict)


def _mlp_query(width: int, methods=("compile", "ibp", "global_opt")) -> Query:
    return Query(f"mlp{width}", lambda: mlp_classifier(width), methods, mlp_jacobian)


def _mean_query(n: int, methods) -> Query:
    return Query(f"mean{n}", lambda: mean_query(n), methods,
                 lambda p: ref.mean_jacobian(p["x"]), ref.mean_supremum(n))


def _clipped_mean_query(n: int) -> Query:
    return Query(f"clipmean{n}", lambda: clipped_mean(n), ("compile", "ibp"),
                 lambda p: ref.clipped_mean_jacobian(p["x"]), ref.mean_supremum(n))


def _sum_sigmoid_query(n: int, methods) -> Query:
    return Query(f"sumsig{n}", lambda: sum_sigmoid(n), methods,
                 lambda p: ref.sum_sigmoid_jacobian(p["x"]),
                 ref.sum_sigmoid_supremum(n))


def _release_mlp(width: int) -> ReleaseQuery:
    return ReleaseQuery(f"mlp{width}", lambda: mlp_classifier(width),
                        (0.0, 1.0), 0.25, mlp_loss)


def _release_mean(n: int) -> ReleaseQuery:
    return ReleaseQuery(f"mean{n}", lambda: mean_query(n), (0.0, 1.0), 0.25,
                        lambda v: float(np.mean(v["x"])))


def _release_clipped_mean(n: int) -> ReleaseQuery:
    return ReleaseQuery(f"clipmean{n}", lambda: clipped_mean(n), (-2.0, 2.0),
                        0.5, lambda v: float(np.mean(np.clip(v["x"], -1.0, 1.0))))


def _release_sum_sigmoid(n: int) -> ReleaseQuery:
    return ReleaseQuery(f"sumsig{n}", lambda: sum_sigmoid(n), (-1.0, 1.0), 0.25,
                        lambda v: float(np.sum(expit(v["x"]))))


# Each workload: the analysed queries, the released queries, and how many
# passes of the budget mix a round serves. A run reports medians over its
# rounds, so rounds are kept short where the query set allows: one long call
# varies by a tenth or more from run to run even at scaled speed (see
# README.md), which is why width 3 runs compile and ibp but not its 19 s
# global_opt. wide_elementwise has time for one round only, and serves four
# passes in it so that its release figures rest on 6,144 requests.
#
# Sizes 100..450 of the cold-compile set stop where sum(sigmoid) still
# compiles: at n = 550 the recursive content hash overflows the stack.
_WIDE_SIZES = (100, 200, 300, 450)

WORKLOADS = {
    "mlp_wrt_x": (
        [_mlp_query(2), _mlp_query(3, ("compile", "ibp"))],
        [_release_mlp(2), _release_mlp(3)],
        1,
    ),
    "wide_elementwise": (
        [q for n in _WIDE_SIZES for q in (
            _mean_query(n, ("compile", "ibp")), _clipped_mean_query(n),
            _sum_sigmoid_query(n, ("compile", "ibp")))]
        + [_mean_query(1000, ("ibp", "global_opt")),
           _sum_sigmoid_query(64, ("ibp", "global_opt"))],
        [_release_clipped_mean(100), _release_sum_sigmoid(100)],
        4,
    ),
    "release_stream": (
        [_mlp_query(8, ("compile", "ibp")),
         _mean_query(100, ("compile", "ibp", "global_opt"))],
        [_release_mlp(8), _release_mean(100)],
        1,
    ),
}


# ---------------------------------------------------------------------------
# the (epsilon, delta) mix

STANDING_BUDGETS = ((1.0, 1e-5), (0.5, 1e-6), (2.0, 1e-8), (4.0, 1e-10))
PER_REQUEST_POOL = 1024
# The per-request pool is drawn from this fixed seed, not from --seed: a
# budget's calibration miss is deterministic, so the failed share of every
# run is then the same whatever the seed. Cycling 1024 distinct budgets
# through the 512-entry sigma cache misses it on every per-request call.
_POOL_SEED = 20210921


def budget_mix() -> list[tuple[float, float]]:
    """One pass of requests: two per-request budgets, then one standing one."""
    rng = np.random.default_rng(_POOL_SEED)
    eps = np.exp(rng.uniform(math.log(0.1), math.log(8.0), PER_REQUEST_POOL))
    delta = np.exp(rng.uniform(math.log(1e-12), math.log(1e-4), PER_REQUEST_POOL))
    mix = []
    for j in range(PER_REQUEST_POOL):
        mix.append((float(eps[j]), float(delta[j])))
        if j % 2 == 1:
            mix.append(STANDING_BUDGETS[(j // 2) % len(STANDING_BUDGETS)])
    return mix


# ---------------------------------------------------------------------------
# set-up


class Checks:
    """Collects failed checks; any entry makes the run incorrect."""

    def __init__(self):
        self.errors: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def _random_leaves(graph: Graph, rng) -> dict[str, np.ndarray]:
    values = {}
    for h in graph.leaves():
        node = graph.nodes[h]
        lo, hi = graph.bounds.get(h).broadcast_to(node.shape)
        values[node.name] = rng.uniform(lo, hi)
    return values


class State:
    """Everything set-up produces for the measured rounds."""

    def __init__(self, workload: str, seed: int, workdir: Path, probes: speed.Probes):
        """`probes` gets a speed probe after each query, to scale set-up time."""
        analysis, release, passes = WORKLOADS[workload]
        self.rng = np.random.default_rng(seed)
        self.request_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        self.mix = budget_mix() * passes
        self.requests_done = 0
        self.analysis, self.release = [], []
        for q in analysis:
            self.analysis.append(replace(q, graph=_load(q, workdir)))
            probes.take()
        for rq in release:
            self.release.append(self._prepare(rq, _load(rq, workdir), workdir))
            probes.take()

    def _prepare(self, rq: ReleaseQuery, g: Graph, workdir: Path) -> ReleaseQuery:
        """Compile, analyse with ibp, and round-trip the report through JSON."""
        report = lipschitz.estimate_sensitivity(g, wrt=[g.find("x")], method="ibp")
        path = workdir / f"{rq.name}.analysis.json"
        path.write_text(json.dumps(report.to_json_dict()))
        private = {g.nodes[h].name for h in g.private_inputs}
        return replace(
            rq, graph=g, program=runtime.compile(g),
            report=SensitivityReport.from_json_dict(json.loads(path.read_text())),
            params={k: v for k, v in _random_leaves(g, self.rng).items()
                    if k not in private})


def _load(q, workdir: Path) -> Graph:
    """Build the query and load it back through the JSON model format."""
    path = workdir / f"{q.name}.model.json"
    model_io.save_model(q.build(), path)
    return model_io.load_model(path)


# ---------------------------------------------------------------------------
# one round: the analysis pass and the release requests


@dataclass
class Round:
    duration: float = 0.0  # wall seconds, for the run's time budget
    cpu: float = 0.0
    times: dict = field(default_factory=lambda: {
        "compile": 0.0, "ibp": 0.0, "global_opt": 0.0})
    gaps: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    loop_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    z: list = field(default_factory=list)
    probes: speed.Probes = field(default_factory=speed.Probes)
    # (start, end, metric, CPU seconds, per-request latencies) before scaling
    spans: list = field(default_factory=list)

    def scale_spans(self) -> None:
        """Set the round's times at the reference speed from its spans."""
        for start, end, key, cpu, latencies in self.spans:
            scale = self.probes.scale(start, end)
            if key == "release":
                self.latencies += [t * scale for t in latencies]
                self.loop_s += cpu * scale
            else:
                self.times[key] += cpu * scale


def _close(a, b, rtol) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=rtol * max(1.0, float(np.max(np.abs(b))))))


def _in_box(graph: Graph, point: dict) -> bool:
    for h in graph.leaves():
        node = graph.nodes[h]
        lo, hi = graph.bounds.get(h).broadcast_to(node.shape)
        v = np.asarray(point[node.name]).reshape(node.shape.dims)
        if np.any(v < lo) or np.any(v > hi):
            return False
    return True


def _timed(key: str, call, rnd: Round):
    """One call from an empty compile cache, as in a fresh `dpgraph analyze`
    process, with a speed probe on either side; returns its result."""
    runtime.clear_cache()
    start = rnd.probes.take()
    t0 = clock()
    result = call()
    cpu = clock() - t0
    rnd.spans.append((start, time.perf_counter(), key, cpu, None))
    rnd.probes.take()
    return result


def _analyse(q: Query, state: State, rnd: Round, checks: Checks) -> None:
    g = q.graph
    wrt = [g.find("x")]
    points = [_random_leaves(g, state.rng) for _ in range(CHECK_POINTS)]
    point_norms = [float(np.linalg.norm(q.jacobian_ref(p))) for p in points]
    bounds = {}
    for method in q.methods:
        rnd.attempted += 1
        if method == "compile":
            program = _timed(
                "compile", lambda: runtime.compile(autodiff.jacobian(g, wrt).graph), rnd)
            for p in points:
                (j,) = runtime.execute(program, p)
                checks.require(_close(j, q.jacobian_ref(p), JACOBIAN_RTOL),
                               f"{q.name}: compiled Jacobian differs from the reference")
            continue
        report = _timed(
            method, lambda: lipschitz.estimate_sensitivity(g, wrt=wrt, method=method), rnd)
        bounds[method] = report.bound
        if method == "ibp":
            floor = q.supremum if q.supremum is not None else max(point_norms)
            checks.require(report.bound >= floor * (1.0 - SUPREMUM_RTOL),
                           f"{q.name}: ibp {report.bound} below {floor}")
        else:
            checks.require(_in_box(g, report.argmax),
                           f"{q.name}: global_opt argmax outside the box")
            exact = (q.supremum if q.supremum is not None
                     else float(np.linalg.norm(q.jacobian_ref(report.argmax))))
            checks.require(abs(report.bound - exact) <= SUPREMUM_RTOL * exact,
                           f"{q.name}: global_opt {report.bound} != {exact}")
    if "ibp" in bounds and "global_opt" in bounds:
        checks.require(bounds["global_opt"] <= bounds["ibp"],
                       f"{q.name}: global_opt above ibp")
        rnd.gaps.append(bounds["ibp"] / bounds["global_opt"])


def _make_requests(state: State) -> list:
    """One pass of the budget mix, with fresh seeded data for every request."""
    requests = []
    for i, (eps, delta) in enumerate(state.mix):
        rq = state.release[i % len(state.release)]
        g = rq.graph
        data = dict(rq.params)
        for h in g.private_inputs:
            node = g.nodes[h]
            data[node.name] = state.rng.uniform(
                rq.box[0] - rq.spread, rq.box[1] + rq.spread, node.shape.dims)
        seed = (state.request_seed + state.requests_done + i) % 2 ** 63
        requests.append((rq, data, mechanism.PrivacyParams(eps, delta), seed))
    state.requests_done += len(requests)
    return requests


def _serve(requests, rnd: Round) -> list:
    """The closed loop: one caller, each request sent when the last returned.
    A speed probe runs after every RELEASE_SLICE requests."""
    outputs = []
    start = rnd.probes.take()
    for k in range(0, len(requests), RELEASE_SLICE):
        latencies = []
        loop_start = clock()
        for rq, data, params, seed in requests[k:k + RELEASE_SLICE]:
            t0 = clock()
            outputs.append(mechanism.privatize(rq.program, data, params, rq.report, seed=seed))
            latencies.append(clock() - t0)
        loop = clock() - loop_start
        rnd.spans.append((start, time.perf_counter(), "release", loop, latencies))
        start = rnd.probes.take()
    rnd.attempted += len(requests)
    return outputs


def _check_releases(state: State, requests, outputs, rnd: Round, checks: Checks) -> None:
    for (rq, data, params, seed), out in zip(requests, outputs):
        lo, hi = rq.box
        clipped = {k: np.clip(v, lo, hi) for k, v in data.items()}
        outside = sum(int(np.sum((v < lo) | (v > hi))) for v in data.values())
        total = sum(v.size for v in data.values())
        raw = rq.output_ref(clipped)
        checks.require(abs(out.clipped_fraction - outside / total) <= 1e-12,
                       f"{rq.name}: clipped_fraction {out.clipped_fraction}")
        checks.require(abs(out.output_l2_norm - abs(raw)) <= JACOBIAN_RTOL * max(1.0, abs(raw)),
                       f"{rq.name}: output_l2_norm {out.output_l2_norm} != {abs(raw)}")
        (value,) = out.value.values()
        rnd.z.append((float(value) - raw) / out.sigma)
        if not calibration_ok(params, out.sigma, rq.report.bound):
            rnd.failed += 1

    for rq in state.release:
        i = next(k for k, r in enumerate(requests) if r[0] is rq)
        _, data, params, seed = requests[i]
        again = mechanism.privatize(rq.program, data, params, rq.report, seed=seed)
        checks.require(again.sigma == outputs[i].sigma and all(
            np.array_equal(again.value[k], outputs[i].value[k]) for k in again.value),
            f"{rq.name}: replaying seed {seed} gave another output")


def calibration_ok(params, sigma: float, sensitivity: float) -> bool:
    """sigma meets (epsilon, delta) by the log-space reference and is minimal:
    a sigma smaller by MINIMALITY_STEP already exceeds delta."""
    log_target = math.log(params.delta)
    meets = ref.log_gaussian_delta(params.epsilon, sigma, sensitivity) <= (
        log_target + CALIBRATION_RTOL)
    minimal = ref.log_gaussian_delta(
        params.epsilon, sigma * (1.0 - MINIMALITY_STEP), sensitivity) > log_target
    return meets and minimal


def run_round(state: State, checks: Checks) -> Round:
    """The analysis pass and the round's release requests. The requests are
    served in chunks after each analysed query, so that release latency is
    sampled across the whole round."""
    rnd = Round()
    t0, c0 = time.perf_counter(), clock()
    requests = _make_requests(state)
    chunk = -(-len(requests) // len(state.analysis))
    outputs = []
    for i, q in enumerate(state.analysis):
        _analyse(q, state, rnd, checks)
        outputs += _serve(requests[i * chunk:(i + 1) * chunk], rnd)
    _check_releases(state, requests, outputs, rnd, checks)
    rnd.duration = time.perf_counter() - t0
    rnd.cpu = clock() - c0
    rnd.scale_spans()
    return rnd


def noise_is_standard(z: list[float], checks: Checks) -> None:
    """Mean and variance of the standardised noise agree with N(0, 1) to five
    standard errors."""
    z = np.asarray(z)
    n = z.size
    mean, var = float(np.mean(z)), float(np.var(z))
    checks.require(abs(mean) <= 5.0 / math.sqrt(n), f"noise mean {mean} over {n}")
    checks.require(abs(var - 1.0) <= 5.0 * math.sqrt(2.0 / n), f"noise variance {var} over {n}")
