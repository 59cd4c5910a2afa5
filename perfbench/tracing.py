"""Per-layer tracing by wrapping dpgraph's public functions from outside.

`Tracer.install` replaces each traced function in every module that binds it
by name (`jacobian` is bound in autodiff, interval, lipschitz and the package;
`execute` in runtime, mechanism and the package), and `uninstall` puts the
originals back, so untraced rounds run the program untouched. Times are
inclusive and counted for the outermost call of each function only; a
function that calls another traced one (jacobian calls optimize) counts in
both. Nothing inside src/dpgraph is traced.
"""

from __future__ import annotations

import time
from collections import defaultdict

import dpgraph
from dpgraph import autodiff, graph, interval, lipschitz, mechanism, model_io, runtime

# key -> (owning module, function name, other modules that bind the same name)
_TRACED = {
    "graph.optimize": (graph, "optimize", (autodiff, runtime, dpgraph)),
    "autodiff.jacobian": (autodiff, "jacobian", (interval, lipschitz, dpgraph)),
    "runtime.content_hash": (runtime, "content_hash", ()),
    "runtime.compile": (runtime, "compile", ()),
    "runtime.execute": (runtime, "execute", (mechanism, dpgraph)),
    "interval.propagate": (interval, "propagate", (dpgraph,)),
    "lipschitz.global_maximize": (lipschitz, "global_maximize", (dpgraph,)),
    "lipschitz.spectral_norm": (lipschitz, "spectral_norm_with_vectors", ()),
    "mechanism.privatize": (mechanism, "privatize", (dpgraph,)),
    "mechanism.calibrate_sigma": (mechanism, "calibrate_sigma", (dpgraph,)),
    "mechanism.gaussian_condition": (mechanism, "gaussian_condition", (dpgraph,)),
    "mechanism.clip": (mechanism, "clip", (dpgraph,)),
    "model_io.load": (model_io, "load_model", (dpgraph,)),
}
# the package re-exports runtime.compile under another name
_ALIASES = {"runtime.compile": ((dpgraph, "compile_graph"),)}


class Tracer:
    """Counts and inclusive CPU times per traced function, kept in memory."""

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._active: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._in_gradient = False

    def reset(self) -> None:
        self.times.clear()
        self.counts.clear()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        after = {
            "autodiff.jacobian": self._after_jacobian,
            "runtime.compile": self._after_compile,
            "runtime.execute": self._after_execute,
            "lipschitz.global_maximize": self._after_global_maximize,
        }
        for key, (owner, name, others) in _TRACED.items():
            original = getattr(owner, name)
            wrapper = self._wrap(key, original, after.get(key))
            if key == "lipschitz.global_maximize":
                wrapper = self._wrap_maximize(wrapper)
            sites = [(m, name) for m in (owner,) + others] + list(_ALIASES.get(key, ()))
            for module, attr in sites:
                if getattr(module, attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, key, fn, after=None):
        def traced(*args, **kwargs):
            if key in self._active:
                return fn(*args, **kwargs)
            self._active.add(key)
            optimized_before = self.counts["graph.optimize"]
            t0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.times[key] += time.process_time() - t0
                self.counts[key] += 1
                self._active.discard(key)
            if after:
                after(args, result, optimized_before)
            return result

        return traced

    # -- what each traced function adds beyond time and calls --------------

    def _after_jacobian(self, args, result, optimized_before):
        self.counts["autodiff.jacobian_nodes"] += len(result.graph.nodes)

    def _after_compile(self, args, result, optimized_before):
        # compile runs optimize only when the graph missed the cache
        if self.counts["graph.optimize"] > optimized_before:
            self.counts["runtime.compile_misses"] += 1
            self.counts["runtime.plan_instructions"] += len(result.plan)

    def _after_execute(self, args, result, optimized_before):
        self.counts["runtime.instructions_executed"] += len(args[0].plan)
        if self._in_gradient:
            self.counts["lipschitz.gradient_executes"] += 1

    def _after_global_maximize(self, args, result, optimized_before):
        self.counts["lipschitz.n_evaluations"] += result.n_evaluations

    def _wrap_maximize(self, traced_maximize):
        """Also time the objective and gradient callables global_maximize gets."""

        def maximize(objective, box, config=None, gradient=None):
            objective = self._wrap("lipschitz.objective", objective)
            if gradient is not None:
                gradient = self._wrap("lipschitz.gradient", self._mark_gradient(gradient))
            return traced_maximize(objective, box, config, gradient=gradient)

        return maximize

    def _mark_gradient(self, gradient):
        def marked(x):
            self._in_gradient = True
            try:
                return gradient(x)
            finally:
                self._in_gradient = False

        return marked

    # -- report ------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, averaged over `rounds` traced rounds."""
        t, c = self.times, self.counts
        grads = c["lipschitz.gradient"]
        values = {
            "graph.optimize_s": t["graph.optimize"],
            "graph.optimize_calls": c["graph.optimize"],
            "autodiff.jacobian_s": t["autodiff.jacobian"],
            "autodiff.jacobian_calls": c["autodiff.jacobian"],
            "autodiff.jacobian_nodes": c["autodiff.jacobian_nodes"],
            "runtime.content_hash_s": t["runtime.content_hash"],
            "runtime.compile_s": t["runtime.compile"],
            "runtime.compile_calls": c["runtime.compile"],
            "runtime.compile_misses": c["runtime.compile_misses"],
            "runtime.plan_instructions": c["runtime.plan_instructions"],
            "runtime.execute_s": t["runtime.execute"],
            "runtime.execute_calls": c["runtime.execute"],
            "runtime.instructions_executed": c["runtime.instructions_executed"],
            "interval.propagate_s": t["interval.propagate"],
            "lipschitz.global_maximize_s": t["lipschitz.global_maximize"],
            "lipschitz.objective_calls": c["lipschitz.objective"],
            "lipschitz.objective_s": t["lipschitz.objective"],
            "lipschitz.gradient_calls": grads,
            "lipschitz.gradient_s": t["lipschitz.gradient"],
            "lipschitz.n_evaluations": c["lipschitz.n_evaluations"],
            "lipschitz.spectral_norm_s": t["lipschitz.spectral_norm"],
            "lipschitz.spectral_norm_calls": c["lipschitz.spectral_norm"],
            "mechanism.privatize_s": t["mechanism.privatize"],
            "mechanism.calibrate_sigma_s": t["mechanism.calibrate_sigma"],
            "mechanism.gaussian_condition_calls": c["mechanism.gaussian_condition"],
            "mechanism.clip_s": t["mechanism.clip"],
        }
        values = {k: v / rounds for k, v in values.items()}
        values["lipschitz.executes_per_gradient"] = (
            c["lipschitz.gradient_executes"] / grads if grads else 0.0)
        return values
