"""Compilation of graphs to linear register programs, execution, benchmarks.

Compilation runs the optimizer, linearizes the surviving nodes, binds each
instruction's kernel to the node's attrs and operand ranks, and assigns tensor slots with last-use reuse; it also
lays the leaves out in groups (`LeafGroup`): the bounded leaves by their
bounds, so that a release clips each group once, and the unbounded ones in a
group of their own. That layout is the table `execute` binds through. It is
where the derivative graphs of `autodiff`, which come unoptimized, are
optimized, so a compiled program's `optimized_graph` is the one to
differentiate or inspect further. Each program is cached under one key, the
content hash of the graph as given, which is also the program's fingerprint,
so recompiling an identical graph is one hash and a lookup.

Finiteness invariant: execution raises `NumericalError` whenever a value the
outputs depend on is NaN or Inf, without scanning intermediate results. The
bound inputs are checked once per leaf group, by one scan over the group's
values when they are bound, and every constant once when the program is
linearized. Once all operands are finite, a kernel can only produce NaN or
Inf by raising an IEEE divide-by-zero, overflow or invalid flag, and the
kernels run with those flags trapped; underflow to zero is allowed.

Batch rule: `execute(program, inputs, batch_shape=B)` evaluates the program at
many points through the same plan. Each input is bound either with its
declared shape, shared by every point, or with shape B followed by its
declared shape, one value per point; every output has shape B followed by its
declared shape, broadcast when it depends on no per-point input. The kernels
index their axes from the end, so the batch axes ride through them (see the
kernels of `graph.OPS`), and the default B = () is the unbatched call, which
accepts declared shapes only. A batch that traps at any point raises like an
unbatched call, naming a node where a point trapped; finding which points
trap is the caller's job (`lipschitz` halves the stack). Batches run in
chunks of at most `BATCH_BYTES` of values.
"""

from __future__ import annotations

import csv
import hashlib
import statistics
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .errors import MissingInput, NumericalError, ShapeMismatch, UnknownNode
from .graph import (
    LEAF_KINDS,
    OPS,
    Bounds,
    Graph,
    OpKind,
    _index,
    attr_key,
    optimize,
)


def content_hash(graph: Graph) -> str:
    """Content hash of a graph, insensitive to construction order.

    Interior node names never enter the hash; Input/Parameter names, shapes,
    and bounds do, because they are the binding surface of the program.
    """
    digests: dict[int, str] = {}
    wanted = graph.ancestors(graph.outputs).union(graph.leaves())
    for node in graph.nodes:  # inputs precede their users
        if node.id not in wanted:
            continue
        parts: list[str] = [node.kind.value]
        if node.kind in (OpKind.INPUT, OpKind.PARAMETER):
            parts += [node.name, str(node.shape)]
            b = graph.bounds.get(node.id)
            if b is not None:
                parts += [b.lo.tobytes().hex(), b.hi.tobytes().hex()]
        elif node.kind is OpKind.CONSTANT:
            v = node.attrs["value"]
            parts += [str(node.shape), v.tobytes().hex()]
        else:
            parts.append(repr(attr_key(node.attrs)))
            parts += [digests[i] for i in node.inputs]
        digests[node.id] = hashlib.sha256("|".join(parts).encode()).hexdigest()

    out_digests = [digests[h] for h in graph.outputs]
    leaf_digests = sorted(digests[h] for h in graph.leaves())
    top = "graph|" + "|".join(out_digests) + "#" + "|".join(leaf_digests)
    return hashlib.sha256(top.encode()).hexdigest()


@dataclass(frozen=True)
class Instruction:
    kind: OpKind
    in_slots: tuple[int, ...]
    out_slot: int
    label: str
    kernel: Callable[..., np.ndarray]  # the kind's kernel bound to the node's attrs


class LeafGroup(NamedTuple):
    """Leaves that share one `Bounds`, laid end to end in one vector.

    Each member is (name, dims, start, stop, slot): the leaf's declared dims,
    its slice of the group's flattened data and its register slot, None for
    a leaf that no output reaches. Leaves whose scalar bounds have the same
    bytes share a group; a leaf with per-element bounds is a group of its
    own. `bounds` is the leaves' own `Bounds`, never broadcast, or None for
    the one group of every unbounded leaf. Groups follow the order of
    their first leaves in `Graph.leaves`. `execute` checks the values bound
    to a group for NaN and Inf in one scan.
    """

    bounds: Bounds | None
    members: tuple[tuple[str, tuple[int, ...], int, int, int | None], ...]


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    plan: tuple[Instruction, ...]
    fingerprint: str
    optimized_graph: Graph
    n_slots: int
    const_loads: tuple[tuple[int, np.ndarray], ...]
    leaf_names: frozenset[str]
    output_slots: tuple[int, ...]
    output_names: tuple[str, ...]
    output_dims: tuple[tuple[int, ...], ...]
    nonfinite_constant: str | None
    point_bytes: int  # bytes of the inputs and values one point computes
    leaf_groups: tuple[LeafGroup, ...]  # every leaf, by shared bounds

    @property
    def param_count(self) -> int:
        g = self.optimized_graph
        return sum(g.nodes[h].shape.num_elements for h in g.parameters)


# Each program is filed under its fingerprint, the content hash of the graph
# as given; past CACHE_SIZE programs the least recently used one is dropped.
CACHE_SIZE = 256
_CACHE: OrderedDict[str, CompiledProgram] = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_STATS = {"hits": 0, "misses": 0}


class CacheInfo(NamedTuple):
    hits: int    # compiles answered from the cache
    misses: int  # compiles that linearized a new program
    size: int    # programs held, at most CACHE_SIZE


def cache_info() -> CacheInfo:
    """Hits, misses and size of the compile cache since it was last cleared."""
    with _CACHE_LOCK:
        return CacheInfo(_CACHE_STATS["hits"], _CACHE_STATS["misses"], len(_CACHE))


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()
        _CACHE_STATS.update(hits=0, misses=0)


def _cache_get(key: str) -> CompiledProgram | None:
    with _CACHE_LOCK:
        program = _CACHE.get(key)
        if program is not None:
            _CACHE.move_to_end(key)
            _CACHE_STATS["hits"] += 1
        return program


def _cache_put(program: CompiledProgram) -> None:
    with _CACHE_LOCK:
        _CACHE[program.fingerprint] = program
        _CACHE_STATS["misses"] += 1
        while len(_CACHE) > CACHE_SIZE:
            _CACHE.popitem(last=False)


def _linearize(opt: Graph, fingerprint: str) -> CompiledProgram:
    reachable = opt.ancestors(opt.outputs)
    outputs = set(opt.outputs)

    n_slots = 0

    def new_slot() -> int:
        nonlocal n_slots
        n_slots += 1
        return n_slots - 1

    slot_of: dict[int, int] = {}
    const_loads: list[tuple[int, np.ndarray]] = []
    nonfinite_constant: str | None = None
    groups: dict[Any, tuple[Bounds | None, list]] = {}

    for h in opt.leaves():
        node = opt.nodes[h]
        slot = new_slot() if h in reachable else None
        if slot is not None:
            slot_of[h] = slot
        b = opt.bounds.get(h)
        if b is None:
            key = None
        elif b.lo.shape == ():
            key = (b.lo.tobytes(), b.hi.tobytes())
        else:
            key = h
        members = groups.setdefault(key, (b, []))[1]
        start = members[-1][3] if members else 0
        members.append((node.name, node.shape.dims, start,
                        start + node.shape.num_elements, slot))
    for node in opt.nodes:
        if node.kind is OpKind.CONSTANT and node.id in reachable:
            slot = new_slot()
            slot_of[node.id] = slot
            value = node.attrs["value"]
            const_loads.append((slot, value))
            if nonfinite_constant is None and not np.isfinite(value).all():
                nonfinite_constant = node.name

    interior = [n for n in opt.nodes if n.kind not in LEAF_KINDS and n.id in reachable]
    last_use: dict[int, int] = {}
    for pos, node in enumerate(interior):
        for i in node.inputs:
            last_use[i] = pos

    free: list[int] = []
    plan: list[Instruction] = []
    point_elements = sum(opt.nodes[h].shape.num_elements
                         for h in opt.leaves() if h in reachable)
    for pos, node in enumerate(interior):
        point_elements += node.shape.num_elements
        in_slots = tuple(slot_of[i] for i in node.inputs)
        for i in set(node.inputs):
            n_i = opt.nodes[i]
            reusable = (n_i.kind not in LEAF_KINDS
                        and i not in outputs and last_use.get(i) == pos)
            if reusable:
                free.append(slot_of[i])
        out_slot = free.pop() if free else new_slot()
        slot_of[node.id] = out_slot
        ranks = tuple(opt.nodes[i].shape.rank for i in node.inputs)
        kernel = OPS[node.kind].kernel({**node.attrs, "ranks": ranks})
        plan.append(Instruction(node.kind, in_slots, out_slot, node.name, kernel))

    output_slots = tuple(slot_of[h] for h in opt.outputs)
    output_names = tuple(opt.nodes[h].name for h in opt.outputs)
    output_dims = tuple(opt.nodes[h].shape.dims for h in opt.outputs)
    return CompiledProgram(
        plan=tuple(plan),
        fingerprint=fingerprint,
        optimized_graph=opt,
        n_slots=n_slots,
        const_loads=tuple(const_loads),
        leaf_names=frozenset(opt.nodes[h].name for h in opt.leaves()),
        output_slots=output_slots,
        output_names=output_names,
        output_dims=output_dims,
        nonfinite_constant=nonfinite_constant,
        point_bytes=8 * max(point_elements, 1),
        leaf_groups=tuple(LeafGroup(b, tuple(m)) for b, m in groups.values()),
    )


def compile(graph: Graph) -> CompiledProgram:
    """Compile a graph to an executable program; identical graphs hit the cache.

    The program's fingerprint is `graph_fingerprint(graph)`, the content hash
    of the graph as given, and it is the program's one cache key; on a miss
    the graph is validated, optimized and linearized.
    """
    fingerprint = content_hash(graph)
    program = _cache_get(fingerprint)
    if program is None:
        graph.require_valid()
        program = _linearize(optimize(graph), fingerprint)
        _cache_put(program)
    return program


def graph_fingerprint(graph: Graph) -> str:
    """The fingerprint `compile(graph)` gives its program: the content hash of
    the valid graph as given; nothing is compiled."""
    graph.require_valid()
    return content_hash(graph)


# Values one chunk of a batched execute may compute, summed over the plan.
BATCH_BYTES = 1 << 24


def chunk_points(program: CompiledProgram) -> int:
    """Points per chunk of a batched execute of `program`."""
    return max(1, BATCH_BYTES // program.point_bytes)


# NumPy's own float64 descriptor, which its float64 arrays share; an array
# whose dtype is an equal copy of it takes the slow path, to the same result
_FLOAT64 = np.dtype(np.float64)


def leaf_array(inputs: Mapping[str, Any], name: str, dims: tuple[int, ...],
               batch: tuple[int, ...] = ()) -> np.ndarray:
    """The value `inputs` binds to leaf `name`, as a float64 array.

    Its shape must be `dims` or, with a batch shape, `batch + dims` (the
    batch rule). Raises `MissingInput` when the value is absent,
    `NumericalError` when it is not an array of real numbers (strings,
    complex numbers, ragged nestings) and `ShapeMismatch` when its shape is
    wrong; it does not check finiteness.
    """
    if name not in inputs:
        raise MissingInput(f"missing value for input '{name}'")
    arr = inputs[name]
    if type(arr) is not np.ndarray or arr.dtype is not _FLOAT64:
        # a float64 conversion would parse strings, drop imaginary parts, or
        # fail with a bare ValueError on a ragged nesting
        try:
            arr = np.asarray(arr)
        except (TypeError, ValueError) as err:
            raise NumericalError(
                f"input '{name}' is not an array of real numbers") from err
        if arr.dtype.kind not in "biuf":  # bool, signed, unsigned, float
            raise NumericalError(
                f"input '{name}' holds {arr.dtype} values, not real numbers")
        arr = arr.astype(np.float64, copy=False)
    if arr.shape != dims and (not batch or arr.shape != batch + dims):
        expected = f"{dims} or {batch + dims}" if batch else f"{dims}"
        raise ShapeMismatch(f"input '{name}' expects shape {expected}, got {arr.shape}")
    return arr


def _batch_dims(batch_shape) -> tuple[int, ...]:
    try:
        batch = tuple(map(_index, batch_shape))
    except TypeError:
        raise ShapeMismatch(f"batch shape must be a sequence of extents, "
                            f"got {batch_shape!r}") from None
    except ValueError as err:
        raise ShapeMismatch(f"batch extent {err}") from None
    if any(n < 0 for n in batch):
        raise ShapeMismatch(f"batch extents must be non-negative, got {batch}")
    return batch


def execute(program: CompiledProgram, inputs: Mapping[str, Any],
            batch_shape: tuple[int, ...] = ()) -> list[np.ndarray]:
    """Run a compiled program; returns one array per declared output.

    Inputs are bound by tensor name and are never mutated. Every declared
    Input/Parameter must be supplied, even ones the outputs do not depend on.
    With the default `batch_shape` every input must have exactly its declared
    shape. With a batch shape B, each input has either its declared shape or
    B followed by it, and each output has shape B followed by its declared
    shape (the batch rule of the module docstring); a B that is not a
    sequence of non-negative integers raises `ShapeMismatch`.

    The inputs are bound group by group of `program.leaf_groups`: each
    member is checked as `leaf_array` checks it, then the group's values
    are checked for NaN and Inf in one scan. So within a group a missing
    value or a wrong shape is reported before a non-finite value.

    Raises `NumericalError` when a bound input or a constant of the program
    holds NaN or Inf (checked once, before any kernel runs; the error names
    the first such input of its group), or when a kernel raises a
    divide-by-zero, overflow or invalid floating-point flag; with finite
    operands those flags are the only way to a non-finite value, so no
    intermediate result is scanned. A batched call raises when any of its
    points traps, and the error names a node where one does.
    """
    if not program.leaf_names.issuperset(inputs):
        unknown = sorted(inputs.keys() - program.leaf_names)[0]
        raise UnknownNode(f"no declared input named {unknown!r}")

    batch = _batch_dims(batch_shape)
    regs: list[Any] = [None] * program.n_slots
    for slot, value in program.const_loads:
        regs[slot] = value
    per_point: dict[int, np.ndarray] = {}
    for _, members in program.leaf_groups:
        arrs = []
        for name, dims, _, _, slot in members:
            arr = inputs.get(name)
            # a float64 array of the declared shape is bound as it is
            if (type(arr) is not np.ndarray or arr.dtype is not _FLOAT64
                    or arr.shape != dims):
                arr = leaf_array(inputs, name, dims, batch)
                if slot is not None and arr.shape != dims:
                    per_point[slot] = arr.reshape((-1,) + dims)
            arrs.append(arr)
            if slot is not None:
                regs[slot] = arr
        whole = arrs[0] if len(arrs) == 1 else np.concatenate([a.ravel() for a in arrs])
        if not np.isfinite(whole).all():
            name = next(m[0] for m, arr in zip(members, arrs)
                        if not np.isfinite(arr).all())
            raise NumericalError(f"non-finite value bound to input '{name}'")
    if program.nonfinite_constant is not None:
        raise NumericalError(
            f"non-finite value in constant '{program.nonfinite_constant}'")

    if not batch:
        _run(program, regs)
        return [np.array(regs[s]) for s in program.output_slots]

    n = int(np.prod(batch))
    outs = [np.empty((n,) + dims) for dims in program.output_dims]
    step = chunk_points(program)
    for start in range(0, n, step):
        stop = min(n, start + step)
        chunk = list(regs)
        for slot, arr in per_point.items():
            chunk[slot] = arr[start:stop]
        _run(program, chunk)
        for out, s in zip(outs, program.output_slots):
            out[start:stop] = chunk[s]
    return [out.reshape(batch + dims) for out, dims in zip(outs, program.output_dims)]


def _run(program: CompiledProgram, regs: list) -> None:
    """The plan's kernels on bound registers, with FP flags trapped."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise",
                         under="ignore"):
            for instr in program.plan:
                regs[instr.out_slot] = instr.kernel(*[regs[s] for s in instr.in_slots])
    except FloatingPointError as err:
        raise NumericalError(
            f"non-finite value produced at node '{instr.label}' "
            f"({instr.kind.value})") from err


# ---------------------------------------------------------------------------
# benchmark harness

BENCH_CSV_FIELDS = ("width", "param_count", "compile_s", "compile_cached_s", "exec_us")


@dataclass(frozen=True)
class BenchRecord:
    width: int
    param_count: int
    compile_s: float
    compile_cached_s: float
    exec_us: float


def benchmark(widths, repetitions: int = 100, seed: int = 0) -> list[BenchRecord]:
    """Measure cold compile, cached compile, and median execution time.

    Each width instantiates the classifier architecture used throughout the
    test-suite (four sigmoid layers plus cross-entropy) at that layer width.
    """
    from .models import mlp_classifier

    rng = np.random.default_rng(seed)
    records = []
    for width in widths:
        g = mlp_classifier(int(width))
        clear_cache()
        t0 = time.perf_counter()
        program = compile(g)
        cold = time.perf_counter() - t0

        cached_times = []
        for _ in range(10):
            t0 = time.perf_counter()
            compile(g)
            cached_times.append(time.perf_counter() - t0)
        cached = statistics.median(cached_times)

        inputs = {}
        for h in g.leaves():
            node = g.nodes[h]
            b = g.bounds.get(h)
            lo, hi = b.broadcast_to(node.shape)
            inputs[node.name] = rng.uniform(lo, hi)
        execute(program, inputs)  # warm-up
        times = []
        for _ in range(max(1, repetitions)):
            t0 = time.perf_counter()
            execute(program, inputs)
            times.append(time.perf_counter() - t0)
        records.append(BenchRecord(
            width=int(width),
            param_count=program.param_count,
            compile_s=cold,
            compile_cached_s=cached,
            exec_us=statistics.median(times) * 1e6,
        ))
    return records


def write_bench_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_CSV_FIELDS)
        for r in records:
            writer.writerow([r.width, r.param_count, f"{r.compile_s:.6f}",
                             f"{r.compile_cached_s:.6f}", f"{r.exec_us:.3f}"])
