"""Compilation of graphs to linear register programs, execution, benchmarks.

Compilation runs the optimizer, linearizes the surviving nodes, binds each
instruction's kernel to the node's attrs and operand ranks, and assigns tensor slots with last-use reuse; it also
lays the leaves out in groups (`LeafGroup`): the bounded leaves by their
bounds, so that a release clips each group once, and the unbounded ones in a
group of their own. That layout is the table `execute` binds through: each
group from one flat vector, each member's register a reshaped view of its
slice. A caller that already holds the vectors, as a release holds its
clipped ones and the Jacobian objective its stacks of points, passes them
as they are; inputs given by name are packed into them first. It is
where the derivative graphs of `autodiff`, which come unoptimized, are
optimized, so a compiled program's `optimized_graph` is the one to
differentiate or inspect further. Each program is cached under one key, the
content hash of the graph as given, which is also the program's fingerprint,
so recompiling an identical graph is one hash and a lookup.

Finiteness invariant: execution raises `NumericalError` whenever a value the
outputs depend on is NaN or Inf, without scanning intermediate results. The
bound inputs are checked by one scan of each group's vector, and every
constant once when the program is linearized. Once all operands are finite,
a kernel can only produce NaN or Inf by raising an IEEE divide-by-zero,
overflow or invalid flag, and the kernels run with those flags trapped;
underflow to zero is allowed.

Batch rule: `execute(program, inputs, batch_shape=B)` evaluates the program at
many points through the same plan. Each input, or each group's vector, is
bound either with its declared shape, shared by every point, or with shape B
followed by its declared shape, one value per point; every output has shape
B followed by its declared shape, broadcast when it depends on no per-point
input. The kernels
index their axes from the end, so the batch axes ride through them (see the
kernels of `graph.OPS`), and the default B = () is the unbatched call, which
accepts declared shapes only. A batch that traps at any point raises like an
unbatched call, naming a node where a point trapped; finding which points
trap is the caller's job (`lipschitz` halves the stack). Batches run in
chunks of at most `BATCH_BYTES` of values. A call whose points fit one chunk,
the unbatched call among them, returns its output registers as they are,
copying only an output that would alias a bound input, a constant or another
output, and broadcasting one that no per-point input reaches; a call of
several chunks copies each chunk's outputs into its own arrays. Either way
the caller owns every array it gets back.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
import threading
import time
from collections import OrderedDict, abc
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Sequence

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


# each kind's name; a dict lookup costs less than Enum's `value` descriptor
_KIND_TEXT = {kind: kind.value for kind in OpKind}


def content_hash(graph: Graph) -> str:
    """Content hash of a graph, insensitive to construction order.

    Interior node names never enter the hash; Input/Parameter names, shapes,
    and bounds do, because they are the binding surface of the program.
    """
    digests: dict[int, str] = {}
    reached = graph.reached
    sha256 = hashlib.sha256
    for node in graph.nodes:  # inputs precede their users
        kind = node.kind
        if kind is OpKind.INPUT or kind is OpKind.PARAMETER:
            parts = [_KIND_TEXT[kind], node.name, node.shape.text]
            b = node.bounds
            if b is not None:
                parts += (b.lo.tobytes().hex(), b.hi.tobytes().hex())
        elif node.id not in reached:
            continue
        elif kind is OpKind.CONSTANT:
            parts = [_KIND_TEXT[kind], node.shape.text,
                     node.attrs["value"].tobytes().hex()]
        else:  # repr(attr_key({})) is "()"
            parts = [_KIND_TEXT[kind], repr(attr_key(node.attrs)) if node.attrs else "()"]
            parts += [digests[i] for i in node.inputs]
        digests[node.id] = sha256("|".join(parts).encode()).hexdigest()

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
    their first leaves in `Graph.leaves`. `execute` binds each group from
    one flat vector of the group's last stop elements and scans it for NaN
    and Inf once.
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
    # per output: its slot is a leaf's, a constant's or an earlier output's
    output_shared: tuple[bool, ...]
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
    reachable = opt.reached
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
        b = node.bounds
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
    shared = {slot_of[h] for h in slot_of if opt.nodes[h].kind in LEAF_KINDS}
    output_shared = []
    for s in output_slots:
        output_shared.append(s in shared)
        shared.add(s)
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
        output_shared=tuple(output_shared),
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


def real_array(value, what: str) -> np.ndarray:
    """`value` as a float64 array. Raises `NumericalError`, naming `what`,
    when it is not an array of real numbers: a float64 conversion would
    parse strings, drop imaginary parts, or fail with a bare ValueError on a
    ragged nesting."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as err:
        raise NumericalError(f"{what} is not an array of real numbers") from err
    if arr.dtype.kind not in "biuf":  # bool, signed, unsigned, float
        raise NumericalError(f"{what} holds {arr.dtype} values, not real numbers")
    return arr.astype(np.float64, copy=False)


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
        arr = real_array(arr, f"input '{name}'")
    if arr.shape != dims and (not batch or arr.shape != batch + dims):
        expected = f"{dims} or {batch + dims}" if batch else f"{dims}"
        raise ShapeMismatch(f"input '{name}' expects shape {expected}, got {arr.shape}")
    return arr


def group_vector(inputs: Mapping[str, Any], members,
                 batch: tuple[int, ...] = ()) -> np.ndarray:
    """The flat vector of one leaf group (`LeafGroup.members`) from values
    bound by name, each checked as `leaf_array` checks it.

    Its shape is (size,) when every member has its declared shape, and
    `batch + (size,)` when some member holds one value per point; a member
    shared by every point is then broadcast to each. A lone member is
    reshaped, several are concatenated.
    """
    arrs = [leaf_array(inputs, name, dims, batch) for name, dims, *_ in members]
    size = members[-1][3]
    if len(arrs) == 1:
        arr = arrs[0]
        return arr.reshape(arr.shape[:arr.ndim - len(members[0][1])] + (size,))
    if all(arr.shape == m[1] for arr, m in zip(arrs, members)):
        return np.concatenate([arr.ravel() for arr in arrs])
    return np.concatenate([np.broadcast_to(arr, batch + dims).reshape(batch + (stop - start,))
                           for arr, (_, dims, start, stop, _) in zip(arrs, members)],
                          axis=-1)


def _batch_dims(batch_shape) -> tuple[int, ...]:
    if type(batch_shape) is tuple and not batch_shape:  # the unbatched call
        return ()
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


def execute(program: CompiledProgram, inputs: Mapping[str, Any] | Sequence[Any],
            batch_shape: tuple[int, ...] = ()) -> list[np.ndarray]:
    """Run a compiled program; returns one array per declared output.

    `inputs` takes one of two forms, and neither is ever mutated:
    - a mapping from leaf name to value. Every declared Input/Parameter must
      be supplied, even ones the outputs do not depend on, and each value is
      checked as `leaf_array` checks it; the values are first packed into
      one vector per leaf group by `group_vector`.
    - a sequence of one flat vector per group of `program.leaf_groups`, in
      its order, of shape (size,) or B + (size,), where size is the group's
      last member's stop; each member reads its start:stop slice.
    No returned array shares memory with an input, a constant or another
    output. With the default `batch_shape` every value must have exactly its
    declared shape. With a batch shape B, each value (each vector) has either
    its declared shape, shared by every point, or B followed by it, and each
    output has shape B followed by its declared shape (the batch rule of the
    module docstring); a B that is not a sequence of non-negative integers,
    a wrong count of vectors or a vector of another shape raise
    `ShapeMismatch`. Each group's vector is scanned for NaN and Inf once, so
    within a group a missing value or a wrong shape is reported before a
    non-finite value.

    Raises `NumericalError` when a bound input or a constant of the program
    holds NaN or Inf (checked once, before any kernel runs; the error names
    the first such input of its group), or when a kernel raises a
    divide-by-zero, overflow or invalid floating-point flag; with finite
    operands those flags are the only way to a non-finite value, so no
    intermediate result is scanned. A batched call raises when any of its
    points traps, and the error names a node where one does.
    """
    batch = _batch_dims(batch_shape)
    groups = program.leaf_groups
    if isinstance(inputs, abc.Mapping):
        if not program.leaf_names.issuperset(inputs):
            unknown = sorted(inputs.keys() - program.leaf_names)[0]
            raise UnknownNode(f"no declared input named {unknown!r}")
        inputs = [group_vector(inputs, members, batch) for _, members in groups]
    elif len(inputs) != len(groups):
        raise ShapeMismatch(f"expected {len(groups)} group vectors, got {len(inputs)}")

    n = math.prod(batch)
    regs: list[Any] = [None] * program.n_slots
    for slot, value in program.const_loads:
        regs[slot] = value
    per_point: dict[int, np.ndarray] = {}
    for (_, members), vec in zip(groups, inputs):
        size = members[-1][3]
        if type(vec) is not np.ndarray or vec.dtype is not _FLOAT64:
            vec = real_array(vec, f"the group of input '{members[0][0]}'")
        shared = vec.shape == (size,)
        if not shared and (not batch or vec.shape != batch + (size,)):
            expected = f"{(size,)} or {batch + (size,)}" if batch else f"{(size,)}"
            raise ShapeMismatch(f"the group of input '{members[0][0]}' expects "
                                f"shape {expected}, got {vec.shape}")
        if not np.isfinite(vec).all():
            name = next(name for name, _, start, stop, _ in members
                        if not np.isfinite(vec[..., start:stop]).all())
            raise NumericalError(f"non-finite value bound to input '{name}'")
        if not shared and len(batch) > 1:  # the points along one axis
            vec = vec.reshape(n, size)
        lead = () if shared else (n,)
        for _, dims, start, stop, slot in members:
            if slot is not None:  # a view of the member's slice
                regs[slot] = vec[..., start:stop].reshape(lead + dims)
                if not shared:
                    per_point[slot] = regs[slot]
    if program.nonfinite_constant is not None:
        raise NumericalError(
            f"non-finite value in constant '{program.nonfinite_constant}'")

    # the batch runs through the plan in chunks of points, all on `regs`: a
    # plan writes each register before it reads it, and it never writes the
    # registers of leaves and constants
    step = chunk_points(program) if batch else 1  # an unbatched call is one point
    one_chunk = 0 < n <= step
    outs = [] if one_chunk else [np.empty((n,) + dims) for dims in program.output_dims]
    for start in range(0, n, step):
        if not one_chunk:  # the last chunk's slices stop at n
            for slot, arr in per_point.items():
                regs[slot] = arr[start:start + step]
        _run(program, regs)
        if one_chunk:
            # a register is returned as it is unless it is a view, or the
            # register of a leaf, a constant or an earlier output; any other
            # holds an array that its kernel made and nothing else holds
            for s, dims, shared in zip(program.output_slots, program.output_dims,
                                       program.output_shared):
                out = regs[s]
                if batch and out.ndim == len(dims):  # no per-point input reaches it
                    out = np.broadcast_to(out, (n,) + dims).copy()
                elif shared or type(out) is not np.ndarray or out.base is not None:
                    out = np.array(out)  # a NumPy scalar becomes an array too
                outs.append(out.reshape(batch + dims) if len(batch) > 1 else out)
            return outs
        for out, s in zip(outs, program.output_slots):
            out[start:start + step] = regs[s]
    return [out.reshape(batch + dims) for out, dims in zip(outs, program.output_dims)]


def _run(program: CompiledProgram, regs: list) -> None:
    """The plan's kernels on bound registers, with FP flags trapped. Each
    kernel is called with its operands as arguments; only a Concat of three
    or more parts has them gathered in a list first."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise",
                         under="ignore"):
            for instr in program.plan:
                ins = instr.in_slots
                if len(ins) == 2:
                    regs[instr.out_slot] = instr.kernel(regs[ins[0]], regs[ins[1]])
                elif len(ins) == 1:
                    regs[instr.out_slot] = instr.kernel(regs[ins[0]])
                else:  # a Concat of three or more parts
                    regs[instr.out_slot] = instr.kernel(*[regs[s] for s in ins])
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
            lo, hi = node.bounds.broadcast_to(node.shape)
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
