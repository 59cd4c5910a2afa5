"""Command-line front end: analyze a model, run it privately, benchmark.

Exit codes: 0 success, 2 input or validation problems, 3 analysis or
optimizer failures, 4 invalid privacy parameters; one mapping,
`_exit_code`, decides the code of every refusal. The `run` command only
ever writes privatized values; there is no flag that exposes raw results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DimensionTooLarge,
    DpGraphError,
    FingerprintMismatch,
    InvalidParams,
    NonFinite,
    NumericalError,
    OptimizerFailure,
)
from .lipschitz import METHODS, OptimizerConfig, estimate_sensitivity
from .mechanism import PrivacyParams, privatize
from .model_io import load_model
from .report import SensitivityReport
from . import runtime

_ANALYSIS_ERRORS = (OptimizerFailure, NumericalError, DimensionTooLarge,
                    FingerprintMismatch, NonFinite)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its usage errors
    return parse


def _exit_code(err: DpGraphError) -> int:
    """The one mapping from a refusal to an exit code."""
    if isinstance(err, InvalidParams):
        return 4
    if isinstance(err, _ANALYSIS_ERRORS):
        return 3
    return 2


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _writable(path: Path) -> Path:
    """`path`, when a file can be written there; else a refusal that names
    it. Each command asks before its analysis, so that a run draws no noise
    that it cannot save."""
    parent = path.parent
    if path.is_dir():
        raise DpGraphError(f"cannot write {path}: it is a directory")
    if not parent.is_dir():
        raise DpGraphError(f"cannot write {path}: no directory {parent}")
    if not os.access(path if path.exists() else parent, os.W_OK):
        raise DpGraphError(f"cannot write {path}: permission denied")
    return path


def _save(path: Path, write) -> None:
    """`write(path)`; when that fails, a refusal, and no file that it made."""
    existed = path.exists()
    try:
        write(path)
    except OSError as err:
        if not existed:
            path.unlink(missing_ok=True)
        raise DpGraphError(f"cannot write {path}: {err}") from err


def _load_data_tensor(path: Path, shape) -> np.ndarray:
    if shape.rank > 2:
        raise DpGraphError(f"{path}: a CSV file holds at most two axes, not "
                           f"the declared shape {shape}")
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except OSError as err:
        raise DpGraphError(f"cannot read data file {path}: {err}") from err
    except ValueError as err:
        raise DpGraphError(f"cannot parse CSV {path}: {err}") from err
    if np.isnan(raw).any():
        raise DpGraphError(f"{path}: data contains NaN")
    dims = shape.dims
    if len(dims) == 2:
        if raw.shape != dims:
            raise DpGraphError(
                f"{path}: declared shape {shape} but CSV is {raw.shape}")
        return raw
    if len(dims) == 1:
        if raw.shape == (1, dims[0]):
            return raw[0]
        if raw.shape == (dims[0], 1):
            return raw[:, 0]
        raise DpGraphError(
            f"{path}: declared shape {shape} but CSV is {raw.shape}")
    if raw.shape != (1, 1):
        raise DpGraphError(f"{path}: declared scalar but CSV is {raw.shape}")
    return np.asarray(raw[0, 0])


def _collect_data(graph, specs: list[str]) -> dict[str, np.ndarray]:
    needed = {graph.nodes[h].name: graph.nodes[h].shape for h in graph.leaves()}
    data = {}
    for spec in specs:
        if "=" in spec:
            name, _, path = spec.partition("=")
        elif len(needed) == 1:
            name, path = next(iter(needed)), spec
        else:
            raise DpGraphError(
                f"--data {spec!r}: use name=path when the model has several "
                f"tensors ({', '.join(sorted(needed))})")
        if name not in needed:
            raise DpGraphError(f"--data names unknown tensor {name!r}")
        data[name] = _load_data_tensor(Path(path), needed[name])
    missing = sorted(set(needed) - set(data))
    if missing:
        raise DpGraphError(f"no data supplied for tensor(s): {', '.join(missing)}")
    return data


def _print_report_table(reports: list[SensitivityReport]) -> None:
    print(f"{'method':<12} {'bound':>14} {'interval_low':>14} "
          f"{'certified':>9} {'wall_ms':>9}")
    for r in reports:
        print(f"{r.method:<12} {r.bound:>14.6f} {r.interval_low:>14.6f} "
              f"{'yes' if r.certified else 'no':>9} {r.wall_time * 1e3:>9.1f}")
        if r.warning:
            print(f"  warning: {r.warning}")


def _analysis_dict(model_path: str, fingerprint: str,
                   reports: list[SensitivityReport]) -> dict:
    return {
        "tool_version": __version__,
        "model_path": str(model_path),
        "fingerprint": fingerprint,
        "reports": [r.to_json_dict() for r in reports],
    }


def cmd_analyze(args) -> int:
    try:
        graph = load_model(args.model)
        graph.require_valid()
        out = _writable(Path(args.out) if args.out
                        else Path(args.model).with_suffix(".analysis.json"))
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        bad = [m for m in methods if m not in METHODS]
        if bad or not methods:
            return _fail(2, f"unknown method(s) {bad}; choose from {METHODS}")
        config = OptimizerConfig(seed=args.seed, n_samples=args.samples)
        fingerprint = runtime.graph_fingerprint(graph)
        reports = [estimate_sensitivity(graph, method=method, config=config)
                   for method in methods]
        text = json.dumps(_analysis_dict(args.model, fingerprint, reports),
                          indent=2, sort_keys=True) + "\n"
        _save(out, lambda path: path.write_text(text))
    except DpGraphError as err:
        return _fail(_exit_code(err), str(err))
    _print_report_table(reports)
    print(f"report written to {out}")
    return 0


def _load_cached_report(path: str, fingerprint: str) -> SensitivityReport:
    try:
        doc = json.loads(Path(path).read_text())
        reports = [SensitivityReport.from_json_dict(r) for r in doc["reports"]]
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise DpGraphError(f"cannot read analysis file {path}: {err}") from err
    usable = [r for r in reports
              if r.fingerprint == fingerprint and r.method != "grid_oracle"]
    if not usable:
        raise FingerprintMismatch(
            f"analysis file {path} has no report matching the model fingerprint")
    usable.sort(key=lambda r: r.bound)
    return usable[0]


def cmd_run(args) -> int:
    try:
        graph = load_model(args.model)
        graph.require_valid()
        out = _writable(Path(args.out) if args.out
                        else Path(args.model).with_suffix(".private.json"))
        program = runtime.compile(graph)
        data = _collect_data(graph, args.data or [])
        params = PrivacyParams(epsilon=args.epsilon, delta=args.delta,
                               sensitivity_cap=args.cap)
        if args.analysis:
            report = _load_cached_report(args.analysis, program.fingerprint)
        else:
            config = OptimizerConfig(seed=args.optimizer_seed)
            report = estimate_sensitivity(graph, method="global_opt",
                                          config=config)
        output = privatize(program, data, params, report, seed=args.seed)
        doc = output.to_json_dict()
        doc["fingerprint"] = program.fingerprint
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        _save(out, lambda path: path.write_text(text))
    except DpGraphError as err:
        return _fail(_exit_code(err), str(err))
    seeded = "" if output.seed is None else (
        f" seed={output.seed} (a published seed removes the noise)")
    print(f"sigma={output.sigma:.6g} clipped_fraction={output.clipped_fraction:.4f} "
          f"output_l2_norm={output.output_l2_norm:.6g}{seeded}")
    print(f"privatized output written to {out}")
    return 0


def cmd_bench(args) -> int:
    try:
        widths = [int(w) for w in args.widths.split(",") if w.strip()]
        if not widths or any(w < 1 for w in widths):
            raise ValueError("widths must be positive integers")
        if args.reps < 1:
            raise ValueError("reps must be >= 1")
        out = _writable(Path(args.out) if args.out else Path("bench.csv"))
    except (ValueError, DpGraphError) as err:
        return _fail(2, str(err))
    if args.reps == 1:
        print("warning: a single repetition gives noisy medians", file=sys.stderr)
    records = runtime.benchmark(widths, repetitions=args.reps)
    try:
        _save(out, lambda path: runtime.write_bench_csv(records, path))
    except DpGraphError as err:
        return _fail(2, str(err))
    print(f"{'width':>6} {'params':>10} {'compile_s':>10} {'cached_s':>10} "
          f"{'exec_us':>10}")
    for r in records:
        print(f"{r.width:>6} {r.param_count:>10} {r.compile_s:>10.4f} "
              f"{r.compile_cached_s:>10.4f} {r.exec_us:>10.1f}")
    print(f"benchmark written to {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpgraph",
        description="Sensitivity analysis and differentially private execution "
                    "of tensor queries")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bound the sensitivity of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--methods", default="ibp,global_opt",
                   help="comma list from ibp,global_opt,grid_oracle")
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="optimizer sampling seed")
    p.add_argument("--samples", type=_int_at_least(1), default=128)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("run", help="execute a model with privatized output")
    p.add_argument("--model", required=True)
    p.add_argument("--data", action="append", default=[],
                   metavar="NAME=CSV", help="repeatable; bare path if one tensor")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="noise seed, written into the output: anyone who holds it "
                        "can regenerate the noise and remove it, so give one only "
                        "for tests and replays (default: OS entropy, recorded as null)")
    p.add_argument("--cap", type=float, default=None,
                   help="refuse when the sensitivity bound exceeds this cap")
    p.add_argument("--analysis", default=None,
                   help="reuse a fingerprint-matched analysis report")
    p.add_argument("--optimizer-seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", default=None, help="output JSON path")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="compile/execute timing across widths")
    p.add_argument("--widths", default="16,64,256,1024")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
