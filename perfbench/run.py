"""dpgraph benchmark: analysis, compilation and private release, end to end.

    python3 perfbench/run.py --workload mlp_wrt_x --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; dpgraph is imported from its `src`. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. See perfbench/README.md.
"""

from __future__ import annotations

import speed

# Set-up time counts from here, so the first speed probe runs before the
# imports it times.
_SETUP_PROBES = speed.Probes()
_SETUP_START = _SETUP_PROBES.take()

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("mlp_wrt_x", "wide_elementwise", "release_stream")
SETUP_SAMPLES = 3  # this process's set-up plus two fresh interpreters


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def _setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter, as that interpreter measures it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _end_to_end(rounds, setup_s: float) -> dict:
    latencies = [t for r in rounds for t in r.latencies]
    gaps = rounds[0].gaps
    return {
        "setup_s": (setup_s, "s"),
        "compile_s": (statistics.median(r.times["compile"] for r in rounds), "s"),
        "ibp_s": (statistics.median(r.times["ibp"] for r in rounds), "s"),
        "global_opt_s": (statistics.median(r.times["global_opt"] for r in rounds), "s"),
        "ibp_gap": (math.exp(statistics.fmean(math.log(g) for g in gaps)), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "release_us": (statistics.median(latencies) * 1e6, "us"),
        "releases_per_s": (len(latencies) / sum(r.loop_s for r in rounds), "1/s"),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from tracing import Tracer
    except ImportError as err:
        print(f"perfbench: cannot import dpgraph from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        state = workloads.State(args.workload, args.seed, Path(tmp), _SETUP_PROBES)
    setup_end = _SETUP_PROBES.take()
    # CPU seconds since the interpreter started, less the probes' own
    setup_cpu = time.process_time() - sum(cpu for _, cpu in _SETUP_PROBES.samples)
    setup_s = setup_cpu * _SETUP_PROBES.scale(_SETUP_START, setup_end)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checks = workloads.Checks()
    rounds, traced_rounds, untraced_rounds = [], [], []
    load_s = 0.0
    if tracer:
        load_s = tracer.times["model_io.load"]
        tracer.uninstall()
        tracer.reset()
    start = time.perf_counter()
    while True:
        if tracer:
            # a pair: the same round untraced, then traced
            untraced_rounds.append(workloads.run_round(state, checks))
            tracer.install()
            try:
                traced_rounds.append(workloads.run_round(state, checks))
            finally:
                tracer.uninstall()
            last = untraced_rounds[-1].duration + traced_rounds[-1].duration
        else:
            rounds.append(workloads.run_round(state, checks))
            last = rounds[-1].duration
        # start another round only if it should end within --seconds
        if time.perf_counter() - start + last > args.seconds:
            break
    rounds += untraced_rounds + traced_rounds
    workloads.noise_is_standard([z for r in rounds for z in r.z], checks)

    if tracer:
        values = tracer.metrics(len(traced_rounds))
        values["model_io.load_s"] = load_s
        values["trace.overhead_s"] = (
            statistics.median(r.cpu for r in traced_rounds)
            - statistics.median(r.cpu for r in untraced_rounds))
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    else:
        samples = [setup_s] + [_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {k: {"value": v, "unit": unit}
                   for k, (v, unit) in _end_to_end(rounds, statistics.median(samples)).items()}

    for message in checks.errors[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    result = {
        "correct": not checks.errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, rounds=len(rounds)), indent=2) + "\n")
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_per_gradient") else "count"


if __name__ == "__main__":
    sys.exit(main())
