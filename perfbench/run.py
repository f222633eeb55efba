"""Benchmark entry point: run one workload of the maxvar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a maxvar checkout; it builds nothing and uses the
package under ``src/``. It generates the workload's inputs from ``--seed``,
times the workload's set-up in fresh interpreters, runs the workload process
and prints, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full result,
with provenance, goes to ``.perfbench_out/<workload>-seed<N>-trace<T>.json``
and a traced run's spans to the matching ``.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
from pace import Pace, scale
from tracer import metric_units

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
PACKAGE = Path("src/maxvar/__init__.py")
DEFAULT_SEED = 1
# Cold starts per run, half before and half after the workload process;
# set-up time is their median.
SETUP_STARTS = 12
# Every run, set-up and child processes included, ends within this.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# The tail percentile keeps at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> int:
    """Highest whole percentile in 50..99 with TAIL_BEYOND samples beyond it;
    50 when there are too few samples for any."""
    for q in range(99, 49, -1):
        if count * (100 - q) / 100.0 >= TAIL_BEYOND:
            return q
    return 50


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, env: dict) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "threads": {name: env[name] for name in THREAD_VARS},
    }


def _run_child(argv: list[str], env: dict, deadline: float) -> float:
    """Run a workload process to completion; returns its wall time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *argv],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise BenchError("workload process timed out") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return elapsed


def end_to_end(latencies: list[float], peak_rss_mb: float,
               setup_s: float) -> tuple[dict, dict]:
    """End-to-end metric values, plus notes on how the tail was taken."""
    ordered = sorted(latencies)
    q = tail_percentile(len(ordered))
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(ordered) / math.fsum(ordered),
        "op_p50_ms": percentile(ordered, 50) * 1e3,
        "op_tail_ms": percentile(ordered, q) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"tail_percentile": q, "samples": len(ordered),
             "beyond_tail": len(ordered) * (100 - q) / 100.0}
    return values, notes


def run(workload: str, seed: int, seconds: float, trace: int, preset: str) -> dict:
    root = Path.cwd()
    if not PACKAGE.is_file():
        raise BenchError(f"no {PACKAGE} here: run from the root of a maxvar checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, PYTHONPATH="src")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as work:
        manifest = gen.generate(workload, seed, preset, Path(work))

        pace = Pace()
        paces: list[float] = []
        starts: list[float] = []

        def cold_starts(count: int) -> None:
            # Each start sits between two pace samples, as ops do.
            for _ in range(count):
                paces.append(pace.sample())
                starts.append(_run_child(["--inputs", work, "--setup-only"], env, deadline))
                paces.append(pace.sample())

        cold_starts(SETUP_STARTS // 2)
        _run_child(["--inputs", work, "--seconds", str(seconds), "--trace", str(trace),
                    "--out", str(result_path.resolve())], env, deadline)
        cold_starts(SETUP_STARTS - len(starts))
    raw = json.loads(result_path.read_text(encoding="utf-8"))
    if not raw["maxvar_file"].startswith(str(root / "src")):
        raise BenchError(f"workload imported maxvar from {raw['maxvar_file']}")
    scaled_starts = scale(starts, range(0, len(paces), 2), paces)
    e2e, notes = end_to_end(raw["scaled_latencies_s"], raw["peak_rss_mb"],
                            statistics.median(scaled_starts))
    wall, _ = end_to_end(raw["latencies_s"], raw["peak_rss_mb"], statistics.median(starts))
    units = END_TO_END if not trace else metric_units()
    values = e2e if not trace else raw["per_layer"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    full = {
        **summary,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "end_to_end": e2e,
        "wall_clock": wall,
        "pace_ratio": math.fsum(raw["latencies_s"]) / math.fsum(raw["scaled_latencies_s"]),
        "failed_ratio": raw["failed"] / raw["attempted"],
        "tail": notes,
        "setup_starts_s": starts,
        "setup_paces_s": paces,
        "inputs": manifest,
        "provenance": provenance(root, env),
        **{k: raw[k] for k in ("failures", "digests", "bytes_moved", "spans_file",
                               "per_layer", "latencies_s", "scaled_latencies_s",
                               "pace_samples_s", "pace_segments")
                               if k in raw},
    }
    result_path.write_text(json.dumps(full, indent=1), encoding="utf-8")
    return full


def _print(full: dict) -> None:
    ops = full["tail"]["samples"]
    print(f"{full['workload']} seed={full['seed']} trace={full['trace']}: {ops} timed ops, "
          f"{full['failed']} of {full['attempted']} failed")
    print(f"  times at the nominal pace, wall clock in brackets; the pace reference "
          f"took {full['pace_ratio']:.3g} x its nominal time")
    for name, value in full["end_to_end"].items():
        unit = END_TO_END[name]
        note = f"  [{full['wall_clock'][name]:.6g}]" if name != "peak_rss_mb" else ""
        if name == "setup_s":
            note += f"  (median of {len(full['setup_starts_s'])} cold starts)"
        elif name == "op_tail_ms":
            tail = full["tail"]
            note += (f"  (p{tail['tail_percentile']} of {tail['samples']} samples, "
                     f"{tail['beyond_tail']:g} beyond)")
        print(f"  {name:<20} {value:.6g} {unit}{note}")
    print(f"  {'failed_ratio':<20} {full['failed_ratio']:.6g}")
    if full["trace"]:
        print(f"  {'trace_overhead_ratio':<20} "
              f"{full['per_layer']['trace_overhead_ratio']:.6g}")
    for failure in full.get("failures", [])[:5]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=tuple(gen.SIZES), default="default",
                        help="input sizes; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)
    try:
        full = run(args.workload, args.seed, args.seconds, args.trace, args.preset)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print(full)
    print(json.dumps({k: full[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
