"""Run every workload untraced and traced, and print each end-to-end metric
by name with its unit, plus failed_ratio, trace_overhead_ratio and the
layers with the largest self time.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run it from the root of a maxvar checkout. Each run's full result stays in
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import gen
from run import DEFAULT_SEED, END_TO_END, OUT_DIR

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    for workload in gen.WORKLOADS:
        plain = _run(workload, args.seed, args.seconds, 0)
        traced = _run(workload, args.seed, args.seconds, 1)
        tail = plain["tail"]
        print(f"{workload} (seed {args.seed}, {tail['samples']} timed ops)")
        for name, unit in END_TO_END.items():
            note = ""
            if name == "op_tail_ms":
                note = f"  p{tail['tail_percentile']} of {tail['samples']} samples"
            print(f"  {name:<22} {plain['end_to_end'][name]:12.6g} {unit}{note}")
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        print(f"  {'failed_ratio':<22} {failed / attempted:12.6g}   ({failed} of {attempted})")
        layers = traced["per_layer"]
        print(f"  {'trace_overhead_ratio':<22} {layers['trace_overhead_ratio']:12.6g}")
        selfs = sorted(((v, k[:-len('.self_s')]) for k, v in layers.items()
                        if k.endswith(".self_s") and k != "op.self_s"), reverse=True)
        total = layers["op.busy_s"]
        for value, name in selfs[:4]:
            print(f"    self_s {name:<34} {value * 1e3:10.3f} ms/op  {value / total:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
