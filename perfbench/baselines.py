"""Re-measure the layer baselines listed in ROADMAP item 1 at their sizes,
and print them as a Markdown table next to the listed figures.

    PYTHONPATH=src python3 perfbench/baselines.py [--seed N]

Each row is the median of 3 runs (one for the n = 1..64 sweep), timed with
``time.perf_counter`` around public calls. A row is flagged when the
measured time is off from the listed one by more than a factor of two.
Inputs come from the benchmark generators at the listed sizes; files go to
``.perfbench_out/baselines/``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
from run import OUT_DIR

import maxvar as mv

REPEATS = 3


def _time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    out = OUT_DIR / "baselines"
    size = dict(gen.SIZES["default"]["large-law"], atoms=1_000_000, duplicate_rows=200_000)
    big = gen.large_law(args.seed, size, _fresh(out / "law"))
    rows = np.load(out / "law" / big["rows_file"])
    law = mv.from_samples(rows)
    law.cumulative, law.survival
    csv = gen.cli_scenarios(args.seed, dict(gen.SIZES["default"]["cli-scenarios"],
                                            rows=200_000), _fresh(out / "csv"))
    table = mv.load_csv(out / "csv" / csv["csv"])
    portfolio = mv.PortfolioSpec({"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1})
    gen_small = np.random.default_rng([args.seed, 9])
    small = mv.from_samples(np.column_stack([gen_small.uniform(-100, 100, 280),
                                             gen_small.uniform(0.05, 1.0, 280)]))
    rule = mv.suggest_rule(small)
    alphas = np.linspace(0.0, 0.99, 100).tolist()
    k = REPEATS
    rows_out = [
        ("maxvar_choquet, n=5", f"{law.atom_count} atoms", 0.13,
         _time(lambda: mv.maxvar_choquet(law, 5), k)),
        ("maxvar_choquet, n=64", f"{law.atom_count} atoms", 1.24,
         _time(lambda: mv.maxvar_choquet(law, 64), k)),
        ("from_samples", f"{len(rows)} rows", 0.25, _time(lambda: mv.from_samples(rows), k)),
        ("load_csv", f"{csv['rows']} x 4 + prob, {csv['bytes']} bytes", 0.87,
         _time(lambda: mv.load_csv(out / "csv" / csv["csv"]), k)),
        ("emit_envelope, n=4", f"{csv['rows']} rows", 0.54,
         _time(lambda: mv.emit_envelope(table, portfolio, 4), k)),
        ("maxvar_mc, 1e6 trials, n=7", f"{law.atom_count} atoms", 0.76,
         _time(lambda: mv.maxvar_mc(law, 7, 10**6, mv.SeededSampler(7)), k)),
        ("maxvar_mixture_quad, n=8", f"{small.atom_count} atoms, {rule.panels} panels", 0.010,
         _time(lambda: mv.maxvar_mixture_quad(small, 8, rule), k)),
        ("cvar_min over 100 alphas", f"{law.atom_count} atoms", 0.92,
         _time(lambda: [mv.cvar_min(law, a) for a in alphas], k)),
        ("maxvar_choquet for n = 1..64 (curve --n 1:64)", f"{law.atom_count} atoms", 41.0,
         _time(lambda: [mv.maxvar_choquet(law, n) for n in range(1, 65)], 1)),
    ]
    print("| layer | size | ROADMAP (s) | measured (s) | ratio | flag |")
    print("| --- | --- | ---: | ---: | ---: | --- |")
    for name, what, listed, measured in rows_out:
        ratio = measured / listed
        flag = "disagrees" if not 0.5 <= ratio <= 2.0 else ""
        print(f"| {name} | {what} | {listed:.3g} | {measured:.3g} | {ratio:.2f} | {flag} |")
    return 0


def _fresh(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
