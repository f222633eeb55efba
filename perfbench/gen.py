"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of the benchmark seed and a size preset:
the same seed gives byte-identical files. Only numpy is used here, so the
inputs never depend on the code under test. Each workload draws from its own
stream, ``default_rng([seed, stream])``, so workloads are independent.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Sizes per preset. "default" is what BENCHMARK.json runs; "tiny" is for the
# self-tests, where only the shape of the output matters.
SIZES = {
    "default": {
        "cli-scenarios": {"rows": 10_000, "mc_trials": 20_000, "alpha_levels": 20,
                          "verify_trials": 4},
        "large-law": {"atoms": 100_000, "duplicate_rows": 20_000, "mc_trials": 100_000,
                      "curve_levels": 100},
        "many-laws": {"laws": 4_000, "min_atoms": 2, "max_atoms": 300},
        "verify-suite": {"suites": 20_000, "trials": 16},
    },
    "tiny": {
        "cli-scenarios": {"rows": 200, "mc_trials": 500, "alpha_levels": 5,
                          "verify_trials": 1},
        "large-law": {"atoms": 2_000, "duplicate_rows": 400, "mc_trials": 2_000,
                      "curve_levels": 10},
        "many-laws": {"laws": 40, "min_atoms": 2, "max_atoms": 40},
        "verify-suite": {"suites": 200, "trials": 2},
    },
}

_STREAM = {"cli-scenarios": 1, "large-law": 2, "many-laws": 3, "verify-suite": 4}

WORKLOADS = tuple(_STREAM)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAM[workload]])


def _weights(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.uniform(0.05, 1.0, size=count)


def cli_scenarios(seed: int, size: dict, out: Path) -> dict:
    """A scenario CSV with outcome columns a-d and a ``prob`` column, plus the
    command parameters (portfolio weights, alpha grid, sampler seeds)."""
    rng = _rng("cli-scenarios", seed)
    rows = size["rows"]
    scale = np.array([100.0, 50.0, 20.0, 10.0])
    outcomes = rng.standard_t(4, size=(rows, 4)) * scale
    raw = _weights(rng, rows)
    probs = raw / raw.sum()
    lines = ["a,b,c,d,prob"]
    for row, prob in zip(outcomes.tolist(), probs.tolist()):
        lines.append(",".join(map(repr, row)) + "," + repr(prob))
    csv_path = out / "scenarios.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    mix = rng.dirichlet(np.ones(4))
    weights = ",".join(f"{name}={w:.4f}" for name, w in zip("abcd", mix))
    alphas = np.linspace(0.5, 0.99, size["alpha_levels"])
    return {
        "csv": csv_path.name,
        "rows": rows,
        "bytes": csv_path.stat().st_size,
        "weights": weights,
        "alphas": ",".join(f"{a:.4f}" for a in alphas),
        "mc_seed": int(rng.integers(1, 2**31)),
        "verify_seed": int(rng.integers(1, 2**31)),
        "mc_trials": size["mc_trials"],
        "verify_trials": size["verify_trials"],
    }


def large_law(seed: int, size: dict, out: Path) -> dict:
    """(value, weight) rows for one large law: ``atoms`` distinct heavy-tailed
    values, then ``duplicate_rows`` repeats of some of them, shuffled."""
    rng = _rng("large-law", seed)
    atoms = size["atoms"]
    base = rng.standard_t(3, size=atoms) * 100.0
    repeats = rng.choice(base, size=size["duplicate_rows"])
    values = np.concatenate([base, repeats])
    rng.shuffle(values)
    rows = np.column_stack([values, _weights(rng, len(values))])
    np.save(out / "rows.npy", rows)
    return {
        "rows_file": "rows.npy",
        "rows": len(rows),
        "bytes": rows.nbytes,
        "atoms": int(len(np.unique(base))),
        "alpha": float(np.round(rng.uniform(0.9, 0.99), 4)),
        "mc_seed": int(rng.integers(1, 2**31)),
        "mc_trials": size["mc_trials"],
        "curve_levels": size["curve_levels"],
    }


def many_laws(seed: int, size: dict, out: Path) -> dict:
    """``laws`` small laws, each given as (value, weight) rows with about one
    duplicate per five atoms, with a copy count n in 2..10 and a level alpha
    in [0, 0.999)."""
    rng = _rng("many-laws", seed)
    count = size["laws"]
    atoms = rng.integers(size["min_atoms"], size["max_atoms"] + 1, size=count)
    chunks, offsets = [], [0]
    for m in atoms.tolist():
        base = rng.uniform(-100.0, 100.0, size=m)
        values = np.concatenate([base, rng.choice(base, size=m // 5)])
        chunks.append(np.column_stack([values, _weights(rng, len(values))]))
        offsets.append(offsets[-1] + len(values))
    rows = np.concatenate(chunks)
    np.savez(
        out / "laws.npz",
        rows=rows,
        offsets=np.array(offsets, dtype=np.int64),
        n=rng.integers(2, 11, size=count),
        alpha=rng.uniform(0.0, 0.999, size=count),
    )
    return {
        "laws_file": "laws.npz",
        "laws": count,
        "rows": len(rows),
        "bytes": rows.nbytes,
        "atoms": int(atoms.sum()),
    }


def verify_suite(seed: int, size: dict, out: Path) -> dict:
    """Fresh ``run_suite`` seeds, one per op, and the trial count per call."""
    rng = _rng("verify-suite", seed)
    seeds = rng.integers(1, 2**31, size=size["suites"])
    np.save(out / "seeds.npy", seeds)
    return {"seeds_file": "seeds.npy", "suites": len(seeds), "trials": size["trials"]}


_GENERATORS = {
    "cli-scenarios": cli_scenarios,
    "large-law": large_law,
    "many-laws": many_laws,
    "verify-suite": verify_suite,
}


def generate(workload: str, seed: int, preset: str, out: Path) -> dict:
    """Write the workload's inputs into ``out`` and a ``manifest.json`` that
    describes them; returns the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": int(seed), "preset": preset}
    manifest.update(_GENERATORS[workload](seed, SIZES[preset][workload], out))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
