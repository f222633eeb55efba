"""Workload process: set up one workload from its generated inputs, run its
ops in a closed loop (one client, no extra threads) and write the raw
results as JSON.

    python3 perfbench/workloads.py --inputs DIR --seconds S --trace 0|1 --out FILE
    python3 perfbench/workloads.py --inputs DIR --setup-only

``perfbench/run.py`` starts this with ``PYTHONPATH=src`` and the BLAS thread
counts pinned to 1; it is not meant to be run by hand. Every op is checked
by the workload's correctness gate; a failed op is counted, never skipped or
retried. Ops run in whole cycles (a fixed list of ops, or a fixed number of
fresh inputs), so each timed loop holds every op of a cycle equally often. With ``--trace 1`` the loop runs untraced for half the
time, then the same ops in the same order run again under the tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

from pace import EVERY_S, Pace, scale

HERE = Path(__file__).resolve().parent

# mc estimates must land within this many of their own standard errors.
MC_Z = 5.0


def _close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol, scaled by max(1, |b|) as the test suite does."""
    return abs(a - b) <= tol * max(1.0, abs(b))


class Workload:
    """``op(i)`` gives the i-th op as (label, thunk), ``check`` gates its
    result, and every ``cycle`` consecutive ops form one cycle; ``cycle`` is
    set once ``prepare`` has run."""

    cycle: int

    def prepare(self) -> None:
        """Untimed work after set-up, such as the gate's reference values."""


class CliScenarios(Workload):
    """One op is one in-process ``maxvar.cli.main(argv)`` writing to a file."""

    def __init__(self, inputs: Path, manifest: dict) -> None:
        import maxvar.cli

        self.cli = maxvar.cli
        csv = str(inputs / manifest["csv"])
        weights = ["--weights", manifest["weights"]]
        commands = [
            ("var.a95", ["var", "--alpha", "0.95", *weights]),
            ("var.a99", ["var", "--alpha", "0.99", *weights]),
            ("cvar.a95", ["cvar", "--alpha", "0.95", *weights]),
            ("cvar.a99", ["cvar", "--alpha", "0.99", *weights]),
            ("maxvar.choquet.n64", ["maxvar", "--n", "64", "--method", "choquet", *weights]),
            ("maxvar.mixture-exact.n8",
             ["maxvar", "--n", "8", "--method", "mixture-exact", *weights]),
            ("minvar.spectral.n8", ["minvar", "--n", "8", "--method", "spectral", *weights]),
            ("maxvar.mc.n7", ["maxvar", "--n", "7", "--method", "mc",
                              "--trials", str(manifest["mc_trials"]),
                              "--seed", str(manifest["mc_seed"]), *weights]),
            ("envelope.n4", ["envelope", "--n", "4", *weights]),
            ("curve.alpha", ["curve", "--alpha", manifest["alphas"], *weights]),
            ("curve.n", ["curve", "--n", "1:16", *weights]),
            ("verify", ["verify", "--n", "2", "--seed", str(manifest["verify_seed"]),
                        "--trials", str(manifest["verify_trials"])]),
        ]
        self.ops = []
        for k, (label, argv) in enumerate(commands):
            out = inputs / f"out-{k:02d}.txt"
            self.ops.append((label, [argv[0], "--input", csv, "--output", str(out),
                                     *argv[1:]], out))
        self.cycle = len(self.ops)
        self.first: dict[str, str] = {}
        self.expected = _recorded_digests(manifest)

    def op(self, i: int):
        label, argv, _ = self.ops[i % self.cycle]
        return label, lambda: self.cli.main(argv)

    def check(self, i: int, label: str, code) -> str | None:
        if code != 0:
            return f"{label}: exit code {code}"
        digest = hashlib.sha256(self.ops[i % self.cycle][2].read_bytes()).hexdigest()
        if self.first.setdefault(label, digest) != digest:
            return f"{label}: output differs from the first run of the same command"
        if self.expected is not None and self.expected.get(label) != digest:
            return f"{label}: output differs from the recorded digest"
        return None

    def digests(self) -> dict:
        return dict(self.first)


def _recorded_digests(manifest: dict) -> dict | None:
    """The digests recorded for this seed and preset, if any."""
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    if manifest["seed"] != recorded["seed"] or manifest["preset"] != recorded["preset"]:
        return None
    return recorded["cli-scenarios"]


class LargeLaw(Workload):
    """One law of about 1e5 atoms built once, then queried by many routes."""

    # Bytes moved per route call, computed from array sizes: the number of
    # full-length arrays each numpy expression in the route reads or writes,
    # all counted at 8 bytes an element, times the atom count (first number)
    # or the mc trial count (second). A sort counts as two passes; random
    # access into the cumulative array by searchsorted is not counted.
    PASSES = {
        "maxvar_choquet.n2": (10, 0), "maxvar_choquet.n64": (10, 0),
        "maxvar_spectral.n64": (16, 0), "maxvar_mixture_exact.n64": (55, 0),
        "minvar.n8": (44, 0), "var": (2, 0), "cvar_min": (17, 0), "cvar_choquet": (10, 0),
        "cvar_min.curve": (1700, 0), "maxvar_mc.n7": (0, 55),
        "extremal_density.n64": (15, 0), "core_check.n64": (54, 0), "dual_gap.n64": (71, 0),
    }

    def __init__(self, inputs: Path, manifest: dict) -> None:
        import numpy as np

        import maxvar

        self.mv = maxvar
        self.d = maxvar.from_samples(np.load(inputs / manifest["rows_file"]))
        self.d.cumulative, self.d.survival  # the per-law arrays, computed once
        self.alpha = manifest["alpha"]
        self.levels = np.linspace(0.0, 0.99, manifest["curve_levels"]).tolist()
        self.mc_seed = manifest["mc_seed"]
        self.trials = manifest["mc_trials"]

    def prepare(self) -> None:
        """Reference values for the gate; computed once, never timed."""
        mv, d = self.mv, self.d
        self.ref = {
            "mixture2": mv.maxvar_mixture_exact(d, 2),
            "mixture64": mv.maxvar_mixture_exact(d, 64),
            "choquet64": mv.maxvar_choquet(d, 64),
            "choquet7": mv.maxvar_choquet(d, 7),
            "minvar8": -mv.maxvar_mixture_exact(mv.affine(d, -1.0, 0.0), 8),
            "cvar_min": mv.cvar_min(d, self.alpha),
            "cvar_choquet": mv.cvar_choquet(d, self.alpha),
            "curve": [mv.cvar_choquet(d, a) for a in self.levels],
        }
        e64 = mv.extremal_density(d, 64)
        a, levels, trials, mc_seed = self.alpha, self.levels, self.trials, self.mc_seed
        # Names are looked up on the package at call time, so a tracer's
        # wrappers are seen.
        self.ops = [
            ("maxvar_choquet.n2", lambda: mv.maxvar_choquet(d, 2)),
            ("maxvar_choquet.n64", lambda: mv.maxvar_choquet(d, 64)),
            ("maxvar_spectral.n64", lambda: mv.maxvar_spectral(d, 64)),
            ("maxvar_mixture_exact.n64", lambda: mv.maxvar_mixture_exact(d, 64)),
            ("minvar.n8", lambda: mv.minvar(d, 8)),
            ("var", lambda: mv.var(d, a)),
            ("cvar_min", lambda: mv.cvar_min(d, a)),
            ("cvar_choquet", lambda: mv.cvar_choquet(d, a)),
            ("cvar_min.curve", lambda: [mv.cvar_min(d, x) for x in levels]),
            ("maxvar_mc.n7", lambda: mv.maxvar_mc(d, 7, trials, mv.SeededSampler(mc_seed))),
            ("extremal_density.n64", lambda: mv.extremal_density(d, 64)),
            ("core_check.n64", lambda: mv.core_check(d, 64, e64, collect_sets=False)),
            ("dual_gap.n64", lambda: mv.dual_gap(d, 64, e64)),
        ]
        self.cycle = len(self.ops)

    def op(self, i: int):
        return self.ops[i % self.cycle]

    def check(self, i: int, label: str, got) -> str | None:
        ref, d = self.ref, self.d
        if label == "maxvar_choquet.n2":
            ok = _close(got, ref["mixture2"], 1e-9)
        elif label == "maxvar_choquet.n64":
            ok = _close(got, ref["mixture64"], 1e-9)
        elif label == "maxvar_mixture_exact.n64":
            ok = _close(got, ref["choquet64"], 1e-9)
        elif label == "maxvar_spectral.n64":
            ok = _close(got, ref["choquet64"], 1e-12)
        elif label == "minvar.n8":
            ok = _close(got, ref["minvar8"], 1e-9)
        elif label == "var":
            ok = got == ref["cvar_min"].beta_star
        elif label == "cvar_min":
            ok = _close(got.value, ref["cvar_choquet"], 1e-10)
        elif label == "cvar_choquet":
            ok = _close(got, ref["cvar_min"].value, 1e-10)
        elif label == "cvar_min.curve":
            ok = all(_close(r.value, c, 1e-10) for r, c in zip(got, ref["curve"]))
        elif label == "maxvar_mc.n7":
            ok = abs(got.estimate - ref["choquet7"]) <= MC_Z * got.std_error
        elif label == "extremal_density.n64":
            attained = math.fsum(d.values * got.q * d.probs)
            ok = _close(attained, ref["choquet64"], 1e-10)
        elif label == "core_check.n64":
            ok = got.passed
        else:  # dual_gap.n64
            ok = abs(got) <= 1e-10 * max(1.0, abs(ref["choquet64"]))
        return None if ok else f"{label} outside its tolerance: {got!r}"

    def bytes_moved(self) -> dict:
        m, trials = self.d.atom_count, self.trials
        return {label: {"bytes": (a * m + t * trials) * 8, "source": "computed"}
                for label, (a, t) in self.PASSES.items()}


class ManyLaws(Workload):
    """One op builds one small law and passes it through every route."""

    def __init__(self, inputs: Path, manifest: dict) -> None:
        import numpy as np

        import maxvar

        self.mv = maxvar
        data = np.load(inputs / manifest["laws_file"])
        self.rows = data["rows"]
        self.offsets = data["offsets"].tolist()
        self.n = data["n"].tolist()
        self.alpha = data["alpha"].tolist()
        self.cycle = 25

    def op(self, i: int):
        j = i % len(self.n)
        rows = self.rows[self.offsets[j]:self.offsets[j + 1]]
        n, alpha, mv = self.n[j], self.alpha[j], self.mv

        def run():
            d = mv.from_samples(rows)
            e = mv.extremal_density(d, n)
            return {
                "choquet": mv.maxvar_choquet(d, n),
                "spectral": mv.maxvar_spectral(d, n),
                "mixture": mv.maxvar_mixture_exact(d, n),
                "quad": mv.maxvar_mixture_quad(d, n, mv.suggest_rule(d)),
                "cvar_min": mv.cvar_min(d, alpha).value,
                "cvar_choquet": mv.cvar_choquet(d, alpha),
                "core": mv.core_check(d, n, e).passed,
                "gap": mv.dual_gap(d, n, e),
            }

        return f"law{j}", run

    def check(self, i: int, label: str, r: dict) -> str | None:
        base = r["choquet"]
        failed = [
            name for name, ok in (
                ("mixture-exact", _close(r["mixture"], base, 1e-9)),
                ("spectral", _close(r["spectral"], base, 1e-12)),
                ("mixture-quad", _close(r["quad"], base, 1e-8)),
                ("cvar-routes", _close(r["cvar_min"], r["cvar_choquet"], 1e-10)),
                ("core-check", r["core"]),
                ("dual-gap", abs(r["gap"]) <= 1e-10 * max(1.0, abs(base))),
            ) if not ok
        ]
        return f"{label}: {', '.join(failed)} outside tolerance" if failed else None


class VerifySuite(Workload):
    """One op is one ``run_suite`` call on a fresh seed."""

    def __init__(self, inputs: Path, manifest: dict) -> None:
        import numpy as np

        import maxvar

        self.mv = maxvar
        self.seeds = np.load(inputs / manifest["seeds_file"]).tolist()
        self.trials = manifest["trials"]
        self.cycle = 4

    def op(self, i: int):
        seed = self.seeds[i % len(self.seeds)]
        return f"suite{seed}", lambda: self.mv.run_suite(seed, self.trials)

    def check(self, i: int, label: str, report) -> str | None:
        if report.passed:
            return None
        failing = [c.name for c in report.checks if not c.passed]
        return f"{label}: failed {', '.join(failing)}"


WORKLOADS = {
    "cli-scenarios": CliScenarios,
    "large-law": LargeLaw,
    "many-laws": ManyLaws,
    "verify-suite": VerifySuite,
}


class Loop:
    """Runs ops in order and keeps their latencies and gate failures."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.pace = Pace()

    def run(self, *, seconds: float | None = None, count: int | None = None,
            tracer=None) -> tuple[list[float], list[int], list[float]]:
        """Run from op 0 until ``count`` ops, or until ``seconds`` have passed
        at a cycle boundary. Returns the op latencies, and the pace samples
        with the index of the one before each op (see ``pace.scale``): a
        sample is taken before the first op, after an op once
        ``pace.EVERY_S`` has passed since the last sample, and after the last
        op."""
        latencies: list[float] = []
        paces = [self.pace.sample()]
        segments: list[int] = []
        last_pace = perf_counter()
        start = last_pace
        i = 0
        while True:
            if count is not None and i >= count:
                break
            if (seconds is not None and i % self.w.cycle == 0
                    and perf_counter() - start >= seconds):
                break
            label, thunk = self.w.op(i)
            if tracer is not None:
                tracer.op_id = i
            t0 = perf_counter()
            try:
                result = thunk()
                error = None
            except Exception as exc:  # counted as a failed op, then continue
                result, error = None, f"{label}: {type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t0)
            if error is None:
                error = self.w.check(i, label, result)
            self.attempted += 1
            if error is not None:
                self.failures.append(error)
            segments.append(len(paces) - 1)
            if perf_counter() - last_pace >= EVERY_S:
                paces.append(self.pace.sample())
                last_pace = perf_counter()
            i += 1
        if not segments or segments[-1] == len(paces) - 1:
            paces.append(self.pace.sample())
        return latencies, segments, paces


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    manifest = json.loads((args.inputs / "manifest.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[manifest["workload"]](args.inputs, manifest)
    if args.setup_only:
        return 0
    import maxvar

    workload.prepare()
    loop = Loop(workload)
    loop.run(count=workload.cycle)  # warm-up: one cycle, gated, not timed
    budget = args.seconds / 2 if args.trace else args.seconds
    latencies, segments, paces = loop.run(seconds=budget)
    result = {
        "maxvar_file": maxvar.__file__,
        "latencies_s": latencies,
        "scaled_latencies_s": scale(latencies, segments, paces),
        "pace_samples_s": paces,
        "pace_segments": segments,
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, _, _ = loop.run(count=len(latencies), tracer=tracer)
        finally:
            tracer.uninstall()
        per_layer = tracer.aggregate(len(traced), math.fsum(traced))
        per_layer["trace_overhead_ratio"] = math.fsum(latencies) / math.fsum(traced)
        result["per_layer"] = per_layer
        spans = args.out.with_suffix(".spans.jsonl")
        tracer.write(spans)
        result["spans_file"] = spans.name
    result.update(
        attempted=loop.attempted,
        failed=len(loop.failures),
        failures=loop.failures[:20],
        peak_rss_mb=_peak_rss_mb(),
    )
    if isinstance(workload, CliScenarios):
        result["digests"] = workload.digests()
    if isinstance(workload, LargeLaw):
        result["bytes_moved"] = workload.bytes_moved()
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
