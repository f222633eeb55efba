"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from maxvar import (
    SeededSampler,
    core_check,
    cvar_choquet,
    cvar_extremal_density,
    cvar_min,
    discrete_envelope_check,
    distortion_h,
    distortion_via_weights,
    dual_gap,
    extremal_density,
    maxvar_choquet,
    maxvar_mc,
    maxvar_mixture_exact,
    maxvar_mixture_quad,
    maxvar_spectral,
    minvar,
    mixture_density,
    run_suite,
    suggest_rule,
    var,
    weight,
)
from maxvar.axioms import _random_feasible_family, random_distribution
from maxvar.cli import sample_data_path
from maxvar.envelope import DiscreteMixtureSpec

from helpers import bernoulli_half, brute_force_maxvar, d4

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"


def _report(num: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} - {detail} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_brute_force_oracle():
    started = time.perf_counter()
    gen = SeededSampler(1001).generator()
    worst = 0.0
    for _ in range(200):
        d = random_distribution(gen, max_atoms=6)
        for n in (1, 2, 3):
            diff = abs(maxvar_choquet(d, n) - brute_force_maxvar(d, n))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, ok, f"200 laws x n in 1..3 vs exhaustive oracle, worst |diff|={worst:.3e}", started)
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_four_route_agreement():
    started = time.perf_counter()
    gen = SeededSampler(2002).generator()
    laws = [random_distribution(gen) for _ in range(100)]
    worst_mix = worst_spec = worst_quad = 0.0
    for d in laws:
        rule = suggest_rule(d, points_per_panel=16)
        for n in range(1, 11):
            base = maxvar_choquet(d, n)
            scale = max(1.0, abs(base))
            worst_mix = max(worst_mix, abs(base - maxvar_mixture_exact(d, n)) / scale)
            worst_spec = max(worst_spec, abs(base - maxvar_spectral(d, n)))
            worst_quad = max(worst_quad, abs(base - maxvar_mixture_quad(d, n, rule)))
    worst_mc = 0.0
    for d in laws[:5]:
        for n in (2, 7):
            base = maxvar_choquet(d, n)
            for seed in (101, 202, 303):
                est = maxvar_mc(d, n, 10**6, SeededSampler(seed))
                worst_mc = max(worst_mc, abs(est.estimate - base) / est.std_error)
    elapsed = time.perf_counter() - started
    ok = (
        worst_mix <= 1e-9
        and worst_spec <= 1e-12
        and worst_quad <= 1e-8
        and worst_mc <= 4.0
        and elapsed < 60.0
    )
    _report(
        2,
        ok,
        f"mixture rel={worst_mix:.2e} spectral={worst_spec:.2e} "
        f"quad={worst_quad:.2e} mc_z={worst_mc:.2f}",
        started,
    )
    assert worst_mix <= 1e-9
    assert worst_spec <= 1e-12
    assert worst_quad <= 1e-8
    assert worst_mc <= 4.0
    assert elapsed < 60.0


def test_criterion_3_named_values():
    started = time.perf_counter()
    d = d4()
    named = {
        "var_0.5": (var(d, 0.5), 3.0),
        "cvar_0.5": (cvar_min(d, 0.5).value, 3.5),
        "maxvar_2": (maxvar_choquet(d, 2), 3.125),
        "maxvar_3": (maxvar_choquet(d, 3), 3.4375),
        "minvar_2": (minvar(d, 2), 1.875),
        "bernoulli_maxvar_2": (maxvar_choquet(bernoulli_half(), 2), 0.75),
    }
    worst = max(abs(got - want) for got, want in named.values())
    ok = worst <= 1e-12
    _report(3, ok, f"six named values, worst |diff|={worst:.3e}", started)
    for name, (got, want) in named.items():
        assert abs(got - want) <= 1e-12, name


def test_criterion_4_axiom_suite():
    started = time.perf_counter()
    report = run_suite(seed=42, trials=1000)
    elapsed = time.perf_counter() - started
    failing = [c.name for c in report.checks if not c.passed]
    names = {c.name for c in report.checks}
    required = {
        "A1-constancy",
        "subadditivity",
        "A3-monotonicity",
        "A5-positive-homogeneity",
        "translation",
        "A4-surrogate",
        "abs-bound",
        "A6-averseness",
    }
    ok = report.passed and required <= names and elapsed < 60.0
    _report(4, ok, f"run_suite(42, 1000): {len(report.checks)} checks, failing={failing}", started)
    assert required <= names
    assert report.passed, failing
    assert elapsed < 60.0


def test_criterion_5_cvar_route_equality():
    started = time.perf_counter()
    gen = SeededSampler(5005).generator()
    worst = 0.0
    pairs = 0
    while pairs < 1000:
        d = random_distribution(gen, max_atoms=500)
        for alpha in (0.0, 0.5, 0.99, 0.999, float(gen.uniform(0.0, 0.999))):
            diff = abs(cvar_min(d, alpha).value - cvar_choquet(d, alpha))
            worst = max(worst, diff)
            pairs += 1
    ok = worst <= 1e-10
    _report(5, ok, f"{pairs} (law, alpha) pairs, worst |min-choquet|={worst:.3e}", started)
    assert worst <= 1e-10


def test_criterion_6_distortion_identity_and_weight_mass():
    started = time.perf_counter()
    worst_identity = 0.0
    for n in range(2, 9):
        for i in range(101):
            x = i / 100.0
            worst_identity = max(
                worst_identity, abs(distortion_h(n, x) - distortion_via_weights(n, x))
            )
    nodes, gl_w = np.polynomial.legendre.leggauss(33)
    x = 0.5 * (nodes + 1.0)
    worst_mass = 0.0
    for n in range(2, 17):
        total = 0.5 * math.fsum(gl_w * np.array([weight(n, xi) for xi in x]))
        worst_mass = max(worst_mass, abs(total - 1.0))
    ok = worst_identity <= 1e-10 and worst_mass <= 1e-12
    _report(
        6,
        ok,
        f"identity worst={worst_identity:.3e} on 101-grid x n=2..8, "
        f"weight mass worst={worst_mass:.3e} for n=2..16",
        started,
    )
    assert worst_identity <= 1e-10
    assert worst_mass <= 1e-12


def test_criterion_7_duality():
    started = time.perf_counter()
    gen = SeededSampler(7007).generator()
    laws = [random_distribution(gen) for _ in range(100)]
    worst_mean = worst_bound = worst_tight = worst_gap = 0.0
    for d in laws:
        for n in range(1, 11):
            e = extremal_density(d, n)
            worst_mean = max(worst_mean, abs(math.fsum(e.q * d.probs) - 1.0))
            worst_bound = max(worst_bound, float(np.max(e.q)) - n, float(-np.min(e.q)))
            rep = core_check(d, n, e, collect_sets=False)
            worst_tight = max(worst_tight, rep.max_equality_gap, abs(rep.mean_gap))
            worst_gap = max(worst_gap, abs(dual_gap(d, n, e)))
    worst_weak = -math.inf
    count = 0
    while count < 1000:
        d = laws[count % len(laws)]
        n = int(gen.integers(2, 11))
        fam = _random_feasible_family(d, gen)
        gap = dual_gap(d, n, mixture_density(d, n, fam))
        worst_weak = max(worst_weak, -gap)
        count += 1
    worst_discrete = 0.0
    for d in laws[:50]:
        k = int(gen.integers(1, 5))
        lams = gen.uniform(0.1, 1.0, size=k)
        lams = lams / math.fsum(lams)
        alphas = gen.uniform(0.0, 0.99, size=k)
        spec = DiscreteMixtureSpec(tuple(zip(lams.tolist(), alphas.tolist())))
        parts = [cvar_extremal_density(d, a) for _, a in spec.levels]
        combined = discrete_envelope_check(d, spec, parts)
        attained = math.fsum(d.values * combined.q * d.probs)
        bound = math.fsum(lam * cvar_min(d, a).value for lam, a in spec.levels)
        worst_discrete = max(worst_discrete, abs(attained - bound))
    ok = (
        worst_mean <= 1e-12
        and worst_bound <= 1e-12
        and worst_tight <= 1e-9
        and worst_gap <= 1e-10
        and worst_weak <= 1e-9
        and worst_discrete <= 1e-9
    )
    _report(
        7,
        ok,
        f"extremal mean={worst_mean:.1e} bound={worst_bound:.1e} tight={worst_tight:.1e} "
        f"gap={worst_gap:.1e}; weak={worst_weak:.1e}; discrete={worst_discrete:.1e}",
        started,
    )
    assert worst_mean <= 1e-12
    assert worst_bound <= 1e-12
    assert worst_tight <= 1e-9
    assert worst_gap <= 1e-10
    assert worst_weak <= 1e-9
    assert worst_discrete <= 1e-9


def test_criterion_8_cli_contract():
    started = time.perf_counter()
    sample = str(sample_data_path())
    cases = [
        ("var.json", ["var", "--input", sample, "--column", "loss", "--alpha", "0.5"]),
        ("cvar.json", ["cvar", "--input", sample, "--column", "loss", "--alpha", "0.5"]),
        ("maxvar.json", ["maxvar", "--input", sample, "--column", "loss", "--n", "2"]),
        (
            "maxvar_mc.json",
            [
                "maxvar", "--input", sample, "--column", "loss", "--n", "2",
                "--method", "mc", "--trials", "1000", "--seed", "7",
            ],
        ),
        ("minvar.json", ["minvar", "--input", sample, "--column", "loss", "--n", "2"]),
        ("envelope.csv", ["envelope", "--input", sample, "--column", "loss", "--n", "2"]),
        ("curve_maxvar.csv", ["curve", "--input", sample, "--column", "loss", "--n", "1:3"]),
        (
            "curve_cvar.csv",
            ["curve", "--input", sample, "--column", "loss", "--alpha", "0,0.5"],
        ),
        (
            "verify.json",
            ["verify", "--input", sample, "--n", "2", "--seed", "42", "--trials", "5"],
        ),
    ]
    mismatched = []
    for golden, args in cases:
        result = subprocess.run(
            [sys.executable, "-m", "maxvar", *args], capture_output=True, text=True
        )
        if result.returncode != 0:
            mismatched.append(f"{golden}: exit {result.returncode}")
        elif result.stdout != (GOLDEN / golden).read_text(encoding="utf-8"):
            mismatched.append(f"{golden}: output differs")
    corrupt = subprocess.run(
        [
            sys.executable,
            "-m",
            "maxvar",
            "verify",
            "--input",
            str(DATA / "corrupt_prob.csv"),
            "--trials",
            "3",
        ],
        capture_output=True,
        text=True,
    )
    ok = not mismatched and corrupt.returncode == 2
    _report(
        8,
        ok,
        f"{len(cases)} golden outputs byte-identical, corrupt fixture exit={corrupt.returncode}",
        started,
    )
    assert not mismatched, mismatched
    assert corrupt.returncode == 2
