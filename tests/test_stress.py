"""Adversarial regression cases: extreme magnitudes, probability skew,
large copy counts, and near-1 levels."""

import numpy as np
import pytest

from maxvar import (
    cvar_choquet,
    cvar_min,
    dual_gap,
    extremal_density,
    from_samples,
    maxvar_choquet,
    maxvar_mixture_exact,
    maxvar_mixture_quad,
    maxvar_spectral,
    mixture_density,
    suggest_rule,
)
from maxvar.axioms import _random_feasible_family

from helpers import skewed_law


@pytest.fixture(scope="module")
def mixed_magnitudes():
    rng = np.random.default_rng(99)
    values = np.concatenate(
        [rng.uniform(-1e8, 1e8, 50), rng.uniform(-1e-8, 1e-8, 50)]
    )
    weights = rng.uniform(0.01, 1.0, 100)
    return from_samples(np.column_stack([values, weights]))


@pytest.fixture(scope="module")
def skewed_probs():
    # one atom carries ~1 - 1e-9 of the mass, the rest is dust
    return skewed_law()


def assert_routes_agree(d, n):
    base = maxvar_choquet(d, n)
    scale = max(1.0, abs(base))
    assert abs(base - maxvar_mixture_exact(d, n)) <= 1e-9 * scale
    assert abs(base - maxvar_spectral(d, n)) <= 1e-12 * scale
    assert abs(base - maxvar_mixture_quad(d, n, suggest_rule(d))) <= 1e-8 * scale
    assert abs(dual_gap(d, n, extremal_density(d, n))) <= 1e-10 * scale


@pytest.mark.parametrize("n", [1, 2, 5, 10, 25])
def test_mixed_magnitude_routes(mixed_magnitudes, n):
    assert_routes_agree(mixed_magnitudes, n)


@pytest.mark.parametrize("n", [1, 2, 10])
def test_skewed_probability_routes(skewed_probs, n):
    assert_routes_agree(skewed_probs, n)


def test_large_copy_count_saturates_at_max_atom():
    d = from_samples([(1, 1), (2, 1), (3, 1), (4, 1)])
    value = maxvar_choquet(d, 400)
    assert value <= 4.0
    assert abs(value - 4.0) < 1e-10


@pytest.mark.parametrize("alpha", [0.99, 0.999999, 1 - 1e-12])
def test_extreme_level_cvar_routes(mixed_magnitudes, skewed_probs, alpha):
    for d in (mixed_magnitudes, skewed_probs):
        res = cvar_min(d, alpha)
        scale = max(1.0, abs(res.value))
        assert abs(res.value - cvar_choquet(d, alpha)) <= 1e-10 * scale
        assert res.beta_star <= res.value <= float(d.values[-1]) + 1e-12 * scale


def test_weak_duality_under_skew(skewed_probs):
    rng = np.random.default_rng(97)
    for _ in range(50):
        fam = _random_feasible_family(skewed_probs, rng)
        gap = dual_gap(skewed_probs, 5, mixture_density(skewed_probs, 5, fam))
        assert gap >= -1e-9
