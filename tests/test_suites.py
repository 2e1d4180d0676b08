"""The suites, which iterate all their seeds at once, against scalar loops
over the same draws with the cmath reference step."""

import cmath
import math

import numpy as np
import pytest

from bakerbench.suites import (
    growth_suite,
    invariance_suite,
    psh_range_suite,
    telescoping_seeds,
    telescoping_suite,
)
from scalar_reference import scalar_orbit

SEEDS = (7, 20260823)


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def wedge_draws(seed: int, samples: int):
    g = rng(seed)
    for _ in range(samples):
        alpha = g.uniform(0.0, 10.0)
        rez = g.uniform(1.0, 50.0)
        rew = rez + alpha + g.uniform(0.0, 50.0)
        imz = g.uniform(-100.0, 100.0)
        imw = g.uniform(-100.0, 100.0)
        yield complex(rez, imz), complex(rew, imw), alpha


def scalar_invariance(samples, seed, steps):
    violations, worst = 0, math.inf
    for z, w, alpha in wedge_draws(seed, samples):
        states = scalar_orbit(z, w, steps)
        violations += any(not (d.real > alpha and zk.real > 1.0 and wk.real > 1.0)
                          for zk, wk, d in states)
        worst = min([worst] + [d.real - alpha for _, _, d in states])
    return violations, worst


def scalar_growth(samples, seed, steps):
    violations, worst = 0, math.inf
    for z, w, _ in wedge_draws(seed, samples):
        if w.real - z.real <= 1.0:
            continue
        slacks = [(wk.real - 2.0 * w.real - k / 2.0, zk.real - z.real - k / 2.0)
                  for k, (zk, wk, _) in enumerate(scalar_orbit(z, w, steps)) if k]
        violations += any(a <= 0 or b <= 0 for a, b in slacks)
        worst = min([worst] + [min(a, b) for a, b in slacks])
    return violations, worst


def scalar_telescoping_seeds(samples, seed):
    g = rng(seed)
    seeds = []
    while len(seeds) < samples:
        rez = g.uniform(1.0, 30.0)
        imz = g.uniform(-40.0, 40.0)
        rew = rez + 1.0 + g.uniform(0.0, 15.0)
        imw = g.uniform(-40.0, 40.0)
        z, w = complex(rez, imz), complex(rew, imw)
        if abs(z) <= 50 and abs(w) <= 50:
            seeds.append((z, w))
    return seeds


def scalar_telescoping(samples, seed, steps, tol=1e-9):
    violations, worst = 0, 0.0
    for z, w in scalar_telescoping_seeds(samples, seed):
        states = scalar_orbit(z, w, steps)
        assert len(states) == steps + 1
        rhs = w - z + steps
        for zk, wk, _ in states[:-1]:
            rhs += cmath.exp(-2 * wk) - cmath.exp(-(zk + wk))
        lhs = states[-1][2]
        res = abs(lhs - rhs) / max(1.0, abs(lhs))
        violations += res > tol
        worst = max(worst, res)
    return violations, worst


def u_reference(z: complex, w: complex) -> float | None:
    try:
        denom = abs(w) + abs(z)
    except OverflowError:
        denom = math.inf
    if denom == math.inf:  # scaling by 1/4 leaves the quotient unchanged
        z, w = z / 4, w / 4
        denom = abs(w) + abs(z)
    if denom == 0.0:
        return None
    return -(w.real - z.real) / denom - 1.0


def scalar_psh_range(samples, seed, steps):
    g = rng(seed)
    violations, worst = 0, -math.inf
    for _ in range(samples):
        z = complex(g.uniform(-5, 5), g.uniform(-5, 5))
        w = complex(g.uniform(-5, 5), g.uniform(-5, 5))
        for zk, wk, _ in scalar_orbit(z, w, steps):
            u = u_reference(zk, wk)
            if u is not None:
                violations += not (-2.0 <= u <= 0.0)
                worst = max(worst, u)
    return violations, worst


@pytest.mark.parametrize("seed", SEEDS)
def test_invariance_suite_matches_scalar_loop(seed):
    res = invariance_suite(500, seed, 30)
    assert (res.violations, res.worst) == scalar_invariance(500, seed, 30)


@pytest.mark.parametrize("seed", SEEDS)
def test_growth_suite_matches_scalar_loop(seed):
    res = growth_suite(500, seed, 30)
    assert (res.violations, res.worst) == scalar_growth(500, seed, 30)


@pytest.mark.parametrize("seed", SEEDS)
def test_telescoping_seeds_match_scalar_draws(seed):
    z, w = telescoping_seeds(200, seed)
    assert list(zip(z.tolist(), w.tolist())) == scalar_telescoping_seeds(200, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_telescoping_suite_matches_scalar_loop(seed):
    res = telescoping_suite(200, seed, 30)
    assert (res.violations, res.worst) == scalar_telescoping(200, seed, 30)


# 91 and 100 reach states where -2w has an infinite imaginary part, 105 a
# finite state whose |w| exceeds double range.
@pytest.mark.parametrize("seed", SEEDS + (91, 100, 105))
def test_psh_range_suite_matches_scalar_loop(seed):
    res = psh_range_suite(2000, seed, 20)
    assert (res.violations, res.worst) == scalar_psh_range(2000, seed, 20)
