"""Randomized verification suites over the wedge claims.

Each suite draws reproducible samples from numpy's PCG64 generator into
arrays, iterates all of them at once and checks one family of orbit
inequalities, returning a summary that the CLI and the acceptance tests
consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import margin, modulus, orbits
from .domain import L_THRESHOLD, growth, in_wedge, invariance, telescoping_residuals
from .psh import u_value

GENERATOR_NAME = "PCG64"


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    samples: int
    steps: int
    seed: int
    violations: int
    worst: float
    worst_label: str
    passed: bool
    notes: dict = field(default_factory=dict)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _sample_wedge_seeds(
    rng: np.random.Generator, samples: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeds (z, w) in L_alpha and their alpha: alpha in (0,10], Re z in
    (1,50], Re w - Re z - alpha in (0,50], imaginary parts in [-100,100]."""
    alpha, rez, gap, imz, imw = rng.uniform(
        (0.0, 1.0, 0.0, -100.0, -100.0), (10.0, 50.0, 50.0, 100.0, 100.0),
        size=(samples, 5)).T
    return rez + 1j * imz, rez + alpha + gap + 1j * imw, alpha


def invariance_suite(samples: int, seed: int, steps: int) -> SuiteResult:
    z, w, alpha = _sample_wedge_seeds(_rng(seed), samples)
    first_violation, min_margin = invariance(z, w, alpha, steps)
    violations = int(np.count_nonzero(first_violation >= 0))
    return SuiteResult(
        suite="invariance", samples=samples, steps=steps, seed=seed,
        violations=violations, worst=float(min_margin.min(initial=np.inf)),
        worst_label="min_margin", passed=violations == 0,
    )


def growth_suite(samples: int, seed: int, steps: int) -> SuiteResult:
    z, w, _ = _sample_wedge_seeds(_rng(seed), samples)
    proper = in_wedge(z, w, margin(z, w), L_THRESHOLD)  # growth bounds are stated on L proper
    min_w, min_z = growth(z[proper], w[proper], steps)
    violations = int(np.count_nonzero(~((min_w > 0) & (min_z > 0))))
    return SuiteResult(
        suite="growth", samples=samples, steps=steps, seed=seed,
        violations=violations,
        worst=float(np.minimum(min_w, min_z).min(initial=np.inf)),
        worst_label="min_slack", passed=violations == 0,
    )


TELESCOPING_TOL = 1e-9


def telescoping_seeds(samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeds (z, w) telescoping_suite draws: points of L with
    |z|, |w| <= 50, kept in the order drawn."""
    rng = _rng(seed)
    z = w = np.empty(0, np.complex128)
    while z.size < samples:
        rez, imz, gap, imw = rng.uniform(
            (1.0, -40.0, 0.0, -40.0), (30.0, 40.0, 15.0, 40.0), size=(samples, 4)).T
        cz = rez + 1j * imz
        cw = rez + 1.0 + gap + 1j * imw
        keep = (modulus(cz) <= 50) & (modulus(cw) <= 50)
        z, w = np.concatenate((z, cz[keep])), np.concatenate((w, cw[keep]))
    return z[:samples], w[:samples]


def telescoping_suite(samples: int, seed: int, steps: int) -> SuiteResult:
    """Seeds from telescoping_seeds; residual must stay below TELESCOPING_TOL."""
    residuals = telescoping_residuals(*telescoping_seeds(samples, seed), steps)
    violations = int(np.count_nonzero(residuals > TELESCOPING_TOL))
    return SuiteResult(
        suite="telescoping", samples=samples, steps=steps, seed=seed,
        violations=violations, worst=float(residuals.max(initial=0.0)),
        worst_label="max_residual", passed=violations == 0,
        notes={"tolerance": TELESCOPING_TOL},
    )


def psh_range_suite(samples: int, seed: int, steps: int) -> SuiteResult:
    """u_n stays in [-2, 0] for arbitrary seeds, up to orbit overflow."""
    rez, imz, rew, imw = _rng(seed).uniform(-5, 5, size=(samples, 4)).T
    violations = 0
    worst = -np.inf
    for _, _, z, w, _ in orbits(rez + 1j * imz, rew + 1j * imw, steps):
        u = u_value(z, w)
        defined = ~np.isnan(u)
        violations += int(np.count_nonzero(defined & ~((u >= -2.0) & (u <= 0.0))))
        worst = max(worst, float(u.max(initial=-np.inf, where=defined)))
    return SuiteResult(
        suite="psh-range", samples=samples, steps=steps, seed=seed,
        violations=violations, worst=worst, worst_label="max_u",
        passed=violations == 0,
    )


SUITES = {
    "invariance": invariance_suite,
    "growth": growth_suite,
    "telescoping": telescoping_suite,
    "psh-range": psh_range_suite,
}

