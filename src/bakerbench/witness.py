"""Essential-singularity witnesses along the diagonal line (zeta, 2*zeta).

The auxiliary entire function

    h(zeta) = (e^{-3 zeta} + 3 zeta - 1) / (4 zeta)

controls the first coordinate of F(zeta, 2*zeta).  For a prescribed target
value c, witness points are solutions of h(zeta) = c with growing modulus;
they certify that images of points escaping along the [1:2] direction can
approach any prescribed first-coordinate ratio.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import OverflowSignal, PlanePoint, apply_f, safe_exp

TAU = 2.0 * math.pi

# Below this modulus the closed form divides two near-zero quantities;
# switch to the Taylor form of the removable singularity at 0.
SERIES_CUTOFF = 1e-3
SERIES_TERMS = 12
# h(zeta) = sum_{k>=2} (-3)^k zeta^{k-1} / (4 k!), so h(0) = 0: the
# coefficients of zeta^1..zeta^SERIES_TERMS, each rounded once (int / int).
_SERIES = tuple((-3) ** k / (4 * math.factorial(k)) for k in range(2, 2 + SERIES_TERMS))

DEFAULT_FIRST_BRANCH = 3

FIXED_POINT_MAX_ITER = 100
FIXED_POINT_TOL = 1e-12
NEWTON_MAX_ITER = 20
RESIDUAL_TOL = 1e-8


class SolverFailure(Exception):
    """The branch solver could not produce the requested witnesses."""


def h_eval(zeta: complex) -> complex:
    """Evaluate h, using the Taylor form near the removable singularity at 0."""
    if abs(zeta) < SERIES_CUTOFF:
        acc = 0j  # Horner's rule
        for c in reversed(_SERIES):
            acc = (acc + c) * zeta
        return acc
    return (safe_exp(-3 * zeta) + 3 * zeta - 1) / (4 * zeta)


@dataclass(frozen=True)
class ProjectiveDirection:
    """Homogeneous pair [p:q] normalized so that max(|p|, |q|) = 1."""

    p: complex
    q: complex
    degenerate: bool = False


def image_direction(zeta: complex) -> ProjectiveDirection:
    """Normalized direction of F(zeta, 2*zeta); degenerate on overflow."""
    try:
        img = apply_f(PlanePoint(zeta, 2 * zeta))
    except OverflowSignal:
        return ProjectiveDirection(0j, 0j, degenerate=True)
    m = max(abs(img.z), abs(img.w))
    if m == 0.0:
        return ProjectiveDirection(0j, 0j, degenerate=True)
    return ProjectiveDirection(img.z / m, img.w / m)


def first_coord_identity_residual(zeta: complex) -> float:
    """Relative defect of e^{-3 zeta} + 3 zeta = 4 zeta h(zeta) + 1."""
    if zeta == 0:
        raise ValueError("zeta must be nonzero")
    lhs = safe_exp(-3 * zeta) + 3 * zeta
    rhs = 4 * zeta * h_eval(zeta) + 1
    return abs(lhs - rhs) / max(1.0, abs(lhs))


@dataclass(frozen=True)
class WitnessSequence:
    target: complex
    branches: tuple[int, ...]
    zetas: tuple[complex, ...]
    residuals: tuple[float, ...]
    moduli: tuple[float, ...]
    failed_branches: tuple[int, ...] = ()


def _solve_branch(a: complex, k: int) -> complex | None:
    """One root of e^{-3 zeta} = a zeta + 1 on the log branch indexed by k.

    Fixed-point form: zeta = -(Log(a zeta + 1) + 2 pi i k) / 3, followed by
    a Newton polish on g(zeta) = e^{-3 zeta} - a zeta - 1.
    """
    zeta = complex(0.0, -TAU * k / 3.0)
    for _ in range(FIXED_POINT_MAX_ITER):
        base = a * zeta + 1
        if base == 0:
            return None
        new = -(cmath.log(base) + TAU * 1j * k) / 3.0
        if not cmath.isfinite(new):
            return None
        done = abs(new - zeta) < FIXED_POINT_TOL
        zeta = new
        if done:
            break
    for _ in range(NEWTON_MAX_ITER):
        try:
            e = safe_exp(-3 * zeta)
        except OverflowSignal:
            return None
        g = e - a * zeta - 1
        gp = -3 * e - a
        if gp == 0:
            return None
        step = g / gp
        zeta -= step
        if abs(step) < 1e-14:
            break
    return zeta


def branch_range(c: complex, m: int, first_branch: int = DEFAULT_FIRST_BRANCH) -> range:
    """The branch indices find_witnesses(c, m, first_branch) may try: 1..m
    for the exact family c = 3/4, else first_branch..first_branch + 4m + 8."""
    if complex(c) == 0.75:
        return range(1, m + 1)
    return range(first_branch, first_branch + 4 * m + 9)


def find_witnesses(
    c: complex, m: int, first_branch: int = DEFAULT_FIRST_BRANCH
) -> WitnessSequence:
    """m points zeta with h(zeta) = c (residual below RESIDUAL_TOL) and
    strictly increasing modulus.

    Roots are tried branch by branch over branch_range; branches that
    fail to converge are skipped and reported, and further branches are
    scanned so that m witnesses are still returned when possible.  The
    root of branch k is zeta_k = 2 pi i k / 3 for the exact family c = 3/4
    (h = 3/4 iff e^{-3 zeta} = 1, zeta != 0), else _solve_branch's.
    """
    if m < 1:
        raise ValueError("witness count must be >= 1")
    c = complex(c)
    branches: list[int] = []
    zetas: list[complex] = []
    residuals: list[float] = []
    failed: list[int] = []
    a = 4 * c - 3
    for k in branch_range(c, m, first_branch):
        zeta = complex(0.0, TAU * k / 3.0) if c == 0.75 else _solve_branch(a, k)
        try:
            res = math.inf if zeta is None else abs(h_eval(zeta) - c)
        except OverflowSignal:
            res = math.inf
        if res < RESIDUAL_TOL and (not zetas or abs(zeta) > abs(zetas[-1])):
            branches.append(k)
            zetas.append(zeta)
            residuals.append(res)
            if len(zetas) == m:
                break
        else:
            failed.append(k)
    if len(zetas) < m:
        raise SolverFailure(
            f"only {len(zetas)} of {m} branches converged for target {c}"
        )
    return WitnessSequence(
        target=c,
        branches=tuple(branches),
        zetas=tuple(zetas),
        residuals=tuple(residuals),
        moduli=tuple(abs(z) for z in zetas),
        failed_branches=tuple(failed),
    )
