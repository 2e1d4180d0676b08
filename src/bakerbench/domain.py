"""Membership in the invariant wedges L_alpha and orbit-level verification.

L_alpha = { (z, w) : Re w > Re z + alpha, Re z > 1, Re w > 1 } and
L = union of L_alpha over alpha > 1.  The checks here verify, on concrete
double-precision orbits, that L_alpha is forward invariant, that both
coordinates obey the linear growth bounds, and that the telescoping
identity for w_n - z_n holds up to rounding.  Each check runs on arrays
of seeds; in_L is a 1-element call of in_wedge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OverflowSignal, PlanePoint, modulus, orbit, orbits

# L-membership threshold on Re w - Re z.
L_THRESHOLD = 1.0

# Guaranteed per-step increase of Re w - Re z anywhere in L:
# 1 + Re e^{-2w} - Re e^{-(z+w)} >= 1 - e^{-2} - e^{-2}.
MARGIN_STEP = 1.0 - 2.0 * math.exp(-2.0)

# The far field R = {Re w > FAR_FIELD, Re(z + w) > FAR_FIELD} is forward
# invariant (Re w' >= 2 Re w + 1 - e^{-2 Re w}), and there the per-step
# increase 1 + Re e^{-2w} - Re e^{-(z+w)} of Re w - Re z is at most
# FAR_MARGIN_STEP = 1 + e^{-2 FAR_FIELD} + e^{-FAR_FIELD} and at least
# FAR_MARGIN_STEP_MIN = 1 - e^{-2 FAR_FIELD} - e^{-FAR_FIELD}.
FAR_FIELD = 10.0
FAR_MARGIN_STEP = 1.0 + math.exp(-2.0 * FAR_FIELD) + math.exp(-FAR_FIELD)
FAR_MARGIN_STEP_MIN = 1.0 - math.exp(-2.0 * FAR_FIELD) - math.exp(-FAR_FIELD)


def in_wedge(z: np.ndarray, w: np.ndarray, d: np.ndarray, alpha) -> np.ndarray:
    """Where the states (z, w) with carried margins d = w - z lie in
    L_alpha: Re d > alpha, Re z > 1, Re w > 1.  alpha may be per state."""
    return (d.real > alpha) & (z.real > 1.0) & (w.real > 1.0)


def sup_alpha(p: PlanePoint) -> float | None:
    """Supremum of admissible alpha for p, or None if Re z > 1, Re w > 1 fails.

    p lies in L_alpha exactly for 0 < alpha < sup_alpha(p), and p is in L
    iff the returned value exceeds 1.
    """
    if p.z.real > 1.0 and p.w.real > 1.0:
        return p.w.real - p.z.real
    return None


def in_L(p: PlanePoint, threshold: float = L_THRESHOLD) -> bool:
    """Membership in L (threshold 1), or in the looser alpha > 0 variant."""
    z, w = p.arrays()
    return bool(in_wedge(z, w, w - z, threshold)[0])


def invariance(
    z: np.ndarray, w: np.ndarray, alpha: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """L_alpha membership along the orbits of the seeds (z, w), one alpha per
    seed: per seed, the first step k <= n outside L_alpha (-1 if none) and
    the least margin minus alpha.  An orbit that overflows before step n is
    checked over its finite prefix."""
    first = np.full(z.shape, -1)
    min_margin = np.full(z.shape, np.inf)
    for k, idx, zk, wk, dk in orbits(z, w, n):
        a = alpha[idx]
        min_margin[idx] = np.minimum(min_margin[idx], dk.real - a)
        outside = idx[~in_wedge(zk, wk, dk, a) & (first[idx] < 0)]
        first[outside] = k
    return first, min_margin


def growth(
    z: np.ndarray, w: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least slack of Re w_k > 2 Re w_0 + k/2 and of Re z_k > Re z_0 + k/2
    over the finite steps k = 1..n, per seed (inf where no step is
    finite)."""
    min_w = np.full(z.shape, np.inf)
    min_z = np.full(z.shape, np.inf)
    for k, idx, zk, wk, _ in orbits(z, w, n):
        if k:
            min_w[idx] = np.minimum(min_w[idx], wk.real - 2.0 * w.real[idx] - k / 2.0)
            min_z[idx] = np.minimum(min_z[idx], zk.real - z.real[idx] - k / 2.0)
    return min_w, min_z


def telescoping_residuals(z: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Relative defect, per seed, of the identity

        w_n - z_n = w_0 - z_0 + n + sum_i e^{-2 w_i} - sum_i e^{-(z_i + w_i)}

    over the orbit (sums over i = 0..n-1).  The left side is the margin the
    orbit carries, not w_n - z_n recomputed from the coordinates: those
    grow like 2^n and their difference would cancel.  The right side sums
    the exponentials of the states themselves, apart from the margin
    update, since a sum of the same increments would compare the margin
    with itself.  The identity is exact in real arithmetic; the returned
    values measure the rounding of the double-precision orbits, normalized
    by max(1, |w_n - z_n|).  Raises OverflowSignal if an orbit overflows
    before step n.
    """
    rhs = w - z + n
    lhs = np.full(z.shape, np.nan + 0j)
    for k, idx, zk, wk, dk in orbits(z, w, n):
        if k < n:
            # A term may overflow only in an orbit that is about to stop,
            # and that stop raises below.
            with np.errstate(over="ignore", invalid="ignore"):
                rhs[idx] += np.exp(-2 * wk) - np.exp(-(zk + wk))
        else:
            lhs[idx] = dk
    if np.isnan(lhs).any():
        raise OverflowSignal(f"orbit overflowed before step {n}")
    return modulus(lhs - rhs) / np.maximum(1.0, modulus(lhs))


@dataclass(frozen=True)
class RatioProfile:
    """Coordinate ratios z_k/w_k and w_k/z_k along a finite orbit prefix.

    stabilization_index is the smallest k where both consecutive ratio
    differences fall below the Cauchy tolerance, or None.  The stabilized
    ratios are reported as measured; no limit value is asserted.
    """

    entries: tuple[tuple[int, complex, complex], ...]
    stabilization_index: int | None
    stabilized_z_over_w: complex | None
    stabilized_w_over_z: complex | None


RATIO_CAUCHY_TOL = 1e-8


def ratio_profile(seed: PlanePoint, n: int) -> RatioProfile:
    if not in_L(seed):
        raise ValueError("seed is not in L")
    rec = orbit(seed, n)
    entries = []
    for k, p in enumerate(rec.points):
        entries.append((k, p.z / p.w, p.w / p.z))
    stab = None
    for k in range(len(entries) - 1):
        _, zw0, wz0 = entries[k]
        _, zw1, wz1 = entries[k + 1]
        if abs(zw1 - zw0) < RATIO_CAUCHY_TOL and abs(wz1 - wz0) < RATIO_CAUCHY_TOL:
            stab = k
            break
    return RatioProfile(
        entries=tuple(entries),
        stabilization_index=stab,
        stabilized_z_over_w=entries[stab][1] if stab is not None else None,
        stabilized_w_over_z=entries[stab][2] if stab is not None else None,
    )
