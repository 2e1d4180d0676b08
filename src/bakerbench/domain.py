"""Membership in the invariant wedges L_alpha and orbit-level verification.

L_alpha = { (z, w) : Re w > Re z + alpha, Re z > 1, Re w > 1 } and
L = union of L_alpha over alpha > 1.  The checks here verify, on concrete
double-precision orbits, that L_alpha is forward invariant, that both
coordinates obey the linear growth bounds, and that the telescoping
identity for w_n - z_n holds up to rounding.  Each check runs on arrays
of seeds; in_L is a 1-element call of in_wedge.

The checks iterate one chunk of core.chunks at a time (core.chunk_orbits).
``invariance`` and ``growth`` leave a chunk once all of it lies in the far
field R, where by the lemma of ``in_far_field`` their statistics can no
longer change: the results have the bits of iterating it to step n.
``telescoping_residuals`` iterates every chunk to step n, but adds no
exponential once it lies in R_inf (core), where both are +-0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OverflowSignal,
    PlanePoint,
    all_in_r_inf,
    chunk_orbits,
    chunks,
    exponentials,
    margin,
    modulus,
    orbit,
)

# L-membership threshold on Re w - Re z.
L_THRESHOLD = 1.0

# Least per-step rise of Re w - Re z in L: 1 - e^{-2} - e^{-2}.
MARGIN_STEP = 1.0 - 2.0 * math.exp(-2.0)

# The far field R and the bounds of the rise of Re w - Re z there (in_far_field).
FAR_FIELD = 10.0
FAR_MARGIN_STEP = 1.0 + math.exp(-2.0 * FAR_FIELD) + math.exp(-FAR_FIELD)
FAR_MARGIN_STEP_MIN = 1.0 - math.exp(-2.0 * FAR_FIELD) - math.exp(-FAR_FIELD)


def in_far_field(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Where the finite states (z, w) lie in the far field R = {Re w > W,
    Re(z + w) > W}, W = FAR_FIELD, with Re(z + w) rounded as core.step
    rounds Re s, s = z + w.  Where no Re w exceeds W, the mask is returned
    before Re(z + w) is formed.

    The far-field lemma.  Let (z, w) lie in R, Re d be finite, and
    (z', w', d') be the image of (z, w, d) under core.step, where finite.
    With u = 2^-53, the real parts p of e^{-2w} and q of e^{-s} have |p| <
    e^{-2W} and |q| < e^{-W} as computed: 2 Re w and Re s exceed 2W and W
    by at least 2^-49, which lowers each exponential by more than 15u,
    past the error of exp.  Rounding is monotone, so fl(y) >= x for a
    float x and a real y >= x; where |x| >= 2^51, the floats next to x lie
    1/4 or more away, so fl(v + t) >= x for a float v >= x and |t| < 1/8.
    - Re w' = fl(fl(2 Re w + p) + 1) >= 2 Re w > 2W: the inner sum is at
      least 2 Re w where that is 2^51 or more, else above 2 Re w - 1/2.
    - Re z' = fl(Re s + q) > W - 1, as Re s = fl(Re z + Re w) > W, and
      Re z' >= Re z: where |Re z| >= 2^51, Re s >= Re z; elsewhere the two
      roundings and q cost less than 1/2 + 3u Re w + e^{-W} < Re w.  So
      R maps into itself as computed, and Re z' and Re w' exceed 1.
    - Re d' = fl(fl(fl(Re d + 1) + p) - q) >= Re d: where |Re d| >= 2^51,
      fl(Re d + 1) >= Re d; elsewhere the first two roundings, p and q
      cost less than 1.
    - Re d' - Re d lies between FAR_MARGIN_STEP_MIN and FAR_MARGIN_STEP up
      to 4u(|Re d| + 2): 1 + p - q lies between them up to their own
      rounding, below 2u, and each of the three roundings of Re d' moves
      it by at most u(|Re d| + 2).
    In exact arithmetic the margin rises without bound, so every point of
    R enters L.  render._certify, invariance and growth settle states in R
    by this lemma.
    """
    far = w.real > FAR_FIELD
    if far.any():
        with np.errstate(over="ignore"):
            far &= z.real + w.real > FAR_FIELD
    return far


def in_wedge(z: np.ndarray, w: np.ndarray, d: np.ndarray, alpha) -> np.ndarray:
    """Where the states (z, w) with carried margins d = w - z lie in
    L_alpha: Re d > alpha, Re z > 1, Re w > 1.  alpha may be per state."""
    return (d.real > alpha) & (z.real > 1.0) & (w.real > 1.0)


def in_L(p: PlanePoint, threshold: float = L_THRESHOLD) -> bool:
    """Membership in L (threshold 1), or in the looser alpha > 0 variant."""
    z, w = p.arrays()
    return bool(in_wedge(z, w, margin(z, w), threshold)[0])


def invariance(
    z: np.ndarray, w: np.ndarray, alpha: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """L_alpha membership along the orbits of the seeds (z, w), one alpha per
    seed: per seed, the first step k <= n outside L_alpha (-1 if none) and
    the least margin minus alpha.  An orbit that overflows before step n is
    checked over its finite prefix.

    A chunk is left once every state left in it after step k, counted in
    both statistics, lies in R.  There Re d never decreases, and Re z and
    Re w exceed 1 after one step (in_far_field), so fl(Re d_j - alpha) >=
    fl(Re d_k - alpha) for j > k, and a state in L_alpha at step k stays
    in it; a state outside it has its first step recorded already.  A
    state that overflows later only leaves the chunk.
    """
    first = np.full(z.shape, -1)
    min_margin = np.full(z.shape, np.inf)
    for chunk in chunks(z.size):
        for k, idx, zk, wk, dk in chunk_orbits(z, w, chunk, n):
            a = alpha[idx]
            min_margin[idx] = np.minimum(min_margin[idx], dk.real - a)
            outside = idx[~in_wedge(zk, wk, dk, a) & (first[idx] < 0)]
            first[outside] = k
            if in_far_field(zk, wk).all():
                break
    return first, min_margin


def _growth_settled(
    z: np.ndarray, w: np.ndarray, z0: np.ndarray, w0: np.ndarray
) -> bool:
    """The guard of ``growth`` on states (z, w) with seeds (z0, w0):
    |Re z| + |Re z0| + 2 |Re w0| <= 2^48 Re w everywhere, summed in place;
    where the sum overflows, it fails.  Its rounding cannot matter."""
    with np.errstate(over="ignore"):
        size = np.abs(z.real)
        size += np.abs(z0.real)
        size += 2.0 * np.abs(w0.real)
    size *= 2.0 ** -48
    return (size <= w.real).all()


def growth(
    z: np.ndarray, w: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least slack of Re w_k > 2 Re w_0 + k/2 and of Re z_k > Re z_0 + k/2
    over the finite steps k = 1..n, per seed (inf where no step is
    finite): fl(fl(Re w_k - 2 Re w_0) - k/2) and fl(fl(Re z_k - Re z_0) -
    k/2).

    A chunk is left after a step k >= 1 (at k = 0 no slack is taken yet)
    once every state left in it lies in R and satisfies the guard

        |Re z_k| + |Re z_0| + 2 |Re w_0| <= E Re w_k,   E = 2^48,

    (``_growth_settled``).  Then neither slack of a state falls below its
    value at step k.  Proof, with u = 2^-53 and x_j for Re x_j, by the
    lemma of in_far_field: at every finite j >= k, w_j > W = 10, w_{j+1}
    >= 2 w_j, z_{j+1} = fl(fl(z_j + w_j) + q_j), |q_j| < e^{-W}, and z_j
    never decreases, so a_j = fl(z_j - z_0) and b_j = fl(w_j - 2 w_0) stay
    or move up where they overflow (2 w_0 is finite where step 1 is).
    - The guard holds at j + 1 if at j: |z_{j+1}| <= (1 + u)^2 (|z_j| +
      w_j) + 2e^{-W}, so the left side at j + 1 is at most (1 + u)^2
      (E + 1) w_j + 2e^{-W} <= 2E w_j <= E w_{j+1}.
    - z: under the guard z_{j+1} - z_j >= w_j(1 - 3u(E + 1)) - 2e^{-W},
      and a_j and a_{j+1} are off by at most u E w_j and 2u E w_j, so
      a_{j+1} - a_j >= w_j(1 - 7uE) - 2e^{-W} > 1/2: a_{j+1} - (j + 1)/2
      >= a_j - j/2, and monotone rounding keeps that order in the slack.
    - w: b_j and b_{j+1} are off by at most u(E + 1) w_j and u(w_{j+1} +
      E w_j), so b_{j+1} - b_j >= w_j(1 - 3u - 2uE) > 1/2, likewise.

    Any E from 4 to 2^50 would do, so the rounding of the guard itself
    cannot matter.  Without the guard the slack is not final: from
    Re z_0 = 1e20, Re w_0 = 400, z_j = fl(1e20 + w_j) stays 1e20 while
    w_j < 8192, and the z slack falls by 1/2 a step.
    """
    min_w = np.full(z.shape, np.inf)
    min_z = np.full(z.shape, np.inf)
    for chunk in chunks(z.size):
        for k, idx, zk, wk, _ in chunk_orbits(z, w, chunk, n):
            if not k:
                continue
            min_w[idx] = np.minimum(min_w[idx], wk.real - 2.0 * w.real[idx] - k / 2.0)
            min_z[idx] = np.minimum(min_z[idx], zk.real - z.real[idx] - k / 2.0)
            if in_far_field(zk, wk).all() and _growth_settled(zk, wk, z[idx], w[idx]):
                break
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

    A chunk in R_inf adds nothing: both of its terms are +-0, and adding
    them could only change the sign of a zero part of the right side, a
    sign that the modulus of the defect does not read.  The chunk stays in
    R_inf (core module docstring), so once the test holds it is not made
    again.
    """
    rhs = margin(z, w) + n  # where it overflows, so does the orbit at step 1
    lhs = np.full(z.shape, np.nan + 0j)
    for chunk in chunks(z.size):
        far = False
        for k, idx, zk, wk, dk in chunk_orbits(z, w, chunk, n):
            if k == n:
                lhs[idx] = dk
            elif not far:
                far = all_in_r_inf(zk, wk)
                if far:
                    continue
                # A term may overflow only in an orbit that is about to
                # stop, and that stop raises below.
                with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                    e_s, e_w = exponentials(zk + wk, wk)
                    rhs[idx] += e_w - e_s
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
    z, w, _ = orbit(seed, n)
    entries = [(k, zk / wk, wk / zk)
               for k, (zk, wk) in enumerate(zip(z.tolist(), w.tolist()))]
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
