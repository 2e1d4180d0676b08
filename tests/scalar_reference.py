"""Scalar reference for the array kernel `bakerbench.core.step`: F, the
margin update and the overflow rule in plain Python complex arithmetic
with cmath, one state at a time."""

import cmath

from bakerbench.core import EXP_MAX


def cmath_step(z: complex, w: complex, d: complex):
    """(z1, w1, d1) = F(z, w) with d1 = d + 1 + e^{-2w} - e^{-(z+w)}, or None
    where the step overflows."""
    s = z + w
    if (-s).real > EXP_MAX or (-2 * w).real > EXP_MAX:
        return None
    try:
        e_s = cmath.exp(-s)
        e_w = cmath.exp(-2 * w)
    except (OverflowError, ValueError):  # an infinite imaginary part
        return None
    z1 = e_s + s
    w1 = e_w + 2 * w + 1
    d1 = d + 1 + e_w - e_s
    if not (cmath.isfinite(z1) and cmath.isfinite(w1) and cmath.isfinite(d1)):
        return None
    return z1, w1, d1


def scalar_orbit(z: complex, w: complex, n: int) -> list[tuple[complex, complex, complex]]:
    """States (z_k, w_k, d_k) for k = 0..n, ending early at the last finite
    state where a step overflows."""
    states = [(z, w, w - z)]
    for _ in range(n):
        image = cmath_step(*states[-1])
        if image is None:
            break
        states.append(image)
    return states
