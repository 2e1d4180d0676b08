"""High-precision reference computations, written apart from bakerbench.

Nothing here imports the program: the map, the overflow rule and the
membership test are restated from their definitions and evaluated with
mpmath's multiprecision floats (raw ``libmp`` values, which skip the
object layer and make the reference about twice as fast).

    F(z, w) = (e^{-(z+w)} + z + w,  e^{-2w} + 2w + 1)
    L       = { Re z > 1, Re w > 1, Re w - Re z > 1 }

An exponential whose modulus is below 2^-(prec+16) times the modulus of
the term it is added to cannot change the rounded sum, so it is skipped;
this keeps orbits deep inside L cheap without changing any result.
"""

from __future__ import annotations

import cmath
import math

import mpmath
from mpmath.libmp import (fone, from_float, fzero, mpc_exp, mpf_add, mpf_cmp,
                          mpf_div, mpf_hypot, mpf_neg, mpf_shift, mpf_sub, to_float)

# The program's overflow rule: exp(x) with Re x above this leaves double
# range, and a non-finite double coordinate stops the orbit.
EXP_MAX = 709.0
DBL_MAX = 1.7976931348623157e308

RENDER_PREC = 600
PSH_PREC = 200
WITNESS_PREC = 120

# A membership decision |Re d - 1| below this share of
# |Re z| + |Re w| cannot be resolved from double coordinates: their
# rounding over a few hundred steps alone can exceed it.
CONDITION_SHARE = 2.0 ** -40

_LN2 = math.log(2.0)


def _exp_matters(fr: float, fi: float, prec: int) -> bool:
    """Whether e^{-x} can change a sum with x, for x = fr + i fi."""
    return -fr >= math.log(max(abs(fr), abs(fi), 1.0)) - (prec + 16) * _LN2


def _step(state, prec: int):
    """F on raw (Re z, Im z, Re w, Im w), or None where the program's
    overflow rule stops the orbit."""
    zr, zi, wr, wi = state
    sr, si = mpf_add(zr, wr, prec), mpf_add(zi, wi, prec)
    fsr, fsi, fwr, fwi = to_float(sr), to_float(si), to_float(wr), to_float(wi)
    if -fsr > EXP_MAX or -2.0 * fwr > EXP_MAX:
        return None
    zr1, zi1 = sr, si
    if _exp_matters(fsr, fsi, prec):
        er, ei = mpc_exp((mpf_neg(sr), mpf_neg(si)), prec)
        zr1, zi1 = mpf_add(er, sr, prec), mpf_add(ei, si, prec)
    w2r, w2i = mpf_shift(wr, 1), mpf_shift(wi, 1)
    wr1, wi1 = w2r, w2i
    if _exp_matters(2.0 * fwr, 2.0 * fwi, prec):
        er, ei = mpc_exp((mpf_neg(w2r), mpf_neg(w2i)), prec)
        wr1, wi1 = mpf_add(er, w2r, prec), mpf_add(ei, w2i, prec)
    wr1 = mpf_add(wr1, fone, prec)
    if max(abs(to_float(x)) for x in (zr1, zi1, wr1, wi1)) > DBL_MAX:
        return None
    return zr1, zi1, wr1, wi1


def _raw(z: complex, w: complex):
    return from_float(z.real), from_float(z.imag), from_float(w.real), from_float(w.imag)


def classify(z0: complex, w0: complex, budget: int) -> tuple[str, int | None, bool]:
    """First entry into L within budget steps, as (tag, step, ill_conditioned).

    tag is "entered" (step = first k with F^k in L), "overflowed" (step = k
    where applying F to the k-th state trips the overflow rule) or
    "not_entered" (step None).  ill_conditioned is True when some membership
    decision up to the answer is closer to the threshold 1 than the
    rounding of double coordinates of that size (CONDITION_SHARE).
    """
    state = _raw(complex(z0), complex(w0))
    ill = False
    for k in range(budget + 1):
        zr, _, wr, _ = state
        if mpf_cmp(zr, fone) > 0 and mpf_cmp(wr, fone) > 0:
            margin = mpf_sub(mpf_sub(wr, zr, RENDER_PREC), fone, RENDER_PREC)
            scale = abs(to_float(zr)) + abs(to_float(wr))
            if abs(to_float(margin)) < CONDITION_SHARE * scale:
                ill = True
            if mpf_cmp(margin, fzero) > 0:
                return "entered", k, ill
        if k == budget:
            break
        state = _step(state, RENDER_PREC)
        if state is None:
            return "overflowed", k, ill
    return "not_entered", None, ill


def u_n(z0: complex, w0: complex, n: int) -> float | None:
    """u_n = -(Re w_n - Re z_n)/(|w_n| + |z_n|) - 1, or None on overflow."""
    state = _raw(complex(z0), complex(w0))
    for _ in range(n):
        state = _step(state, PSH_PREC)
        if state is None:
            return None
    zr, zi, wr, wi = state
    p = PSH_PREC
    ratio = mpf_div(mpf_sub(wr, zr, p), mpf_add(mpf_hypot(wr, wi, p), mpf_hypot(zr, zi, p), p), p)
    return to_float(mpf_sub(mpf_neg(ratio), fone, p))


def circle_points(center: tuple[complex, complex], direction: tuple[complex, complex],
                  radius: float, samples: int) -> list[tuple[complex, complex]]:
    """The quadrature nodes center + radius e^{2 pi i k/samples} direction,
    rounded to double in the order a + lambda b."""
    pts = []
    for k in range(samples):
        lam = radius * cmath.exp(1j * (2.0 * math.pi * k / samples))
        pts.append((center[0] + lam * direction[0], center[1] + lam * direction[1]))
    return pts


def submean(center, direction, radius: float, samples: int, n: int
            ) -> tuple[float | None, float, int]:
    """(u_n at the centre, its mean over the non-overflowing circle nodes,
    the number of those nodes)."""
    values = [u_n(z, w, n) for z, w in circle_points(center, direction, radius, samples)]
    valid = [v for v in values if v is not None]
    mean = math.fsum(valid) / len(valid) if valid else math.nan
    return u_n(center[0], center[1], n), mean, len(valid)


def h_residual(zeta: complex, target: complex) -> float:
    """|h(zeta) - c| for h(zeta) = (e^{-3 zeta} + 3 zeta - 1)/(4 zeta)."""
    with mpmath.mp.workprec(WITNESS_PREC):
        z = mpmath.mpc(zeta)
        h = (mpmath.exp(-3 * z) + 3 * z - 1) / (4 * z)
        return float(abs(h - mpmath.mpc(target)))
