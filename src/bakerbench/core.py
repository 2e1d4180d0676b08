"""Evaluation of the skew-product map and overflow-safe orbit iteration.

The map under study is

    F(z, w) = (e^{-(z+w)} + z + w,  e^{-2w} + 2w + 1)

acting on C^2.  All arithmetic is double precision.  ``step``, on arrays
of states, is the only evaluation of F, and every orbit runs on it:
``orbits`` iterates seeds in chunks, ``orbit`` concatenates one seed's
states into arrays (z, w, d), and ``apply_f`` is one ``step``.  Any
evaluation that would leave the representable range stops the orbit
instead of letting infinities or NaNs leak into stored state.

In R_inf = {Re(z + w) > S_CUT, Re w > W_CUT} both exponentials of F
underflow to zero, so there F is exactly (z + w, 2w + 1) and the margin
rises by exactly fl(d + 1) per step; R_inf is forward invariant.  ``step``
skips the exponentials that underflow: it calls exp on every state when
none is far, on no state when all are in R_inf, and on the states below
the cuts otherwise.  A skipped exponential is +0 where exp gives +-0, and
the sign of a zero can show only in a result part that is zero; there
round-to-nearest gives +0 either way, so the images keep their bits.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# Largest real part for which exp() stays inside double range.
EXP_MAX = 709.0

# e^{-x} underflows to +-0 where Re x > 746: e^{-746} < 2^-1076 lies below
# 2^-1075, half the smallest subnormal, so a correctly rounded exp returns
# +-0 there, and so does the libm exp behind numpy and cmath.  S_CUT bounds
# Re s for e^{-s}, W_CUT = S_CUT / 2 bounds Re w for e^{-2w}.
S_CUT = 746.0
W_CUT = 373.0


def in_r_inf(s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Where the states with s = z + w lie in R_inf: Re s > S_CUT, Re w > W_CUT;
    on the least Re s and Re w of a batch, whether all of its states do."""
    return (s.real > S_CUT) & (w.real > W_CUT)


# Seeds that ``orbits`` iterates together.  It bounds the memory of the
# kernel's temporaries, whatever the number of seeds.
ORBIT_CHUNK = 2048


class OverflowSignal(Exception):
    """An evaluation left the finite double range."""


@dataclass(frozen=True)
class PlanePoint:
    """A point (z, w) in C^2."""

    z: complex
    w: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.z) and cmath.isfinite(self.w)):
            raise ValueError(f"non-finite point ({self.z}, {self.w})")

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(z, w) as 1-element complex128 arrays, for the array functions."""
        return np.array([self.z], np.complex128), np.array([self.w], np.complex128)


def safe_exp(c: complex) -> complex:
    """exp(c), raising OverflowSignal instead of overflowing.

    Underflow (very negative real part) silently returns 0, which is exact
    enough for every use in this package.
    """
    if c.real > EXP_MAX:
        raise OverflowSignal(f"exp overflow: Re = {c.real}")
    return cmath.exp(c)


def modulus(c: np.ndarray) -> np.ndarray:
    """|c| elementwise, rounded as Python's abs(complex) rounds it (np.abs
    differs from it in the last bit)."""
    return np.hypot(c.real, c.imag)


def _exp_unless(x: np.ndarray, re: np.ndarray, cut: float) -> np.ndarray:
    """x overwritten with e^x elementwise, with +0 where re > cut; exp runs
    only on the other elements.  The guard is a max, not a mask, so that
    where no element is past the cut, as on most steps of the classifier,
    no mask is made."""
    if re.max(initial=-np.inf) > cut:
        past = re > cut
        np.exp(x, out=x, where=~past)
        x[past] = 0
        return x
    return np.exp(x, out=x)


def exponentials(s: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^{-s}, e^{-2w}) elementwise, as np.exp computes them, except +0
    where they underflow: Re s > S_CUT, Re w > W_CUT.  Each is a fresh
    array, computed in place from the negated exponent."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _exp_unless(-s, s.real, S_CUT), _exp_unless(-2 * w, w.real, W_CUT)


def step(
    z: np.ndarray, w: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """F applied to arrays of states (z, w), with the image of the margin
    d = w - z.  Returns (z1, w1, d1, ok).  w may have shape (1,), shared by
    every state, as on a slice of constant w: the w-orbit does not read z.
    w1 then has shape (1,) too, and each image has the bits it has where w
    is repeated per state.

    The margin is updated as d' = d + 1 + e^{-2w} - e^{-(z+w)}, reusing the
    two exponentials of F, instead of being recovered as w' - z': along L
    both coordinates grow like 2^n while d grows like n, so that subtraction
    loses about one significant bit of d per step.

    When every state is in R_inf, both exponentials underflow and the step
    is exact: z1 = (z + w) + 0.0, w1 = 2w + 1, d1 = d + 1, where the + 0.0
    turns a -0 part into +0 as adding the zero exponential does.
    Otherwise ``exponentials`` skips only the ones that underflow.  Either
    way the bits equal those of evaluating both exponentials everywhere.
    The sums are formed in place, in the order of the formulas above up to
    commuting two terms, which keeps the bits: z1 is written into the
    array of e^{-(z+w)} once the margin has used it.

    ok is False where the step overflowed: an exponent has real part above
    EXP_MAX, or any result is non-finite.  The images there are meaningless.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = z + w
        if in_r_inf(s.real.min(initial=np.inf), w.real.min(initial=np.inf)):
            s += 0.0
            z1, w1, d1 = s, 2 * w + 1, d + 1
            ok = np.isfinite(z1)
        else:
            ok = s.real >= -EXP_MAX
            ok &= w.real >= -EXP_MAX / 2
            z1, e_w = exponentials(s, w)
            d1 = d + 1
            d1 += e_w
            d1 -= z1
            z1 += s
            del s  # so that no more than four new arrays of states are live
            w1 = 2 * w
            w1 += e_w
            w1 += 1
            ok &= np.isfinite(z1)
        ok &= np.isfinite(w1)
        ok &= np.isfinite(d1)
    return z1, w1, d1, ok


def orbits(
    z: np.ndarray, w: np.ndarray, n: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Iterate F from the seeds (z, w) for n steps, ORBIT_CHUNK seeds at a
    time.

    Yields (k, idx, z_k, w_k, d_k) for k = 0..n and each chunk in turn: the
    states after k steps of the seeds idx whose orbits are still finite,
    with their carried margins.  A seed is dropped at the step that
    overflows; a chunk ends early when none of its seeds is left.
    """
    for lo in range(0, z.size, ORBIT_CHUNK):
        idx = np.arange(lo, min(lo + ORBIT_CHUNK, z.size))
        zk, wk = z[idx], w[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            dk = wk - zk
        yield 0, idx, zk, wk, dk
        for k in range(1, n + 1):
            zk, wk, dk, ok = step(zk, wk, dk)
            if not ok.all():
                idx, zk, wk, dk = idx[ok], zk[ok], wk[ok], dk[ok]
                if not idx.size:
                    break
            yield k, idx, zk, wk, dk


def orbit(seed: PlanePoint, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states 0..m of the orbit of seed under F and their carried
    margins, as arrays (z, w, d) of length m + 1.  m = n, or m < n where
    applying F to state m overflowed."""
    if n < 0:
        raise ValueError("step count must be >= 0")
    z, w, d = zip(*(s[2:] for s in orbits(*seed.arrays(), n)))
    return np.concatenate(z), np.concatenate(w), np.concatenate(d)


def apply_f(p: PlanePoint) -> PlanePoint:
    """One application of F.  Raises OverflowSignal on any non-finite result."""
    z, w = p.arrays()
    with np.errstate(over="ignore", invalid="ignore"):
        d = w - z
    z1, w1, _, ok = step(z, w, d)
    if not ok[0]:
        raise OverflowSignal("image of F is non-finite")
    return PlanePoint(complex(z1[0]), complex(w1[0]))
