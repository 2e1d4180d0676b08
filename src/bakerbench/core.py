"""Evaluation of the skew-product map and overflow-safe orbit iteration.

The map under study is

    F(z, w) = (e^{-(z+w)} + z + w,  e^{-2w} + 2w + 1)

acting on C^2.  All arithmetic is double precision.  ``step``, on arrays
of states, evaluates F, the margin update and the overflow rule, with
both exponentials on every state.  ``orbits`` iterates seeds in the
chunks of ``chunks``, each by ``chunk_orbits``: on ``step`` until the
chunk lies in R_inf (below), and from there by ``_far_orbit``.  ``orbit``
concatenates one seed's states into arrays (z, w, d), and ``apply_f`` is
one ``step``.  Any evaluation that would leave the representable range
stops the orbit instead of letting infinities or NaNs leak into stored
state.

In R_inf = {Re(z + w) > S_CUT, Re w > W_CUT} both exponentials of F
underflow to +-0, so there F is exactly (z + w, 2w + 1) and the margin
rises by exactly fl(d + 1) per step.  ``_far_orbit`` evaluates that
image with no exp, with z' = s + 0.0 for s = z + w, and keeps the bits
of ``step``.  The sign of a zero exponential can show only in a result
part that is zero.  In w' and d' that part is a sum with the +0 of
1 + 0j, which round-to-nearest makes +0.  In z' = e^{-s} + s, where
Im s = +-0, Im e^{-s} = -e^{-Re s} sin(Im s) is -+0, and the sum is +0
again, as s + 0.0 gives.

R_inf lies in the far field R of domain.in_far_field, whose lemma shows
that as computed Re z, Re w and Re d never decrease there, so R_inf is
forward invariant as computed too.  ``chunk_orbits`` therefore hands a
chunk wholly in R_inf, with finite margins, to ``_far_orbit``, which
does not test the cuts again.
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


def all_in_r_inf(z: np.ndarray, w: np.ndarray) -> bool:
    """Whether every state (z, w) of a non-empty batch of finite states
    lies in R_inf.  Re(z + w), which may overflow, is formed only once
    every Re w is past its cut."""
    w_min = w.real.min()
    if not w_min > W_CUT:
        return False
    with np.errstate(over="ignore"):
        return in_r_inf((z.real + w.real).min(), w_min)


# Seeds that ``orbits`` iterates together.  It bounds the memory of the
# kernel's temporaries, whatever the number of seeds.
ORBIT_CHUNK = 2048


def chunks(size: int) -> Iterator[np.ndarray]:
    """The indices of size seeds, ORBIT_CHUNK consecutive ones at a time:
    the chunks that ``orbits`` iterates together."""
    for lo in range(0, size, ORBIT_CHUNK):
        yield np.arange(lo, min(lo + ORBIT_CHUNK, size))


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


def margin(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w - z, the margins of the states (z, w); inf or nan, with no warning,
    where it leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return w - z


def exponentials(s: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^{-s}, e^{-2w}) elementwise, as np.exp computes them.  Each is a
    fresh array, computed in place from the negated exponent.  An
    exponential may overflow or underflow; the caller holds the
    np.errstate that silences it."""
    e_s, e_w = -s, -2 * w
    return np.exp(e_s, out=e_s), np.exp(e_w, out=e_w)


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

    Both exponentials are evaluated on every state, by ``exponentials``.
    The sums are formed in place, in the order of the formulas above up to
    commuting two terms, which keeps the bits: z1 is written into the
    array of e^{-(z+w)} once the margin has used it.

    ok is False where the step overflowed: an exponent has real part above
    EXP_MAX, or any result is non-finite.  The images there are meaningless.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        s = z + w
        ok = s.real >= -EXP_MAX
        ok &= w.real >= -EXP_MAX / 2
        z1, e_w = exponentials(s, w)
        d1 = d + 1.0
        d1 += e_w
        d1 -= z1
        z1 += s
        del s  # so that no more than four new arrays of states are live
        w1 = 2 * w
        w1 += e_w
        w1 += 1.0
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

    Each chunk is ``chunk_orbits``.
    """
    for idx in chunks(z.size):
        yield from chunk_orbits(z, w, idx, n)


def chunk_orbits(
    z: np.ndarray, w: np.ndarray, idx: np.ndarray, n: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """``orbits`` for the one chunk of seeds idx of (z, w), as ``chunks``
    gives it: what ``orbits`` yields for it, in the same order.

    Once every state of the chunk is in R_inf, it stays there (see the
    module docstring), and ``_far_orbit`` iterates the rest of it.  That
    needs finite margins too, which ``step`` keeps from step 1 on: only
    d_0 = w_0 - z_0 may overflow, and ``step`` drops such a seed at step
    1 even where its images z_1 and w_1 are finite.
    """
    zk, wk = z[idx], w[idx]
    dk = margin(zk, wk)
    yield 0, idx, zk, wk, dk
    for k in range(1, n + 1):
        if all_in_r_inf(zk, wk) and np.isfinite(dk).all():
            yield from _far_orbit(k, n, idx, zk, wk, dk)
            return
        zk, wk, dk, ok = step(zk, wk, dk)
        if not ok.all():
            idx, zk, wk, dk = idx[ok], zk[ok], wk[ok], dk[ok]
            if not idx.size:
                return
        yield k, idx, zk, wk, dk


def _far_orbit(
    start: int, n: int, idx: np.ndarray, z: np.ndarray, w: np.ndarray, d: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Steps start..n of ``orbits`` for the seeds idx, whose states
    (z, w, d) after step start - 1 all lie in R_inf and have finite
    margins d, as ``chunk_orbits`` yields them.

    Each step is F's exact image in R_inf, where both exponentials are
    +-0: z1 = s + 0.0, w1 = 2w + 1 and d1 = d + 1, s = z + w, which has the
    bits of ``step``.  The + 0.0 turns a -0 part of s into +0, as adding
    the zero e^{-s} does.  Neither the cuts nor the EXP_MAX tests are
    repeated.  Whether the images are finite is filtered on one sum:
    s = z1 + w1, which is the next step's z + w, has a non-finite part
    wherever z1 or w1 has one, so if s.sum() is finite, every part of z1
    and w1 is.  d1 = d + 1 is finite wherever d is and needs no test.
    Only where the filter fails, as when a sum of finite parts overflows,
    does the per-state test run; it keeps the states ``step`` keeps.
    """
    with np.errstate(over="ignore"):
        s = z + w
    for k in range(start, n + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            z = s
            z += 0.0
            w = w + w  # 2w; a zero imaginary part may differ in sign from that
            w += 1.0   # of 2 * w, and adding 1 + 0j makes it +0 in both
            d = d + 1.0
            s = z + w
            finite = cmath.isfinite(s.sum())
        if not finite:
            ok = np.isfinite(z) & np.isfinite(w)
            if not ok.all():
                idx, z, w, d, s = idx[ok], z[ok], w[ok], d[ok], s[ok]
                if not idx.size:
                    return
        yield k, idx, z, w, d


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
    z1, w1, _, ok = step(z, w, margin(z, w))
    if not ok[0]:
        raise OverflowSignal("image of F is non-finite")
    return PlanePoint(complex(z1[0]), complex(w1[0]))
