"""Plurisubharmonic diagnostics for the absorbing-domain argument.

The diagnostic sequence is

    u_n(z0, w0) = -(Re w_n - Re z_n) / (|w_n| + |z_n|) - 1

evaluated along the orbit of (z0, w0).  Its values always lie in [-2, 0];
on the wedge L they approach -1.  submean_check probes the sub-mean-value
inequality of u_n restricted to a complex line a + lambda*b, using
equal-angle trapezoidal quadrature on a circle (spectrally accurate for
smooth integrands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import OverflowSignal, PlanePoint, modulus, orbit, orbits


class InsufficientSamples(Exception):
    """Too many circle points overflowed to trust the mean."""


def u_value(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """-(Re w - Re z) / (|w| + |z|) - 1 at the states (z, w), NaN where
    |w| + |z| = 0.  Where |w| + |z| exceeds double range at a finite state,
    the parts are scaled by 1/4 first, which leaves the quotient unchanged."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.where(np.isfinite(modulus(w) + modulus(z)), 1.0, 0.25)
        z, w = z * q, w * q
        return -(w.real - z.real) / (modulus(w) + modulus(z)) - 1.0


def u_n(seed: PlanePoint, n: int) -> float:
    """u_n at seed; raises OverflowSignal if the orbit dies before step n."""
    rec = orbit(seed, n)
    if not rec.completed:
        raise OverflowSignal(f"orbit overflowed at step {rec.overflow_step}")
    u = float(u_value(*rec.last.arrays())[0])
    if math.isnan(u):
        raise ValueError("u undefined: |w| + |z| = 0")
    return u


@dataclass(frozen=True)
class UProfile:
    seed: PlanePoint
    values: tuple[tuple[int, float], ...]
    tail_max: float
    truncated: bool


def u_profile(seed: PlanePoint, N: int) -> UProfile:
    """Tabulate u_n for n = 0..N (until overflow).

    tail_max, the maximum over the last ceil(N/4) defined values, is the
    finite-sample stand-in for the limsup of the sequence.
    """
    if N < 4:
        raise ValueError("profile length must be >= 4")
    rec = orbit(seed, N)
    u = u_value(np.array([p.z for p in rec.points]), np.array([p.w for p in rec.points]))
    values = tuple((n, v) for n, v in enumerate(u.tolist()) if not math.isnan(v))
    tail = math.ceil(N / 4)
    tail_max = max(v for _, v in values[-tail:])
    return UProfile(seed=seed, values=values, tail_max=tail_max,
                    truncated=not rec.completed)


@dataclass(frozen=True)
class ProbeSpec:
    """A complex line a + lambda*b with a circle |lambda| = radius on it."""

    center: PlanePoint
    direction: PlanePoint
    radius: float
    samples: int

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.samples < 8:
            raise ValueError("need at least 8 circle samples")
        if self.direction.z == 0 and self.direction.w == 0:
            raise ValueError("direction must be nonzero")


@dataclass(frozen=True)
class SubmeanReport:
    probe: ProbeSpec
    n: int
    center_value: float
    circle_mean: float
    deficit: float
    valid_samples: int


def submean_check(
    probe: ProbeSpec,
    n: int,
    func: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SubmeanReport:
    """Circle mean minus center value of lambda -> u_n(a + lambda*b).

    A subharmonic function has deficit >= 0 in exact arithmetic; the
    measured value is reported as-is.  The centre and every circle point
    are evaluated in one batch of orbits.  Circle points whose orbit
    overflows are excluded (and reflected in valid_samples); the probe
    fails only when fewer than half the samples survive.

    ``func`` is a test seam: when given, it replaces the dynamics-backed
    evaluation with an arbitrary function mapping an array of lambda to an
    array of values, NaN marking an excluded sample, so the quadrature can
    be validated against analytic cases on its own.
    """
    theta = 2.0 * math.pi * np.arange(probe.samples) / probe.samples
    lam = np.concatenate(([0j], probe.radius * np.exp(1j * theta)))
    if func is None:
        # A circle point may leave double range; it is then excluded.
        with np.errstate(over="ignore", invalid="ignore"):
            z0 = probe.center.z + lam * probe.direction.z
            w0 = probe.center.w + lam * probe.direction.w
        # u_n on the line; NaN where the orbit overflows before step n
        values = np.full(lam.shape, np.nan)
        for k, idx, z, w, _ in orbits(z0, w0, n):
            if k == n:
                values[idx] = u_value(z, w)
    else:
        values = np.asarray(func(lam), dtype=np.float64)
    center_value = float(values[0])
    if math.isnan(center_value):
        raise OverflowSignal(f"no u_{n} at the centre: its orbit overflows "
                             "or |w_n| + |z_n| = 0")
    circle = values[1:][~np.isnan(values[1:])]
    valid = circle.size
    if valid < probe.samples / 2:
        raise InsufficientSamples(
            f"only {valid} of {probe.samples} circle points usable"
        )
    mean = float(circle.sum() / valid)
    return SubmeanReport(
        probe=probe,
        n=n,
        center_value=center_value,
        circle_mean=mean,
        deficit=mean - center_value,
        valid_samples=valid,
    )
