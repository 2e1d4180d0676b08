"""The far field R = {Re w > 10, Re(z + w) > 10} of domain.in_far_field and
its lemma, on seeded states of R stepped by core.step: every finite image
lies in R with Re z and Re w above 1, Re z, Re w and Re d never decrease,
and Re d rises by between FAR_MARGIN_STEP_MIN and FAR_MARGIN_STEP up to
the rounding term of render._certify.  render._certify, domain.invariance
and domain.growth settle their states in R by this lemma."""

import math

import numpy as np
import pytest

from bakerbench.core import step
from bakerbench.domain import (FAR_FIELD, FAR_MARGIN_STEP, FAR_MARGIN_STEP_MIN,
                               L_THRESHOLD, in_far_field)

U = np.finfo(np.float64).eps / 2
N = 4000


def states(zr, zi, wr, wi):
    z = np.empty(np.size(zr), np.complex128)
    w = np.empty_like(z)
    z.real, z.imag, w.real, w.imag = zr, zi, wr, wi
    return z, w


def near_edge(g, z_imag, w_imag):
    """Re w and Re(z + w) within 1e-9 of FAR_FIELD, above it, with the
    given imaginary parts."""
    wr = FAR_FIELD + g.uniform(0, 1e-9, N)
    zr = FAR_FIELD + g.uniform(0, 1e-9, N) - wr
    return states(zr, z_imag, wr, w_imag)


def wide(g):
    """Parts of every size up to 1e300 in modulus, either sign."""
    def parts(lo, hi):
        return g.choice([-1.0, 1.0], N) * 10.0 ** g.uniform(lo, hi, N)
    wr = 10.0 ** g.uniform(1, 300, N)
    return states(parts(-300, 300), parts(-300, 300), wr, parts(-300, 300))


def far_states():
    """Seeded states, each family kept where in R: near the edge, with
    Im z = pi and Im w = 0, where 1 + e^{-2w} - e^{-(z+w)} is largest,
    and with Im z = -pi/2 and Im w = pi/2, where it is least; near the
    edge with any imaginary parts; and parts of every size."""
    g = np.random.default_rng(20261019)
    families = [
        near_edge(g, math.pi, 0.0),
        near_edge(g, -math.pi / 2, math.pi / 2),
        near_edge(g, g.uniform(-1e3, 1e3, N), g.uniform(-1e3, 1e3, N)),
        states(g.uniform(-1e6, 1e6, N), g.uniform(-50, 50, N),
               1e6 + FAR_FIELD + g.uniform(0, 100, N), g.uniform(-50, 50, N)),
        wide(g),
    ]
    z, w = (np.concatenate(c) for c in zip(*families))
    keep = in_far_field(z, w)
    return z[keep], w[keep]


@pytest.fixture(scope="module")
def stepped():
    z, w = far_states()
    with np.errstate(over="ignore", invalid="ignore"):
        d = w - z
    keep = np.isfinite(d)
    z, w, d = z[keep], w[keep], d[keep]
    z1, w1, d1, ok = step(z, w, d)
    assert ok.mean() > 0.9
    return z[ok], w[ok], d[ok], z1[ok], w1[ok], d1[ok]


def test_in_far_field_is_r():
    z, w = wide(np.random.default_rng(1))
    z = np.concatenate((z, [FAR_FIELD + 1, 1e300, -1e300]))
    w = np.concatenate((w, [FAR_FIELD, 1e300, 1e300 + 2**1000]))
    with np.errstate(over="ignore"):
        want = (w.real > FAR_FIELD) & (z.real + w.real > FAR_FIELD)
    assert (in_far_field(z, w) == want).all()
    assert want.any() and not want.all()


def test_in_far_field_returns_before_the_sum_where_no_w_clears():
    # Re(z + w) would overflow here, and is never formed.
    z = np.full(8, 1.7e308 + 0j)
    w = np.full(8, FAR_FIELD + 0j)
    with np.errstate(over="raise"):
        assert not in_far_field(z, w).any()


def test_r_maps_into_itself(stepped):
    z, w, d, z1, w1, d1 = stepped
    assert in_far_field(z1, w1).all()
    assert (z1.real > 1).all() and (w1.real > 1).all()
    assert (w1.real >= 2 * w.real).all()
    assert (z1.real >= z.real).all()


def test_margin_never_decreases(stepped):
    _, _, d, _, _, d1 = stepped
    assert (d1.real >= d.real).all()


def test_rise_lies_between_the_far_margin_steps(stepped):
    _, _, d, _, _, d1 = stepped
    small = np.abs(d.real) < 2.0**40
    d, d1 = d.real[small], d1.real[small]
    rise = d1 - d
    rounding = 8 * U * (np.abs(d) + abs(L_THRESHOLD) + 2)
    assert small.sum() > 3 * N
    assert (rise >= FAR_MARGIN_STEP_MIN - rounding).all()
    assert (rise <= FAR_MARGIN_STEP + rounding).all()
    # The extreme states come within e^{-20}/2 of both bounds, so neither
    # bound may drop either of its exponential terms.
    gap = math.exp(-2 * FAR_FIELD) / 2
    assert rise.max() > FAR_MARGIN_STEP - gap
    assert rise.min() < FAR_MARGIN_STEP_MIN + gap
