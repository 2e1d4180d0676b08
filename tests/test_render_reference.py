"""First-entry classes of render_slice on the slices that are hard to
classify, checked pixel by pixel against a 600-bit mpmath classifier.

On the default slice (w = 4) every pixel enters L by step 2.  On the
z-plane slice at w = 0.2 and the w-plane slice at z = 0 orbits enter
late, overflow, or never enter within the budget, and the carried margin
decides entries long after w - z has lost all its digits.  The reference
iterates the exact double pixel centre at 600 bits and restates the
overflow rule of ``core.step``: the step from state k overflows when an
exponent's real part exceeds EXP_MAX or a coordinate leaves double range.
"""

import mpmath as mp
import numpy as np
import pytest

from bakerbench.core import EXP_MAX, PlanePoint
from bakerbench.render import PixelClass, SliceSpec, render_slice

REFERENCE_BITS = 600
DBL_MAX = np.finfo(np.float64).max
BUDGET = 200
PER_CLASS = 5  # sampled pixels per class, plus the latest entrant: 16
SEED = 20261018


def reference_class(p: PlanePoint, budget: int) -> PixelClass:
    """First k <= budget with F^k(p) in L, at REFERENCE_BITS."""
    with mp.workprec(REFERENCE_BITS):
        z, w = mp.mpc(p.z), mp.mpc(p.w)
        for k in range(budget + 1):
            if z.real > 1 and w.real > 1 and w.real - z.real > 1:
                return PixelClass("entered", k)
            if k == budget:
                break
            s = z + w
            if -s.real > EXP_MAX or -2 * w.real > EXP_MAX:
                return PixelClass("overflowed", k)
            z, w = mp.exp(-s) + s, mp.exp(-2 * w) + 2 * w + 1
            if max(abs(z.real), abs(z.imag), abs(w.real), abs(w.imag)) > DBL_MAX:
                return PixelClass("overflowed", k)
    return PixelClass("not_entered")


HARD_SLICES = {
    "w=0.2": (PlanePoint(0j, 0.2 + 0j), PlanePoint(1 + 0j, 0j), PlanePoint(1j, 0j)),
    "w-plane": (PlanePoint(0j, 0j), PlanePoint(0j, 1 + 0j), PlanePoint(0j, 1j)),
}


@pytest.mark.parametrize("name", HARD_SLICES)
def test_hard_slice_agrees_with_600_bit_classifier(name):
    spec = SliceSpec(*HARD_SLICES[name], u_range=(-5.0, 5.0),
                     v_range=(-5.0, 5.0), width=64, height=64)
    r = render_slice(spec, BUDGET)
    rng = np.random.default_rng(SEED)
    sampled = []
    for code in np.unique(r.codes):
        js, is_ = np.nonzero(r.codes == code)
        pick = rng.permutation(js.size)[:PER_CLASS]
        sampled += zip(is_[pick].tolist(), js[pick].tolist())
    # the latest entry, where w - z has long lost the digits of the margin
    j, i = np.unravel_index(np.argmax(np.where(r.codes == 1, r.steps, -1)), r.codes.shape)
    sampled.append((int(i), int(j)))
    assert len({r.pixel(i, j).tag for i, j in sampled}) == 3
    for i, j in sampled:
        expected = reference_class(spec.pixel_center(i, j), BUDGET)
        assert r.pixel(i, j) == expected, (i, j)
