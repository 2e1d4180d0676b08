"""The margin d_k = w_k - z_k carried by `orbit`, checked against 400-bit
mpmath orbits.

The telescoping criterion only shows that the carried margin agrees with
the telescoped sum of the same exponentials; these tests check it against
an independent reference, in which d_k is the difference of the
high-precision coordinates.
"""

import mpmath as mp
import numpy as np

from bakerbench.core import PlanePoint, orbit
from bakerbench.domain import L_THRESHOLD, in_wedge
from bakerbench.suites import telescoping_seeds

REFERENCE_BITS = 400
SEED = 20260823


def reference_orbit(seed: PlanePoint, n: int) -> list[tuple]:
    """(z_k, w_k, w_k - z_k) for k = 0..n, iterated at REFERENCE_BITS from
    the exact double seed."""
    with mp.workprec(REFERENCE_BITS):
        z, w = mp.mpc(seed.z), mp.mpc(seed.w)
        out = [(z, w, w - z)]
        for _ in range(n):
            s = z + w
            z, w = mp.exp(-s) + s, mp.exp(-2 * w) + 2 * w + 1
            out.append((z, w, w - z))
    return out


def test_thirty_step_margin_on_telescoping_seeds():
    # The (z, w) difference misses d_30 here by a relative 2e-7.
    worst = 0.0
    for z, w in zip(*telescoping_seeds(200, SEED)):
        seed = PlanePoint(complex(z), complex(w))
        d = orbit(seed, 30)[2]
        assert d.size == 31
        ref = complex(reference_orbit(seed, 30)[-1][2])
        worst = max(worst, abs(d[-1] - ref) / abs(ref))
    assert worst <= 1e-12


def test_margin_and_first_entry_far_from_L():
    # The orbit leaves the z-plane slice at w = 0.2 with d_3 ~ -84.6 and
    # climbs by 1 per step while |z|, |w| double; w_k - z_k rounds to 0
    # from k = 58 on, so only the carried margin sees the entry at 89.
    seed = PlanePoint(-4.970703125 - 4.716796875j, 0.2 + 0j)
    n = 95
    z, w, margins = orbit(seed, n)
    assert margins.size == n + 1
    ref = reference_orbit(seed, n)
    for d, (_, _, r) in zip(margins.tolist(), ref):
        r = complex(r)
        assert abs(d.real - r.real) <= 1e-12 * abs(r)

    ref_entry = next(
        k for k, (z, w, r) in enumerate(ref)
        if z.real > 1 and w.real > 1 and r.real > 1
    )
    entry = int(np.argmax(in_wedge(z, w, margins, L_THRESHOLD)))
    assert ref_entry == entry == 89
