"""The far-field fast-forward of the first-entry classifier.

render._classify drops a seed as not_entered once render._stays_out proves
that the steps left neither enter L nor overflow.  The classes must be
those of plain iteration (classify_reference.py), whatever the slice,
budget or worker count; the certificate is tested on hand-built states
at the edges of its bound.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from classify_reference import reference_classify

from bakerbench import render
from bakerbench.core import PlanePoint, step
from bakerbench.domain import FAR_FIELD, L_THRESHOLD
from bakerbench.render import PixelClass, SliceSpec, classify_point, render_slice

U = np.finfo(np.float64).eps / 2
E_W = math.exp(-FAR_FIELD)  # bound of |e^{-(z+w)}| in the far field
E_2W = math.exp(-2 * FAR_FIELD)  # bound of |e^{-2w}| in the far field
REM = 200


def z_plane(w):
    return SliceSpec(base=PlanePoint(0j, w), dir_u=PlanePoint(1 + 0j, 0j),
                     dir_v=PlanePoint(1j, 0j), u_range=(-5.0, 5.0),
                     v_range=(-5.0, 5.0), width=64, height=64)


SLICES = {
    "default": z_plane(4 + 0j),
    "w=0.2": z_plane(0.2 + 0j),
    "w-plane": SliceSpec(base=PlanePoint(0j, 0j), dir_u=PlanePoint(0j, 1 + 0j),
                         dir_v=PlanePoint(0j, 1j), u_range=(-5.0, 5.0),
                         v_range=(-5.0, 5.0), width=64, height=64),
}


@functools.cache
def plain(name, budget):
    spec = SLICES[name]
    z, w = render._pixel_grid(spec, np.arange(spec.height))
    return reference_classify(z.ravel(), w.ravel(), budget, L_THRESHOLD)


class TestMatchesPlainIteration:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("budget", [200, 2000])
    @pytest.mark.parametrize("name", SLICES)
    def test_codes_and_steps(self, name, budget, workers):
        r = render_slice(SLICES[name], budget, workers=workers)
        codes, steps = plain(name, budget)
        assert np.array_equal(r.codes.ravel(), codes)
        assert np.array_equal(r.steps.ravel(), steps)

    @pytest.mark.parametrize("name", ["w=0.2", "w-plane"])
    def test_slices_hold_pixels_that_never_enter(self, name):
        codes, _ = plain(name, 200)
        assert (codes == render._CODE_NOT_ENTERED).any()

    def test_no_warnings_at_budget_2000(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_slice(SLICES["w=0.2"], 2000, workers=2)


class TestCounter:
    def test_independent_of_workers_and_chunks(self, monkeypatch):
        base = render_slice(SLICES["w=0.2"], 200, workers=1)
        monkeypatch.setattr(render, "CHUNK_PIXELS", 64 * 5)
        other = render_slice(SLICES["w=0.2"], 200, workers=2)
        assert other.fast_forwarded == base.fast_forwarded
        assert 0 < base.fast_forwarded <= base.stats["not_entered"]

    def test_zero_on_default_slice(self):
        assert render_slice(SLICES["default"], 200, workers=2).fast_forwarded == 0


def stays_out(z, w, d, rem=REM):
    """_stays_out on one hand-built state (z, w) with carried margin d."""
    z, w, d = (np.array([complex(x)]) for x in (z, w, d))
    return bool(render._stays_out(z, w, d, rem, L_THRESHOLD)[0])


class TestCertificate:
    # In the far field (Re w = 20, Re(z + w) = 40 - Re d), only the margin
    # decides; a margin above the threshold minus REM times a per-step
    # bound that leaves out one of its terms must not be certified.
    def test_margin_just_inside_the_bound(self):
        d = L_THRESHOLD - REM * (1 + E_W + E_2W) - 1e-6 * REM
        assert stays_out(20 - d, 20, d)

    @pytest.mark.parametrize("d", [
        L_THRESHOLD - REM * (1 + E_W + E_2W / 2),  # needs the e^{-2W} term
        L_THRESHOLD - REM * (1 + E_W / 2 + E_2W),  # needs the e^{-W} term
        # needs the rounding term: half of u(|Re d| + 2 rem + 2) per step,
        # with |Re d| about REM
        L_THRESHOLD - REM * (1 + E_W + E_2W) - REM * U * (3 * REM + 2) / 2,
    ], ids=["e^-2W", "e^-W", "rounding"])
    def test_margin_just_outside_the_bound(self, d):
        assert not stays_out(20 - d, 20, d)

    @pytest.mark.parametrize("z, w", [
        (1e6, FAR_FIELD),  # Re w = W
        (-10.0, 20.0),  # Re(z + w) = W
    ])
    def test_edge_of_the_far_field(self, z, w):
        assert not stays_out(z, w, -1e6)
        assert stays_out(z, np.nextafter(w, math.inf), -1e6)

    @pytest.mark.parametrize("rem", [200, 400])
    def test_overflow_guard_agrees_with_plain_iteration(self, rem):
        # |w| doubles per step: 2^200 * 1e200 stays below the largest
        # double and 2^400 * 1e200 does not.
        z, w = 2e200, 1e200
        codes, _ = reference_classify(np.array([z + 0j]), np.array([w + 0j]),
                                      rem, L_THRESHOLD)
        expected = {200: render._CODE_NOT_ENTERED, 400: render._CODE_OVERFLOWED}
        assert codes[0] == expected[rem]
        assert stays_out(z, w, w - z, rem) == (rem == 200)

    def test_typical_far_pixel_of_w_0_2(self):
        # pixel (1, 2) of the 64 x 64 slice at w = 0.2, three steps in
        p = SLICES["w=0.2"].pixel_center(1, 2)
        assert classify_point(p, REM) == PixelClass("not_entered")
        z, w = p.arrays()
        d = w - z
        for _ in range(3):
            z, w, d, ok = step(z, w, d)
        assert ok.all() and d.real[0] < -1e5
        assert render._stays_out(z, w, d, REM - 3, L_THRESHOLD)[0]


class TestStepsLeft:
    # Seeds deep in the far field whose margin rises by exactly 1 per step
    # (Re w = 30, the exponentials are below half an ulp), so they enter L
    # at the last step of the budget or miss it by 1/2.
    def seed(self, d0):
        return PlanePoint(30 - d0 + 0j, 30 + 0j)

    def test_entry_at_the_last_step(self):
        p = self.seed(1.5 - REM)
        assert classify_point(p, REM) == PixelClass("entered", REM)
        assert render._classify(*p.arrays(), REM, L_THRESHOLD)[2] == 0

    def test_missed_entry_fast_forwarded_after_one_step(self):
        p = self.seed(0.5 - REM)
        assert classify_point(p, REM) == PixelClass("not_entered")
        assert render._classify(*p.arrays(), REM, L_THRESHOLD)[2] == 1
