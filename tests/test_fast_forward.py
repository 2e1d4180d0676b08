"""The far-field certificate of the first-entry classifier.

render._classify settles a seed once render._certify proves its class:
not_entered when the steps left neither enter L nor overflow, entered at
step k + m when the margin bounds fix its entry step.  The classes must be
those of plain iteration (classify_reference.py), whatever the slice,
budget, threshold or worker count; the certificate is tested on hand-built
states at the edges of its bounds.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from classify_reference import reference_classify

from bakerbench import render
from bakerbench.core import PlanePoint, step
from bakerbench.domain import FAR_FIELD, FAR_MARGIN_STEP, L_THRESHOLD
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


THRESHOLDS = [L_THRESHOLD, -3.0, 0.5, 37.25]


@functools.cache
def plain(name, budget, threshold=L_THRESHOLD):
    spec = SLICES[name]
    z, w = render._pixel_grid(spec, np.arange(spec.height))
    return reference_classify(z.ravel(), w.ravel(), budget, threshold)


def plain_map_evals(codes, steps, budget):
    """Map evaluations of plain iteration: an entered seed steps until its
    entry step, an overflowed one once more, one never entered the whole
    budget."""
    return int(np.where(codes == render._CODE_ENTERED, steps,
                        np.where(codes == render._CODE_OVERFLOWED, steps + 1,
                                 budget)).sum())


class TestMatchesPlainIteration:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("budget", [1, 2, 5, 200, 2000])
    @pytest.mark.parametrize("name", SLICES)
    def test_codes_and_steps(self, name, budget, workers):
        for threshold in THRESHOLDS:
            r = render_slice(SLICES[name], budget, threshold, workers=workers)
            codes, steps = plain(name, budget, threshold)
            assert np.array_equal(r.codes.ravel(), codes), threshold
            assert np.array_equal(r.steps.ravel(), steps), threshold

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

    def test_entries_and_map_evals_independent_of_workers_and_chunks(self, monkeypatch):
        base = render_slice(SLICES["w=0.2"], 200, workers=1)
        monkeypatch.setattr(render, "CHUNK_PIXELS", 64 * 5)
        other = render_slice(SLICES["w=0.2"], 200, workers=2)
        assert other.certified_entries == base.certified_entries
        assert other.map_evals == base.map_evals

    def test_certified_entries_save_map_evals(self):
        r = render_slice(SLICES["w=0.2"], 200, workers=2)
        assert 0 < r.certified_entries <= r.stats["entered"]
        assert r.map_evals < plain_map_evals(*plain("w=0.2", 200), 200)

    def test_map_evals_of_plain_iteration_on_default_slice(self):
        # every pixel enters L before any reaches the far field
        r = render_slice(SLICES["default"], 200, workers=2)
        assert r.certified_entries == 0
        assert r.map_evals == plain_map_evals(*plain("default", 200), 200)


def certify(z, w, d, rem=REM):
    """_certify on one hand-built state (z, w) with carried margin d: the
    entry step m, -1 for not_entered, or 0 where neither is certified."""
    z, w, d = (np.array([complex(x)]) for x in (z, w, d))
    outcome = render._certify(z, w, d, rem, L_THRESHOLD)
    return 0 if outcome is None else int(outcome[0])


def stays_out(z, w, d, rem=REM):
    return certify(z, w, d, rem) == -1


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
        assert render._certify(z, w, d, REM - 3, L_THRESHOLD)[0] == -1


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


M = 100  # entry step of the hand-built entrants below
LO = 1 - E_W - E_2W  # least per-step rise of Re d in the far field


def entrant(d):
    """A far-field state with margin d, Re w = 20 and Re(z + w) = 40 - d."""
    return 20 - d, 20, d


class TestEntryCertificate:
    # In the far field only the margin decides; a margin that reaches the
    # threshold after M steps under a per-step lower bound that leaves out
    # one of its terms must not be certified.
    def test_margin_just_inside_the_lower_bound(self):
        d = L_THRESHOLD - M * LO + 1e-9
        assert certify(*entrant(d)) == M
        # plain iteration agrees: each step raises Re d by 1 up to rounding
        z, w, _ = entrant(d)
        assert classify_point(PlanePoint(z, w), REM) == PixelClass("entered", M)

    @pytest.mark.parametrize("d", [
        L_THRESHOLD - M * (1 - E_W - E_2W / 2),  # needs the e^{-2W} term
        L_THRESHOLD - M * (1 - E_W / 2 - E_2W),  # needs the e^{-W} term
        # needs the rounding term: an eighth of 8u(|Re d| + |threshold| + 2)
        # per step, with |Re d| about M
        L_THRESHOLD - M * LO + M * U * (M + 3),
    ], ids=["e^-2W", "e^-W", "rounding"])
    def test_margin_just_outside_the_lower_bound(self, d):
        assert certify(*entrant(d)) == 0

    @pytest.mark.parametrize("offset", [-0.5, 0.5])
    def test_distance_near_an_integer_is_not_certified(self, offset):
        # within M (e^{-W} + e^{-2W}) of M steps, the bounds straddle M
        d = L_THRESHOLD - M + offset * M * (E_W + E_2W)
        assert certify(*entrant(d)) == 0

    def test_quotient_rounded_up_to_an_integer_is_not_certified(self):
        # (threshold - d)/hi rounds to exactly 2, so floor gives m = 3, yet
        # d + 2 hi exceeds the threshold: the upper bound may cross at
        # step 2, and only the (m - 1) hi test keeps step 3 uncertified.
        d = -1.0000908039818392
        hi = FAR_MARGIN_STEP + 8 * U * (abs(d) + abs(L_THRESHOLD) + 2)
        assert (L_THRESHOLD - d) / hi == 2.0 and d + 2 * hi > L_THRESHOLD
        assert certify(*entrant(d)) == 0

    def test_margin_above_threshold_outside_L_enters_at_next_step(self):
        # Re z = 0.5 keeps the state out of L now; one step in the far
        # field lifts Re z above 1.
        z, w = 0.5, 20.0
        assert certify(z, w, w - z) == 1
        p = PlanePoint(z, w)
        assert classify_point(p, REM) == PixelClass("entered", 1)
        assert render._classify(*p.arrays(), REM, L_THRESHOLD)[3] == 1

    def test_entry_with_a_margin_past_the_cap_of_the_steps_left(self):
        # With threshold 2^30 and 1,000 steps left, |Re d| = 2^30 - 499.5
        # is past the overflow cap 2^20 of staying out, yet the seed enters
        # after 500 steps.
        threshold, z, w = 2.0**30, 499.5, 2.0**30
        p = PlanePoint(z + 0j, w + 0j)
        assert classify_point(p, 1000, threshold) == PixelClass("entered", 500)
        outcome = render._certify(*p.arrays(), np.array([w - z + 0j]), 1000, threshold)
        assert outcome is not None and outcome[0] == 500

    def test_no_certificate_past_the_horizon(self):
        # A seed one step from entry whose components pass the overflow
        # guard for the _HORIZON = 1,016 steps left; with one step more
        # left the certificate is not tried, though the entry needs a
        # single step.
        z, w = 1.0, 11.0
        assert certify(z, w, w - z, rem=1016) == 1
        assert certify(z, w, w - z, rem=1017) == 0

    def test_entry_at_the_last_step(self):
        d = L_THRESHOLD - 9.5  # enters after 10 steps
        assert certify(*entrant(d), rem=10) == 10
        # with 9 steps left it stays out instead
        assert certify(*entrant(d), rem=9) == -1

    @pytest.mark.parametrize("im_w, expected", [
        (2.0**900, PixelClass("entered", 10)),  # finite for m = 10 steps
        (2.0**1015, PixelClass("overflowed", 8)),  # |w| overflows first
    ])
    def test_overflow_guard_counts_the_entry_steps(self, im_w, expected):
        # Im w doubles per step; 2^900 fails the guard for the REM steps
        # left but passes it for the 10 steps to entry.
        p = PlanePoint(28.5 + 0j, complex(20, im_w))  # Re d = -8.5
        assert classify_point(p, REM) == expected
        z, w = p.arrays()
        assert certify(z[0], w[0], w[0] - z[0]) == (10 if im_w < 2.0**1000 else 0)
