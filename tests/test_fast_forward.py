"""The far-field certificate of the first-entry classifier.

render._classify settles a seed once render._certify proves its class:
not_entered when the steps left neither enter L nor overflow, entered at
step k + m when the margin bounds fix its entry step, and, in R_inf,
overflowed at the step that the closed form of the exact R_inf step
gives.  There is no second loop: a seed left open keeps iterating in the
main one.  The classes must be those of plain iteration
(classify_reference.py), whatever the slice, budget, threshold or worker
count; the certificate is tested on hand-built states at the edges of its
bounds, and the overflow step on hand-built states in R_inf.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from classify_reference import reference_classify

from bakerbench import render
from bakerbench.core import PlanePoint, in_r_inf, step
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
    @pytest.mark.parametrize("budget", [1, 2, 5, 200, 1000, 1016, 2000])
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
            for budget in (1000, 2000):
                render_slice(SLICES["w=0.2"], budget, workers=2)


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

    def test_far_tail_settled_at_budget_1000(self):
        # The far seeds of w = 0.2 that enter or stay out are settled by
        # the certificate at budget 1,000 as at 200, not iterated one step
        # at a time to the end of the budget (204,598 against 11,854 when the
        # guard doubled every component and R_inf kept the e^{-W} slack).
        evals = {b: render_slice(SLICES["w=0.2"], b, workers=2).map_evals
                 for b in (200, 1000)}
        assert evals[1000] < 2 * evals[200]

    @pytest.mark.parametrize("name, budget", [
        ("w=0.2", 1017), ("w=0.2", 2000), ("w-plane", 1000), ("w-plane", 1016),
    ])
    def test_counters_independent_of_workers_and_chunks_past_the_horizon(
            self, name, budget, monkeypatch):
        # The two tests above at budgets near and past 1,016, the most
        # steps for which a state of R_inf stays finite: past it the
        # certificate settles entries and the overflows of R_inf in closed
        # form, and no seed that stays out.
        base = render_slice(SLICES[name], budget, workers=1)
        monkeypatch.setattr(render, "CHUNK_PIXELS", 64 * 5)
        other = render_slice(SLICES[name], budget, workers=2)
        for counter in ("map_evals", "fast_forwarded", "certified_entries"):
            assert getattr(other, counter) == getattr(base, counter), counter

    def test_overflow_in_r_inf_settled_in_closed_form(self, monkeypatch):
        # Not a timing: the far seeds of the w-plane that overflow within
        # the budget are settled from the first steps on, not iterated one
        # step call per step until they overflow (1,012 step calls when a
        # separate loop iterated them).
        calls = []
        step_ = render.step

        def spy(*args):
            calls.append(args)
            return step_(*args)

        monkeypatch.setattr(render, "step", spy)
        r = render_slice(SLICES["w-plane"], 1016, workers=1)
        assert r.stats["overflowed"] > 0
        assert len(calls) < 20

    @pytest.mark.parametrize("name", SLICES)
    def test_no_step_on_an_empty_active_set(self, name, monkeypatch):
        # Where _certify settles every seed left, as on w = 0.2 and on the
        # w-plane, the loop ends there instead of stepping no states.
        sizes = []
        monkeypatch.setattr(render, "step", lambda z, w, d: sizes.append(z.size) or step(z, w, d))
        render_slice(SLICES[name], 200, workers=1)
        assert sizes and min(sizes) > 0


def certify(z, w, d, rem=REM, threshold=L_THRESHOLD):
    """_certify on one hand-built state (z, w) with carried margin d: the
    entry step m, -1 for not_entered, or 0 where neither is certified."""
    z, w, d = (np.array([complex(x)]) for x in (z, w, d))
    outcome = render._certify(z, w, d, rem, threshold)
    return 0 if outcome is None else int(outcome[0])


def plain_class(z, w, rem=REM, threshold=L_THRESHOLD):
    """The class that plain iteration gives the seed (z, w) in rem steps."""
    codes, steps = reference_classify(np.array([complex(z)]), np.array([complex(w)]),
                                      rem, threshold)
    return render._pixel_class(int(codes[0]), int(steps[0]))


def certified_as_plain(z, w, rem=REM, threshold=L_THRESHOLD):
    """certify on the seed (z, w), with margin w - z, where it agrees with
    plain iteration; fails where it certifies another class."""
    m = certify(z, w, complex(w) - complex(z), rem, threshold)
    expected = plain_class(z, w, rem, threshold)
    if m:
        assert render._pixel_class(render._CODE_ENTERED if m > 0 else
                                   render._CODE_NOT_ENTERED, m) == expected
    return m


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


class TestOverflowGuard:
    # Z + 2^(n + 1)(W + 2) < 2^1023: only the w parts double per step,
    # the z and d parts grow additively.
    def test_huge_z_with_modest_w_stays_out(self):
        # Re z = 2^1000, w = 20, Re d = -2^1000; the guard that doubled
        # every component failed it for 200 steps.
        assert certified_as_plain(2.0**1000, 20.0) == -1

    @pytest.mark.parametrize("re_z, settled", [
        (2.0**1022 - 2.0**970, True),  # Z + 2^201 2^821 = 2^1023 - 2^970
        (2.0**1022, False),  # Z + 2^201 2^821 = 2^1023
    ], ids=["inside", "outside"])
    def test_edge_of_the_guard(self, re_z, settled):
        # Outside R_inf (Re w = 20), W + 2 rounds to W = 2^821 = |Im w|, so
        # with rem = 200 the guard reads Z + 2^1022 < 2^1023, Z = |Re z|.
        w = complex(20, 2.0**821)
        assert certified_as_plain(re_z, w) == (-1 if settled else 0)
        assert plain_class(re_z, w) == PixelClass("not_entered")

    @pytest.mark.parametrize("re_z, settled", [
        (2.0**1023 - 2.0**985, True),  # the left side rounds to 2^1024 - 2^984
        (2.0**1023 - 2.0**984, False),  # the left side rounds to 2^1024
    ], ids=["inside", "outside"])
    def test_edge_of_the_bound_in_r_inf(self, re_z, settled):
        # In R_inf, w = 2^821 overflows after j = 203 steps, and fin stands
        # in for the guard for the 200 steps left: with W + 1 rounding to
        # 2^821 it reads (Z + 2^1023)(1 + 2^-40) < DBL_MAX.  Both states
        # fail the guard, and both stay finite for the 200 steps.
        assert certified_as_plain(re_z, 2.0**821) == (-1 if settled else 0)
        assert plain_class(re_z, 2.0**821) == PixelClass("not_entered")


class TestExactRiseInRInf:
    # In R_inf the margin rises by exactly fl(d + 1) per step; the bounds
    # 1 -+ r keep only the rounding term r there.
    D = -154.997  # enters after 156 steps: within 0.003 of an integer

    def test_entry_near_an_integer_distance(self):
        # Re w = 393 as in the far seeds of w = 0.2; 156 e^{-W} > 0.003, so the
        # bounds of R leave it open.
        assert in_r_inf(np.array([393 - self.D + 393]), np.array([393.0]))[0]
        assert certified_as_plain(393 - self.D, 393.0) == 156

    def test_same_margin_outside_r_inf_stays_open(self):
        assert certify(20 - self.D, 20.0, self.D) == 0

    def test_margin_that_rounding_stops_stays_open(self):
        # Past 2^53, fl(d + 1) = d at Re d = 2^53 + 4 (a tie to even), so
        # the margin never reaches 2^53 + 10, though d + 7 rounds above it.
        threshold = 2.0**53 + 10
        z, w = 400.0, 2.0**53 + 404
        assert plain_class(z, w, threshold=threshold) == PixelClass("not_entered")
        assert certified_as_plain(z, w, threshold=threshold) == 0


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

    @pytest.mark.parametrize("rem", [1016, 1017, 5000])
    def test_entry_certified_past_1016_steps_left(self, rem):
        # A seed one step from entry: its components pass the overflow
        # guard for 1,016 steps left but not for 1,017 or 5,000 (where
        # 2^(rem + 1) is +inf).  The entry needs a single step, for which
        # the guard holds, so it is certified as plain iteration gives it.
        assert certified_as_plain(1.0, 11.0, rem=rem) == 1

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


def finish(states, k, budget, threshold=L_THRESHOLD):
    """render._classify on hand-built states (z, w) in R_inf, with margins
    d = w - z, each from its step k0 of k with the budget - k0 steps left:
    (codes, steps, evals), steps counted from step 0."""
    codes, steps, evals = [], [], 0
    for (z, w), k0 in zip(states, k):
        z, w = np.array([complex(z)]), np.array([complex(w)])
        assert in_r_inf(z + w, w)[0]
        c, s, *_, e = render._classify(z, w, budget - k0, threshold)
        codes.append(c[0])
        steps.append(s[0] + k0 if s[0] >= 0 else -1)
        evals += e
    return np.array(codes), np.array(steps), evals


def plain_from(states, k, budget, threshold=L_THRESHOLD):
    """Plain iteration of the same states from their steps k to the end of
    the budget: classify_reference over budget - k steps, with its steps
    shifted by k."""
    codes, steps = [], []
    for (z, w), k0 in zip(states, k):
        c, s = reference_classify(np.array([complex(z)]), np.array([complex(w)]),
                                  budget - k0, threshold)
        codes.append(c[0])
        steps.append(s[0] + k0 if s[0] >= 0 else -1)
    return np.array(codes), np.array(steps)


def finishes_as_plain(states, k, budget, evals=0):
    """The classes of finish on the states, where they are those of plain
    iteration after the given map evaluations: none where the certificate
    settles every state at its step k0."""
    codes, steps, e = finish(states, k, budget)
    expected = plain_from(states, k, budget)
    assert np.array_equal(codes, expected[0])
    assert np.array_equal(steps, expected[1])
    assert e == evals
    return [render._pixel_class(int(c), int(s)) for c, s in zip(codes, steps)]


def margin_state(d):
    """A state of R_inf with margin d, Re w = 400 and Re(z + w) = 800 - d;
    its margin rises by exactly 1 per step."""
    return 400 - d, 400


class TestFinish:
    # Hand-built states of R_inf, each classified by _classify from its
    # step k0 with budget - k0 steps left, as plain iteration classifies
    # them.
    @pytest.mark.parametrize("state, after", [
        # Im w doubles exactly: 2^1023 after 8 steps, the 9th overflows
        ((1000, 400 + 2.0**1015 * 1j), 8),
        # Re w = 2^j 1e300 + 2^j - 1 leaves double range at j = 28
        ((2e300, 1e300), 27),
    ], ids=["im-w", "re-w"])
    def test_overflow_at_the_step_that_overflows(self, state, after):
        k0 = 5
        assert finishes_as_plain([state], [k0], REM) == [
            PixelClass("overflowed", k0 + after)]

    def test_entry_at_the_last_step_and_a_miss_by_a_half(self):
        # margins 1.5 and 0.5 at the last step: the second misses the
        # threshold by 1/2, and would enter one step past the budget.
        k0, budget = 40, 100
        states = [margin_state(1.5 - (budget - k0)), margin_state(0.5 - (budget - k0))]
        assert finishes_as_plain(states, [k0, k0], budget) == [
            PixelClass("entered", budget), PixelClass("not_entered")]

    def test_entry_at_the_first_step(self):
        # margin 0.5, outside L at k0, 1.5 one step later
        assert finishes_as_plain([margin_state(0.5)], [7], REM) == [
            PixelClass("entered", 8)]

    def test_budget_ends_inside_the_finisher(self):
        # Re d = -600 enters after 602 steps and Im w = 2^1000 overflows
        # after 23: neither within the 20 steps left, so both are settled
        # as not_entered at once (plain iteration makes 40 evaluations).
        states = [(1000, 400), (1000, 400 + 2.0**1000 * 1j)]
        assert finishes_as_plain(states, [REM - 20] * 2, REM) == [
            PixelClass("not_entered")] * 2

    def test_states_joining_at_different_steps(self):
        # Re d = -9 reaches the threshold 1 exactly at the last step: on an
        # integer distance the bounds leave it open, and it is iterated.
        states = [(1000, 400 + 2.0**1015 * 1j), margin_state(-30.5),
                  margin_state(1.0 - 10), (1000, 400), (2e300, 1e300)]
        k = [3, 50, REM - 10, 120, 0]
        assert finishes_as_plain(states, k, REM, evals=10) == [
            PixelClass("overflowed", 11), PixelClass("entered", 82),
            PixelClass("not_entered"), PixelClass("not_entered"),
            PixelClass("overflowed", 27)]

    @pytest.mark.parametrize("state, after, evals", [
        # Im w = 2^1014 overflows after j = 10 steps
        ((1000, 400 + 2.0**1014 * 1j), 9, 0),
        # W + 1 = 2^20 + 1/2 passes 2^20, so Re w leaves double range a
        # step before 2^1004 W does; settled once W = 2^21
        ((2.0**20 + 5000, 2.0**20 - 0.5), 1003, 1),
        # Re z overflows before w does, so fin fails at every step
        ((1.7e308, 400), 1011, 1012),
        # Z = 2^1023 - 2^990 and Re w = 2^1023 after 23 steps stay finite
        ((2.0**1023 - 2.0**990, 2.0**1000), 23, 0),
        # j = 1: Re z = 1/2 keeps the state out of L though Re d = 745.5,
        # and the entry one step on, which the bounds give, would need a
        # finite state there
        ((0.5 + 2.0**1022 * 1j, 746 + 2.0**1023 * 1j), 0, 1),
    ], ids=["im-w", "w-plus-one", "z-first", "huge-z", "entry-past-overflow"])
    def test_overflow_at_the_largest_budget(self, state, after, evals):
        assert finishes_as_plain([state], [0], 1016, evals) == [
            PixelClass("overflowed", after)]

    @pytest.mark.parametrize("left, expected", [
        (9, PixelClass("overflowed", REM - 1)),  # at the last step
        (8, PixelClass("not_entered")),  # the state at the budget is finite
    ], ids=["last-step", "past-the-budget"])
    def test_overflow_at_the_end_of_the_budget(self, left, expected):
        # Im w = 2^1015: the state after 9 steps is the first non-finite one
        state = (1000, 400 + 2.0**1015 * 1j)
        assert finishes_as_plain([state], [REM - left], REM) == [expected]

    def test_entry_at_the_last_finite_step_and_a_miss_by_a_half(self):
        # Im w = 2^1015 makes the state after 8 steps the last finite one:
        # Re d = -6.5 enters L there, and Re d = -7.5 misses it by 1/2 and
        # overflows at the step from it.
        states = [(406.5, 400 + 2.0**1015 * 1j), (407.5, 400 + 2.0**1015 * 1j)]
        assert finishes_as_plain(states, [0, 0], REM) == [
            PixelClass("entered", 8), PixelClass("overflowed", 8)]

    def test_classify_hands_off_at_different_steps(self, monkeypatch):
        # Components past the overflow guard: the certificate settles none
        # of them before it lies in R_inf.  Two lie in R_inf at step 0, two
        # reach it at step 5; three overflow, settled there in closed form,
        # and the last enters L at step 12, from a margin on an integer
        # distance to the threshold, certified a step before.
        settled = []

        def spy(*args):
            outcome = certify_(*args)
            if outcome is not None:
                settled.extend([REM - args[3]] * int((outcome != 0).sum()))
            return outcome

        certify_ = render._certify
        monkeypatch.setattr(render, "_certify", spy)
        z = np.array([1000, 1000, 2e300, 30], dtype=np.complex128)
        w = np.array([400 + 2.0**1015 * 1j, 20 + 2.0**1000 * 1j, 1e300,
                      20 + 2.0**990 * 1j])
        codes, steps, *_ = render._classify(z, w, REM, L_THRESHOLD)
        assert sorted(settled) == [0, 0, 5, 11]
        expected = reference_classify(z, w, REM, L_THRESHOLD)
        assert np.array_equal(codes, expected[0])
        assert np.array_equal(steps, expected[1])


def test_main_loop_ends_early(monkeypatch):
    # Not a timing: _certify settles the far seeds of w = 0.2 within the
    # first steps, so the main loop, and with it _certify, stops early
    # (103 calls when the seeds of R_inf were iterated to the budget).
    calls = []
    certify_ = render._certify

    def spy(*args):
        calls.append(args)
        return certify_(*args)

    monkeypatch.setattr(render, "_certify", spy)
    render_slice(SLICES["w=0.2"], 200, workers=2)
    assert len(calls) <= 20
