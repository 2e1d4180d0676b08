import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakerbench.core import PlanePoint, apply_f
from bakerbench.domain import (
    MARGIN_STEP,
    growth,
    in_L,
    invariance,
    ratio_profile,
    sup_alpha,
    telescoping_residuals,
)


class TestMembership:
    def test_inside(self):
        assert in_L(PlanePoint(2 + 7j, 4 + 0j), 1.0)

    def test_strict_on_margin(self):
        assert not in_L(PlanePoint(2 + 0j, 3 + 0j), 1.0)

    def test_re_z_condition(self):
        assert not in_L(PlanePoint(0.5 + 0j, 10 + 0j), 1.0)

    def test_sup_alpha_values(self):
        assert sup_alpha(PlanePoint(2 + 0j, 4 + 0j)) == 2.0
        assert sup_alpha(PlanePoint(2 + 0j, 2.5 + 0j)) == 0.5
        assert sup_alpha(PlanePoint(0 + 0j, 5 + 0j)) is None

    def test_in_L(self):
        assert in_L(PlanePoint(2 + 0j, 4 + 0j))
        assert not in_L(PlanePoint(2 + 0j, 2.5 + 0j))
        assert not in_L(PlanePoint(0 + 0j, 5 + 0j))

    def test_in_L_takes_any_threshold(self):
        # in_L compares the gap with any threshold, not only alpha > 0.
        assert in_L(PlanePoint(2 + 0j, 1.5 + 0j), -1.0)
        assert not in_L(PlanePoint(2 + 0j, 2 + 0j), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1.001, 50), st.floats(-100, 100),
        st.floats(0.001, 60), st.floats(-100, 100),
        st.floats(0.001, 10), st.floats(0.001, 10),
    )
    def test_monotone_in_alpha(self, rez, imz, gap, imw, a1, a2):
        p = PlanePoint(complex(rez, imz), complex(rez + gap, imw))
        lo, hi = sorted((a1, a2))
        if in_L(p, hi):
            assert in_L(p, lo)


def invariance_of(seed, alpha, n):
    """invariance on the one seed: (first step outside L_alpha or -1,
    least margin minus alpha)."""
    first, min_margin = invariance(*seed.arrays(), np.array([alpha]), n)
    return int(first[0]), float(min_margin[0])


class TestInvariance:
    def test_basic(self):
        first, min_margin = invariance_of(PlanePoint(2 + 0j, 4 + 0j), 1.0, 30)
        assert first == -1
        assert min_margin > 0

    def test_zero_steps(self):
        first, min_margin = invariance_of(PlanePoint(2 + 0j, 4 + 0j), 1.0, 0)
        assert first == -1
        assert min_margin == 1.0

    def test_wide_gap_seed(self):
        first, _ = invariance_of(PlanePoint(1.5 + 0j, 30 + 0j), 5.0, 20)
        assert first == -1


def growth_of(seed, n):
    """growth on the one seed: the least w and z slacks."""
    min_w, min_z = growth(*seed.arrays(), n)
    return float(min_w[0]), float(min_z[0])


class TestGrowth:
    def test_first_step_slack(self):
        min_w, min_z = growth_of(PlanePoint(2 + 0j, 4 + 0j), 1)
        # Re w_1 = e^-8 + 9, slack = e^-8 + 0.5
        assert min_w > 0 and min_z > 0
        assert abs(min_w - (math.exp(-8) + 0.5)) < 1e-14
        assert abs(min_z - (math.exp(-6) + 3.5)) < 1e-14

    def test_thirty_steps(self):
        min_w, min_z = growth_of(PlanePoint(2 + 0j, 4 + 0j), 30)
        assert min_w > 0 and min_z > 0

    def test_near_corner_seed(self):
        min_w, min_z = growth_of(PlanePoint(1.0001 + 0j, 2.5 + 0j), 10)
        assert min_w > 0 and min_z > 0


def residual_of(seed, n):
    """telescoping_residuals on the one seed."""
    return float(telescoping_residuals(*seed.arrays(), n)[0])


class TestTelescoping:
    def test_single_step(self):
        assert residual_of(PlanePoint(2 + 0j, 4 + 0j), 1) <= 1e-12

    def test_twenty_steps(self):
        assert residual_of(PlanePoint(2 + 0j, 4 + 0j), 20) <= 1e-9
        assert residual_of(PlanePoint(3 + 0j, 5 + 2j), 20) <= 1e-9

    def test_thirty_steps_rounding_scale(self):
        # At 30 steps the coordinates reach ~1e10; the residual stays at
        # the rounding scale only because the orbit carries w - z itself
        # instead of recomputing it from those coordinates.
        assert residual_of(PlanePoint(2 + 0j, 4 + 0j), 30) <= 1e-6


class TestMarginGrowth:
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(1.001, 30), st.floats(-50, 50),
        st.floats(1.001, 20), st.floats(-50, 50),
    )
    def test_stepwise_lower_bound(self, rez, imz, gap, imw):
        seed = PlanePoint(complex(rez, imz), complex(rez + gap, imw))
        margin0 = seed.w.real - seed.z.real
        p = seed
        for k in range(1, 16):
            p = apply_f(p)
            assert p.w.real - p.z.real >= margin0 + k * MARGIN_STEP


class TestRatioProfile:
    def test_seed_ratios(self):
        prof = ratio_profile(PlanePoint(2 + 0j, 4 + 0j), 5)
        k0, z_over_w, w_over_z = prof.entries[0]
        assert k0 == 0
        assert z_over_w == 0.5
        assert w_over_z == 2.0

    def test_stabilizes(self):
        for seed in (PlanePoint(2 + 0j, 4 + 0j), PlanePoint(1.5 + 0j, 20 + 0j)):
            prof = ratio_profile(seed, 40)
            assert prof.stabilization_index is not None
            assert prof.stabilized_z_over_w is not None

    def test_requires_L(self):
        with pytest.raises(ValueError):
            ratio_profile(PlanePoint(0j, 0j), 10)
