import numpy as np
import pytest

from bakerbench.core import OverflowSignal, PlanePoint
from bakerbench.psh import (
    InsufficientSamples,
    ProbeSpec,
    submean_check,
    u_n,
    u_value,
)


class TestUN:
    def test_zero_steps(self):
        assert u_n(PlanePoint(1 + 0j, 3 + 0j), 0) == -1.5

    def test_zero_numerator(self):
        assert u_n(PlanePoint(1 + 0j, 1 + 0j), 0) == -1.0

    def test_approaches_minus_one_on_L(self):
        # margin grows like n while |w|+|z| grows like 2^n, so the
        # fraction at n = 40 is ~ 40/2^44 (oracle: -3.8e-12)
        assert abs(u_n(PlanePoint(2 + 0j, 4 + 0j), 40) + 1.0) <= 1e-9

    def test_range(self):
        for seed in (PlanePoint(1 + 0j, 0j), PlanePoint(-1 + 2j, 0.5 - 3j)):
            for n in range(6):
                assert -2.0 <= u_n(seed, n) <= 0.0

    def test_undefined_at_double_zero(self):
        with pytest.raises(ValueError):
            u_n(PlanePoint(0j, 0j), 0)

    def test_overflow_raises(self):
        with pytest.raises(OverflowSignal):
            u_n(PlanePoint(-400 + 0j, -400 + 0j), 2)


class TestUValue:
    def test_modulus_beyond_double_range(self):
        # |w| > DBL_MAX at a finite w; scaling by a power of 2 is exact
        z = np.array([3e307 - 1e307j])
        w = np.array([1.5e308 + 1e308j])
        assert u_value(z, w) == u_value(z * 2.0**-1000, w * 2.0**-1000)

    def test_margin_beyond_double_range(self):
        u = u_value(np.array([-1e308 + 0j]), np.array([1e308 + 0j]))
        assert u == -2.0

    def test_undefined_at_double_zero(self):
        assert np.isnan(u_value(np.array([0j]), np.array([0j])))


def probe(radius=0.01, samples=64):
    return ProbeSpec(
        center=PlanePoint(2 + 0j, 4 + 0j),
        direction=PlanePoint(1 + 0j, 0j),
        radius=radius,
        samples=samples,
    )


class TestProbeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            probe(radius=0.0)
        with pytest.raises(ValueError):
            probe(samples=4)
        with pytest.raises(ValueError):
            ProbeSpec(PlanePoint(0j, 0j), PlanePoint(0j, 0j), 1.0, 16)


class TestQuadratureOracles:
    """Validate the circle quadrature through the test seam, independently
    of the dynamics."""

    @pytest.mark.parametrize("radius", [1e-3, 1e-2, 1e-1, 1.0])
    @pytest.mark.parametrize("samples", [16, 64, 256])
    def test_harmonic_function_has_zero_deficit(self, radius, samples):
        rep = submean_check(probe(radius, samples), 0, func=lambda lam: lam.real)
        assert abs(rep.deficit) <= 1e-14

    @pytest.mark.parametrize("radius", [1e-3, 1e-2, 1e-1, 1.0])
    @pytest.mark.parametrize("samples", [16, 64, 256])
    def test_modulus_squared_deficit_is_radius_squared(self, radius, samples):
        rep = submean_check(probe(radius, samples), 0,
                            func=lambda lam: abs(lam) ** 2)
        assert abs(rep.deficit - radius**2) <= 1e-12


class TestSubmeanOnDynamics:
    def test_u5_deficit_non_negative_within_tolerance(self):
        rep = submean_check(probe(), 5)
        assert rep.valid_samples == 64
        assert rep.deficit >= -1e-6

    def test_dense_sampling_agrees(self):
        coarse = submean_check(probe(samples=64), 5)
        dense = submean_check(probe(samples=4096), 5)
        assert abs(coarse.circle_mean - dense.circle_mean) < 1e-9

    def test_monotone_refinement(self):
        means = [submean_check(probe(samples=s), 5).circle_mean
                 for s in (64, 128, 256)]
        assert abs(means[1] - means[0]) < 1e-6
        assert abs(means[2] - means[1]) < 1e-6

    def test_deficit_bookkeeping(self):
        rep = submean_check(probe(), 3)
        assert rep.deficit == rep.circle_mean - rep.center_value

    def test_insufficient_samples(self):
        def flaky(lam: np.ndarray) -> np.ndarray:
            # NaN marks a simulated blow-up at every circle point
            return np.where(lam != 0, np.nan, 0.0)

        with pytest.raises(InsufficientSamples):
            submean_check(probe(samples=16), 0, func=flaky)

    def test_partial_exclusion_counted(self):
        def half(lam: np.ndarray) -> np.ndarray:
            return np.where(lam.imag < 0, np.nan, 1.0)

        rep = submean_check(probe(samples=16), 0, func=half)
        assert rep.valid_samples == 9  # angles 0..pi inclusive
        assert rep.circle_mean == 1.0

    def test_undefined_circle_point_excluded(self):
        # The circle point lambda = 0.25 is (0, 0), where u_0 is undefined;
        # it is excluded like an overflowing one.
        spec = ProbeSpec(PlanePoint(-0.25 + 0j, 0j), PlanePoint(1 + 0j, 0j), 0.25, 8)
        rep = submean_check(spec, 0)
        assert rep.valid_samples == 7
        assert rep.center_value == -2.0
