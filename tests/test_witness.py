import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from bakerbench import witness
from bakerbench.cli import main
from bakerbench.core import PlanePoint
from bakerbench.witness import (
    DEFAULT_FIRST_BRANCH,
    SERIES_CUTOFF,
    ProjectiveDirection,
    SolverFailure,
    _solve_branch,
    branch_range,
    find_witnesses,
    first_coord_identity_residual,
    h_eval,
    image_direction,
)

TAU = 2 * math.pi

# (e^-3 + 2)/4, frozen from a 60-digit evaluation
H_AT_ONE = 0.512446767091966


class TestHEval:
    def test_at_one(self):
        assert abs(h_eval(1 + 0j) - H_AT_ONE) < 1e-15

    def test_exact_three_quarters_point(self):
        # e^{-3 zeta} = 1 at zeta = 2 pi i / 3, so h = 3/4
        assert abs(h_eval(TAU * 1j / 3) - 0.75) < 1e-14

    def test_removable_singularity(self):
        assert h_eval(0j) == 0j

    def test_series_direct_agreement_on_cutoff_circle(self):
        for k in range(32):
            zeta = SERIES_CUTOFF * (1 - 1e-12) * cmath.exp(1j * TAU * k / 32)
            series = h_eval(zeta)
            direct = (cmath.exp(-3 * zeta) + 3 * zeta - 1) / (4 * zeta)
            assert abs(series - direct) < 1e-10

    def test_matches_high_precision_near_zero(self):
        mp.mp.dps = 40
        for r in (1e-4, 5e-4):
            zeta = complex(r, r)
            z = mp.mpc(zeta)
            exact = (mp.exp(-3 * z) + 3 * z - 1) / (4 * z)
            assert abs(h_eval(zeta) - complex(exact)) < 1e-12

    def test_series_within_3e_16_of_600_bit_h(self):
        # 16 moduli from 1e-60 to just below the cutoff, 32 directions each.
        # The series branch uses only + and *, so the bound holds without libm.
        zetas = [complex(r * cmath.exp(1j * TAU * k / 32))
                 for r in np.geomspace(1e-60, SERIES_CUTOFF * (1 - 1e-12), 16)
                 for k in range(32)]
        worst = 0.0
        with mp.workprec(600):
            for zeta in zetas:
                z = mp.mpc(zeta)
                exact = (mp.exp(-3 * z) + 3 * z - 1) / (4 * z)
                worst = max(worst, float(abs(h_eval(zeta) - exact) / abs(exact)))
        assert worst < 3e-16, worst


class TestIdentity:
    def test_simple_points(self):
        assert first_coord_identity_residual(1 + 0j) <= 1e-13
        assert first_coord_identity_residual(5 + 2j) <= 1e-13

    def test_negative_real_axis(self):
        assert first_coord_identity_residual(-10 + 0j) <= 1e-10

    def test_random_sample(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(200):
            r = 50 * math.sqrt(rng.uniform())
            th = rng.uniform(0, TAU)
            zeta = complex(r * math.cos(th), r * math.sin(th))
            if zeta == 0:
                continue
            assert first_coord_identity_residual(zeta) <= 1e-10

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            first_coord_identity_residual(0j)


def winding_number(a: complex, center: complex, radius: float = 0.5) -> int:
    """Root count of g(z) = e^{-3z} - a z - 1 inside the circle, via the
    argument principle with high-precision quadrature.  Independent of the
    branch solver under test."""
    mp.mp.dps = 30
    a = mp.mpc(a)
    total = mp.mpc(0)
    N = 512
    for j in range(N):
        th = 2 * mp.pi * j / N
        pt = mp.mpc(center) + radius * mp.exp(1j * th)
        g = mp.exp(-3 * pt) - a * pt - 1
        gp = -3 * mp.exp(-3 * pt) - a
        total += gp / g * (radius * 1j * mp.exp(1j * th)) * (2 * mp.pi / N)
    return int(mp.nint((total / (2j * mp.pi)).real))


class TestFindWitnesses:
    def test_exact_family(self):
        seq = find_witnesses(0.75 + 0j, 3)
        expected = [TAU * 1j / 3, TAU * 2j / 3, TAU * 1j]
        for got, want in zip(seq.zetas, expected):
            assert abs(got - want) < 1e-15
        assert all(r < 1e-12 for r in seq.residuals)

    def test_exact_family_deep(self):
        seq = find_witnesses(0.75 + 0j, 20)
        assert all(r < 1e-12 for r in seq.residuals)
        assert all(b > a for a, b in zip(seq.moduli, seq.moduli[1:]))

    @pytest.mark.parametrize("target", [0j, 1 + 0j, 2 + 1j])
    def test_general_targets(self, target):
        seq = find_witnesses(target, 5)
        assert len(seq.zetas) == 5
        assert all(r < 1e-8 for r in seq.residuals)
        assert all(b > a for a, b in zip(seq.moduli, seq.moduli[1:]))

    @pytest.mark.parametrize("target", [0j, 1 + 0j])
    def test_roots_localized_independently(self, target):
        seq = find_witnesses(target, 2)
        a = 4 * target - 3
        for zeta in seq.zetas:
            assert winding_number(a, zeta) == 1

    def test_witnesses_match_lambert_w(self):
        """zeta solves e^{-3 zeta} = a zeta + 1, a = 4c - 3; with
        v = 3(a zeta + 1)/a this is v e^v = x = (3/a) e^{3/a}, so
        zeta = W_j(x)/3 - 1/a on a branch j of Lambert W.  Branch k of the
        solver's logarithm is W's branch -k or -k - 1."""
        rng = np.random.default_rng(20261018)
        r, th = rng.uniform(0.2, 4.0, 42), rng.uniform(0.0, TAU, 42)
        with mp.workdps(40):
            for c in (r * np.exp(1j * th)).tolist():
                seq = find_witnesses(c, 8)
                a = 4 * mp.mpc(c) - 3
                x = mp.exp(mp.log(3 / a) + 3 / a)
                for k, zeta in zip(seq.branches, seq.zetas):
                    err = min(abs(zeta - ref) / abs(ref) for ref in
                              (mp.lambertw(x, j) / 3 - 1 / a for j in (-k, -k - 1)))
                    assert err <= 1e-14, (c, k, zeta)

    def test_root_whose_h_overflows_is_a_failed_branch(self, monkeypatch, capsys):
        # No real input is known to give a root that passes _solve_branch
        # and overflows h_eval; h(-300) needs e^900, so a stand-in gives one.
        solve = witness._solve_branch
        first = DEFAULT_FIRST_BRANCH
        monkeypatch.setattr(witness, "_solve_branch",
                            lambda a, k: -300 + 0j if k == first else solve(a, k))
        seq = find_witnesses(1 + 0j, 2)
        assert seq.failed_branches == (first,)
        assert seq.branches == (first + 1, first + 2)
        assert main(["witness", "--target", "1,0", "--count", "2"]) == 0
        assert f"failed_branches={first}" in capsys.readouterr().out

    def test_count_validation(self):
        with pytest.raises(ValueError):
            find_witnesses(1 + 0j, 0)

    @pytest.mark.parametrize("target, m, first", [
        (0.75 + 0j, 4, 3), (1 + 0j, 2, -2), (2 + 1j, 5, 3), (0j, 3, 10)])
    def test_branches_tried_lie_in_branch_range(self, target, m, first):
        seq = find_witnesses(target, m, first_branch=first)
        span = branch_range(target, m, first)
        assert set(seq.branches + seq.failed_branches) <= set(span)
        assert seq.branches[0] == span[0] or seq.failed_branches[0] == span[0]


class TestSolverFailureExits:
    """Inputs on which _solve_branch gives up, each at its own guard.
    Without the guard the call raises, or returns a root that is not
    finite."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_logarithm_of_zero(self, k):
        # a = -1/zeta_0 puts a zeta + 1 = 0 at the start zeta_0 of branch k
        a = -1 / complex(0, -TAU * k / 3)
        assert _solve_branch(a, k) is None
        assert find_witnesses((a + 3) / 4, 1, first_branch=k).failed_branches == (k,)

    def test_fixed_point_leaves_double_range(self):
        # a zeta_0 overflows, so Log(a zeta_0 + 1) has an infinite real part
        assert _solve_branch(1e308 + 0j, 3) is None

    def test_newton_exponential_overflows(self):
        a = complex(-1.2782097973924834e305, 3.592678685396336e305)
        assert _solve_branch(a, -4) is None
        with pytest.raises(SolverFailure):
            find_witnesses((a + 3) / 4, 1, first_branch=-4)

    def test_newton_at_a_double_root(self):
        # c = 0, a = -3: zeta = 0 is a double root of e^{-3 zeta} + 3 zeta - 1,
        # branch 0 starts on it and g'(0) = 0
        assert _solve_branch(-3 + 0j, 0) is None
        assert find_witnesses(0j, 1, first_branch=0).failed_branches == (0,)


class TestImageDirection:
    def test_origin(self):
        d = image_direction(0j)
        assert not d.degenerate
        assert d.p == 0.5
        assert d.q == 1.0

    def test_at_one(self):
        d = image_direction(1 + 0j)
        # F(1,2) = (e^-3 + 3, e^-4 + 5); second coordinate dominates
        assert abs(d.q - 1.0) < 1e-15
        assert abs(d.p - 0.6077312165727413) < 1e-14

    def test_normalization(self):
        for zeta in (3 + 1j, -2 + 5j, 10j):
            d = image_direction(zeta)
            assert abs(max(abs(d.p), abs(d.q)) - 1.0) < 1e-12

    def test_first_coordinate_identity_point(self):
        zeta = TAU * 1j / 3
        from bakerbench.core import PlanePoint, apply_f

        img = apply_f(PlanePoint(zeta, 2 * zeta))
        assert abs(img.z - (3 * zeta + 1)) < 1e-12

    def test_degenerate_on_zero_image(self, monkeypatch):
        # No real zeta is known to map to (0, 0); a stand-in for F gives it.
        monkeypatch.setattr(witness, "apply_f", lambda p: PlanePoint(0j, 0j))
        assert image_direction(1 + 0j) == ProjectiveDirection(0j, 0j, degenerate=True)

    def test_degenerate_on_overflow(self):
        d = image_direction(-300 + 0j)
        assert d.degenerate
