"""Tests of the benchmark's mpmath reference (bench/reference.py).

Run from the repository root:  python -m pytest bench/tests
"""

import cmath
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference  # noqa: E402
from bakerbench import render_slice  # noqa: E402
from workloads import z_plane_spec  # noqa: E402


def test_margin_counterexample_enters_at_step_89():
    # Pixel (1, 14) of the z-plane slice at w = 0.2.
    p = z_plane_spec(0.2 + 0j).pixel_center(1, 14)
    assert p.z == complex(-4.970703125, -4.716796875)
    tag, step, ill = reference.classify(p.z, p.w, 200)
    assert (tag, step) == ("entered", 89)
    assert ill  # double (z, w) coordinates cannot resolve its margin


def test_agrees_with_program_on_default_slice():
    spec = z_plane_spec(4 + 0j)
    raster = render_slice(spec, 200)
    for j in range(0, 512, 9):
        for i in range(0, 512, 9):
            p = spec.pixel_center(i, j)
            want = raster.pixel(i, j)
            tag, step, ill = reference.classify(p.z, p.w, 200)
            assert (tag, step, ill) == (want.tag, want.step, False), (i, j)


def test_overflow_rule_matches_exp_max():
    # Re(-(z + w)) = 710 > 709 at step 0; 708 is still a finite step.
    assert reference.classify(-710 + 0j, 0j, 5)[:2] == ("overflowed", 0)
    assert reference.classify(-708 + 0j, 0j, 1)[0] != "overflowed"


def test_u_n_at_step_zero_is_the_definition():
    z, w = 2 + 1j, 5 - 3j
    want = -(w.real - z.real) / (abs(w) + abs(z)) - 1
    assert math.isclose(reference.u_n(z, w, 0), want, rel_tol=0, abs_tol=1e-15)


def test_h_residual_vanishes_on_exact_family():
    # h(zeta) = 3/4 exactly where e^{-3 zeta} = 1, zeta != 0.
    for k in range(1, 6):
        assert reference.h_residual(2j * math.pi * k / 3, 0.75) < 1e-14
    assert reference.h_residual(cmath.rect(1, 0.3), 0.75) > 1e-3
