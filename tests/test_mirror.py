"""Slices that are their own mirror, and the symmetries of F behind them.

F has real coefficients, so F(conj z, conj w) = conj F(z, w), and
core.step keeps this bit for bit up to the signs of zero parts.  Where
row h - 1 - j of a slice holds the conjugate centres of row j,
render_slice classifies only the rows j <= h - 1 - j and copies their
codes and steps into the mirror rows.  Every other slice must be
classified row by row, and whichever path a slice takes, its codes,
steps and counters must be those of plain iteration of every pixel
(classify_reference.py).

F is also 2 pi i-periodic in z, and (z - pi i, w + pi i) maps to
F(z, w) + (0, 2 pi i), so in exact arithmetic a slice and its translates
by these shifts have the same classes.  A translated slice is not its own
mirror, so these oracles also compare the two paths.
"""

import math
import warnings

import numpy as np
import pytest
from classify_reference import reference_classify

from bakerbench import render
from bakerbench.cli import main
from bakerbench.core import S_CUT, W_CUT, PlanePoint, margin, step
from bakerbench.domain import L_THRESHOLD
from bakerbench.render import SliceSpec, render_slice

WINDOW = (-5.0, 5.0)
SEED = 20261020


def z_plane(w, v_range=WINDOW, height=64, width=64, base_z=0j, dir_u=1 + 0j, dir_v=1j):
    """The z-plane slice at w, as the CLI's render --w-fixed draws it, with
    the parts that decide the mirror open to change."""
    return SliceSpec(base=PlanePoint(base_z, w), dir_u=PlanePoint(dir_u, 0j),
                     dir_v=PlanePoint(dir_v, 0j), u_range=WINDOW, v_range=v_range,
                     width=width, height=height)


def w_plane(z=0j, side=64, base_w=0j, dir_u=1 + 0j, dir_v=1j):
    return SliceSpec(base=PlanePoint(z, base_w), dir_u=PlanePoint(0j, dir_u),
                     dir_v=PlanePoint(0j, dir_v), u_range=WINDOW, v_range=WINDOW,
                     width=side, height=side)


def reference(spec, budget):
    z, w = (x.ravel() for x in render._pixel_grid(spec, np.arange(spec.height)))
    codes, steps = reference_classify(z, w, budget, L_THRESHOLD)
    return codes.reshape(spec.height, spec.width), steps.reshape(spec.height, spec.width)


@pytest.fixture
def classified(monkeypatch):
    """The seeds that reach render._classify, summed over its calls."""
    seeds = []
    classify = render._classify

    def spy(z, w, *args):
        seeds.append(z.size)
        return classify(z, w, *args)

    monkeypatch.setattr(render, "_classify", spy)
    return seeds


def extreme_states(rng, n):
    """n states of each family (z, w): real parts in +-800 with imaginary
    parts of +-10^x, x in -300..300; the same with imaginary parts in
    +-10 or zero; and states at the underflow cut, Re(z + w) near S_CUT
    and Re w near W_CUT."""
    def signed(x):
        return x * rng.choice([-1.0, 1.0], x.shape)

    def huge_or_tiny():
        return signed(10.0 ** rng.uniform(-300, 300, n))

    re = [rng.uniform(-800, 800, n) for _ in range(4)]
    im = [huge_or_tiny(), huge_or_tiny(), rng.uniform(-10, 10, n),
          np.where(rng.random(n) < 0.5, 0.0, huge_or_tiny())]
    re_w = np.concatenate([re[1], re[3], rng.uniform(W_CUT - 1, W_CUT + 1, n)])
    re_s = rng.uniform(S_CUT - 2, S_CUT + 2, n)
    w = re_w + 1j * np.concatenate([im[1], im[2], huge_or_tiny()])
    z = np.concatenate([re[0], re[2], re_s - re_w[2 * n:]])
    z = z + 1j * np.concatenate([im[0], im[3], rng.uniform(-10, 10, n)])
    return z, w


class TestConjugationPremise:
    def test_exp_is_conjugation_equivariant_bit_for_bit(self):
        z, w = extreme_states(np.random.default_rng(SEED), 50_000)
        x = np.concatenate([-(z + w), -2 * w])
        with np.errstate(all="ignore"):
            e, e_conj = np.exp(x), np.exp(x.conj())
        assert (e == 0).any() and np.isinf(e).any()
        assert e_conj.real.tobytes() == e.real.tobytes()
        assert e_conj.imag.tobytes() == (-e.imag).tobytes()

    def test_step_is_conjugation_equivariant(self):
        z, w = extreme_states(np.random.default_rng(SEED + 1), 50_000)
        d = margin(z, w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            images = step(z, w, d)
            mirrored = step(z.conj(), w.conj(), d.conj())
        ok = images[3]
        assert np.array_equal(mirrored[3], ok)
        assert 0 < ok.sum() < ok.size
        for a, b in zip(mirrored[:3], images[:3], strict=True):
            # == on complex values: equal values, the signs of zeros aside
            assert np.array_equal(a[ok], b[ok].conj())


# The benchmark's slices at its size: the default (w = 4), w = 0.2 and
# the w-plane at z = 0, 512^2 over the window.
BENCHMARK_SLICES = {
    "default": z_plane(4 + 0j, height=512, width=512),
    "w=0.2": z_plane(0.2 + 0j, height=512, width=512),
    "w-plane": w_plane(side=512),
}


def classifies_as_plain_iteration(spec, budget, classified, rows):
    """Renders the slice, checks that it classified the given number of rows
    and that its codes and steps are those of plain iteration, and returns
    the render."""
    r = render_slice(spec, budget, workers=2)
    assert sum(classified) == rows * spec.width
    codes, steps = reference(spec, budget)
    assert np.array_equal(r.codes, codes)
    assert np.array_equal(r.steps, steps)
    return r


class TestMirroredPath:
    @pytest.mark.parametrize("name", BENCHMARK_SLICES)
    def test_benchmark_slices_classify_half_their_pixels(self, name, classified):
        render_slice(BENCHMARK_SLICES[name], 200, workers=2)
        assert sum(classified) == 512 * 256

    def test_cli_render_classifies_half_its_pixels(self, classified, tmp_path):
        # the default slice, w = 4 over (-5, 5)^2 at 512^2
        assert main(["render", "--out", str(tmp_path / "basin.ppm")]) == 0
        assert sum(classified) == 512 * 256

    # The window (-63/16, 63/16) puts the centres of 63 rows at multiples of
    # 1/8, all exact, so the middle row is real and classified alone.
    @pytest.mark.parametrize("spec", [
        z_plane(0.2 + 0j), z_plane(0.2 + 0j, (-3.9375, 3.9375), 63),
        w_plane(), z_plane(4 + 0j, (-3.9375, 3.9375), 63),
    ], ids=["w=0.2", "w=0.2-odd", "w-plane", "default-odd"])
    @pytest.mark.parametrize("budget", [200, 1000])
    def test_counters_equal_those_of_every_row(self, spec, budget, classified, monkeypatch):
        mirrored = render_slice(spec, budget, workers=2)
        assert sum(classified) == (spec.height + 1) // 2 * spec.width
        monkeypatch.setattr(render, "_own_mirror", lambda spec: False)
        every_row = render_slice(spec, budget, workers=2)
        assert sum(classified) == (spec.height + 1) // 2 * spec.width + spec.height * spec.width
        for name in ("fast_forwarded", "certified_entries", "map_evals"):
            assert getattr(mirrored, name) == getattr(every_row, name), name
        assert np.array_equal(mirrored.codes, every_row.codes)
        assert np.array_equal(mirrored.steps, every_row.steps)
        if spec.base.w != 4:
            assert mirrored.fast_forwarded > 0 and mirrored.certified_entries > 0

    # Over (-5, 5) the v axis mirrors at every height: at 63 rows the middle
    # row is real and classified alone, and 500 rows classify 250.
    @pytest.mark.parametrize("budget", [200, 1000])
    def test_odd_height_classifies_half_and_the_middle_row(self, budget, classified):
        classifies_as_plain_iteration(z_plane(0.2 + 0j, height=63), budget, classified, 32)

    def test_500_rows_classify_250(self, classified):
        spec = z_plane(0.2 + 0j, height=500, width=512)
        r = classifies_as_plain_iteration(spec, 200, classified, 250)
        # the counters of classifying every row
        assert (r.fast_forwarded, r.certified_entries, r.map_evals) == (22790, 81674, 687528)

    # -0 parts leave the slice its own mirror: its centres and their
    # conjugates differ in the signs of zero parts only, which no test reads.
    @pytest.mark.parametrize("spec", [
        z_plane(complex(0.2, -0.0)),
        z_plane(complex(-0.0, -0.0)),
        z_plane(0.2 + 0j, base_z=complex(-0.0, -0.0), dir_u=complex(1.0, -0.0),
                dir_v=complex(-0.0, 1.0)),
        w_plane(complex(-0.0, -0.0), base_w=complex(-0.0, -0.0),
                dir_u=complex(1.0, -0.0), dir_v=complex(-0.0, 1.0)),
    ], ids=["w=0.2-0j", "w=-0-0j", "z-parts", "w-plane"])
    @pytest.mark.parametrize("budget", [200, 1000])
    def test_signed_zero_parts_match_plain_iteration(self, spec, budget, classified):
        r = render_slice(spec, budget, workers=2)
        assert sum(classified) == spec.height // 2 * spec.width
        codes, steps = reference(spec, budget)
        assert np.array_equal(r.codes, codes)
        assert np.array_equal(r.steps, steps)


# Slices that are not their own mirror, each failing one part of
# render._own_mirror's test: their codes are not symmetric under the row reversal, so a
# classifier that mirrored them would not match plain iteration.
NOT_MIRRORS = {
    "v in (-5, 4)": z_plane(0.2 + 0j, (-5.0, 4.0)),
    "w=1+3i": z_plane(1 + 3j),
    "Im base.z": z_plane(0.2 + 0j, base_z=0.5j),
    "Im dir_u": z_plane(0.2 + 0j, dir_u=1 + 0.25j),
    "Re dir_v": z_plane(0.2 + 0j, dir_v=0.25 + 1j),
    "w-plane at z=0.5i": w_plane(0.5j),
    "w-plane, Im dir_u": w_plane(dir_u=1 + 0.25j),
}


class TestNotMirrored:
    @pytest.mark.parametrize("budget", [200, 1000])
    @pytest.mark.parametrize("name", NOT_MIRRORS)
    def test_every_row_classified_as_plain_iteration(self, name, budget, classified):
        spec = NOT_MIRRORS[name]
        codes = classifies_as_plain_iteration(spec, budget, classified, spec.height).codes
        assert not np.array_equal(codes, codes[::-1])


PI = math.pi
SHIFTS = {"+2pi i": (2j * PI, 0j), "-2pi i": (-2j * PI, 0j), "(-pi i, +pi i)": (-1j * PI, 1j * PI)}


class TestPeriods:
    @pytest.mark.parametrize("shift", SHIFTS)
    @pytest.mark.parametrize("budget", [200, 1000])
    @pytest.mark.parametrize("w", [0.2 + 0j, 1 + 3j, 4 + 0j])
    def test_translated_slice_has_the_same_classes(self, w, budget, shift, classified):
        dz, dw = SHIFTS[shift]
        r = render_slice(z_plane(w, height=128, width=128), budget, workers=2)
        moved = render_slice(z_plane(w + dw, height=128, width=128, base_z=dz),
                             budget, workers=2)
        # the translate is classified row by row, a real w's slice by halves
        assert sum(classified) == ((64 if w.imag == 0 else 128) + 128) * 128
        assert np.array_equal(moved.codes, r.codes)
        assert np.array_equal(moved.steps, r.steps)
