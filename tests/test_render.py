import cmath
import hashlib
import itertools
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from csv_reference import reference_grid_csv

from bakerbench import render
from bakerbench.core import PlanePoint, apply_f, step
from bakerbench.domain import in_L
from bakerbench.render import (
    PaletteSpec,
    PixelClass,
    SliceSpec,
    classify_point,
    grid_csv_blocks,
    render_slice,
    write_ppm,
)

DBL_MAX = sys.float_info.max


def single_pixel_spec(z, w):
    return SliceSpec(
        base=PlanePoint(z, w),
        dir_u=PlanePoint(1 + 0j, 0j),
        dir_v=PlanePoint(1j, 0j),
        u_range=(0.0, 0.0),
        v_range=(0.0, 0.0),
        width=1,
        height=1,
    )


class TestClassifyPoint:
    def test_already_inside(self):
        assert classify_point(PlanePoint(2 + 0j, 4 + 0j), 1) == \
            PixelClass("entered", 0)

    def test_origin_enters_at_step_two(self):
        # (0,0) -> (1,2): Re z = 1 fails the strict bound; next image
        # (e^-3 + 3, e^-4 + 5) is inside (oracle-checked orbit)
        assert classify_point(PlanePoint(0j, 0j), 3) == PixelClass("entered", 2)
        assert classify_point(PlanePoint(0j, 0j), 1) == PixelClass("not_entered")

    def test_immediate_overflow(self):
        pc = classify_point(PlanePoint(-400 + 0j, -400 + 0j), 1)
        assert pc == PixelClass("overflowed", 0)

    def test_entry_read_from_carried_margin(self):
        # w_k - z_k rounds to 0 from k = 58 on, while the carried margin
        # enters L at step 89, as a 400-bit orbit does
        # (tests/test_margin_reference.py).
        p = PlanePoint(-4.970703125 - 4.716796875j, 0.2 + 0j)
        assert classify_point(p, 200) == PixelClass("entered", 89)

    def test_budget_required(self):
        with pytest.raises(ValueError):
            classify_point(PlanePoint(0j, 0j), 0)

    def test_absorption_consistency(self):
        p = PlanePoint(0j, 0j)
        budget = 10
        pc = classify_point(p, budget)
        assert pc.tag == "entered" and pc.step >= 1
        shifted = classify_point(apply_f(p), budget - 1)
        assert shifted == PixelClass("entered", pc.step - 1)

    def test_budget_monotone(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(100):
            p = PlanePoint(
                complex(rng.uniform(-4, 4), rng.uniform(-4, 4)),
                complex(rng.uniform(-4, 4), rng.uniform(-4, 4)),
            )
            small = classify_point(p, 10)
            large = classify_point(p, 40)
            if small.tag != "not_entered":
                assert large == small
            else:
                assert large.tag != "overflowed" or large.step >= 10


def wedge_slice(width=4, height=4):
    return SliceSpec(
        base=PlanePoint(0j, 4 + 0j),
        dir_u=PlanePoint(1 + 0j, 0j),
        dir_v=PlanePoint(1j, 0j),
        u_range=(1.5, 3.0),
        v_range=(0.0, 0.0),
        width=width,
        height=height,
    )


class TestSliceSpec:
    @pytest.mark.parametrize("dir_u, u_range", [
        (PlanePoint(1e300 + 0j, 0j), (-1e10, 1e10)),  # u * dir_u overflows
        (PlanePoint(0j, 2.2e300j), (0.0, 1e8)),  # in w, in the last column only
        (PlanePoint(2.2e300 + 0j, 0j), (-1e8, 0.0)),  # in z, in the first column only
    ])
    def test_non_finite_pixel_centre_rejected(self, dir_u, u_range):
        with pytest.raises(ValueError, match="non-finite centre"):
            SliceSpec(base=PlanePoint(0j, 4 + 0j), dir_u=dir_u,
                      dir_v=PlanePoint(1j, 0j), u_range=u_range,
                      v_range=(-1.0, 1.0), width=4, height=2)

    @pytest.mark.parametrize("size", [0, 2**63, 2**64, 2**64 + 1, 10**400],
                             ids=["0", "2^63", "2^64", "2^64+1", "10^400"])
    @pytest.mark.parametrize("axis", ["width", "height"])
    def test_size_outside_numpy_index_range_rejected(self, axis, size):
        sizes = {"width": 1, "height": 1, axis: size}
        with pytest.raises(ValueError, match=r"width and height must lie in 1\.\."):
            SliceSpec(base=PlanePoint(0j, 4 + 0j), dir_u=PlanePoint(1 + 0j, 0j),
                      dir_v=PlanePoint(1j, 0j), u_range=(-1.0, 1.0),
                      v_range=(-1.0, 1.0), **sizes)

    def test_largest_size_accepted(self):
        spec = SliceSpec(base=PlanePoint(0j, 4 + 0j), dir_u=PlanePoint(1 + 0j, 0j),
                         dir_v=PlanePoint(1j, 0j), u_range=(-1.0, 1.0),
                         v_range=(-1.0, 1.0), width=2**63 - 1, height=1)
        assert spec.pixel_center(2**63 - 2, 0).z.real == 1.0

    @pytest.mark.parametrize("name", ["dir_u", "dir_v"])
    def test_zero_direction_rejected(self, name):
        dirs = {"dir_u": PlanePoint(1 + 0j, 0j), "dir_v": PlanePoint(1j, 0j),
                name: PlanePoint(-0.0 + 0j, 0j)}
        with pytest.raises(ValueError, match=f"{name} must be nonzero"):
            SliceSpec(base=PlanePoint(0j, 4 + 0j), u_range=(-1.0, 1.0),
                      v_range=(-1.0, 1.0), width=2, height=2, **dirs)

    def test_wide_finite_slice_accepted(self):
        spec = SliceSpec(base=PlanePoint(0j, 4 + 0j), dir_u=PlanePoint(1 + 0j, 0j),
                         dir_v=PlanePoint(1j, 0j), u_range=(-2e307, 2e307),
                         v_range=(-2e307, 2e307), width=4, height=2)
        z, w = render._pixel_grid(spec, np.arange(2))
        assert np.isfinite(z).all() and np.isfinite(w).all()

    def test_centres_past_an_overflowing_product_accepted(self):
        # hi - lo = 1.6e308 overflows; _axis forms hi/2 - lo/2 instead, and
        # the centres stay finite
        spec = SliceSpec(base=PlanePoint(0j, 4 + 0j), dir_u=PlanePoint(1 + 0j, 0j),
                         dir_v=PlanePoint(1j, 0j), u_range=(-8e307, 8e307),
                         v_range=(-1.0, 1.0), width=4, height=2)
        z, w = render._pixel_grid(spec, np.arange(2))
        assert np.isfinite(z).all() and np.isfinite(w).all()
        assert z[0].real.tolist() == pytest.approx([-6e307, -2e307, 2e307, 6e307], rel=1e-15)
        assert spec.pixel_center(3, 1) == PlanePoint(complex(z[1, 3]), complex(w[1, 3]))

    @pytest.mark.parametrize("hi", [5.0, 2.0, 3.0, 1.5, 0.7])
    def test_axis_antisymmetric_at_every_height(self, hi):
        for n in range(1, 2049):
            v = render._axis((-hi, hi), n, np.arange(n))
            assert (v == -v[::-1]).all(), n

    @pytest.mark.parametrize("n", [5, 7, 1080])
    @pytest.mark.parametrize("u_range", [(-5.3, 4.1), (0.0, 3e-310), (-DBL_MAX, DBL_MAX)],
                             ids=["(-5.3, 4.1)", "(0, 3e-310)", "(-DBL_MAX, DBL_MAX)"])
    def test_centres_within_two_units_of_exact(self, u_range, n):
        # m + (2i - (n - 1)) ((hi/2 - lo/2)/n) is 3.45 units off at (0, 3e-310), n = 7
        spec = SliceSpec(base=PlanePoint(0j, 4 + 0j), dir_u=PlanePoint(1 + 0j, 0j),
                         dir_v=PlanePoint(1j, 0j), u_range=u_range,
                         v_range=(-1.0, 1.0), width=n, height=1)
        z, _ = render._pixel_grid(spec, np.arange(1))
        lo, hi = map(Fraction, u_range)
        unit = max(abs(lo), abs(hi)) / 2**52 + Fraction(1, 2**1074)
        for i, u in enumerate(z[0].real.tolist()):
            assert abs(Fraction(u) - (lo + (2 * i + 1) * (hi - lo) / (2 * n))) <= 2 * unit, i

    def test_centres_at_512_keep_the_bits_of_the_plain_formula(self):
        # bench/checks.py:pixel_center forms the centres this way
        i = np.arange(512)
        assert np.array_equal(render._axis((-5.0, 5.0), 512, i), -5.0 + (i + 0.5) * 10.0 / 512)


class TestRenderSlice:
    @pytest.mark.parametrize("kwargs, name", [({"budget": 0}, "budget"),
                                              ({"workers": 0}, "workers")])
    def test_budget_and_workers_required(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            render_slice(wedge_slice(), **{"budget": 5, **kwargs})

    @pytest.mark.parametrize("x", [1e6, 1e20])
    @pytest.mark.parametrize("w", [400, 20])
    @pytest.mark.parametrize("budget", [2**63 - 1, 2**63, 10**20, 10**400],
                             ids=["2^63-1", "2^63", "10^20", "10^400"])
    def test_budget_past_int64_classifies_as_budget_5000(self, budget, w, x):
        # Every pixel overflows at step 1,015 (w = 400) or 1,019 (w = 20).
        spec = SliceSpec(base=PlanePoint(0j, w + 0j), dir_u=PlanePoint(1 + 0j, 0j),
                         dir_v=PlanePoint(1j, 0j), u_range=(x, x + 1),
                         v_range=(-5.0, 5.0), width=4, height=4)
        r, ref = render_slice(spec, budget), render_slice(spec, 5000)
        assert (r.codes == ref.codes).all() and (r.steps == ref.steps).all()
        assert ref.stats["overflowed"] == 16
        assert ((r.fast_forwarded, r.certified_entries, r.map_evals)
                == (ref.fast_forwarded, ref.certified_entries, ref.map_evals))
        p = spec.pixel_center(1, 2)
        assert classify_point(p, budget) == classify_point(p, 5000) == r.pixel(1, 2)

    def test_single_pixel(self):
        r = render_slice(single_pixel_spec(2 + 0j, 4 + 0j), 1)
        assert r.pixel(0, 0) == PixelClass("entered", 0)
        assert r.stats == {"entered": 1, "overflowed": 0, "not_entered": 0}

    def test_wedge_band_all_enter_immediately(self):
        # pixel centers have Re z in {1.6875, 2.0625, 2.4375, 2.8125},
        # all strictly between 1 and 3, with Re w - Re z > 1
        r = render_slice(wedge_slice(), 5)
        assert (r.codes == r.codes[0, 0]).all() and (r.steps == 0).all()
        assert r.pixel(0, 0) == PixelClass("entered", 0)

    def test_determinism(self):
        spec = SliceSpec(
            base=PlanePoint(0j, 4 + 0j),
            dir_u=PlanePoint(1 + 0j, 0j),
            dir_v=PlanePoint(1j, 0j),
            u_range=(-5.0, 5.0), v_range=(-5.0, 5.0),
            width=32, height=32,
        )
        a = render_slice(spec, 30)
        b = render_slice(spec, 30)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.steps, b.steps)

    def test_worker_independence(self):
        spec = SliceSpec(
            base=PlanePoint(0j, 4 + 0j),
            dir_u=PlanePoint(1 + 0j, 0j),
            dir_v=PlanePoint(1j, 0j),
            u_range=(-5.0, 5.0), v_range=(-5.0, 5.0),
            width=64, height=37,
        )
        base = render_slice(spec, 50, workers=1)
        for workers in (2, 4, 8, 100):
            other = render_slice(spec, 50, workers=workers)
            assert np.array_equal(base.codes, other.codes)
            assert np.array_equal(base.steps, other.steps)

    def test_worker_independence_across_chunks(self, monkeypatch):
        # one row per chunk, more workers than CPUs, frequent thread switches
        monkeypatch.setattr(render, "CHUNK_PIXELS", 64)
        spec = SliceSpec(
            base=PlanePoint(0j, 0.2 + 0j),
            dir_u=PlanePoint(1 + 0j, 0j),
            dir_v=PlanePoint(1j, 0j),
            u_range=(-5.0, 5.0), v_range=(-5.0, 5.0),
            width=64, height=37,
        )
        base = render_slice(spec, 120, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            other = render_slice(spec, 120, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(base.codes, other.codes)
        assert np.array_equal(base.steps, other.steps)

    def test_matches_scalar_classifier(self):
        spec = SliceSpec(
            base=PlanePoint(0j, 4 + 0j),
            dir_u=PlanePoint(1 + 0j, 0j),
            dir_v=PlanePoint(1j, 0j),
            u_range=(-3.0, 3.0), v_range=(-3.0, 3.0),
            width=8, height=8,
        )
        r = render_slice(spec, 25)
        for j in range(8):
            for i in range(8):
                assert r.pixel(i, j) == classify_point(spec.pixel_center(i, j), 25)

    def test_L_subset_entered_at_zero(self):
        r = render_slice(wedge_slice(8, 8), 10)
        for j in range(8):
            for i in range(8):
                if in_L(r.spec.pixel_center(i, j)):
                    assert r.pixel(i, j) == PixelClass("entered", 0)

    def test_stats_sum(self):
        spec = SliceSpec(
            base=PlanePoint(0j, 4 + 0j),
            dir_u=PlanePoint(1 + 0j, 0j),
            dir_v=PlanePoint(1j, 0j),
            u_range=(-8.0, 8.0), v_range=(-8.0, 8.0),
            width=16, height=16,
        )
        r = render_slice(spec, 20)
        assert sum(r.stats.values()) == 16 * 16


def w_fixed_slice(w, u_range=(-5.0, 5.0), v_range=(-5.0, 5.0), side=64):
    """The z-plane slice at w, as the CLI's render --w-fixed draws it."""
    return SliceSpec(base=PlanePoint(0j, w), dir_u=PlanePoint(1 + 0j, 0j),
                     dir_v=PlanePoint(1j, 0j), u_range=u_range, v_range=v_range,
                     width=side, height=side)


class TestSharedW:
    # On a slice of constant w, _classify carries one w for every seed; it
    # must classify and count as it does with one w per seed.  A part of
    # the base w that is -0 gives centres whose part is +0 or -0, by the
    # signs of u and v, unless every centre has the same signs.
    @pytest.mark.parametrize("spec, shared", [
        (w_fixed_slice(0.2 + 0j), True),
        (w_fixed_slice(4 + 0j), True),
        (w_fixed_slice(1 + 3j), True),
        (w_fixed_slice(complex(-0.0, -0.0)), False),  # Re w is +0 or -0
        (w_fixed_slice(complex(-0.0, 0.2)), False),
        (w_fixed_slice(complex(0.2, -0.0)), True),  # Im w is +0 everywhere
        # every u and v is negative, so Re w is -0 everywhere
        (w_fixed_slice(complex(-0.0, 0.3), (-5.0, -1.0), (-3.0, -0.5)), True),
    ], ids=["w=0.2", "w=4", "w=1+3i", "-0-0j", "-0+0.2j", "0.2-0j", "all-minus-0"])
    @pytest.mark.parametrize("budget", [200, 2000])
    def test_shared_w_classifies_as_per_seed_w(self, spec, shared, budget, monkeypatch):
        z, w = (x.ravel() for x in render._pixel_grid(spec, np.arange(spec.height)))
        assert render._same_bits(w) == shared
        w_sizes = []

        def spy(z, w, d):
            w_sizes.append(w.size)
            return step(z, w, d)

        monkeypatch.setattr(render, "step", spy)
        with_shared = render._classify(z, w, budget, 1.0)
        assert (w_sizes[0] == 1) == shared
        monkeypatch.setattr(render, "_same_bits", lambda w: False)
        per_seed = render._classify(z, w, budget, 1.0)
        for a, b in zip(with_shared, per_seed, strict=True):
            assert np.array_equal(a, b)

    def test_sharing_compares_bits(self):
        w = np.full(5, complex(0.2, 0.0))
        assert render._same_bits(w)
        w[3] = complex(0.2, -0.0)
        assert w[3] == w[0] and not render._same_bits(w)

    def test_step_gives_a_shared_w_the_bits_of_a_per_state_w(self):
        # w = -400 overflows e^{-2w}; with Re z + 400 and w = 380 every
        # state lies in R_inf.
        near = np.linspace(-5, 5, 7) + 1j * np.linspace(3, -3, 7)
        for z, w in itertools.product((near, near + 400), (0.2, 1 + 3j, -300, -400, 380)):
            w_each = np.full(z.shape, complex(w))
            d = w_each - z
            one = step(z, np.array([complex(w)]), d)
            each = step(z, w_each, d)
            assert one[1].shape == (1,)
            for a, b in zip(one, each, strict=True):
                assert np.broadcast_to(a, b.shape).tobytes() == b.tobytes()


@pytest.mark.parametrize("spec, limit_mib", [
    # Measured 4.25 and 5.28 MiB (numpy 2.4); each limit adds ~15%.  The
    # peak counts the 1.25 MiB of the output grids and one chunk of work.
    # A kernel that carried one w per seed, kept the step's temporaries
    # and held the pixel grid read 7.5 and 6.5 MiB at the same chunk size.
    (w_fixed_slice(0.2 + 0j, side=512), 4.9),
    (SliceSpec(base=PlanePoint(0j, 0j), dir_u=PlanePoint(0j, 1 + 0j),
               dir_v=PlanePoint(0j, 1j), u_range=(-5.0, 5.0),
               v_range=(-5.0, 5.0), width=512, height=512), 6.1),
], ids=["w=0.2", "w-plane"])
def test_peak_memory_of_a_render(spec, limit_mib):
    tracemalloc.start()
    try:
        render_slice(spec, 200, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20, peak / 2**20


class TestPpm:
    def test_single_white_pixel(self):
        palette = PaletteSpec(entered_cycle=((255, 255, 255),))
        r = render_slice(single_pixel_spec(2 + 0j, 4 + 0j), 1)
        assert write_ppm(r, palette) == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_two_pixel_payload(self):
        spec = SliceSpec(
            base=PlanePoint(0j, 0j),
            dir_u=PlanePoint(1 + 0j, 0j),
            dir_v=PlanePoint(1j, 0j),
            u_range=(-1200.0, 400.0),  # centers: Re z = -800 and 0
            v_range=(0.0, 0.0),
            width=2, height=1,
        )
        r = render_slice(spec, 3)
        assert [r.pixel(i, 0).tag for i in range(2)] == ["overflowed", "entered"]
        data = write_ppm(r, PaletteSpec())
        assert data.startswith(b"P6\n2 1\n255\n")
        assert len(data) == len(b"P6\n2 1\n255\n") + 6

    def test_byte_determinism(self):
        r1 = render_slice(wedge_slice(), 5)
        r2 = render_slice(wedge_slice(), 5)
        assert write_ppm(r1, PaletteSpec()) == write_ppm(r2, PaletteSpec())

    def test_cycles_of_different_lengths_match_per_pixel_colours(self):
        palette = PaletteSpec(
            not_entered=(1, 2, 3),
            entered_cycle=((10, 0, 0), (20, 0, 0), (30, 0, 0)),
            overflowed_cycle=tuple((0, 0, 50 + k) for k in range(5)),
        )
        spec = SliceSpec(*CSV_SLICES["w=0.2"], u_range=(-5.0, 5.0),
                         v_range=(-5.0, 5.0), width=24, height=16)
        r = render_slice(spec, 40)
        assert all(r.stats.values())
        expected = bytearray(b"P6\n24 16\n255\n")
        for j in range(16):
            for i in range(24):
                pc = r.pixel(i, j)
                if pc.tag == "entered":
                    rgb = palette.entered_cycle[pc.step % 3]
                elif pc.tag == "overflowed":
                    rgb = palette.overflowed_cycle[pc.step % 5]
                else:
                    rgb = palette.not_entered
                expected += bytes(rgb)
        assert write_ppm(r, palette) == bytes(expected)

    @pytest.mark.parametrize("ent, ovf", [(1, 3), (3, 16), (16, 1)])
    def test_hand_built_raster_matches_per_pixel_formula(self, ent, ovf):
        # Every code with every step from -1 to past the budget, shuffled,
        # against the colour index of each pixel computed on its own, the
        # CSV dump against the per-pixel reference writer, and stats and
        # pixel against the class of each pixel.
        palette = PaletteSpec(
            not_entered=(1, 2, 3),
            entered_cycle=tuple((10 + k, 100, 0) for k in range(ent)),
            overflowed_cycle=tuple((0, 200, 50 + k) for k in range(ovf)),
        )
        budget = 20
        codes, steps = np.meshgrid(np.arange(3, dtype=np.uint8),
                                   np.arange(-1, budget + 6, dtype=np.int32))
        order = np.random.Generator(np.random.PCG64(7)).permutation(codes.size)
        codes, steps = (x.ravel()[order].reshape(9, 9) for x in (codes, steps))
        lut = np.array([palette.not_entered, *palette.entered_cycle,
                        *palette.overflowed_cycle], dtype=np.uint8)
        idx = np.where(codes == render._CODE_ENTERED, 1 + steps % ent,
                       np.where(codes == render._CODE_OVERFLOWED,
                                1 + ent + steps % ovf, 0))
        expected = b"P6\n9 9\n255\n" + lut[idx].tobytes()
        spec = SliceSpec(*CSV_SLICES["default"], u_range=(-1.0, 1.0),
                         v_range=(-1.0, 1.0), width=9, height=9)
        for b in (budget, 10**12):  # the (code, step) tables follow the steps only
            r = render.RasterResult(spec=spec, budget=b, threshold=1.0, codes=codes,
                                    steps=steps, fast_forwarded=0,
                                    certified_entries=0, map_evals=0)
            assert write_ppm(r, palette) == expected
            assert b"".join(grid_csv_blocks(r)) == reference_grid_csv(r)
            assert list(r.stats.items()) == [
                ("entered", 27), ("overflowed", 27), ("not_entered", 27)]
            for j, i in np.ndindex(9, 9):
                code, k = int(codes[j, i]), int(steps[j, i])
                expected_class = {
                    render._CODE_NOT_ENTERED: PixelClass("not_entered"),
                    render._CODE_ENTERED: PixelClass("entered", k),
                    render._CODE_OVERFLOWED: PixelClass("overflowed", k),
                }[code]
                assert r.pixel(i, j) == expected_class

    def test_peak_memory(self):
        # Measured 1.88 MiB (numpy 2.4); the limit adds ~15%.  The peak
        # counts steps + 1 and the gathered colours; RGB0 words with their
        # 3-of-4-byte copy-out read 4.25 MiB.
        r = render_slice(w_fixed_slice(0.2 + 0j, side=512), 200, workers=2)
        tracemalloc.start()
        try:
            write_ppm(r, PaletteSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * 2**20, peak / 2**20

    def test_palette_validation(self):
        with pytest.raises(ValueError):
            PaletteSpec(not_entered=(0, 0, 999))
        with pytest.raises(ValueError):
            PaletteSpec.from_mapping({"entered_cycle": []})


CSV_SLICES = {
    "default": (PlanePoint(0j, 4 + 0j), PlanePoint(1 + 0j, 0j), PlanePoint(1j, 0j)),
    "w=0.2": (PlanePoint(0j, 0.2 + 0j), PlanePoint(1 + 0j, 0j), PlanePoint(1j, 0j)),
    "w-plane": (PlanePoint(0j, 0j), PlanePoint(0j, 1 + 0j), PlanePoint(0j, 1j)),
    "oblique": (PlanePoint(0.3 - 0.2j, 1.5 + 0.7j), PlanePoint(0.6 + 0.8j, -0.25 + 0.5j),
                PlanePoint(-0.3 + 1.1j, 0.9 - 0.4j)),
    "re-w-tail": (PlanePoint(0j, 4 + 0j), PlanePoint(1 + 0j, 0.3 + 0.1j),
                  PlanePoint(1j, 0.2 + 0.5j)),
    "im-w-tail": (PlanePoint(0j, 4 + 0j), PlanePoint(1 + 0j, 0.1j), PlanePoint(1j, 0.3j)),
    # z rotated by 0.3: both parts of z depend on both axes, and the
    # constant w fields after them go into the tail too.
    "rotated": (PlanePoint(0j, 4 + 0j), PlanePoint(cmath.exp(0.3j), 0j),
                PlanePoint(1j * cmath.exp(0.3j), 0j)),
}
# The first float field (re_z, im_z, re_w, im_w) that depends on both the
# column and the row, where the tail of the row template starts; on the
# other slices each float field depends on one axis at most.
TAIL_START = {"oblique": 0, "re-w-tail": 2, "im-w-tail": 3, "rotated": 0}
# The slices with overflowed pixels at 48 x 32 x 200.
OVERFLOWING = {"w=0.2", "w-plane", "oblique", "re-w-tail"}


@pytest.fixture
def pixel_fields(monkeypatch):
    """The float fields that render formats per pixel, one per call of
    render._lookup on a (rows, width) array of bit patterns."""
    calls = []

    def spy(bits):
        if bits.ndim == 2:
            calls.append(bits)
        return lookup(bits)

    lookup = render._lookup
    monkeypatch.setattr(render, "_lookup", spy)
    return calls


class TestCsv:
    @pytest.mark.parametrize("name", CSV_SLICES)
    def test_matches_reference_writer(self, name, monkeypatch, pixel_fields):
        # blocks of 5 rows, the last of 2; budget 200 puts overflows at
        # steps whose (code, step) pairs outrun a uint8
        monkeypatch.setattr(render, "CHUNK_PIXELS", 5 * 48 + 7)
        spec = SliceSpec(*CSV_SLICES[name], u_range=(-5.0, 5.0),
                         v_range=(-5.0, 5.0), width=48, height=32)
        r = render_slice(spec, 200)
        assert (r.stats["overflowed"] > 0) == (name in OVERFLOWING)
        blocks = list(grid_csv_blocks(r))
        assert len(blocks) == 1 + 7
        assert len(pixel_fields) == 7 * (4 - TAIL_START.get(name, 4))
        assert b"".join(blocks) == reference_grid_csv(r)

    @pytest.mark.parametrize("height, width, chunk",
                             [(37, 64, 320), (32, 48, 247), (5, 7, 14), (3, 100, 50)])
    def test_row_chunks_are_consecutive_blocks(self, height, width, chunk, monkeypatch):
        monkeypatch.setattr(render, "CHUNK_PIXELS", chunk)
        blocks = render._row_chunks(height, width)
        # in order, they cover the rows 0..height - 1 exactly once
        assert np.array_equal(np.concatenate(blocks), np.arange(height))
        for rows in blocks:
            assert np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size))
            assert rows.size * width <= chunk or rows.size == 1

    def test_dump_blocks_are_the_classifier_chunks(self, monkeypatch):
        monkeypatch.setattr(render, "CHUNK_PIXELS", 5 * 48 + 7)
        calls = []

        def spy(spec, rows):
            calls.append(rows.tolist())
            return pixel_grid(spec, rows)

        pixel_grid = render._pixel_grid
        monkeypatch.setattr(render, "_pixel_grid", spy)
        spec = SliceSpec(*CSV_SLICES["oblique"], u_range=(-5.0, 5.0),
                         v_range=(-5.0, 5.0), width=48, height=32)
        assert not render._own_mirror(spec)
        r = render_slice(spec, 20, workers=1)
        classified = calls.copy()
        calls.clear()
        list(grid_csv_blocks(r))
        assert len(calls) == 7 and calls == classified

    def test_full_size_default_dump_is_pinned(self):
        # 512^2 x 200 over (-5, 5)^2, the render-dump workload of bench/
        spec = SliceSpec(*CSV_SLICES["default"], u_range=(-5.0, 5.0),
                         v_range=(-5.0, 5.0), width=512, height=512)
        digest = hashlib.sha256(b"".join(grid_csv_blocks(render_slice(spec, 200))))
        assert digest.hexdigest() == \
            "0730fbc7abd9429703bd177dac2f42af4ab453151d32f245cbf11adb7ad8d4d6"

    # sha256 of the dump at 512^2 x 200 over (-5, 5)^2
    @pytest.mark.parametrize("name, dump", [
        ("w=0.2", "dda7b3aea6f3b5b6e54e7d763cf6ced774234f5ad96fe8c244ed473291bd1c82"),
        ("w-plane", "f26f278d2dc36004d277f87e180bcaeaae0bec071711664eaec79768629dd80f"),
        ("oblique", "70d89f14225a455e8d8e4b0d18ed5aee1121a7c653684cb69b542648866ebbfc"),
        ("re-w-tail", "34aaeb0fbb2e8c964f6baa70681091200b9e33cdac020460c5f42c2511d2a421"),
        ("im-w-tail", "d48f872c982b2ea6b6e47fc4f9e8b1f73e5f67b57e8a270686ee50f2d771d841"),
    ])
    def test_full_size_dumps_are_pinned(self, name, dump):
        spec = SliceSpec(*CSV_SLICES[name], u_range=(-5.0, 5.0),
                         v_range=(-5.0, 5.0), width=512, height=512)
        r = render_slice(spec, 200, workers=2)
        assert hashlib.sha256(b"".join(grid_csv_blocks(r))).hexdigest() == dump

    # sha256 of codes || steps and of the PPM at 512^2 x 200 over (-5, 5)^2,
    # the slices of bench/ (render classifies half of each and mirrors it)
    @pytest.mark.parametrize("name, grids, ppm", [
        ("default", "0de3a7532a2a17379c86cd0b23a047d7ea6b9db0b9240d30239b675fd19b1744",
         "0550030131cc9d6bda06730b3f772f586f5613906f69034b125dd19d03ce4886"),
        ("w=0.2", "aedacfc80eeee2dd5a590a3cae95beb8cd625b89bede1b77f85995164c7e8231",
         "6e1555bc11b4ec6cdebddf9f974c90e0f9b28e939530250250418e0bd47960d6"),
        ("w-plane", "7422e47cb64038f014ed5c4141911dd90760d256d0e39323a7ef88914696f298",
         "e30451532d813337bf75add90054ef88850704919d61f6e607682a7f594780a5"),
    ])
    def test_full_size_benchmark_renders_are_pinned(self, name, grids, ppm):
        spec = SliceSpec(*CSV_SLICES[name], u_range=(-5.0, 5.0),
                         v_range=(-5.0, 5.0), width=512, height=512)
        r = render_slice(spec, 200, workers=2)
        assert hashlib.sha256(r.codes.tobytes() + r.steps.tobytes()).hexdigest() == grids
        assert hashlib.sha256(write_ppm(r, PaletteSpec())).hexdigest() == ppm

    def test_signed_zero_rows_keep_their_reprs(self, pixel_fields):
        # Im z sums -0.0, the u term's -0.0 (u > 0) and the v term's: -0.0
        # where v > 0, 0.0 where v < 0.  As 0.0 == -0.0, only a bitwise
        # test sees that Im z depends on the row.
        spec = SliceSpec(
            base=PlanePoint(complex(0.0, -0.0), 0.5 + 0j),
            dir_u=PlanePoint(complex(-1.0, -0.0), 0j),
            dir_v=PlanePoint(complex(-0.0, -0.0), 1j),
            u_range=(1.0, 2.0), v_range=(-1.0, 1.0),
            width=4, height=4,
        )
        r = render_slice(spec, 10)
        lines = b"".join(grid_csv_blocks(r)).decode().splitlines()
        assert pixel_fields == []
        rows = [line.split(",") for line in lines[1:]]
        assert [f[3] for f in rows[::4]] == ["0.0", "0.0", "-0.0", "-0.0"]
        for f in rows:
            p = spec.pixel_center(int(f[0]), int(f[1]))
            assert f[2:6] == [repr(p.z.real), repr(p.z.imag),
                              repr(p.w.real), repr(p.w.imag)]

    def test_signed_zeros_keep_their_reprs(self):
        # Re z is -0.0 + u*0 + v*0: -0.0 where u < 0, 0.0 where u > 0.
        spec = SliceSpec(
            base=PlanePoint(complex(-0.0, -0.0), 0.5 + 0j),
            dir_u=PlanePoint(0j, 1 + 0j),
            dir_v=PlanePoint(0j, 1j),
            u_range=(-1.0, 1.0), v_range=(-1.0, 1.0),
            width=4, height=3,
        )
        r = render_slice(spec, 10)
        lines = b"".join(grid_csv_blocks(r)).decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert {f[2] for f in rows} == {"-0.0", "0.0"}
        for f in rows:
            p = spec.pixel_center(int(f[0]), int(f[1]))
            assert f[2:6] == [repr(p.z.real), repr(p.z.imag),
                              repr(p.w.real), repr(p.w.imag)]

    def test_single_pixel(self):
        r = render_slice(single_pixel_spec(2 + 0j, 4 + 0j), 1)
        lines = b"".join(grid_csv_blocks(r)).decode().splitlines()
        assert lines[0] == "i,j,re_z,im_z,re_w,im_w,tag,step"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[6] == "entered" and fields[7] == "0"

    def test_bytes_match_pixel_centers(self, monkeypatch):
        # an oblique slice cut into chunks of two rows
        monkeypatch.setattr(render, "CHUNK_PIXELS", 14)
        spec = SliceSpec(
            base=PlanePoint(0.3 - 0.2j, 1.5 + 0.7j),
            dir_u=PlanePoint(0.6 + 0.8j, -0.25 + 0.5j),
            dir_v=PlanePoint(-0.3 + 1.1j, 0.9 - 0.4j),
            u_range=(-2.0, 3.0), v_range=(-1.5, 2.5),
            width=7, height=5,
        )
        r = render_slice(spec, 20, workers=2)
        rows = ["i,j,re_z,im_z,re_w,im_w,tag,step"]
        for j in range(5):
            for i in range(7):
                p = spec.pixel_center(i, j)
                pc = classify_point(p, 20)
                assert r.pixel(i, j) == pc
                step = "" if pc.step is None else pc.step
                rows.append(f"{i},{j},{p.z.real!r},{p.z.imag!r},"
                            f"{p.w.real!r},{p.w.imag!r},{pc.tag},{step}")
        assert b"".join(grid_csv_blocks(r)) == ("\n".join(rows) + "\n").encode()

    def test_row_count_and_roundtrip(self):
        spec = SliceSpec(
            base=PlanePoint(0j, 4 + 0j),
            dir_u=PlanePoint(1 + 0j, 0j),
            dir_v=PlanePoint(1j, 0j),
            u_range=(-4.0, 4.0), v_range=(-4.0, 4.0),
            width=6, height=5,
        )
        r = render_slice(spec, 15)
        lines = b"".join(grid_csv_blocks(r)).decode().splitlines()
        assert len(lines) == 1 + 6 * 5
        for line in lines[1:]:
            f = line.split(",")
            i, j, tag = int(f[0]), int(f[1]), f[6]
            step = None if f[7] == "" else int(f[7])
            assert r.pixel(i, j) == PixelClass(tag, step)
