import sys

import numpy as np
import pytest
from csv_reference import reference_grid_csv

from bakerbench import render
from bakerbench.core import PlanePoint, apply_f
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
        (PlanePoint(1 + 0j, 0j), (-1e308, 1e308)),  # u1 - u0 overflows
        (PlanePoint(1e300 + 0j, 0j), (-1e10, 1e10)),  # u * dir_u overflows
        (PlanePoint(0j, 2.2e300j), (0.0, 1e8)),  # in w, in the last column only
    ])
    def test_non_finite_pixel_centre_rejected(self, dir_u, u_range):
        with pytest.raises(ValueError, match="non-finite centre"):
            SliceSpec(base=PlanePoint(0j, 4 + 0j), dir_u=dir_u,
                      dir_v=PlanePoint(1j, 0j), u_range=u_range,
                      v_range=(-1.0, 1.0), width=4, height=2)

    def test_wide_finite_slice_accepted(self):
        spec = SliceSpec(base=PlanePoint(0j, 4 + 0j), dir_u=PlanePoint(1 + 0j, 0j),
                         dir_v=PlanePoint(1j, 0j), u_range=(-2e307, 2e307),
                         v_range=(-2e307, 2e307), width=4, height=2)
        z, w = render._pixel_grid(spec, np.arange(2))
        assert np.isfinite(z).all() and np.isfinite(w).all()

    def test_centres_past_an_overflowing_product_accepted(self):
        # (i + 0.5)(u1 - u0) = 3.5 * 1.6e308 overflows, the centre does not
        spec = SliceSpec(base=PlanePoint(0j, 4 + 0j), dir_u=PlanePoint(1 + 0j, 0j),
                         dir_v=PlanePoint(1j, 0j), u_range=(-8e307, 8e307),
                         v_range=(-1.0, 1.0), width=4, height=2)
        z, w = render._pixel_grid(spec, np.arange(2))
        assert np.isfinite(z).all() and np.isfinite(w).all()
        assert z[0].real.tolist() == pytest.approx([-6e307, -2e307, 2e307, 6e307], rel=1e-15)
        assert spec.pixel_center(3, 1) == PlanePoint(complex(z[1, 3]), complex(w[1, 3]))

    @pytest.mark.parametrize("u_range", [
        (-5.3, 4.1),
        (0.0, 3e-310),  # a span that a 2^-64 scale would flush to zero
    ])
    def test_centres_keep_the_bits_of_the_plain_formula(self, u_range):
        (u0, u1), (v0, v1) = u_range, (-2.7, 3.9)
        spec = SliceSpec(base=PlanePoint(0j, 4 + 0j),
                         dir_u=PlanePoint(1 + 0.5j, 0.125 + 0j),
                         dir_v=PlanePoint(1j, -0.75 + 0j), u_range=u_range,
                         v_range=(v0, v1), width=7, height=5)
        z, w = render._pixel_grid(spec, np.arange(5))
        for j in range(5):
            for i in range(7):
                u = u0 + (i + 0.5) * (u1 - u0) / 7
                v = v0 + (j + 0.5) * (v1 - v0) / 5
                assert z[j, i] == spec.base.z + u * spec.dir_u.z + v * spec.dir_v.z
                assert w[j, i] == spec.base.w + u * spec.dir_u.w + v * spec.dir_v.w
                assert spec.pixel_center(i, j) == PlanePoint(complex(z[j, i]),
                                                             complex(w[j, i]))


class TestRenderSlice:
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

    def test_palette_validation(self):
        with pytest.raises(ValueError):
            PaletteSpec(not_entered=(0, 0, 999))
        with pytest.raises(ValueError):
            PaletteSpec.from_mapping({"entered_cycle": []})


CSV_SLICES = {
    "default": (PlanePoint(0j, 4 + 0j), PlanePoint(1 + 0j, 0j), PlanePoint(1j, 0j)),
    "w=0.2": (PlanePoint(0j, 0.2 + 0j), PlanePoint(1 + 0j, 0j), PlanePoint(1j, 0j)),
    "oblique": (PlanePoint(0.3 - 0.2j, 1.5 + 0.7j), PlanePoint(0.6 + 0.8j, -0.25 + 0.5j),
                PlanePoint(-0.3 + 1.1j, 0.9 - 0.4j)),
}


class TestCsv:
    @pytest.mark.parametrize("name", CSV_SLICES)
    def test_matches_reference_writer(self, name, monkeypatch):
        # blocks of 5 rows, the last of 2; budget 200 puts overflows at
        # steps whose (code, step) pairs outrun a uint8
        monkeypatch.setattr(render, "CHUNK_PIXELS", 5 * 48 + 7)
        spec = SliceSpec(*CSV_SLICES[name], u_range=(-5.0, 5.0),
                         v_range=(-5.0, 5.0), width=48, height=32)
        r = render_slice(spec, 200)
        assert (r.stats["overflowed"] > 0) == (name != "default")
        assert len(list(grid_csv_blocks(r))) == 1 + 7
        assert b"".join(grid_csv_blocks(r)) == reference_grid_csv(r)

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
