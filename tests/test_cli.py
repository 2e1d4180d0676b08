import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from csv_reference import reference_grid_csv

import bakerbench
from bakerbench import cli, render
from bakerbench.cli import main
from bakerbench.suites import SUITES


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture
def no_render(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("render_slice called")

    monkeypatch.setattr(bakerbench, "render_slice", fail)


class TestIterate:
    def test_basic_table(self, capsys):
        code, out, _ = run_cli(
            ["iterate", "--z", "0,0", "--w", "0,0", "--steps", "1"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "command=iterate" in lines[0]
        assert "n=0" in lines[1]
        assert "re_z=1.0" in lines[2] and "re_w=2.0" in lines[2]

    def test_margin_growth_bound(self, capsys):
        code, out, _ = run_cli(
            ["iterate", "--z", "2,0", "--w", "4,0", "--steps", "40"], capsys
        )
        assert code == 0
        last = out.strip().splitlines()[-1]
        margin = float(last.split("margin=")[1].split()[0])
        assert margin > 2 + 40 * (1 - 2 * math.exp(-2))

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["iterate", "--z", "0,0"], capsys)
        assert code == 2

    def test_bad_complex_pair(self, capsys):
        code, _, _ = run_cli(
            ["iterate", "--z", "nope", "--w", "0,0", "--steps", "1"], capsys
        )
        assert code == 2

    def test_overflow_truncation_is_success_with_notice(self, capsys):
        code, out, _ = run_cli(
            ["iterate", "--z=-400,0", "--w=-400,0", "--steps", "3"], capsys
        )
        assert code == 0
        assert "orbit-truncated-by-overflow" in out

    def test_tree_format(self, capsys):
        code, out, _ = run_cli(
            ["iterate", "--z", "0,0", "--w", "0,0", "--steps", "1",
             "--format", "tree"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][1]["re_w"] == 2.0


class TestVerify:
    def test_invariance_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "invariance", "--samples", "300",
             "--seed", "7", "--steps", "15"], capsys
        )
        assert code == 0
        assert "violations=0" in out and "passed=true" in out
        assert "seed=7" in out and "generator=PCG64" in out

    def test_psh_range_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "psh-range", "--samples", "300",
             "--seed", "7", "--steps", "10"], capsys
        )
        assert code == 0
        assert "passed=true" in out

    def test_deterministic_for_fixed_seed(self, capsys):
        args = ["verify", "--suite", "growth", "--samples", "200",
                "--seed", "3", "--steps", "10"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "bogus"], capsys)
        assert code == 2

    # 91 and 100 reach states where -2w has an infinite imaginary part, 105 a
    # finite state whose |w| exceeds double range.
    @pytest.mark.parametrize("seed", ["91", "100", "105"])
    def test_psh_range_passes_where_orbits_leave_double_range(self, seed, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "psh-range", "--samples", "2000",
             "--steps", "20", "--seed", seed], capsys
        )
        assert code == 0
        assert "passed=true" in out


class TestWitness:
    def test_exact_family(self, capsys):
        code, out, _ = run_cli(
            ["witness", "--target", "0.75,0", "--count", "3"], capsys
        )
        assert code == 0
        rows = [l for l in out.strip().splitlines() if l[0].isdigit()]
        assert len(rows) == 3
        first = rows[0].split(",")
        assert abs(float(first[2]) - 2 * math.pi / 3) < 1e-12

    def test_general_target(self, capsys):
        code, out, _ = run_cli(
            ["witness", "--target", "1,0", "--count", "5"], capsys
        )
        assert code == 0
        rows = [l for l in out.strip().splitlines() if l[0].isdigit()]
        moduli = [float(r.split(",")[3]) for r in rows]
        residuals = [float(r.split(",")[4]) for r in rows]
        assert all(b > a for a, b in zip(moduli, moduli[1:]))
        assert all(r < 1e-8 for r in residuals)

    def test_zero_count_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["witness", "--target", "0.75,0", "--count", "0"], capsys
        )
        assert code == 2


class TestRender:
    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys):
        outs = []
        for workers in ("1", "8"):
            path = tmp_path / f"img{workers}.ppm"
            code, _, _ = run_cli(
                ["render", "--width", "48", "--height", "32", "--budget", "40",
                 "--workers", workers, "--out", str(path)], capsys
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_stats_reported(self, tmp_path, capsys):
        path = tmp_path / "img.ppm"
        code, out, _ = run_cli(
            ["render", "--width", "16", "--height", "16", "--budget", "30",
             "--out", str(path)], capsys
        )
        assert code == 0
        assert "entered=" in out and "not_entered=" in out
        assert path.read_bytes().startswith(b"P6\n16 16\n255\n")

    def test_csv_output(self, tmp_path, capsys):
        ppm = tmp_path / "img.ppm"
        csv = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            ["render", "--width", "4", "--height", "4", "--budget", "10",
             "--out", str(ppm), "--csv-out", str(csv)], capsys
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("i,j,") and len(lines) == 17

    @pytest.mark.parametrize("w_fixed", ["4,0", "0.2,0"])
    def test_csv_file_matches_reference_writer(self, w_fixed, tmp_path,
                                               monkeypatch, capsys):
        # streamed in blocks of 5 rows, the last of 2
        monkeypatch.setattr(render, "CHUNK_PIXELS", 5 * 48 + 7)
        rasters = []

        def keep(*args, **kwargs):
            rasters.append(render.render_slice(*args, **kwargs))
            return rasters[-1]

        monkeypatch.setattr(bakerbench, "render_slice", keep)
        csv = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            ["render", "--width", "48", "--height", "32", "--budget", "200",
             "--w-fixed", w_fixed, "--out", str(tmp_path / "img.ppm"),
             "--csv-out", str(csv)], capsys
        )
        assert code == 0
        assert csv.read_bytes() == reference_grid_csv(rasters[0])

    @pytest.mark.parametrize("flags", [["--xmin", "5", "--xmax", "-5"],
                                       ["--ymin", "1", "--ymax", "0"]])
    def test_reversed_range_is_usage_error(self, flags, tmp_path, capsys):
        code, _, _ = run_cli(
            ["render", "--width", "4", "--height", "4",
             "--out", str(tmp_path / "x.ppm"), *flags], capsys
        )
        assert code == 2

    def test_invalid_palette(self, tmp_path, capsys):
        bad = tmp_path / "palette.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            ["render", "--width", "4", "--height", "4",
             "--out", str(tmp_path / "x.ppm"), "--palette", str(bad)], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("text", ['{"not_entered": [Infinity, 0, 0]}',
                                      '{"not_entered": [12.7, true, "5"]}',
                                      '{"not_entered": [12, 1, true]}',
                                      '{"not_entered": [12.0, 1, 5]}',
                                      '{"entered_cycle": ["abc"]}',
                                      '{"overflowed_cycle": [[1, 2]]}',
                                      "[1, 2, 3]"])
    def test_palette_bad_value_or_root_is_usage_error(self, text, tmp_path, capsys):
        bad = tmp_path / "palette.json"
        bad.write_text(text)
        assert_usage_error(
            ["render", "--width", "4", "--height", "4",
             "--out", str(tmp_path / "x.ppm"), "--palette", str(bad)], capsys
        )
        assert not (tmp_path / "x.ppm").exists()

    def test_custom_palette(self, tmp_path, capsys):
        pal = tmp_path / "palette.json"
        pal.write_text(json.dumps({
            "not_entered": [10, 20, 30],
            "entered_cycle": [[255, 0, 255]],
        }))
        out = tmp_path / "img.ppm"
        code, _, _ = run_cli(
            ["render", "--width", "2", "--height", "2", "--budget", "5",
             "--xmin", "1.6", "--xmax", "2.4", "--ymin", "0", "--ymax", "0",
             "--out", str(out), "--palette", str(pal)], capsys
        )
        assert code == 0
        assert out.read_bytes().endswith(b"\xff\x00\xff" * 4)

    def test_custom_overflowed_cycle(self, monkeypatch, tmp_path, capsys):
        rasters = []

        def keep(*args, **kwargs):
            rasters.append(render.render_slice(*args, **kwargs))
            return rasters[-1]

        monkeypatch.setattr(bakerbench, "render_slice", keep)
        pal = tmp_path / "palette.json"
        pal.write_text(json.dumps({"overflowed_cycle": [[1, 2, 3], [4, 5, 6]]}))
        out = tmp_path / "img.ppm"
        code, _, _ = run_cli(
            ["render", "--width", "4", "--height", "4", "--budget", "1100",
             "--w-fixed", "400,0", "--xmin", "1000000", "--xmax", "1000001",
             "--out", str(out), "--palette", str(pal)], capsys
        )
        assert code == 0 and rasters[0].stats["overflowed"] == 16
        palette = render.PaletteSpec(overflowed_cycle=((1, 2, 3), (4, 5, 6)))
        assert out.read_bytes() == render.write_ppm(rasters[0], palette)


class TestOutputPaths:
    def test_iterate_out_in_missing_directory(self, tmp_path, capsys):
        assert_usage_error(
            ["iterate", "--z", "0,0", "--w", "0,0", "--steps", "1",
             "--out", str(tmp_path / "missing" / "x.txt")], capsys)

    def test_render_empty_out_is_a_directory(self, no_render, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert_usage_error(["render", "--out=", "--width", "4",
                                 "--height", "4"], capsys)
        assert list(tmp_path.iterdir()) == []

    def test_render_csv_out_in_missing_directory(self, no_render, tmp_path,
                                                 capsys):
        ppm = tmp_path / "img.ppm"
        assert_usage_error(
            ["render", "--width", "4", "--height", "4", "--out", str(ppm),
             "--csv-out", str(tmp_path / "missing" / "g.csv")], capsys)
        assert not ppm.exists()

    def test_write_error_after_render_is_usage_error(self, tmp_path,
                                                    monkeypatch, capsys):
        # the output directory disappears while the slice renders
        gone = tmp_path / "gone"
        gone.mkdir()

        def render_then_remove(*args, **kwargs):
            gone.rmdir()
            return render.render_slice(*args, **kwargs)

        monkeypatch.setattr(bakerbench, "render_slice", render_then_remove)
        assert_usage_error(
            ["render", "--width", "4", "--height", "4",
             "--out", str(tmp_path / "img.ppm"),
             "--csv-out", str(gone / "g.csv")], capsys)

    @pytest.mark.parametrize("argv", [
        ["--out", "X", "--csv-out", "X"],
        ["--out", "./g.out", "--csv-out", "g.out"],
        ["--csv-out", "basin.ppm"],  # the PPM goes to basin.ppm
    ])
    def test_render_outputs_naming_one_file(self, argv, no_render, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert_usage_error(["render", "--width", "4", "--height", "4", *argv],
                           capsys)
        assert list(tmp_path.iterdir()) == []

    def test_render_default_out_is_a_directory(self, no_render, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "basin.ppm").mkdir()
        assert_usage_error(["render", "--width", "4", "--height", "4",
                            "--csv-out", "g.csv"], capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["basin.ppm"]

    def test_render_out_with_nul_byte(self, no_render, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out": "a\0b"}))
        assert_usage_error(["render", "--config", str(cfg), "--width", "4",
                            "--height", "4"], capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


REJECTED = [
    (["verify", "--suite", "growth", "--seed", "-1"], "--seed must be >= 0"),
    (["psh", "--center-z", "2,0", "--center-w", "4,0",
      "--dir-z", "0,0", "--dir-w", "0,0"], "direction must be nonzero"),
    (["verify", "--suite", "growth", "--samples", "0"],
     "--samples and --steps must be >= 1"),
    (["verify", "--suite", "growth", "--steps", "0"],
     "--samples and --steps must be >= 1"),
    (["psh", "--center-z", "2,0", "--center-w", "4,0", "--n", "-1"],
     "--n must be >= 0"),
    (["iterate", "--z", "0,0", "--w", "0,0", "--steps", "-1"], "--steps must be >= 0"),
    (["render", "--budget", "0"], "--budget must be >= 1"),
    (["render", "--workers", "0"], "--workers must be >= 1"),
    *((["render", flag, str(size)], f"width and height must lie in 1..{2**63 - 1}")
      for flag in ("--width", "--height") for size in (0, 2**63, 2**64, 2**64 + 1, 10**400)),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, message", REJECTED,
                             ids=[f"argv{i}" for i in range(len(REJECTED))])
    def test_rejected_argument_is_usage_error(self, argv, message, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("w_fixed", ["400,0", "20,0"])
    @pytest.mark.parametrize("budget", [2**63 - 1, 2**63, 10**20],
                             ids=["2^63-1", "2^63", "10^20"])
    def test_budget_past_int64_renders_as_budget_5000(self, budget, w_fixed,
                                                      tmp_path, capsys):
        # Every pixel overflows at step 1,015 (w = 400) or 1,019 (w = 20),
        # so no budget past that changes the picture or the stats.
        runs = []
        for b in (5000, budget):
            ppm = tmp_path / f"{b}.ppm"
            code, out, err = run_cli(
                ["render", "--budget", str(b), "--width", "4", "--height", "4",
                 "--w-fixed", w_fixed, "--xmin", "1000000", "--xmax", "1000001",
                 "--out", str(ppm)], capsys)
            assert (code, err) == (0, "")
            runs.append((out.splitlines()[1].split(" ", 1)[1], ppm.read_bytes()))
        assert runs[0][0] == "entered=0 overflowed=16 not_entered=0"
        assert runs[1] == runs[0]

    def test_window_past_an_overflowing_product_renders(self, tmp_path,
                                                      monkeypatch, capsys):
        # xmax - xmin overflows at 1e308, and (i + 0.5)(xmax - xmin) at 8e307
        monkeypatch.chdir(tmp_path)
        for b, centres in [(8e307, [-6e307, -2e307, 2e307, 6e307]),
                           (1e308, [-7.5e307, -2.5e307, 2.5e307, 7.5e307])]:
            code, _, err = run_cli(
                ["render", "--width", "4", "--height", "2", "--budget", "3",
                 f"--xmin={-b}", f"--xmax={b}", "--csv-out", "g.csv"], capsys)
            assert (code, err) == (0, "")
            rows = (tmp_path / "g.csv").read_text().splitlines()[1:]
            assert [float(r.split(",")[2]) for r in rows[:4]] == pytest.approx(centres, rel=1e-15)
            assert all(math.isfinite(float(x)) for r in rows for x in r.split(",")[2:6])

    @pytest.mark.parametrize("argv", [
        ["--target", "1,0", "--count", "1", "--first-branch", "1" + "0" * 400],
        ["--target", "1,0", "--count", "1", "--first-branch", str(-2**53 - 1)],
        ["--target", "1,0", "--count", str(2**51), "--first-branch", "0"],
        ["--target", "0.75,0", "--count", "100000000000000000000"],
    ])
    def test_branch_index_beyond_two_to_53_is_usage_error(self, argv,
                                                          monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("find_witnesses called")

        monkeypatch.setattr(cli, "find_witnesses", fail)
        assert_usage_error(["witness", *argv], capsys)

    @pytest.mark.parametrize("argv", [
        ["--target", "1,0", "--count", "1", "--first-branch", str(-2**53)],
        ["--target", "0.75,0", "--count", "1", "--first-branch", str(2**60)],
    ])
    def test_branch_index_at_two_to_53_is_accepted(self, argv, capsys):
        code, _, _ = run_cli(["witness", *argv], capsys)
        assert code in (0, 4)

    @pytest.mark.parametrize("argv, name", [
        (["psh", "--center-z", "2,0", "--center-w", "4,0"], "submean_check"),
        (["witness", "--target", "1,0", "--count", "2"], "find_witnesses"),
    ])
    def test_value_error_from_the_computation_is_numeric_failure(
        self, argv, name, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise ValueError("math domain error")

        monkeypatch.setattr(cli, name, fail)
        code, out, err = run_cli(argv, capsys)
        assert code == 4 and out == ""
        assert err == "numeric failure: math domain error\n"

    def test_suite_is_looked_up_when_verify_runs(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ValueError("math domain error")

        monkeypatch.setitem(SUITES, "growth", fail)
        code, out, err = run_cli(["verify", "--suite", "growth"], capsys)
        assert code == 4 and out == ""
        assert err == "numeric failure: math domain error\n"

    @pytest.mark.parametrize("argv, patch", [
        (["render", "--width", "4", "--height", "4"],
         lambda mp, fail: mp.setattr(bakerbench, "render_slice", fail)),
        (["verify", "--suite", "growth"],
         lambda mp, fail: mp.setitem(SUITES, "growth", fail)),
    ])
    def test_memory_error_is_numeric_failure(self, argv, patch, tmp_path,
                                             monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 TiB")

        monkeypatch.chdir(tmp_path)
        patch(monkeypatch, fail)
        code, out, err = run_cli(argv, capsys)
        assert code == 4 and out == ""
        assert err == "numeric failure: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, expected_code, expected_out", [
        (["iterate", "--z=-1.7e308,746", "--w=1.7e308,-710", "--steps=3"], 0,
         "margin=inf u_n=-2.0\nnotice=orbit-truncated-by-overflow overflow_step=0\n"),
        (["iterate", "--z=500,1.7e308", "--w=500,-0.5e308", "--steps=3"], 0,
         "n=0 re_z=500.0 im_z=1.7e+308 re_w=500.0 im_w=-5e+307 margin=0.0 "
         "u_n=-1.0\nnotice=orbit-truncated-by-overflow overflow_step=0\n"),
        (["iterate", "--z=500,-1.7e308", "--w=500,0.5e308", "--steps=3"], 0,
         "n=0 re_z=500.0 im_z=-1.7e+308 re_w=500.0 im_w=5e+307 margin=0.0 "
         "u_n=-1.0\nnotice=orbit-truncated-by-overflow overflow_step=0\n"),
        (["psh", "--center-z=1e16,5", "--center-w=746,746", "--dir-z=1e16,746",
          "--dir-w=0.5,5", "--radius=1.7e308", "--samples=64", "--n=0"], 4, None),
        (["render", "--w-fixed=1.7e308,0", "--xmin=-1.7e308", "--xmax=-1.6e308",
          "--ymin=0", "--ymax=0", "--width=1", "--height=1"], 0,
         "entered=0 overflowed=1 not_entered=0\n"),
    ], ids=["iterate", "iterate-r-inf", "iterate-r-inf-reversed", "psh", "render"])
    def test_seed_whose_margin_leaves_double_range_warns_nothing(
            self, argv, expected_code, expected_out, tmp_path, monkeypatch, capsys):
        # w - z overflows, or is inf - inf, at the seed: the margin is not
        # finite, and the seed overflows at step 0, also where it lies in
        # R_inf and its image is finite.
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == expected_code
        if code == 0:
            assert out.endswith(expected_out) and err == ""
        else:
            assert out == ""
            assert err == "numeric failure: only 0 of 64 circle points usable\n"


class TestPsh:
    def test_probe_report(self, capsys):
        code, out, _ = run_cli(
            ["psh", "--center-z", "2,0", "--center-w", "4,0",
             "--radius", "0.01", "--samples", "64", "--n", "5"], capsys
        )
        assert code == 0
        deficit = float(out.split("deficit=")[1].split()[0])
        assert deficit >= -1e-6
        assert "valid_samples=64" in out

    def test_bad_samples(self, capsys):
        code, _, _ = run_cli(
            ["psh", "--center-z", "2,0", "--center-w", "4,0",
             "--samples", "4"], capsys
        )
        assert code == 2

    def test_too_few_usable_samples_is_numeric_failure(self, capsys):
        code, _, err = run_cli(
            ["psh", "--center-z=-118.5,4.7", "--center-w=-102.4,0.3",
             "--dir-z", "1,0", "--dir-w", "1,0", "--radius", "1", "--n", "2"],
            capsys
        )
        assert code == 4
        assert "only 14 of 64 circle points usable" in err

    def test_centre_orbit_overflow_is_numeric_failure(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["psh", "--center-z=-800,0", "--center-w=0,0", "--n", "1",
             "--out", str(tmp_path / "p.out")], capsys
        )
        assert (code, out) == (4, "")
        assert err == ("numeric failure: no u_1 at the centre: its orbit "
                       "overflows or |w_n| + |z_n| = 0\n")
        assert list(tmp_path.iterdir()) == []

    def test_circle_past_double_range_warns_nothing(self, capsys):
        # lambda * dir_z overflows on most of the circle of radius 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                ["psh", "--center-z", "2,0", "--center-w", "4,0",
                 "--dir-z", "10,0", "--radius", "1e308"], capsys
            )
        assert code == 4
        assert err == "numeric failure: only 0 of 64 circle points usable\n"


@pytest.mark.parametrize("argv", [
    ["render", "--xmin", "nan"],
    ["render", "--xmax", "inf"],
    ["render", "--ymin=-inf"],
    ["render", "--alpha-threshold", "nan"],
    ["render", "--w-fixed", "0,nan"],
    ["witness", "--target", "nan,0", "--count", "2"],
    ["psh", "--center-z", "2,0", "--center-w", "4,0", "--radius", "nan"],
    ["iterate", "--z", "inf,0", "--w", "0,0", "--steps", "1"],
    ["render", "--xmin", "abc"],
])
def test_non_finite_number_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(argv + ["--out", "x.out"], capsys)
    assert code == 2
    assert out == "" and list(tmp_path.iterdir()) == []


class TestConfig:
    def test_config_merges_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"z": "2,0", "w": "4,0", "steps": 3,
                                   "no-such-option": "x"}))
        code, out, _ = run_cli(
            ["iterate", "--config", str(cfg), "--steps", "1"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "steps=1" in lines[0]  # flag beat the config
        assert "z=2.0,0.0" in lines[0]  # config value echoed
        assert len(lines) == 3  # header + 2 rows

    def test_config_as_last_argument_is_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "growth", "--config"], capsys)
        assert code == 2

    def test_config_with_equals_sign(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"samples": 5}))
        code, out, _ = run_cli(
            ["verify", "--suite", "growth", "--steps", "3", f"--config={cfg}"],
            capsys
        )
        assert code == 0
        assert "samples=5" in out.splitlines()[1]

    def test_config_abbreviated_with_equals_sign(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"samples": 5}))
        code, out, _ = run_cli(
            ["verify", "--suite", "growth", "--steps", "3", f"--conf={cfg}"],
            capsys
        )
        assert code == 0
        assert "samples=5" in out.splitlines()[1]

    def test_config_file_as_last_argument(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"samples": 5}))
        code, out, _ = run_cli(
            ["verify", "--suite", "growth", "--steps", "3", "--config", str(cfg)],
            capsys
        )
        assert code == 0
        assert "samples=5" in out.splitlines()[1]

    @pytest.mark.parametrize("token, may", [
        ("--c", True), ("--conf=x.json", True), ("--config", True),
        ("--config=", True), ("--", False), ("-c", False), ("--configs", False),
        ("--center-z=2,0", False), ("--count=8", False), ("config", False),
    ])
    def test_tokens_that_may_name_config(self, token, may):
        assert cli._may_name_config(token) is may

    def test_psh_argv_skips_the_config_parse(self, monkeypatch, capsys):
        argv = ["psh", "--center-z=2,0", "--center-w=4,0", "--dir-z=1,0",
                "--dir-w=0,1", "--radius=0.1", "--samples=16", "--n=3"]
        expected = run_cli(argv, capsys)
        calls = []
        parse = cli._PRE.parse_known_args
        monkeypatch.setattr(cli._PRE, "parse_known_args",
                            lambda *a: calls.append(a) or parse(*a))
        assert run_cli(argv, capsys) == expected
        assert expected[0] == 0 and calls == []
        run_cli(["iterate", "--z", "0,0", "--w", "0,0", "--steps", "1",
                 "--conf=missing.json"], capsys)
        assert len(calls) == 1

    def test_comma_in_path_is_not_complex(self, tmp_path, capsys):
        out = tmp_path / "a,b.txt"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out": str(out)}))
        code, _, _ = run_cli(
            ["iterate", "--config", str(cfg), "--z", "0,0", "--w", "0,0",
             "--steps", "1"], capsys
        )
        assert code == 0
        assert "re_w=2.0" in out.read_text()

    @pytest.mark.parametrize("value", [None, True, [1], {"a": 1}])
    def test_config_value_must_be_string_or_number(
        self, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out": value}))
        code, _, _ = run_cli(
            ["iterate", "--config", str(cfg), "--z", "0,0", "--w", "0,0",
             "--steps", "1"], capsys
        )
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_config_value_takes_the_choices_of_its_flag(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        code, out, _ = run_cli(
            ["verify", "--suite", "growth", "--config", str(cfg)], capsys
        )
        assert code == 2
        assert out == ""

    def test_malformed_entry_is_usage_error_even_when_overridden(
        self, tmp_path, capsys
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"samples": "abc"}))
        code, _, _ = run_cli(
            ["verify", "--suite", "growth", "--config", str(cfg),
             "--samples", "5"], capsys
        )
        assert code == 2

    def test_config_does_not_outlive_its_call(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"samples": 5}))
        argv = ["verify", "--suite", "growth", "--steps", "1"]
        code, out, _ = run_cli(argv + ["--config", str(cfg)], capsys)
        assert code == 0 and "samples=5" in out.splitlines()[0]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and "samples=1000" in out.splitlines()[0]

    def test_main_builds_no_parser(self, tmp_path, monkeypatch, capsys):
        def build_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", build_parser)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": 2}))
        argv = ["iterate", "--z", "0,0", "--w", "0,0"]
        assert run_cli(argv + ["--config", str(cfg)], capsys)[0] == 0
        assert run_cli(argv + ["--steps", "1"], capsys)[0] == 0

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1,2]")
        code, _, _ = run_cli(
            ["iterate", "--config", str(cfg), "--z", "0,0", "--w", "0,0",
             "--steps", "1"], capsys
        )
        assert code == 2


def test_installed_entry_point_runs():
    src = str(Path(bakerbench.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "bakerbench", "iterate",
         "--z", "0,0", "--w", "0,0", "--steps", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "re_w=2.0" in proc.stdout
