"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and are not adjusted to the observed
behavior of the implementation.
"""

import json
import math
import time

import numpy as np
import pytest

from bakerbench.cli import main as cli_main
from bakerbench.core import PlanePoint
from bakerbench.domain import in_L, ratio_profile
from bakerbench.psh import ProbeSpec, submean_check, u_n
from bakerbench.render import PaletteSpec, SliceSpec, render_slice, write_ppm
from bakerbench.suites import (
    growth_suite,
    invariance_suite,
    psh_range_suite,
    telescoping_suite,
)
from bakerbench.witness import find_witnesses, first_coord_identity_residual

SEED = 20260823


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def test_criterion_1_invariance():
    t0 = time.perf_counter()
    res = invariance_suite(10_000, SEED, 30)
    elapsed = time.perf_counter() - t0
    ok = res.violations == 0 and elapsed < 5.0
    assert report(
        "1 invariance (10^4 seeds, 30 steps)",
        ok,
        f"violations={res.violations} min_margin={res.worst:.3g} "
        f"runtime={elapsed:.2f}s",
    )


def test_criterion_2_growth_bounds():
    res = growth_suite(10_000, SEED, 30)
    ok = res.violations == 0
    assert report(
        "2 growth bounds (Re w_k > 2 Re w_0 + k/2, Re z_k > Re z_0 + k/2)",
        ok,
        f"violations={res.violations} min_slack={res.worst:.3g}",
    )


def test_criterion_3_telescoping():
    res = telescoping_suite(1_000, SEED, 30)
    assert res.notes["tolerance"] == 1e-9
    ok = res.violations == 0
    assert report(
        "3 telescoping identity (10^3 seeds, n=30, rel residual <= 1e-9)",
        ok,
        f"violations={res.violations} max_residual={res.worst:.3g}",
    )


def test_criterion_4_u_range_and_limit():
    range_res = psh_range_suite(2_000, SEED, 20)
    rng = np.random.Generator(np.random.PCG64(SEED))
    worst = 0.0
    for _ in range(500):
        rez = rng.uniform(1.0, 50.0)
        seed = PlanePoint(
            complex(rez, rng.uniform(-100, 100)),
            complex(rez + 1.0 + rng.uniform(0.0, 50.0), rng.uniform(-100, 100)),
        )
        assert in_L(seed)
        worst = max(worst, abs(u_n(seed, 40) + 1.0))  # raises unless completed
    ok = range_res.violations == 0 and worst <= 1e-9
    assert report(
        "4 u_n range [-2,0] and |u_40 + 1| <= 1e-9 on L",
        ok,
        f"range_violations={range_res.violations} worst|u_40+1|={worst:.3g}",
    )


def test_criterion_5_witnesses():
    t0 = time.perf_counter()
    exact = find_witnesses(0.75 + 0j, 10)
    ok = all(r <= 1e-12 for r in exact.residuals)
    worst = max(exact.residuals)
    for target in (0j, 1 + 0j, 2 + 1j):
        seq = find_witnesses(target, 5)
        ok &= len(seq.zetas) == 5
        ok &= all(r <= 1e-8 for r in seq.residuals)
        ok &= all(b > a for a, b in zip(seq.moduli, seq.moduli[1:]))
        worst = max(worst, max(seq.residuals))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert report(
        "5 witnesses (exact 3/4 family; c in {0, 1, 2+i})",
        ok,
        f"max_residual={worst:.3g} runtime={elapsed:.2f}s",
    )


def test_criterion_6_first_coord_identity():
    rng = np.random.Generator(np.random.PCG64(SEED))
    worst = 0.0
    count = 0
    while count < 1_000:
        r = 50.0 * math.sqrt(rng.uniform())
        th = rng.uniform(0.0, 2 * math.pi)
        zeta = complex(r * math.cos(th), r * math.sin(th))
        if zeta == 0 or zeta.real < -100:
            continue
        count += 1
        worst = max(worst, first_coord_identity_residual(zeta))
    ok = worst <= 1e-10
    assert report(
        "6 first-coordinate identity residual <= 1e-10 (10^3 points)",
        ok,
        f"max_residual={worst:.3g}",
    )


def test_criterion_7_quadrature_oracles():
    spec = lambda radius, samples: ProbeSpec(  # noqa: E731
        center=PlanePoint(2 + 0j, 4 + 0j),
        direction=PlanePoint(1 + 0j, 0j),
        radius=radius,
        samples=samples,
    )
    worst_h = 0.0
    worst_m = 0.0
    ok = True
    for radius in (1e-3, 1e-2, 1e-1, 1.0):
        for samples in (16, 64, 256):
            harm = submean_check(spec(radius, samples), 0,
                                 func=lambda lam: lam.real)
            mod2 = submean_check(spec(radius, samples), 0,
                                 func=lambda lam: abs(lam) ** 2)
            worst_h = max(worst_h, abs(harm.deficit))
            worst_m = max(worst_m, abs(mod2.deficit - radius**2))
            ok &= abs(harm.deficit) <= 1e-14
            ok &= abs(mod2.deficit - radius**2) <= 1e-12
    assert report(
        "7 quadrature oracles (harmonic, |lambda|^2)",
        ok,
        f"worst_harmonic={worst_h:.3g} worst_modulus_sq={worst_m:.3g}",
    )


def test_criterion_8_ratio_stabilization():
    seeds = (PlanePoint(2 + 0j, 4 + 0j), PlanePoint(1.5 + 0j, 20 + 0j),
             PlanePoint(3 + 0j, 5 + 2j))
    ok = True
    details = []
    for seed in seeds:
        prof = ratio_profile(seed, 40)
        ok &= prof.stabilization_index is not None
        if prof.stabilization_index is not None:
            details.append(
                f"k={prof.stabilization_index} "
                f"w/z={prof.stabilized_w_over_z:.6f}"
            )
    assert report(
        "8 ratio stabilization within 40 steps (values reported, no limit asserted)",
        ok,
        "; ".join(details),
    )


def test_criterion_9_renderer():
    spec = SliceSpec(
        base=PlanePoint(0j, 4 + 0j),
        dir_u=PlanePoint(1 + 0j, 0j),
        dir_v=PlanePoint(1j, 0j),
        u_range=(-5.0, 5.0),
        v_range=(-5.0, 5.0),
        width=512,
        height=512,
    )
    palette = PaletteSpec()
    t0 = time.perf_counter()
    images = {}
    for workers in (1, 4, 8):
        raster = render_slice(spec, 200, workers=workers)
        images[workers] = write_ppm(raster, palette)
    elapsed = time.perf_counter() - t0
    ok = images[1] == images[4] == images[8] and elapsed < 10.0

    low = render_slice(spec, 50)
    high = render_slice(spec, 200)
    rng = np.random.Generator(np.random.PCG64(SEED))
    mono_ok = True
    for _ in range(1_000):
        i = int(rng.integers(0, 512))
        j = int(rng.integers(0, 512))
        a, b = low.pixel(i, j), high.pixel(i, j)
        if a.tag != "not_entered":
            mono_ok &= a == b
        else:
            mono_ok &= b.tag != "overflowed" or b.step >= 50
    ok &= mono_ok
    assert report(
        "9 renderer determinism across workers + budget monotonicity",
        ok,
        f"byte_identical={images[1] == images[8]} monotone={mono_ok} "
        f"runtime={elapsed:.2f}s",
    )


def test_criterion_10_cli_end_to_end(tmp_path, capsys):
    ok = True
    notes = []

    code = cli_main(["iterate", "--z", "2,0", "--w", "4,0", "--steps", "5"])
    ok &= code == 0
    notes.append(f"iterate={code}")

    code = cli_main(["verify", "--suite", "invariance", "--samples", "500",
                     "--seed", "7", "--steps", "15"])
    out = capsys.readouterr().out
    ok &= code == 0 and "seed=7" in out and "generator=PCG64" in out
    notes.append(f"verify={code}")

    code = cli_main(["witness", "--target", "0.75,0", "--count", "3"])
    ok &= code == 0
    notes.append(f"witness={code}")

    ppm = tmp_path / "slice.ppm"
    code = cli_main(["render", "--width", "32", "--height", "32",
                     "--budget", "50", "--out", str(ppm)])
    ok &= code == 0 and ppm.read_bytes().startswith(b"P6\n32 32\n255\n")
    notes.append(f"render={code}")

    code = cli_main(["psh", "--center-z", "2,0", "--center-w", "4,0",
                     "--radius", "0.01", "--samples", "64", "--n", "5"])
    ok &= code == 0
    notes.append(f"psh={code}")

    # exit-code contract: usage error and numeric failure
    try:
        code = cli_main(["witness", "--target", "0.75,0", "--count", "0"])
    except SystemExit as exc:
        code = exc.code
    ok &= code == 2
    notes.append(f"usage={code}")

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"z": "2,0", "w": "4,0", "steps": 4}))
    code = cli_main(["iterate", "--config", str(cfg)])
    out = capsys.readouterr().out
    ok &= code == 0 and "steps=4" in out
    notes.append(f"config={code}")

    capsys.readouterr()
    assert report("10 CLI end-to-end (five subcommands, exit codes, echo)",
                  ok, " ".join(notes))
