"""The three benchmark workloads: their inputs, made from the seed, and the
timed rounds that drive bakerbench with them.

A workload object is built from (seed, out_dir).  ``run_round`` performs
one round of the timed operations, the same operations every round, and
returns what they produced; ``digest`` reduces a round to bytes that must
repeat exactly from round to round.  ``work`` is the work one round
requests: seed-steps for verify, pixels for the render workloads.  The
outputs are checked in checks.py, after the timed section.

Every timed operation is ``bakerbench.cli.main(argv)`` where the CLI can
express it, looked up at call time so that the tracer can wrap it; the
w-plane render has no CLI form and calls the public library instead.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import random
from pathlib import Path

import numpy as np

import bakerbench
import bakerbench.cli

SIDE = 512
BUDGET = 200
WINDOW = (-5.0, 5.0)
RENDER_WORKERS = 2  # nproc of the machine the workloads were sized on

# psh-range (2*10^3 x 20) is left out: on about 8% of seeds it stops with
# an OverflowError or a math domain error (see CHANGES.md), and a failure
# that depends on the seed would make runs incomparable.
VERIFY_SUITES = (
    ("invariance", 10_000, 30),
    ("growth", 10_000, 30),
    ("telescoping", 1_000, 30),
)
PSH_PROBES = 96
PSH_SAMPLES = 128
PSH_N = 20
WITNESS_TARGETS = 4
WITNESS_COUNT = 8


def cli_call(argv: list[str]) -> tuple[int, str]:
    """bakerbench.cli.main(argv) with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = bakerbench.cli.main(argv)
        except SystemExit as exc:  # argparse rejected argv
            code = exc.code
    return code, buf.getvalue()


def _c(value: complex) -> str:
    return f"{value.real!r},{value.imag!r}"


def _window_args() -> list[str]:
    lo, hi = WINDOW
    return [f"--xmin={lo!r}", f"--xmax={hi!r}", f"--ymin={lo!r}", f"--ymax={hi!r}",
            f"--width={SIDE}", f"--height={SIDE}", f"--budget={BUDGET}"]


def _digest(items) -> bytes:
    """sha256 over the items; a Path contributes the file's bytes."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, Path):
            with item.open("rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
        elif isinstance(item, np.ndarray):
            h.update(item.tobytes())
        else:
            h.update(repr(item).encode())
    return h.digest()


def probe_lines(seed: int) -> list[dict]:
    """Half the probe lines are centred in L, half outside it.

    Both kinds keep Re z, Re w >= 0.5, so no circle point comes near the
    overflow rule within PSH_N steps and every sample stays valid.
    """
    rng = random.Random(f"psh-{seed}")
    probes = []
    for k in range(PSH_PROBES):
        if k % 2 == 0:
            rez = rng.uniform(1.5, 20.0)
            z = complex(rez, rng.uniform(-20.0, 20.0))
            w = complex(rez + rng.uniform(2.0, 15.0), rng.uniform(-20.0, 20.0))
        else:
            rez = rng.uniform(0.5, 4.0)
            z = complex(rez, rng.uniform(-3.0, 3.0))
            w = complex(rng.uniform(0.5, rez + 0.9), rng.uniform(-3.0, 3.0))
        probes.append({
            "z": z, "w": w,
            "dz": cmath.rect(1.0, rng.uniform(-math.pi, math.pi)),
            "dw": cmath.rect(rng.uniform(0.0, 1.0), rng.uniform(-math.pi, math.pi)),
            "radius": rng.uniform(0.005, 0.05),
        })
    return probes


def witness_targets(seed: int) -> list[complex]:
    """Targets c with 0.2 <= |c| <= 4 in every direction."""
    rng = random.Random(f"witness-{seed}")
    return [cmath.rect(rng.uniform(0.2, 4.0), rng.uniform(-math.pi, math.pi))
            for _ in range(WITNESS_TARGETS)]


class Verify:
    """The four suites at acceptance size, psh probes and witness targets."""

    name = "verify"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.probes = probe_lines(seed)
        self.targets = witness_targets(seed)
        self.argvs = [
            ["verify", "--suite", suite, "--samples", str(samples),
             "--seed", str(seed), "--steps", str(steps), "--format", "tree"]
            for suite, samples, steps in VERIFY_SUITES
        ] + [
            # name=value, since a value such as -0.5,0.3 reads as a flag
            ["psh", f"--center-z={_c(p['z'])}", f"--center-w={_c(p['w'])}",
             f"--dir-z={_c(p['dz'])}", f"--dir-w={_c(p['dw'])}",
             f"--radius={p['radius']!r}", f"--samples={PSH_SAMPLES}",
             f"--n={PSH_N}", "--format=tree"]
            for p in self.probes
        ] + [
            ["witness", f"--target={_c(c)}", f"--count={WITNESS_COUNT}",
             "--format=tree"]
            for c in self.targets
        ]
        # Requested seed-steps: the suites' samples x steps plus every
        # probe orbit (centre and circle nodes) of PSH_N steps.
        self.work = (sum(s * n for _, s, n in VERIFY_SUITES)
                     + PSH_PROBES * (PSH_SAMPLES + 1) * PSH_N)

    def run_round(self) -> dict:
        results = [cli_call(argv) for argv in self.argvs]
        n = len(VERIFY_SUITES)
        return {"suites": results[:n], "probes": results[n:n + PSH_PROBES],
                "witnesses": results[n + PSH_PROBES:]}

    def digest(self, out: dict) -> bytes:
        return _digest([out])


def z_plane_spec(w: complex):
    """The z-plane slice at the given w over the window, as the CLI's
    ``render --w-fixed`` draws it."""
    return bakerbench.SliceSpec(
        base=bakerbench.PlanePoint(0j, w),
        dir_u=bakerbench.PlanePoint(1 + 0j, 0j),
        dir_v=bakerbench.PlanePoint(1j, 0j),
        u_range=WINDOW, v_range=WINDOW, width=SIDE, height=SIDE)


def w_plane_spec():
    """The w-plane slice at z = 0 over the same window."""
    return bakerbench.SliceSpec(
        base=bakerbench.PlanePoint(0j, 0j),
        dir_u=bakerbench.PlanePoint(0j, 1 + 0j),
        dir_v=bakerbench.PlanePoint(0j, 1j),
        u_range=WINDOW, v_range=WINDOW, width=SIDE, height=SIDE)


class RenderHard:
    """z-plane slice at w = 0.2 through the CLI, w-plane slice at z = 0
    through render_slice + write_ppm, PPM output only."""

    name = "render-hard"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.z_ppm = out_dir / "hard_z.ppm"
        self.w_ppm = out_dir / "hard_w.ppm"
        self.argv = (["render", "--w-fixed", "0.2,0"] + _window_args()
                     + ["--workers", str(RENDER_WORKERS), "--out", str(self.z_ppm),
                        "--format", "tree"])
        self.w_spec = w_plane_spec()
        self.palette = bakerbench.PaletteSpec()
        self.work = 2 * SIDE * SIDE

    def run_round(self) -> dict:
        code, text = cli_call(self.argv)
        raster = bakerbench.render_slice(self.w_spec, BUDGET, workers=RENDER_WORKERS)
        self.w_ppm.write_bytes(bakerbench.write_ppm(raster, self.palette))
        return {"z": (code, text), "raster": raster}

    def digest(self, out: dict) -> bytes:
        r = out["raster"]
        return _digest([out["z"], self.z_ppm, r.codes, r.steps, self.w_ppm])


class RenderDump:
    """The default slice (w = 4) with the CSV grid dump."""

    name = "render-dump"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.ppm = out_dir / "dump.ppm"
        self.csv = out_dir / "dump.csv"
        self.argv = (["render", "--w-fixed", "4,0"] + _window_args()
                     + ["--out", str(self.ppm), "--csv-out", str(self.csv),
                        "--format", "tree"])
        self.work = SIDE * SIDE

    def run_round(self) -> dict:
        return {"cli": cli_call(self.argv)}

    def digest(self, out: dict) -> bytes:
        return _digest([out["cli"], self.ppm, self.csv])


WORKLOADS = {w.name: w for w in (Verify, RenderHard, RenderDump)}


def code_tags(raster) -> dict[int, str]:
    """The tag of each code value in raster.codes, read through the public
    RasterResult.pixel rather than the module's private code table."""
    values, first = np.unique(raster.codes, return_index=True)
    width = raster.codes.shape[1]
    return {int(v): raster.pixel(int(n) % width, int(n) // width).tag
            for v, n in zip(values, first)}
