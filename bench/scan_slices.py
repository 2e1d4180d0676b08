"""Classify every pixel of the benchmark's three slices with the mpmath
reference and count disagreements with the program by conditioning.

    python3 bench/scan_slices.py [w=0.2] [w-plane] [default]

Prints, per slice, the pixels that disagree, the ill-conditioned pixels
(reference.classify) and the disagreements among well-conditioned pixels,
which the seeded reference sample would turn into seed-dependent failures.
Takes about 20 minutes for all three slices on one CPU.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import bakerbench  # noqa: E402

import reference  # noqa: E402
from checks import pixel_center  # noqa: E402
from workloads import BUDGET, SIDE, w_plane_spec, z_plane_spec  # noqa: E402


SLICES = {
    "w=0.2": ("z", 0.2 + 0j, z_plane_spec(0.2 + 0j)),
    "w-plane": ("w", 0j, w_plane_spec()),
    "default": ("z", 4 + 0j, z_plane_spec(4 + 0j)),
}


def main(names) -> None:
    for name in names:
        plane, fixed, spec = SLICES[name]
        raster = bakerbench.render_slice(spec, BUDGET)
        disagree = ill_total = well_disagree = 0
        for j in range(SIDE):
            for i in range(SIDE):
                tag, step, ill = reference.classify(*pixel_center(plane, fixed, i, j), BUDGET)
                pc = raster.pixel(i, j)
                ill_total += ill
                if (tag, step) != (pc.tag, pc.step):
                    disagree += 1
                    well_disagree += not ill
        print(f"{name}: disagree={disagree} ill_conditioned={ill_total} "
              f"well_conditioned_disagree={well_disagree}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or list(SLICES))
