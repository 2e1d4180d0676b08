"""bakerbench: numerical workbench for the transcendental skew-product
F(z, w) = (e^{-(z+w)} + z + w, e^{-2w} + 2w + 1).

Subpackages cover map evaluation and orbits (core), the invariant wedge
and its verification (domain), essential-singularity witnesses (witness),
plurisubharmonic diagnostics (psh), basin rendering (render), randomized
verification suites (suites), and a CLI (cli).
"""

__version__ = "0.1.0"

from .core import EXP_MAX, OverflowSignal, PlanePoint, apply_f, orbit, safe_exp
from .domain import (
    RatioProfile,
    in_L,
    ratio_profile,
)
from .psh import InsufficientSamples, ProbeSpec, SubmeanReport, submean_check, u_n
from .render import (
    PaletteSpec,
    PixelClass,
    RasterResult,
    SliceSpec,
    classify_point,
    grid_csv_blocks,
    render_slice,
    write_ppm,
)
from .witness import (
    ProjectiveDirection,
    SolverFailure,
    WitnessSequence,
    find_witnesses,
    first_coord_identity_residual,
    h_eval,
    image_direction,
)

__all__ = [
    "EXP_MAX",
    "InsufficientSamples",
    "OverflowSignal",
    "PaletteSpec",
    "PixelClass",
    "PlanePoint",
    "ProbeSpec",
    "ProjectiveDirection",
    "RasterResult",
    "RatioProfile",
    "SliceSpec",
    "SolverFailure",
    "SubmeanReport",
    "WitnessSequence",
    "apply_f",
    "classify_point",
    "find_witnesses",
    "first_coord_identity_residual",
    "grid_csv_blocks",
    "h_eval",
    "image_direction",
    "in_L",
    "orbit",
    "ratio_profile",
    "render_slice",
    "safe_exp",
    "submean_check",
    "u_n",
    "write_ppm",
]
