"""bakerbench: numerical workbench for the transcendental skew-product
F(z, w) = (e^{-(z+w)} + z + w, e^{-2w} + 2w + 1).

Modules cover map evaluation and orbits (core), the invariant wedge
and its verification (domain), essential-singularity witnesses (witness),
plurisubharmonic diagnostics (psh), basin rendering (render), randomized
verification suites (suites), and a CLI (cli).

``import bakerbench`` loads no submodule.  Each public name loads its
module on first use (PEP 562) and is then bound in the package, so that
``bakerbench.SliceSpec is bakerbench.render.SliceSpec``.
"""

__version__ = "0.1.0"

_PUBLIC = {
    "core": ("EXP_MAX", "OverflowSignal", "PlanePoint", "apply_f", "orbit", "safe_exp"),
    "domain": ("RatioProfile", "in_L", "ratio_profile"),
    "psh": ("InsufficientSamples", "ProbeSpec", "SubmeanReport", "submean_check", "u_n"),
    "render": ("PaletteSpec", "PixelClass", "RasterResult", "SliceSpec", "classify_point",
               "grid_csv_blocks", "render_slice", "write_ppm"),
    "witness": ("ProjectiveDirection", "SolverFailure", "WitnessSequence", "find_witnesses",
                "first_coord_identity_residual", "h_eval", "image_direction"),
}
_MODULE = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_MODULE)


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_MODULE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
