"""Basin rendering: classify 2D slices of C^2 by first entry into L.

Each pixel seeds an orbit and is classified by the first step at which it
lands in the wedge L (approximating the absorbing basin as the union of
preimages of L under a finite iteration budget), by overflow, or as
undetermined within the budget.  The classifier iterates ``core.step``
over a compacted active set and tests ``domain.in_wedge`` on the carried
margin.  The slice is cut into chunks of interleaved whole rows,
classified independently by a pool of workers into disjoint output rows,
so grids and emitted bytes are identical for any worker count.
"""

from __future__ import annotations

import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import PlanePoint, step
from .domain import L_THRESHOLD, in_wedge

_CODE_NOT_ENTERED = 0
_CODE_ENTERED = 1
_CODE_OVERFLOWED = 2
_CODE_TO_TAG = {
    _CODE_NOT_ENTERED: "not_entered",
    _CODE_ENTERED: "entered",
    _CODE_OVERFLOWED: "overflowed",
}

# Pixels per chunk of work, rounded down to whole rows.  It bounds the
# memory of the classifier's temporaries, whatever the image size.
CHUNK_PIXELS = 1 << 16


@dataclass(frozen=True)
class PixelClass:
    tag: str
    step: int | None = None


def _pixel_class(code: int, step: int) -> PixelClass:
    return PixelClass(_CODE_TO_TAG[code], step if code != _CODE_NOT_ENTERED else None)


@dataclass(frozen=True)
class SliceSpec:
    """Affine 2D slice base + u*dir_u + v*dir_v with pixel centers at
    half-steps of the u/v ranges."""

    base: PlanePoint
    dir_u: PlanePoint
    dir_v: PlanePoint
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be >= 1")
        if self.dir_u.z == 0 and self.dir_u.w == 0:
            raise ValueError("dir_u must be nonzero")
        if self.dir_v.z == 0 and self.dir_v.w == 0:
            raise ValueError("dir_v must be nonzero")

    def pixel_center(self, i: int, j: int) -> PlanePoint:
        u0, u1 = self.u_range
        v0, v1 = self.v_range
        u = u0 + (i + 0.5) * (u1 - u0) / self.width
        v = v0 + (j + 0.5) * (v1 - v0) / self.height
        return PlanePoint(
            self.base.z + u * self.dir_u.z + v * self.dir_v.z,
            self.base.w + u * self.dir_u.w + v * self.dir_v.w,
        )


def _row_chunks(spec: SliceSpec) -> list[np.ndarray]:
    """Rows of the chunks of the slice.  Chunk c of n takes every n-th row
    from row c, so each chunk samples the whole slice and the chunks take
    about the same time; contiguous bands of rows can differ in cost by 2x
    and leave one worker classifying alone at the end."""
    n = -(-spec.height // max(1, CHUNK_PIXELS // spec.width))
    return [np.arange(c, spec.height, n) for c in range(n)]


def _pixel_grid(spec: SliceSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centres (z, w) of the pixels in the given rows, as (len(rows), width)
    arrays, by the formula of SliceSpec.pixel_center."""
    u0, u1 = spec.u_range
    v0, v1 = spec.v_range
    u = u0 + (np.arange(spec.width) + 0.5) * (u1 - u0) / spec.width
    v = v0 + (rows[:, None] + 0.5) * (v1 - v0) / spec.height
    z = spec.base.z + u * spec.dir_u.z + v * spec.dir_v.z
    w = spec.base.w + u * spec.dir_u.w + v * spec.dir_v.w
    return z.astype(np.complex128), w.astype(np.complex128)


def _classify(
    z: np.ndarray, w: np.ndarray, budget: int, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """classify_point on flat arrays of seeds, as (codes, steps) with steps
    -1 where none applies.  Only undecided seeds are iterated: idx holds
    their positions and (z, w, d) their states."""
    codes = np.full(z.shape, _CODE_NOT_ENTERED, dtype=np.uint8)
    steps = np.full(z.shape, -1, dtype=np.int32)
    idx = np.arange(z.size)
    d = w - z
    for k in range(budget + 1):
        inside = in_wedge(z, w, d, threshold)
        if inside.any():
            codes[idx[inside]] = _CODE_ENTERED
            steps[idx[inside]] = k
            out = ~inside
            idx, z, w, d = idx[out], z[out], w[out], d[out]
        if k == budget or not idx.size:
            break
        z, w, d, ok = step(z, w, d)
        if not ok.all():
            codes[idx[~ok]] = _CODE_OVERFLOWED
            steps[idx[~ok]] = k
            idx, z, w, d = idx[ok], z[ok], w[ok], d[ok]
    return codes, steps


def classify_point(
    p: PlanePoint, budget: int, threshold: float = L_THRESHOLD
) -> PixelClass:
    """First entry into L within the budget: membership is checked at every
    step k = 0..budget; overflow at step k means the state after k steps
    was the last finite one."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    codes, steps = _classify(*p.arrays(), budget, threshold)
    return _pixel_class(int(codes[0]), int(steps[0]))


@dataclass(frozen=True)
class RasterResult:
    spec: SliceSpec
    budget: int
    threshold: float
    codes: np.ndarray = field(repr=False)  # (height, width) uint8
    steps: np.ndarray = field(repr=False)  # (height, width) int32, -1 = none

    def pixel(self, i: int, j: int) -> PixelClass:
        return _pixel_class(int(self.codes[j, i]), int(self.steps[j, i]))

    @property
    def stats(self) -> dict[str, int]:
        counts = np.bincount(self.codes.ravel(), minlength=len(_CODE_TO_TAG))
        return {_CODE_TO_TAG[c]: int(counts[c])
                for c in (_CODE_ENTERED, _CODE_OVERFLOWED, _CODE_NOT_ENTERED)}


def render_slice(
    spec: SliceSpec,
    budget: int,
    threshold: float = L_THRESHOLD,
    workers: int = 1,
) -> RasterResult:
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    codes = np.empty((spec.height, spec.width), dtype=np.uint8)
    steps = np.empty((spec.height, spec.width), dtype=np.int32)

    def run(rows: np.ndarray) -> None:
        z, w = _pixel_grid(spec, rows)
        c, s = _classify(z.ravel(), w.ravel(), budget, threshold)
        codes[rows] = c.reshape(rows.size, spec.width)
        steps[rows] = s.reshape(rows.size, spec.width)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, _row_chunks(spec)))
    return RasterResult(spec=spec, budget=budget, threshold=threshold,
                        codes=codes, steps=steps)


@dataclass(frozen=True)
class PaletteSpec:
    """Fully explicit tag -> RGB mapping; step-indexed colors cycle."""

    not_entered: tuple[int, int, int] = (0, 0, 0)
    entered_cycle: tuple[tuple[int, int, int], ...] = (
        (255, 255, 255), (66, 135, 245), (245, 197, 66), (66, 245, 149),
        (245, 66, 221), (170, 245, 66), (66, 221, 245), (245, 120, 66),
        (144, 66, 245), (245, 245, 66), (66, 245, 66), (245, 66, 120),
        (66, 96, 245), (192, 192, 192), (245, 170, 120), (120, 245, 218),
    )
    overflowed_cycle: tuple[tuple[int, int, int], ...] = tuple(
        (255 - 12 * k, 0, 0) for k in range(16)
    )

    def __post_init__(self) -> None:
        for rgb in (self.not_entered, *self.entered_cycle, *self.overflowed_cycle):
            if len(rgb) != 3 or any(not (0 <= v <= 255) for v in rgb):
                raise ValueError(f"bad RGB triple {rgb!r}")
        if not self.entered_cycle or not self.overflowed_cycle:
            raise ValueError("palette cycles must be nonempty")

    @classmethod
    def from_mapping(cls, data: dict) -> "PaletteSpec":
        def triple(x) -> tuple[int, int, int]:
            r, g, b = x
            return (int(r), int(g), int(b))

        kwargs = {}
        if "not_entered" in data:
            kwargs["not_entered"] = triple(data["not_entered"])
        if "entered_cycle" in data:
            kwargs["entered_cycle"] = tuple(triple(x) for x in data["entered_cycle"])
        if "overflowed_cycle" in data:
            kwargs["overflowed_cycle"] = tuple(
                triple(x) for x in data["overflowed_cycle"]
            )
        return cls(**kwargs)


def write_ppm(r: RasterResult, palette: PaletteSpec) -> bytes:
    """Binary P6 pixmap, row-major top-to-bottom, byte-exact for fixed input."""
    ent = np.array(palette.entered_cycle, dtype=np.uint8)
    ovf = np.array(palette.overflowed_cycle, dtype=np.uint8)
    img = np.empty((r.spec.height, r.spec.width, 3), dtype=np.uint8)
    img[...] = np.array(palette.not_entered, dtype=np.uint8)
    mask = r.codes == _CODE_ENTERED
    img[mask] = ent[r.steps[mask] % len(ent)]
    mask = r.codes == _CODE_OVERFLOWED
    img[mask] = ovf[r.steps[mask] % len(ovf)]
    header = f"P6\n{r.spec.width} {r.spec.height}\n255\n".encode("ascii")
    return header + img.tobytes()


def write_grid_csv(r: RasterResult) -> bytes:
    """CSV dump: i,j,re_z,im_z,re_w,im_w,tag,step (step empty if none)."""
    out = io.BytesIO()
    out.write(b"i,j,re_z,im_z,re_w,im_w,tag,step\n")
    columns = range(r.spec.width)
    block = max(1, CHUNK_PIXELS // r.spec.width)
    for lo in range(0, r.spec.height, block):
        z, w = _pixel_grid(r.spec, np.arange(lo, min(lo + block, r.spec.height)))
        for j in range(lo, lo + len(z)):
            zj, wj = z[j - lo], w[j - lo]
            out.write("".join(
                f"{i},{j},{a!r},{b!r},{c!r},{e!r},{_CODE_TO_TAG[code]},"
                f"{'' if code == _CODE_NOT_ENTERED else s}\n"
                for i, a, b, c, e, code, s in zip(
                    columns, zj.real.tolist(), zj.imag.tolist(), wj.real.tolist(),
                    wj.imag.tolist(), r.codes[j].tolist(), r.steps[j].tolist())
            ).encode("ascii"))
    return out.getvalue()
