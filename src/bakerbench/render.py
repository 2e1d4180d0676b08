"""Basin rendering: classify 2D slices of C^2 by first entry into L.

Each pixel seeds an orbit and is classified by the first step at which it
lands in the wedge L (approximating the absorbing basin as the union of
preimages of L under a finite iteration budget), by overflow, or as
undetermined within the budget.  The classifier iterates ``core.step``
over a compacted active set and tests ``domain.in_wedge`` on the carried
margin.  A seed leaves the active set early once the far-field
certificate (``_certify``; ``_classify`` states the proof) settles the
class that plain iteration gives it at the end of the budget, so codes
and steps are those of plain iteration.  The slice is cut into chunks of
interleaved whole rows, classified independently by a pool of workers
into disjoint output rows, so grids and emitted bytes are identical for
any worker count.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import PlanePoint, step
from .domain import (FAR_FIELD, FAR_MARGIN_STEP, FAR_MARGIN_STEP_MIN, L_THRESHOLD,
                     in_wedge)

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
        # The centres are affine in the pixel position, so the components
        # of the four corner centres bound those of every other centre:
        # where these are finite, all are.
        for i in (0, self.width - 1):
            for j in (0, self.height - 1):
                try:
                    self.pixel_center(i, j)
                except ValueError:
                    raise ValueError(f"pixel ({i}, {j}) has a non-finite centre") from None

    def pixel_center(self, i: int, j: int) -> PlanePoint:
        z, w = _centres(self, np.array([i]), np.array([j]))
        return PlanePoint(complex(z[0]), complex(w[0]))


def _axis(bounds: tuple[float, float], n: int, i: np.ndarray) -> np.ndarray:
    """Centres lo + (i + 0.5)(hi - lo)/n of the pixels i of an axis of n
    pixels over bounds = (lo, hi).  Where the product (i + 0.5)(hi - lo)
    overflows though the centre need not, it is formed at 2^-64 scale and
    scaled back after the division; scaling by a power of two is exact, so
    every other centre keeps the bits of the plain formula."""
    lo, hi = bounds
    with np.errstate(over="ignore", invalid="ignore"):
        t = (i + 0.5) * (hi - lo)
        scaled = (i + 0.5) * ((hi - lo) * 2.0**-64) / n * 2.0**64
        return lo + np.where(np.isinf(t), scaled, t / n)


def _centres(spec: SliceSpec, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centres (z, w) of the pixels at columns i and rows j, broadcast
    together, as complex128 arrays; non-finite where the slice leaves
    double range."""
    u = _axis(spec.u_range, spec.width, i)
    v = _axis(spec.v_range, spec.height, j)
    with np.errstate(over="ignore", invalid="ignore"):
        z = spec.base.z + u * spec.dir_u.z + v * spec.dir_v.z
        w = spec.base.w + u * spec.dir_u.w + v * spec.dir_v.w
    return z.astype(np.complex128), w.astype(np.complex128)


def _row_chunks(spec: SliceSpec) -> list[np.ndarray]:
    """Rows of the chunks of the slice.  Chunk c of n takes every n-th row
    from row c, so each chunk samples the whole slice and the chunks take
    about the same time; contiguous bands of rows can differ in cost by 2x
    and leave one worker classifying alone at the end."""
    n = -(-spec.height // max(1, CHUNK_PIXELS // spec.width))
    return [np.arange(c, spec.height, n) for c in range(n)]


def _pixel_grid(spec: SliceSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centres (z, w) of the pixels in the given rows, as (len(rows), width)
    arrays."""
    return _centres(spec, np.arange(spec.width), rows[:, None])


# Unit roundoff of double precision.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

# n more steps keep every component below 2^(n + 3) times the largest
# component now; a state whose components are all below 2^(_SAFE_EXP - n)
# stays below 2^1023, a bit short of the largest double.
_SAFE_EXP = 1020

# Every state of R has a component above FAR_FIELD > 2^3, so no class that
# needs the overflow guard for more than _HORIZON steps is certified.
_HORIZON = _SAFE_EXP - 4


def _certify(
    z: np.ndarray, w: np.ndarray, d: np.ndarray, rem: int, threshold: float
) -> np.ndarray | None:
    """The classes that plain iteration gives the states (z, w, d), which lie
    outside L_threshold and have rem steps left, where the far-field
    certificate of _classify settles them: per state, m in 1..rem where it
    enters L_threshold after exactly m steps, -1 where it stays outside
    L_threshold and finite for all rem steps, and 0 where neither is
    certified.  None where no state is settled.

    With more than _HORIZON steps left no state is certified to stay out,
    and the entries left to certify are not looked for: plain iteration
    finds them at a lower cost there, where the seeds that iterate until
    they overflow would be tested at every step."""
    if rem > _HORIZON:
        return None
    far = w.real > FAR_FIELD
    if not far.any():  # as on most steps: spare the bound's temporaries
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        # Staying out needs |Re d| below the overflow cap of rem steps, and
        # entering needs m <= rem, so Re d + rem > threshold; the seeds
        # that iterate until they overflow, with huge components, pass
        # neither and spare the bound.
        dr = d.real
        far &= (np.abs(dr) < math.ldexp(1.0, _SAFE_EXP - rem)) | (dr + rem > threshold)
        far &= z.real + w.real > FAR_FIELD
        i = np.flatnonzero(far)
        if not i.size:
            return None
        z, w, d = z[i], w[i], d[i]
        dr = d.real
        rounding = 8 * _UNIT_ROUNDOFF * (np.abs(dr) + abs(threshold) + 2)
        hi = FAR_MARGIN_STEP + rounding
        out = dr + rem * hi <= threshold
        # The first step at which the upper bound may lift Re d above the
        # threshold; entry there is certified where the lower bound does.
        m = np.maximum(np.floor((threshold - dr) / hi) + 1, 1)
        enter = ((dr + m * (FAR_MARGIN_STEP_MIN - rounding) > threshold)
                 & ((m == 1) | (dr + (m - 1) * hi <= threshold)) & (m <= rem))
        # The overflow guard, for the steps each class needs: rem to stay
        # out, m to enter.  As m <= rem, only an entry that fails it for
        # rem steps needs its own cap.
        big = np.abs(z.real)
        for x in (z.imag, w.real, w.imag, d.real, d.imag):
            np.maximum(big, np.abs(x), out=big)
        safe = big < math.ldexp(1.0, _SAFE_EXP - rem)
        late = enter & ~safe
        if late.any():
            safe[late] = big[late] < np.ldexp(1.0, _SAFE_EXP - m[late].astype(np.int64))
    settled = (out | enter) & safe
    if not settled.any():
        return None
    outcome = np.zeros(far.shape, dtype=np.int64)
    outcome[i[settled]] = np.where(enter, m, -1)[settled]
    return outcome


def _classify(
    z: np.ndarray, w: np.ndarray, budget: int, threshold: float
) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """classify_point on flat arrays of seeds, as (codes, steps, fast,
    entries, evals): steps is -1 where none applies, fast counts the seeds
    settled as not_entered before the end of the budget, entries the seeds
    whose entry step the certificate gave, and evals the map evaluations,
    the active set summed over the steps.  Only undecided seeds are
    iterated: idx holds their positions and (z, w, d) their states.

    Once the membership test of state k has removed the seeds in L, _certify
    settles a seed with rem = budget - k steps left when the far-field
    bound fixes its class:
    - It lies in the far field R = {Re w > W, Re(z + w) > W}, W =
      domain.FAR_FIELD, which F maps into itself, since Re w' >= 2 Re w +
      1 - e^{-2W} and Re(z' + w') > Re(z + w) + 2 Re w.  Its real parts are
      compared as the step computes them.
    - Each step raises Re d by 1 + Re e^{-2w} - Re e^{-(z+w)}, which in R
      lies between lo = FAR_MARGIN_STEP_MIN - r and hi = FAR_MARGIN_STEP +
      r, FAR_MARGIN_STEP_MIN = 1 - e^{-2W} - e^{-W} and FAR_MARGIN_STEP =
      1 + e^{-2W} + e^{-W}, with a rounding term r per step.  So Re d_{k+j}
      lies between Re d_k + j lo and Re d_k + j hi.
    - Rounding to nearest is monotone, so the computed margins stay between
      the same bounds run in floating point.  The margin update rounds
      three times per step, each time by at most u = 2^-53 times a
      magnitude below |Re d_k| + |threshold| + 2 on a certified run; the
      rounding term r = 8u(|Re d_k| + |threshold| + 2) covers these, the
      error of exp and the rounding of the tests themselves.
    - not_entered: Re d_k + rem hi <= threshold, so Re d stays at or below
      the threshold for all rem steps and the seed never enters L.
    - entered at step k + m: m = max(1, floor((threshold - Re d_k)/hi) + 1)
      <= rem, the seed is not in L now, Re d_k + (m - 1) hi <= threshold
      unless m = 1, so it stays out of L for the m - 1 steps after, and
      Re d_k + m lo > threshold, so Re d_{k+m} is above the threshold.
      Rounding can lift the quotient to the next integer, which the
      (m - 1) hi test catches.  Entry also needs Re z and Re w above 1,
      which one step in R gives: Re z' >= Re s - e^{-Re s} > W - e^{-W} >
      1, s = z + w, and Re w' > 2W.  Where the bounds disagree, at margins
      whose distance to the threshold lies within m (e^{-W} + e^{-2W} + r)
      of an integer, the seed keeps iterating and is tested again after
      the next step.
    - The overflow guard: per step |w| at most doubles plus 2, |z| grows
      by at most |w| + 1 and |d| by at most 2.  So after n steps every
      component is below 2^(n + 3) M, M the largest component now, and a
      class is certified only if M < 2^(1020 - n), for the n steps it
      needs: rem to stay out, m to enter.  Elsewhere the seed keeps
      iterating: where the bound reaches the largest double, plain
      iteration may end in overflowed, as every far seed of w = 0.2 does
      at budget 2,000.  No state of R passes the guard for more than
      _HORIZON = 1,016 steps, so with more steps left only plain iteration
      runs.
    """
    codes = np.full(z.shape, _CODE_NOT_ENTERED, dtype=np.uint8)
    steps = np.full(z.shape, -1, dtype=np.int32)
    idx = np.arange(z.size)
    d = w - z
    fast = entries = evals = 0
    for k in range(budget + 1):
        inside = in_wedge(z, w, d, threshold)
        if inside.any():
            codes[idx[inside]] = _CODE_ENTERED
            steps[idx[inside]] = k
            out = ~inside
            idx, z, w, d = idx[out], z[out], w[out], d[out]
        if k == budget or not idx.size:
            break
        m = _certify(z, w, d, budget - k, threshold)
        if m is not None:
            enter = m > 0
            codes[idx[enter]] = _CODE_ENTERED
            steps[idx[enter]] = k + m[enter]
            entries += int(enter.sum())
            fast += int((m < 0).sum())
            keep = m == 0
            idx, z, w, d = idx[keep], z[keep], w[keep], d[keep]
        evals += idx.size
        z, w, d, ok = step(z, w, d)
        if not ok.all():
            codes[idx[~ok]] = _CODE_OVERFLOWED
            steps[idx[~ok]] = k
            idx, z, w, d = idx[ok], z[ok], w[ok], d[ok]
    return codes, steps, fast, entries, evals


def classify_point(
    p: PlanePoint, budget: int, threshold: float = L_THRESHOLD
) -> PixelClass:
    """First entry into L within the budget: membership is checked at every
    step k = 0..budget; overflow at step k means the state after k steps
    was the last finite one."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    codes, steps, *_ = _classify(*p.arrays(), budget, threshold)
    return _pixel_class(int(codes[0]), int(steps[0]))


@dataclass(frozen=True)
class RasterResult:
    spec: SliceSpec
    budget: int
    threshold: float
    codes: np.ndarray = field(repr=False)  # (height, width) uint8
    steps: np.ndarray = field(repr=False)  # (height, width) int32, -1 = none
    # Counts of _classify, summed over the chunks; not part of stats.
    # Pixels dropped as provably not_entered before the end of the budget:
    fast_forwarded: int
    # Pixels whose entry step the far-field certificate gave:
    certified_entries: int
    # Map evaluations, the active set summed over the steps:
    map_evals: int

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

    def run(rows: np.ndarray) -> list[int]:
        z, w = _pixel_grid(spec, rows)
        c, s, *counts = _classify(z.ravel(), w.ravel(), budget, threshold)
        codes[rows] = c.reshape(rows.size, spec.width)
        steps[rows] = s.reshape(rows.size, spec.width)
        return counts

    with ThreadPoolExecutor(max_workers=workers) as pool:
        fast, entries, evals = map(sum, zip(*pool.map(run, _row_chunks(spec))))
    return RasterResult(spec=spec, budget=budget, threshold=threshold,
                        codes=codes, steps=steps, fast_forwarded=fast,
                        certified_entries=entries, map_evals=evals)


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


def _lookup(keys: np.ndarray, fmt) -> list[str]:
    """The string of each key of keys, in C order.  fmt maps the sorted
    distinct keys to their strings, so each is formatted once."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return list(map(fmt(distinct).__getitem__, inverse.ravel().tolist()))


def _float_field(bits: np.ndarray) -> list[str]:
    # Keyed by bit pattern, so -0.0 and 0.0 keep their own reprs.
    return [f"{v!r}," for v in bits.view(np.float64).tolist()]


def _class_field(keys: np.ndarray) -> list[str]:
    # key = 4 * step + code (codes are below 4), step -1 where none applies.
    return [f"{_CODE_TO_TAG[k % 4]},{'' if k % 4 == _CODE_NOT_ENTERED else k // 4}\n"
            for k in keys.tolist()]


def grid_csv_blocks(r: RasterResult) -> Iterator[bytes]:
    """CSV dump, one line per pixel, row by row:
    i,j,re_z,im_z,re_w,im_w,tag,step, with the pixel centre's parts
    written by repr and step empty where none applies, as an iterator of
    bytes: the header line, then the lines of each block of about
    CHUNK_PIXELS pixels of whole rows.  Within a block each distinct float
    bit pattern is formatted with repr once, and each distinct (tag, step)
    pair once; the lines are joined from those strings.  Writing the
    blocks to a file as they come never holds the whole dump."""
    yield b"i,j,re_z,im_z,re_w,im_w,tag,step\n"
    width = r.spec.width
    columns = [f"{i}," for i in range(width)]
    block = max(1, CHUNK_PIXELS // width)
    for lo in range(0, r.spec.height, block):
        rows = np.arange(lo, min(lo + block, r.spec.height))
        z, w = _pixel_grid(r.spec, rows)
        fields = [columns * rows.size,
                  [f for j in rows.tolist() for f in [f"{j},"] * width]]
        for x in (z.real, z.imag, w.real, w.imag):
            fields.append(_lookup(x.view(np.uint64), _float_field))
        keys = 4 * r.steps[rows].astype(np.int64) + r.codes[rows]
        fields.append(_lookup(keys, _class_field))
        yield "".join(map("".join, zip(*fields))).encode("ascii")
