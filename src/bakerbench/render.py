"""Basin rendering: classify 2D slices of C^2 by first entry into L.

Each pixel seeds an orbit and is classified by the first step at which it
lands in the wedge L (approximating the absorbing basin as the union of
preimages of L under a finite iteration budget), by overflow, or as
undetermined within the budget.  The classifier (``_classify``) iterates
``core.step`` over a compacted active set, with one w for a chunk whose
seeds share it, and tests ``domain.in_wedge`` on the carried margin.  A
seed leaves the active set early once the far-field certificate
(``_certify``, on the lemma of ``domain.in_far_field``) settles the
class that plain iteration gives it, overflow in R_inf included, so one
loop gives the codes and steps of plain iteration.  The slice is cut
into contiguous blocks of whole rows (_row_chunks), classified
independently by a pool of workers into disjoint output rows, so grids
and emitted bytes are identical for any worker count.  Where row
h - 1 - j of the slice holds the conjugate centres of row j
(_own_mirror), as on a z-plane slice of a real w over a window
symmetric about the real axis at every height, only the rows
j <= h - 1 - j are classified, in the blocks of _row_chunks(h // 2,
width) and the middle row, and their classes are copied into the
mirror rows (render_slice has the proof).  The CSV dump writes the
blocks of _row_chunks(h, width), the classifier's on other slices.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import PlanePoint, in_r_inf, margin, step
from .domain import (FAR_MARGIN_STEP, FAR_MARGIN_STEP_MIN, L_THRESHOLD, in_far_field,
                     in_wedge)

# A pixel's class is a code, and _TAGS[code] is its tag.
_CODE_NOT_ENTERED, _CODE_ENTERED, _CODE_OVERFLOWED = range(3)
_TAGS = ("not_entered", "entered", "overflowed")

# Pixels per chunk of work and per block of the CSV dump, rounded down
# to whole rows (_row_chunks).  It bounds a worker's memory,
# whatever the image size.  While a step runs on a whole chunk, a worker
# holds about 96 bytes per pixel with a shared w: z and d, the step's z + w,
# e^{-(z+w)} and image of d, 16 bytes each, the index, step and code of
# each pixel, 13 bytes, and masks.  One w per pixel adds w, e^{-2w} and
# the image of w and frees z + w first: about 128 bytes per pixel.  That
# is 3.0 and 4.0 MiB at 2^15 pixels.  Smaller chunks cost more in per-call
# overhead, which holds the GIL: with 2 workers a 512^2 render at budget
# 200 took 1.05-1.08x as long at 2^15 as at 2^16, 1.2x at 2^14 and
# 1.7-1.9x at 2^13.
CHUNK_PIXELS = 1 << 15


@dataclass(frozen=True)
class PixelClass:
    tag: str
    step: int | None = None


def _pixel_class(code: int, step: int) -> PixelClass:
    return PixelClass(_TAGS[code], step if code != _CODE_NOT_ENTERED else None)


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
        if not all(1 <= n <= np.iinfo(np.intp).max for n in (self.width, self.height)):
            raise ValueError(f"width and height must lie in 1..{np.iinfo(np.intp).max}")
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
    """Centres m + (2i - (n - 1))/n (hi/2 - lo/2), m = lo/2 + hi/2, of the
    pixels i of an axis of n pixels over bounds = (lo, hi): finite for
    finite bounds, and antisymmetric bit for bit where lo = -hi
    (render_slice)."""
    lo, hi = bounds
    return (lo / 2 + hi / 2) + (2.0 * i - (n - 1)) / n * (hi / 2 - lo / 2)


def _centres(spec: SliceSpec, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centres (z, w) of the pixels at columns i and rows j, broadcast
    together, as complex128 arrays; non-finite where the slice leaves
    double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = _axis(spec.u_range, spec.width, i)
        v = _axis(spec.v_range, spec.height, j)
        z = spec.base.z + u * spec.dir_u.z + v * spec.dir_v.z
        w = spec.base.w + u * spec.dir_u.w + v * spec.dir_v.w
    return z.astype(np.complex128), w.astype(np.complex128)


def _row_chunks(height: int, width: int) -> list[np.ndarray]:
    """The rows 0..height - 1 of a slice of the given width, cut into
    consecutive blocks of at most CHUNK_PIXELS pixels of whole rows (one
    row where a row holds more): the CSV dump's blocks, and the
    classifier's chunks of a slice that is not its own mirror."""
    block = max(1, CHUNK_PIXELS // width)
    return [np.arange(lo, min(lo + block, height)) for lo in range(0, height, block)]


def _own_mirror(spec: SliceSpec) -> bool:
    """Whether row h - 1 - j of the slice holds the conjugates of the
    centres of row j, for every row j, up to the signs of zero parts:
    where v_range = (-b, b), base and dir_u have zero imaginary parts and
    dir_v zero real parts (render_slice).  It reads no centre."""
    return (spec.v_range[0] == -spec.v_range[1]
            and all(p.imag == 0 for p in (spec.base.z, spec.base.w, spec.dir_u.z, spec.dir_u.w))
            and all(p.real == 0 for p in (spec.dir_v.z, spec.dir_v.w)))


def _pixel_grid(spec: SliceSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centres (z, w) of the pixels in the given rows, as (len(rows), width)
    arrays."""
    return _centres(spec, np.arange(spec.width), rows[:, None])


# Unit roundoff of double precision.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

# The overflow guard of _certify keeps every part of a state below half of
# 2^1024, the end of double range, as slack for rounding.
_OVERFLOW_CAP = math.ldexp(1.0, 1023)
_DBL_MAX = np.finfo(np.float64).max


def _certify(
    z: np.ndarray, w: np.ndarray, d: np.ndarray, rem: int, threshold: float
) -> np.ndarray | None:
    """The classes that plain iteration gives the states (z, w, d), which lie
    outside L_threshold and have rem steps left, where the far-field
    certificate of _classify settles them: per state, m in 1..rem where it
    enters L_threshold after exactly m steps, -1 where it stays outside
    L_threshold and finite for all rem steps, -2 - n where it overflows
    after n < rem steps, and 0 where none is certified.  None where no
    state is settled."""
    far = in_far_field(z, w)
    i = np.flatnonzero(far)
    if not i.size:
        return None
    rem = min(rem, 1019)  # past 1,018 steps no state passes the guard (_classify)
    with np.errstate(over="ignore", invalid="ignore"):
        z, w, d = z[i], w[i], d[i]
        dr = d.real
        rounding = 8 * _UNIT_ROUNDOFF * (np.abs(dr) + abs(threshold) + 2)
        exact = in_r_inf(z.real + w.real, w)  # rise fl(d + 1): no slack
        hi = np.where(exact, 1.0, FAR_MARGIN_STEP) + rounding
        lo = np.where(exact, 1.0, FAR_MARGIN_STEP_MIN) - rounding
        out = dr + rem * hi <= threshold
        # The first step at which the upper bound may lift Re d above the
        # threshold; entry there is certified where the lower bound does.
        m = np.maximum(np.floor((threshold - dr) / hi) + 1, 1)
        enter = ((dr + m * lo > threshold)
                 & ((m == 1) | (dr + (m - 1) * hi <= threshold)) & (m <= rem))
        # The overflow guard Z + 2^(n + 1)(W + 2) < 2^1023, for the steps n
        # each class needs: m to enter, rem to stay out.
        big_z = np.abs(z.real)
        for x in (z.imag, dr, d.imag):
            np.maximum(big_z, np.abs(x), out=big_z)
        big_w = np.maximum(w.real, np.abs(w.imag))  # Re w > 0 in R
        n = np.where(enter, m, rem).astype(np.int64)
        safe = big_z + np.ldexp(big_w + 2, n + 1) < _OVERFLOW_CAP
        settled = (out | enter) & safe
        outcome = np.where(enter, m, -1)
        if exact.any():
            # In R_inf the state after j steps is the first non-finite one
            # where fin holds, which also stands in for the guard.
            j = 1025 - np.frexp(big_w)[1]
            fin = (big_z + np.ldexp(big_w + 1, j - 1)) * (1 + 2.0**-40) < _DBL_MAX
            fin &= exact
            over = fin & (j <= rem) & (dr + (j - 1) * hi <= threshold)
            settled |= fin & (enter & (m < j) | out & (rem < j)) | over
            outcome = np.where(over, -1 - j, outcome)
    if not settled.any():
        return None
    result = np.zeros(far.shape, dtype=np.int64)
    result[i[settled]] = outcome[settled]
    return result


def _classify(
    z: np.ndarray, w: np.ndarray, budget: int, threshold: float
) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """classify_point on flat arrays of seeds, as (codes, steps, fast,
    entries, evals): steps is -1 where none applies, fast counts the seeds
    settled as not_entered before the end of the budget, entries the seeds
    whose entry step the certificate gave, and evals the map evaluations,
    the active set summed over the steps.  Only undecided seeds are
    iterated: idx holds their positions and (z, w, d) their states.

    Where the w of every seed has the bits of the first one's
    (_same_bits), w is carried with shape (1,) and never compacted:
    core.step gives every seed the image of that one w, as the w-orbit
    does not read z.  Seeds whose w differ only in the sign of a zero
    part do not share it.  The seed arrays are not kept past the first
    step, so a caller that holds no other reference lets them go.

    Once the membership test of state k has removed the seeds in L, _certify
    settles a seed with rem = budget - k steps left when the far-field
    bound fixes its class:
    - It lies in the far field R, where by the lemma of
      domain.in_far_field, as computed, F maps R into itself, Re z and
      Re w exceed 1 after one step, Re d never decreases and a step raises
      it by between FAR_MARGIN_STEP_MIN and FAR_MARGIN_STEP up to
      4u(|Re d| + 2), u = 2^-53.  In R_inf (core), where both exponentials
      are +-0, the rise is exactly fl(Re d + 1) - Re d.
    - On a certified run |Re d| stays at most |Re d_k| + |threshold|, so
      r = 8u(|Re d_k| + |threshold| + 2) covers that rounding and that of
      the tests.  The rise lies between lo = 1 - r and hi = 1 + r where
      core.in_r_inf(z + w, w) holds, between lo = FAR_MARGIN_STEP_MIN - r
      and hi = FAR_MARGIN_STEP + r elsewhere in R, and by monotone
      rounding Re d_{k+j} between Re d_k + j lo and Re d_k + j hi.
    - not_entered: Re d_k + rem hi <= threshold, so Re d stays at or below
      the threshold for all rem steps and the seed never enters L.
    - entered at step k + m: m = max(1, floor((threshold - Re d_k)/hi) + 1)
      <= rem, the seed is not in L now, Re d_k + (m - 1) hi <= threshold
      unless m = 1, so it stays out of L for the m - 1 steps after, and
      Re d_k + m lo > threshold, so state k + m, whose Re z and Re w
      exceed 1, is in L.  Rounding can lift the quotient to the next
      integer, which the (m - 1) hi test catches.  Where the bounds
      disagree, at margins whose distance to the threshold lies within
      m (hi - lo) of an integer, the seed keeps iterating and is tested
      again after the next step.
    - The overflow guard, in which only w doubles: in R each part of w
      grows as |w'| <= 2|w| + 2, each part of z by at most |w| + 1 and each
      part of d by at most 2.  With Z the largest part of z and d and W
      the largest part of w now, every part after n steps stays below Z +
      2^n (W + 2), and a class is certified only if Z + 2^(n + 1)(W + 2) <
      2^1023, for the n steps it needs: rem to stay out, m to enter; the
      factor 2, twice over, is slack for rounding.  In R_inf, fin below
      with n < j stands in for the guard.  As W + 2 > 12, no state of R
      passes the guard for more than 1,018 steps: with more steps left,
      which _certify counts as 1,019, no state is certified to stay out,
      and only entries within the guard's steps and overflows in R_inf
      are certified.
    - overflowed at step k + j - 1, in R_inf, where a step is exactly
      (fl(z + w) + 0, fl(2w + 1), fl(d + 1)): with W = f 2^e, f in [1/2,
      1) as np.frexp gives it, and j = 1025 - e, Im w doubles exactly and
      Re w' = fl(2 Re w + 1) >= 2 Re w, so the part of w that attains W
      reaches f 2^1025 >= 2^1024 after j steps unless a part overflowed
      before: the state after j steps is not finite.  Re w + 1 grows as
      fl(2x + 1) + 1 <= 2(x + 1)(1 + u), each part of z by the matching
      part of w and each part of d by at most 1, rounded, so every part
      after n steps stays below (Z + 2^n (W + 1))(1 + u)^n; the + 1
      counts where W + 1 passes a power of two, as at W = 2^20 - 1/2.
      fin, (Z + 2^(j - 1)(W + 1))(1 + 2^-40) < DBL_MAX as computed, keeps
      the states k + 1..k + j - 1 finite: W > 373 gives j <= 1,016, and
      (1 + u)^(1016 + 3) < 1 + 2^-40 covers the rounding of the test.
      Where fin holds, j <= rem and Re d_k + (j - 1) hi <= threshold, the
      seed stays out of L for those j - 1 steps, and the step from state
      k + j - 1 overflows.  Where fin fails, as where W lies just below a
      power of two or a part of z nears DBL_MAX, the seed keeps iterating.
    """
    codes = np.full(z.shape, _CODE_NOT_ENTERED, dtype=np.uint8)
    steps = np.full(z.shape, -1, dtype=np.int32)
    idx = np.arange(z.size)
    d = margin(z, w)
    shared = _same_bits(w)
    if shared:
        w = w[:1].copy()

    def compact(keep: np.ndarray) -> tuple[np.ndarray, ...]:
        return idx[keep], z[keep], w if shared else w[keep], d[keep]

    fast = entries = evals = 0
    for k in range(budget + 1):
        inside = in_wedge(z, w, d, threshold)
        if inside.any():
            codes[idx[inside]] = _CODE_ENTERED
            steps[idx[inside]] = k
            idx, z, w, d = compact(~inside)
        if k == budget or not idx.size:
            break
        m = _certify(z, np.broadcast_to(w, z.shape), d, budget - k, threshold)
        if m is not None:
            enter, over = m > 0, m < -1
            codes[idx[enter]] = _CODE_ENTERED
            steps[idx[enter]] = k + m[enter]
            codes[idx[over]] = _CODE_OVERFLOWED
            steps[idx[over]] = k - 2 - m[over]
            entries += int(enter.sum())
            fast += int((m == -1).sum())
            idx, z, w, d = compact(m == 0)
            if not idx.size:
                break
        evals += idx.size
        z, w, d, ok = step(z, w, d)
        if not ok.all():
            codes[idx[~ok]] = _CODE_OVERFLOWED
            steps[idx[~ok]] = k
            idx, z, w, d = compact(ok)
    return codes, steps, fast, entries, evals


def _same_bits(w: np.ndarray) -> bool:
    """Whether every element of the complex array w has the bits of the
    first: +0 and -0 differ."""
    bits = w.view(np.uint64).reshape(-1, 2)
    return bool((bits == bits[:1]).all())


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
        counts = np.bincount(self.codes.ravel(), minlength=len(_TAGS))
        return {_TAGS[c]: int(counts[c])
                for c in (_CODE_ENTERED, _CODE_OVERFLOWED, _CODE_NOT_ENTERED)}


def render_slice(
    spec: SliceSpec,
    budget: int,
    threshold: float = L_THRESHOLD,
    workers: int = 1,
) -> RasterResult:
    """The classes of the pixels of the slice within the budget.

    Where the slice is its own mirror (_own_mirror), only the rows j <=
    h - 1 - j are classified, in chunks of their own, and their codes and
    steps are copied into the rows h - 1 - j.  Pixel (i, h - 1 - j) has
    the class of pixel (i, j):
    - With v_range = (-b, b), _axis's m is +0 and (2j - (h - 1))/h negates
      exactly under j -> h - 1 - j below 2^53 rows (no taller grid fits in
      memory), so v changes sign exactly, as a product rounds symmetrically.
    - _centres forms z = base.z + u dir_u.z + v dir_v.z, and w alike, in
      complex arithmetic on u + 0j and v + 0j.  With Im base = Im dir_u =
      Re dir_v = 0, the real part is Re base + u Re dir_u and the
      imaginary part v Im dir_v, each up to terms that are zero.  The
      first is the same in both rows; the second changes sign with v
      exactly, as a product rounds symmetrically in sign.  So the centres
      of the two pixels are conjugate up to the signs of zero parts.
    - core.step forms F and the margin with +, - and 2*, which round to
      nearest, symmetrically in sign, and with np.exp, which is
      conjugation-equivariant bit for bit (tests/test_mirror.py pins it on
      extreme states).  So it maps conjugate states to conjugate images,
      with the same ok.
    - A sign of zero can differ only in a zero part: none of these
      operations gives a nonzero part that depends on it, as e^{x +- 0i}
      = e^x +- 0i (the argument of core's docstring for _far_orbit).
    - in_wedge, in_far_field and _certify read only real parts, moduli
      and finiteness, which conjugation and the signs of zeros leave as
      they are.  _same_bits may share w in the half and not in the
      whole slice, but a shared w classifies as one w per seed.
    So the two pixels also add the same to each counter: a classified row
    counts twice where it fills its mirror row, and a middle row, which
    is its own mirror, once, in a chunk of its own.  The counters are
    those of classifying every row.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    h = spec.height
    codes = np.empty((h, spec.width), dtype=np.uint8)
    steps = np.empty((h, spec.width), dtype=np.int32)
    # Each job is the rows it classifies, then the rows it mirrors into.
    if _own_mirror(spec):
        jobs = [(rows, h - 1 - rows) for rows in _row_chunks(h // 2, spec.width)]
        jobs += [(np.array([h // 2]),)] * (h % 2)
    else:
        jobs = [(rows,) for rows in _row_chunks(h, spec.width)]

    def run(job: tuple[np.ndarray, ...]) -> list[int]:
        rows = job[0]
        # The seeds are handed over with no reference kept here, so that
        # the pixel grid is freed once _classify has moved past it.
        seeds = [x.ravel() for x in _pixel_grid(spec, rows)]
        c, s, *counts = _classify(seeds.pop(0), seeds.pop(), budget, threshold)
        for out in job:
            codes[out] = c.reshape(rows.size, spec.width)
            steps[out] = s.reshape(rows.size, spec.width)
        return [len(job) * n for n in counts]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        fast, entries, evals = map(sum, zip(*pool.map(run, jobs)))
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
        if not isinstance(data, dict):
            raise ValueError("palette root must be an object")

        def triple(x) -> tuple[int, int, int]:
            # JSON integers only, not bools: int() would truncate or parse.
            if not (isinstance(x, list) and len(x) == 3
                    and all(type(v) is int for v in x)):
                raise ValueError(f"bad RGB triple {x!r}")
            return tuple(x)

        kwargs = {}
        if "not_entered" in data:
            kwargs["not_entered"] = triple(data["not_entered"])
        for key in ("entered_cycle", "overflowed_cycle"):
            if key in data:
                kwargs[key] = tuple(triple(x) for x in data[key])
        return cls(**kwargs)


def write_ppm(r: RasterResult, palette: PaletteSpec) -> bytes:
    """Binary P6 pixmap, row-major top-to-bottom, byte-exact for fixed input."""
    # Each (code, step) pair's colour as one 3-byte item at [code, step + 1],
    # over the steps -1..max of the raster, not the budget: a pixel is one gather.
    s = np.arange(-1, int(r.steps.max()) + 1)
    cycles = ([palette.not_entered], palette.entered_cycle, palette.overflowed_cycle)  # by code
    table = np.stack([np.array(c, np.uint8).view("V3")[s % len(c), 0] for c in cycles])
    header = f"P6\n{r.spec.width} {r.spec.height}\n255\n".encode("ascii")
    return header + table[r.codes, r.steps + 1].tobytes()


def _lookup(bits: np.ndarray) -> list:
    """The field b"%r," of each float, given as its bit pattern, as nested
    lists of bits' shape.  Each distinct bit pattern is formatted once, so
    -0.0 and 0.0 keep their own reprs."""
    distinct, inverse = np.unique(bits, return_inverse=True)
    fields = [b"%r," % v for v in distinct.view(np.float64).tolist()]
    return np.array(fields, dtype=object)[inverse.reshape(bits.shape)].tolist()


def _block(rows: np.ndarray, bits: list[np.ndarray], tail: list,
           columns: list[bytes]) -> list[bytes]:
    """The lines of a block, one item per row, its float fields given as
    bit patterns in (rows, width) arrays and its tag,step fields as nested
    lists of bytes in tail.  Each distinct value of a float field is
    formatted once.  The float fields before the first that depends on
    both the column and the row, compared bitwise, go into one row
    template: as literals where they depend on the column only, as
    markers where on the row only.  That field and the fields after it
    join the tail per pixel (on a slice along the coordinate axes, the
    tail is tag,step alone).  Each row fills in j and its row-only
    fields, then its tail with one %."""
    width = len(columns)
    # Marker m of the template stands for the row's string m: j, then the
    # row-only fields.  No repr of a float holds a control character or %.
    literals = [columns, [b"\0"] * width]
    row_strings = [[b"%d," % j for j in rows.tolist()]]
    for k, b in enumerate(bits):
        if (b == b[:1]).all():
            literals.append(_lookup(b[0]))
        elif (b == b[:, :1]).all():
            literals.append([bytes([len(row_strings)])] * width)
            row_strings.append(_lookup(b[:, 0]))
        else:
            fields = [_lookup(x) for x in bits[k:]] + [tail]
            tail = [list(map(b"".join, zip(*row))) for row in zip(*fields)]
            break
    literals.append([b"%s"] * width)
    template = b"".join(map(b"".join, zip(*literals)))
    subs = [(bytes([m]), strings) for m, strings in enumerate(row_strings)]
    lines = []
    for n, cells in enumerate(tail):
        line = template
        for mark, strings in subs:
            line = line.replace(mark, strings[n])
        lines.append(line % tuple(cells))
    return lines


def grid_csv_blocks(r: RasterResult) -> Iterator[bytes]:
    """CSV dump, one line per pixel, row by row:
    i,j,re_z,im_z,re_w,im_w,tag,step, with the pixel centre's parts
    written by repr and step empty where none applies, as an iterator of
    bytes: the header line, then the lines of each row of the slice, one
    item per row.  The rows are formed in the blocks of
    _row_chunks(height, width), the classifier's chunks on a slice that
    is not its own mirror.  Each distinct float bit pattern is formatted
    with repr once per block, and each tag,step field once per dump, in a
    table that a pixel indexes at [code, step + 1], as write_ppm's
    colours.  Each block is written by _block, from one row template.
    Writing the items to a file as they come never holds the whole dump,
    nor a block joined into one bytes object."""
    yield b"i,j,re_z,im_z,re_w,im_w,tag,step\n"
    columns = [b"%d," % i for i in range(r.spec.width)]
    s = range(-1, int(r.steps.max()) + 1)
    table = np.array([[f"{tag},{'' if code == _CODE_NOT_ENTERED else k}\n".encode() for k in s]
                      for code, tag in enumerate(_TAGS)], dtype=object)
    for rows in _row_chunks(r.spec.height, r.spec.width):
        z, w = _pixel_grid(r.spec, rows)
        bits = [x.view(np.uint64) for x in (z.real, z.imag, w.real, w.imag)]
        tail = table[r.codes[rows], r.steps[rows] + 1].tolist()
        yield from _block(rows, bits, tail, columns)
