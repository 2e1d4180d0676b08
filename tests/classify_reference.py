"""Reference for the first-entry classifier `bakerbench.render._classify`:
plain iteration of every undecided seed to the end of the budget, with no
far-field fast-forward."""

import numpy as np

from bakerbench.core import step
from bakerbench.domain import in_wedge
from bakerbench.render import _CODE_ENTERED, _CODE_NOT_ENTERED, _CODE_OVERFLOWED


def reference_classify(
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
