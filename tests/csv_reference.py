"""Reference for the CSV grid dump `bakerbench.render.grid_csv_blocks`, joined:
one f-string per pixel, each float formatted with repr where it is
written."""

import numpy as np

from bakerbench.render import RasterResult, _pixel_grid


def reference_grid_csv(r: RasterResult) -> bytes:
    """i,j,re_z,im_z,re_w,im_w,tag,step per pixel, row by row, step empty
    for not_entered."""
    lines = ["i,j,re_z,im_z,re_w,im_w,tag,step\n"]
    z, w = _pixel_grid(r.spec, np.arange(r.spec.height))
    for j in range(r.spec.height):
        for i, (zp, wp) in enumerate(zip(z[j].tolist(), w[j].tolist())):
            pc = r.pixel(i, j)
            step = "" if pc.step is None else pc.step
            lines.append(f"{i},{j},{zp.real!r},{zp.imag!r},{wp.real!r},"
                         f"{wp.imag!r},{pc.tag},{step}\n")
    return "".join(lines).encode("ascii")
