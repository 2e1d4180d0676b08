"""Per-layer tracing by wrapping the layers' public functions.

The tracer replaces module attributes where their callers look them up
(``bakerbench.cli.render_slice``, ``bakerbench.suites.orbit`` and so on),
so that nothing under src/ changes.  Each wrapper records a span: its
duration is added to its name, and to the child time of the span open
around it, so self time is duration minus the time of its children.
Counters are read from the returned value at the same boundary.  A
wrapped name that the program no longer defines is left out, and its
metrics read 0.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

import bakerbench
import bakerbench.cli
import bakerbench.domain
import bakerbench.psh
import bakerbench.suites

from workloads import code_tags

ACTIVE_AT = (1, 10, 100)


class Tracer:
    def __init__(self) -> None:
        self.open: list[list[float]] = []  # child time of each open span
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.cpu_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, count=None, cpu=False):
        def traced(*args, **kwargs):
            children = [0.0]
            self.open.append(children)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if cpu:
                    self.cpu_seconds[name] += time.process_time() - c0
                self.open.pop()
                if self.open:
                    self.open[-1][0] += dt
                self.seconds[name] += dt
                self.self_seconds[name] += dt - children[0]
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        saved = []

        def patch(owner, attr, name, count=None, cpu=False):
            if isinstance(owner, dict):
                if attr in owner:
                    saved.append((owner, attr, owner[attr]))
                    owner[attr] = self.wrap(name, owner[attr], count, cpu)
            elif hasattr(owner, attr):
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count, cpu))

        cli, suites = bakerbench.cli, bakerbench.suites
        patch(cli, "main", "cli.main")
        for suite in ("invariance", "growth", "telescoping", "psh-range"):
            patch(suites.SUITES, suite, f"suites.{suite}", _count_suite)
        for fn in ("check_invariance", "check_growth", "telescoping_residual"):
            patch(suites, fn, f"domain.{fn}")
        for owner in (bakerbench.domain, suites, cli):
            patch(owner, "orbit", "core.orbit", _count_orbit)
        patch(bakerbench.psh, "orbit", "core.orbit", _count_psh_orbit)
        patch(cli, "submean_check", "psh.submean_check", _count_submean)
        patch(cli, "find_witnesses", "witness.find_witnesses", _count_witness)
        for owner in (cli, bakerbench):
            patch(owner, "render_slice", "render.render_slice", _count_raster, cpu=True)
            patch(owner, "write_ppm", "render.write_ppm", _count_bytes("render.ppm_bytes"))
            patch(owner, "write_grid_csv", "render.write_grid_csv",
                  _count_bytes("render.csv_bytes"))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round."""
        s, c = self.seconds, self.counts

        def ratio(a, b, scale=1.0):
            return a * scale / b if b else 0.0

        suite_s = sum(s[f"suites.{n}"] for n in ("invariance", "growth",
                                                  "telescoping", "psh-range"))
        m = {
            "cli.main_s": s["cli.main"],
            "cli.self_s": self.self_seconds["cli.main"],
            "core.orbit_calls": c["core.orbit_calls"],
            "core.orbit_s": s["core.orbit"],
            "core.orbit_us_per_step": ratio(s["core.orbit"], c["core.map_evals"], 1e6),
            "core.map_evals": c["core.map_evals"],
            "core.overflow_stops": c["core.overflow_stops"],
            "domain.check_invariance_s": s["domain.check_invariance"],
            "domain.check_growth_s": s["domain.check_growth"],
            "domain.telescoping_residual_s": s["domain.telescoping_residual"],
            "suites.invariance_s": s["suites.invariance"],
            "suites.growth_s": s["suites.growth"],
            "suites.telescoping_s": s["suites.telescoping"],
            "suites.psh_range_s": s["suites.psh-range"],
            "suites.seed_steps_per_s": ratio(c["suites.seed_steps"], suite_s),
            "psh.submean_check_s": s["psh.submean_check"],
            "psh.samples": c["psh.samples"],
            "psh.valid_samples": c["psh.valid_samples"],
            "psh.orbit_steps": c["psh.orbit_steps"],
            "witness.find_witnesses_s": s["witness.find_witnesses"],
            "witness.branches_tried": c["witness.branches_tried"],
            "witness.branches_failed": c["witness.branches_failed"],
            "render.render_slice_s": s["render.render_slice"],
            "render.render_slice_cpu_s": self.cpu_seconds["render.render_slice"],
            "render.pixels": c["render.pixels"],
            "render.pixel_steps": c["render.pixel_steps"],
            "render.ns_per_pixel_step": ratio(s["render.render_slice"],
                                              c["render.pixel_steps"], 1e9),
            "render.entered": c["render.entered"],
            "render.overflowed": c["render.overflowed"],
            "render.not_entered": c["render.not_entered"],
            **{f"render.active_at_{k}": c[f"render.active_at_{k}"] for k in ACTIVE_AT},
            "render.write_ppm_s": s["render.write_ppm"],
            "render.ppm_bytes": c["render.ppm_bytes"],
            "render.write_grid_csv_s": s["render.write_grid_csv"],
            "render.csv_bytes": c["render.csv_bytes"],
            "render.csv_mb_per_s": ratio(c["render.csv_bytes"],
                                         s["render.write_grid_csv"], 1e-6),
        }
        rates = {"core.orbit_us_per_step", "suites.seed_steps_per_s",
                 "render.ns_per_pixel_step", "render.csv_mb_per_s"}
        return {k: v if k in rates else v / rounds for k, v in m.items()}


def _count_orbit(counts, rec) -> int:
    # Applying F to the last stored point is the evaluation that overflowed.
    evals = len(rec.points) - 1 + (rec.overflow_step is not None)
    counts["core.orbit_calls"] += 1
    counts["core.map_evals"] += evals
    counts["core.overflow_stops"] += rec.overflow_step is not None
    return evals


def _count_psh_orbit(counts, rec) -> None:
    counts["psh.orbit_steps"] += _count_orbit(counts, rec)


def _count_suite(counts, result) -> None:
    counts["suites.seed_steps"] += result.samples * result.steps


def _count_submean(counts, report) -> None:
    counts["psh.samples"] += report.probe.samples
    counts["psh.valid_samples"] += report.valid_samples


def _count_witness(counts, seq) -> None:
    counts["witness.branches_tried"] += len(seq.branches) + len(seq.failed_branches)
    counts["witness.branches_failed"] += len(seq.failed_branches)


def pixel_evaluations(raster) -> np.ndarray:
    """Map evaluations each pixel's answer requires: k to enter L at step k,
    k + 1 to overflow when F is applied to the k-th state, and the whole
    budget to stay out of L."""
    evals = raster.steps.astype(np.int64)
    for code, tag in code_tags(raster).items():
        if tag == "not_entered":
            evals[raster.codes == code] = raster.budget
        elif tag == "overflowed":
            evals[raster.codes == code] += 1
    return evals


def _count_raster(counts, raster) -> None:
    evals = pixel_evaluations(raster)
    counts["render.pixels"] += evals.size
    counts["render.pixel_steps"] += int(evals.sum())
    for tag, n in raster.stats.items():
        counts[f"render.{tag}"] += n
    for k in ACTIVE_AT:
        # Pixels that still perform a (k+1)-th evaluation.
        counts[f"render.active_at_{k}"] += int(np.count_nonzero(evals > k))


def _count_bytes(key):
    def count(counts, data) -> None:
        counts[key] += len(data)
    return count
