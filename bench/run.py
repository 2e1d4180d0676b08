"""Benchmark of bakerbench: one workload per process, metrics as JSON.

    python3 bench/run.py --workload {verify,render-hard,render-dump} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
src/ directory.  The run times whole rounds of the workload's operations
until S seconds have passed, checks the outputs after the timed section
(checks.py), and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where attempted and failed count the checks.  The metrics, with their
units, are those BENCHMARK.json declares.  With --trace 0 they are the
end-to-end ones: setup_s (median over fresh interpreters, one after each
round and at least SETUP_SAMPLES, of the time from process start to the
first timed operation), and per round the median wall_s and cpu_s, work_per_s and peak_rss_mb.
With --trace 1 rounds alternate between untraced and traced, the metrics
are the per-layer ones from the traced rounds (spans.py), and
bench.trace_overhead_s is the difference of their median round times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7


def load_program() -> None:
    """Put the checkout's src/ first on the path and import bakerbench from it."""
    if not (SRC / "bakerbench" / "__init__.py").is_file():
        sys.exit(f"error: no bakerbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bakerbench
    if Path(bakerbench.__file__).resolve().parent != SRC / "bakerbench":
        sys.exit(f"error: bakerbench imported from {bakerbench.__file__}, not {SRC}")


def steal_ticks() -> int | None:
    """Host steal time of the whole machine so far, in clock ticks (Linux)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def make_workload(name: str, seed: int):
    import workloads
    OUT.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](seed, OUT)


def setup_probe(args) -> float:
    """Process start to ready-for-the-first-operation, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        sys.exit(f"error: set-up probe failed with exit code {proc.returncode}")
    return elapsed


def timed_rounds(wl, seconds: float, tracer, probe):
    """Whole rounds until `seconds` have passed; with a tracer, rounds
    alternate untraced/traced and stop after an equal number of each.
    Without a tracer, probe() takes one set-up sample after each round,
    outside the timed part, so that the samples spread over the run
    rather than over its first seconds.

    Returns (walls, cpus, traced flags, set-up samples, last outputs,
    rounds whose outputs differed from the first round's)."""
    walls, cpus, traced, setup, mismatched = [], [], [], [], 0
    first = out = None
    deadline = time.perf_counter() + seconds
    while True:
        trace_this = tracer is not None and len(walls) % 2 == 1
        ctx = tracer.installed() if trace_this else contextlib.nullcontext()
        with ctx:
            c0 = time.process_time()
            t0 = time.perf_counter()
            out = wl.run_round()
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
        traced.append(trace_this)
        digest = wl.digest(out)
        if first is None:
            first = digest
        mismatched += digest != first
        if tracer is None:
            setup.append(probe())
        if time.perf_counter() >= deadline and (tracer is None or len(walls) % 2 == 0):
            return walls, cpus, traced, setup, out, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify", "render-hard", "render-dump"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, print 'ready' and exit "
                         "(the set-up probe)")
    args = ap.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        ap.error("--seconds is required")

    load_program()
    if args.setup_only:
        make_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    wl = make_workload(args.workload, args.seed)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    steal0 = steal_ticks()
    walls, cpus, traced, setup, out, mismatched = timed_rounds(
        wl, args.seconds, tracer, lambda: setup_probe(args))
    steal1 = steal_ticks()
    while tracer is None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_probe(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    notes = []
    results = []
    try:
        for check in checks.CHECKS[wl.name](wl, out, notes):
            results.append(check)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        # Output too malformed to check further, such as a CLI error in
        # place of its JSON report.
        results.append(checks.Check("outputs readable", False, repr(exc)))
    results.append(checks.Check("every round's outputs equal the first round's",
                                mismatched == 0, f"{mismatched} of {len(walls)} differ"))
    failed = [c for c in results if not c.ok]
    for c in failed:
        print(f"FAILED{' (known fault)' if c.known_fault else ''}: {c.name}: {c.detail}",
              file=sys.stderr)

    # The metrics and units are those BENCHMARK.json declares.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if tracer else "end_to_end"]
    untraced = [(w, c) for w, c, t in zip(walls, cpus, traced) if not t]
    wall_s = statistics.median(w for w, _ in untraced)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "cpu_s": statistics.median(c for _, c in untraced),
            "work_per_s": wl.work / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced_walls = [w for w, t in zip(walls, traced) if t]
        values = tracer.metrics(len(traced_walls))
        values["bench.trace_overhead_s"] = statistics.median(traced_walls) - wall_s
    import numpy
    steal = None if None in (steal0, steal1) else steal1 - steal0
    print(f"# {wl.name} seed={args.seed} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"steal_ticks={steal} rounds={len(walls)} "
          f"round_walls={[round(w, 4) for w in walls]} "
          f"setup={[round(s, 4) for s in setup]} {'; '.join(notes)}")
    print(json.dumps({
        "correct": all(c.known_fault for c in failed),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
