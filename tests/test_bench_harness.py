"""Smoke runs of the benchmark harness, bench/run.py, with tracing on.

--trace 1 drives bench/spans.py, which reads the results of the suites,
of submean_check, of find_witnesses and of render_slice; a change to
those results that breaks the harness fails here.  Each run works on a
copy of src/, bench/ and BENCHMARK.json in a temporary directory, so it
writes no .bench_out/ into the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", ["verify", "render-hard", "render-dump"])
def test_traced_run_passes_its_checks(checkout, workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", "1"],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stderr
