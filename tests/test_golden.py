"""Whole outputs of every subcommand, pinned byte for byte.

Each case runs ``bakerbench.cli.main`` in an empty directory and compares
its exit code, its stdout and the sha256 of every file it leaves there
with ``golden/cli.json``.  The --help cases run with COLUMNS=80, as
argparse wraps help to the terminal width.  Running this file as a
script rewrites that file from the code on the path:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from bakerbench.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

_COMMANDS = {
    "iterate": ["iterate", "--z=0.5,0.25", "--w=2,-1", "--steps=4"],
    "iterate-overflow": ["iterate", "--z=-400,0", "--w=-400,0", "--steps=3"],
    # Re w passes W_CUT at step 7, so the last steps run in R_inf.
    "iterate-far": ["iterate", "--z=2,0.5", "--w=4,-1", "--steps=12"],
    "verify-invariance": ["verify", "--suite=invariance", "--samples=200",
                          "--seed=5", "--steps=10"],
    "verify-growth": ["verify", "--suite=growth", "--samples=200", "--seed=5",
                      "--steps=10"],
    "verify-telescoping": ["verify", "--suite=telescoping", "--samples=100",
                           "--seed=5", "--steps=20"],
    "verify-psh-range": ["verify", "--suite=psh-range", "--samples=200",
                         "--seed=5", "--steps=10"],
    "witness-exact": ["witness", "--target=0.75,0", "--count=3"],
    "witness-general": ["witness", "--target=0.3,-1.2", "--count=3"],
    "witness-skipped": ["witness", "--target=1,0", "--count=2",
                        "--first-branch=-2"],
    "render-csv": ["render", "--w-fixed=0.2,0", "--width=8", "--height=6",
                   "--budget=60", "--out=img.ppm", "--csv-out=grid.csv"],
    "render-default-out": ["render", "--width=4", "--height=3", "--budget=5"],
    "psh": ["psh", "--center-z=2,0.5", "--center-w=4,-1", "--dir-w=0.5,0.5",
            "--radius=0.02", "--samples=32", "--n=6"],
    "psh-too-few-samples": ["psh", "--center-z=-118.5,4.7",
                            "--center-w=-102.4,0.3", "--dir-z=1,0",
                            "--dir-w=1,0", "--radius=1", "--n=2"],
}
CASES = {f"{name}-{fmt}": argv + [f"--format={fmt}"]
         for name, argv in _COMMANDS.items() for fmt in ("text", "tree")}
CASES["help"] = ["--help"]
for _command in ("iterate", "verify", "witness", "render", "psh"):
    CASES[f"{_command}-help"] = [_command, "--help"]


def run_case(argv: list[str], cwd: Path) -> dict:
    """Exit code, stdout and the sha256 of each file written, of main(argv)
    run in the directory cwd with COLUMNS=80."""
    out = io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()),
              mock.patch.dict(os.environ, {"COLUMNS": "80"})):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected argv
                code = exc.code
    finally:
        os.chdir(home)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(cwd.iterdir())}
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "files": files}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, golden, tmp_path):
    assert run_case(CASES[name], tmp_path) == golden[name]


def test_golden_has_no_stale_cases(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    record = {}
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            record[name] = run_case(argv, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
