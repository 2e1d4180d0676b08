import json
import os
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest

import bakerbench


def test_all_is_sorted_without_duplicates():
    assert bakerbench.__all__ == sorted(set(bakerbench.__all__))


def test_all_names_resolve():
    for name in bakerbench.__all__:
        assert hasattr(bakerbench, name), name


def test_all_matches_the_public_namespace():
    # dir() rather than vars(): the package binds a name on first use.
    public = {name for name in dir(bakerbench)
              if not name.startswith("_")
              and not isinstance(getattr(bakerbench, name), types.ModuleType)}
    assert set(bakerbench.__all__) == public


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bakerbench import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == bakerbench.__all__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bakerbench.no_such_name


def test_each_name_is_the_object_its_module_defines():
    for name, module in bakerbench._MODULE.items():
        assert getattr(bakerbench, name) is getattr(import_module(f"bakerbench.{module}"), name)


# Run in a fresh interpreter: the facts below are about what one process
# imports, which the test session has long since loaded.
IMPORT_GRAPH = """
import contextlib, io, json, sys
import bakerbench
facts = {"package": sorted(m for m in sys.modules
                           if m.startswith("bakerbench.") or m == "numpy")}
render_stack = ("bakerbench.render", "concurrent.futures")
from bakerbench import cli
facts["cli"] = [m for m in render_stack if m in sys.modules]
calls = [
    ["verify", "--suite=invariance", "--samples=20", "--steps=5"],
    ["psh", "--center-z=2,0.5", "--center-w=4,-1", "--samples=8", "--n=2"],
    ["witness", "--target=0.3,-1.2", "--count=1"],
    ["iterate", "--z=0,0", "--w=0,0", "--steps=2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    facts["codes"] = [cli.main(argv) for argv in calls]
    facts["calls"] = [m for m in render_stack if m in sys.modules]
    facts["codes"].append(cli.main(["render", "--width=8", "--height=8",
                                    "--budget=10", f"--out={sys.argv[1]}"]))
facts["render"] = [m for m in render_stack if m in sys.modules]
facts["same"] = bakerbench.SliceSpec is bakerbench.render.SliceSpec
print(json.dumps(facts))
"""


def test_import_graph(tmp_path):
    src = str(Path(bakerbench.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_GRAPH, str(tmp_path / "s.ppm")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts["package"] == []  # import bakerbench loads no submodule, no numpy
    assert facts["cli"] == []
    assert facts["codes"] == [0] * 5
    assert facts["calls"] == []  # verify, psh, witness, iterate
    assert facts["render"] == ["bakerbench.render", "concurrent.futures"]
    assert facts["same"]
