"""Import budget: ``import cmdist`` loads no SciPy, and each call loads only what it needs.

Each check runs in a fresh interpreter, since this test session has SciPy
loaded already.  The child records the SciPy modules in ``sys.modules``
after each stage and prints them as one JSON object.  The last test checks
that the names the benchmark's tracer patches still exist in the package.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import cmdist

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cmdist.__file__)))

CHILD = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {}
import cmdist, cmdist.cli
stages["import"] = scipy_modules()

from cmdist import PersistenceDiagram, bottleneck_distance, cli, cmd_maximize, fixture
from cmdist.pareto import Contour, analytic_contours

cone, disk = fixture("cone", 16)[1], fixture("disk", 16)[1]
cmd_maximize(cone, disk, 0, 5e-2)
stages["cmd-deg0"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["cmd", "--fixture", "sphere:16", "--fixture2", "ellipsoid(2,1):16",
                     "--mode", "special"])
assert code == 0
stages["cli-special"] = scipy_modules()
cmd_maximize(cone, disk, 1, 5e-2)
stages["cmd-deg1"] = scipy_modules()

bottleneck_distance(PersistenceDiagram.from_pairs(0, [(0.0, 1.0)]),
                    PersistenceDiagram.from_pairs(0, [(0.25, 1.5), (0.5, 0.75)]))
stages["two-sided-bottleneck"] = scipy_modules()
arc = analytic_contours("sphere")[0]
Contour(arc.samples, "sampled", "test")
stages["sampled-contour"] = scipy_modules()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("stage", ["import", "cmd-deg0", "cli-special", "cmd-deg1"])
def test_smooth_workloads_load_no_scipy(stages, stage):
    assert stages[stage] == []


def test_two_sided_bottleneck_loads_no_scipy(stages):
    assert stages["two-sided-bottleneck"] == []


def test_sampled_contour_loads_interpolate(stages):
    assert "scipy.interpolate" in stages["sampled-contour"]


def test_traced_names_resolve(monkeypatch):
    """Every (module, name) that perfbench/tracing.py wraps is an attribute of cmdist.<module>."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    missing = [f"cmdist.{module}.{name}" for modules, name, _span, _counts in tracing.WRAPS
               for module in modules
               if not hasattr(importlib.import_module(f"cmdist.{module}"), name)]
    assert missing == []
