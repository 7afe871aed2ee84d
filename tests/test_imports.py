import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import singlepull

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# tracer sites whose names the package no longer has (ROADMAP item 1)
STALE_SITES = {("singlepull.simulator", "replicate"),
               ("singlepull.whittle", "relative_value_iteration"),
               ("singlepull.cli", "time_policies")}


def test_import_does_not_load_scipy_optimize():
    """scipy.optimize is imported inside simplex.solve, on the first LP solve only."""
    src = os.path.dirname(os.path.dirname(singlepull.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, singlepull; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_tracer_sites_resolve_but_the_known_stale_ones(monkeypatch):
    """The benchmark's tracer skips a (module, name) site that is gone without a word,
    so a renamed function would read 0 in its metric: every other site must resolve."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up
    spec.loader.exec_module(tracer)
    unresolved = {(module, name) for module, name, _ in tracer.FUNCTION_SITES
                  if not callable(getattr(importlib.import_module(module), name, None))}
    assert unresolved == STALE_SITES
