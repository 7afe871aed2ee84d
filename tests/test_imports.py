import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import singlepull

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# tracer sites whose names the package no longer has (ROADMAP item 1)
STALE_SITES = {("singlepull.simulator", "replicate"),
               ("singlepull.whittle", "relative_value_iteration"),
               ("singlepull.cli", "time_policies")}


def run_fresh(code):
    """What `code` prints in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(singlepull.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy_optimize():
    """No import of the package loads scipy.optimize; simplex loads HiGHS's binding
    from its file on the first LP solve, which does not load it either (below)."""
    assert run_fresh("import sys, singlepull; print('scipy.optimize' in sys.modules)") == "False"


def test_a_solve_and_a_cli_run_do_not_load_scipy_optimize(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "domain": {"family": "CPAP"},
        "setting": {"n_types": 2, "n_states": 3, "budget": 1, "rho": 2, "horizon": 3},
        "policies": list(singlepull.POLICY_NAMES), "episodes": 4,
        "out_dir": str(tmp_path / "out")}))
    code = textwrap.dedent(f"""\
        import sys
        from singlepull import cli, domains, lp
        instance = domains.make_instance(domains.DomainSpec("RANDOM", 2, 3),
                                         budget=1, rho=2, horizon=3)
        assert lp.upper_bound(instance) > 0
        after_solve = 'scipy.optimize' in sys.modules
        assert cli.main(["--config", {str(config)!r}]) == cli.EXIT_OK
        print(after_solve, 'scipy.optimize' in sys.modules)""")
    assert run_fresh(code).splitlines()[-1] == "False False"
    assert (tmp_path / "out" / "results.csv").exists()


def test_cli_import_does_not_load_jsonschema():
    """jsonschema is imported on the first config check, not with the CLI."""
    assert run_fresh("import sys, singlepull.cli; print('jsonschema' in sys.modules)") == "False"


LOAD = "binding = simplex._highs()"
IMPORT = "from scipy.optimize._highspy import _core"


@pytest.mark.parametrize("steps", [[LOAD, IMPORT], [IMPORT, LOAD]],
                         ids=["loader-first", "scipy-first"])
def test_the_solver_uses_scipys_binding_module_in_either_import_order(steps):
    """The loader's module is the one scipy.optimize imports, whichever runs first,
    so a patch of scipy's binding reaches the solver and the other way round."""
    code = "; ".join(["import sys", "from singlepull import simplex", *steps,
                      "print(binding is _core is sys.modules[_core.__name__], _core.__name__)"])
    assert run_fresh(code) == "True scipy.optimize._highspy._core"


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
