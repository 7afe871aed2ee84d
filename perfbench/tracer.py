"""Span tracer that wraps singlepull's public functions from outside the package.

Each wrapped call records a span (id, parent id, name, start, end). A name
is wrapped where its caller looks it up: `lp.py` calls `simplex.solve`
through the module, so the module attribute is replaced; `experiments.py`
imported `run_episode` by name, so its own binding is replaced as well.
The package source is never edited; `install` swaps attributes in the
running process and `uninstall` puts the originals back.

Self time of a span is its duration minus the time covered by its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

# (module, attribute, span name). Several bindings of one function share a
# span name, so the figure does not depend on which caller made the call.
FUNCTION_SITES = (
    ("singlepull.simplex", "solve", "simplex.solve"),
    ("singlepull.lp", "solve_lp", "lp.solve_lp"),
    ("singlepull.lp", "build_occupancy_lp", "lp.build_occupancy_lp"),
    ("singlepull.lp", "upper_bound", "lp.upper_bound"),
    ("singlepull.simulator", "step", "simulator.step"),
    ("singlepull.simulator", "run_episode", "simulator.run_episode"),
    ("singlepull.experiments", "run_episode", "simulator.run_episode"),
    ("singlepull.simulator", "replicate", "model.replicate"),
    ("singlepull.model", "validate_instance", "model.validate_instance"),
    ("singlepull.policies", "compute_chi", "policies.compute_chi"),
    ("singlepull.policies", "whittle_index_finite", "whittle.index"),
    ("singlepull.policies", "whittle_index_infinite", "whittle.index"),
    ("singlepull.policies", "q_difference_indices", "whittle.index"),
    ("singlepull.whittle", "relative_value_iteration", "whittle.dp"),
    ("singlepull.whittle", "finite_horizon_qdiff", "whittle.dp"),
    ("singlepull.experiments", "run_experiment", "experiments.run_experiment"),
    ("singlepull.cli", "run_experiment", "experiments.run_experiment"),
    ("singlepull.experiments", "time_policies", "experiments.time_policies"),
    ("singlepull.cli", "time_policies", "experiments.time_policies"),
    ("singlepull.experiments", "make_instance", "domains.make_instance"),
    ("singlepull.domains", "make_instance", "domains.make_instance"),
    ("singlepull.oracle", "exact_optimum", "oracle.exact_optimum"),
)


_INHERITED = object()


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def bump(self, key: str, value: float, combine=None):
        old = self.counters.get(key)
        self.counters[key] = value if old is None else (combine or (lambda a, b: a + b))(old, value)


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end)
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []   # [id, child_seconds]
        self._next_id = 0
        self._saved: list[tuple] = []

    def reset(self):
        self.spans.clear()
        self.stats.clear()

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, fn, name: str, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                st = tracer.stat(name)
                st.calls += 1
                st.total_s += duration
                st.self_s += duration - frame[1]
                tracer.spans.append((span_id, parent, name, start, end))
            if on_return is not None:
                on_return(tracer.stat(name), args, kwargs, result)
            return result

        return traced

    def _swap(self, owner, attr: str, new):
        # A class may inherit the method; restoring then means deleting ours.
        self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every site that exists; a missing module or name is skipped."""
        for mod_name, attr, span in FUNCTION_SITES:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._swap(mod, attr, self.wrap(fn, span, ON_RETURN.get(span)))
        try:
            policies = importlib.import_module("singlepull.policies")
        except ImportError:
            return
        for cls in getattr(policies, "POLICY_REGISTRY", {}).values():
            self._swap(cls, "prepare", self.wrap(cls.prepare, f"policies.prepare.{cls.name}"))
            self._swap(cls, "select", self.wrap(cls.select, "policies.select"))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def write_spans(self, path):
        """One JSON array per line: [id, parent, name, start_s, end_s]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _on_simplex(st: Stat, args, kwargs, result):
    st.bump("iterations", int(getattr(result, "iterations", 0) or 0))


def _on_build(st: Stat, args, kwargs, result):
    """Record the size of the largest program built.

    Reads a list of row objects (`constraints`) or, failing that, any sparse
    matrix the problem holds, so a rewritten builder is still measured.
    """
    cons = getattr(result, "constraints", None)
    if cons is not None:
        rows = len(cons)
        nnz = sum(len(c.cols) for c in cons)
    else:
        mats = [v for v in vars(result).values() if hasattr(v, "nnz") and hasattr(v, "shape")]
        rows = sum(m.shape[0] for m in mats)
        nnz = sum(int(m.nnz) for m in mats)
    cols = int(getattr(result, "n_vars", 0) or 0)
    st.bump("rows", rows, max)
    st.bump("cols", cols, max)
    st.bump("nnz", nnz, max)


ON_RETURN = {
    "simplex.solve": _on_simplex,
    "lp.build_occupancy_lp": _on_build,
}


def layer_metrics(pass_stats: dict[str, Stat], check_stats: dict[str, Stat],
                  policy_names) -> dict[str, float]:
    """Per-layer figures from one traced pass (and the oracle from the checks)."""

    def s(name):
        return pass_stats.get(name, Stat())

    episodes = s("simulator.run_episode").calls
    out = {
        "simplex.solve_s": s("simplex.solve").total_s,
        "simplex.iterations": s("simplex.solve").counters.get("iterations", 0),
        "lp.solve_calls": s("lp.solve_lp").calls,
        "lp.solve_self_s": s("lp.solve_lp").self_s,
        "lp.build_calls": s("lp.build_occupancy_lp").calls,
        "lp.build_s": s("lp.build_occupancy_lp").total_s,
        "lp.rows": s("lp.build_occupancy_lp").counters.get("rows", 0),
        "lp.cols": s("lp.build_occupancy_lp").counters.get("cols", 0),
        "lp.nnz": s("lp.build_occupancy_lp").counters.get("nnz", 0),
        "simulator.step_s": s("simulator.step").total_s,
        "simulator.step_calls": s("simulator.step").calls,
        "simulator.episode_s": s("simulator.run_episode").total_s,
        "simulator.episode_calls": episodes,
        "policies.select_s": s("policies.select").total_s,
        "policies.select_calls": s("policies.select").calls,
        "model.replicate_s": s("model.replicate").total_s,
        "model.validate_calls": s("model.validate_instance").calls,
        "whittle.index_s": s("whittle.index").total_s,
        "whittle.index_calls": s("whittle.index").calls,
        "whittle.dp_s": s("whittle.dp").total_s,
        "whittle.dp_calls": s("whittle.dp").calls,
        "experiments.run_experiment_s": s("experiments.run_experiment").total_s,
        "experiments.time_policies_s": s("experiments.time_policies").total_s,
        "policies.compute_chi_s": s("policies.compute_chi").total_s,
        "domains.make_instance_s": s("domains.make_instance").total_s,
        "oracle.exact_optimum_s": check_stats.get("oracle.exact_optimum", Stat()).total_s,
    }
    for name in policy_names:
        out[f"policies.prepare_s.{name}"] = s(f"policies.prepare.{name}").total_s
    return out
