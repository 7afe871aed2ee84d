"""Golden corpus: sha256 digests of reports and index tables, pinned as test data.

The corpus is small enough for tier-1:
- four CLI runs, one per family, at N=2 S=3 K=1 rho=3 T=4, every policy,
  instance seeds 0 and 1, 10 episodes, --timing --dump-trajectories. Each
  pins results.csv, results.txt and trajectories.jsonl, and timing.csv's
  header and policy column (its clocks vary);
- the same pins for perfbench's cli-report config (MHMH N=10 S=3 K=3
  rho=10 T=10, instance seed 0) at base seed 0;
- one --sweep-rho 1,3,10 run per family of whittle-original at N=2 S=3 K=1
  T=4, instance seed 0, 10 episodes, which pins gap_curve.csv;
- the four index policies' tables on the three index-build instances of
  perfbench (CPAP N=10 S=5 T=10, EHRENFEST N=2 S=4 T=20, RANDOM N=4 S=10
  T=20, seed 0);
- the whittle-original table on CPAP N=4 S=10 T=10 seed 1, which holds a
  jump root of the stationary index (type 1, state 1);
- every deterministic policy's visiting orders, and the HiGHS vertex (the
  occupancy of lp.solve_lp) of the DUMMY and MEAN_FIELD programs, on each
  of those four instances;
- the objective, right-hand sides and both CSR matrices of all three
  programs, on those four instances and on one instance that alternates
  RANDOM S=5 and CPAP S=3 types (seed 0).

A digest moves only with a change that is meant to move outputs. The
digests depend on numpy's and scipy's arithmetic, so they are recorded with
those versions, and a version mismatch fails, naming both versions.
Rewrite golden_digests.json with

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from singlepull import cli, domains, lp, policies

from conftest import mixed_instance
from lp_reference import linprog_form

DIGESTS = Path(__file__).with_name("golden_digests.json")
CLI_SETTING = {"n_types": 2, "n_states": 3, "budget": 1, "rho": 3, "horizon": 4}
CLI_REPORT = {"domain": {"family": domains.MHMH}, "instance_seeds": [0], "episodes": 10,
              "setting": {"n_types": 10, "n_states": 3, "budget": 3, "rho": 10, "horizon": 10}}
SWEEP_RHO = "1,3,10"
INDEX_POLICIES = ("whittle-finite", "whittle-infinite", "whittle-original", "qdiff")
ORDER_POLICIES = tuple(name for name in policies.POLICY_NAMES if name != "random")
VERTEX_VARIANTS = (lp.DUMMY, lp.MEAN_FIELD)
TABLE_CASES = {  # label -> (family, n_types, n_states, horizon, seed, policies)
    "CPAP-N10-S5-T10": (domains.CPAP, 10, 5, 10, 0, INDEX_POLICIES),
    "EHRENFEST-N2-S4-T20": (domains.EHRENFEST, 2, 4, 20, 0, INDEX_POLICIES),
    "RANDOM-N4-S10-T20": (domains.RANDOM, 4, 10, 20, 0, INDEX_POLICIES),
    "CPAP-N4-S10-T10-seed1": (domains.CPAP, 4, 10, 10, 1, ("whittle-original",)),
}
MIXED = "RANDOM-S5+CPAP-S3-N4-T4"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _run_cli(doc: dict, flags: list, out_dir: Path):
    """One singlepull run of config doc at base seed 0, writing into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "config.json"
    config.write_text(json.dumps({**doc, "base_seed": 0, "out_dir": str(out_dir)}))
    code = cli.main(["--config", str(config), *flags])
    assert code == cli.EXIT_OK, f"{doc['domain']['family']}: singlepull exited {code}"


def report_digests(doc: dict, out_dir: Path) -> dict:
    """Digests of the reports of one run of every policy with --timing --dump-trajectories."""
    _run_cli({**doc, "policies": list(policies.POLICY_NAMES)},
             ["--timing", "--dump-trajectories"], out_dir)
    out = {name: _sha((out_dir / name).read_bytes())
           for name in ("results.csv", "results.txt", "trajectories.jsonl")}
    lines = (out_dir / "timing.csv").read_text().splitlines()
    out["timing.csv policy column"] = _sha(
        "\n".join([lines[0]] + [line.split(",")[0] for line in lines[1:]]).encode())
    return out


def cli_digests(family: str, out_dir: Path) -> dict:
    """Digests of one corpus CLI run's reports."""
    return report_digests({"domain": {"family": family}, "setting": CLI_SETTING,
                           "episodes": 10, "instance_seeds": [0, 1]}, out_dir)


def sweep_digest(family: str, out_dir: Path) -> str:
    """Digest of gap_curve.csv from one family's whittle-original rho sweep."""
    _run_cli({"domain": {"family": family}, "setting": CLI_SETTING, "episodes": 10,
              "instance_seeds": [0], "policies": ["whittle-original"]},
             ["--sweep-rho", SWEEP_RHO], out_dir)
    return _sha((out_dir / "gap_curve.csv").read_bytes())


def table_instance(label: str):
    family, n_types, n_states, horizon, seed, _ = TABLE_CASES[label]
    return domains.make_instance(domains.DomainSpec(family, n_types, n_states, seed=seed),
                                 budget=1, rho=1, horizon=horizon)


@functools.cache
def prepared(label: str, policy: str):
    """policy prepared on the instance of TABLE_CASES[label], shared by its digests."""
    built = policies.make_policy(policy)
    built.prepare(table_instance(label))
    return built


def _array_digest(arrays, dtype) -> str:
    """Digest of a sequence of arrays, each one's shape and bytes."""
    digest = hashlib.sha256()
    for values in arrays:
        digest.update(repr(np.shape(values)).encode())
        digest.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return digest.hexdigest()


def table_digest(label: str, policy: str) -> str:
    """Digest of one index policy's table, every type's shape and bytes."""
    return _array_digest(prepared(label, policy).table.values, float)


def orders_digest(label: str, policy: str) -> str:
    """Digest of one deterministic policy's orders, every epoch's length and ids."""
    return _array_digest(prepared(label, policy).orders, np.int64)


def matrices_digest(label: str, variant: str) -> str:
    """Digest of one program's objective, right-hand sides and both CSR matrices."""
    inst = mixed_instance() if label == MIXED else table_instance(label)
    prob = lp.build_occupancy_lp(inst, variant)
    form = linprog_form(prob)
    csr = (form["A_ub"], form["A_eq"])
    values = _array_digest([prob.objective, form["b_ub"], form["b_eq"], *(A.data for A in csr)],
                           float)
    ids = _array_digest([x for A in csr for x in (A.indptr, A.indices)], np.int64)
    return _sha((values + ids).encode())


def vertex_digest(label: str, variant: str) -> str:
    """Digest of the occupancy HiGHS returns for one program, every type's block."""
    solution = lp.solve_lp(lp.build_occupancy_lp(table_instance(label), variant))
    return _array_digest(solution.occupancy, float)


@pytest.fixture(scope="module")
def recorded():
    doc = json.loads(DIGESTS.read_text())
    if doc["versions"] != versions():
        pytest.fail(f"the golden digests were recorded with {doc['versions']}, "
                    f"but this environment has {versions()}; rerun the corpus at the "
                    f"recorded versions, or record it again at these ones")
    return doc


@pytest.mark.parametrize("family", domains.FAMILIES)
def test_cli_reports_match_the_corpus(recorded, tmp_path, family):
    assert cli_digests(family, tmp_path) == recorded["cli"][family]


def test_cli_report_config_matches_the_corpus(recorded, tmp_path):
    assert report_digests(CLI_REPORT, tmp_path) == recorded["cli-report"]


@pytest.mark.parametrize("family", domains.FAMILIES)
def test_sweep_rho_gap_curves_match_the_corpus(recorded, tmp_path, family):
    assert sweep_digest(family, tmp_path) == recorded["sweep-rho"][family]


def table_digests() -> dict:
    return {f"{label}/{policy}": table_digest(label, policy)
            for label, case in TABLE_CASES.items() for policy in case[-1]}


def test_index_tables_match_the_corpus(recorded):
    assert table_digests() == recorded["tables"]


def orders_digests() -> dict:
    return {f"{label}/{policy}": orders_digest(label, policy)
            for label in TABLE_CASES for policy in ORDER_POLICIES}


def test_orders_match_the_corpus(recorded):
    assert orders_digests() == recorded["orders"]


def vertex_digests() -> dict:
    return {f"{label}/{variant}": vertex_digest(label, variant)
            for label in TABLE_CASES for variant in VERTEX_VARIANTS}


def test_highs_vertices_match_the_corpus(recorded):
    assert vertex_digests() == recorded["vertices"]


def matrices_digests() -> dict:
    return {f"{label}/{variant}": matrices_digest(label, variant)
            for label in (*TABLE_CASES, MIXED) for variant in lp.VARIANTS}


def test_lp_matrices_match_the_corpus(recorded):
    assert matrices_digests() == recorded["matrices"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {
            "versions": versions(),
            "cli": {family: cli_digests(family, Path(tmp) / family)
                    for family in domains.FAMILIES},
            "cli-report": report_digests(CLI_REPORT, Path(tmp) / "cli-report"),
            "sweep-rho": {family: sweep_digest(family, Path(tmp) / f"sweep-{family}")
                          for family in domains.FAMILIES},
            "tables": table_digests(),
            "orders": orders_digests(),
            "vertices": vertex_digests(),
            "matrices": matrices_digests(),
        }
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
