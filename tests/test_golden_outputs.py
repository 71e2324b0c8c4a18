"""Byte-level pins on every experiment's seed-1 outputs.

Each experiment runs in a fresh interpreter under PYTHONHASHSEED 0 and
1, and the sha256 prefix of every deterministic output file must equal
the pinned value.  A refactor of the harness or the core that changes a
single byte of a CSV, a report or a revision log fails here.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import test_experiments

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

RUNS = """
import os, sys
from graphsync import experiments
from graphsync.netsim import parse_scenario

out = sys.argv[1]
experiments.run_partition_12(os.path.join(out, "partition-12"), seed=1)
for policy in ("merge-only", "merge-rebase"):
    experiments.run_never_sync(os.path.join(out, "never-sync"), policy, seed=1)
experiments.run_collab_mapping(os.path.join(out, "collab-mapping"), seed=1)
experiments.run_scenario(parse_scenario(sys.argv[2]), os.path.join(out, "scenario"))
experiments.run_transfer_fuzz(os.path.join(out, "transfer-fuzz"), runs=5, seed=0)
"""

GOLDEN = {
    "partition-12/summary.csv": "280845c47861d4b1",
    "partition-12/events.csv": "3b10afa819ddbd67",
    "partition-12/doc0.log": "0a016c63c46dc906",
    "never-sync/never-sync-merge-only.csv": "fb6ad377d84111d6",
    "never-sync/never-sync-merge-only-report.txt": "a4059bea52ff5984",
    "never-sync/never-sync-merge-rebase.csv": "67a9a42c89283d17",
    "never-sync/never-sync-merge-rebase-report.txt": "afdefcd65e10fb75",
    "collab-mapping/holders.csv": "f149408b3816c6a5",
    "collab-mapping/mapping-report.txt": "333858bdac9910ba",
    "collab-mapping/payloads.csv": "1ca24743d85fa098",
    "scenario/summary.csv": "ec3948ad6079f833",
    "scenario/events.csv": "4540eec5605600cb",
    "scenario/payloads.csv": "7805ec9fd093be88",
    "scenario/doc_m.log": "1df862276a6ea07f",
    "transfer-fuzz/transfer-fuzz.csv": "82f942812d44d3ff",
}


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_experiment_outputs_match_golden(tmp_path, hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    scenario = test_experiments.TestScenarioRunner.SCN
    subprocess.run([sys.executable, "-c", RUNS, str(tmp_path), scenario], env=env, check=True)
    got = {}
    for name in GOLDEN:
        with open(tmp_path / name, "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()[:16]
    assert got == GOLDEN
