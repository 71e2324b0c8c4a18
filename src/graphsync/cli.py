"""Command-line runner for the desk-scale experiments.

    graphsync run <experiment> --seed S [--agents N --docs M --changes C
                                         --revisions K --out PATH]
    graphsync verify <PATH>
    graphsync scenario <FILE> [--out PATH]

Exit status is nonzero when a run violates its invariants or a
verification check fails; a scenario file that does not parse exits 2.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .netsim import ScenarioError, parse_scenario

EXPERIMENTS = (
    "merge-scaling",
    "rebase-scaling",
    "partition-12",
    "max-rate",
    "never-sync",
    "collab-mapping",
    "transfer-fuzz",
)


def _run(args) -> int:
    out = args.out
    name = args.experiment
    if name == "merge-scaling":
        res = experiments.run_merge_scaling(out, revisions=args.revisions)
        totals = ", ".join(
            f"{k}t: {v['total']:.3f}s (linear r2 {v['single_linear_r2']:.3f})"
            for k, v in res.items()
        )
        print(f"merge-scaling: {args.revisions} revisions, {totals}")
        return 0
    if name == "rebase-scaling":
        res = experiments.run_rebase_scaling(out, seed=args.seed)
        if not res["squash_tip_equal"]:
            print("FAIL: squashed and unsquashed rebase tips differ", file=sys.stderr)
            return 1
        print(f"rebase-scaling: tips equal across variants, linear r2 "
              f"{res['linear_r2']:.3f}")
        return 0
    if name == "partition-12":
        res = experiments.run_partition_12(out, seed=args.seed)
        bad = [k for k in ("converged", "all_published_reachable", "no_lost_updates")
               if not res[k]]
        if bad or res["n_masters"] != 1:
            print(f"FAIL: {bad or 'masters=' + str(res['n_masters'])}", file=sys.stderr)
            return 1
        print(f"partition-12: converged, {res['n_published']} revisions published, "
              f"{res['n_events']} deliveries")
        return 0
    if name == "max-rate":
        res = experiments.run_max_rate(out, agents=args.agents, docs=args.docs,
                                       changes=args.changes, seed=args.seed)
        print(f"max-rate: avg merge {res['average_merge_seconds']:.4f}s per iteration")
        return 0
    if name == "never-sync":
        merge_only = experiments.run_never_sync(out, "merge-only", seed=args.seed)
        rebased = experiments.run_never_sync(out, "merge-rebase", seed=args.seed)
        ok = merge_only["b_never_saw_a"] and rebased["converged_at"] is not None
        print(f"never-sync: merge-only starved={merge_only['b_never_saw_a']}, "
              f"merge+rebase converged at {rebased['converged_at']} ms "
              f"(T_Total={rebased['T_Total']} ms)")
        return 0 if ok else 1
    if name == "collab-mapping":
        res = experiments.run_collab_mapping(out, seed=args.seed)
        want = {"ds:A": True, "ds:B": False, "ds:C": True, "ds:D": True}
        if res["op_holding"] != want:
            print(f"FAIL: operator holds {res['op_holding']}", file=sys.stderr)
            return 1
        print(f"collab-mapping: operator holds A, C, D and not B; "
              f"remainder area {res['remainder_area']}")
        return 0
    if name == "transfer-fuzz":
        res = experiments.run_transfer_fuzz(out, seed=args.seed)
        if res["failures"] or res["tau_violations"] or not res["corruption_aborts_cleanly"]:
            print(f"FAIL: {res}", file=sys.stderr)
            return 1
        print(f"transfer-fuzz: {res['runs']} runs clean")
        return 0
    raise SystemExit(f"unknown experiment {name!r}")


def _verify(args) -> int:
    ok, lines = experiments.verify_run(args.path)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _scenario(args) -> int:
    with open(args.file) as fh:
        text = fh.read()
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        print(f"graphsync scenario: {args.file}: {exc}", file=sys.stderr)
        return 2
    res = experiments.run_scenario(scenario, args.out)
    print(f"scenario: {len(res['agents'])} agents, documents {res['documents']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="graphsync")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("experiment", choices=EXPERIMENTS)
    run.add_argument("--agents", type=int, default=2)
    run.add_argument("--docs", type=int, default=1)
    run.add_argument("--changes", type=int, default=10)
    run.add_argument("--revisions", type=int, default=200)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", default="out")
    run.set_defaults(fn=_run)

    ver = sub.add_parser("verify", help="re-check a run directory offline")
    ver.add_argument("path")
    ver.set_defaults(fn=_verify)

    scn = sub.add_parser("scenario", help="run a scenario file")
    scn.add_argument("file")
    scn.add_argument("--out", default="out")
    scn.set_defaults(fn=_scenario)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
