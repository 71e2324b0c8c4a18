#!/usr/bin/env python3
"""graphsync benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload team-sync --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check [--seed 1]

Run from the repository root; the package is imported from `src/`.
`--workload all` runs every workload, each in its own process.  A run
builds worlds from the seed and runs them one after another until
`--seconds` have passed, checks every output, prints a report and ends
with one JSON line: `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` measures the end-to-end metrics listed in BENCHMARK.json.
Its only instruments are a timer around each frame handed to an agent,
a timer around each merge the benchmark makes, and a counter of the
timers the world schedules.  `--trace 1` runs the seed's world once
under the span tracer (see tracer.py), then untraced until `--seconds`
have passed, and reports the per-layer metrics and the tracing
overhead.  It also writes the spans and the per-layer table under
`.bench_out/`.  See README.md for the metrics and workloads.

`--self-check` runs team-sync and bulk-transfer once each under two
PYTHONHASHSEED values and fails unless their deterministic outputs
(simulated convergence and transfer times, wire bytes, output file
hashes) are identical.

Exit status: 0 when every check passed, 1 when an output check failed
(the JSON line is still printed), 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# World seeds of one run: seed, seed + STRIDE, ... cycling over the
# workload's `cycle` worlds.
STRIDE = 1000
RELOAD_BUDGET_S = 0.1
RELOAD_MAX = 7
# No iteration starts after this many seconds from process start, so a
# run with stopped worlds still ends within three minutes.
DEADLINE_S = 150
START = time.perf_counter()


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "gc_thresholds": list(gc.get_threshold()),
    }


def percentiles(values: array) -> dict[int, float]:
    """Nearest-rank 50th, 95th and 99th percentiles."""
    ordered = sorted(values)
    return {q: float(ordered[int(max(1, -(-len(ordered) * q // 100))) - 1]) for q in (50, 95, 99)}


def one_iteration(wl, world_seed: int, workdir: Path, tracer=None):
    """Set up one world `wl.setups` times and run the last build; then
    release it and time the reload.  Returns (result, set-up seconds)."""
    from workloads import Checks

    collect = tracer.collect if tracer is not None else gc.collect
    collect()
    workdir.mkdir(parents=True)
    try:
        if tracer is not None:
            tracer.install()
        try:
            setup_s = []
            for _ in range(wl.setups):
                world = None  # release the previous build before timing the next
                t0 = time.perf_counter()
                world = wl.setup(world_seed, str(workdir), time_frames=tracer is None)
                setup_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.reset()
            res = wl.run(world)
            world = None
            collect()
            # A short reload is repeated, checks kept from the first, for
            # a steady median; the traced run reloads once.
            reload_s = []
            checks = res.checks
            while not reload_s or (tracer is None and len(reload_s) < RELOAD_MAX
                                   and sum(reload_s) < RELOAD_BUDGET_S):
                t0 = time.perf_counter()
                res.reload(checks)
                reload_s.append(time.perf_counter() - t0)
                checks = Checks()
            res.reload_s = statistics.median(reload_s)
            res.reload = None
        finally:
            if tracer is not None:
                tracer.remove()
    finally:
        shutil.rmtree(workdir)
    return res, setup_s


class Tally:
    """Everything measured over the iterations of one run.  Per world it
    keeps one value per iteration; the run reports the mean over worlds
    of each world's median.  Samples are reduced to percentiles as each
    iteration ends, so memory does not grow with the iteration count."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.iter_s: list[float] = []
        self.per_world: dict[str, dict[int, list[float]]] = {}
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.figures: dict[int, list[dict]] = {}
        self.fingerprints: dict[int, dict] = {}

    def add(self, world_seed: int, res, setup_s: list[float], iter_s: float,
            timed: bool = True) -> None:
        self.attempted += res.attempted
        self.failed += res.checks.failed
        self.problems += [f"world {world_seed}: {p}" for p in res.checks.problems]
        known = self.fingerprints.setdefault(world_seed, res.fingerprint)
        if known != res.fingerprint:
            self.failed += 1
            self.problems.append(f"world {world_seed} not reproducible: "
                                 f"{known} then {res.fingerprint}")
        if not timed or res.stopped:
            return
        res.figures["wall_s"] = res.wall_s
        self.figures.setdefault(world_seed, []).append(res.figures)
        self.setup_s += setup_s
        self.iter_s.append(iter_s)
        self.ops += len(res.op_ns)
        pct = percentiles(res.op_ns)
        for key, value in (("wall_s", res.wall_s), ("reload_s", res.reload_s),
                           ("op_p50_us", pct[50] / 1e3), ("op_p95_us", pct[95] / 1e3),
                           ("op_p99_us", pct[99] / 1e3)):
            self.per_world.setdefault(key, {}).setdefault(world_seed, []).append(value)

    def mean_figure(self, key: str) -> float:
        return statistics.fmean(f[key] for runs in self.figures.values() for f in runs)

    def value(self, key: str) -> float:
        """Mean over worlds of each world's median."""
        return statistics.fmean(statistics.median(v) for v in self.per_world[key].values())

    def end_to_end(self) -> dict[str, float]:
        metrics = {"setup_s": statistics.median(self.setup_s)}
        for key in ("wall_s", "op_p50_us", "op_p95_us", "reload_s"):
            metrics[key] = self.value(key)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return metrics


def run_untraced(wl, seconds: float, tmp: Path, tally: Tally, worlds: list[int],
                 min_iterations: int) -> None:
    """Run the worlds in turn until `seconds` have passed."""
    start = time.perf_counter()
    i = 0
    while True:
        ws = worlds[i % len(worlds)]
        t0 = time.perf_counter()
        res, setup_s = one_iteration(wl, ws, tmp / f"iter{i}")
        tally.add(ws, res, setup_s, time.perf_counter() - t0)
        i += 1
        now = time.perf_counter()
        if now - START > DEADLINE_S:
            return
        typical = statistics.median(tally.iter_s) if tally.iter_s else 0.0
        if i >= min_iterations and now - start + typical > seconds:
            return


def report_rows(wl, e2e: dict, tally: Tally) -> list[tuple]:
    """The end-to-end figures under the names of the workload's own
    operations, including those that only this workload has.  Simulated
    times and wire bytes are those of the first world measured."""
    first = next(iter(tally.figures.values()))[0]
    n = f"(n={tally.ops})"
    rows = [("setup_s", e2e["setup_s"], "s"), ("wall_s", e2e["wall_s"], "s")]
    if wl.op == "merge":
        rows += [("merge_p50_ms", e2e["op_p50_us"] / 1e3, f"ms {n}"),
                 ("merge_p95_ms", e2e["op_p95_us"] / 1e3, f"ms {n}"),
                 ("log_mib", first["log_mib"], "MiB")]
    else:
        rows += [("events_per_s", tally.mean_figure("events_per_s"), "1/s"),
                 ("frame_p50_us", e2e["op_p50_us"], f"us {n}"),
                 ("frame_p95_us", e2e["op_p95_us"], f"us {n}"),
                 ("wire_kib", first["wire_kib"], "KiB")]
    if wl.name == "team-sync":
        rows.append(("converge_sim_ms", first["converge_sim_ms"], "sim ms"))
    if wl.name == "bulk-transfer":
        goodput = statistics.fmean(f["verified_mib"] / f["wall_s"]
                                   for runs in tally.figures.values() for f in runs)
        rows += [("goodput_mib_per_s", goodput, "MiB/s"),
                 ("transfer_sim_p50_ms", first["transfer_sim_p50_ms"], "sim ms")]
    rows += [("reload_s", e2e["reload_s"], "s"),
             ("failed_ops_ratio", tally.failed / max(tally.attempted, 1), "ratio"),
             ("peak_rss_mib", e2e["peak_rss_mib"], "MiB")]
    return rows


def warm_up(wl, seed: int, tmp: Path, tally: Tally) -> None:
    """Run the seed's world once, checked but not timed, so that the
    timed runs do not pay the process's first-run costs."""
    res, _ = one_iteration(wl, seed, tmp / "warm-up")
    tally.add(seed, res, [], 0.0, timed=False)


def measure(wl, seed: int, seconds: float, tmp: Path) -> dict:
    tally = Tally()
    worlds = [seed + STRIDE * j for j in range(wl.cycle)]
    warm_up(wl, seed, tmp, tally)
    run_untraced(wl, seconds, tmp, tally, worlds, min_iterations=wl.cycle)
    if not tally.iter_s:
        return {"worlds": worlds, "tally": tally, "metrics": None, "rows": []}
    e2e = tally.end_to_end()
    return {"worlds": worlds, "tally": tally, "metrics": e2e,
            "rows": report_rows(wl, e2e, tally)}


def measure_traced(wl, seed: int, seconds: float, tmp: Path) -> dict:
    """The seed's world once traced, then untraced until `seconds` have
    passed; per-layer metrics come from the traced run, the overhead
    from comparing it with the untraced ones."""
    import tracer as tracing

    tally = Tally()
    warm_up(wl, seed, tmp, tally)
    start = time.perf_counter()
    tracer = tracing.Tracer()
    traced, _ = one_iteration(wl, seed, tmp / "traced", tracer)
    tally.add(seed, traced, [], 0.0, timed=False)
    run_untraced(wl, seconds - (time.perf_counter() - start), tmp, tally, [seed],
                 min_iterations=1)
    if not tally.iter_s or traced.stopped:
        return {"worlds": [seed], "tally": tally, "metrics": None, "rows": []}

    untraced_wall = tally.value("wall_s")
    figures = dict(traced.figures)
    if wl.op == "frame":
        figures["frame_p99_us"] = tally.value("op_p99_us")
    metrics = tracing.layer_metrics(tracer, figures)
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.unattributed_s"] = traced.wall_s - tracer.total_self_s()
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced_wall

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}"
    tracer.write_spans(OUT / f"spans-{stem}.tsv")
    with open(OUT / f"layers-{stem}.tsv", "w") as fh:
        fh.write("metric\tvalue\n")
        fh.writelines(f"{k}\t{v}\n" for k, v in metrics.items())
    rows = [(k, v, "") for k, v in metrics.items()]
    rows.append(("(untraced wall_s)", untraced_wall, f"s; {tracer.spans_total} spans traced"))
    return {"worlds": [seed], "tally": tally, "metrics": metrics, "rows": rows}


def emit(spec: list[dict], values: dict[str, float]) -> dict:
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec}


def run_workload(args, bench: dict) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    facts = machine_facts()
    print(f"graphsync benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        report = (measure_traced if args.trace else measure)(wl, args.seed, args.seconds, tmp)
        tally = report["tally"]
        if hasattr(wl, "final_checks"):
            tmp.mkdir(parents=True, exist_ok=True)
            checks = wl.final_checks(str(tmp))
            tally.attempted += 1
            tally.failed += checks.failed
            tally.problems += checks.problems
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"worlds: {report['worlds']}  iterations: {len(tally.iter_s)}")
    for name, value, unit in report["rows"]:
        print(f"  {name:<44} {value!s:>22} {unit}")
    for p in tally.problems:
        print(f"CHECK FAILED: {p}")
    correct = not tally.problems and tally.failed == 0
    print(f"checks: {'PASS' if correct else 'FAIL'} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    if report["metrics"] is None:
        print("error: no world finished, so there is nothing to report", file=sys.stderr)
        return 1

    spec = bench["per_layer" if args.trace else "end_to_end"]
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": emit(spec, report["metrics"])}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"machine": facts, "worlds": report["worlds"],
                   "report": [[n, v, u] for n, v, u in report["rows"]],
                   "problems": tally.problems, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def fingerprint_once(args) -> int:
    """Run the seed's world once and print its deterministic outputs."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        res, _ = one_iteration(wl, args.seed, tmp / "once")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"fingerprint": res.fingerprint, "problems": res.checks.problems}))
    return 0


def run_all(args, names: list[str]) -> int:
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = max(status, proc.returncode)
    return status


def self_check(args) -> int:
    ok = True
    for name in ("team-sync", "bulk-transfer"):
        outputs = {}
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--fingerprint-once",
                 "--workload", name, "--seed", str(args.seed)],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=600, check=False,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"[FAIL] {name}: run under PYTHONHASHSEED={hash_seed} exited "
                      f"{proc.returncode}")
                ok = False
                break
            outputs[hash_seed] = json.loads(proc.stdout.strip().splitlines()[-1])
        else:
            same = outputs["0"]["fingerprint"] == outputs["1"]["fingerprint"]
            ok &= same
            print(f"[{'PASS' if same else 'FAIL'}] {name} seed {args.seed}: "
                  f"PYTHONHASHSEED 0 {outputs['0']['fingerprint']}")
            if not same:
                print(f"       PYTHONHASHSEED 1 {outputs['1']['fingerprint']}")
            for hash_seed, out in outputs.items():
                for p in out["problems"]:
                    ok = False
                    print(f"[FAIL] {name} under PYTHONHASHSEED={hash_seed}: {p}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--fingerprint-once", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "graphsync" / "__init__.py").is_file():
        print(f"error: graphsync sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.self_check:
        return self_check(args)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all" and not args.fingerprint_once:
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    if args.fingerprint_once:
        return fingerprint_once(args)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
