import itertools
import os
import random
import subprocess
import sys

import pytest

from graphsync import experiments
from graphsync.cli import main
from graphsync.netsim import parse_scenario

from test_acceptance import fit_r2 as numpy_fit_r2

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_python(script, *args, **env):
    """Run script in a fresh interpreter that imports graphsync from src."""
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, check=True)


def series(kind, n, seed):
    rng = random.Random(seed)
    if kind == "linear":
        return [3.0 + 0.5 * x for x in range(1, n + 1)]
    noisy = [2e-4 * x + rng.gauss(0, 1e-3) for x in range(1, n + 1)]
    return noisy if kind == "noisy" else list(itertools.accumulate(noisy))


class TestFitR2:
    @pytest.mark.parametrize("kind", ["linear", "noisy", "cumulative"])
    @pytest.mark.parametrize("n", [5, 20, 200])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_matches_the_numpy_fit(self, kind, n, degree):
        for seed in range(5):
            xs, ys = list(range(1, n + 1)), series(kind, n, seed)
            oracle, _ = numpy_fit_r2(xs, ys, degree)
            assert abs(experiments.fit_r2(xs, ys, degree) - oracle) < 1e-12

    @pytest.mark.parametrize("degree", [1, 2])
    def test_constant_series_fits_perfectly(self, degree):
        assert experiments.fit_r2([1, 2, 3, 4], [0.25] * 4, degree) == 1.0


class TestMergeScaling:
    def test_small_run_shapes(self, tmp_path):
        res = experiments.run_merge_scaling(tmp_path, revisions=30, triple_counts=(10,))
        assert res[10]["final_triples"] == 5 + 30 * 10
        assert len(res[10]["singles"]) == 29
        assert read(tmp_path / "merge-scaling.csv").startswith(b"triples_per_revision")


class TestMaxRate:
    def test_deterministic_csv_across_runs_and_seeds(self, tmp_path):
        for seed in (1, 2, 3):
            a, b = tmp_path / f"a{seed}", tmp_path / f"b{seed}"
            experiments.run_max_rate(a, agents=2, docs=1, changes=10, seed=seed)
            experiments.run_max_rate(b, agents=2, docs=1, changes=10, seed=seed)
            assert read(a / "max-rate.csv") == read(b / "max-rate.csv")

    def test_merge_count_matches_agents(self, tmp_path):
        experiments.run_max_rate(tmp_path, agents=5, docs=2, changes=10, seed=1,
                                 iterations=3)
        rows = read(tmp_path / "max-rate.csv").decode().strip().splitlines()[1:]
        for row in rows:
            it, doc, merges, triples = row.split(",")
            assert int(merges) == 4  # N heads fold into one with N-1 merges


class TestNeverSync:
    def test_merge_only_starves_b(self, tmp_path):
        res = experiments.run_never_sync(tmp_path, "merge-only", seed=2,
                                         edit_stop=3000, hard_end=8000)
        assert res["b_never_saw_a"]

    def test_merge_rebase_converges(self, tmp_path):
        res = experiments.run_never_sync(tmp_path, "merge-rebase", seed=2,
                                         edit_stop=3000, hard_end=12_000)
        assert not res["b_never_saw_a"]
        assert res["converged_at"] is not None


class TestCollabMapping:
    def test_outputs_independent_of_hash_seed(self, tmp_path):
        script = ("import sys; from graphsync.experiments import run_collab_mapping; "
                  "run_collab_mapping(sys.argv[1], seed=1)")
        for hash_seed in ("0", "1"):
            run_python(script, tmp_path / hash_seed, PYTHONHASHSEED=hash_seed)
        for name in ("holders.csv", "mapping-report.txt", "payloads.csv"):
            assert read(tmp_path / "0" / name) == read(tmp_path / "1" / name)


class TestVerify:
    def test_verify_passes_on_golden_run(self, tmp_path):
        experiments.run_partition_12(tmp_path, seed=3, end_time=120_000,
                                     windows=((20_000, 35_000, 1),))
        ok, lines = experiments.verify_run(tmp_path)
        assert ok
        assert any("heads equal" in l for l in lines)

    def test_verify_fails_on_tampered_log(self, tmp_path):
        experiments.run_partition_12(tmp_path, seed=3, end_time=120_000,
                                     windows=((20_000, 35_000, 1),))
        path = tmp_path / "doc0.log"
        blob = bytearray(read(path))
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        ok, lines = experiments.verify_run(tmp_path)
        assert not ok
        assert any(l.startswith("[FAIL]") for l in lines)

    def test_verify_empty_dir_warns(self, tmp_path):
        ok, lines = experiments.verify_run(tmp_path)
        assert ok and lines[0].startswith("[WARN]")

    def test_verify_names_files_it_does_not_know(self, tmp_path):
        for name in ("notes.txt", "a.csv"):
            (tmp_path / name).write_text("x\n")
        ok, lines = experiments.verify_run(tmp_path)
        assert ok
        assert lines == ["[WARN] nothing to verify (no known output among a.csv, notes.txt); "
                         "vacuously ok"]

    def test_verify_checks_merge_scaling(self, tmp_path):
        assert main(["run", "merge-scaling", "--seed", "1", "--revisions", "20",
                     "--out", str(tmp_path)]) == 0
        ok, lines = experiments.verify_run(tmp_path)
        assert ok, lines
        assert lines == [
            f"[PASS] merge-scaling.csv: triples={n} {check}"
            for n in (10, 100)
            for check in ("merge_index runs 1..19 without a gap",
                          "cumulative_seconds is the running sum of single_seconds")
        ]

    @pytest.mark.parametrize("tamper,failed", [
        ("drop", ["merge_index runs 1..18 without a gap",
                  "cumulative_seconds is the running sum of single_seconds"]),
        ("single", ["cumulative_seconds is the running sum of single_seconds"]),
    ])
    def test_verify_fails_on_tampered_merge_scaling(self, tmp_path, tamper, failed):
        experiments.run_merge_scaling(tmp_path, revisions=20, triple_counts=(10,))
        path = tmp_path / "merge-scaling.csv"
        rows = path.read_text().splitlines()
        if tamper == "drop":
            del rows[5]
        else:
            size, index, single, total = rows[5].split(",")
            rows[5] = f"{size},{index},{float(single) + 1e-6:.9f},{total}"
        path.write_text("\n".join(rows) + "\n")
        ok, lines = experiments.verify_run(tmp_path)
        assert not ok
        assert [l.split(": triples=10 ")[1] for l in lines if l.startswith("[FAIL]")] == failed

    @pytest.mark.parametrize("name,text,why", [
        ("summary.csv", "a,b\n1,2\n", "missing column 'head_hash'"),
        ("summary.csv", "head_hash,is_master\nab,yes\n", "unparseable value"),
        ("events.csv", "time\n1\n", "missing column 'time_ms'"),
        ("events.csv", "time_ms\n1\nlater\n", "unparseable value"),
        ("payloads.csv", "holder,dataset\nh,ds:x\n", "missing column 'sha256'"),
        ("transfer-fuzz.csv", "run\n1\n", "missing column 'all_committed_identical'"),
        ("merge-scaling.csv", "triples_per_revision,merge_index,single_seconds\n10,1,0.1\n",
         "missing column 'cumulative_seconds'"),
    ], ids=["summary-column", "summary-value", "events-column", "events-value",
            "payloads-column", "transfer-fuzz-column", "merge-scaling-column"])
    def test_bad_csv_is_one_failed_line(self, tmp_path, capsys, name, text, why):
        (tmp_path / name).write_text(text)
        assert main(["verify", str(tmp_path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith(f"[FAIL] {name}: {why}")


class TestScenarioRunner:
    SCN = """
seed 11
agent alpha group 0
agent beta group 0
agent gamma group 1
latency uniform 2 6
loss 0.05
edit alpha doc:m 8000 3
edit gamma doc:m 9000 2
edit beta doc:m 12000 1
offline 1 15000 20000
edit gamma doc:m 16000 2
transfer alpha beta,gamma ds:x 30000 512 4096
run-until 90000
"""

    def test_scenario_end_state(self, tmp_path):
        scenario = parse_scenario(self.SCN)
        experiments.run_scenario(scenario, tmp_path)
        ok, lines = experiments.verify_run(tmp_path)
        assert ok, lines
        for name in ("beta", "gamma"):
            store = os.path.join(tmp_path, f"store-{name}")
            files = os.listdir(store)
            assert any(f.endswith(".payload") for f in files)


class TestCli:
    def test_run_never_sync(self, tmp_path, capsys):
        rc = main(["run", "never-sync", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert "starved=True" in capsys.readouterr().out

    def test_run_collab_mapping(self, tmp_path, capsys):
        rc = main(["run", "collab-mapping", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0

    def test_run_merge_scaling(self, tmp_path, capsys):
        rc = main(["run", "merge-scaling", "--seed", "5", "--revisions", "20",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "merge-scaling: 20 revisions" in capsys.readouterr().out
        rows = read(tmp_path / "merge-scaling.csv").decode().strip().splitlines()
        assert len(rows) == 1 + 2 * 19   # 19 merges for each of 10 and 100 triples

    def test_run_and_verify_without_numpy(self, tmp_path):
        """The package needs nothing beyond the standard library: with
        numpy made unimportable a run and its verification still pass."""
        run_python("import sys; sys.modules['numpy'] = None; "
                   "from graphsync.cli import main; out = sys.argv[1]; "
                   "assert main(['run', 'merge-scaling', '--seed', '1', "
                   "'--revisions', '20', '--out', out]) == 0; "
                   "assert main(['verify', out]) == 0", tmp_path)

    def test_run_partition_12(self, tmp_path, capsys):
        rc = main(["run", "partition-12", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert "partition-12: converged" in capsys.readouterr().out
        assert main(["verify", str(tmp_path)]) == 0

    def test_run_max_rate_and_verify(self, tmp_path, capsys):
        rc = main(["run", "max-rate", "--seed", "5", "--agents", "2", "--docs", "1",
                   "--changes", "10", "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["verify", str(tmp_path)])
        assert rc == 0

    def test_seed_is_mandatory(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "never-sync", "--out", str(tmp_path)])

    def test_scenario_command(self, tmp_path, capsys):
        scn = tmp_path / "x.scn"
        scn.write_text("seed 2\nagent a0 group 0\nagent a1 group 0\n"
                       "edit a0 doc:m 8000 2\nrun-until 30000\n")
        rc = main(["scenario", str(scn), "--out", str(tmp_path / "out")])
        assert rc == 0
        rc = main(["verify", str(tmp_path / "out")])
        assert rc == 0

    def test_scenario_command_bad_file(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text("agent a0\nlatency weird 5\n")
        rc = main(["scenario", str(scn), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 2" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
