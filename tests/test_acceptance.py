"""Acceptance suite: one test per criterion, each printing a pass line
with its headline numbers (run with -s to see them live)."""

import random
import time

import numpy as np
import pytest

from graphsync import experiments
from graphsync.agent import SyncAgent, SyncConfig
from graphsync.netsim import LinkPolicy, NetworkSim
from graphsync.revisions import (
    ROOT_REVISION,
    GraphOfRevisions,
    ParentLink,
    make_revision,
    merge_revision,
    rebase_revisions,
)
from graphsync.triples import (
    Delta,
    delta_apply,
    delta_compute,
    delta_invert,
    delta_parse,
    delta_serialize,
    triple,
)
from graphsync.wire import AgentId

from test_revisions import random_dag
from test_triples import random_graph, random_delta
from test_datasets import grid_area


def fit_r2(xs, ys, degree):
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    coef = np.polyfit(xs, ys, degree)
    pred = np.polyval(coef, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    return (1.0 - ss_res / ss_tot if ss_tot else 1.0), coef


def trim_outliers(xs, ys, fraction=0.05):
    keep = len(ys) - max(1, int(len(ys) * fraction))
    order = np.argsort(ys)[:keep]
    order.sort()
    return np.asarray(xs)[order], np.asarray(ys)[order]


T = [triple(f"urn:t:{i}", "urn:p", f"urn:o:{i}") for i in range(6)]


class TestCriterion1WorkedExample:
    def test_merge_and_rebase_worked_example(self):
        t0 = time.perf_counter()
        gor = GraphOfRevisions("doc:ex")
        g0 = make_revision(b"\x0a" * 16, 0,
                           (ParentLink(ROOT_REVISION.hash, Delta.of({T[0], T[1], T[2]}, ())),))
        gor.insert(g0)
        g1 = make_revision(b"\x0b" * 16, 1,
                           (ParentLink(g0.hash, Delta.of({T[3], T[4]}, {T[0], T[1]}),),))
        g2 = make_revision(b"\x0c" * 16, 1,
                           (ParentLink(g0.hash, Delta.of({T[4], T[5]}, {T[1], T[2]}),),))
        gor.insert(g1), gor.insert(g2, local=True)

        assert gor.materialize(g1.hash) == {T[2], T[3], T[4]}
        assert gor.materialize(g2.hash) == {T[0], T[4], T[5]}

        m = merge_revision(gor, g1.hash, g2.hash, b"\x0a" * 16, 2)
        assert gor.materialize(m.hash) == {T[3], T[4], T[5]}
        deltas = {l.parent: l.delta for l in m.parents}
        assert deltas[g1.hash] == Delta.of({T[5]}, {T[2]})
        assert deltas[g2.hash] == Delta.of({T[3]}, {T[0]})

        # rebase variant on a fresh world
        gor2 = GraphOfRevisions("doc:ex")
        gor2.insert(g0), gor2.insert(g1), gor2.insert(g2, local=True)
        moved = rebase_revisions(gor2, g2.hash, g1.hash, timestamp=2)
        assert gor2.materialize(moved[-1].hash) == {T[3], T[4], T[5]}

        gor3 = GraphOfRevisions("doc:ex")
        gor3.insert(g0), gor3.insert(g1), gor3.insert(g2, local=True)
        moved = rebase_revisions(gor3, g2.hash, g1.hash, timestamp=2,
                                 recompute_deltas=True)
        assert moved[0].parents[0].delta == Delta.of({T[5]}, {T[2]})
        assert gor3.materialize(moved[-1].hash) == {T[3], T[4], T[5]}

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        print(f"\n[PASS] criterion 1: worked example exact (merge and rebase), "
              f"{elapsed * 1000:.1f} ms")


class TestCriterion2MergeScaling:
    def test_merge_scaling_fits(self, tmp_path):
        t0 = time.perf_counter()
        res = experiments.run_merge_scaling(tmp_path, revisions=200, triple_counts=(10, 100))
        fits = {}
        for n in (10, 100):
            singles = res[n]["singles"]
            xs = np.arange(1, len(singles) + 1)
            xs_t, ys_t = trim_outliers(xs, singles)
            r2, coef = fit_r2(xs_t, ys_t, 1)
            fits[n] = (r2, coef[0])
            assert r2 >= 0.9, f"single-merge linear fit r2={r2:.3f} for {n} triples"
            cumulative = np.cumsum(singles)
            r2q, _ = fit_r2(xs, cumulative, 2)
            assert r2q >= 0.9, f"cumulative quadratic fit r2={r2q:.3f}"

        slope_ratio = fits[100][1] / fits[10][1]
        assert 1.5 <= slope_ratio <= 60, f"slope ratio {slope_ratio:.2f}"
        singles10, singles100 = res[10]["singles"], res[100]["singles"]
        half = len(singles10) // 2
        ratio_first = sum(singles100[:half]) / sum(singles10[:half])
        ratio_second = sum(singles100[half:]) / sum(singles10[half:])
        assert ratio_first / ratio_second < 3 and ratio_second / ratio_first < 3

        elapsed = time.perf_counter() - t0
        assert elapsed < 120
        print(f"\n[PASS] criterion 2: merge scaling linear r2={fits[10][0]:.3f}/"
              f"{fits[100][0]:.3f}, slope ratio {slope_ratio:.1f}, {elapsed:.1f} s")


class TestCriterion3RebaseScaling:
    def test_rebase_scaling_fits(self, tmp_path):
        t0 = time.perf_counter()
        res = experiments.run_rebase_scaling(tmp_path, seed=1)
        means = res["mean_seconds_by_revisions"]
        xs = sorted(means)
        ys = [means[x] for x in xs]
        r2, _ = fit_r2(xs, ys, 1)
        assert r2 >= 0.9, f"rebase linear fit r2={r2:.3f}"
        assert res["squash_tip_equal"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        print(f"\n[PASS] criterion 3: rebase linear r2={r2:.3f}, squash tip equal, "
              f"squash publishes 1 revision, {elapsed:.1f} s")


class TestCriterion4PartitionResilience:
    def test_partition_12_and_determinism(self, tmp_path):
        t0 = time.perf_counter()
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        res = experiments.run_partition_12(d1, seed=1)
        assert res["converged"] and res["heads_equal"]
        assert res["n_masters"] == 1
        assert res["all_published_reachable"]
        assert res["no_lost_updates"]

        res2 = experiments.run_partition_12(d2, seed=1)
        assert res2 == res
        for name in ("summary.csv", "events.csv", "doc0.log"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

        elapsed = time.perf_counter() - t0
        assert elapsed < 120
        print(f"\n[PASS] criterion 4: 12 agents converged, one master, "
              f"{res['n_published']} published reachable, byte-identical rerun, "
              f"{elapsed:.1f} s")


class TestCriterion5NeverSynchronized:
    def test_never_sync_policies(self, tmp_path):
        t0 = time.perf_counter()
        merge_only = experiments.run_never_sync(tmp_path, "merge-only", seed=1)
        assert merge_only["b_never_saw_a"], "merge-only must starve agent b"

        rebased = experiments.run_never_sync(tmp_path, "merge-rebase", seed=1)
        assert not rebased["b_never_saw_a"]
        assert rebased["converged_at"] is not None
        lag = rebased["converged_at"] - rebased["edit_stop"]
        assert lag <= rebased["T_Total"], (
            f"converged {lag} ms after stop, T_Total={rebased['T_Total']}"
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 30
        print(f"\n[PASS] criterion 5: merge-only starves b; merge+rebase converged "
              f"{lag} ms after edit stop (T_Total={rebased['T_Total']} ms), "
              f"{elapsed:.1f} s")


class TestCriterion6TransferIntegrity:
    def test_fuzz_200_runs(self, tmp_path):
        t0 = time.perf_counter()
        assert (experiments.FUZZ_PAYLOAD_BYTES, experiments.FUZZ_CHUNK_SIZE) == (
            1024 * 1024, 64 * 1024)
        assert (experiments.FUZZ_LOSS, experiments.FUZZ_DUPLICATION,
                experiments.FUZZ_REORDER, experiments.FUZZ_RECEIVERS) == (0.2, 0.05, 0.1, 3)
        res = experiments.run_transfer_fuzz(tmp_path, runs=200, seed=0)
        assert res["failures"] == 0
        assert res["tau_violations"] == 0
        assert res["corruption_aborts_cleanly"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 120
        print(f"\n[PASS] criterion 6: {res['runs']} fuzz transfers clean, corruption "
              f"aborts with no partial payload, {elapsed:.1f} s")


class TestCriterion7CollaborativeMapping:
    def test_missions_and_injected_failure(self, tmp_path):
        t0 = time.perf_counter()
        res = experiments.run_collab_mapping(tmp_path, seed=1)
        assert res["op_holding"] == {
            "ds:A": True, "ds:B": False, "ds:C": True, "ds:D": True,
        }
        assert res["transfers"]["ds:B"] == "aborted"
        assert all(res["payload_match"].values())
        assert res["discovered"] == ["ds:A", "ds:B", "ds:C"]

        pieces = res["remainder_pieces"]
        exact = res["remainder_area"]
        region_d = experiments.REGION_D
        covered = list(experiments.REGIONS.values())
        oracle = grid_area(region_d, covered)
        cell = ((region_d.max_x - region_d.min_x) / 256) * (
            (region_d.max_y - region_d.min_y) / 256
        )
        assert abs(exact - oracle) <= cell, f"area {exact} vs grid {oracle}"

        elapsed = time.perf_counter() - t0
        assert elapsed < 30
        print(f"\n[PASS] criterion 7: operator holds A, C, D and not B; remainder "
              f"area {exact} within one grid cell of oracle, {elapsed:.1f} s")


class TestCriterion8PropertySuites:
    def test_delta_properties_10k(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            a = random_graph(rng, rng.randrange(10), pool=18)
            b = random_graph(rng, rng.randrange(10), pool=18)
            d = delta_compute(a, b)
            assert delta_apply(a, d) == b
            assert not (d.inserted & d.removed)
            assert delta_invert(delta_invert(d)) == d
            assert delta_parse(delta_serialize(d)) == d
        print("\n[PASS] criterion 8a: 10^4 delta round-trip/involution/codec cases")

    def test_merge_symmetry_1k_dags(self):
        rng = random.Random(77)
        checked = 0
        while checked < 1000:
            gor, heads = random_dag(rng, rng.randrange(4, 12))
            if len(heads) < 2:
                continue
            a, b = rng.sample(heads, 2)
            m = merge_revision(gor, a, b, b"\xee" * 16, 99)
            merged = gor.materialize(m.hash)
            for link in m.parents:
                assert delta_apply(gor.materialize(link.parent), link.delta) == merged
            mirror = GraphOfRevisions("doc:mirror")
            for r in gor.revisions():
                if r.hash != m.hash and not r.is_root:
                    mirror.insert(r)
            assert mirror.materialize(
                merge_revision(mirror, b, a, b"\xee" * 16, 99).hash
            ) == merged
            checked += 1
        print("\n[PASS] criterion 8b: 10^3 merge symmetry + dual-path equality cases")

    def test_insert_order_permutation_1k(self):
        rng = random.Random(55)
        for _ in range(1000):
            gor, heads = random_dag(rng, rng.randrange(3, 9))
            revs = [r for r in gor.revisions() if not r.is_root]
            rng.shuffle(revs)
            mirror = GraphOfRevisions("doc:perm")
            for r in revs:
                mirror.insert(r)
            assert mirror.heads() == gor.heads()
            for h in heads:
                assert mirror.materialize(h) == gor.materialize(h)
        print("\n[PASS] criterion 8c: 10^3 insert-order permutation cases")

    def test_election_termination_1k_ties(self):
        worst = 0
        for seed in range(1000):
            sim = NetworkSim(seed, policy=LinkPolicy(("fixed", 5)))
            agents = []
            for i in range(2):
                ident = AgentId(bytes([i + 1]) * 16, f"e{i}")
                ag = SyncAgent(ident, sim, SyncConfig(),
                               rng=random.Random(seed * 31 + i))
                ag.subscribe("doc:e")
                sim.register(ag.name, ag.on_frame)
                ag.start()
                agents.append(ag)
            a, b = agents
            a.documents["doc:e"].last_voted_for = b.ident.uuid
            b.documents["doc:e"].last_voted_for = a.ident.uuid
            sim.advance(100_000)
            doc_a, doc_b = a.documents["doc:e"], b.documents["doc:e"]
            assert doc_a.election is None and doc_b.election is None
            assert doc_a.master == doc_b.master and doc_a.master is not None
            rounds = max(a.stats["max_election_round"], b.stats["max_election_round"])
            assert rounds <= 20, f"seed {seed} took {rounds} rounds"
            worst = max(worst, rounds)
        print(f"\n[PASS] criterion 8d: 10^3 election ties terminate, worst round "
              f"{worst}")
