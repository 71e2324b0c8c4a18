"""Desk-scale experiment harness.

Each experiment builds its world from (parameters, seed), making its
agents with `_build_team` and its bulk transfers with `_wire_transfer`.
It writes CSV metrics into an output directory and returns a result
dict that the acceptance suite asserts on.  Simulated-time outputs are
bit-stable for a given seed; wall-clock timings go to clearly named
timing files that are exempt from the determinism contract.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
import time
from itertools import accumulate
from math import fsum
from operator import mul
from statistics import correlation, fmean

from .agent import SyncAgent, SyncConfig
from .datasets import (
    DatasetMeta,
    DatasetRelation,
    PayloadStore,
    Rect,
    NS,
    dataset_to_triples,
    datasets_from_triples,
    discover,
    relation_triple,
    remaining_region,
)
from .netsim import LinkPolicy, NetworkSim, Scenario, Topology
from .revisions import ROOT_REVISION, GraphOfRevisions, ParentLink, make_revision, merge_revision, rebase_revisions, squash
from .storage import load_document, save_document
from .transfer import ReceiverSession, SenderSession, payload_for_send
from .triples import Delta, triple
from .wire import AgentId, DataMsg, decode_frame, encode_frame

POINTS_CLOUD = NS + "points_cloud"

# Passes over every timed case in the merge and rebase fits; each case
# keeps its fastest pass.  Merges run in sequence, so unlike the rebase
# cases their order cannot be shuffled; more passes cut their noise.
MERGE_TIMING_REPEATS = 5
REBASE_TIMING_REPEATS = 3
REBASE_CHANGE_COUNTS = (10, 20, 30, 40, 50)
REBASE_MAX_REVISIONS = 40


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_payload_manifest(out_dir, stores: dict[str, PayloadStore]) -> None:
    rows = []
    for name in sorted(stores):
        store = stores[name]
        for uri in store.list_datasets():
            digest = hashlib.sha256(store.load(uri).data()).hexdigest()
            rows.append((uri, name, digest))
    _write_csv(os.path.join(out_dir, "payloads.csv"),
               ["dataset", "holder", "sha256"], rows)


def _build_team(sim: NetworkSim, names, configs, rng_base: int, documents,
                groups) -> dict[str, SyncAgent]:
    """The agents of one world, by name in the order given.  Agent i is
    named names[i], has uuid bytes([i + 1]) * 16, configs[i] and
    random.Random(rng_base + i); it subscribes to every document, is
    registered with sim in group groups.get(name, 0), and is started
    before agent i + 1 is built."""
    agents = {}
    for i, name in enumerate(names):
        agent = SyncAgent(AgentId(bytes([i + 1]) * 16, name), sim, configs[i],
                          rng=random.Random(rng_base + i))
        for uri in documents:
            agent.subscribe(uri)
        sim.register(name, agent.on_frame, group=groups.get(name, 0))
        agent.start()
        agents[name] = agent
    return agents


def _wire_transfer(sim: NetworkSim, dataset: str, payload: bytes, chunk_size: int,
                   sender: str, receivers, commit, abort, attach) -> SenderSession:
    """Start one transfer of payload from endpoint sender to the
    endpoints of receivers (name -> uuid).  The sender session is built
    first, then one receiver session per name in order; attach(name,
    session) routes the frames that reach endpoint name to its session,
    and commit(name, data) and abort(name) report each receiver's
    outcome.  Returns the sender session."""
    session = SenderSession(
        dataset, payload, set(receivers.values()),
        send=lambda m: sim.send(encode_frame(m), sender),
        schedule=sim.call_later, chunk_size=chunk_size,
    )
    attach(sender, session)
    for name, uuid in receivers.items():
        attach(name, ReceiverSession(
            dataset, uuid, max_chunks=len(session.chunks),
            send=lambda m, n=name: sim.send(encode_frame(m), n),
            schedule=sim.call_later,
            commit=lambda data, n=name: commit(n, data),
            abort=lambda n=name: abort(n),
            chunk_size=chunk_size,
        ))
    return session


def _endpoint_attach(sim: NetworkSim):
    """Attach each session as a simulator endpoint of its own."""
    return lambda name, session: sim.register(
        name, lambda src, frame, now: session.on_msg(decode_frame(frame), now))


def fresh_delta(tag: str, count: int) -> Delta:
    return Delta.of({triple(f"urn:{tag}:{i}", "urn:p", f"urn:v:{i}") for i in range(count)}, ())


def fit_r2(xs, ys, degree: int = 1) -> float:
    """Coefficient of determination of a polynomial least-squares fit:
    the sum of the squared correlations of ys with x, ..., x**degree,
    each power first made orthogonal to the lower ones."""
    if min(ys) == max(ys):
        return 1.0
    centre = fmean(xs)
    basis, r2 = [[1.0] * len(xs)], 0.0  # starting from x**0
    for power in range(1, degree + 1):
        column = [(x - centre) ** power for x in xs]
        for b in basis:
            k = fsum(map(mul, column, b)) / fsum(map(mul, b, b))
            column = [c - k * v for c, v in zip(column, b)]
        r2 += correlation(column, ys) ** 2
        basis.append(column)
    return r2


# ---------------------------------------------------------------------------
# merge scaling
# ---------------------------------------------------------------------------


def run_merge_scaling(out_dir, revisions: int = 200, triple_counts=(10, 100)) -> dict:
    """K same-parent revisions merged sequentially into one; records the
    per-merge wall time (minimum over repeats, GC paused while timing)
    and its cumulative curve for each change size."""
    import gc

    os.makedirs(out_dir, exist_ok=True)
    rows = []
    result = {}
    for n_triples in triple_counts:
        per_index: list[float] = []
        final_triples = 0
        for _ in range(MERGE_TIMING_REPEATS):
            gor = GraphOfRevisions("doc:merge-scaling")
            base = make_revision(
                b"\x01" * 16, 0, (ParentLink(ROOT_REVISION.hash, fresh_delta("base", 5)),)
            )
            gor.insert(base)
            children = []
            for k in range(revisions):
                author = bytes([(k % 250) + 1]) * 16
                delta = fresh_delta(f"c{n_triples}:{k}", n_triples)
                rev = make_revision(author, 1, (ParentLink(base.hash, delta),))
                gor.insert(rev)
                children.append(rev.hash)
            merged = children[0]
            gc.collect()
            gc.disable()
            try:
                run_times = []
                for k, nxt in enumerate(children[1:], start=1):
                    t0 = time.perf_counter()
                    merged = merge_revision(gor, merged, nxt, b"\xff" * 16, 2 + k).hash
                    run_times.append(time.perf_counter() - t0)
            finally:
                gc.enable()
            if per_index:
                per_index = [min(a, b) for a, b in zip(per_index, run_times)]
            else:
                per_index = run_times
            if len(gor.heads()) != 1:
                raise RuntimeError(f"{len(gor.heads())} heads left after merging")
            final_triples = len(gor.materialize(merged))
            if final_triples != 5 + revisions * n_triples:
                raise RuntimeError(f"{final_triples} triples after merging")
        cumulative = 0.0
        cumulatives = []
        for k, dt in enumerate(per_index, start=1):
            cumulative += dt
            cumulatives.append(cumulative)
            rows.append((n_triples, k, f"{dt:.9f}", f"{cumulative:.9f}"))
        xs = range(1, len(per_index) + 1)
        result[n_triples] = {
            "singles": per_index,
            "total": cumulative,
            "final_triples": final_triples,
            "single_linear_r2": fit_r2(xs, per_index, 1),
            "cumulative_quadratic_r2": fit_r2(xs, cumulatives, 2),
        }
    _write_csv(
        os.path.join(out_dir, "merge-scaling.csv"),
        ["triples_per_revision", "merge_index", "single_seconds", "cumulative_seconds"],
        rows,
    )
    with open(os.path.join(out_dir, "merge-scaling-fits.txt"), "w") as fh:
        for n_triples, r in result.items():
            fh.write(f"triples={n_triples} single_linear_r2={r['single_linear_r2']:.4f} "
                     f"cumulative_quadratic_r2={r['cumulative_quadratic_r2']:.4f} "
                     f"total_seconds={r['total']:.4f}\n")
    return result


# ---------------------------------------------------------------------------
# rebase scaling
# ---------------------------------------------------------------------------


def _build_rebase_world(n_revisions: int, changes: int, seed: int):
    rng = random.Random(seed)
    gor = GraphOfRevisions("doc:rebase-scaling")
    base = make_revision(
        b"\x01" * 16, 0, (ParentLink(ROOT_REVISION.hash, fresh_delta("base", changes)),)
    )
    gor.insert(base)
    dest = make_revision(
        b"\x02" * 16, 1, (ParentLink(base.hash, fresh_delta("dest", changes)),)
    )
    gor.insert(dest)
    head = base.hash
    graph = gor.materialize(base.hash)
    for k in range(n_revisions):
        inserts = {triple(f"urn:src:{k}:{i}", "urn:p", "urn:v") for i in range(changes // 2)}
        removals = {t for t in sorted(graph, key=repr) if rng.random() < 0.1}
        removals = set(list(removals)[: changes - len(inserts)])
        rev = make_revision(b"\x03" * 16, 2 + k, (ParentLink(head, Delta.of(inserts, removals)),))
        gor.insert(rev, local=True)
        head = rev.hash
        graph = gor.materialize(head)
    return gor, dest.hash, head


def run_rebase_scaling(out_dir, seed: int = 1) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    cases = [(n_rev, changes, squashed) for n_rev in range(1, REBASE_MAX_REVISIONS + 1)
             for changes in REBASE_CHANGE_COUNTS for squashed in (False, True)]
    best: dict[tuple, float] = {}
    outcome: dict[tuple, tuple[int, int]] = {}
    order = random.Random(seed)
    for rep in range(REBASE_TIMING_REPEATS):
        # Each pass times the cases in a fresh order, so slow drift of
        # the host spreads over all sizes instead of bending the curve.
        for case in order.sample(cases, len(cases)):
            n_rev, changes, squashed = case
            gor, dest, head = _build_rebase_world(n_rev, changes, seed + rep)
            t0 = time.perf_counter()
            tip = head
            if squashed and n_rev > 1:
                tip = squash(gor, tip, 1000).hash
            moved = rebase_revisions(gor, tip, dest, 1001)
            dt = time.perf_counter() - t0
            best[case] = min(best.get(case, dt), dt)
            outcome[case] = (len(moved), len(gor.materialize(moved[-1].hash)))
    rows = []
    times: dict[int, list[float]] = {}
    for case in cases:
        n_rev, changes, squashed = case
        rows.append((n_rev, changes, int(squashed), f"{best[case]:.9f}", *outcome[case]))
        if not squashed:
            times.setdefault(n_rev, []).append(best[case])
    _write_csv(
        os.path.join(out_dir, "rebase-scaling.csv"),
        ["revisions", "changes", "squashed", "rebase_seconds", "published_revisions",
         "tip_triples"],
        rows,
    )
    mean_by_n = {n: sum(v) / len(v) for n, v in times.items()}
    linear_r2 = fit_r2(sorted(mean_by_n), [mean_by_n[n] for n in sorted(mean_by_n)], 1)

    # tip equality between variants, same seed
    equal_tips = True
    for n_rev in (1, 5, 20, REBASE_MAX_REVISIONS):
        gor_a, dest_a, head_a = _build_rebase_world(n_rev, 20, seed)
        moved_a = rebase_revisions(gor_a, head_a, dest_a, 1001)
        gor_b, dest_b, head_b = _build_rebase_world(n_rev, 20, seed)
        tip_b = squash(gor_b, head_b, 1000).hash if n_rev > 1 else head_b
        moved_b = rebase_revisions(gor_b, tip_b, dest_b, 1001)
        if gor_a.materialize(moved_a[-1].hash) != gor_b.materialize(moved_b[-1].hash):
            equal_tips = False
        if len(moved_b) != 1:
            equal_tips = False
    with open(os.path.join(out_dir, "rebase-scaling-fits.txt"), "w") as fh:
        fh.write(f"linear_r2={linear_r2:.4f} squash_tip_equal={equal_tips}\n")
    return {
        "mean_seconds_by_revisions": mean_by_n,
        "squash_tip_equal": equal_tips,
        "linear_r2": linear_r2,
    }


# ---------------------------------------------------------------------------
# twelve-agent partition run
# ---------------------------------------------------------------------------

PARTITION_DOC = "doc:shared-map"
PARTITION_LOSS = 0.05


def run_partition_12(out_dir, seed: int = 1,
                     windows=((60_000, 100_000, 1), (140_000, 180_000, 2),
                              (220_000, 260_000, 1)),
                     end_time: int = 400_000) -> dict:
    """Twelve agents in three groups, three group-offline windows,
    concurrent edits throughout; checks convergence, master uniqueness
    and that no published update is lost."""
    os.makedirs(out_dir, exist_ok=True)
    groups = {f"agent{i:02d}": i // 4 for i in range(12)}
    sim = NetworkSim(seed, policy=LinkPolicy(("uniform", 2, 8), loss=PARTITION_LOSS,
                                             duplication=0.02, reorder=0.05),
                     topology=Topology(dict(groups)))
    agents = list(_build_team(sim, list(groups), [SyncConfig()] * 12, seed * 1000,
                              (PARTITION_DOC,), groups).values())
    for start, end, group in windows:
        sim.set_group_offline(group, start, end)

    rng = random.Random(seed)
    inserted: set = set()

    def schedule_edit(agent: SyncAgent, when: int, tag: str, count: int):
        def fire(now, a=agent, t=tag, c=count):
            delta = fresh_delta(t, c)
            inserted.update(delta.inserted)
            a.local_change(PARTITION_DOC, delta, now)
        sim.call_at(when, fire)

    edit_stop = 250_000
    for i, agent in enumerate(agents):
        when = 8_000 + rng.randrange(4000)
        k = 0
        while when < edit_stop:
            schedule_edit(agent, when, f"e{i}:{k}", rng.randrange(1, 4))
            when += 6_000 + rng.randrange(6000)
            k += 1

    sim.advance(end_time)

    heads = [a.head_graph(PARTITION_DOC) for a in agents]
    head_hashes = [a.documents[PARTITION_DOC].own_head for a in agents]
    masters = [a for a in agents if a.is_master(PARTITION_DOC)]
    published = set()
    for a in agents:
        published.update(a.published_log)

    gor0 = agents[0].documents[PARTITION_DOC].gor
    head0 = agents[0].documents[PARTITION_DOC].own_head
    reachable = gor0.ancestors(head0) | {head0}
    all_reachable = all(h in reachable for h in published)

    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["agent", "head_hash", "head_triples", "is_master"],
        [
            (a.name, a.documents[PARTITION_DOC].own_head.hex(),
             len(heads[i]), int(a.is_master(PARTITION_DOC)))
            for i, a in enumerate(agents)
        ],
    )
    sim.write_event_log(os.path.join(out_dir, "events.csv"))
    save_document(gor0, os.path.join(out_dir, "doc0.log"), head=head0)

    return {
        "converged": len(set(heads)) == 1,
        "heads_equal": len(set(head_hashes)) == 1,
        "n_masters": len(masters),
        "all_published_reachable": all_reachable,
        "no_lost_updates": inserted <= heads[0],
        "n_published": len(published),
        "n_events": len(sim.event_log),
    }


# ---------------------------------------------------------------------------
# maximum revision rate
# ---------------------------------------------------------------------------


def run_max_rate(out_dir, agents: int = 2, docs: int = 1, changes: int = 10,
                 seed: int = 1, iterations: int = 30) -> dict:
    """The master-side merge cost of the lockstep loop: every agent
    revises every document, then the master merges until single-headed.
    The CSV carries only simulation-deterministic columns; wall-clock
    averages go to max-rate-timing.txt."""
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    gors = [GraphOfRevisions(f"doc:{d}") for d in range(docs)]
    bases = [g.root.hash for g in gors]
    rows = []
    merge_seconds = []
    for it in range(iterations):
        t_iter = 0.0
        for d, gor in enumerate(gors):
            current = gor.materialize(bases[d])
            for a in range(agents):
                inserts = {
                    triple(f"urn:i{it}:a{a}:{j}", "urn:p", f"urn:v:{d}")
                    for j in range(max(1, changes - changes // 4))
                }
                pool = sorted(current, key=repr)
                removals = set(pool[: changes // 4]) if pool else set()
                rev = make_revision(
                    bytes([a + 1]) * 16, it + 1,
                    (ParentLink(bases[d], Delta.of(inserts, removals)),),
                )
                gor.insert(rev)
            t0 = time.perf_counter()
            merges = 0
            heads = sorted(gor.heads(), key=lambda h: (gor.get(h).timestamp, h))
            while len(heads) > 1:
                merge_revision(gor, heads[0], heads[1], b"\xff" * 16, it + 1)
                merges += 1
                heads = sorted(gor.heads(), key=lambda h: (gor.get(h).timestamp, h))
            t_iter += time.perf_counter() - t0
            bases[d] = heads[0]
            rows.append((it, d, merges, len(gor.materialize(bases[d]))))
        merge_seconds.append(t_iter)
    _write_csv(
        os.path.join(out_dir, "max-rate.csv"),
        ["iteration", "doc", "merges", "head_triples"],
        rows,
    )
    avg = sum(merge_seconds) / len(merge_seconds)
    with open(os.path.join(out_dir, "max-rate-timing.txt"), "w") as fh:
        fh.write(f"agents={agents} docs={docs} changes={changes} seed={seed}\n")
        fh.write(f"average_merge_seconds_per_iteration={avg:.6f}\n")
    return {"average_merge_seconds": avg, "iterations": iterations}


# ---------------------------------------------------------------------------
# never-synchronized reproduction
# ---------------------------------------------------------------------------

NEVER_SYNC_EDIT_PERIOD = 100
NEVER_SYNC_LATENCY = 10
NEVER_SYNC_MERGE_DURATION = 85


def run_never_sync(out_dir, policy: str, seed: int = 1,
                   edit_stop: int = 10_000, hard_end: int = 40_000) -> dict:
    """Two agents editing every NEVER_SYNC_EDIT_PERIOD ms with the master
    needing NEVER_SYNC_MERGE_DURATION ms per merge; under merge-only the
    non-master never sees the master's triples, under merge+rebase the
    run converges."""
    os.makedirs(out_dir, exist_ok=True)
    doc = "doc:fast"
    sim = NetworkSim(seed, policy=LinkPolicy(("fixed", NEVER_SYNC_LATENCY)))
    configs = [SyncConfig(policy=policy, merge_duration=NEVER_SYNC_MERGE_DURATION),
               SyncConfig(policy=policy)]
    a, b = _build_team(sim, ["agent-a", "agent-b"], configs, seed, (doc,), {}).values()
    for ag in (a, b):
        ag.preset_master(doc, a.ident.uuid)

    def schedule_edits(agent: SyncAgent, tag: str):
        k = 0
        when = 0
        while when < edit_stop:
            def fire(now, ag=agent, t=tag, i=k):
                ag.local_change(doc, fresh_delta(f"{t}:{i}", 1), now)
            sim.call_at(when, fire)
            when += NEVER_SYNC_EDIT_PERIOD
            k += 1

    schedule_edits(a, "A")
    schedule_edits(b, "B")
    # Scheduled before the run, this timer fires ahead of every merge
    # that completes at edit_stop, so those count as after the stop.
    merges_before_stop = []
    sim.call_at(edit_stop, lambda now: merges_before_stop.append(a.stats["merges"]))

    samples = []

    def count_by_author(graph):
        from_a = sum(1 for t in graph if t.subject.value.startswith("urn:A:"))
        from_b = sum(1 for t in graph if t.subject.value.startswith("urn:B:"))
        return from_a, from_b

    converged_at = [None]

    def sample(now):
        for ag in (a, b):
            graph = ag.head_graph(doc)
            fa, fb = count_by_author(graph)
            samples.append((now, ag.name, len(graph), fa, fb))

    def probe(now):
        if converged_at[0] is None and a.head_graph(doc) == b.head_graph(doc):
            converged_at[0] = now

    when = 0
    while when <= hard_end:
        sim.call_at(when, sample)
        when += NEVER_SYNC_EDIT_PERIOD
    when = edit_stop
    while when <= hard_end:
        sim.call_at(when, probe)
        when += 5
    sim.advance(hard_end)

    _write_csv(
        os.path.join(out_dir, f"never-sync-{policy}.csv"),
        ["time_ms", "agent", "head_triples", "triples_from_a", "triples_from_b"],
        samples,
    )

    # starvation is judged over the edit window; once edits stop the
    # master's final merge reaches b in either policy
    b_rows = [s for s in samples if s[1] == "agent-b" and s[0] <= edit_stop]
    b_never_saw_a = all(r[3] == 0 for r in b_rows)
    t_s = 0
    t_m = (a.stats["merges"] - merges_before_stop[0]) * NEVER_SYNC_MERGE_DURATION
    post_stop_msgs = sum(1 for e in sim.event_log if e[0] >= edit_stop
                         and e[3] == "revision")
    t_c = post_stop_msgs * NEVER_SYNC_LATENCY
    t_u = 0
    t_total = t_s + t_m + t_c + t_u
    report = {
        "policy": policy,
        "b_never_saw_a": b_never_saw_a,
        "converged_at": converged_at[0],
        "edit_stop": edit_stop,
        "T_S": t_s,
        "T_M": t_m,
        "T_C": t_c,
        "T_U": t_u,
        "T_Total": t_total,
    }
    with open(os.path.join(out_dir, f"never-sync-{policy}-report.txt"), "w") as fh:
        for k, v in report.items():
            fh.write(f"{k}={v}\n")
    return report


# ---------------------------------------------------------------------------
# collaborative mapping scenario
# ---------------------------------------------------------------------------

REGIONS = {
    "ds:A": Rect(0, 0, 10, 10),
    "ds:B": Rect(10, 0, 20, 10),
    "ds:C": Rect(20, 0, 30, 10),
}
REGION_D = Rect(5, -5, 25, 15)
MAPPING_DOC = "doc:datasets"
MAPPING_CHUNK_SIZE = 4096
MAPPING_PAYLOAD_BYTES = 40_000


def run_collab_mapping(out_dir, seed: int = 1) -> dict:
    """Scripted four-mission scan scenario with one injected transfer
    failure; the operator must end up holding A, C and the remainder
    scan but not B."""
    os.makedirs(out_dir, exist_ok=True)
    sim = NetworkSim(seed, policy=LinkPolicy(("uniform", 2, 8), loss=0.02))
    rng = random.Random(seed)

    names = ["op", "uav0", "uav1", "uav2"]
    agents = _build_team(sim, names, [SyncConfig()] * 4, seed * 1000, (MAPPING_DOC,), {})
    stores = {n: PayloadStore(os.path.join(out_dir, f"store-{n}")) for n in names}

    payloads = {uri: rng.randbytes(MAPPING_PAYLOAD_BYTES)
                for uri in ("ds:A", "ds:B", "ds:C", "ds:D")}

    def publish_dataset(agent_name: str, uri: str, coverage: Rect):
        def fire(now):
            agent = agents[agent_name]
            stores[agent_name].commit(uri, POINTS_CLOUD, payloads[uri], MAPPING_CHUNK_SIZE)
            meta = DatasetMeta(uri, coverage, POINTS_CLOUD)
            rels = [
                DatasetRelation(agent.ident, uri, "has"),
                DatasetRelation(agent.ident, uri, "created_by"),
            ]
            agent.local_change(MAPPING_DOC, Delta.of(dataset_to_triples(meta, rels), ()), now)
        return fire

    transfer_results: dict[str, str] = {}

    def start_transfer(sender_name: str, receiver_name: str, uri: str):
        def commit(rn, data):
            stores[rn].commit(uri, POINTS_CLOUD, data, MAPPING_CHUNK_SIZE)
            has = relation_triple(DatasetRelation(agents[rn].ident, uri, "has"))
            agents[rn].local_change(MAPPING_DOC, Delta.of({has}, ()))
            transfer_results[uri] = "committed"

        def abort(rn):
            stores[rn].abort(uri)
            transfer_results[uri] = "aborted"

        def fire(now):
            payload = payload_for_send(stores[sender_name], uri)
            _wire_transfer(sim, uri, payload, MAPPING_CHUNK_SIZE, sender_name,
                           {receiver_name: agents[receiver_name].ident.uuid}, commit, abort,
                           lambda name, session: agents[name].attach_transfer(uri, session))
        return fire

    # missions A, B, C
    sim.call_at(10_000, publish_dataset("uav0", "ds:A", REGIONS["ds:A"]))
    sim.call_at(20_000, publish_dataset("uav1", "ds:B", REGIONS["ds:B"]))
    sim.call_at(30_000, publish_dataset("uav2", "ds:C", REGIONS["ds:C"]))
    # operator downloads C
    sim.call_at(40_000, start_transfer("uav2", "op", "ds:C"))
    # mission D: discovery happens at 50s, transfers for A and B follow;
    # the uav1 link is cut so B cannot arrive
    discovered: dict = {}

    def plan_mission_d(now):
        graph = agents["op"].head_graph(MAPPING_DOC)
        discovered["datasets"] = discover(graph, REGION_D)
    sim.call_at(50_000, plan_mission_d)
    sim.block_pair("uav1", "op", 50_000, 10**9)
    sim.call_at(51_000, start_transfer("uav0", "op", "ds:A"))
    sim.call_at(51_000, start_transfer("uav1", "op", "ds:B"))

    # remainder region scan by uav0, then download by the operator
    remainder: dict = {}

    def compute_remainder(now):
        metas = datasets_from_triples(agents["op"].head_graph(MAPPING_DOC))
        covered = [m.coverage for m in metas.values() if m.uri != "ds:D"]
        remainder["pieces"] = remaining_region(REGION_D, covered)
    sim.call_at(80_000, compute_remainder)
    sim.call_at(90_000, publish_dataset("uav0", "ds:D", REGION_D))
    sim.call_at(100_000, start_transfer("uav0", "op", "ds:D"))

    sim.advance(140_000)

    holding = {uri: stores["op"].has(uri) for uri in ("ds:A", "ds:B", "ds:C", "ds:D")}
    pieces = remainder.get("pieces", [])
    exact_area = sum(p.area for p in pieces)

    rows = [(uri, names_holding)
            for uri in sorted(payloads)
            for names_holding in [",".join(n for n in names if stores[n].has(uri))]]
    _write_csv(os.path.join(out_dir, "holders.csv"), ["dataset", "holders"], rows)
    _write_payload_manifest(out_dir, stores)
    with open(os.path.join(out_dir, "mapping-report.txt"), "w") as fh:
        fh.write(f"discovered={[u for u, _ in discovered.get('datasets', [])]}\n")
        fh.write(f"op_holding={holding}\n")
        fh.write(f"remainder_pieces={len(pieces)} area={exact_area}\n")
        fh.write(f"transfers={transfer_results}\n")

    return {
        "op_holding": holding,
        "discovered": [u for u, _ in discovered.get("datasets", [])],
        "remainder_pieces": pieces,
        "remainder_area": exact_area,
        "transfers": transfer_results,
        "payload_match": {
            uri: stores["op"].has(uri) and stores["op"].load(uri).data() == payloads[uri]
            for uri in ("ds:A", "ds:C", "ds:D")
        },
    }


# ---------------------------------------------------------------------------
# transfer fuzz
# ---------------------------------------------------------------------------

FUZZ_PAYLOAD_BYTES = 1024 * 1024
FUZZ_CHUNK_SIZE = 64 * 1024
FUZZ_LOSS = 0.2
FUZZ_DUPLICATION = 0.05
FUZZ_REORDER = 0.1
FUZZ_RECEIVERS = 3


def run_transfer_fuzz(out_dir, runs: int = 200, seed: int = 0) -> dict:
    """Seeded lossy transfers; every run must commit identical bytes on
    every receiver.  Also injects one corrupt-frame run that must abort
    cleanly, and checks the throttle trace bound."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    failures = 0
    tau_violations = 0

    for run_idx in range(runs):
        run_seed = seed + run_idx
        ok, tau_ok, max_tau = _fuzz_one(run_seed)
        rows.append((run_seed, int(ok), int(tau_ok), max_tau))
        failures += 0 if ok else 1
        tau_violations += 0 if tau_ok else 1

    abort_clean = _corruption_run(seed)

    _write_csv(
        os.path.join(out_dir, "transfer-fuzz.csv"),
        ["seed", "all_committed_identical", "tau_trace_consistent", "max_tau"],
        rows,
    )
    return {
        "runs": runs,
        "failures": failures,
        "tau_violations": tau_violations,
        "corruption_aborts_cleanly": abort_clean,
    }


def _fuzz_one(run_seed):
    rng = random.Random(run_seed)
    payload = rng.randbytes(FUZZ_PAYLOAD_BYTES)
    sim = NetworkSim(run_seed, policy=LinkPolicy(("uniform", 1, 10), loss=FUZZ_LOSS,
                                                 duplication=FUZZ_DUPLICATION,
                                                 reorder=FUZZ_REORDER))
    names = [f"r{i}" for i in range(FUZZ_RECEIVERS)]
    sink = {n: [] for n in names}
    fail = {n: False for n in names}
    sender = _wire_transfer(sim, "ds:fuzz", payload, FUZZ_CHUNK_SIZE, "sender",
                            {n: hashlib.md5(n.encode()).digest() for n in names},
                            lambda n, data: sink[n].append(data),
                            lambda n: fail.__setitem__(n, True), _endpoint_attach(sim))
    n_chunks = len(sender.chunks)
    sim.advance(120_000)

    ok = all(sink[n] and sink[n][0] == payload for n in names) and not any(fail.values())
    final = sender.state
    tau_ok = (final.throttle_down_seen - final.throttle_up_seen
              <= final.tau <= final.throttle_down_seen)
    # tau can only move within the clamped per-step envelope; the final
    # tau is the last entry of the trace
    prev = 0
    for t in sender.tau_trace:
        if t < 0 or t > prev + n_chunks * FUZZ_RECEIVERS + 64:
            tau_ok = False
        prev = t
    return ok, tau_ok, max(sender.tau_trace or [0])


def _corruption_run(seed):
    """A receiver fed an oversized chunk must error out and abort with
    no partial payload left behind."""
    sim = NetworkSim(seed, policy=LinkPolicy(("fixed", 2)))
    committed, aborted = [], []
    sender = _wire_transfer(sim, "ds:bad", bytes(1000), 100, "sender", {"rx": b"\x09" * 16},
                            lambda n, data: committed.append(data),
                            lambda n: aborted.append(True), _endpoint_attach(sim))
    sim.register("evil", lambda *a: None)

    def inject(now):
        sim.send(encode_frame(DataMsg("ds:bad", 4, b"\xff" * 500)), "evil", "rx")
    sim.call_at(8, inject)
    sim.advance(30_000)
    return bool(aborted) and not committed and sender.state.aborted


# ---------------------------------------------------------------------------
# scenario runner + offline verification
# ---------------------------------------------------------------------------


def run_scenario(scenario: Scenario, out_dir) -> dict:
    """Run a parsed scenario file: agent i is seeded with
    scenario.seed * 131 + i, every agent subscribes to every edited
    document, and edits and transfers fire at their scripted times.
    Writes summary.csv, events.csv, payloads.csv and the first agent's
    revision log of each document."""
    os.makedirs(out_dir, exist_ok=True)
    sim = NetworkSim(scenario.seed, policy=scenario.policy,
                     topology=Topology(dict(scenario.groups)))
    documents = sorted({e.document for e in scenario.edits}) or ["doc:default"]
    configs = [SyncConfig(status_period=scenario.status_period)] * len(scenario.agents)
    agents = _build_team(sim, scenario.agents, configs, scenario.seed * 131, documents,
                         scenario.groups)

    sim.set_partition(scenario.partitions)
    for group, start, end in scenario.offline:
        sim.set_group_offline(group, start, end)
    for a, b, start, end in scenario.blocks:
        sim.block_pair(a, b, start, end)

    counter = [0]
    for edit in scenario.edits:
        def fire(now, e=edit):
            counter[0] += 1
            agents[e.agent].local_change(
                e.document, fresh_delta(f"{e.agent}:{counter[0]}", e.changes), now
            )
        sim.call_at(edit.time, fire)

    stores = {name: PayloadStore(os.path.join(out_dir, f"store-{name}"))
              for name in scenario.agents}
    rng = random.Random(scenario.seed)
    for tr in scenario.transfers:
        payload = rng.randbytes(tr.total_bytes)

        def fire(now, t=tr, data=payload):
            _wire_transfer(
                sim, t.dataset, data, t.chunk_size, t.sender,
                {r: agents[r].ident.uuid for r in t.receivers},
                lambda r, d: stores[r].commit(t.dataset, POINTS_CLOUD, d, t.chunk_size),
                lambda r: stores[r].abort(t.dataset),
                lambda name, session: agents[name].attach_transfer(t.dataset, session),
            )
        sim.call_at(tr.time, fire)

    sim.advance(scenario.run_until)

    rows = []
    for uri in documents:
        for name, ag in agents.items():
            doc = ag.documents[uri]
            rows.append((uri, name, doc.own_head.hex(),
                         len(ag.head_graph(uri)), int(ag.is_master(uri))))
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["document", "agent", "head_hash", "head_triples", "is_master"], rows)
    sim.write_event_log(os.path.join(out_dir, "events.csv"))
    _write_payload_manifest(out_dir, stores)
    first = scenario.agents[0]
    for uri in documents:
        safe = uri.replace(":", "_").replace("/", "_")
        gor = agents[first].documents[uri].gor
        save_document(gor, os.path.join(out_dir, f"{safe}.log"),
                      head=agents[first].documents[uri].own_head)
    return {"documents": documents, "agents": list(agents)}


def verify_run(out_dir) -> tuple[bool, list[str]]:
    """Offline re-checks of a run directory; returns (ok, report lines)."""
    lines = []
    ok = True
    checked = 0

    summary = os.path.join(out_dir, "summary.csv")
    if os.path.exists(summary):
        checked += 1
        rows = _read_csv(summary)
        by_doc: dict[str, list] = {}
        for r in rows:
            by_doc.setdefault(r.get("document", "doc"), []).append(r)
        for doc_uri, doc_rows in by_doc.items():
            heads = {r["head_hash"] for r in doc_rows}
            masters = sum(int(r["is_master"]) for r in doc_rows)
            conv = len(heads) == 1
            single = masters == 1
            ok &= conv and single
            lines.append(f"[{'PASS' if conv else 'FAIL'}] {doc_uri}: all heads equal")
            lines.append(f"[{'PASS' if single else 'FAIL'}] {doc_uri}: exactly one master")

    logs = [f for f in sorted(os.listdir(out_dir)) if f.endswith(".log")]
    for log in logs:
        checked += 1
        try:
            gor, head = load_document(os.path.join(out_dir, log))
            lines.append(f"[PASS] {log}: hash-verified reload, head {head.hex()[:12]}")
        except Exception as exc:
            ok = False
            lines.append(f"[FAIL] {log}: {exc}")

    events = os.path.join(out_dir, "events.csv")
    if os.path.exists(events):
        checked += 1
        rows = _read_csv(events)
        times = [int(r["time_ms"]) for r in rows]
        monotone = all(a <= b for a, b in zip(times, times[1:]))
        ok &= monotone
        lines.append(f"[{'PASS' if monotone else 'FAIL'}] events.csv: timestamps monotone "
                     f"({len(rows)} events)")

    manifest = os.path.join(out_dir, "payloads.csv")
    if os.path.exists(manifest):
        checked += 1
        rows = _read_csv(manifest)
        intact = 0
        for r in rows:
            store = PayloadStore(os.path.join(out_dir, f"store-{r['holder']}"))
            try:
                data = store.load(r["dataset"]).data()
                good = hashlib.sha256(data).hexdigest() == r["sha256"]
            except Exception:
                good = False
            ok &= good
            intact += int(good)
        lines.append(f"[{'PASS' if intact == len(rows) else 'FAIL'}] payloads.csv: "
                     f"{intact}/{len(rows)} payloads hash-intact")

    fuzz = os.path.join(out_dir, "transfer-fuzz.csv")
    if os.path.exists(fuzz):
        checked += 1
        rows = _read_csv(fuzz)
        clean = all(r["all_committed_identical"] == "1" for r in rows)
        ok &= clean
        lines.append(f"[{'PASS' if clean else 'FAIL'}] transfer-fuzz.csv: "
                     f"{len(rows)} runs committed identical bytes")

    scaling = os.path.join(out_dir, "merge-scaling.csv")
    if os.path.exists(scaling):
        checked += 1
        by_size: dict[str, list] = {}
        for r in _read_csv(scaling):
            by_size.setdefault(r["triples_per_revision"], []).append(r)
        for size, rows in by_size.items():
            gapless = [int(r["merge_index"]) for r in rows] == list(range(1, len(rows) + 1))
            # each value is printed to 1e-9 s, so the k-th total and the
            # sum of k printed singles differ by less than k + 1 such units
            sums = accumulate(float(r["single_seconds"]) for r in rows)
            summed = all(abs(total - float(r["cumulative_seconds"])) <= (k + 1) * 1e-9
                         for k, (total, r) in enumerate(zip(sums, rows), start=1))
            ok &= gapless and summed
            lines.append(f"[{'PASS' if gapless else 'FAIL'}] merge-scaling.csv: triples={size} "
                         f"merge_index runs 1..{len(rows)} without a gap")
            lines.append(f"[{'PASS' if summed else 'FAIL'}] merge-scaling.csv: triples={size} "
                         "cumulative_seconds is the running sum of single_seconds")

    if checked == 0:
        names = sorted(os.listdir(out_dir))
        why = f"no known output among {', '.join(names)}" if names else "empty output directory"
        lines.append(f"[WARN] nothing to verify ({why}); vacuously ok")
    return ok, lines
