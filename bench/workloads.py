"""The three benchmark workloads.

Each workload builds a world from a seed (`setup`, timed as set-up),
runs it (`run`, the timed phase) and checks the program's outputs.  The
last step of the timed phase, reloading what the run persisted, is the
`reload` closure of the result: the caller releases the world first, so
the reload sees a heap like that of a fresh `graphsync verify` process.

The benchmark drives only public entry points of `graphsync`, and calls
the ones the tracer wraps (`storage.*`, `revisions.merge_revision`,
`datasets.discover`, `wire.encode_frame`) through their modules so that
a wrapper installed on the module attribute sees the call.

team-sync (open loop in simulated time)
    The `partition-12` world: 12 agents in 3 groups of 4, uniform 2-8 ms
    links with 5 % loss, 2 % duplication and 5 % reorder, groups 1, 2, 1
    offline over [60, 100), [140, 180) and [220, 260) s, seeded edits of
    1-3 triples per agent every 6-12 s until 250 s, run to 400 s.  The
    edits fire on their schedule whatever the agents are doing.  Every
    frame reaches an agent through `SyncAgent.on_frame`.  The world's
    summary, event log and agent 0's revision log are written and the log
    reloaded.  This is the control plane: small frames broadcast 11 ways,
    DAG queries (`heads`, `resolved`, `is_ancestor`) on every inbound
    frame, 1-3 triple deltas through the codec.  Predicted to move with
    the agent, netsim, wire and revision-DAG layers; barely touched by
    hash or codec work.

merge-history (closed loop)
    K concurrent single-parent revisions of n triples each on one base,
    merged one after another into a single head; each merge starts when
    the previous one returns.  Merge k carries a delta of O(k*n)
    triples on its second parent link and hashes it, so a single merge
    grows linearly in k: this is the shape of acceptance criterion 2,
    kept as is.  The history is then written with `save_document` and
    read back with the hash-verifying `load_document`.  No agent, wire
    or netsim.  Predicted to move with the triples codec
    (`canonical_delta_bytes`, `delta_parse`), `revision_hash`,
    `materialize` and storage; nothing else.

bulk-transfer (open loop in simulated time)
    One holder streams payloads to 3 receivers over the `transfer-fuzz`
    link (1-10 ms, 20 % loss, 5 % duplication, 10 % reorder).  Transfers
    start on a fixed schedule; they alternate between 512 KiB in 64 KiB
    chunks and 256 KiB in 4 KiB chunks.  The sender is found by
    `discover` on a metadata graph and chosen by `plan_transfer`;
    receivers commit into a `PayloadStore` and the reload step re-reads
    and hashes every committed payload.  No revisions at all: the
    prediction for any revision or codec change is no change here.
    Predicted to move with transfer, netsim, wire and datasets.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
import signal
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from graphsync import datasets, revisions, storage, wire
from graphsync.agent import SyncAgent, SyncConfig
from graphsync.netsim import LinkPolicy, NetworkSim, Topology
from graphsync.revisions import ROOT_REVISION, GraphOfRevisions, ParentLink, make_revision
from graphsync.transfer import (
    ReceiverSession,
    SenderSession,
    payload_for_send,
    plan_transfer,
    split_chunks,
)
from graphsync.triples import Delta, literal, triple
from graphsync.wire import AgentId, DataMsg

# Probes are benchmark bookkeeping, not simulated work: they are
# scheduled through the class function so that neither the untraced
# timer counter nor the tracer sees them.
_CALL_AT = NetworkSim.call_at

# Wall time a simulated world may take; a normal one takes under 5 s.
# Some partition-12 seeds (4305 among them) set off a revision storm
# that does not finish in minutes; such a world is stopped and counted
# as failed, so that the run still ends.
WORLD_BUDGET_S = 20


class WorldTimeout(BaseException):
    """Raised from the alarm handler; a BaseException so that no
    `except Exception` in the program can swallow it."""


@contextmanager
def _wall_budget(seconds: float):
    def expire(signum, frame):
        raise WorldTimeout
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _advance(sim: NetworkSim, until: int, checks: "Checks") -> bool:
    """Run the world to `until`; False if it was stopped."""
    try:
        with _wall_budget(WORLD_BUDGET_S):
            sim.advance(until)
    except WorldTimeout:
        checks.expect(False, f"stopped after {WORLD_BUDGET_S} s of wall time at simulated "
                             f"{sim.clock()} ms of {until}")
        return False
    return True


class Checks:
    """Failed output checks; `weight` is the number of operations a
    failure stands for (lost edits, failed commits)."""

    def __init__(self):
        self.problems: list[str] = []
        self.failed = 0

    def expect(self, ok: bool, message: str, weight: int = 1) -> None:
        if not ok:
            self.problems.append(message)
            self.failed += weight


@dataclass
class IterResult:
    """What one run of a world produced."""

    run_s: float
    op_ns: array
    attempted: int
    checks: Checks
    # Reloads what the run persisted and checks it; timed by the caller.
    reload: Optional[Callable[[Checks], None]]
    # Workload-specific figures and the facts the per-layer table needs.
    figures: dict = field(default_factory=dict)
    # Deterministic outputs; repeats of one world must agree exactly.
    fingerprint: dict = field(default_factory=dict)
    reload_s: float = 0.0
    # The world ran out of wall time; its timings mean nothing.
    stopped: bool = False

    @property
    def wall_s(self) -> float:
        return self.run_s + self.reload_s


def _sha16(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _netsim_facts(sim: NetworkSim, holder: Optional[str] = None) -> dict:
    log = sim.event_log
    return {
        "deliveries": len(log),
        "dropped": sim.dropped,
        "frames": dict(Counter(e[3] for e in log)),
        "wire_kib": sum(e[4] for e in log) / 1024.0,
        "data_to_receivers": sum(1 for e in log if e[3] == "data" and e[2] != holder),
    }


def _count_timers(sim: NetworkSim, end: int) -> list[int]:
    """Count the timers the world schedules that come due by `end`;
    each one is a callback dispatched by `advance(end)`."""
    count = [0]
    call_at = sim.call_at

    def counting_call_at(when, fn):
        if when <= end:
            count[0] += 1
        call_at(when, fn)

    sim.call_at = counting_call_at
    return count


def _timed_endpoint(on_frame, samples: array):
    clock = time.perf_counter_ns
    append = samples.append

    def endpoint(src, frame, now):
        t0 = clock()
        on_frame(src, frame, now)
        append(clock() - t0)

    return endpoint


def _stopped(run_s: float, samples: array, attempted: int, checks: Checks) -> IterResult:
    return IterResult(run_s=run_s, op_ns=samples, attempted=attempted, checks=checks,
                      reload=lambda checks: None, fingerprint={"stopped": True}, stopped=True)


def _reload_log(path: str, head: bytes, graph: frozenset) -> Callable[[Checks], None]:
    def reload(checks: Checks) -> None:
        gor, loaded_head = storage.load_document(path)
        checks.expect(loaded_head == head and gor.materialize(loaded_head) == graph,
                      f"reloaded {os.path.basename(path)} differs from the head it was saved at")
    return reload


# ---------------------------------------------------------------------------
# team-sync
# ---------------------------------------------------------------------------

TEAM_DOC = "doc:shared-map"
TEAM_WINDOWS = ((60_000, 100_000, 1), (140_000, 180_000, 2), (220_000, 260_000, 1))
TEAM_EDIT_STOP = 250_000
TEAM_END = 400_000
# Output fingerprints of partition-12 at seed 1 (sha256 prefixes).
TEAM_SEED1_FINGERPRINTS = {
    "summary.csv": "280845c47861d4b1",
    "events.csv": "3b10afa819ddbd67",
    "doc0.log": "0a016c63c46dc906",
}


def _fresh_delta(tag: str, count: int) -> Delta:
    return Delta.of({triple(f"urn:{tag}:{i}", "urn:p", f"urn:v:{i}") for i in range(count)}, ())


class TeamSync:
    name = "team-sync"
    op = "frame"
    # Worlds per run.  Seeds differ a lot in request traffic (70 k to
    # 113 k deliveries, 14 % spread in wall time), so a run averages over
    # many worlds.
    cycle = 10
    # Set-up takes about a millisecond; build each world several times
    # for a steady median.
    setups = 9

    def setup(self, seed: int, workdir: str, time_frames: bool = True):
        groups = {f"agent{i:02d}": i // 4 for i in range(12)}
        sim = NetworkSim(seed, policy=LinkPolicy(("uniform", 2, 8), loss=0.05,
                                                 duplication=0.02, reorder=0.05),
                         topology=Topology(dict(groups)))
        timers = _count_timers(sim, TEAM_END)
        samples = array("q")
        agents = []
        for i in range(12):
            ident = AgentId(bytes([i + 1]) * 16, f"agent{i:02d}")
            agent = SyncAgent(ident, sim, SyncConfig(), rng=random.Random(seed * 1000 + i))
            agent.subscribe(TEAM_DOC)
            endpoint = _timed_endpoint(agent.on_frame, samples) if time_frames else agent.on_frame
            sim.register(agent.name, endpoint, group=groups[agent.name])
            agent.start()
            agents.append(agent)
        for start, end, group in TEAM_WINDOWS:
            sim.set_group_offline(group, start, end)

        edits: list[frozenset] = []
        rng = random.Random(seed)

        def schedule_edit(agent, when, tag, count):
            def fire(now, a=agent, t=tag, c=count):
                delta = _fresh_delta(t, c)
                edits.append(delta.inserted)
                a.local_change(TEAM_DOC, delta, now)
            sim.call_at(when, fire)

        for i, agent in enumerate(agents):
            when = 8_000 + rng.randrange(4000)
            k = 0
            while when < TEAM_EDIT_STOP:
                schedule_edit(agent, when, f"e{i}:{k}", rng.randrange(1, 4))
                when += 6_000 + rng.randrange(6000)
                k += 1

        # Convergence probe: from the end of the last offline window,
        # look every simulated millisecond until all heads agree.
        converged_at = []

        def probe(now):
            if len({a.documents[TEAM_DOC].own_head for a in agents}) == 1:
                converged_at.append(now)
            else:
                _CALL_AT(sim, now + 1, probe)

        _CALL_AT(sim, TEAM_WINDOWS[-1][1], probe)
        return {"seed": seed, "sim": sim, "agents": agents, "edits": edits,
                "samples": samples, "timers": timers, "converged_at": converged_at,
                "out": workdir}

    def run(self, w) -> IterResult:
        sim, agents, out = w["sim"], w["agents"], w["out"]
        checks = Checks()
        t0 = time.perf_counter()
        if not _advance(sim, TEAM_END, checks):
            return _stopped(time.perf_counter() - t0, w["samples"], len(w["edits"]), checks)
        t_sim = time.perf_counter() - t0
        heads = [a.head_graph(TEAM_DOC) for a in agents]
        with open(os.path.join(out, "summary.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["agent", "head_hash", "head_triples", "is_master"])
            writer.writerows(
                (a.name, a.documents[TEAM_DOC].own_head.hex(), len(heads[i]),
                 int(a.is_master(TEAM_DOC)))
                for i, a in enumerate(agents)
            )
        sim.write_event_log(os.path.join(out, "events.csv"))
        gor0 = agents[0].documents[TEAM_DOC].gor
        head0 = agents[0].documents[TEAM_DOC].own_head
        log_path = os.path.join(out, "doc0.log")
        storage.save_document(gor0, log_path, head=head0)
        run_s = time.perf_counter() - t0

        checks.expect(len(set(heads)) == 1
                      and len({a.documents[TEAM_DOC].own_head for a in agents}) == 1,
                      "agents did not converge")
        n_masters = sum(a.is_master(TEAM_DOC) for a in agents)
        checks.expect(n_masters == 1, f"{n_masters} masters")
        published = {h for a in agents for h in a.published_log}
        unreachable = published - gor0.ancestors(head0) - {head0}
        checks.expect(not unreachable, f"{len(unreachable)} published revisions unreachable")
        lost = sum(1 for inserted in w["edits"] if not inserted <= heads[0])
        checks.expect(lost == 0, f"{lost} edits lost", weight=lost)
        fingerprints = {name: _sha16(os.path.join(out, name)) for name in TEAM_SEED1_FINGERPRINTS}
        if w["seed"] == 1:
            checks.expect(fingerprints == TEAM_SEED1_FINGERPRINTS,
                          f"seed-1 output fingerprints {fingerprints} differ from the baseline")

        facts = _netsim_facts(sim)
        converge = (w["converged_at"][0] - TEAM_WINDOWS[-1][1]) if w["converged_at"] else None
        checks.expect(converge is not None, "heads never became equal")
        figures = {
            "events_per_s": (facts["deliveries"] + w["timers"][0]) / t_sim,
            "converge_sim_ms": converge,
            "wire_kib": facts["wire_kib"],
            "netsim": facts,
        }
        return IterResult(
            run_s=run_s,
            op_ns=w["samples"],
            attempted=len(w["edits"]),
            checks=checks,
            reload=_reload_log(log_path, head0, heads[0]),
            figures=figures,
            fingerprint={"converge_sim_ms": converge, "wire_kib": facts["wire_kib"],
                         **fingerprints},
        )


# ---------------------------------------------------------------------------
# merge-history
# ---------------------------------------------------------------------------

MERGE_K = 64          # concurrent revisions, so K-1 merges per history
MERGE_N = 32          # triples per revision
MERGE_BASE = 5        # triples in the shared base revision
MERGER = b"\xff" * 16


def _token(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(n))


class MergeHistory:
    name = "merge-history"
    op = "merge"
    # The seed changes only the text of the triples, not their number.
    cycle = 2
    setups = 3

    def setup(self, seed: int, workdir: str, time_frames: bool = True):
        rng = random.Random(seed)

        def delta(tag: str, count: int) -> Delta:
            return Delta.of(
                {triple(f"urn:m:{tag}:{i}:{_token(rng, 12)}", "urn:p:value",
                        literal(f"{_token(rng, 24)} {i}")) for i in range(count)},
                (),
            )

        gor = GraphOfRevisions("doc:merge-history")
        base = make_revision(b"\x01" * 16, 0,
                             (ParentLink(ROOT_REVISION.hash, delta("base", MERGE_BASE)),))
        gor.insert(base)
        children = []
        for k in range(MERGE_K):
            author = bytes([(k % 250) + 1]) * 16
            rev = make_revision(author, 1, (ParentLink(base.hash, delta(f"c{k}", MERGE_N)),))
            gor.insert(rev)
            children.append(rev.hash)
        return {"gor": gor, "children": children, "out": workdir}

    def run(self, w) -> IterResult:
        gor, children = w["gor"], w["children"]
        op_ns = array("q")
        clock = time.perf_counter_ns
        checks = Checks()
        t0 = time.perf_counter()
        merged = children[0]
        for k, nxt in enumerate(children[1:], start=1):
            m0 = clock()
            rev = revisions.merge_revision(gor, merged, nxt, MERGER, 1 + k)
            op_ns.append(clock() - m0)
            checks.expect(rev.is_merge and {l.parent for l in rev.parents} == {merged, nxt},
                          f"merge {k} did not yield a two-parent revision")
            merged = rev.hash
        log_path = os.path.join(w["out"], "history.log")
        storage.save_document(gor, log_path, head=merged)
        run_s = time.perf_counter() - t0

        checks.expect(gor.heads() == {merged}, f"{len(gor.heads())} heads after merging")
        head_graph = gor.materialize(merged)
        want = MERGE_BASE + MERGE_K * MERGE_N
        checks.expect(len(head_graph) == want, f"head has {len(head_graph)} triples, want {want}")
        return IterResult(
            run_s=run_s,
            op_ns=op_ns,
            attempted=len(op_ns),
            checks=checks,
            reload=_reload_log(log_path, merged, head_graph),
            figures={"log_mib": os.path.getsize(log_path) / 2**20},
            fingerprint={"head": merged.hex(), "log": _sha16(log_path)},
        )


# ---------------------------------------------------------------------------
# bulk-transfer
# ---------------------------------------------------------------------------

BULK_LINK = LinkPolicy(("uniform", 1, 10), loss=0.2, duplication=0.05, reorder=0.1)
# (chunk size, payload bytes), alternating by transfer index.
BULK_MIX = ((64 * 1024, 512 * 1024), (4 * 1024, 256 * 1024))
BULK_TRANSFERS = 16
BULK_START_MS = 1_000
BULK_PERIOD_MS = 400
BULK_END = BULK_START_MS + BULK_TRANSFERS * BULK_PERIOD_MS + 30_000
BULK_RECEIVERS = 3
POINTS_CLOUD = datasets.NS + "points_cloud"


class BulkTransfer:
    name = "bulk-transfer"
    op = "frame"
    # Seeds differ in how many chunks are lost and resent; a world is
    # short, so a run averages over many.
    cycle = 16
    # Building the world again would overwrite the holder's payload
    # files, which on ext4 forces their write-back; build once.
    setups = 1

    def setup(self, seed: int, workdir: str, time_frames: bool = True):
        rng = random.Random(seed)
        sim = NetworkSim(seed, policy=BULK_LINK)
        timers = _count_timers(sim, BULK_END)
        samples = array("q")
        names = ["holder"] + [f"rx{i}" for i in range(BULK_RECEIVERS)]
        agents = {}
        stores = {}
        for i, name in enumerate(names):
            agent = SyncAgent(AgentId(bytes([i + 1]) * 16, name), sim, SyncConfig(),
                              rng=random.Random(seed * 1000 + i))
            endpoint = _timed_endpoint(agent.on_frame, samples) if time_frames else agent.on_frame
            sim.register(name, endpoint)
            agents[name] = agent
            stores[name] = datasets.PayloadStore(os.path.join(workdir, f"store-{name}"))
        by_uri = {a.ident.uri: a for a in agents.values()}

        meta = set()
        plan = []
        for j in range(BULK_TRANSFERS):
            chunk_size, size = BULK_MIX[j % len(BULK_MIX)]
            uri = f"ds:bulk:{j}"
            payload = rng.randbytes(size)
            stores["holder"].commit(uri, POINTS_CLOUD, payload, chunk_size)
            meta |= datasets.dataset_to_triples(
                datasets.DatasetMeta(uri, datasets.Rect(10 * j, 0, 10 * j + 10, 10), POINTS_CLOUD),
                [datasets.DatasetRelation(agents["holder"].ident, uri, "has")],
            )
            plan.append((uri, chunk_size, hashlib.sha256(payload).digest(),
                         datasets.Rect(10 * j + 1, 1, 10 * j + 9, 9)))
        meta = frozenset(meta)

        # (dataset, receiver) -> ("committed" | "aborted", simulated ms since start)
        outcomes: dict[tuple[str, str], tuple[str, int]] = {}
        senders: list[SenderSession] = []
        receivers: list[ReceiverSession] = []

        def start(now, uri, chunk_size, region):
            found = dict(datasets.discover(meta, region))
            sender_id, _ = plan_transfer([by_uri[h].ident for h in found[uri]])
            sender = agents[sender_id.name]
            payload = payload_for_send(stores[sender.name], uri)
            session = SenderSession(
                uri, payload, {agents[r].ident.uuid for r in names[1:]},
                send=lambda m, s=sender.name: sim.send(wire.encode_frame(m), s),
                schedule=sim.call_later, chunk_size=chunk_size,
            )
            sender.attach_transfer(uri, session)
            senders.append(session)
            n_chunks = len(split_chunks(payload, chunk_size))
            for r in names[1:]:
                def finish(status, r=r):
                    outcomes[(uri, r)] = (status, sim.clock() - now)
                    agents[r].detach_transfer(uri)

                def commit(data, r=r):
                    stores[r].commit(uri, POINTS_CLOUD, data, chunk_size)
                    finish("committed", r)

                def abort(r=r):
                    stores[r].abort(uri)
                    finish("aborted", r)

                receiver = ReceiverSession(
                    uri, agents[r].ident.uuid, max_chunks=n_chunks,
                    send=lambda m, r=r: sim.send(wire.encode_frame(m), r),
                    schedule=sim.call_later, commit=commit, abort=abort,
                    chunk_size=chunk_size,
                )
                agents[r].attach_transfer(uri, receiver)
                receivers.append(receiver)

        for j, (uri, chunk_size, _, region) in enumerate(plan):
            sim.call_at(BULK_START_MS + j * BULK_PERIOD_MS,
                        lambda now, u=uri, c=chunk_size, g=region: start(now, u, c, g))
        return {"sim": sim, "names": names, "stores": stores, "plan": plan,
                "outcomes": outcomes, "senders": senders, "receivers": receivers,
                "samples": samples, "timers": timers}

    def run(self, w) -> IterResult:
        sim, stores, outcomes = w["sim"], w["stores"], w["outcomes"]
        attempted = len(w["plan"]) * (len(w["names"]) - 1)
        checks = Checks()
        t0 = time.perf_counter()
        if not _advance(sim, BULK_END, checks):
            return _stopped(time.perf_counter() - t0, w["samples"], attempted, checks)
        run_s = time.perf_counter() - t0

        expected = {}
        for uri, _, digest, _ in w["plan"]:
            for r in w["names"][1:]:
                status = outcomes.get((uri, r), ("unfinished",))[0]
                checks.expect(status == "committed", f"{uri} on {r}: {status}")
                checks.expect(status == "committed" or not stores[r].has(uri),
                              f"{uri} on {r}: {status} transfer left a file")
                if status == "committed":
                    expected[(uri, r)] = digest
        figures = {
            "events_per_s": (len(sim.event_log) + w["timers"][0]) / run_s,
            "transfer_sim_p50_ms": _median_low(
                [v[1] for v in outcomes.values() if v[0] == "committed"]),
            "netsim": _netsim_facts(sim, holder=w["names"][0]),
            "useful_chunks": sum(len(r.state.received) for r in w["receivers"]),
            "max_tau": max((max(s.tau_trace or [0]) for s in w["senders"]), default=0),
        }
        figures["wire_kib"] = figures["netsim"]["wire_kib"]

        def reload(checks: Checks) -> None:
            verified = 0
            for (uri, r), digest in expected.items():
                data = stores[r].load(uri).data()
                ok = hashlib.sha256(data).digest() == digest
                checks.expect(ok, f"{uri} on {r}: committed bytes differ")
                verified += len(data) if ok else 0
            figures["verified_mib"] = verified / 2**20

        timeline = repr(sorted(outcomes.items())).encode()
        return IterResult(
            run_s=run_s,
            op_ns=w["samples"],
            attempted=attempted,
            checks=checks,
            reload=reload,
            figures=figures,
            fingerprint={"transfer_sim_p50_ms": figures["transfer_sim_p50_ms"],
                         "wire_kib": figures["wire_kib"],
                         "outcomes": hashlib.sha256(timeline).hexdigest()[:16]},
        )

    @staticmethod
    def final_checks(workdir: str) -> Checks:
        """A receiver fed an oversized chunk must abort, and its store must
        hold no file for the dataset afterwards."""
        sim = NetworkSim(0, policy=LinkPolicy(("fixed", 2)))
        store = datasets.PayloadStore(os.path.join(workdir, "store-abort"))
        holder = SyncAgent(AgentId(b"\x01" * 16, "holder"), sim)
        rx = SyncAgent(AgentId(b"\x02" * 16, "rx"), sim)
        for agent in (holder, rx):
            sim.register(agent.name, agent.on_frame)
        sim.register("evil", lambda *args: None)
        uri, aborted = "ds:bad", []
        holder.attach_transfer(uri, SenderSession(
            uri, bytes(1000), {rx.ident.uuid},
            send=lambda m: sim.send(wire.encode_frame(m), "holder"),
            schedule=sim.call_later, chunk_size=100))
        rx.attach_transfer(uri, ReceiverSession(
            uri, rx.ident.uuid, max_chunks=10,
            send=lambda m: sim.send(wire.encode_frame(m), "rx"),
            schedule=sim.call_later,
            commit=lambda data: store.commit(uri, POINTS_CLOUD, data, 100),
            abort=lambda: (store.abort(uri), aborted.append(True)),
            chunk_size=100))
        sim.call_at(8, lambda now: sim.send(wire.encode_frame(DataMsg(uri, 4, b"\xff" * 500)),
                                            "evil", "rx"))
        sim.advance(30_000)
        checks = Checks()
        checks.expect(bool(aborted), "an oversized chunk did not abort the receiver")
        checks.expect(not os.listdir(store.root), "an aborted transfer left a file behind")
        return checks


def _median_low(values: list) -> Optional[int]:
    values = sorted(values)
    return values[(len(values) - 1) // 2] if values else None


WORKLOADS = {w.name: w for w in (TeamSync(), MergeHistory(), BulkTransfer())}
