"""Span tracer for the traced benchmark run.

`Tracer.install()` replaces public functions of each graphsync module
with wrappers, on the names as the calling module binds them (for
example `graphsync.agent.decode_frame`, not only `graphsync.wire`'s),
and on the `GraphOfRevisions`, `SyncAgent`, `NetworkSim`, `PayloadStore`
class attributes; `remove()` puts the originals back.  Nothing under
`src/` is edited.

Each wrapper records a span: name, start, end and the enclosing span.
A span's self time is its duration minus the durations of its direct
children, so the self times of all spans plus the time outside any span
add up to the traced wall time.  Calls and self time are aggregated per
name for every span; the spans themselves are kept in memory up to a cap
and written out when the run ends.
"""

from __future__ import annotations

import gc
import itertools
import time
from array import array

import graphsync.agent as agent_mod
from graphsync import datasets, revisions, storage, transfer, triples, wire
from graphsync.agent import SyncAgent
from graphsync.datasets import PayloadStore
from graphsync.netsim import NetworkSim
from graphsync.revisions import GraphOfRevisions
from graphsync.wire import KIND_NAMES, ResendRequestMsg

DOC_KINDS = ("status", "revision", "revision-request", "vote")
# Spans kept for the span file; calls and self time count every span.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []
        self._seq = itertools.count()
        self.span_id, self.span_parent = array("q"), array("q")
        self.span_name = array("H")
        self.span_start, self.span_end = array("q"), array("q")
        self.spans_total = 0
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started = 0
        self._collecting = False

    # -- spans --------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> list:
        stack = self._stack
        span = [nid, next(self._seq), stack[-1][1] if stack else -1, time.perf_counter_ns(), 0]
        stack.append(span)
        return span

    def _close(self, span: list) -> int:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        nid, sid, parent, start, child = span
        duration = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += duration - child
        if stack:
            stack[-1][4] += duration
        self.spans_total += 1
        if len(self.span_id) < SPAN_CAP:
            self.span_id.append(sid)
            self.span_parent.append(parent)
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(end)
        return duration

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def gauge_max(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name: str, fn, before=None, after=None, busy: str | None = None):
        nid = self._nid(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = close(span)
                if busy is not None:
                    self.count(busy, duration)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (the set-up phase)."""
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counters = {}
        for arr in (self.span_id, self.span_parent, self.span_name,
                    self.span_start, self.span_end):
            del arr[:]
        self.spans_total = 0

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_fn(self, owner, attr: str, name: str, **hooks) -> None:
        self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], **hooks))

    def install(self) -> None:
        def count_delta(args):
            d = args[0]
            self.count("triples.canonical_delta_bytes.triples", len(d.inserted) + len(d.removed))

        def count_parsed(args, d):
            self.count("triples.delta_parse.triples", len(d.inserted) + len(d.removed))

        def count_resends(args, result):
            n = sum(isinstance(m, ResendRequestMsg) for m in result[1])
            if n:
                self.count("transfer.resend_requests", n)

        def queue_gauge(args, result):
            # Only a local change lengthens a document's queue.
            agent = args[0]
            for doc in agent.documents.values():
                self.gauge_max("agent.local_queue_max", len(doc.local_queue))

        def count_known(args):
            # Revisions come in again only as revision frames.
            gor, rev = args
            if rev.hash in gor:
                self.count("revisions.insert.known")

        for mod in (triples, wire, storage):
            self._patch_fn(mod, "delta_serialize", "triples.delta_serialize")
        for mod in (wire, storage):
            self._patch_fn(mod, "delta_parse", "triples.delta_parse", after=count_parsed)
        self._patch_fn(revisions, "canonical_delta_bytes", "triples.canonical_delta_bytes",
                       before=count_delta)
        self._patch_fn(revisions, "delta_apply", "triples.delta_apply")
        self._patch_fn(revisions, "delta_compute", "triples.delta_compute")

        self._patch_fn(revisions, "revision_hash", "revisions.revision_hash")
        self._patch_fn(GraphOfRevisions, "insert", "revisions.insert", before=count_known)
        for method in ("heads", "resolved", "is_ancestor", "common_ancestor", "materialize"):
            self._patch_fn(GraphOfRevisions, method, f"revisions.{method}")
        self._patch_fn(revisions, "merge_revision", "revisions.merge_revision")
        self._patch_fn(agent_mod, "merge_revision", "revisions.merge_revision",
                       busy="agent.master_busy_ns")
        self._patch_fn(agent_mod, "rebase_revisions", "revisions.rebase_revisions")

        self._patch_fn(storage, "save_document", "storage.save_document")
        self._patch_fn(storage, "load_document", "storage.load_document")

        for mod in (agent_mod, wire):
            self._patch_fn(mod, "encode_frame", "wire.encode_frame")
            self._patch_fn(mod, "decode_frame", "wire.decode_frame")

        self._patch(SyncAgent, "on_frame", self._traced_on_frame(SyncAgent.on_frame))
        self._patch_fn(SyncAgent, "local_change", "agent.local_change", after=queue_gauge)
        self._patch_fn(SyncAgent, "tick", "agent.tick")

        self._patch_fn(NetworkSim, "send", "netsim.send")
        self._patch_fn(NetworkSim, "advance", "netsim.advance")
        self._patch(NetworkSim, "call_at", self._traced_call_at(NetworkSim.call_at))

        self._patch_fn(transfer, "sender_step", "transfer.sender_step")
        self._patch_fn(transfer, "receiver_step", "transfer.receiver_step", after=count_resends)

        self._patch_fn(PayloadStore, "commit", "datasets.PayloadStore.commit")
        self._patch_fn(PayloadStore, "load", "datasets.PayloadStore.load")
        self._patch_fn(datasets, "discover", "datasets.discover")

        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_on_frame(self, on_frame):
        by_kind = {k: self._nid(f"agent.on_frame.{n}") for k, n in KIND_NAMES.items()
                   if n in DOC_KINDS}
        transfer_nid = self._nid("agent.on_frame.transfer")
        open_, close = self._open, self._close

        def traced(agent, src, frame, now):
            span = open_(by_kind.get(frame[0], transfer_nid))
            try:
                on_frame(agent, src, frame, now)
            finally:
                close(span)

        traced.__wrapped__ = on_frame
        return traced

    def _traced_call_at(self, call_at):
        nid = self._nid("netsim.timer")
        open_, close = self._open, self._close

        def traced(sim, when, fn):
            def timer(now):
                span = open_(nid)
                try:
                    fn(now)
                finally:
                    close(span)
            call_at(sim, when, timer)

        traced.__wrapped__ = call_at
        return traced

    # -- GC ---------------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if self._collecting:
            return
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.count("runtime.gc_pause_ns", time.perf_counter_ns() - self._gc_started)
            if info.get("generation") == 2:
                self.count("runtime.gc_gen2_collections")

    def collect(self) -> None:
        """A full collection the benchmark makes between phases; its
        pause is not the program's."""
        self._collecting = True
        try:
            gc.collect()
        finally:
            self._collecting = False

    # -- results ---------------------------------------------------------

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def total_self_s(self) -> float:
        return sum(self.self_ns) / 1e9

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# {self.spans_total} spans recorded, first {len(self.span_id)} written; "
                     "times in ns from an arbitrary origin\n")
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{self.span_parent[i]}\t{names[self.span_name[i]]}"
                         f"\t{self.span_start[i]}\t{self.span_end[i]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, figures: dict) -> dict[str, float]:
    """The per-layer table of one traced run of a world, from the spans
    and from the facts the workload collected (`figures`).  A layer the
    workload never reaches reads 0."""
    m: dict[str, float] = {}

    def fn(name, calls=True):
        if calls:
            m[f"{name}.calls"] = tr.calls_of(name)
        m[f"{name}.self_s"] = tr.self_s(name)

    c = tr.counters
    fn("triples.canonical_delta_bytes")
    m["triples.canonical_delta_bytes.triples"] = c.get("triples.canonical_delta_bytes.triples", 0)
    fn("triples.delta_serialize")
    fn("triples.delta_parse")
    m["triples.delta_parse.triples"] = c.get("triples.delta_parse.triples", 0)
    fn("triples.delta_apply", calls=False)
    fn("triples.delta_compute", calls=False)

    fn("revisions.revision_hash")
    fn("revisions.insert")
    m["revisions.hash_per_insert"] = _ratio(tr.calls_of("revisions.revision_hash"),
                                            tr.calls_of("revisions.insert"))
    for method in ("heads", "resolved", "is_ancestor", "common_ancestor", "materialize",
                   "merge_revision", "rebase_revisions"):
        fn(f"revisions.{method}")

    fn("storage.save_document", calls=False)
    fn("storage.load_document", calls=False)

    fn("wire.encode_frame")
    fn("wire.decode_frame")
    m["wire.decodes_per_encode"] = _ratio(tr.calls_of("wire.decode_frame"),
                                          tr.calls_of("wire.encode_frame"))

    for kind in DOC_KINDS + ("transfer",):
        fn(f"agent.on_frame.{kind}")
    fn("agent.local_change")
    fn("agent.tick")
    m["agent.local_queue_max"] = c.get("agent.local_queue_max", 0)
    net = figures.get("netsim", {})
    m["agent.revision_dup_ratio"] = _ratio(c.get("revisions.insert.known", 0),
                                           net.get("frames", {}).get("revision", 0))
    m["agent.master_busy_s"] = c.get("agent.master_busy_ns", 0) / 1e9
    m["agent.frame_p99_us"] = figures.get("frame_p99_us", 0.0)
    m["agent.converge_sim_ms"] = figures.get("converge_sim_ms", 0)

    deliveries, dropped = net.get("deliveries", 0), net.get("dropped", 0)
    fn("netsim.send")
    m["netsim.dispatch_self_s"] = tr.self_s("netsim.advance")
    m["netsim.timer.self_s"] = tr.self_s("netsim.timer")
    m["netsim.deliveries"] = deliveries
    m["netsim.timers"] = tr.calls_of("netsim.timer")
    m["netsim.dropped"] = dropped
    m["netsim.drop_ratio"] = _ratio(dropped, dropped + deliveries)
    frames = net.get("frames", {})
    for kind in KIND_NAMES.values():
        m[f"netsim.frames.{kind}"] = frames.get(kind, 0)
    m["netsim.wire_kib"] = net.get("wire_kib", 0.0)

    fn("transfer.sender_step")
    fn("transfer.receiver_step")
    m["transfer.useful_data_ratio"] = _ratio(figures.get("useful_chunks", 0),
                                             net.get("data_to_receivers", 0))
    m["transfer.resend_requests"] = c.get("transfer.resend_requests", 0)
    m["transfer.max_tau"] = figures.get("max_tau", 0)
    m["transfer.sim_p50_ms"] = figures.get("transfer_sim_p50_ms", 0)

    fn("datasets.PayloadStore.commit")
    fn("datasets.PayloadStore.load", calls=False)
    fn("datasets.discover")

    m["runtime.gc_pause_s"] = c.get("runtime.gc_pause_ns", 0) / 1e9
    m["runtime.gc_gen2_collections"] = c.get("runtime.gc_gen2_collections", 0)
    return m
