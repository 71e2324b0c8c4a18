"""The network simulator answers from cached state; these tests hold
that state to the plain schedule scans it replaces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsync.netsim import LinkPolicy, NetworkSim, Topology
from graphsync.wire import ReadyMsg, encode_frame

FRAME = encode_frame(ReadyMsg("ds", b"\x05" * 16))
NAMES = ["a", "b", "c", "d", "e"]


class ScanOracle:
    """`connected` as a scan of every window list on each query, fed
    the same schedule calls as the simulator."""

    def __init__(self, groups):
        self.groups = groups
        self.partitions = []
        self.offline = {}
        self.blocks = {}

    @staticmethod
    def _in_windows(windows, t):
        return any(start <= t < end for start, end in windows)

    def connected(self, src, dst, t):
        if self._in_windows(self.blocks.get(frozenset((src, dst)), ()), t):
            return False
        g_src, g_dst = self.groups.get(src, 0), self.groups.get(dst, 0)
        if g_src == g_dst:
            return True
        if self._in_windows(self.partitions, t):
            return False
        if self._in_windows(self.offline.get(g_src, ()), t):
            return False
        if self._in_windows(self.offline.get(g_dst, ()), t):
            return False
        return True


TIMES = st.integers(0, 60)
WINDOW = st.tuples(TIMES, TIMES)
CHANGE = st.one_of(
    st.tuples(st.just("partition"), st.lists(WINDOW, max_size=3)),
    st.tuples(st.just("offline"), st.integers(0, 2), WINDOW),
    st.tuples(st.just("block"), st.sampled_from(NAMES), st.sampled_from(NAMES), WINDOW),
    st.tuples(st.just("move"), st.sampled_from(NAMES), st.integers(0, 2)),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.sampled_from(NAMES), st.sampled_from(NAMES), TIMES),
        CHANGE,
    ),
    max_size=40,
)


GROUPS = st.dictionaries(st.sampled_from(NAMES), st.integers(0, 2))


def apply(op, sim, oracle):
    """Feed one schedule or group change to both."""
    kind = op[0]
    if kind == "partition":
        sim.set_partition(op[1])
        oracle.partitions = list(op[1])
    elif kind == "offline":
        _, group, (start, end) = op
        sim.set_group_offline(group, start, end)
        oracle.offline.setdefault(group, []).append((start, end))
    elif kind == "block":
        _, a, b, (start, end) = op
        sim.block_pair(a, b, start, end)
        oracle.blocks.setdefault(frozenset((a, b)), []).append((start, end))
    else:
        _, name, group = op
        sim.topology.groups[name] = group


@settings(max_examples=400, deadline=None)
@given(GROUPS, OPS)
def test_connected_equals_window_scan(groups, ops):
    """Random group maps, partition, offline and pair-block windows,
    windows added between queries and queries at non-monotone times."""
    sim = NetworkSim(0, topology=Topology(dict(groups)))
    oracle = ScanOracle(sim.topology.groups)
    for op in ops:
        if op[0] == "query":
            _, src, dst, t = op
            assert sim.connected(src, dst, t) == oracle.connected(src, dst, t), op
        else:
            apply(op, sim, oracle)
    for t in range(62):
        for src in NAMES:
            for dst in NAMES:
                assert sim.connected(src, dst, t) == oracle.connected(src, dst, t)


@settings(max_examples=300, deadline=None)
@given(GROUPS, st.lists(st.tuples(TIMES, CHANGE), max_size=8),
       st.lists(st.tuples(TIMES, st.sampled_from(NAMES), st.sampled_from(NAMES)), max_size=30))
def test_sends_and_deliveries_follow_the_window_scan(groups, changes, sends):
    """`send` queues a copy only over a linked pair, and `advance`
    delivers it only if the pair is still linked, also when windows,
    blocks and groups change between the two from inside the run."""
    sim = NetworkSim(0, policy=LinkPolicy(("uniform", 0, 4)), topology=Topology(dict(groups)))
    oracle = ScanOracle(sim.topology.groups)
    delivered, linked_at_delivery = [], []
    for name in NAMES:
        sim.register(name, lambda src, frame, t, n=name: delivered.append((t, src, n, frame)))
    for t, op in changes:
        sim.call_at(t, lambda now, op=op: apply(op, sim, oracle))

    def send(now, src, dst, frame):
        linked = oracle.connected(src, dst, now)
        times = sim.send(frame, src, dst)
        assert len(times) == linked
        for when in times:
            # runs right after the copy's dispatch, under the same schedules
            sim.call_at(when, lambda now: oracle.connected(src, dst, now)
                        and linked_at_delivery.append((now, src, dst, frame)))

    for i, (t, src, dst) in enumerate(sends):
        sim.call_at(t, lambda now, s=src, d=dst, f=bytes([i]): send(now, s, d, f))
    sim.advance(100)
    assert sorted(delivered) == sorted(linked_at_delivery)


@pytest.mark.parametrize("cut", [
    lambda sim: sim.block_pair("b", "a", 10, 20),
    lambda sim: sim.set_group_offline(1, 10, 20),
    lambda sim: sim.set_partition([(10, 20)]),
], ids=["block", "offline", "partition"])
def test_a_link_cut_during_the_run_holds_at_once(cut):
    # the sends at 0 and 9 find every link up; the cut runs first at
    # 10, so the copy due at 10 is dropped and the send at 10 queues
    # nothing
    sim = NetworkSim(0, policy=LinkPolicy(("fixed", 1)), topology=Topology({"a": 0, "b": 1}))
    got = []
    for name in ("a", "b"):
        sim.register(name, lambda src, frame, t, n=name: got.append((t, src, n)))
    sim.send(FRAME, "a", "b")
    sim.call_at(10, lambda now: cut(sim))
    sim.call_at(10, lambda now: got.append(("queued", sim.send(FRAME, "a", "b"))))
    sim.call_at(9, lambda now: sim.send(FRAME, "a", "b"))
    sim.advance(30)
    assert got == [(1, "a", "b"), ("queued", [])]


def test_a_blocked_pair_stays_cut_across_span_edges():
    sim = NetworkSim(0, policy=LinkPolicy(("fixed", 1)),
                     topology=Topology({"a": 0, "b": 1, "c": 2}))
    got = []
    for name in ("a", "b", "c"):
        sim.register(name, lambda src, frame, t, n=name: got.append((t, n)))
    sim.block_pair("a", "b", 0, 100)
    sim.set_group_offline(2, 20, 30)
    for t in (10, 25, 40):
        sim.call_at(t, lambda now: sim.send(FRAME, "a"))
    sim.advance(100)
    assert got == [(11, "c"), (41, "c")]


def test_broadcast_targets_are_sorted_after_late_register():
    sim = NetworkSim(0, policy=LinkPolicy(("fixed", 5)))
    got = []

    def register(name):
        sim.register(name, lambda src, frame, t, n=name: got.append(n))

    for name in ("d", "a", "c"):
        register(name)
    sim.send(FRAME, "a")
    sim.advance(10)
    assert got == ["c", "d"]
    register("b")
    got.clear()
    sim.send(FRAME, "a")
    sim.send(FRAME, "d")
    sim.advance(20)
    assert got == ["b", "c", "d", "a", "b", "c"]
    assert [dst for _, _, dst, _, _ in sim.event_log[2:]] == got
