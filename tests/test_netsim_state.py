"""The network simulator answers from cached state; these tests hold
that state to the plain schedule scans it replaces."""

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
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.sampled_from(NAMES), st.sampled_from(NAMES), TIMES),
        st.tuples(st.just("partition"), st.lists(WINDOW, max_size=3)),
        st.tuples(st.just("offline"), st.integers(0, 2), WINDOW),
        st.tuples(st.just("block"), st.sampled_from(NAMES), st.sampled_from(NAMES), WINDOW),
        st.tuples(st.just("move"), st.sampled_from(NAMES), st.integers(0, 2)),
    ),
    max_size=40,
)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.sampled_from(NAMES), st.integers(0, 2)), OPS)
def test_connected_equals_window_scan(groups, ops):
    """Random group maps, partition, offline and pair-block windows,
    windows added between queries and queries at non-monotone times."""
    sim = NetworkSim(0, topology=Topology(dict(groups)))
    oracle = ScanOracle(sim.topology.groups)
    for op in ops:
        kind = op[0]
        if kind == "query":
            _, src, dst, t = op
            assert sim.connected(src, dst, t) == oracle.connected(src, dst, t), op
        elif kind == "partition":
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
    for t in range(62):
        for src in NAMES:
            for dst in NAMES:
                assert sim.connected(src, dst, t) == oracle.connected(src, dst, t)


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
