import csv
import gc
import heapq
import io
import itertools
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsync.netsim import LinkPolicy, NetworkSim, Topology, parse_scenario, ScenarioError
from graphsync.wire import KIND_NAMES, ReadyMsg, encode_frame

FRAME = encode_frame(ReadyMsg("ds", b"\x05" * 16))


def make_sim(seed=1, policy=None, groups=None):
    sim = NetworkSim(seed, policy=policy, topology=Topology(dict(groups or {})))
    inboxes = {}

    def register(name, group=0):
        inboxes[name] = []
        sim.register(name, lambda src, fr, t, n=name: inboxes[n].append((t, src, fr)), group)

    return sim, inboxes, register


def test_full_loss_delivers_nothing():
    sim, inboxes, register = make_sim(policy=LinkPolicy(("fixed", 5), loss=1.0))
    register("a"), register("b")
    assert sim.send(FRAME, "a", "b") == []
    sim.advance(1000)
    assert inboxes["b"] == []


def test_full_duplication_delivers_twice():
    sim, inboxes, register = make_sim(policy=LinkPolicy(("fixed", 5), duplication=1.0))
    register("a"), register("b")
    times = sim.send(FRAME, "a", "b")
    assert len(times) == 2
    sim.advance(1000)
    assert len(inboxes["b"]) == 2


def test_broadcast_reaches_everyone_but_sender():
    sim, inboxes, register = make_sim()
    for name in ("a", "b", "c"):
        register(name)
    sim.send(FRAME, "a")
    sim.advance(100)
    assert len(inboxes["b"]) == 1 and len(inboxes["c"]) == 1 and inboxes["a"] == []


def test_any_frame_is_delivered_and_logged():
    sim, inboxes, register = make_sim()
    register("a"), register("b")
    for frame in (b"", b"\xff", FRAME):
        sim.send(frame, "a", "b")
    sim.advance(100)
    assert [fr for _, _, fr in inboxes["b"]] == [b"", b"\xff", FRAME]
    assert [row[3:] for row in sim.event_log] == [("?", 0), ("?", 1), ("ready", len(FRAME))]


# endpoint names csv must quote or may mangle, and plain ones
ENDPOINT_NAMES = st.lists(
    st.one_of(
        st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", " lead", "a,b", 'q"q', "é", "中文", "x"]),
        st.text(alphabet=st.sampled_from(list(',"\r\n é中ab')), max_size=6),
    ),
    min_size=2, max_size=5, unique=True,
)


@settings(max_examples=150, deadline=None)
@given(ENDPOINT_NAMES, st.data())
def test_event_log_csv_is_what_csv_writer_writes(names, data):
    """Whatever the endpoint names and frames (empty, unknown kind
    bytes, real frames), `write_event_log` writes the bytes that
    `csv.writer` writes for the header and the rows of `event_log`."""
    sim = NetworkSim(data.draw(st.integers(0, 2**16)),
                     policy=LinkPolicy(("uniform", 1, 5), duplication=0.2))
    for name in names:
        sim.register(name, lambda src, frame, now: None)
    frames = st.one_of(st.just(b""), st.just(FRAME), st.binary(min_size=1, max_size=4))
    sends = data.draw(st.lists(st.tuples(
        st.sampled_from(names), st.one_of(st.none(), st.sampled_from(names)), frames),
        max_size=20))
    for src, dst, frame in sends:
        sim.send(frame, src, dst)
    sim.advance(100)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["time_ms", "src", "dst", "kind", "size"])
    writer.writerows(list(sim.event_log))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.csv")
        sim.write_event_log(path)
        with open(path, "rb") as fh:
            assert fh.read() == expected.getvalue().encode()


def test_event_log_reads_as_a_list_of_rows():
    sim, inboxes, register = make_sim(policy=LinkPolicy(("uniform", 1, 9), duplication=0.3))
    register("a"), register("b"), register("c")
    for frame in (FRAME, b"", b"\xff\x00", FRAME):
        sim.send(frame, "a")
        sim.send(frame, "c", "b")
    sim.advance(100)
    log = sim.event_log
    # each delivery, as its receiver saw it
    rows = [(t, src, name, KIND_NAMES.get(fr[0], "?") if fr else "?", len(fr))
            for name in ("a", "b", "c") for t, src, fr in inboxes[name]]
    assert sorted(log) == sorted(rows)
    listed = list(log)
    assert len(log) == len(listed) >= 12
    for i in (0, 5, -1, -len(listed)):
        assert log[i] == listed[i]
    for index in (len(listed), -len(listed) - 1):
        with pytest.raises(IndexError):
            log[index]
    for cut in (slice(None), slice(2, 7), slice(-3, None), slice(None, None, -2),
                slice(5, 1), slice(1, 100, 3)):
        assert log[cut] == listed[cut]
    assert [row for row in log] == listed
    assert log == listed and listed == log and log == sim.event_log
    assert log != listed[:-1] and log != tuple(listed)
    assert repr(log) == repr(listed)


def test_logged_deliveries_cost_under_40_bytes_a_row():
    # 10 000 broadcasts to 10 receivers, all delivered at 5 ms
    sim = NetworkSim(1)
    names = [f"r{i}" for i in range(11)]
    for name in names:
        sim.register(name, lambda src, frame, now: None)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            sim.send(FRAME, "r0")
        sim.advance(10)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(sim.event_log) == 100_000
    assert grown / 100_000 < 40


def test_frame_memo_stays_bounded_under_a_flood():
    # 1 000 distinct 64 KiB broadcasts, each delivered before the next
    sim = NetworkSim(1)
    names = ["flood", "r1", "r2"]
    decodes = []

    def receive(src, frame, now):
        sim.decoded(frame, lambda f: decodes.append(f[:4]) or len(f))

    for name in names:
        sim.register(name, receive)
    bound = 4 * len(names)
    size = 64 * 1024

    def frame(i):
        return i.to_bytes(4, "big") * (size // 4)

    tracemalloc.start()
    try:
        for i in range(1000):
            sim.send(frame(i), "flood")
            sim.advance(sim.clock() + 10)
            assert len(sim._cells) <= bound
        gc.collect()
        blocks = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    # a frame is the only block this large that the flood can leave
    assert sum(block.size >= size for block in blocks) <= bound
    assert len(decodes) == 1000
    # an evicted frame is decoded again; one still in the memo is not
    sim.send(frame(0), "flood")
    sim.send(frame(999), "flood")
    sim.advance(sim.clock() + 10)
    assert decodes[1000:] == [frame(0)[:4]]


def test_causality_minimum_latency():
    sim, inboxes, register = make_sim(policy=LinkPolicy(("uniform", 3, 9)))
    register("a"), register("b")
    for _ in range(50):
        sim.send(FRAME, "a", "b")
    sim.advance(1000)
    assert all(t >= 3 for t, _, _ in inboxes["b"])


def test_seeded_runs_are_identical():
    def run(seed):
        sim, inboxes, register = make_sim(
            seed, policy=LinkPolicy(("uniform", 1, 20), loss=0.3, duplication=0.2, reorder=0.3)
        )
        register("a"), register("b"), register("c")
        for i in range(200):
            sim.send(FRAME, ("a", "b", "c")[i % 3])
        sim.advance(10_000)
        return sim.event_log

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_partition_blocks_cross_group_deliveries():
    sim, inboxes, register = make_sim(groups={"a": 0, "b": 1, "c": 1})
    register("a", 0), register("b", 1), register("c", 1)
    sim.set_partition([(100, 200)])
    sim.advance(150)
    sim.send(FRAME, "a")          # cross-group drops, none delivered to b or c
    sim.send(FRAME, "b")          # reaches c (same group) but not a
    sim.advance(400)
    assert inboxes["b"] == [] or all(src != "a" for _, src, _ in inboxes["b"])
    assert [src for _, src, _ in inboxes["c"]] == ["b"]
    assert all(src != "b" for _, src, _ in inboxes["a"])


def test_frame_in_flight_dropped_when_partition_starts():
    sim, inboxes, register = make_sim(policy=LinkPolicy(("fixed", 50)), groups={"a": 0, "b": 1})
    register("a", 0), register("b", 1)
    sim.set_partition([(20, 400)])
    sim.send(FRAME, "a", "b")   # sent at t=0, would arrive at t=50, inside the window
    sim.advance(1000)
    assert inboxes["b"] == []


def test_group_offline_windows():
    sim, inboxes, register = make_sim(groups={"a": 0, "b": 1, "c": 2})
    register("a", 0), register("b", 1), register("c", 2)
    sim.set_group_offline(1, 0, 100)
    sim.send(FRAME, "a")
    sim.advance(500)
    assert inboxes["b"] == []
    assert len(inboxes["c"]) == 1


def test_blocked_pair():
    sim, inboxes, register = make_sim()
    register("a"), register("b"), register("c")
    sim.block_pair("a", "b", 0, 1000)
    sim.send(FRAME, "a")
    sim.advance(500)
    assert inboxes["b"] == [] and len(inboxes["c"]) == 1


def test_order_matches_heap_replay_oracle():
    # deliveries and timers, many scheduled from inside callbacks, some
    # of those due at the millisecond being dispatched, run in the order
    # a heap of (time, insertion) pairs would pop everything scheduled
    sim = NetworkSim(5, policy=LinkPolicy(("uniform", 1, 30), duplication=0.2, reorder=0.2))
    rng = random.Random(9)
    scheduled, dispatched = [], []
    seq = itertools.count()

    def send(label):
        times = sim.send(label.encode(), "a", "b")
        for t in times:
            heapq.heappush(scheduled, (t, next(seq), label))
        return times

    def at(t, label):
        heapq.heappush(scheduled, (t, next(seq), label))
        sim.call_at(t, lambda now: on_event(now, label))

    def on_event(now, label):
        dispatched.append((now, label))
        if label.count("/") >= 3:
            return
        if rng.random() < 0.3:
            at(now, f"{label}/now")
        if rng.random() < 0.3:
            at(now + rng.randint(1, 5), f"{label}/later")
        if rng.random() < 0.2:
            send(f"{label}/send")

    sim.register("a", lambda *_: None)
    sim.register("b", lambda src, frame, now: on_event(now, frame.decode()))
    for i in range(100):
        send(f"s{i}")
        if i % 5 == 0:
            at(rng.randint(0, 40), f"t{i}")
    # a delivery and a timer due at the same millisecond
    probe = send("probe")[0]
    at(probe, "beside-probe")
    sim.advance(10_000)

    replay = [heapq.heappop(scheduled) for _ in range(len(scheduled))]
    assert dispatched == [(t, label) for t, _, label in replay]
    assert any(label.endswith("/now") for _, label in dispatched)
    assert {(probe, "probe"), (probe, "beside-probe")} <= set(dispatched)


@pytest.mark.parametrize("lo, hi", [(0, 0), (3, 3), (1, 8), (2, 8), (1, 10), (1, 1024)])
def test_latency_draw_is_randint(lo, hi):
    # the byte-identical outputs rest on this: draw_latency returns what
    # Random.randint returns and consumes the same bits, also for a
    # one-value range, where randint still draws
    policy = LinkPolicy(("uniform", lo, hi))
    for seed in range(50):
        ours, randint = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert policy.draw_latency(ours) == randint.randint(lo, hi)
        assert ours.getstate() == randint.getstate()


def test_timers_interleave_with_deliveries():
    sim, inboxes, register = make_sim(policy=LinkPolicy(("fixed", 10)))
    register("a"), register("b")
    fired = []
    sim.call_at(5, lambda t: fired.append(t))
    sim.send(FRAME, "a", "b")
    sim.call_at(15, lambda t: fired.append(t))
    sim.advance(20)
    assert fired == [5, 15]
    assert [t for t, _, _ in inboxes["b"]] == [10]
    assert sim.clock() == 20


def test_a_raising_callback_leaves_the_later_events_queued():
    sim, inboxes, register = make_sim(policy=LinkPolicy(("fixed", 10)))
    register("a"), register("b")
    fired = []

    def boom(now):
        fired.append("boom")
        raise RuntimeError("boom")

    sim.call_at(10, lambda now: fired.append("before"))
    sim.call_at(10, boom)
    sim.send(FRAME, "a", "b")
    sim.call_at(10, lambda now: fired.append("after"))
    with pytest.raises(RuntimeError):
        sim.advance(20)
    assert fired == ["before", "boom"] and inboxes["b"] == []
    sim.advance(20)
    assert fired == ["before", "boom", "after"]
    assert [t for t, _, _ in inboxes["b"]] == [10]


def test_advance_with_no_events_returns_at_until():
    sim, inboxes, register = make_sim()
    register("a")
    sim.advance(123)
    assert inboxes["a"] == []
    assert sim.clock() == 123


def test_policy_validation():
    with pytest.raises(ValueError):
        LinkPolicy(("fixed", 5), loss=1.5)
    with pytest.raises(ValueError):
        LinkPolicy(("weird", 5))
    for latency in (("fixed", -5), ("fixed",), ("fixed", 2.5), ("uniform", 8, 2),
                    ("uniform", -1, 3), ("uniform", 2)):
        with pytest.raises(ValueError):
            LinkPolicy(latency)
    LinkPolicy(("fixed", 0))
    LinkPolicy(("uniform", 4, 4))


SCENARIO = """
# twelve agents in three groups
seed 7
agent a0 group 0
agent a1 group 0
agent b0 group 1
latency uniform 2 8
loss 0.1
duplication 0.05
reorder 0.1
status-period 500
partition 1000 2000
offline 1 3000 4000
block a0 b0 100 200
edit a0 doc:map 500 3
transfer a1 a0,b0 ds:scan 250 65536 1048576
run-until 9000
"""


def test_parse_scenario():
    sc = parse_scenario(SCENARIO)
    assert sc.seed == 7
    assert sc.agents == ["a0", "a1", "b0"]
    assert sc.groups["b0"] == 1
    assert sc.policy == LinkPolicy(("uniform", 2, 8), 0.1, 0.05, 0.1)
    assert sc.status_period == 500
    assert sc.partitions == [(1000, 2000)]
    assert sc.offline == [(1, 3000, 4000)]
    assert sc.blocks == [("a0", "b0", 100, 200)]
    assert sc.edits[0].document == "doc:map" and sc.edits[0].changes == 3
    tr = sc.transfers[0]
    assert tr.sender == "a1" and tr.receivers == ["a0", "b0"]
    assert tr.chunk_size == 65536 and tr.total_bytes == 1048576
    assert sc.run_until == 9000


def test_parse_scenario_errors():
    with pytest.raises(ScenarioError):
        parse_scenario("bogus 1 2 3")
    with pytest.raises(ScenarioError):
        parse_scenario("latency weird 5")
    with pytest.raises(ScenarioError):
        parse_scenario("edit a0 doc:map notanumber 3")
    bad = [
        "latency uniform 8 2",
        "latency fixed -5",
        "loss 1.5",
        "status-period 0",
        "status-period -10",
        "agent a\nedit c doc:x 200 1",
        "agent a\nblock a c 0 10",
        "agent a\ntransfer a a,c ds:x 0 64 128",
        "agent a\ntransfer c a ds:x 0 64 128",
    ]
    for text in bad:
        with pytest.raises(ScenarioError):
            parse_scenario(text)
    # agent lines may come after the lines that name the agent
    sc = parse_scenario("edit c doc:x 200 1\nblock a c 0 10\nagent a\nagent c")
    assert sc.agents == ["a", "c"]
