import hashlib
import random

import pytest

from graphsync import experiments
from graphsync.netsim import LinkPolicy, NetworkSim
from graphsync.transfer import (
    NoHolder,
    PayloadMissing,
    ReceiverSession,
    ReceiverState,
    SenderSession,
    SenderState,
    assemble_payload,
    payload_for_send,
    plan_transfer,
    receiver_step,
    sender_step,
    split_chunks,
)
from graphsync.wire import (
    MAX_WANTED,
    AgentId,
    DataMsg,
    ErrorMsg,
    FinishedMsg,
    ReadyMsg,
    ResendRequestMsg,
    ThrottleDownMsg,
    ThrottleUpMsg,
    decode_frame,
    encode_frame,
)

R1 = b"\x31" * 16
R2 = b"\x32" * 16


def drive_sender(chunks, receivers, scripted=None, max_steps=200):
    """Run sender_step to completion, feeding scripted inbound messages
    at given step indexes; returns the full outbound trace."""
    state = SenderState("ds:x", frozenset(receivers))
    trace = []
    scripted = scripted or {}
    for step in range(max_steps):
        inbound = scripted.get(step, [])
        state, out = sender_step(state, inbound, chunks)
        trace.extend(out)
        if state.finished_sent:
            break
    return state, trace


class TestSenderStep:
    def test_waits_for_all_ready(self):
        chunks = split_chunks(b"ab", 1)
        state = SenderState("ds:x", frozenset({R1, R2}))
        state, out = sender_step(state, [ReadyMsg("ds:x", R1)], chunks)
        assert out == [] and not state.streaming
        state, out = sender_step(state, [ReadyMsg("ds:x", R2)], chunks)
        assert state.streaming
        assert [m.sequence for m in out if isinstance(m, DataMsg)] == [0]

    def test_lossless_ten_chunks_then_finished(self):
        chunks = split_chunks(bytes(10), 1)
        state, trace = drive_sender(chunks, {R1}, {0: [ReadyMsg("ds:x", R1)]})
        data = [m for m in trace if isinstance(m, DataMsg)]
        assert [m.sequence for m in data] == list(range(10))
        fin = [m for m in trace if isinstance(m, FinishedMsg)]
        assert fin and fin[-1].last_sequence == 9

    def test_resends_go_before_next_fresh_chunk(self):
        chunks = split_chunks(bytes(10), 1)
        scripted = {
            0: [ReadyMsg("ds:x", R1)],
            5: [ResendRequestMsg("ds:x", R1, (3, 7))],
        }
        state, trace = drive_sender(chunks, {R1}, scripted)
        data = [m.sequence for m in trace if isinstance(m, DataMsg)]
        i3, i7 = data.index(3, 4), data.index(7)
        fresh_after = data.index(5)
        assert i3 < fresh_after and i7 < fresh_after

    def test_repeated_resend_sequence_answered_once(self):
        chunks = split_chunks(bytes(10), 1)
        state = SenderState("ds:x", frozenset({R1}))
        state, out = sender_step(state, [ResendRequestMsg("ds:x", R1, (0,) * 1000)], chunks)
        assert out == [DataMsg("ds:x", 0, chunks[0])]
        state, out = sender_step(state, [ResendRequestMsg("ds:x", R1, (7, 3, 7, 3))], chunks)
        assert [m.sequence for m in out] == [7, 3]

    def test_resend_from_outside_the_transfer_is_not_answered(self):
        chunks = split_chunks(bytes(256 * 1024), 64 * 1024)
        stranger = b"\x99" * 16
        state = SenderState("ds:x", frozenset({R1, R2}))
        flood = [ResendRequestMsg("ds:x", stranger, (0, 1, 2, 3))] * 50
        state, out = sender_step(state, flood, chunks)
        assert out == [] and not state.streaming

    def test_throttle_counters_clamped(self):
        chunks = split_chunks(bytes(4), 1)
        events = [
            [ReadyMsg("ds:x", R1), ThrottleUpMsg("ds:x", R1)],
            [ThrottleDownMsg("ds:x", R1), ThrottleDownMsg("ds:x", R1)],
            [ThrottleUpMsg("ds:x", R1)],
        ]
        state = SenderState("ds:x", frozenset({R1}))
        taus = []
        for step in range(6):
            inbound = events[step] if step < len(events) else []
            state, _ = sender_step(state, inbound, chunks)
            taus.append(state.tau)
        assert taus[0] == 0          # clamped at zero
        assert taus[1] == 2
        assert taus[2] == 1
        # tau equals the clamped fold of the throttle events in order
        fold = 0
        for batch in events:
            for msg in batch:
                if isinstance(msg, ThrottleDownMsg):
                    fold += 1
                elif isinstance(msg, ThrottleUpMsg):
                    fold = max(0, fold - 1)
        assert state.tau == fold
        assert state.throttle_up_seen == 2 and state.throttle_down_seen == 2

    def test_error_aborts_but_finished_still_sent(self):
        chunks = split_chunks(bytes(10), 1)
        scripted = {0: [ReadyMsg("ds:x", R1)], 4: [ErrorMsg("ds:x", R1)]}
        state, trace = drive_sender(chunks, {R1}, scripted)
        data = [m.sequence for m in trace if isinstance(m, DataMsg)]
        assert max(data) <= 4
        assert state.aborted
        assert any(isinstance(m, FinishedMsg) for m in trace)

    def test_empty_payload_finished_minus_one(self):
        state, trace = drive_sender([], {R1}, {0: [ReadyMsg("ds:x", R1)]})
        fins = [m for m in trace if isinstance(m, FinishedMsg)]
        assert fins and fins[0].last_sequence == -1
        assert not any(isinstance(m, DataMsg) for m in trace)


def test_steps_update_the_state_they_are_given():
    chunks = split_chunks(b"abc", 1)
    sender = SenderState("ds:x", frozenset({R1}))
    for inbound in ([ReadyMsg("ds:x", R1)], [ThrottleDownMsg("ds:x", R1)], [], [], []):
        state, _ = sender_step(sender, inbound, chunks)
        assert state is sender
    assert sender.finished_sent and sender.tau == 1
    receiver = ReceiverState("ds:x", R1, max_chunks=3)
    queue = [DataMsg("ds:x", i, b) for i, b in enumerate((b"a", b"b", b"c"))]
    queue.append(FinishedMsg("ds:x", 2))
    for now in range(4):
        state, _, queue = receiver_step(receiver, queue, now)
        assert state is receiver
    assert receiver.done and receiver.received == {0: b"a", 1: b"b", 2: b"c"}


class TestReceiverStep:
    def test_sends_ready_first(self):
        state = ReceiverState("ds:x", R1, max_chunks=4)
        state, out, queue = receiver_step(state, [], 0)
        assert out == [ReadyMsg("ds:x", R1)]

    def test_gap_triggers_resend_request(self):
        state = ReceiverState("ds:x", R1, max_chunks=8, ready_sent=True)
        state, out, _ = receiver_step(state, [DataMsg("ds:x", 0, b"a")], 0)
        state, out, _ = receiver_step(state, [DataMsg("ds:x", 3, b"d")], 1)
        req = [m for m in out if isinstance(m, ResendRequestMsg)]
        assert req and req[0].sequences == (1, 2)

    def test_oversized_chunk_rejected_with_error(self):
        state = ReceiverState("ds:x", R1, max_chunks=8, chunk_size=2, ready_sent=True)
        state, out, _ = receiver_step(state, [DataMsg("ds:x", 0, b"toolong")], 0)
        assert state.failed
        assert any(isinstance(m, ErrorMsg) for m in out)

    def test_out_of_range_sequence_rejected(self):
        state = ReceiverState("ds:x", R1, max_chunks=2, ready_sent=True)
        state, out, _ = receiver_step(state, [DataMsg("ds:x", 9, b"x")], 0)
        assert state.failed and any(isinstance(m, ErrorMsg) for m in out)

    def test_out_of_range_sequence_scans_no_gaps(self):
        """The sequence is checked before the gap scan, so a peer cannot
        make the receiver list every sequence below a huge one."""
        state = ReceiverState("ds:x", R1, max_chunks=2, ready_sent=True)
        state, out, _ = receiver_step(state, [DataMsg("ds:x", 10**6, b"x")], 0)
        assert out == [ErrorMsg("ds:x", R1)]

    def test_queue_depth_throttling(self):
        state = ReceiverState("ds:x", R1, max_chunks=64, ready_sent=True)
        queue = [DataMsg("ds:x", i, b"x") for i in range(8)]
        state, out, queue = receiver_step(state, queue, 0)
        assert any(isinstance(m, ThrottleDownMsg) for m in out)
        while len(queue) > 1:
            state, out, queue = receiver_step(state, queue, 0)
        state, out, queue = receiver_step(state, queue, 0)
        assert any(isinstance(m, ThrottleUpMsg) for m in out)

    def test_duplicates_ignored(self):
        state = ReceiverState("ds:x", R1, max_chunks=4, ready_sent=True)
        state, _, _ = receiver_step(state, [DataMsg("ds:x", 0, b"a")], 0)
        state, _, _ = receiver_step(state, [DataMsg("ds:x", 0, b"a")], 1)
        assert state.received == {0: b"a"}

    def test_finished_with_gaps_retries_then_fails(self):
        state = ReceiverState("ds:x", R1, max_chunks=4, ready_sent=True)
        state, _, _ = receiver_step(state, [DataMsg("ds:x", 0, b"a")], 0)
        state, out, _ = receiver_step(state, [FinishedMsg("ds:x", 2)], 10)
        rounds = 0
        t = 10
        while not state.failed and rounds < 20:
            t += 150
            state, out, _ = receiver_step(state, [], t)
            rounds += 1
            if any(isinstance(m, ResendRequestMsg) for m in out):
                continue
        assert state.failed
        assert state.retry_rounds == 5

    def test_complete_after_finished(self):
        state = ReceiverState("ds:x", R1, max_chunks=3, ready_sent=True)
        for i, b in enumerate((b"a", b"b", b"c")):
            state, _, _ = receiver_step(state, [DataMsg("ds:x", i, b)], i)
        state, _, _ = receiver_step(state, [FinishedMsg("ds:x", 2)], 5)
        assert state.done and assemble_payload(state) == b"abc"

    def test_one_chunk_payload_is_its_chunk(self):
        """Finished names sequence 0, which must not read as no sequence."""
        state = ReceiverState("ds:x", R1, max_chunks=1, ready_sent=True)
        state, _, _ = receiver_step(state, [DataMsg("ds:x", 0, b"a")], 0)
        state, _, _ = receiver_step(state, [FinishedMsg("ds:x", 0)], 5)
        assert state.done and assemble_payload(state) == b"a"

    def test_empty_payload_commits_zero_bytes(self):
        state = ReceiverState("ds:x", R1, max_chunks=0, ready_sent=True)
        state, _, _ = receiver_step(state, [FinishedMsg("ds:x", -1)], 0)
        assert state.done and assemble_payload(state) == b""

    @pytest.mark.parametrize("last, kept", [
        (63, 63), (64, None), (70_000, None), (2_000_000, None), (-2, None)])
    def test_finished_outside_the_transfer_is_ignored(self, last, kept):
        """An end past the last chunk would make the retry list every
        sequence up to it; an end below -1 would complete the transfer
        with nothing."""
        state = ReceiverState("urn:d", R1, max_chunks=64, ready_sent=True)
        state, out, _ = receiver_step(state, [DataMsg("urn:d", 0, b"a")], 0)
        state, more, _ = receiver_step(state, [FinishedMsg("urn:d", last)], 10)
        out += more
        state, more, _ = receiver_step(state, [], 200)
        out += more
        assert state.last_sequence == kept and not state.done and not state.failed
        assert all(encode_frame(m) for m in out)
        resends = {m.sequences for m in out if isinstance(m, ResendRequestMsg)}
        assert resends == ({tuple(range(1, 64))} if kept else set())

    def test_retry_asks_for_at_most_what_one_request_counts(self):
        """A resend request counts its sequences in two bytes, so a retry
        over more missing chunks asks for the lowest that fit."""
        state = ReceiverState("ds:x", R1, max_chunks=70_000, chunk_size=1, ready_sent=True)
        queue = [DataMsg("ds:x", 0, b"a"), FinishedMsg("ds:x", 69_999)]
        state, out, _ = receiver_step(state, queue, 0)
        state, more, _ = receiver_step(state, [], 1_000)
        out += more
        assert all(encode_frame(m) for m in out)
        resends = [m.sequences for m in out if isinstance(m, ResendRequestMsg)]
        assert resends == [tuple(range(1, MAX_WANTED + 1))]

    def test_gap_request_asks_for_at_most_what_one_request_counts(self):
        state = ReceiverState("ds:x", R1, max_chunks=70_000, chunk_size=1, ready_sent=True)
        state, out, _ = receiver_step(state, [DataMsg("ds:x", 69_999, b"z")], 0)
        assert all(encode_frame(m) for m in out)
        resends = [m.sequences for m in out if isinstance(m, ResendRequestMsg)]
        assert resends == [tuple(range(MAX_WANTED))]


class TestPlanTransfer:
    A = AgentId(b"\x01" * 16, "a")
    B = AgentId(b"\x02" * 16, "b")
    C = AgentId(b"\x03" * 16, "c")

    def test_single_holder(self):
        sender, receivers = plan_transfer([self.B], receivers=[self.A])
        assert sender == self.B and receivers == (self.A,)

    def test_tie_breaks_on_lowest_uuid(self):
        crit = {self.A.uuid: (10.0, 1.0), self.B.uuid: (10.0, 1.0)}
        sender, _ = plan_transfer([self.B, self.A], crit)
        assert sender == self.A

    def test_no_holder(self):
        with pytest.raises(NoHolder):
            plan_transfer([])

    def test_payload_missing_guard(self, tmp_path):
        from graphsync.datasets import PayloadStore

        store = PayloadStore(tmp_path)
        with pytest.raises(PayloadMissing):
            payload_for_send(store, "ds:absent")
        store.commit("ds:here", "t", b"xyz")
        assert payload_for_send(store, "ds:here") == b"xyz"

    def test_against_argmax_oracle(self):
        rng = random.Random(5)
        agents = [AgentId(bytes([i]) * 16, f"h{i}") for i in range(1, 6)]
        for _ in range(100):
            crit = {a.uuid: (rng.randrange(5), rng.randrange(3)) for a in agents}
            sender, _ = plan_transfer(agents, crit)
            best = max(
                agents,
                key=lambda a: (crit[a.uuid][0], -crit[a.uuid][1],
                               tuple(-b for b in a.uuid)),
            )
            assert sender == best


def wire_sessions(sim, payload, receiver_names, chunk_size=1024, seed=0):
    """Register a sender endpoint plus one receiver endpoint per name;
    returns (sender_session, {name: (session, sink)})."""
    chunks = split_chunks(payload, chunk_size)
    uuids = {name: hashlib.md5(name.encode()).digest() for name in receiver_names}

    sessions = {}
    sink: dict[str, list] = {name: [] for name in receiver_names}
    failures: dict[str, bool] = {name: False for name in receiver_names}

    def receiver_endpoint(name):
        def on_frame(src, frame, now):
            sessions[name].on_msg(decode_frame(frame), now)
        return on_frame

    def sender_endpoint(src, frame, now):
        sender.on_msg(decode_frame(frame), now)

    sim.register("sender", sender_endpoint)
    for name in receiver_names:
        sim.register(name, receiver_endpoint(name))

    sender = SenderSession(
        "ds:x", payload, set(uuids.values()),
        send=lambda m: sim.send(encode_frame(m), "sender"),
        schedule=sim.call_later, chunk_size=chunk_size,
    )
    for name in receiver_names:
        sessions[name] = ReceiverSession(
            "ds:x", uuids[name], max_chunks=len(chunks) or 1,
            send=lambda m, n=name: sim.send(encode_frame(m), n),
            schedule=sim.call_later,
            commit=lambda data, n=name: sink[n].append(data),
            abort=lambda n=name: failures.__setitem__(n, True),
            chunk_size=chunk_size,
        )
    return sender, sessions, sink, failures


class TestEndToEnd:
    def test_lossy_duplicated_reordered_transfer(self):
        rng = random.Random(1234)
        payload = rng.randbytes(100 * 257)
        sim = NetworkSim(99, policy=LinkPolicy(("uniform", 1, 10), loss=0.2,
                                               duplication=0.05, reorder=0.1))
        sender, sessions, sink, failures = wire_sessions(sim, payload, ["r1", "r2", "r3"],
                                                         chunk_size=257)
        sim.advance(60_000)
        for name in ("r1", "r2", "r3"):
            assert not failures[name]
            assert sink[name] and sink[name][0] == payload

    def test_multi_receiver_identical_bytes(self):
        payload = bytes(range(256)) * 64
        sim = NetworkSim(5, policy=LinkPolicy(("fixed", 3)))
        _, _, sink, failures = wire_sessions(sim, payload, ["r1", "r2"], chunk_size=512)
        sim.advance(20_000)
        digests = {hashlib.sha256(sink[n][0]).digest() for n in ("r1", "r2")}
        assert len(digests) == 1 and not any(failures.values())

    def test_blocked_receiver_aborts_without_partial(self):
        payload = bytes(1000)
        sim = NetworkSim(7, policy=LinkPolicy(("fixed", 3)))
        sim.block_pair("sender", "r1", 0, 10**9)
        _, _, sink, failures = wire_sessions(sim, payload, ["r1"], chunk_size=100)
        sim.advance(60_000)
        assert failures["r1"] and sink["r1"] == []

    def test_stray_out_of_range_ends_leave_the_transfer_whole(self):
        """An endpoint outside the transfer sends an end far past the
        last chunk every 10 ms; every receiver still commits the payload."""
        payload = random.Random(5).randbytes(64 * 4096)
        sim = NetworkSim(5, policy=LinkPolicy(("uniform", 1, 10), loss=0.2))
        names = ["r0", "r1", "r2"]
        outcomes = {}
        experiments._wire_transfer(
            sim, "urn:d", payload, 4096, "sender",
            {n: hashlib.md5(n.encode()).digest() for n in names},
            outcomes.__setitem__, lambda n: outcomes.__setitem__(n, None),
            experiments._endpoint_attach(sim))

        def stray(now):
            sim.send(encode_frame(FinishedMsg("urn:d", 70_000)), "mallory")
            sim.call_later(10, stray)

        sim.register("mallory", lambda src, frame, now: None)
        sim.call_at(0, stray)
        sim.advance(20_000)
        assert outcomes == {n: payload for n in names}


class CountingDict(dict):
    """A dict that counts membership tests."""

    lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


class TestReceiverCost:
    @pytest.mark.parametrize("n_chunks", [256, 512])
    def test_membership_tests_linear_in_chunks(self, n_chunks):
        """The gap and completion checks look each chunk up a bounded
        number of times, not once per step for every chunk below it."""
        payload = random.Random(n_chunks).randbytes(n_chunks * 64)
        sim = NetworkSim(1, policy=LinkPolicy(("uniform", 1, 10), loss=0.2,
                                              duplication=0.05, reorder=0.1))
        _, sessions, sink, failures = wire_sessions(sim, payload, ["r1", "r2", "r3"],
                                                    chunk_size=64)
        for session in sessions.values():
            session.state.received = CountingDict()
        sim.advance(60_000)
        assert all(sink[n] == [payload] and not failures[n] for n in sessions)
        lookups = sum(session.state.received.lookups for session in sessions.values())
        assert lookups <= 16 * n_chunks * len(sessions)


def sha16(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def lossy_world(seed):
    """One transfer-fuzz world with 4 KiB chunks: 64 chunks to 3
    receivers over the 20 % loss link.  Returns the sha256 prefixes of
    the frame log, the sender's tau trace and each receiver's outcome
    (status, simulated ms and payload digest)."""
    payload = random.Random(seed).randbytes(64 * 4096)
    sim = NetworkSim(seed, policy=LinkPolicy(
        ("uniform", 1, 10), loss=experiments.FUZZ_LOSS,
        duplication=experiments.FUZZ_DUPLICATION, reorder=experiments.FUZZ_REORDER))
    names = [f"r{i}" for i in range(experiments.FUZZ_RECEIVERS)]
    outcomes = {}
    sender = experiments._wire_transfer(
        sim, "ds:fuzz", payload, 4096, "sender",
        {n: hashlib.md5(n.encode()).digest() for n in names},
        lambda n, data: outcomes.__setitem__(
            n, ("committed", sim.clock(), hashlib.sha256(data).hexdigest())),
        lambda n: outcomes.__setitem__(n, ("aborted", sim.clock())),
        experiments._endpoint_attach(sim),
    )
    sim.advance(120_000)
    assert len(sender.chunks) == 64
    assert [outcomes[n][0] for n in names] == ["committed"] * len(names)
    assert {outcomes[n][2] for n in names} == {hashlib.sha256(payload).hexdigest()}
    return (sha16(sim.event_log), sha16(sender.tau_trace),
            {n: sha16(outcomes[n]) for n in names})


class TestLossyTrace:
    """The whole frame trace of a lossy transfer is pinned, so a change
    to the step functions that keeps only the end results still fails."""

    def test_frame_trace_pinned(self):
        assert lossy_world(3) == (
            "f2f3649ff0d2c8ac", "5e0c23ce525eec99",
            {"r0": "59c2cf578b01fd72", "r1": "1356fdcc2d096ff6", "r2": "329a31fb54bce138"},
        )
