"""By-need bulk payload exchange: one sender, N receivers.

The protocol logic lives in two step functions, each of which updates
a plain state object in place and returns it, so the protocol can be
tested without a network; thin session wrappers drive the steps from
the simulator clock.  Chunks are numbered densely from zero; receivers
detect gaps from the sequence numbers, request resends, and steer the
sender's inter-chunk delay with throttle messages (delay level tau,
10 ms per level, never negative).  A transfer either commits the exact
payload bytes or aborts leaving nothing behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Mapping, Optional

from .wire import (
    MAX_WANTED,
    AgentId,
    DataMsg,
    ErrorMsg,
    FinishedMsg,
    ReadyMsg,
    ResendRequestMsg,
    ThrottleDownMsg,
    ThrottleUpMsg,
)

CHUNK_SIZE = 64 * 1024
TAU_UNIT_MS = 10
QUEUE_HIGH_WATER = 5
RETRY_ROUNDS = 5
RETRY_INTERVAL_MS = 100
LINGER_STEPS = 20


class PayloadMissing(LookupError):
    pass


class NoHolder(LookupError):
    pass


def split_chunks(data: bytes, chunk_size: int = CHUNK_SIZE) -> list[bytes]:
    if not data:
        return []
    return [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]


def payload_for_send(store, dataset_uri: str) -> bytes:
    """The Send role's precondition: the dataset must be held locally."""
    if not store.has(dataset_uri):
        raise PayloadMissing(dataset_uri)
    return store.load(dataset_uri).data()


# ---------------------------------------------------------------------------
# Sender (one per transfer)
# ---------------------------------------------------------------------------


@dataclass
class SenderState:
    dataset: str
    receivers: frozenset[bytes]
    ready_seen: frozenset[bytes] = frozenset()
    streaming: bool = False
    next_sequence: int = 0
    tau: int = 0
    finished: bool = False
    aborted: bool = False
    throttle_up_seen: int = 0
    throttle_down_seen: int = 0

    @property
    def finished_sent(self) -> bool:
        """Finished went out: every step that ends finished and streaming sends it."""
        return self.finished and self.streaming


def sender_step(state: SenderState, inbound: Iterable, chunks: list[bytes]):
    """One protocol iteration: drain control traffic (resends answered
    before the next fresh chunk), then stream one chunk or finish.
    Updates state in place; returns (state, outbound)."""
    out = []
    for msg in inbound:
        if isinstance(msg, ReadyMsg):
            state.ready_seen |= {msg.receiver}
        elif isinstance(msg, ResendRequestMsg) and msg.requester in state.receivers:
            # each distinct sequence once: a request that repeats one
            # cannot make a step send that chunk again and again; a
            # requester outside the transfer is not answered at all
            for seq in dict.fromkeys(msg.sequences):
                if 0 <= seq < len(chunks):
                    out.append(DataMsg(state.dataset, seq, chunks[seq]))
        elif isinstance(msg, ThrottleUpMsg):
            state.tau = max(0, state.tau - 1)
            state.throttle_up_seen += 1
        elif isinstance(msg, ThrottleDownMsg):
            state.tau += 1
            state.throttle_down_seen += 1
        elif isinstance(msg, ErrorMsg):
            state.aborted = True

    state.streaming = state.streaming or state.ready_seen >= state.receivers
    if state.streaming and not state.finished and not state.aborted:
        if state.next_sequence >= len(chunks):
            state.finished = True
        else:
            out.append(DataMsg(state.dataset, state.next_sequence, chunks[state.next_sequence]))
            state.next_sequence += 1
    if state.aborted:
        state.finished = True
    if state.finished_sent:
        # re-emitted on every later step so a lost Finished cannot strand
        # a receiver; receivers ignore duplicates
        out.append(FinishedMsg(state.dataset, len(chunks) - 1))
    return state, out


# ---------------------------------------------------------------------------
# Receiver (one per receiving agent)
# ---------------------------------------------------------------------------


@dataclass
class ReceiverState:
    dataset: str
    uuid: bytes
    max_chunks: int
    chunk_size: int = CHUNK_SIZE
    ready_sent: bool = False
    received: dict[int, bytes] = field(default_factory=dict)  # seq -> chunk
    first_missing: int = field(default=0, init=False)  # every lower seq is held
    max_seen: int = -1
    last_sequence: Optional[int] = None
    retry_rounds: int = 0
    last_retry_at: int = -(10**9)
    last_gap_request_at: int = -(10**9)
    failed: bool = False
    done: bool = False


def receiver_step(state: ReceiverState, queue: list, now: int):
    """Process one data message plus all control traffic.  Updates state
    in place; returns (state, outbound, leftover_queue).  Callers keep
    feeding the leftover queue back in; its length is the reception
    queue depth that drives throttling."""
    out = []
    if state.failed or state.done:
        return state, out, []

    if not state.ready_sent:
        out.append(ReadyMsg(state.dataset, state.uuid))
        state.ready_sent = True
        state.last_retry_at = now
    elif (
        state.max_seen < 0
        and state.last_sequence is None
        and not queue
        and now - state.last_retry_at >= RETRY_INTERVAL_MS
    ):
        # nothing heard yet: the Ready may have been lost, repeat it
        out.append(ReadyMsg(state.dataset, state.uuid))
        state.last_retry_at = now

    control, data_queue = [], []
    for msg in queue:
        (data_queue if isinstance(msg, DataMsg) else control).append(msg)

    for msg in control:
        if isinstance(msg, ErrorMsg):
            state.failed = True
        elif isinstance(msg, FinishedMsg) and -1 <= msg.last_sequence < state.max_chunks:
            # an end outside the transfer is ignored, not fatal: no honest
            # sender sends one, and a stray frame must not abort the transfer
            state.last_sequence = msg.last_sequence
            # renewed contact with the sender: the abort countdown only
            # measures consecutive unanswered retry rounds
            state.retry_rounds = 0

    received = state.received
    took_data = False
    if data_queue and not state.failed:
        msg = data_queue.pop(0)
        took_data = True
        if len(msg.data) > state.chunk_size or not (0 <= msg.sequence < max(state.max_chunks, 1)):
            out.append(ErrorMsg(state.dataset, state.uuid))
            state.failed = True
        else:
            if msg.sequence not in received:
                received[msg.sequence] = msg.data
                state.retry_rounds = 0
                while state.first_missing in received:
                    state.first_missing += 1
            state.max_seen = max(state.max_seen, msg.sequence)
            # max_seen is held, so a gap below it exists iff first_missing < max_seen
            if (state.first_missing < state.max_seen
                    and now - state.last_gap_request_at >= RETRY_INTERVAL_MS):
                gaps = _missing(received, state.first_missing, state.max_seen)
                out.append(ResendRequestMsg(state.dataset, state.uuid, gaps))
                state.last_gap_request_at = now
            depth = len(data_queue)
            if depth > QUEUE_HIGH_WATER:
                out.append(ThrottleDownMsg(state.dataset, state.uuid))
            elif depth == 0:
                out.append(ThrottleUpMsg(state.dataset, state.uuid))

    if not state.failed and state.last_sequence is not None:
        last = state.last_sequence
        if state.first_missing > last:
            state.done = True
        elif not took_data and now - state.last_retry_at >= RETRY_INTERVAL_MS:
            if state.retry_rounds >= RETRY_ROUNDS:
                state.failed = True
            else:
                missing = _missing(received, state.first_missing, last + 1)
                out.append(ResendRequestMsg(state.dataset, state.uuid, missing))
                state.retry_rounds += 1
                state.last_retry_at = now
    return state, out, data_queue


def _missing(received: dict, start: int, stop: int) -> tuple[int, ...]:
    """The lowest sequences in [start, stop) not received, as many as one
    resend request can count; a later round asks for the rest."""
    return tuple(islice((s for s in range(start, stop) if s not in received), MAX_WANTED))


def assemble_payload(state: ReceiverState) -> bytes:
    if not state.done:
        raise ValueError("transfer not complete")
    return b"".join(state.received[s] for s in range(state.last_sequence + 1))


# ---------------------------------------------------------------------------
# Sender selection
# ---------------------------------------------------------------------------


def plan_transfer(
    holders: Iterable[AgentId],
    criteria: Mapping[bytes, tuple[float, float]] | None = None,
    receivers: Iterable[AgentId] = (),
) -> tuple[AgentId, tuple[AgentId, ...]]:
    """Pick the sending agent: highest declared bandwidth, then lowest
    load, then lowest uuid.  Yields the two-node send/receive task pair."""
    holders = sorted(holders, key=lambda a: a.uuid)
    if not holders:
        raise NoHolder("no agent holds the payload")
    criteria = criteria or {}

    def score(agent: AgentId):
        bandwidth, load = criteria.get(agent.uuid, (0.0, 0.0))
        return (-bandwidth, load, agent.uuid)

    sender = min(holders, key=score)
    return sender, tuple(receivers)


# ---------------------------------------------------------------------------
# Simulator-driven sessions
# ---------------------------------------------------------------------------


class SenderSession:
    """Drives sender_step on the simulator clock.  The iteration period
    is 1 ms plus tau sleep units; after Finished the session lingers,
    re-answering resend requests, for LINGER_STEPS slow steps.  Giving
    up on receivers that never report Ready bounds the session."""

    WAIT_READY_TIMEOUT_MS = 10_000

    def __init__(self, dataset: str, payload: bytes, receivers, send, schedule,
                 chunk_size: int = CHUNK_SIZE):
        self.chunks = split_chunks(payload, chunk_size)
        self.state = SenderState(dataset, frozenset(receivers))
        self.inbound: list = []
        self.send = send
        self.schedule = schedule
        self.linger_left = LINGER_STEPS
        self.closed = False
        self.started_at: Optional[int] = None
        self.tau_trace: list[int] = []
        self.schedule(0, self._step)

    def on_msg(self, msg, now: int) -> None:
        self.inbound.append(msg)

    def _step(self, now: int) -> None:
        if self.closed:
            return
        if self.started_at is None:
            self.started_at = now
        inbound, self.inbound = self.inbound, []
        self.state, out = sender_step(self.state, inbound, self.chunks)
        self.tau_trace.append(self.state.tau)
        for msg in out:
            self.send(msg)
        if not self.state.streaming and now - self.started_at > self.WAIT_READY_TIMEOUT_MS:
            self.closed = True
            return
        if self.state.finished_sent:
            self.linger_left -= 1
            if self.linger_left <= 0:
                self.closed = True
                return
            self.schedule(RETRY_INTERVAL_MS, self._step)
        else:
            self.schedule(1 + self.state.tau * TAU_UNIT_MS, self._step)


class ReceiverSession:
    """Drives receiver_step; commits via commit(bytes) on success or
    abort() on failure, exactly once.  A silent link (nothing heard for
    IDLE_TIMEOUT_MS) also counts as failure."""

    STEP_MS = 1
    IDLE_TIMEOUT_MS = 5000

    def __init__(self, dataset: str, uuid: bytes, max_chunks: int, send, schedule,
                 commit: Callable[[bytes], None], abort: Callable[[], None],
                 chunk_size: int = CHUNK_SIZE):
        self.state = ReceiverState(dataset, uuid, max_chunks, chunk_size)
        self.queue: list = []
        self.send = send
        self.schedule = schedule
        self.commit = commit
        self.abort = abort
        self.finalized = False
        self.last_heard: Optional[int] = None
        self.schedule(0, self._step)

    def on_msg(self, msg, now: int) -> None:
        self.queue.append(msg)
        self.last_heard = now

    def _step(self, now: int) -> None:
        if self.finalized:
            return
        if self.last_heard is None:
            self.last_heard = now
        self.state, out, self.queue = receiver_step(self.state, self.queue, now)
        for msg in out:
            self.send(msg)
        if self.state.done:
            self.finalized = True
            self.commit(assemble_payload(self.state))
            return
        if self.state.failed or now - self.last_heard > self.IDLE_TIMEOUT_MS:
            self.finalized = True
            self.abort()
            return
        self.schedule(self.STEP_MS, self._step)
