"""Deterministic discrete-event network with lossy, reordering links.

The simulator owns the clock (integer simulated milliseconds) and a
seeded RNG; a (seed, scenario) pair fully determines the event log.
Frames between agents suffer configurable latency, loss, duplication
and reordering; group partitions cut inter-group links over scheduled
windows.  Agent logic runs as cooperative callbacks on a single thread.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .wire import KIND_NAMES


@dataclass(frozen=True)
class LinkPolicy:
    """Per-frame link behaviour.  latency is ("fixed", ms) with ms >= 0
    or ("uniform", lo_ms, hi_ms) with 0 <= lo_ms <= hi_ms, all ints;
    probabilities are in [0, 1]."""

    latency: tuple = ("fixed", 5)
    loss: float = 0.0
    duplication: float = 0.0
    reorder: float = 0.0

    def __post_init__(self):
        for p in (self.loss, self.duplication, self.reorder):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be within [0, 1]")
        kind, *bounds = self.latency
        if kind not in ("fixed", "uniform"):
            raise ValueError(f"unknown latency distribution {kind!r}")
        if (
            len(bounds) != (1 if kind == "fixed" else 2)
            or not all(isinstance(ms, int) for ms in bounds)
            or not 0 <= bounds[0] <= bounds[-1]
        ):
            raise ValueError(f"latency {self.latency!r} cannot be drawn")

    def draw_latency(self, rng: random.Random) -> int:
        latency = self.latency
        if latency[0] == "fixed":
            return latency[1]
        # rng.randint(lo, hi) bit for bit: the getrandbits rejection
        # loop of Random._randbelow, without randint's call chain
        lo = latency[1]
        n = latency[2] - lo + 1
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return lo + r


# the memo of decode cells holds at most this many per registered endpoint
_CELLS_PER_ENDPOINT = 4

# the event-log label of each kind byte; 0 is no kind, and stands for an
# empty frame
_KIND_LABELS = tuple(KIND_NAMES.get(k, "?") for k in range(256))


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # the empty last field's ",\r\n"


class EventLog(Sequence):
    """The deliveries of a `NetworkSim`, one row per delivered copy,
    read as a sequence of ``(time, src, dst, kind, size)`` tuples with
    the kind as its `wire.KIND_NAMES` label ("?" for an empty frame or
    an unknown kind byte).

    The rows are kept in `array` columns: the time, the source and
    destination ids, the raw kind byte (0 for an empty frame) and the
    size, about 25 bytes a row where a tuple per row costs over 90.
    ``names`` maps each id back to its endpoint name.  `NetworkSim.advance`
    appends to the columns itself; indexing, slicing and iteration build
    the tuples as they are read, a slice as a list of them."""

    __slots__ = ("time", "src", "dst", "kind", "size", "names", "ids")

    def __init__(self):
        self.time = array("Q")
        self.src = array("I")
        self.dst = array("I")
        self.kind = array("B")
        self.size = array("Q")
        self.names: list[str] = []
        # endpoint name -> its id, the index of the name in names
        self.ids: dict[str, int] = {}

    def add_name(self, name: str) -> None:
        """Give `name` the next id, unless it has one."""
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        names = self.names
        return (self.time[index], names[self.src[index]], names[self.dst[index]],
                _KIND_LABELS[self.kind[index]], self.size[index])

    def __iter__(self):
        name = self.names.__getitem__
        return zip(self.time, map(name, self.src), map(name, self.dst),
                   map(_KIND_LABELS.__getitem__, self.kind), self.size)

    def __eq__(self, other):
        if isinstance(other, (list, EventLog)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class Topology:
    """Group partition of the agents (a name not listed is in group 0);
    links within a group are always up, links across groups obey the
    disconnection schedules."""

    groups: dict[str, int] = field(default_factory=dict)


class NetworkSim:
    """The event loop of one simulated world.

    Events are queued in buckets, one list per due millisecond, in the
    order they were scheduled, with a heap of the distinct due times
    (a calendar queue in the manner of Brown, CACM 1988): a delivery
    costs one list append, not a heap entry.  `advance` drains the
    earliest bucket from front to back, and an event scheduled for the
    current millisecond while it does so joins the end of that bucket,
    so events run in (time, insertion) order, exactly as a heap of
    (time, sequence number) would run them.

    Whether a link is up is answered from state, not from a scan of the
    schedules.  Every partition and group-offline window edge splits the
    timeline into spans on which the group state (partition up or not,
    the set of offline groups) is constant; `connected` keeps the state
    of the span holding the last queried time and recomputes it only
    when asked about a time outside it, so queries may come at any time,
    in any order.  `set_partition` and `set_group_offline` invalidate
    it.  Group membership is read from ``topology.groups`` on each call.
    Pair blocks are checked per pair, and only when there are any.
    `send` and `advance` ask `connected` only about a pair that spans
    two groups or while any pair is blocked, and not at all at a time
    inside the last span found to have every group up and no pair
    blocked.  The sorted broadcast targets of each sender are built on
    its first broadcast and dropped by `register`.

    A frame is decoded at most once for all the copies of every send
    that carries its bytes, while its cell stays in a memo: all the
    copies queue one ``[frame, message]`` cell, the first receiver that
    asks `decoded` for the message fills it, and every other receiver,
    duplicated copies and later sends of equal bytes included, gets the
    same message object.  That is safe because wire messages and
    revisions are frozen, and each receiver keeps whether a revision is
    local in its own graph.  Frames are hashable `bytes`, and the memo
    is keyed by them: `send` looks each frame up once, and on a miss
    adds a fresh cell and evicts the oldest one, first in first out,
    once the memo holds more than 4 cells per registered endpoint (room
    for each endpoint's current status and a few frames in flight).  A
    periodic status or a re-broadcast revision is thus decoded once
    while it repeats, and a flood of distinct frames keeps no more than
    that bound.  Every copy delivers the frame object of its cell, equal
    in bytes to the one sent.  An evicted cell lives as long as its
    queued copies.

    Each delivery is logged in ``event_log``, an `EventLog` of `array`
    columns that `advance` appends to inline, with no call per delivery
    beyond the appends; `register` gives each endpoint its id there.
    `write_event_log` streams the rows to the file.
    """

    def __init__(
        self,
        seed: int,
        policy: LinkPolicy | None = None,
        topology: Topology | None = None,
    ):
        self.rng = random.Random(seed)
        self.policy = policy or LinkPolicy()
        self.topology = topology or Topology()
        self._now = 0
        # due time -> its events in scheduling order: a timer is its
        # callback, a delivery is (src, dst, cell), where cell is
        # [frame, decoded message or None]
        self._buckets: dict[int, list] = {}
        # the due times of the buckets, a heap
        self._due: list[int] = []
        self._endpoints: dict[str, Callable[[str, bytes, int], None]] = {}
        # sender -> every other endpoint, sorted; filled by broadcasts
        self._targets: dict[str, list[str]] = {}
        self._partition_windows: list[tuple[int, int]] = []
        self._offline_windows: dict[int, list[tuple[int, int]]] = {}
        # keyed by the pair in sorted order
        self._blocked_pairs: dict[tuple[str, str], list[tuple[int, int]]] = {}
        # group state on the span [lo, hi); an empty span forces a refresh
        self._span: tuple[float, float] = (0, 0)
        # the same span if on it every pair of endpoints is linked, else empty
        self._linked_span: tuple[float, float] = (0, 0)
        self._partition_up = False
        self._offline_now: frozenset[int] = frozenset()
        self.event_log = EventLog()
        self.dropped = 0
        # the cell of the delivery being dispatched
        self._cell: Optional[list] = None
        # frame bytes -> its decode cell, oldest first
        self._cells: dict[bytes, list] = {}

    # -- wiring ---------------------------------------------------------

    def register(self, name: str, on_frame: Callable[[str, bytes, int], None],
                 group: int = 0) -> None:
        self._endpoints[name] = on_frame
        self.event_log.add_name(name)
        self._targets.clear()
        self.topology.groups.setdefault(name, group)

    def clock(self) -> int:
        return self._now

    def call_at(self, time: int, fn: Callable[[int], None]) -> None:
        if time < self._now:
            raise ValueError("cannot schedule in the past")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [fn]
            heapq.heappush(self._due, time)
        else:
            bucket.append(fn)

    def call_later(self, delay: int, fn: Callable[[int], None]) -> None:
        self.call_at(self._now + delay, fn)

    # -- partitions -------------------------------------------------------

    def set_partition(self, windows: Iterable[tuple[int, int]]) -> None:
        """Windows during which every inter-group link is down."""
        self._partition_windows = sorted(tuple(w) for w in windows)
        self._span = self._linked_span = (0, 0)

    def set_group_offline(self, group: int, start: int, end: int) -> None:
        self._offline_windows.setdefault(group, []).append((start, end))
        self._span = self._linked_span = (0, 0)

    def block_pair(self, a: str, b: str, start: int, end: int) -> None:
        key = (a, b) if a <= b else (b, a)
        self._blocked_pairs.setdefault(key, []).append((start, end))
        self._linked_span = (0, 0)

    def _refresh_span(self, t: int) -> None:
        """Group state at t, and the span around t with no window edge
        inside it, on which that state holds."""
        # group None stands for the partition windows
        windows = [(None, w) for w in self._partition_windows]
        windows += [(g, w) for g, ws in self._offline_windows.items() for w in ws]
        edges = [edge for _, w in windows for edge in w]
        self._span = (max((e for e in edges if e <= t), default=-math.inf),
                      min((e for e in edges if e > t), default=math.inf))
        down = {group for group, (start, end) in windows if start <= t < end}
        self._partition_up = None in down
        self._offline_now = frozenset(down - {None})
        self._linked_span = (0, 0) if down or self._blocked_pairs else self._span

    def connected(self, src: str, dst: str, t: int) -> bool:
        if self._blocked_pairs:
            windows = self._blocked_pairs.get((src, dst) if src <= dst else (dst, src), ())
            if any(start <= t < end for start, end in windows):
                return False
        groups = self.topology.groups
        g_src, g_dst = groups.get(src, 0), groups.get(dst, 0)
        if g_src == g_dst:
            return True
        lo, hi = self._span
        if not lo <= t < hi:
            self._refresh_span(t)
        if self._partition_up:
            return False
        offline = self._offline_now
        return g_src not in offline and g_dst not in offline

    # -- traffic ----------------------------------------------------------

    def send(self, frame: bytes, src: str, dst: Optional[str] = None) -> list[int]:
        """Schedule deliveries of a frame; dst None broadcasts to every
        other endpoint.  Returns the scheduled delivery times."""
        if src not in self._endpoints:
            raise KeyError(f"unregistered sender {src!r}")
        if dst is not None:
            if dst not in self._endpoints:
                raise KeyError(f"unregistered destination {dst!r}")
            targets = (dst,)
        else:
            targets = self._targets.get(src)
            if targets is None:
                targets = self._targets[src] = sorted(
                    name for name in self._endpoints if name != src
                )
        rng, policy, now = self.rng, self.policy, self._now
        uniform, draw = rng.random, policy.draw_latency
        buckets, blocked = self._buckets, self._blocked_pairs
        groups = self.topology.groups
        group = groups.get(src, 0)
        lo, hi = self._linked_span
        linked = lo <= now < hi
        cells = self._cells
        cell = cells.get(frame)
        if cell is None:
            cell = cells[frame] = [frame, None]
            if len(cells) > _CELLS_PER_ENDPOINT * len(self._endpoints):
                del cells[next(iter(cells))]
        times = []
        for target in targets:
            if (not linked and (blocked or groups.get(target, 0) != group)
                    and not self.connected(src, target, now)):
                self.dropped += 1
                continue
            copies = 1
            if uniform() < policy.loss:
                copies = 0
                self.dropped += 1
            elif uniform() < policy.duplication:
                copies = 2
            event = (src, target, cell)
            for _ in range(copies):
                latency = draw(rng)
                if uniform() < policy.reorder:
                    latency += draw(rng)
                when = now + latency
                # call_at's insert, inlined, so wrappers of call_at see timers only
                bucket = buckets.get(when)
                if bucket is None:
                    buckets[when] = [event]
                    heapq.heappush(self._due, when)
                else:
                    bucket.append(event)
                times.append(when)
        return times

    def decoded(self, frame: bytes, decode: Callable[[bytes], object]):
        """The message of `frame`: decoded by `decode` once for all the
        copies that share its cell, or on every call for a frame the
        simulator is not dispatching.  A frame that fails to decode
        caches nothing."""
        cell = self._cell
        if cell is None or cell[0] is not frame:
            return decode(frame)
        if cell[1] is None:
            cell[1] = decode(frame)
        return cell[1]

    # -- event loop ---------------------------------------------------------

    def advance(self, until: int) -> None:
        """Dispatch everything scheduled up to `until` in (time,
        insertion) order.  An exception from a callback propagates; the
        events dispatched up to and including the one that raised leave
        the queue, and every later one stays queued."""
        buckets, due, blocked = self._buckets, self._due, self._blocked_pairs
        groups, endpoints = self.topology.groups, self._endpoints
        log = self.event_log
        ids = log.ids
        log_time, log_src, log_dst = log.time.append, log.src.append, log.dst.append
        log_kind, log_size = log.kind.append, log.size.append
        while due and due[0] <= until:
            time = self._now = due[0]
            bucket = buckets[time]
            done = 0
            try:
                # the loop also reaches what callbacks append to bucket
                for done, event in enumerate(bucket, 1):
                    if event.__class__ is not tuple:
                        event(time)
                        continue
                    src, dst, cell = event
                    # re-read: a callback may have changed the schedules
                    lo, hi = self._linked_span
                    if (not lo <= time < hi
                            and (blocked or groups.get(src, 0) != groups.get(dst, 0))
                            and not self.connected(src, dst, time)):
                        self.dropped += 1
                        continue
                    frame = cell[0]
                    log_time(time)
                    log_src(ids[src])
                    log_dst(ids[dst])
                    log_kind(frame[0] if frame else 0)
                    log_size(len(frame))
                    self._cell = cell
                    endpoints[dst](src, frame, time)
            except BaseException:
                del bucket[:done]
                raise
            del buckets[time]
            heapq.heappop(due)
        self._cell = None
        self._now = until

    def write_event_log(self, path) -> None:
        """Write the event log as `csv.writer` writes its rows, under a
        header row.  Each endpoint name is escaped once, by `csv` itself,
        and the rows are written as they are formatted, not joined first."""
        log = self.event_log
        names = [_csv_field(name) for name in log.names]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["time_ms", "src", "dst", "kind", "size"])
            fh.writelines(
                f"{t},{names[s]},{names[d]},{_KIND_LABELS[k]},{z}\r\n"
                for t, s, d, k, z in zip(log.time, log.src, log.dst, log.kind, log.size)
            )


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


@dataclass
class EditEvent:
    agent: str
    document: str
    time: int
    changes: int


@dataclass
class TransferRequest:
    sender: str
    receivers: list[str]
    dataset: str
    time: int
    chunk_size: int
    total_bytes: int


@dataclass
class Scenario:
    seed: int = 0
    agents: list[str] = field(default_factory=list)
    groups: dict[str, int] = field(default_factory=dict)
    policy: LinkPolicy = field(default_factory=LinkPolicy)
    status_period: int = 1000
    partitions: list[tuple[int, int]] = field(default_factory=list)
    offline: list[tuple[int, int, int]] = field(default_factory=list)
    blocks: list[tuple[str, str, int, int]] = field(default_factory=list)
    edits: list[EditEvent] = field(default_factory=list)
    transfers: list[TransferRequest] = field(default_factory=list)
    run_until: int = 60_000


class ScenarioError(ValueError):
    pass


def parse_scenario(text: str) -> Scenario:
    """Line-oriented key/value scenario description; '#' starts a
    comment.  See README for the full grammar."""
    sc = Scenario()
    latency: tuple = ("fixed", 5)
    loss = dup = reorder = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            if key == "seed":
                sc.seed = int(args[0])
            elif key == "agent":
                name = args[0]
                group = int(args[2]) if len(args) >= 3 and args[1] == "group" else 0
                sc.agents.append(name)
                sc.groups[name] = group
            elif key == "latency":
                if args[0] == "fixed":
                    latency = ("fixed", int(args[1]))
                elif args[0] == "uniform":
                    latency = ("uniform", int(args[1]), int(args[2]))
                else:
                    raise ScenarioError(f"line {lineno}: bad latency {args[0]!r}")
            elif key == "loss":
                loss = float(args[0])
            elif key == "duplication":
                dup = float(args[0])
            elif key == "reorder":
                reorder = float(args[0])
            elif key == "status-period":
                sc.status_period = int(args[0])
                if sc.status_period <= 0:
                    raise ScenarioError(f"line {lineno}: status-period must be positive")
            elif key == "partition":
                sc.partitions.append((int(args[0]), int(args[1])))
            elif key == "offline":
                sc.offline.append((int(args[0]), int(args[1]), int(args[2])))
            elif key == "block":
                sc.blocks.append((args[0], args[1], int(args[2]), int(args[3])))
            elif key == "edit":
                sc.edits.append(EditEvent(args[0], args[1], int(args[2]), int(args[3])))
            elif key == "transfer":
                sc.transfers.append(
                    TransferRequest(
                        args[0], args[1].split(","), args[2], int(args[3]),
                        int(args[4]), int(args[5]),
                    )
                )
            elif key == "run-until":
                sc.run_until = int(args[0])
            else:
                raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"line {lineno}: malformed {key!r} entry") from exc
    try:
        sc.policy = LinkPolicy(latency, loss, dup, reorder)
    except ValueError as exc:
        raise ScenarioError(f"bad link policy: {exc}") from exc
    named = [e.agent for e in sc.edits] + [a for b in sc.blocks for a in b[:2]]
    for tr in sc.transfers:
        named += [tr.sender, *tr.receivers]
    unknown = sorted(set(named) - set(sc.agents))
    if unknown:
        raise ScenarioError(f"undeclared agents: {', '.join(unknown)}")
    return sc
