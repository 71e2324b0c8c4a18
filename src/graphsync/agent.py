"""Per-agent, per-document synchronization state machine.

Each agent keeps, for every subscribed document, its graph of
revisions, a queue of unpublished local revisions, a peer table built
from status gossip, and its merge-master belief.  The protocol:

* a local change is published immediately when the agent's history
  already contains the master's last known head, otherwise it queues;
* external revisions are inserted (missing parents are requested);
  receiving a merge revision lets the agent rebase its queued chain on
  top of it and publish the result;
* the merge master keeps merging head pairs until a single head
  remains, publishing every merge;
* the master is elected: when the lowest-uuid agent sees zero or
  several self-declared masters it starts a vote; everyone votes for
  its previous choice if still connected, else for the candidate
  connected the longest (ties by lowest uuid); tied rounds re-vote
  uniformly at random among the tied candidates until unique.

One inbound message is processed to completion at a time; all sends
are fire-and-forget through the network simulator.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .revisions import (
    GraphOfRevisions,
    NotLinear,
    NotLocal,
    ParentLink,
    Revision,
    make_revision,
    merge_revision,
    rebase_revisions,
)
from .triples import Delta
from .wire import (
    MAX_ROUND,
    MAX_WANTED,
    AgentId,
    RevisionMsg,
    RevisionRequestMsg,
    StatusMsg,
    VoteMsg,
    decode_frame,
    encode_frame,
)

POLICY_MERGE_REBASE = "merge-rebase"
POLICY_MERGE_ONLY = "merge-only"

# in status periods: how long an unheard peer is kept, an election open
LIVENESS_PERIODS = 3
ELECTION_WINDOW_PERIODS = 2


@dataclass
class SyncConfig:
    status_period: int = 1000
    merge_duration: int = 0
    policy: str = POLICY_MERGE_REBASE

    def __post_init__(self):
        # the status tick reschedules itself status_period ms later
        if self.status_period <= 0:
            raise ValueError("status_period must be positive")
        if self.policy not in (POLICY_MERGE_REBASE, POLICY_MERGE_ONLY):
            raise ValueError(f"unknown policy {self.policy!r}")


@dataclass
class PeerInfo:
    status: StatusMsg
    last_seen: int
    connected_since: int


@dataclass
class Election:
    round: int
    deadline: int
    ballots: dict[bytes, bytes]


class DocState:
    def __init__(self, uri: str):
        self.gor = GraphOfRevisions(uri)
        self.own_head: bytes = self.gor.root.hash
        self.peers: dict[bytes, PeerInfo] = {}
        self.master: Optional[bytes] = None
        self.master_head: Optional[bytes] = None
        self.election: Optional[Election] = None
        self.last_voted_for: Optional[bytes] = None
        self.outstanding: dict[bytes, int] = {}
        self.last_status_sent: Optional[int] = None
        self.merge_in_progress: bool = False
        self.master_set_at: int = 0

    @property
    def local_queue(self):
        """The unpublished local revisions, oldest first: a read-only
        view of the graph's local set."""
        return self.gor.unpublished


class SyncAgent:
    """One network endpoint.  Wire it to a NetworkSim with
    ``sim.register(agent.name, agent.on_frame)`` and call ``start()``."""

    def __init__(
        self,
        ident: AgentId,
        sim,
        config: SyncConfig | None = None,
        rng: random.Random | None = None,
        start_time: int = 0,
    ):
        self.ident = ident
        self.name = ident.name or ident.uuid.hex()
        self.sim = sim
        self.config = config or SyncConfig()
        self.rng = rng or random.Random(0)
        self.start_time = start_time
        self.documents: dict[str, DocState] = {}
        self.transfers: dict[str, object] = {}
        self.published_log: list[bytes] = []
        self.stats = Counter()

    # -- lifecycle ------------------------------------------------------

    def subscribe(self, uri: str) -> DocState:
        if uri not in self.documents:
            self.documents[uri] = DocState(uri)
        return self.documents[uri]

    def start(self) -> None:
        self.sim.call_at(self.start_time, self._tick_loop)

    def _tick_loop(self, now: int) -> None:
        self.tick(now)
        self.sim.call_later(self.config.status_period, self._tick_loop)

    def preset_master(self, uri: str, master: bytes) -> None:
        doc = self.subscribe(uri)
        doc.master = master
        doc.master_head = doc.gor.root.hash

    def is_master(self, uri: str) -> bool:
        doc = self.documents.get(uri)
        return doc is not None and doc.master == self.ident.uuid

    def head_graph(self, uri: str) -> frozenset:
        doc = self.documents[uri]
        return doc.gor.materialize(doc.own_head)

    # -- outbound helpers -------------------------------------------------

    def _broadcast(self, msg) -> None:
        self.sim.send(encode_frame(msg), self.name)

    def _publish_revision(self, doc: DocState, rev: Revision) -> None:
        doc.gor.publish(rev.hash)
        self.published_log.append(rev.hash)
        self._broadcast(RevisionMsg(doc.gor.uri, rev))

    def _request(self, doc: DocState, wanted: Iterable[bytes], now: int) -> None:
        period = self.config.status_period
        fresh = [
            h
            for h in wanted
            if h not in doc.gor
            and (h not in doc.outstanding or now - doc.outstanding[h] >= period)
        ]
        if not fresh:
            return
        for h in fresh:
            doc.outstanding[h] = now
        for i in range(0, len(fresh), MAX_WANTED):
            self._broadcast(RevisionRequestMsg(
                doc.gor.uri, self.ident.uuid, tuple(fresh[i:i + MAX_WANTED])))

    def _send_status(self, doc: DocState, now: int) -> None:
        doc.last_status_sent = now
        self._broadcast(
            StatusMsg(self.ident, doc.gor.uri, doc.own_head, doc.master == self.ident.uuid)
        )

    # -- local changes ------------------------------------------------------

    def local_change(self, uri: str, delta: Delta, now: Optional[int] = None) -> Revision:
        """Record a local edit as a new revision on the agent's head and
        publish it when the history already covers the master's last
        known head, else queue it."""
        now = self.sim.clock() if now is None else now
        doc = self.subscribe(uri)
        rev = make_revision(self.ident.uuid, now // 1000, (ParentLink(doc.own_head, delta),))
        doc.gor.insert(rev, local=True)
        doc.own_head = rev.hash
        if self.config.policy == POLICY_MERGE_ONLY or self._synced_with_master(doc, rev):
            self._publish_revision(doc, rev)
        if doc.master == self.ident.uuid:
            doc.master_head = doc.own_head
            self._run_master_merges(doc, now)
        return rev

    def _synced_with_master(self, doc: DocState, rev: Revision) -> bool:
        if doc.master_head is None:
            return False
        return doc.master_head == rev.hash or doc.gor.is_ancestor(doc.master_head, rev.hash)

    # -- inbound dispatch --------------------------------------------------

    def on_frame(self, src: str, frame: bytes, now: int) -> None:
        """Handle one inbound frame.  A frame the simulator is
        delivering is decoded once for all its receivers and the
        message is shared (see `NetworkSim`): messages and revisions are
        immutable, and local-ness lives in each agent's own graph.  Any
        other frame is decoded here.  A frame that does not decode (a
        revision with a wrong digest too) is dropped and counted."""
        try:
            msg = self.sim.decoded(frame, decode_frame)
        except ValueError:
            self.stats["undecodable"] += 1
            return
        handle = self._DOC_HANDLERS.get(type(msg))
        if handle is None:
            session = self.transfers.get(msg.dataset_uri)
            if session is not None:
                session.on_msg(msg, now)
            return
        doc = self.documents.get(msg.document_uri)
        if doc is not None:
            handle(self, doc, msg, now)

    # -- status -------------------------------------------------------------

    def _handle_status(self, doc: DocState, msg: StatusMsg, now: int) -> None:
        uuid = msg.sender.uuid
        peer = doc.peers.get(uuid)
        if peer is None:
            doc.peers[uuid] = PeerInfo(msg, now, now)
        else:
            peer.status = msg
            peer.last_seen = now

        if msg.is_merge_master:
            if doc.master is None:
                doc.master = uuid
            if doc.master == uuid:
                doc.master_head = msg.head_hash
                doc.master_set_at = now
        elif doc.master == uuid:
            doc.master = None
            doc.master_head = None

        if msg.head_hash not in doc.gor:
            self._request(doc, [msg.head_hash], now)

        self._check_election_needed(doc, now)
        self._run_master_merges(doc, now)

    def _check_election_needed(self, doc: DocState, now: int) -> None:
        if doc.election is not None:
            return
        known = set(doc.peers) | {self.ident.uuid}
        if min(known) != self.ident.uuid:
            return
        masters = {u for u, p in doc.peers.items() if p.status.is_merge_master}
        if doc.master == self.ident.uuid:
            masters.add(self.ident.uuid)
        if len(masters) > 1:
            self._start_election(doc, now, 0, ())
        elif not masters:
            grace = LIVENESS_PERIODS * self.config.status_period
            # let status gossip populate the peer table before concluding
            # that no master exists
            if now - self.start_time < grace:
                return
            # grace for a freshly elected master that has not gossiped its
            # role yet; the grace ages out so diverged beliefs re-elect
            believed_alive = (
                doc.master is not None
                and doc.master in doc.peers
                and now - doc.master_set_at <= grace
            )
            if not believed_alive:
                self._start_election(doc, now, 0, ())

    # -- revisions ------------------------------------------------------------

    def _handle_revision(self, doc: DocState, msg: RevisionMsg, now: int) -> None:
        rev = msg.revision
        missing = doc.gor.insert(rev)
        if missing:
            self._request(doc, missing, now)
        doc.outstanding.pop(rev.hash, None)

        if rev.author == doc.master and doc.master is not None:
            if doc.master_head is None or doc.master_head == rev.hash or doc.gor.is_ancestor(
                doc.master_head, rev.hash
            ):
                doc.master_head = rev.hash

        self._advance_own_head(doc)
        if rev.is_merge and self.config.policy != POLICY_MERGE_ONLY:
            self._try_rebase(doc, rev.hash, now)
        self._run_master_merges(doc, now)

    def _advance_own_head(self, doc: DocState) -> None:
        """Fast-forward onto a resolved head that descends from ours."""
        if doc.local_queue:
            return
        best = None
        for h in doc.gor.heads():
            if h == doc.own_head:
                continue
            if doc.gor.resolved(h) and doc.gor.is_ancestor(doc.own_head, h):
                rev = doc.gor.get(h)
                key = (rev.timestamp, h)
                if best is None or key > best[0]:
                    best = (key, h)
        if best is not None:
            doc.own_head = best[1]
            if doc.master == self.ident.uuid:
                doc.master_head = doc.own_head

    def _try_rebase(self, doc: DocState, merge_hash: bytes, now: int) -> None:
        if not doc.local_queue:
            return
        if not doc.gor.resolved(merge_hash) or not doc.gor.resolved(doc.own_head):
            return
        if doc.own_head == merge_hash or doc.gor.is_ancestor(doc.own_head, merge_hash):
            return
        # rebase_revisions refuses a chain that is not linear and local
        # before it changes the graph.
        try:
            moved = rebase_revisions(doc.gor, doc.own_head, merge_hash, now // 1000)
        except (NotLinear, NotLocal, KeyError):
            return
        doc.own_head = moved[-1].hash
        for rev in moved:
            self._publish_revision(doc, rev)

    # -- master merging ---------------------------------------------------------

    def _run_master_merges(self, doc: DocState, now: int) -> None:
        if doc.merge_in_progress or doc.master != self.ident.uuid:
            return
        pair = self._pick_merge_pair(doc, now)
        if pair is None:
            return
        if self.config.merge_duration <= 0:
            while pair is not None:
                self._complete_merge(doc, pair, self.sim.clock())
                pair = self._pick_merge_pair(doc, self.sim.clock())
        else:
            doc.merge_in_progress = True
            self.sim.call_later(
                self.config.merge_duration,
                lambda t, d=doc, p=pair: self._finish_timed_merge(d, p, t),
            )

    def _finish_timed_merge(self, doc: DocState, pair: tuple[bytes, bytes], now: int) -> None:
        doc.merge_in_progress = False
        self._complete_merge(doc, pair, now)
        self._run_master_merges(doc, now)

    def _pick_merge_pair(self, doc: DocState, now: int) -> Optional[tuple[bytes, bytes]]:
        heads = []
        unresolved = []
        for h in doc.gor.heads():
            if doc.gor.resolved(h):
                heads.append(h)
            else:
                unresolved.append(h)
        if unresolved:
            missing = doc.gor.missing_parents()
            self._request(doc, missing, now)
        if len(heads) < 2:
            return None
        heads.sort(key=lambda h: (doc.gor.get(h).timestamp, h))
        return heads[0], heads[1]

    def _complete_merge(self, doc: DocState, pair: tuple[bytes, bytes], now: int) -> None:
        h_i, h_j = pair
        if h_i not in doc.gor or h_j not in doc.gor:
            return
        merged = merge_revision(doc.gor, h_i, h_j, self.ident.uuid, now // 1000)
        self.stats["merges"] += 1
        if merged.hash not in (h_i, h_j):
            self._publish_revision(doc, merged)
        if doc.own_head in pair or doc.gor.is_ancestor(doc.own_head, merged.hash):
            doc.own_head = merged.hash
        doc.master_head = doc.own_head

    # -- revision requests ---------------------------------------------------

    def _handle_revision_request(self, doc: DocState, msg: RevisionRequestMsg, now: int) -> None:
        from_master = doc.master is not None and msg.requester == doc.master
        i_am_master = doc.master == self.ident.uuid
        for h in msg.wanted:
            if h not in doc.gor:
                continue
            rev = doc.gor.get(h)
            if rev.is_root:
                continue
            if from_master and not i_am_master:
                creator = rev.author
                if creator == self.ident.uuid or not self._connected_to(doc, creator):
                    self._publish_revision(doc, rev)
            elif i_am_master:
                self._publish_revision(doc, rev)

    def _connected_to(self, doc: DocState, uuid: bytes) -> bool:
        return uuid == self.ident.uuid or uuid in doc.peers

    # -- election ---------------------------------------------------------------

    def _start_election(self, doc: DocState, now: int, rnd: int,
                        candidates: tuple[bytes, ...]) -> None:
        vote = self._choose_vote(doc, candidates)
        window = ELECTION_WINDOW_PERIODS * self.config.status_period
        doc.election = Election(rnd, now + window, {self.ident.uuid: vote})
        self.stats["max_election_round"] = max(self.stats["max_election_round"], rnd)
        doc.last_voted_for = vote
        self._broadcast(
            VoteMsg(doc.gor.uri, self.ident.uuid, vote, rnd, now, now)
        )
        self.sim.call_at(now + window, self.tick)

    def _choose_vote(self, doc: DocState, candidates: tuple[bytes, ...]) -> bytes:
        if candidates:
            return self.rng.choice(sorted(candidates))
        last = doc.last_voted_for
        if last is not None and (last == self.ident.uuid or last in doc.peers):
            return last
        pool = {self.ident.uuid: self.start_time}
        for uuid, peer in doc.peers.items():
            pool[uuid] = peer.connected_since
        return min(pool, key=lambda u: (pool[u], u))

    def _handle_vote(self, doc: DocState, msg: VoteMsg, now: int) -> None:
        if msg.round >= MAX_ROUND:
            # a tie there would start a round the wire cannot carry, so an
            # election a tie carries to the last round counts only its own ballot
            return
        if doc.election is None or msg.round > doc.election.round:
            candidates = (msg.candidate,) if msg.round > 0 else ()
            self._start_election(doc, now, msg.round, candidates)
        if msg.round == doc.election.round:
            doc.election.ballots[msg.voter] = msg.candidate
        # stale rounds are ignored

    def _resolve_election(self, doc: DocState, now: int) -> None:
        election = doc.election
        counts = Counter(election.ballots.values())
        top = max(counts.values())
        winners = sorted(u for u, c in counts.items() if c == top)
        if len(winners) == 1:
            winner = winners[0]
            doc.election = None
            doc.master = winner
            doc.master_set_at = now
            if winner == self.ident.uuid:
                doc.master_head = doc.own_head
                self._run_master_merges(doc, now)
            else:
                peer = doc.peers.get(winner)
                doc.master_head = peer.status.head_hash if peer else None
        else:
            self._start_election(doc, now, election.round + 1, tuple(winners))

    # -- periodic duties -----------------------------------------------------------

    def tick(self, now: int) -> None:
        """Status gossip, peer liveness, request retries and election
        deadlines; safe to call at any monotone time."""
        period = self.config.status_period
        timeout = LIVENESS_PERIODS * period
        for doc in self.documents.values():
            if doc.last_status_sent is None or now - doc.last_status_sent >= period:
                self._send_status(doc, now)

            expired = [u for u, p in doc.peers.items() if now - p.last_seen > timeout]
            for uuid in expired:
                del doc.peers[uuid]
                if doc.master == uuid:
                    doc.master = None
                    doc.master_head = None
            self._check_election_needed(doc, now)

            stale = [
                h
                for h, t in doc.outstanding.items()
                if now - t >= period and h not in doc.gor
            ]
            for h in stale:
                del doc.outstanding[h]
            if stale:
                self._request(doc, stale, now)

            if doc.election is not None and now >= doc.election.deadline:
                self._resolve_election(doc, now)

            self._run_master_merges(doc, now)

    # what on_frame calls for each document message
    _DOC_HANDLERS = {
        StatusMsg: _handle_status,
        RevisionMsg: _handle_revision,
        RevisionRequestMsg: _handle_revision_request,
        VoteMsg: _handle_vote,
    }

    # -- transfer plumbing ------------------------------------------------------

    def attach_transfer(self, dataset_uri: str, session) -> None:
        self.transfers[dataset_uri] = session

    def detach_transfer(self, dataset_uri: str) -> None:
        self.transfers.pop(dataset_uri, None)
