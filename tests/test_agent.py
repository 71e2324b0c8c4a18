import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsync.agent as agent_mod
from graphsync.agent import POLICY_MERGE_ONLY, SyncAgent, SyncConfig
from graphsync.netsim import LinkPolicy, NetworkSim, Topology
from graphsync.revisions import ROOT_REVISION, ParentLink, make_revision
from graphsync.transfer import ReceiverSession, SenderSession, split_chunks
from graphsync.triples import Delta, triple
from graphsync.wire import (
    KIND_REVISION,
    KIND_REVISION_REQUEST,
    KIND_STATUS,
    KIND_VOTE,
    AgentId,
    RevisionMsg,
    RevisionRequestMsg,
    StatusMsg,
    VoteMsg,
    decode_frame,
    encode_frame,
)

from test_wire import message_kinds, uuids

DOC = "doc:map"


def make_team(n, seed=1, policy=None, config=None, groups=None, start_times=None):
    sim = NetworkSim(seed, policy=policy or LinkPolicy(("fixed", 5)),
                     topology=Topology(dict(groups or {})))
    agents = []
    for i in range(n):
        ident = AgentId(bytes([i + 1]) * 16, f"a{i}")
        cfg = config or SyncConfig()
        agent = SyncAgent(ident, sim, cfg, rng=random.Random(seed * 100 + i),
                          start_time=(start_times or {}).get(i, 0))
        agent.subscribe(DOC)
        sim.register(agent.name, agent.on_frame, group=(groups or {}).get(f"a{i}", 0))
        agent.start()
        agents.append(agent)
    return sim, agents


def fresh_triples(tag, n):
    return frozenset(triple(f"urn:{tag}:{i}", "urn:p", f"urn:o:{i}") for i in range(n))


def converged(agents, uri=DOC):
    graphs = {a.head_graph(uri) for a in agents}
    return len(graphs) == 1


@pytest.mark.parametrize("kwargs", [
    {"status_period": 0}, {"status_period": -5}, {"policy": "rebase-only"}, {"policy": ""},
])
def test_config_refuses_values_that_hang_or_misroute(kwargs):
    # status_period 0 re-fired the status tick at the same millisecond forever
    with pytest.raises(ValueError):
        SyncConfig(**kwargs)


class TestLocalChangePolicy:
    def test_change_queued_before_any_master_known(self):
        sim, (a, b) = make_team(2)
        rev = a.local_change(DOC, Delta.of(fresh_triples("a", 2), ()))
        assert a.documents[DOC].gor.is_local(rev.hash)
        assert list(a.documents[DOC].local_queue) == [rev.hash]

    def test_change_published_when_synced_with_master(self):
        sim, (a, b) = make_team(2)
        for agent in (a, b):
            agent.preset_master(DOC, a.ident.uuid)
        rev = b.local_change(DOC, Delta.of(fresh_triples("b", 1), ()))
        assert not b.documents[DOC].gor.is_local(rev.hash)
        assert list(b.documents[DOC].local_queue) == []
        sim.advance(50)
        assert rev.hash in a.documents[DOC].gor

    def test_three_changes_while_desynced_form_chain(self):
        sim, (a, b) = make_team(2)
        for i in range(3):
            b.local_change(DOC, Delta.of(fresh_triples(f"b{i}", 1), ()))
        doc = b.documents[DOC]
        assert len(doc.local_queue) == 3
        chain = doc.gor.path_revisions(doc.gor.root.hash, doc.own_head)
        assert [r.hash for r in chain] == list(doc.local_queue)

    def test_merge_only_policy_always_publishes(self):
        sim, (a, b) = make_team(2, config=SyncConfig(policy=POLICY_MERGE_ONLY))
        rev = b.local_change(DOC, Delta.of(fresh_triples("b", 1), ()))
        assert not b.documents[DOC].gor.is_local(rev.hash)


class TestExternalRevisions:
    def test_duplicate_revision_msg_is_noop(self):
        sim, (a, b) = make_team(2)
        for agent in (a, b):
            agent.preset_master(DOC, a.ident.uuid)
        rev = b.local_change(DOC, Delta.of(fresh_triples("b", 1), ()))
        sim.advance(100)
        before = len(a.documents[DOC].gor)
        from graphsync.wire import RevisionMsg
        a.on_frame("a1", encode_frame(RevisionMsg(DOC, rev)), 200)
        assert len(a.documents[DOC].gor) == before

    def test_missing_parent_requested_and_healed(self):
        sim, (a, b) = make_team(2)
        for agent in (a, b):
            agent.preset_master(DOC, a.ident.uuid)
        r1 = b.local_change(DOC, Delta.of(fresh_triples("b1", 1), ()))
        r2 = b.local_change(DOC, Delta.of(fresh_triples("b2", 1), ()))
        # deliver only the child directly, bypassing the network
        from graphsync.wire import RevisionMsg
        a.on_frame("a1", encode_frame(RevisionMsg(DOC, r2)), 1)
        doc = a.documents[DOC]
        assert r1.hash in doc.outstanding
        sim.advance(2000)
        assert r1.hash in doc.gor and doc.gor.resolved(r2.hash)

    def test_master_merges_until_single_head(self):
        sim, (a, b, c) = make_team(3)
        for agent in (a, b, c):
            agent.preset_master(DOC, a.ident.uuid)
        b.local_change(DOC, Delta.of(fresh_triples("b", 2), ()))
        c.local_change(DOC, Delta.of(fresh_triples("c", 2), ()))
        a.local_change(DOC, Delta.of(fresh_triples("a", 2), ()))
        sim.advance(5000)
        doc = a.documents[DOC]
        assert len(doc.gor.heads()) == 1
        assert converged((a, b, c))
        assert a.head_graph(DOC) == fresh_triples("a", 2) | fresh_triples("b", 2) | fresh_triples("c", 2)
        # three heads fold into one with two merges, all by the master
        assert [ag.stats["merges"] for ag in (a, b, c)] == [2, 0, 0]

    def test_rebase_after_merge_revision(self):
        sim, (a, b) = make_team(2)
        for agent in (a, b):
            agent.preset_master(DOC, a.ident.uuid)
        # both publish a first revision; master merges them; b makes a
        # change after seeing the master's head move but before the
        # merge revision arrives, so it must queue
        a.local_change(DOC, Delta.of(fresh_triples("a", 1), ()))
        b.local_change(DOC, Delta.of(fresh_triples("b", 1), ()))
        sim.advance(7)
        queued = b.local_change(DOC, Delta.of(fresh_triples("b2", 1), ()))
        assert b.documents[DOC].gor.is_local(queued.hash) and b.documents[DOC].local_queue
        sim.advance(5000)
        assert not b.documents[DOC].local_queue
        assert converged((a, b))
        assert fresh_triples("b2", 1) <= b.head_graph(DOC)


class TestStatusHandling:
    def test_status_with_unknown_head_triggers_request(self):
        sim, (a, b) = make_team(2)
        outsider = AgentId(b"\x77" * 16, "x")
        fake_head = b"\x99" * 64
        a.on_frame("x", encode_frame(StatusMsg(outsider, DOC, fake_head, False)), 10)
        assert fake_head in a.documents[DOC].outstanding

    def test_status_under_the_agents_own_uuid_is_ignored(self):
        """A master claim under the receiver's own uuid, from any
        endpoint, neither makes it master nor joins its peer table."""
        sim, (a, b) = make_team(2)
        spoof = StatusMsg(AgentId(a.ident.uuid, "x"), DOC, ROOT_REVISION.hash, True)
        a.on_frame("x", encode_frame(spoof), 10)
        doc = a.documents[DOC]
        assert not a.is_master(DOC)
        assert doc.master is None and a.ident.uuid not in doc.peers

    def test_idle_agent_sends_one_status_per_period(self):
        sim, (a, b) = make_team(2)
        sim.advance(9999)
        statuses = [e for e in sim.event_log if e[3] == "status" and e[1] == "a0"]
        # broadcast to one peer; 10 periods at t=0..9000
        assert len(statuses) == 10

    def test_peer_expiry_clears_master_and_triggers_election(self):
        sim, (a, b) = make_team(2)
        for agent in (a, b):
            agent.preset_master(DOC, b.ident.uuid)
        sim.advance(2500)   # peers know each other
        doc_a = a.documents[DOC]
        assert b.ident.uuid in doc_a.peers
        # silence b entirely
        sim.block_pair("a0", "a1", 2500, 10**9)
        sim.advance(9000)
        assert b.ident.uuid not in doc_a.peers
        assert doc_a.master != b.ident.uuid
        # a is alone and lowest uuid: it elects itself
        sim.advance(12000)
        assert doc_a.master == a.ident.uuid


class TestRevisionRequests:
    def test_master_request_answered_by_author(self):
        sim, (a, b) = make_team(2)
        for agent in (a, b):
            agent.preset_master(DOC, a.ident.uuid)
        b.documents[DOC].master_head = b"\x55" * 64   # master is ahead, b desynced
        local = b.local_change(DOC, Delta.of(fresh_triples("b", 1), ()))
        assert b.documents[DOC].gor.is_local(local.hash)
        msg = RevisionRequestMsg(DOC, a.ident.uuid, (local.hash,))
        b.on_frame("a0", encode_frame(msg), 100)
        sim.advance(200)
        assert local.hash in a.documents[DOC].gor
        assert not b.documents[DOC].gor.is_local(local.hash)

    def test_nonmaster_request_to_nonmaster_is_silent(self):
        sim, (a, b, c) = make_team(3)
        for agent in (a, b, c):
            agent.preset_master(DOC, a.ident.uuid)
        rev = b.local_change(DOC, Delta.of(fresh_triples("b", 1), ()))
        sim.advance(100)
        sent_before = len(sim.event_log)
        msg = RevisionRequestMsg(DOC, c.ident.uuid, (rev.hash,))
        b.on_frame("a2", encode_frame(msg), 200)
        sim.advance(400)
        kinds = [e[3] for e in sim.event_log[sent_before:] if e[1] == "a1"]
        assert "revision" not in kinds

    def test_master_answers_any_request(self):
        sim, (a, b) = make_team(2)
        for agent in (a, b):
            agent.preset_master(DOC, a.ident.uuid)
        rev = a.local_change(DOC, Delta.of(fresh_triples("a", 1), ()))
        sim.advance(100)
        msg = RevisionRequestMsg(DOC, b.ident.uuid, (rev.hash,))
        before = len(sim.event_log)
        a.on_frame("a1", encode_frame(msg), 150)
        sim.advance(300)
        kinds = [e[3] for e in sim.event_log[before:] if e[1] == "a0"]
        assert "revision" in kinds

    def test_peer_answers_for_partitioned_author(self):
        sim, (a, b, c) = make_team(3)
        for agent in (a, b, c):
            agent.preset_master(DOC, a.ident.uuid)
        rev = c.local_change(DOC, Delta.of(fresh_triples("c", 1), ()))
        sim.advance(100)   # everyone has it (c published: c synced with master)
        assert rev.hash in b.documents[DOC].gor
        # now c vanishes from b's peer table
        sim.block_pair("a1", "a2", 100, 10**9)
        sim.block_pair("a0", "a2", 100, 10**9)
        sim.advance(8000)
        assert c.ident.uuid not in b.documents[DOC].peers
        before = len(sim.event_log)
        msg = RevisionRequestMsg(DOC, a.ident.uuid, (rev.hash,))
        b.on_frame("a0", encode_frame(msg), sim.clock())
        sim.advance(sim.clock() + 200)
        kinds = [e[3] for e in sim.event_log[before:] if e[1] == "a1"]
        assert "revision" in kinds


class TestElection:
    def test_single_agent_elects_itself(self):
        sim, agents = make_team(1)
        sim.advance(10_000)
        assert agents[0].documents[DOC].master == agents[0].ident.uuid

    def test_fresh_start_all_vote_lowest_uuid_earliest(self):
        # zero latency and simultaneous start: every peer table shows the
        # same connected-since, so the lowest uuid wins everywhere
        sim, agents = make_team(3, policy=LinkPolicy(("fixed", 0)))
        sim.advance(10_000)
        masters = {ag.documents[DOC].master for ag in agents}
        assert masters == {agents[0].ident.uuid}
        declared = [ag for ag in agents if ag.is_master(DOC)]
        assert len(declared) == 1 and declared[0] is agents[0]

    def test_two_masters_trigger_election_to_one(self):
        sim, (a, b) = make_team(2)
        a.preset_master(DOC, a.ident.uuid)
        b.preset_master(DOC, b.ident.uuid)
        sim.advance(15_000)
        assert a.documents[DOC].master == b.documents[DOC].master
        assert sum(ag.is_master(DOC) for ag in (a, b)) == 1

    def test_mutual_vote_tie_resolves(self):
        sim, (a, b) = make_team(2, seed=7)
        a.documents[DOC].last_voted_for = b.ident.uuid
        b.documents[DOC].last_voted_for = a.ident.uuid
        sim.advance(30_000)
        assert a.documents[DOC].master == b.documents[DOC].master
        assert a.documents[DOC].master is not None

    def test_tie_termination_200_scenarios(self):
        # the full 1000-scenario sweep runs in the acceptance suite
        worst = 0
        for seed in range(200):
            sim, (a, b) = make_team(2, seed=seed)
            a.documents[DOC].last_voted_for = b.ident.uuid
            b.documents[DOC].last_voted_for = a.ident.uuid
            sim.advance(120_000)
            doc_a, doc_b = a.documents[DOC], b.documents[DOC]
            assert doc_a.election is None and doc_b.election is None
            assert doc_a.master == doc_b.master and doc_a.master is not None
            worst = max(worst, a.stats["max_election_round"], b.stats["max_election_round"])
        assert worst <= 20

    def test_vote_message_joins_election(self):
        sim, (a, b) = make_team(2)
        vote = VoteMsg(DOC, b.ident.uuid, b.ident.uuid, 0, 0, 0)
        a.on_frame("a1", encode_frame(vote), 10)
        assert a.documents[DOC].election is not None
        assert a.ident.uuid in a.documents[DOC].election.ballots

    @pytest.mark.parametrize("peers", [
        [b"\x07" * 16, b"\x09" * 16],
        [b"\x05" * 16, b"\x07" * 16],   # a status under our own uuid is ignored
        [b"\x07" * 16, b"\x05" * 16],
        [b"\x03" * 16, b"\x07" * 16],
        [b"\x05" * 16, b"\x03" * 16],
    ])
    def test_only_the_lowest_uuid_calls_an_election(self, peers):
        # two peers claim to be master; the agent starts an election only
        # if no peer uuid is below its own, as the set union of the peer
        # uuids and its own decides.  A status under its own uuid is
        # ignored, so it claims no master and joins no peer table
        own = b"\x05" * 16
        sim = NetworkSim(1, policy=LinkPolicy(("fixed", 5)))
        agent = SyncAgent(AgentId(own, "a"), sim, SyncConfig(), rng=random.Random(1))
        agent.subscribe(DOC)
        sim.register("a", agent.on_frame)
        for i, uuid in enumerate(peers):
            status = StatusMsg(AgentId(uuid, f"p{i}"), DOC, ROOT_REVISION.hash, True)
            agent.on_frame(f"p{i}", encode_frame(status), 10)
        others = set(peers) - {own}
        lowest = len(others) == 2 and min(others | {own}) == own
        assert (agent.documents[DOC].election is not None) == lowest


class TestConvergenceAfterElection:
    def test_two_agents_full_stack_converge(self):
        sim, (a, b) = make_team(2)
        sim.advance(8000)        # election settles
        a.local_change(DOC, Delta.of(fresh_triples("a", 3), ()))
        b.local_change(DOC, Delta.of(fresh_triples("b", 3), ()))
        sim.advance(40_000)
        assert converged((a, b))
        assert fresh_triples("a", 3) | fresh_triples("b", 3) == a.head_graph(DOC)

    def test_lossy_links_still_converge(self):
        sim, agents = make_team(
            4, seed=3,
            policy=LinkPolicy(("uniform", 2, 20), loss=0.3, duplication=0.1, reorder=0.2),
        )
        sim.advance(12_000)
        for i, ag in enumerate(agents):
            ag.local_change(DOC, Delta.of(fresh_triples(f"t{i}", 2), ()))
        sim.advance(240_000)
        assert converged(agents)
        union = frozenset()
        for i in range(4):
            union |= fresh_triples(f"t{i}", 2)
        assert agents[0].head_graph(DOC) == union


@pytest.fixture
def decodes(monkeypatch):
    """Frames passed to `graphsync.agent.decode_frame`, in call order."""
    calls = []

    def counted(frame):
        calls.append(frame)
        return decode_frame(frame)

    monkeypatch.setattr(agent_mod, "decode_frame", counted)
    return calls


class TestDecodeOnce:
    def test_broadcast_decoded_once_for_all_receivers(self, decodes):
        sim, agents = make_team(5, policy=LinkPolicy(("uniform", 2, 8), duplication=1.0))
        rev = make_revision(b"\x09" * 16, 1, (
            ParentLink(ROOT_REVISION.hash, Delta.of(fresh_triples("x", 3), ())),))
        frame = encode_frame(RevisionMsg(DOC, rev))
        assert len(sim.send(frame, "a0")) == 8   # every receiver gets two copies
        sim.advance(500)
        assert sum(f is frame for f in decodes) == 1
        received = [ag.documents[DOC].gor.get(rev.hash) for ag in agents[1:]]
        assert all(r is received[0] for r in received)
        assert not any(ag.documents[DOC].gor.is_local(rev.hash) for ag in agents)

    def test_idle_status_decoded_once_while_it_repeats(self, decodes):
        sim, agents = make_team(3)
        frames = recorded(sim)
        sim.advance(20_000)
        idle = agents[2]
        assert idle.documents[DOC].master != idle.ident.uuid
        status = encode_frame(StatusMsg(idle.ident, DOC, ROOT_REVISION.hash, False))
        assert frames.count(status) >= 10
        assert decodes.count(status) == 1

    def test_revision_rebroadcast_by_two_agents_decoded_once(self, decodes):
        sim, (a, b, c) = make_team(3)
        for agent in (a, b, c):
            agent.preset_master(DOC, a.ident.uuid)
        frames = recorded(sim)
        rev = c.local_change(DOC, Delta.of(fresh_triples("c", 1), ()))
        sim.advance(100)
        # the author answers the master's request, the master answers b's
        c.on_frame("a0", encode_frame(RevisionRequestMsg(DOC, a.ident.uuid, (rev.hash,))), 100)
        a.on_frame("a1", encode_frame(RevisionRequestMsg(DOC, b.ident.uuid, (rev.hash,))), 100)
        sim.advance(300)
        frame = encode_frame(RevisionMsg(DOC, rev))
        assert frames.count(frame) == 3
        assert decodes.count(frame) == 1

    def test_malformed_frame_caches_nothing(self, decodes):
        sim, agents = make_team(3)
        bad = encode_frame(StatusMsg(agents[0].ident, DOC, ROOT_REVISION.hash, False))[:-1]
        sim.send(bad, "a0")
        sim.advance(500)
        sim.send(bad, "a0")
        sim.advance(1000)
        # each receiver of each send decodes it anew: no failure cached anything
        assert decodes.count(bad) == 4
        assert [ag.stats["undecodable"] for ag in agents] == [0, 2, 2]

    def test_frame_outside_simulator_decoded_per_call(self, decodes):
        sim, (a, b) = make_team(2)
        frame = encode_frame(StatusMsg(b.ident, DOC, ROOT_REVISION.hash, False))
        a.on_frame("a1", frame, 1)
        a.on_frame("a1", frame, 2)
        assert sum(f is frame for f in decodes) == 2


def recorded(sim):
    """The frames sim sends from now on, appended as they are sent."""
    frames = []
    send = sim.send

    def recording_send(frame, src, dst=None):
        frames.append(frame)
        return send(frame, src, dst)

    sim.send = recording_send
    return frames


def live_frames():
    """Every frame a 3-agent team sends while it elects a master and
    publishes one change per agent."""
    sim, agents = make_team(3)
    frames = recorded(sim)
    sim.advance(8000)
    for i, ag in enumerate(agents):
        ag.local_change(DOC, Delta.of(fresh_triples(f"live{i}", 2), ()))
    sim.advance(20_000)
    return frames


class TestUndecodableFrames:
    def test_damaged_frames_are_dropped_and_counted(self):
        rng = random.Random(99)
        frames = live_frames()
        assert {KIND_STATUS, KIND_REVISION, KIND_VOTE} <= {f[0] for f in frames}
        truncated = [f[:rng.randrange(len(f))] for f in rng.choices(frames, k=150)]
        flipped = []
        for f in rng.choices(frames, k=150):
            bit = rng.randrange(8 * len(f))
            flipped.append(f[:bit // 8] + bytes([f[bit // 8] ^ (1 << bit % 8)]) + f[bit // 8 + 1:])
        sim, agents = make_team(3)
        sim.advance(8000)
        target = agents[1]
        for f in truncated:
            target.on_frame("a0", f, sim.clock())
        assert target.stats["undecodable"] == len(truncated)
        for f in flipped:
            target.on_frame("a0", f, sim.clock())
        assert target.stats["undecodable"] > len(truncated)

    def test_team_converges_despite_truncated_frames(self):
        sim, agents = make_team(3)
        rng = random.Random(7)

        def garble(src, frame, now):
            sim.send(frame[:rng.randrange(len(frame))], "mallory")

        sim.register("mallory", garble)
        sim.advance(8000)
        for i, ag in enumerate(agents):
            ag.local_change(DOC, Delta.of(fresh_triples(f"t{i}", 2), ()))
        sim.advance(40_000)
        assert converged(agents)
        assert agents[0].head_graph(DOC) == frozenset().union(
            *(fresh_triples(f"t{i}", 2) for i in range(3)))
        assert all(ag.stats["undecodable"] > 100 for ag in agents)

    def test_team_converges_beside_an_empty_frame_sender(self):
        sim, agents = make_team(3)
        sim.register("mallory", lambda src, frame, now: sim.send(b"", "mallory"))
        sim.advance(8000)
        for i, ag in enumerate(agents):
            ag.local_change(DOC, Delta.of(fresh_triples(f"t{i}", 2), ()))
        sim.advance(40_000)
        assert converged(agents)
        assert agents[0].head_graph(DOC) == frozenset().union(
            *(fresh_triples(f"t{i}", 2) for i in range(3)))
        for ag in agents:
            empty = sum(src == "mallory" and dst == ag.name for _, src, dst, _, _ in sim.event_log)
            assert empty > 0 and ag.stats["undecodable"] == empty


def team_beside(frames, n=3):
    """A team of n that edits once per agent while an outside endpoint
    sends frames at 9 000 ms; returns the agents once they converge."""
    sim, agents = make_team(n)

    def inject(now):
        for frame in frames:
            sim.send(frame, "mallory")

    sim.register("mallory", lambda src, frame, now: None)
    sim.call_at(9000, inject)
    sim.advance(8000)
    for i, ag in enumerate(agents):
        ag.local_change(DOC, Delta.of(fresh_triples(f"t{i}", 2), ()))
    sim.advance(40_000)
    assert converged(agents)
    assert agents[0].head_graph(DOC) == frozenset().union(
        *(fresh_triples(f"t{i}", 2) for i in range(n)))
    return agents


class TestOutsideRevisions:
    """Revision frames from an outside endpoint that hold a revision no
    agent may accept: a wrong digest, no parent, three parents."""

    def test_flipped_digest_is_undecodable_and_never_inserted(self):
        rev = make_revision(b"\x09" * 16, 9, (
            ParentLink(ROOT_REVISION.hash, Delta.of(fresh_triples("x", 1), ())),))
        frame = encode_frame(RevisionMsg(DOC, rev))
        at = frame.index(rev.hash)
        bad = frame[:at] + bytes([frame[at] ^ 1]) + frame[at + 1:]
        agents = team_beside([bad])
        assert [ag.stats["undecodable"] for ag in agents] == [1, 1, 1]
        for ag in agents:
            assert rev.hash not in ag.documents[DOC].gor
            assert bad[at:at + 64] not in ag.documents[DOC].gor

    def test_revisions_without_one_or_two_parents_are_undecodable(self):
        link = ParentLink(ROOT_REVISION.hash, Delta.of(fresh_triples("x", 1), ()))
        orphan = make_revision(b"\x09" * 16, 9, ())
        three = make_revision(b"\x09" * 16, 9, (link, link, link))
        agents = team_beside([encode_frame(RevisionMsg(DOC, r)) for r in (orphan, three)])
        assert [ag.stats["undecodable"] for ag in agents] == [2, 2, 2]
        assert all(r.hash not in ag.documents[DOC].gor for ag in agents for r in (orphan, three))


class TestNumbersFromPeers:
    """A number a peer sends never grows into a field the agent cannot
    encode in a message of its own."""

    @pytest.mark.parametrize("rnd", [2**32 - 1, 2**32 - 2])
    def test_votes_at_the_last_rounds_leave_the_team_converging(self, rnd):
        # the first vote heard is for 00..00 and five more are for ee..ee,
        # so an agent that counts them all ties the round 5 to 5
        votes = [VoteMsg(DOC, bytes(16), bytes(16), rnd, 9000, 9000)] + [
            VoteMsg(DOC, bytes([0xE0 + i]) * 16, b"\xee" * 16, rnd, 9000, 9000)
            for i in range(5)]
        agents = team_beside([encode_frame(v) for v in votes], n=4)
        assert all(ag.stats["max_election_round"] <= 2**32 - 1 for ag in agents)

    def test_stale_requests_go_out_in_frames_the_wire_can_count(self):
        sim, (a, b) = make_team(2)
        sim.advance(8000)
        doc = a.documents[DOC]
        digests = [hashlib.sha512(i.to_bytes(4, "big")).digest() for i in range(66_000)]
        for h in digests:
            doc.outstanding[h] = 8000 - a.config.status_period
        frames = recorded(sim)
        a.tick(8000)
        wanted = [h for f in frames if f[0] == KIND_REVISION_REQUEST
                  for h in decode_frame(f).wanted]
        assert wanted == digests
        assert set(doc.outstanding) == set(digests)


def outside_frames(live_uri, known):
    """Frames of every message kind, each for live_uri or an unknown URI
    and naming a uuid from known or a fresh one."""
    kinds = message_kinds(st.sampled_from([live_uri, "urn:unknown"]),
                          st.one_of(uuids, st.sampled_from(known)))
    return st.lists(kinds.map(encode_frame), min_size=1, max_size=6)


def answers_decode(sim, frames, until):
    """Send frames from an outside endpoint, run sim until the given
    time, and require every frame sent in answer to decode."""
    sim.register("mallory", lambda src, frame, now: None)
    for frame in frames:
        sim.send(frame, "mallory")
    answers = recorded(sim)
    sim.advance(until)
    for frame in answers:
        decode_frame(frame)


class TestEveryMessageKindFromOutside:
    """Whatever an agent or a transfer session sends in answer to a
    decodable frame from outside encodes, and nothing escapes the
    simulator."""

    # make_team and the transfer world both give agent i uuid bytes([i + 1]) * 16
    KNOWN = [bytes([i + 1]) * 16 for i in range(3)]
    DATASET = "ds:scan"

    @settings(max_examples=100, deadline=None)
    @given(outside_frames(DOC, KNOWN))
    def test_team_after_its_election(self, frames):
        sim, agents = make_team(3)
        sim.advance(9000)
        assert {ag.documents[DOC].master for ag in agents} == {self.KNOWN[0]}
        answers_decode(sim, frames, 12_000)

    @settings(max_examples=150, deadline=None)
    @given(outside_frames(DATASET, KNOWN))
    def test_holder_and_receivers_mid_transfer(self, frames):
        dataset, payload, chunk_size = self.DATASET, bytes(range(256)) * 16, 512
        sim = NetworkSim(1, policy=LinkPolicy(("uniform", 1, 10), loss=0.2))
        agents = [SyncAgent(AgentId(uuid, name), sim, rng=random.Random(i))
                  for i, (uuid, name) in enumerate(zip(self.KNOWN, ["holder", "rx0", "rx1"]))]
        for agent in agents:
            sim.register(agent.name, agent.on_frame)
        holder, receivers = agents[0], agents[1:]
        holder.attach_transfer(dataset, SenderSession(
            dataset, payload, {rx.ident.uuid for rx in receivers},
            send=lambda m: sim.send(encode_frame(m), "holder"),
            schedule=sim.call_later, chunk_size=chunk_size))
        for rx in receivers:
            rx.attach_transfer(dataset, ReceiverSession(
                dataset, rx.ident.uuid, max_chunks=len(split_chunks(payload, chunk_size)),
                send=lambda m, n=rx.name: sim.send(encode_frame(m), n),
                schedule=sim.call_later, commit=lambda data: None, abort=lambda: None,
                chunk_size=chunk_size))
        sim.advance(20)
        answers_decode(sim, frames, 5000)
