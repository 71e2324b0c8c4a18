import dataclasses
import hashlib
import os
import random
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsync.revisions import (
    ROOT_REVISION,
    GraphOfRevisions,
    HashMismatch,
    MalformedRevision,
    MergePathDivergence,
    NotLinear,
    NotLocal,
    EmptyPath,
    ParentLink,
    UnknownRevision,
    UnresolvedAncestor,
    combine,
    combine_many,
    make_revision,
    merge_revision,
    rebase_revisions,
    revision_hash,
    squash,
    verified_revision,
)
from graphsync import triples
from graphsync.triples import (
    Delta,
    canonical_delta_bytes,
    canonical_key,
    delta_apply,
    delta_compute,
    literal,
    triple,
)

T = [triple(f"urn:t:{i}", "urn:p", f"urn:o:{i}") for i in range(10)]
A_B = b"\xb0" * 16
A_C = b"\xc0" * 16
A_M = b"\x0a" * 16


def raw_text_digest(author, timestamp, parent, text: bytes) -> bytes:
    """The digest of a one-parent revision computed over delta text
    bytes as they stand, not over their canonical form: what a hostile
    author can claim for any text."""
    inner = hashlib.sha512(text + parent).digest()
    return hashlib.sha512(author + struct.pack(">q", timestamp) + inner).digest()


def swap_first_lines(text: bytes) -> bytes:
    """Canonical delta text with its first two triple lines swapped."""
    rows = text.split(b"\n")
    rows[1], rows[2] = rows[2], rows[1]
    return b"\n".join(rows)


def rev_on(gor, parent, delta, author=A_B, ts=1, local=False):
    r = make_revision(author, ts, (ParentLink(parent, delta),))
    gor.insert(r, local=local)
    return r


def worked_example(local_g2=False):
    """Base {T0,T1,T2}; one branch adds T3,T4 / drops T0,T1; the other
    adds T4,T5 / drops T1,T2 (unpublished when ``local_g2``)."""
    gor = GraphOfRevisions("doc:ex")
    g0 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0], T[1], T[2]}, ()), author=A_M, ts=0)
    g1 = rev_on(gor, g0.hash, Delta.of({T[3], T[4]}, {T[0], T[1]}), author=A_B, ts=1)
    g2 = rev_on(gor, g0.hash, Delta.of({T[4], T[5]}, {T[1], T[2]}), author=A_C, ts=1,
                local=local_g2)
    return gor, g0, g1, g2


class TestRevisionHash:
    def test_timestamp_changes_digest(self):
        p = (ParentLink(ROOT_REVISION.hash, Delta.of({T[0]}, ())),)
        assert revision_hash(A_B, 1, p) != revision_hash(A_B, 2, p)

    def test_author_parent_and_delta_change_digest(self):
        p = (ParentLink(ROOT_REVISION.hash, Delta.of({T[0]}, ())),)
        base = revision_hash(A_B, 1, p)
        assert revision_hash(A_C, 1, p) != base
        assert revision_hash(A_B, 1, (ParentLink(b"\x01" * 64, Delta.of({T[0]}, ())),)) != base
        assert revision_hash(A_B, 1, (ParentLink(ROOT_REVISION.hash, Delta.of({T[1]}, ())),)) != base

    def test_insertion_order_does_not_change_digest(self):
        d1 = Delta.of([T[0], T[1], T[2]], [T[3]])
        d2 = Delta.of([T[2], T[1], T[0]], [T[3]])
        p1 = (ParentLink(ROOT_REVISION.hash, d1),)
        p2 = (ParentLink(ROOT_REVISION.hash, d2),)
        assert revision_hash(A_B, 1, p1) == revision_hash(A_B, 1, p2)

    def test_against_independent_oracle(self):
        rng = random.Random(21)
        for _ in range(20):
            author = rng.randbytes(16)
            ts = rng.randrange(10**9)
            links = []
            for _ in range(rng.randrange(3)):
                ins = frozenset(rng.sample(T, rng.randrange(4)))
                rem = frozenset(rng.sample(T, rng.randrange(4))) - ins
                links.append(ParentLink(rng.randbytes(64), Delta(ins, rem)))
            expect = hashlib.sha512()
            expect.update(author)
            expect.update(struct.pack(">q", ts))
            for link in links:
                expect.update(
                    hashlib.sha512(canonical_delta_bytes(link.delta) + link.parent).digest()
                )
            assert revision_hash(author, ts, tuple(links)) == expect.digest()


class TestInsertAndTopology:
    def test_child_before_parent_reports_missing(self):
        gor = GraphOfRevisions("doc:x")
        parent = make_revision(A_B, 1, (ParentLink(ROOT_REVISION.hash, Delta.of({T[0]}, ())),))
        child = make_revision(A_B, 2, (ParentLink(parent.hash, Delta.of({T[1]}, ())),))
        missing = gor.insert(child)
        assert missing == [parent.hash]
        assert gor.missing_parents() == {parent.hash}
        assert gor.insert(parent) == []
        assert gor.missing_parents() == set()

    def test_remove_forgets_parent_no_present_revision_references(self):
        gor = GraphOfRevisions("doc:x")
        parent = make_revision(A_B, 1, (ParentLink(ROOT_REVISION.hash, Delta.of({T[0]}, ())),))
        kids = [make_revision(A_B, 2 + i, (ParentLink(parent.hash, Delta.of({T[i]}, ())),))
                for i in (1, 2)]
        for kid in kids:
            gor.insert(kid, local=True)
        gor.remove([kids[0].hash])
        assert gor.missing_parents() == {parent.hash}
        gor.remove([kids[1].hash])
        assert gor.missing_parents() == set()
        assert gor.heads() == {ROOT_REVISION.hash}
        assert gor.insert(parent) == []
        assert gor.heads() == {parent.hash}

    def test_reinsert_root_is_noop(self):
        gor = GraphOfRevisions("doc:x")
        gor.insert(ROOT_REVISION)
        assert len(gor) == 1

    def test_hash_mismatch_rejected(self):
        links = (ParentLink(ROOT_REVISION.hash, Delta()),)
        with pytest.raises(HashMismatch):
            verified_revision(b"\x00" * 64, A_B, 1, links)
        good = make_revision(A_B, 1, links)
        assert verified_revision(good.hash, A_B, 1, list(links)) == good

    def test_outside_revision_has_one_or_two_parents(self):
        link = ParentLink(ROOT_REVISION.hash, Delta.of({T[0]}, ()))
        for links in ((), (link, link, link)):
            rev = make_revision(A_B, 1, links)
            with pytest.raises(MalformedRevision):
                verified_revision(rev.hash, A_B, 1, links)

    def test_revision_is_frozen_and_consistent_with_its_digest(self):
        rev = make_revision(A_B, 1, (ParentLink(ROOT_REVISION.hash, Delta.of({T[0]}, ())),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rev.timestamp = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            rev.hash = b"\x00" * 64
        moved = dataclasses.replace(rev, timestamp=2)
        assert moved.hash == revision_hash(A_B, 2, rev.parents) != rev.hash
        assert not hasattr(rev, "local") and not hasattr(rev, "signature")

    def test_insert_does_not_hash(self, monkeypatch):
        rev = make_revision(A_B, 1, (ParentLink(ROOT_REVISION.hash, Delta.of({T[0]}, ())),))
        calls = []
        monkeypatch.setattr("graphsync.revisions.revision_hash",
                            lambda *args: calls.append(args))
        gor = GraphOfRevisions("doc:x")
        gor.insert(rev, local=True)
        gor.insert(rev)
        assert calls == []

    def test_local_is_per_graph(self):
        """One Revision object, local in one graph and published in
        another; publishing in one leaves the other as it was, and a
        second insert keeps the state of the first."""
        rev = make_revision(A_B, 1, (ParentLink(ROOT_REVISION.hash, Delta.of({T[0]}, ())),))
        mine, theirs = GraphOfRevisions("doc:x"), GraphOfRevisions("doc:x")
        mine.insert(rev, local=True)
        theirs.insert(rev)
        theirs.insert(rev, local=True)
        assert mine.is_local(rev.hash) and not theirs.is_local(rev.hash)
        other = GraphOfRevisions("doc:x")
        other.insert(rev, local=True)
        other.publish(rev.hash)
        assert not other.is_local(rev.hash) and mine.is_local(rev.hash)
        with pytest.raises(NotLocal):
            theirs.remove([rev.hash])
        mine.remove([rev.hash])
        assert not mine.is_local(rev.hash) and rev.hash not in mine

    def test_insertion_order_permutation_equivalence(self):
        rng = random.Random(8)
        base = GraphOfRevisions("doc:x")
        r1 = rev_on(base, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=1)
        r2 = rev_on(base, r1.hash, Delta.of({T[1]}, ()), ts=2)
        r3 = rev_on(base, r2.hash, Delta.of({T[2]}, {T[0]}), ts=3)
        revs = [r1, r2, r3]
        for _ in range(6):
            rng.shuffle(revs)
            gor = GraphOfRevisions("doc:x")
            for r in revs:
                gor.insert(r)
            assert set(gor.heads()) == {r3.hash}
            assert gor.materialize(r3.hash) == base.materialize(r3.hash)

    def test_heads_two_branch_topology(self):
        gor, g0, g1, g2 = worked_example()
        assert gor.heads() == {g1.hash, g2.hash}

    def test_single_root_heads_and_ancestors(self):
        gor = GraphOfRevisions("doc:x")
        assert gor.heads() == {ROOT_REVISION.hash}
        assert gor.ancestors(ROOT_REVISION.hash) == set()

    def test_ancestors_against_closure_oracle(self):
        rng = random.Random(17)
        for _ in range(20):
            gor, tips = random_dag(rng, 15)
            parents = {r.hash: [l.parent for l in r.parents] for r in gor.revisions()}
            for h in list(parents):
                closure, stack = set(), list(parents[h])
                while stack:
                    cur = stack.pop()
                    if cur not in closure:
                        closure.add(cur)
                        stack.extend(parents[cur])
                assert gor.ancestors(h) == closure
                for other in parents:
                    assert gor.is_ancestor(other, h) == (other in closure)

    def test_unknown_revision_raises(self):
        gor = GraphOfRevisions("doc:x")
        with pytest.raises(UnknownRevision):
            gor.ancestors(b"\x42" * 64)


class TestMaterialize:
    def test_worked_example_branch(self):
        gor, g0, g1, g2 = worked_example()
        assert gor.materialize(g1.hash) == {T[2], T[3], T[4]}
        assert gor.materialize(g2.hash) == {T[0], T[4], T[5]}

    def test_root_is_empty(self):
        gor = GraphOfRevisions("doc:x")
        assert gor.materialize(ROOT_REVISION.hash) == frozenset()

    def test_unresolved_ancestor(self):
        gor = GraphOfRevisions("doc:x")
        parent = make_revision(A_B, 1, (ParentLink(ROOT_REVISION.hash, Delta.of({T[0]}, ())),))
        child = make_revision(A_B, 2, (ParentLink(parent.hash, Delta.of({T[1]}, ())),))
        gor.insert(child)
        with pytest.raises(UnresolvedAncestor):
            gor.materialize(child.hash)

    def test_random_linear_histories_match_replay_oracle(self):
        rng = random.Random(31)
        for _ in range(30):
            gor = GraphOfRevisions("doc:x")
            graph = frozenset()
            head = ROOT_REVISION.hash
            for ts in range(1, rng.randrange(2, 10)):
                ins = frozenset(rng.sample(T, rng.randrange(3)))
                rem = frozenset(rng.sample(T, rng.randrange(3))) - ins
                d = Delta(ins, rem)
                head = rev_on(gor, head, d, ts=ts).hash
                graph = delta_apply(graph, d)
            assert gor.materialize(head) == graph


class TestCommonAncestor:
    def test_two_branch_split(self):
        gor, g0, g1, g2 = worked_example()
        assert gor.common_ancestor(g1.hash, g2.hash) == g0.hash

    def test_self_is_own_ancestor(self):
        gor, g0, g1, g2 = worked_example()
        assert gor.common_ancestor(g1.hash, g1.hash) == g1.hash

    def test_ancestor_of_other_returns_it(self):
        gor, g0, g1, g2 = worked_example()
        assert gor.common_ancestor(g0.hash, g1.hash) == g0.hash
        assert gor.common_ancestor(g1.hash, g0.hash) == g0.hash

    def test_against_bfs_intersection_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            gor, tips = random_dag(rng, 12)
            hs = list(h for h in gor.heads())
            a, b = rng.choice(hs), rng.choice(hs)
            got = gor.common_ancestor(a, b)
            reach_a = gor.ancestors(a) | {a}
            reach_b = gor.ancestors(b) | {b}
            assert got in (reach_a & reach_b)


class TestCombine:
    def test_worked_pair(self):
        d1 = Delta.of({T[3], T[4]}, {T[0], T[1]})
        d2 = Delta.of({T[5]}, {T[3]})
        got = combine(d1, d2)
        assert got.inserted == {T[4], T[5]}
        assert got.removed == {T[0], T[1], T[3]}
        g0 = frozenset({T[0], T[1], T[2]})
        assert delta_apply(g0, got) == delta_apply(delta_apply(g0, d1), d2)

    def test_identity_delta(self):
        d = Delta.of({T[1]}, {T[2]})
        assert combine(d, Delta()) == d

    def test_200_random_pairs_against_composition_oracle(self):
        rng = random.Random(57)
        for _ in range(200):
            g0 = frozenset(rng.sample(T, rng.randrange(6)))
            g1 = frozenset(rng.sample(T, rng.randrange(6)))
            g2 = frozenset(rng.sample(T, rng.randrange(6)))
            d1, d2 = delta_compute(g0, g1), delta_compute(g1, g2)
            combined = combine(d1, d2)
            assert delta_apply(g0, combined) == g2
            touched_once = not (
                (d1.inserted | d1.removed) & (d2.inserted | d2.removed)
            )
            if touched_once:
                assert combined == delta_compute(g0, g2)

    def test_combine_many_base_cases(self):
        d = Delta.of({T[0]}, ())
        assert combine_many([d]) == d
        d2 = Delta.of({T[1]}, {T[0]})
        assert combine_many([d, d2]) == combine(d, d2)
        with pytest.raises(EmptyPath):
            combine_many([])

    def test_chains_against_replay_oracle(self):
        rng = random.Random(77)
        for _ in range(50):
            g = frozenset(rng.sample(T, 4))
            start = g
            deltas = []
            for _ in range(10):
                nxt = frozenset(rng.sample(T, rng.randrange(6)))
                deltas.append(delta_compute(g, nxt))
                g = nxt
            assert delta_apply(start, combine_many(deltas)) == g


def random_dag(rng, n_revisions, triple_pool=None, merge_prob=0.25):
    """A GoR grown by the public ops only: edits branch off any existing
    revision (so splits arise), plus occasional merges of head pairs."""
    pool = triple_pool or T
    gor = GraphOfRevisions("doc:rand")
    ts = 1
    for _ in range(n_revisions):
        heads = sorted(gor.heads())
        if len(heads) > 1 and rng.random() < merge_prob:
            a, b = rng.sample(heads, 2)
            merge_revision(gor, a, b, A_M, ts)
        else:
            base = rng.choice(sorted(r.hash for r in gor.revisions()))
            current = gor.materialize(base)
            ins = frozenset(rng.sample(pool, rng.randrange(3)))
            # draw in a fixed order: a set of triples iterates in hash order,
            # which differs between processes
            rem = frozenset(t for t in sorted(current, key=canonical_key) if rng.random() < 0.2)
            if not ins and not rem:
                ins = frozenset({pool[rng.randrange(len(pool))]})
            rev_on(gor, base, Delta(ins - rem if ins & rem else ins, rem), ts=ts,
                   author=rng.choice([A_B, A_C]))
        ts += 1
    return gor, sorted(gor.heads())


def test_random_dag_is_the_same_in_every_process():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    script = ("import random; from test_revisions import random_dag; "
              "print(*(h.hex() for h in random_dag(random.Random(3), 15)[1]))")
    heads = {
        subprocess.run([sys.executable, "-c", script], capture_output=True, check=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed,
                                PYTHONPATH=os.pathsep.join([src, tests]))).stdout
        for seed in ("0", "0", "1")
    }
    assert len(heads) == 1


class TestMerge:
    def test_worked_example(self):
        gor, g0, g1, g2 = worked_example()
        m = merge_revision(gor, g1.hash, g2.hash, A_M, 2)
        assert gor.materialize(m.hash) == {T[3], T[4], T[5]}
        by_parent = {l.parent: l.delta for l in m.parents}
        assert by_parent[g1.hash] == Delta.of({T[5]}, {T[2]})
        assert by_parent[g2.hash] == Delta.of({T[3]}, {T[0]})

    def test_identical_branch_deltas_give_empty_merge_deltas(self):
        gor = GraphOfRevisions("doc:x")
        g0 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=0)
        d = Delta.of({T[1]}, {T[0]})
        g1 = rev_on(gor, g0.hash, d, author=A_B, ts=1)
        g2 = rev_on(gor, g0.hash, d, author=A_C, ts=1)
        m = merge_revision(gor, g1.hash, g2.hash, A_M, 2)
        assert all(l.delta == Delta() for l in m.parents)

    def test_fast_forward_when_ancestor(self):
        gor = GraphOfRevisions("doc:x")
        g0 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=0)
        g1 = rev_on(gor, g0.hash, Delta.of({T[1]}, ()), ts=1)
        assert merge_revision(gor, g0.hash, g1.hash, A_M, 2) is gor.get(g1.hash)
        assert merge_revision(gor, g1.hash, g0.hash, A_M, 2) is gor.get(g1.hash)
        assert merge_revision(gor, g1.hash, g1.hash, A_M, 2) is gor.get(g1.hash)
        with pytest.raises(UnknownRevision):
            merge_revision(gor, g1.hash, b"\x42" * 64, A_M, 2)

    def test_removal_priority(self):
        gor = GraphOfRevisions("doc:x")
        g0 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0], T[1]}, ()), ts=0)
        g1 = rev_on(gor, g0.hash, Delta.of((), {T[0]}), author=A_B, ts=1)
        g2 = rev_on(gor, g0.hash, Delta.of({T[2]}, ()), author=A_C, ts=1)
        m = merge_revision(gor, g1.hash, g2.hash, A_M, 2)
        assert T[0] not in gor.materialize(m.hash)
        assert gor.materialize(m.hash) == {T[1], T[2]}

    def test_merges_of_known_triples_encode_none_again(self, monkeypatch):
        """A triple writes its canonical line when it is made, so merges
        whose links carry existing triples never call _object_text."""
        gor = GraphOfRevisions("doc:x")
        base = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), author=A_M, ts=0)
        heads = []
        for k in range(1, 6):
            d = Delta.of({T[k], triple(f"urn:s:{k}", "urn:p", literal(f'"{k}"\t'))})
            heads.append(rev_on(gor, base.hash, d, author=bytes([k]) * 16).hash)
        calls = []
        encode = triples._object_text
        monkeypatch.setattr(triples, "_object_text", lambda o: calls.append(o) or encode(o))
        merged = heads[0]
        for k, nxt in enumerate(heads[1:], start=2):
            m = merge_revision(gor, merged, nxt, A_M, k)
            assert all(link.delta._text is not None for link in m.parents)
            merged = m.hash
        assert len(gor.materialize(merged)) == 1 + 2 * 5
        assert calls == []
        triple("urn:s:new", "urn:p", "urn:o:new")  # the patch is live
        assert len(calls) == 1

    def test_100_random_splits_against_set_formula_oracle(self):
        rng = random.Random(43)
        for _ in range(100):
            gor = GraphOfRevisions("doc:x")
            base_triples = frozenset(rng.sample(T, rng.randrange(2, 8)))
            g0 = rev_on(gor, ROOT_REVISION.hash, Delta.of(base_triples, ()), ts=0)
            branch = {}
            for author in (A_B, A_C):
                head, graph = g0.hash, base_triples
                for ts in range(1, rng.randrange(2, 5)):
                    nxt = frozenset(rng.sample(T, rng.randrange(1, 8)))
                    head = rev_on(gor, head, delta_compute(graph, nxt), author=author, ts=ts).hash
                    graph = nxt
                branch[author] = (head, graph)
            (h_i, g_i), (h_j, g_j) = branch[A_B], branch[A_C]
            m = merge_revision(gor, h_i, h_j, A_M, 10)
            g_l = base_triples
            r_li, i_li = g_l - g_i, g_i - g_l
            r_lj, i_lj = g_l - g_j, g_j - g_l
            oracle = (g_l - (r_li | r_lj)) | i_li | i_lj
            assert gor.materialize(m.hash) == oracle

    def test_merge_symmetry_and_path_equality_property(self):
        rng = random.Random(4242)
        for _ in range(1000):
            gor, heads = random_dag(rng, rng.randrange(4, 14))
            if len(heads) < 2:
                continue
            a, b = rng.sample(heads, 2)
            m_ab = merge_revision(gor, a, b, A_M, 100)
            g_ab = gor.materialize(m_ab.hash)
            for link in m_ab.parents:
                assert delta_apply(gor.materialize(link.parent), link.delta) == g_ab
            mirror = GraphOfRevisions("doc:rand")
            for r in gor.revisions():
                if r.hash != m_ab.hash and not r.is_root:
                    mirror.insert(r)
            m_ba = merge_revision(mirror, b, a, A_M, 100)
            assert mirror.materialize(m_ba.hash) == g_ab


def branch_delta_by_fold(gor, ancestor, head):
    """Reference for a merge's branch delta: fold the deltas along a
    shortest parent path from ancestor to head (ties on the smaller
    digest), apply the fold to the ancestor's graph and take the delta
    to the result."""
    g_l = gor.materialize(ancestor)
    if ancestor == head:
        return Delta()
    prev, frontier = {}, [head]
    while frontier and ancestor not in prev:
        nxt = []
        for h in sorted(frontier):
            for link in sorted(gor.get(h).parents, key=lambda l: l.parent):
                if link.parent not in prev:
                    prev[link.parent] = (h, link.delta)
                    nxt.append(link.parent)
        frontier = nxt
    path, cur = [], ancestor
    while cur != head:
        cur, delta = prev[cur]
        path.append(delta)
    return delta_compute(g_l, delta_apply(g_l, combine_many(path)))


def merge_by_fold(gor, h_i, h_j, author, ts):
    """Reference merge revision built from `branch_delta_by_fold`."""
    l = gor.common_ancestor(h_i, h_j)
    d_li, d_lj = branch_delta_by_fold(gor, l, h_i), branch_delta_by_fold(gor, l, h_j)
    return make_revision(author, ts, (
        ParentLink(h_i, Delta(d_lj.inserted - d_li.inserted, d_lj.removed - d_li.removed)),
        ParentLink(h_j, Delta(d_li.inserted - d_lj.inserted, d_li.removed - d_lj.removed)),
    ))


class TestMergeAgainstPathFold:
    def test_fold_equals_delta_between_materialized_graphs(self):
        rng = random.Random(5150)
        pairs = 0
        for _ in range(60):
            gor, _ = random_dag(rng, rng.randrange(4, 14))
            for h in sorted(r.hash for r in gor.revisions()):
                for a in sorted(gor.ancestors(h)):
                    fold = branch_delta_by_fold(gor, a, h)
                    assert fold == delta_compute(gor.materialize(a), gor.materialize(h))
                    pairs += 1
        assert pairs > 1000

    def test_merge_equals_merge_built_from_fold(self):
        rng = random.Random(6160)
        merges = 0
        for _ in range(200):
            gor, heads = random_dag(rng, rng.randrange(4, 14))
            if len(heads) < 2:
                continue
            a, b = rng.sample(heads, 2)
            ref = merge_by_fold(gor, a, b, A_M, 100)
            m = merge_revision(gor, a, b, A_M, 100)
            assert m.parents == ref.parents
            assert m.hash == ref.hash
            merges += 1
        assert merges > 100


class TestRebaseAndSquash:
    def test_worked_example_rebase(self):
        gor, g0, g1, g2 = worked_example(local_g2=True)
        new = rebase_revisions(gor, g2.hash, g1.hash, timestamp=5)
        assert len(new) == 1
        assert gor.materialize(new[0].hash) == {T[3], T[4], T[5]}
        assert new[0].parents[0].delta == Delta.of({T[4], T[5]}, {T[1], T[2]})
        assert g2.hash not in gor

    def test_worked_example_rebase_recomputed_deltas(self):
        gor, g0, g1, g2 = worked_example(local_g2=True)
        new = rebase_revisions(gor, g2.hash, g1.hash, timestamp=5, recompute_deltas=True)
        assert new[0].parents[0].delta == Delta.of({T[5]}, {T[2]})
        assert gor.materialize(new[0].hash) == {T[3], T[4], T[5]}

    def test_copies_keep_author_and_change_hash(self):
        gor, g0, g1, g2 = worked_example(local_g2=True)
        new = rebase_revisions(gor, g2.hash, g1.hash, timestamp=5)
        assert new[0].author == A_C
        assert new[0].hash != g2.hash

    def test_rebase_onto_own_parent_is_isomorphic(self):
        gor = GraphOfRevisions("doc:x")
        g0 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=0)
        g1 = rev_on(gor, g0.hash, Delta.of({T[1]}, ()), ts=1, local=True)
        new = rebase_revisions(gor, g1.hash, g0.hash, timestamp=5)
        assert [r.parents[0].delta for r in new] == [Delta.of({T[1]}, ())]
        assert gor.materialize(new[0].hash) == {T[0], T[1]}

    def test_not_local_raises(self):
        gor, g0, g1, g2 = worked_example()
        with pytest.raises(NotLocal):
            rebase_revisions(gor, g2.hash, g1.hash, timestamp=5)

    def test_merge_in_branch_raises_not_linear(self):
        gor, g0, g1, g2 = worked_example()
        m = merge_revision(worked_example()[0], g1.hash, g2.hash, A_M, 2)
        gor.insert(m, local=True)
        extra = rev_on(gor, m.hash, Delta.of({T[6]}, ()), ts=3, local=True)
        fork = rev_on(gor, g0.hash, Delta.of({T[7]}, ()), ts=3)
        with pytest.raises(NotLinear):
            rebase_revisions(gor, extra.hash, fork.hash, timestamp=5)

    def test_long_branches_against_replay_oracle(self):
        rng = random.Random(61)
        gor = GraphOfRevisions("doc:x")
        g0 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=0)
        dest = rev_on(gor, g0.hash, Delta.of({T[1]}, ()), author=A_B, ts=1)
        head, graph = g0.hash, frozenset({T[0]})
        deltas = []
        for ts in range(2, 42):
            nxt = frozenset(rng.sample(T, rng.randrange(1, 9)))
            d = delta_compute(graph, nxt)
            deltas.append(d)
            head = rev_on(gor, head, d, author=A_C, ts=ts, local=True).hash
            graph = nxt
        new = rebase_revisions(gor, head, dest.hash, timestamp=100)
        assert len(new) == 40
        expect = gor.materialize(dest.hash)
        for d in deltas:
            expect = delta_apply(expect, d)
        assert gor.materialize(new[-1].hash) == expect

    def test_squash_single_revision(self):
        gor = GraphOfRevisions("doc:x")
        g0 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=0)
        g1 = rev_on(gor, g0.hash, Delta.of({T[1]}, ()), ts=1, local=True)
        s = squash(gor, g1.hash, timestamp=9)
        assert s.parents[0].delta == Delta.of({T[1]}, ())
        assert s.hash != g1.hash and g1.hash not in gor

    def test_squash_two_revision_branch_matches_combine(self):
        gor = GraphOfRevisions("doc:x")
        g0 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0], T[1], T[2]}, ()), ts=0)
        d1 = Delta.of({T[3], T[4]}, {T[0], T[1]})
        d2 = Delta.of({T[5]}, {T[3]})
        b1 = rev_on(gor, g0.hash, d1, ts=1, local=True)
        b2 = rev_on(gor, b1.hash, d2, ts=2, local=True)
        s = squash(gor, b2.hash, timestamp=9)
        assert s.parents[0].delta == combine(d1, d2)

    def test_squash_then_rebase_equals_plain_rebase_tip(self):
        def build():
            gor = GraphOfRevisions("doc:x")
            g0 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0], T[1]}, ()), ts=0)
            dest = rev_on(gor, g0.hash, Delta.of({T[2]}, {T[0]}), author=A_B, ts=1)
            b1 = rev_on(gor, g0.hash, Delta.of({T[3]}, ()), author=A_C, ts=1, local=True)
            b2 = rev_on(gor, b1.hash, Delta.of({T[4]}, {T[1]}), author=A_C, ts=2, local=True)
            return gor, dest, b2

        gor_a, dest_a, tip_a = build()
        plain = rebase_revisions(gor_a, tip_a.hash, dest_a.hash, timestamp=5)
        gor_b, dest_b, tip_b = build()
        squashed = squash(gor_b, tip_b.hash, timestamp=4)
        moved = rebase_revisions(gor_b, squashed.hash, dest_b.hash, timestamp=5)
        assert len(moved) == 1 and len(plain) == 2
        assert gor_b.materialize(moved[-1].hash) == gor_a.materialize(plain[-1].hash)


class TestHashIntegrityProperty:
    def test_every_stored_revision_rehashes_to_its_key(self):
        rng = random.Random(3)
        gor, _ = random_dag(rng, 25)
        for h, rev in ((r.hash, r) for r in gor.revisions()):
            assert revision_hash(rev.author, rev.timestamp, rev.parents) == h


# -- incremental DAG indexes -------------------------------------------------


def heads_by_scan(gor):
    """Reference for `heads`: every present revision without children."""
    return {h for h in gor._revs if not gor._children.get(h)}


def common_ancestor_by_reaches(gor, a, b):
    """Reference for `common_ancestor`: when one head is an ancestor of
    the other (a plain walk over the history, asked both ways), that
    head; otherwise the revision reached from both with the least summed
    breadth-first distance, then the smaller digest."""
    gor.get(a), gor.get(b)
    if a == b or ancestor_by_walk(gor, a, b):
        return a
    if ancestor_by_walk(gor, b, a):
        return b
    dist_a, dist_b = bfs_distances(gor, a), bfs_distances(gor, b)
    return min(dist_a.keys() & dist_b.keys(), key=lambda h: (dist_a[h] + dist_b[h], h))


def bfs_distances(gor, start):
    """Unit-weight distance from start to every present ancestor."""
    dist, frontier = {start: 0}, [start]
    while frontier:
        nxt = []
        for h in frontier:
            for link in gor.get(h).parents:
                if link.parent not in dist:
                    dist[link.parent] = dist[h] + 1
                    nxt.append(link.parent)
        frontier = nxt
    return dist


def resolved_by_dfs(gor, h):
    """Reference for `resolved`: walk every ancestor of h."""
    stack, seen = [h], set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        rev = gor._revs.get(cur)
        if rev is None:
            return False
        stack.extend(link.parent for link in rev.parents)
    return True


@st.composite
def revision_dags(draw):
    """(revision, local) pairs: each revision's parents are one or two
    earlier revisions (or the root), in an order drawn independently.
    Part of the two-parent revisions are made by `merge_revision` on a
    scratch graph, from two revisions that materialize and where neither
    is an ancestor of the other, so they materialize too; the others
    carry one-triple links from any parents, so their paths mostly
    diverge."""
    revs, scratch = [], GraphOfRevisions("doc:scratch")
    for i in range(draw(st.integers(1, 10))):
        pool = [ROOT_REVISION.hash] + [r.hash for r, _ in revs]
        author = draw(st.sampled_from([A_B, A_C]))
        ready = [h for h in pool if outcome(scratch.materialize, h) is not MergePathDivergence]
        pairs = [(a, b) for a in ready for b in ready if a < b
                 and not ancestor_by_walk(scratch, a, b) and not ancestor_by_walk(scratch, b, a)]
        if pairs and draw(st.booleans()):
            rev = merge_revision(scratch, *draw(st.sampled_from(pairs)), author, i + 1)
        else:
            parents = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
            links = tuple(ParentLink(p, Delta.of({T[(i + k) % len(T)]}, ()))
                          for k, p in enumerate(parents))
            rev = make_revision(author, i + 1, links)
            scratch.insert(rev)
        revs.append((rev, draw(st.booleans())))
    return draw(st.permutations(revs))


OPS = st.lists(st.tuples(st.sampled_from(["remove", "rebase", "squash"]),
                         st.integers(0, 10**6), st.integers(0, 10**6)), max_size=6)


class TestIncrementalIndexes:
    @staticmethod
    def assert_indexes_match(gor, seen):
        assert gor.heads() == heads_by_scan(gor)
        for h in seen:
            assert gor.resolved(h) == resolved_by_dfs(gor, h), h.hex()

    @settings(max_examples=300, deadline=None)
    @given(revision_dags(), st.integers(0, 10), OPS)
    def test_heads_and_resolved_match_full_walks(self, order, held_back, ops):
        """Insert in any order, holding some revisions back, run
        remove / rebase / squash on the partial graph, then insert the
        rest; the indexes equal the full walks after every step."""
        gor = GraphOfRevisions("doc:index")
        seen = {ROOT_REVISION.hash} | {r.hash for r, _ in order}
        cut = max(0, len(order) - held_back)
        for rev, local in order[:cut]:
            gor.insert(rev, local=local)
            self.assert_indexes_match(gor, seen)
        for step, (op, i, j) in enumerate(ops):
            present = sorted(r.hash for r in gor.revisions())
            tips = sorted(h for h in heads_by_scan(gor) if gor.is_local(h)) or present
            a, b = tips[i % len(tips)], present[j % len(present)]
            try:
                if op == "remove":
                    gor.remove([a])
                elif op == "rebase":
                    seen.update(r.hash for r in rebase_revisions(gor, a, b, 100 + step))
                else:
                    seen.add(squash(gor, a, 100 + step).hash)
            except (KeyError, ValueError):
                pass
            self.assert_indexes_match(gor, seen)
        for rev, local in order[cut:]:
            gor.insert(rev, local=local)
            self.assert_indexes_match(gor, seen)

    def test_late_parent_resolves_chain(self):
        gor = GraphOfRevisions("doc:late")
        r1 = make_revision(A_B, 1, (ParentLink(ROOT_REVISION.hash, Delta.of({T[0]}, ())),))
        r2 = make_revision(A_B, 2, (ParentLink(r1.hash, Delta.of({T[1]}, ())),))
        r3 = make_revision(A_C, 3, (ParentLink(r2.hash, Delta.of({T[2]}, ())),
                                    ParentLink(ROOT_REVISION.hash, Delta())))
        for rev in (r3, r2):
            gor.insert(rev)
        assert not any(gor.resolved(r.hash) for r in (r1, r2, r3))
        assert gor.heads() == {r3.hash}
        gor.insert(r1)
        assert all(gor.resolved(r.hash) for r in (r1, r2, r3))
        assert gor.heads() == {r3.hash}


class TestCommonAncestorAgainstReaches:
    @settings(max_examples=200, deadline=None)
    @given(revision_dags(), st.integers(0, 10))
    def test_every_resolved_pair_matches_the_reference(self, order, held_back):
        """Every ordered pair of resolved revisions, the pairs where one
        is an ancestor of the other and each revision with itself
        included, gets the reference's answer."""
        gor = GraphOfRevisions("doc:ancestor")
        for rev, _ in order[:max(0, len(order) - held_back)]:
            gor.insert(rev)
        resolved = sorted(h for h in gor._revs if gor.resolved(h))
        for a in resolved:
            for b in resolved:
                assert gor.common_ancestor(a, b) == common_ancestor_by_reaches(gor, a, b)

    def test_random_dags_with_merges_match_the_reference(self):
        rng = random.Random(29)
        for _ in range(40):
            gor, _ = random_dag(rng, rng.randrange(4, 16), merge_prob=0.4)
            hashes = sorted(r.hash for r in gor.revisions())
            for _ in range(20):
                a, b = rng.choice(hashes), rng.choice(hashes)
                assert gor.common_ancestor(a, b) == common_ancestor_by_reaches(gor, a, b)


class TestMergeCache:
    @settings(max_examples=200, deadline=None)
    @given(revision_dags(), st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
    def test_fresh_graph_materializes_every_merge_to_the_merged_graph(self, order, picks):
        """Merge pairs of revisions that materialize and where neither is
        an ancestor of the other, earlier merges among them, then give
        the same revisions to a graph with nothing cached: each merge
        materializes there to the graph `merge_revision` cached, and to
        the fold.  (Most heads of a drawn DAG sit above a two-parent
        revision whose paths disagree, so the pairs are not limited to
        heads.)"""
        gor = GraphOfRevisions("doc:merge-cache")
        for rev, _ in order:
            gor.insert(rev)
        merged = {}
        for step, i in enumerate(picks):
            ready = [h for h in sorted(gor._revs)
                     if outcome(gor.materialize, h) is not MergePathDivergence]
            pairs = [(a, b) for a in ready for b in ready if a < b
                     and not ancestor_by_walk(gor, a, b) and not ancestor_by_walk(gor, b, a)]
            if not pairs:
                break
            m = merge_revision(gor, *pairs[i % len(pairs)], A_M, 100 + step)
            merged[m.hash] = gor._mat[m.hash]
        fresh = GraphOfRevisions("doc:merge-cache")
        for rev in gor.revisions():
            fresh.insert(rev)
        assert set(fresh._mat) == {ROOT_REVISION.hash}
        for h, graph in merged.items():
            assert fresh.materialize(h) == graph == materialize_by_fold(fresh, h)


# -- is_ancestor ---------------------------------------------------------------


def ancestor_by_walk(gor, a, b):
    """Reference for `is_ancestor`: walk the present history above b
    on every call."""
    if a == b:
        return False
    stack, seen = [b], set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        rev = gor._revs.get(cur)
        if rev is not None:
            if any(link.parent == a for link in rev.parents):
                return True
            stack.extend(link.parent for link in rev.parents)
    return False


class CountingDict(dict):
    """A dict that counts its key lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


class TestAncestry:
    @staticmethod
    def assert_ancestry_matches(gor, seen):
        for b in seen:
            for a in seen:
                assert gor.is_ancestor(a, b) == ancestor_by_walk(gor, a, b)

    @settings(max_examples=200, deadline=None)
    @given(revision_dags(), st.integers(0, 10), OPS)
    def test_is_ancestor_matches_plain_walk(self, order, held_back, ops):
        """Insert with parents held back, query, run remove / rebase /
        squash, insert the rest and put back what was removed; every
        answer equals the plain walk after every step."""
        gor = GraphOfRevisions("doc:ancestry")
        seen = {ROOT_REVISION.hash} | {r.hash for r, _ in order}
        cut = max(0, len(order) - held_back)
        for rev, local in order[:cut]:
            gor.insert(rev, local=local)
            self.assert_ancestry_matches(gor, seen)
        removed = []
        for step, (op, i, j) in enumerate(ops):
            before = list(gor.revisions())
            present = sorted(r.hash for r in before)
            tips = sorted(h for h in heads_by_scan(gor) if gor.is_local(h)) or present
            a, b = tips[i % len(tips)], present[j % len(present)]
            try:
                if op == "remove":
                    gor.remove([a])
                elif op == "rebase":
                    seen.update(r.hash for r in rebase_revisions(gor, a, b, 100 + step))
                else:
                    seen.add(squash(gor, a, 100 + step).hash)
            except (KeyError, ValueError):
                pass
            removed += [r for r in before if r.hash not in gor]
            self.assert_ancestry_matches(gor, seen)
        for rev, local in order[cut:]:
            gor.insert(rev, local=local)
            self.assert_ancestry_matches(gor, seen)
        for rev in removed:
            gor.insert(rev, local=True)
            self.assert_ancestry_matches(gor, seen)

    def test_walk_reaches_only_the_descendants_of_a(self):
        """Asked about the tip of a 2 000-revision chain and a sibling
        of the tip, the answer comes from the tip's (absent) children,
        not from a walk down the sibling's history to the root."""
        gor = GraphOfRevisions("doc:reach")
        chain = [ROOT_REVISION.hash]
        for ts in range(1, 2001):
            chain.append(rev_on(gor, chain[-1], Delta.of({T[ts % 10]}, ()), ts=ts).hash)
        sibling = rev_on(gor, chain[-2], Delta.of({T[0]}, ()), author=A_C, ts=2000).hash
        gor._revs, gor._children = CountingDict(gor._revs), CountingDict(gor._children)
        assert not gor.is_ancestor(chain[-1], sibling)
        assert gor.is_ancestor(chain[-2], sibling)
        lookups = gor._revs.lookups + gor._children.lookups
        assert lookups <= 6
        assert gor.is_ancestor(chain[0], sibling) and not gor.is_ancestor(sibling, chain[0])


# -- materialization against the fold -------------------------------------


def materialize_by_fold(gor, h):
    """Reference for `materialize`: fold the deltas of every revision
    from the root to h, keeping a graph per revision passed (in a dict
    of its own), and compare both parent links of every merge."""
    mat = {ROOT_REVISION.hash: frozenset()}
    stack = [h]
    while stack:
        cur = stack[-1]
        if cur in mat:
            stack.pop()
            continue
        rev = gor._revs.get(cur)
        if rev is None:
            raise UnresolvedAncestor(cur.hex())
        pending = [link.parent for link in rev.parents if link.parent not in mat]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        results = [delta_apply(mat[link.parent], link.delta) for link in rev.parents]
        if rev.is_merge and results[0] != results[1]:
            raise MergePathDivergence(cur.hex())
        mat[cur] = results[0] if results else frozenset()
    return mat[h]


def outcome(materialize, *args):
    """The graph, or the type of the exception raised."""
    try:
        return materialize(*args)
    except (UnresolvedAncestor, MergePathDivergence) as exc:
        return type(exc)


def forged_merge():
    """A hash-valid merge with empty links over two different one-parent
    revisions, and three one-parent revisions below it."""
    gor = GraphOfRevisions("doc:forged")
    a = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), author=A_B)
    b = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[1]}, ()), author=A_C)
    merge = make_revision(A_M, 2, (ParentLink(a.hash, Delta()), ParentLink(b.hash, Delta())))
    gor.insert(merge)
    below = [merge]
    for ts in range(3, 6):
        below.append(rev_on(gor, below[-1].hash, Delta.of({T[ts]}, ()), ts=ts))
    return gor, a, b, below


class TestMaterializeAgainstFold:
    @settings(max_examples=300, deadline=None)
    @given(revision_dags(), st.integers(0, 10), st.randoms(use_true_random=False))
    def test_every_revision_equals_the_fold(self, order, held_back, rng):
        """Insert in any order with some revisions held back and ask for
        revisions in random orders: an unresolved one raises
        `UnresolvedAncestor`, any other equals the fold (or raises
        `MergePathDivergence` where the fold does); once the held-back
        revisions arrive, every revision materializes as the fold."""
        gor = GraphOfRevisions("doc:mat")
        hashes = [ROOT_REVISION.hash] + [r.hash for r, _ in order]
        cut = max(0, len(order) - held_back)
        for rev, local in order[:cut]:
            gor.insert(rev, local=local)
        for h in rng.sample(hashes, len(hashes)):
            if resolved_by_dfs(gor, h):
                assert outcome(gor.materialize, h) == outcome(materialize_by_fold, gor, h)
            else:
                assert outcome(gor.materialize, h) is UnresolvedAncestor
        for rev, local in order[cut:]:
            gor.insert(rev, local=local)
        for h in rng.sample(hashes, len(hashes)):
            assert outcome(gor.materialize, h) == outcome(materialize_by_fold, gor, h)

    def test_a_run_caches_only_its_ends(self):
        gor = GraphOfRevisions("doc:run")
        head = ROOT_REVISION.hash
        for ts in range(1, 301):
            head = rev_on(gor, head, Delta.of({T[ts % 10]}, {T[(ts + 1) % 10]}), ts=ts).hash
        assert gor.materialize(head) == materialize_by_fold(gor, head)
        assert set(gor._mat) == {ROOT_REVISION.hash, head}

    def test_one_call_caches_at_most_one_graph_and_three_per_merge(self):
        rng = random.Random(77)
        for _ in range(30):
            dag, _ = random_dag(rng, rng.randrange(10, 40), merge_prob=0.4)
            merges = sum(r.is_merge for r in dag.revisions())
            gor = GraphOfRevisions("doc:copy")  # nothing cached but the root
            for rev in dag.revisions():
                gor.insert(rev)
            hashes = sorted(r.hash for r in gor.revisions())
            for h in rng.sample(hashes, len(hashes)):
                before = len(gor._mat)
                assert gor.materialize(h) == materialize_by_fold(gor, h)
                assert len(gor._mat) - before <= 1 + 3 * merges

    @pytest.mark.parametrize("ask", [0, 3], ids=["merge", "three-below"])
    def test_divergent_merge_raises_and_caches_neither(self, ask):
        gor, a, b, below = forged_merge()
        with pytest.raises(MergePathDivergence):
            gor.materialize(below[ask].hash)
        assert not any(r.hash in gor._mat for r in below)
        with pytest.raises(MergePathDivergence):
            gor.materialize(below[ask].hash)
        assert gor.materialize(a.hash) == {T[0]}
        assert gor.materialize(b.hash) == {T[1]}
