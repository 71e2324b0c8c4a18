"""Versioned document history: a DAG of revisions whose edges carry deltas.

Every revision is content-addressed by a SHA-512 digest over its author,
timestamp and parent links, so histories can be exchanged and verified
between agents.  A `Revision` is immutable and hashes itself when built;
one from outside (a frame or a log) enters through `verified_revision`,
which checks its claimed digest once.  Whether a revision is still
unpublished (local) is kept by each `GraphOfRevisions`.  Reconciliation
of divergent branches is done either by a two-parent merge revision
(always applicable) or by rebasing a linear, still-local branch onto
the other head.  A merge's branch deltas are the deltas between the
materialized graphs of the divergence point and of each head, which
equal the fold of any parent path between them.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterable

from .triples import Delta, canonical_delta_bytes, delta_apply, delta_compute

HASH_LEN = 64
UUID_LEN = 16
NULL_AUTHOR = b"\x00" * UUID_LEN


class HashMismatch(ValueError):
    """Revision content does not hash to its claimed digest."""


class MalformedRevision(ValueError):
    """A revision from outside has neither one nor two parent links."""


class UnknownRevision(KeyError):
    pass


class UnresolvedAncestor(ValueError):
    """An ancestor of the requested revision has not been received yet."""


class MergePathDivergence(RuntimeError):
    """The two parent paths of a merge revision materialize differently."""


class NotLinear(ValueError):
    pass


class NotLocal(ValueError):
    pass


class EmptyPath(ValueError):
    pass


@dataclass(frozen=True)
class ParentLink:
    parent: bytes
    delta: Delta


@dataclass(frozen=True, slots=True)
class Revision:
    """One node of the history DAG.  ``hash`` is computed from the other
    fields when the revision is built, so a `Revision` always matches
    its digest (`dataclasses.replace` recomputes it too)."""

    hash: bytes = field(init=False)
    author: bytes
    timestamp: int
    parents: tuple[ParentLink, ...]

    def __post_init__(self):
        object.__setattr__(self, "hash", revision_hash(self.author, self.timestamp, self.parents))

    @property
    def is_merge(self) -> bool:
        return len(self.parents) == 2

    @property
    def is_root(self) -> bool:
        return not self.parents


def revision_hash(author: bytes, timestamp: int, parents: Iterable[ParentLink]) -> bytes:
    """SHA-512 over (author uuid, timestamp, per-parent SHA-512 of
    (canonical delta bytes, parent digest))."""
    h = hashlib.sha512()
    h.update(author)
    h.update(struct.pack(">q", timestamp))
    for link in parents:
        inner = hashlib.sha512()
        inner.update(canonical_delta_bytes(link.delta))
        inner.update(link.parent)
        h.update(inner.digest())
    return h.digest()


def make_revision(author: bytes, timestamp: int, parents: Iterable[ParentLink]) -> Revision:
    return Revision(author, timestamp, tuple(parents))


def verified_revision(
    digest: bytes, author: bytes, timestamp: int, parents: Iterable[ParentLink]
) -> Revision:
    """A revision received from outside this process, checked against
    the digest it claims.  Raises `MalformedRevision` unless it has one
    or two parent links (only the root has none, and no one sends it),
    and `HashMismatch` unless its content hashes to `digest`."""
    parents = tuple(parents)
    if not 1 <= len(parents) <= 2:
        raise MalformedRevision(f"{len(parents)} parent links")
    rev = Revision(author, timestamp, parents)
    if rev.hash != digest:
        raise HashMismatch(digest.hex())
    return rev


ROOT_REVISION = make_revision(NULL_AUTHOR, 0, ())


class GraphOfRevisions:
    """All known revisions of one document, keyed by digest.

    Revisions may arrive before their parents; they are stored anyway
    and the unresolved parent digests are reported so the caller can
    request them.  `materialize` replays runs of one-parent revisions in
    place and caches only the graph it is asked for; `merge_revision`
    also caches the merge it makes.  ``_local`` holds the unpublished
    revisions, the only ones that may be rebased, squashed or removed.

    Three indexes are kept up to date by `insert` and `remove`, so the
    per-frame queries cost no walk down the history:

    * ``_children`` maps each present revision, and each missing parent
      of one, to its present children; `is_ancestor` walks up through
      it, so it costs the present descendants of its first argument;
    * ``_heads`` holds exactly the present revisions without a present
      child;
    * ``_resolved`` holds exactly the present revisions whose every
      ancestor is present.  A revision joins it when all its parents are
      in it; when a missing parent arrives, resolution spreads from it
      to its present children through ``_children``.
    """

    def __init__(self, uri: str = ""):
        self.uri = uri
        self.root = ROOT_REVISION
        self._revs: dict[bytes, Revision] = {ROOT_REVISION.hash: ROOT_REVISION}
        self._children: dict[bytes, set[bytes]] = {ROOT_REVISION.hash: set()}
        self._mat: dict[bytes, frozenset] = {ROOT_REVISION.hash: frozenset()}
        self._heads: set[bytes] = {ROOT_REVISION.hash}
        self._resolved: set[bytes] = {ROOT_REVISION.hash}
        # a dict for its insertion order: `unpublished` lists oldest first
        self._local: dict[bytes, None] = {}

    # -- basic access -------------------------------------------------

    def __contains__(self, h: bytes) -> bool:
        return h in self._revs

    def __len__(self) -> int:
        return len(self._revs)

    def get(self, h: bytes) -> Revision:
        try:
            return self._revs[h]
        except KeyError:
            raise UnknownRevision(h.hex()) from None

    def revisions(self) -> Iterable[Revision]:
        return self._revs.values()

    # -- insertion ----------------------------------------------------

    def insert(self, rev: Revision, *, local: bool = False) -> list[bytes]:
        """Insert a revision, marked unpublished when ``local``; a
        revision already present keeps its state.  Returns the parent
        digests not present yet."""
        if rev.hash not in self._revs:
            self._revs[rev.hash] = rev
            if local:
                self._local[rev.hash] = None
            if not self._children.setdefault(rev.hash, set()):
                self._heads.add(rev.hash)
            for link in rev.parents:
                self._children.setdefault(link.parent, set()).add(rev.hash)
                self._heads.discard(link.parent)
            self._spread_resolution(rev.hash)
        return [link.parent for link in rev.parents if link.parent not in self._revs]

    def is_local(self, h: bytes) -> bool:
        return h in self._local

    @property
    def unpublished(self):
        """The local revisions, oldest first, as a read-only view."""
        return self._local.keys()

    def publish(self, h: bytes) -> None:
        self._local.pop(h, None)

    def _spread_resolution(self, h: bytes) -> None:
        """Mark h resolved if all its parents are, then every present
        descendant that this completes."""
        stack = [h]
        while stack:
            cur = stack.pop()
            rev = self._revs.get(cur)
            if rev is None or cur in self._resolved:
                continue
            if all(link.parent in self._resolved for link in rev.parents):
                self._resolved.add(cur)
                stack.extend(self._children[cur])

    def missing_parents(self) -> set[bytes]:
        """Digests referenced as parents but not present."""
        return {h for h in self._children if h not in self._revs}

    def remove(self, hashes: Iterable[bytes]) -> None:
        """Drop revisions (rebased-away locals).  Refuses to drop a
        revision that still has children outside the dropped set."""
        doomed = set(hashes)
        for h in doomed:
            self.get(h)
            if h not in self._local:
                raise NotLocal(h.hex())
            if self._children.get(h, set()) - doomed:
                raise ValueError("cannot remove a revision with live children")
        for h in doomed:
            rev = self._revs.pop(h)
            self._children.pop(h, None)
            self._mat.pop(h, None)
            self._heads.discard(h)
            self._resolved.discard(h)
            self._local.pop(h, None)
            for link in rev.parents:
                kids = self._children.get(link.parent)
                if kids is not None:
                    kids.discard(h)
                    if not kids:
                        if link.parent in self._revs:
                            self._heads.add(link.parent)
                        else:
                            # no present revision references it any more
                            del self._children[link.parent]

    # -- topology -----------------------------------------------------

    def resolved(self, h: bytes) -> bool:
        """True when h and every ancestor of h are present."""
        return h in self._resolved

    def heads(self) -> set[bytes]:
        """Revisions without children (a copy the caller may keep)."""
        return set(self._heads)

    def ancestors(self, h: bytes) -> set[bytes]:
        """All strict ancestors of h (excludes h itself)."""
        self.get(h)
        return set(self._bfs_distances(h)) - {h}

    def is_ancestor(self, a: bytes, b: bytes) -> bool:
        """Strict ancestry: a is reachable from b via parent links.

        A depth-first walk up from a through ``_children`` that stops at
        b, so a miss costs the present descendants of a: few when a is a
        recent head, as the agent's calls pass.  a itself may be missing;
        its present children are indexed all the same."""
        stack, seen = [a], {a}
        while stack:
            for child in self._children.get(stack.pop(), ()):
                if child == b:
                    return True
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False

    def common_ancestor(self, a: bytes, b: bytes) -> bytes:
        """Nearest shared ancestor by one breadth-first walk from each head
        (least summed distance, then smaller digest); the walks also find
        a head that is an ancestor of the other.  Raises
        `UnresolvedAncestor` if a walk meets a missing revision."""
        self.get(a), self.get(b)
        dist_a = self._bfs_distances(a)
        if b in dist_a:
            return b
        dist_b = self._bfs_distances(b)
        if a in dist_b:
            return a
        common = dist_a.keys() & dist_b.keys()
        if not common:
            raise UnresolvedAncestor("no common ancestor reachable")
        return min(common, key=lambda h: (dist_a[h] + dist_b[h], h))

    def _bfs_distances(self, start: bytes) -> dict[bytes, int]:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for h in frontier:
                rev = self._revs.get(h)
                if rev is None:
                    raise UnresolvedAncestor(h.hex())
                for link in rev.parents:
                    if link.parent not in dist:
                        dist[link.parent] = dist[h] + 1
                        nxt.append(link.parent)
            frontier = nxt
        return dist

    def path_revisions(self, ancestor: bytes, descendant: bytes) -> list[Revision]:
        """Revisions strictly above ancestor up to and including
        descendant, along the (unique) linear chain.  Raises NotLinear
        if the chain contains a merge revision."""
        chain = []
        cur = descendant
        while cur != ancestor:
            rev = self.get(cur)
            if rev.is_root:
                raise UnknownRevision(f"{ancestor.hex()} not reachable")
            if rev.is_merge:
                raise NotLinear(cur.hex())
            chain.append(rev)
            cur = rev.parents[0].parent
        chain.reverse()
        return chain

    # -- materialization ----------------------------------------------

    def materialize(self, h: bytes) -> frozenset:
        """Triple set obtained by replaying deltas root-to-h.  For merge
        revisions both parent paths are required to agree.  Raises
        `UnresolvedAncestor` unless h and all its ancestors are present.

        The run of one-parent revisions below h is walked down to the
        nearest graph at hand or merge, and its deltas are replayed in
        order on one mutable set.  The graphs built on the way, of merges
        and their parents, live only in a dict local to the call; only
        the graph of h is cached (`merge_revision` caches the merges it
        makes)."""
        if h not in self._resolved:
            raise UnresolvedAncestor(h.hex())
        mat = self._mat
        graph = mat.get(h)
        if graph is not None:
            return graph
        # the cache, then the graphs this call has built
        built = dict(mat)
        stack = [h]
        while stack:
            top = stack[-1]
            if top in built:
                stack.pop()
                continue
            run = []
            cur = top
            while cur not in built:
                rev = self._revs[cur]
                if len(rev.parents) != 1:
                    break
                run.append(rev.parents[0].delta)
                cur = rev.parents[0].parent
            if cur not in built:
                # a merge (or a root) whose graph is not built yet
                pending = [l.parent for l in rev.parents if l.parent not in built]
                if pending:
                    stack.extend(pending)
                    continue
                results = [delta_apply(built[l.parent], l.delta) for l in rev.parents]
                if rev.is_merge and results[0] != results[1]:
                    raise MergePathDivergence(cur.hex())
                built[cur] = results[0] if results else frozenset()
            if run:
                graph = set(built[cur])
                for delta in reversed(run):
                    graph -= delta.removed
                    graph |= delta.inserted
                built[top] = frozenset(graph)
            stack.pop()
        graph = mat[h] = built[h]
        return graph


# ---------------------------------------------------------------------------
# Delta combination
# ---------------------------------------------------------------------------


def combine(d1: Delta, d2: Delta) -> Delta:
    """Fold two consecutive deltas into one:
    inserted = (I1 \\ R2) | I2, removed = R1 | R2."""
    return Delta((d1.inserted - d2.removed) | d2.inserted, d1.removed | d2.removed)


def combine_many(path: list[Delta]) -> Delta:
    """Left fold of combine over a non-empty delta path."""
    if not path:
        raise EmptyPath("combine_many needs at least one delta")
    acc = path[0]
    for d in path[1:]:
        acc = combine(acc, d)
    return acc


# ---------------------------------------------------------------------------
# Merge / rebase / squash
# ---------------------------------------------------------------------------


def merge_revision(
    gor: GraphOfRevisions,
    h_i: bytes,
    h_j: bytes,
    author: bytes,
    timestamp: int,
) -> Revision:
    """Two-parent revision reconciling the branches at h_i and h_j, with
    the merged graph cached as its materialization (the tests check that
    a fresh graph of revisions rebuilds it from the links).  When one
    head is an ancestor of the other (or they are equal), the descendant
    is returned unchanged and no revision is made."""
    l = gor.common_ancestor(h_i, h_j)
    if l == h_i:
        return gor.get(h_j)
    if l == h_j:
        return gor.get(h_i)

    g_l = gor.materialize(l)
    d_li = delta_compute(g_l, gor.materialize(h_i))
    d_lj = delta_compute(g_l, gor.materialize(h_j))

    merged = (g_l - (d_li.removed | d_lj.removed)) | d_li.inserted | d_lj.inserted
    delta_im = Delta(d_lj.inserted - d_li.inserted, d_lj.removed - d_li.removed)
    delta_jm = Delta(d_li.inserted - d_lj.inserted, d_li.removed - d_lj.removed)

    rev = make_revision(
        author,
        timestamp,
        (ParentLink(h_i, delta_im), ParentLink(h_j, delta_jm)),
    )
    gor.insert(rev)
    gor._mat[rev.hash] = merged
    return rev


def _check_linear_local(gor: GraphOfRevisions, chain: list[Revision]) -> None:
    for idx, rev in enumerate(chain):
        if rev.hash not in gor._local:
            raise NotLocal(rev.hash.hex())
        kids = gor._children.get(rev.hash, set())
        expected = {chain[idx + 1].hash} if idx + 1 < len(chain) else set()
        if kids != expected:
            raise NotLinear(rev.hash.hex())


def rebase_revisions(
    gor: GraphOfRevisions,
    h_m: bytes,
    h_k: bytes,
    timestamp: int,
    recompute_deltas: bool = False,
) -> list[Revision]:
    """Move the linear local branch ending at h_m on top of h_k.

    Each source revision is copied in order with the same author and
    delta (or, with recompute_deltas, the delta recomputed against its
    new parent); the originals are removed.  Returns the copies in
    order.
    """
    ancestor = gor.common_ancestor(h_m, h_k)
    chain = gor.path_revisions(ancestor, h_m)
    _check_linear_local(gor, chain)

    new_revs: list[Revision] = []
    next_parent = h_k
    for rev in chain:
        delta = rev.parents[0].delta
        if recompute_deltas:
            base = gor.materialize(next_parent)
            delta = delta_compute(base, delta_apply(base, delta))
        copy = make_revision(rev.author, timestamp, (ParentLink(next_parent, delta),))
        gor.insert(copy, local=True)
        new_revs.append(copy)
        next_parent = copy.hash
    gor.remove(rev.hash for rev in chain)
    return new_revs


def squash(
    gor: GraphOfRevisions,
    tip: bytes,
    timestamp: int,
) -> Revision:
    """Collapse the maximal linear local chain ending at tip into a
    single revision carrying the combined delta."""
    chain: list[Revision] = []
    cur = tip
    while True:
        rev = gor.get(cur)
        if cur not in gor._local or rev.is_merge:
            break
        chain.append(rev)
        cur = rev.parents[0].parent
    if not chain:
        raise NotLocal(tip.hex())
    chain.reverse()
    _check_linear_local(gor, chain)
    base = chain[0].parents[0].parent
    combined = combine_many([r.parents[0].delta for r in chain])
    squashed = make_revision(chain[-1].author, timestamp, (ParentLink(base, combined),))
    gor.insert(squashed, local=True)
    gor.remove(rev.hash for rev in chain)
    return squashed
