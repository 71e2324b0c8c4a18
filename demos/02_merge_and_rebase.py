"""Reconciling concurrent edits: merge versus rebase.

Two agents branch off the same base revision; the merge path creates a
two-parent revision reconciling both, the rebase path moves the local
branch on top of the other one.  Both end at the same graph.
"""

from graphsync import Delta, GraphOfRevisions, ParentLink, make_revision, merge_revision, rebase_revisions, squash, triple
from graphsync.revisions import ROOT_REVISION

T = {i: triple(f"urn:t:{i}", "urn:p", f"urn:o:{i}") for i in range(6)}

AGENT_A = b"\x0a" * 16
AGENT_B = b"\x0b" * 16
AGENT_C = b"\x0c" * 16


def build_branches():
    gor = GraphOfRevisions("urn:doc")
    base = make_revision(
        AGENT_A, 0, (ParentLink(ROOT_REVISION.hash, Delta.of({T[0], T[1], T[2]}, ())),)
    )
    gor.insert(base)
    left = make_revision(
        AGENT_B, 1, (ParentLink(base.hash, Delta.of({T[3], T[4]}, {T[0], T[1]})),)
    )
    right = make_revision(
        AGENT_C, 1, (ParentLink(base.hash, Delta.of({T[4], T[5]}, {T[1], T[2]})),)
    )
    gor.insert(left), gor.insert(right, local=True)
    return gor, base, left, right


gor, base, left, right = build_branches()
print("base: ", sorted(t.subject.value for t in gor.materialize(base.hash)))
print("left: ", sorted(t.subject.value for t in gor.materialize(left.hash)))
print("right:", sorted(t.subject.value for t in gor.materialize(right.hash)))
print("heads:", len(gor.heads()))

merged = merge_revision(gor, left.hash, right.hash, AGENT_A, 2)
print("\nafter merge:")
print("  merged graph:", sorted(t.subject.value for t in gor.materialize(merged.hash)))
for link in merged.parents:
    print("  delta from", link.parent.hex()[:8], "-> inserted",
          sorted(t.subject.value for t in link.delta.inserted),
          "removed", sorted(t.subject.value for t in link.delta.removed))
print("  heads:", len(gor.heads()))

# rebase instead: the right branch is still local, so it can be moved
gor2, base2, left2, right2 = build_branches()
moved = rebase_revisions(gor2, right2.hash, left2.hash, timestamp=2)
print("\nafter rebase:")
print("  tip graph:   ", sorted(t.subject.value for t in gor2.materialize(moved[-1].hash)))
print("  linear heads:", len(gor2.heads()))
assert gor2.materialize(moved[-1].hash) == gor.materialize(merged.hash)
print("  merge and rebase agree on the final graph: ok")

# squashing collapses a multi-revision local branch before the move
gor3, base3, left3, right3 = build_branches()
extra = make_revision(AGENT_C, 2, (ParentLink(right3.hash, Delta.of({T[0]}, ())),))
gor3.insert(extra, local=True)
one = squash(gor3, extra.hash, timestamp=3)
moved3 = rebase_revisions(gor3, one.hash, left3.hash, timestamp=4)
print("\nsquash before rebase publishes", len(moved3), "revision instead of 2")
