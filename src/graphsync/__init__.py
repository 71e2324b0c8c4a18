"""Decentralized synchronization of versioned RDF graphs.

The library keeps one shared graph per document as a hash-chained
history of deltas, reconciles concurrent edits with merge and rebase,
elects a per-document merge master over lossy links, and moves bulk
dataset payloads on demand.  A deterministic discrete-event network
simulator drives the protocol end to end.
"""

from .triples import (
    Delta,
    MalformedDelta,
    Term,
    Triple,
    canonical_delta_bytes,
    delta_apply,
    delta_compute,
    delta_invert,
    delta_parse,
    delta_serialize,
    iri,
    literal,
    triple,
)
from .revisions import (
    GraphOfRevisions,
    ParentLink,
    Revision,
    combine,
    combine_many,
    make_revision,
    merge_revision,
    rebase_revisions,
    revision_hash,
    squash,
)

__all__ = [
    "Delta",
    "GraphOfRevisions",
    "MalformedDelta",
    "ParentLink",
    "Revision",
    "Term",
    "Triple",
    "canonical_delta_bytes",
    "combine",
    "combine_many",
    "delta_apply",
    "delta_compute",
    "delta_invert",
    "delta_parse",
    "delta_serialize",
    "iri",
    "literal",
    "make_revision",
    "merge_revision",
    "rebase_revisions",
    "revision_hash",
    "squash",
    "triple",
]
