"""Append-only record log persisting one document's revision history.

Three record kinds mirror the storage layout of the in-memory model:
triple records for the head graph, revision records for the metadata,
and delta records for the parent edges.  A record is a kind byte and an
`I`-prefixed body, made and read with `wire.pack` and `wire.Reader`;
reloading rebuilds the graph of revisions and re-verifies every revision
hash.  A triple record is not decoded on reload: the set of record
bodies must equal the set of re-encoded triples of the head
materialization, in any order.  The term encoding is injective, so
bytes equal exactly when triples do.  A revision or delta record is one
`struct` head, then a counted tail: the signature, written empty and
skipped on read, or the delta text.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from .revisions import (
    HASH_LEN,
    GraphOfRevisions,
    ParentLink,
    Revision,
    verified_revision,
)
from .triples import Term, Triple, canonical_key, delta_parse, delta_serialize, IRI, LITERAL
from .wire import Reader, pack

REC_HEADER = 0
REC_TRIPLE = 1
REC_REVISION = 2
REC_DELTA = 3

_REVISION = struct.Struct(">64s16sqBBI")  # hash, author, time, parents, local, signature
_DELTA = struct.Struct(">64s64sI")  # parent, child, delta text length

_KIND_BYTE = {IRI: 0, LITERAL: 1}


class CorruptLog(ValueError):
    pass


def _encode_term(t: Term) -> bytes:
    return (
        bytes([_KIND_BYTE[t.kind]])
        + pack(t.value.encode("utf-8"), "I")
        + pack((t.datatype or "").encode("utf-8"), "I")
    )


def _encode_triple(t: Triple) -> bytes:
    return _encode_term(t.subject) + _encode_term(t.predicate) + _encode_term(t.object)


def _write_record(fh: BinaryIO, kind: int, body: bytes) -> None:
    fh.write(bytes([kind]) + pack(body, "I"))


def save_document(gor: GraphOfRevisions, path, head: bytes | None = None) -> None:
    """Write the full log: header, revisions in parent-first order, one
    delta record per edge, then the head graph's triples."""
    heads = sorted(gor.heads())
    if head is None:
        head = heads[0] if heads else gor.root.hash
    order = _topo_order(gor)
    with open(path, "wb") as fh:
        _write_record(fh, REC_HEADER, pack(gor.uri.encode("utf-8"), "I") + head)
        for rev in order:
            if rev.is_root:
                continue
            local = gor.is_local(rev.hash)
            _write_record(fh, REC_REVISION, _REVISION.pack(
                rev.hash, rev.author, rev.timestamp, len(rev.parents), local, 0))
            for link in rev.parents:
                delta_text = delta_serialize(link.delta).encode("utf-8")
                body = _DELTA.pack(link.parent, rev.hash, len(delta_text)) + delta_text
                _write_record(fh, REC_DELTA, body)
        for t in sorted(gor.materialize(head), key=canonical_key):
            _write_record(fh, REC_TRIPLE, _encode_triple(t))


def _topo_order(gor: GraphOfRevisions) -> list[Revision]:
    order, placed = [], set()
    pending = sorted(gor.revisions(), key=lambda r: (r.timestamp, r.hash))
    while pending:
        progressed = False
        rest = []
        for rev in pending:
            if all(l.parent in placed or l.parent not in gor for l in rev.parents):
                order.append(rev)
                placed.add(rev.hash)
                progressed = True
            else:
                rest.append(rev)
        if not progressed:
            raise CorruptLog("cycle in revision graph")
        pending = rest
    return order


def load_document(path) -> tuple[GraphOfRevisions, bytes]:
    """Reload a log written by save_document; returns (gor, head hash).
    Raises CorruptLog, and nothing else, on a damaged log: framing
    damage, an undecodable record, a hash mismatch, or a head graph that
    does not match the stored triples."""
    with open(path, "rb") as fh:
        data = fh.read()

    uri, head = "", b""
    revisions: dict[bytes, tuple] = {}
    head_records: set[bytes] = set()
    lines: dict = {}  # shared by every delta record, see delta_parse

    log = Reader(data)
    try:
        while log.pos < len(data):
            kind = log.take(1)[0]
            body = log.take_prefixed("I")
            if kind == REC_TRIPLE:
                head_records.add(body)
                continue
            r = Reader(body)
            if kind == REC_HEADER:
                uri = r.take_prefixed("I").decode("utf-8")
                head = r.take(HASH_LEN)
            elif kind == REC_REVISION:
                h, author, timestamp, n_parents, local, signature = r.unpack(_REVISION)
                if local > 1:
                    raise CorruptLog(f"local flag {local} is neither 0 nor 1")
                r.take(signature)
                revisions[h] = (author, timestamp, n_parents, local, [])
            elif kind == REC_DELTA:
                parent, child, size = r.unpack(_DELTA)
                delta = delta_parse(r.take(size).decode("utf-8"), lines)
                if child not in revisions:
                    raise CorruptLog("delta record before its revision record")
                revisions[child][4].append(ParentLink(parent, delta))
            else:
                raise CorruptLog(f"unknown record kind {kind}")
            r.done()
    except CorruptLog:
        raise
    except (ValueError, KeyError) as exc:
        # a damaged byte: bad record length, UTF-8 or delta text
        raise CorruptLog(f"undecodable record: {exc!r}") from exc

    gor = GraphOfRevisions(uri)
    for h, (author, timestamp, n_parents, local, links) in revisions.items():
        if len(links) != n_parents:
            raise CorruptLog("parent count mismatch")
        try:
            rev = verified_revision(h, author, timestamp, links)
        except ValueError as exc:
            raise CorruptLog(f"revision rejected: {exc}") from exc
        gor.insert(rev, local=local)
    if gor.missing_parents():
        raise CorruptLog("log references unknown parents")
    if head not in gor:
        raise CorruptLog("head revision missing")
    if {_encode_triple(t) for t in gor.materialize(head)} != head_records:
        raise CorruptLog("head graph does not match stored triples")
    return gor, head
