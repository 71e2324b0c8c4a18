"""Append-only record log persisting one document's revision history.

Three record kinds mirror the storage layout of the in-memory model:
triple records for the head graph, revision records for the metadata,
and delta records for the parent edges.  Records are length-prefixed
binary frames; reloading rebuilds the graph of revisions, re-verifies
every revision hash and cross-checks the head materialization against
the stored triples.  A revision record's signature field is written
empty and skipped on read.
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

REC_HEADER = 0
REC_TRIPLE = 1
REC_REVISION = 2
REC_DELTA = 3

_KIND_BYTE = {IRI: 0, LITERAL: 1}
_BYTE_KIND = {0: IRI, 1: LITERAL}


class CorruptLog(ValueError):
    pass


def _pack_bytes(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptLog("truncated record")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def take_bytes(self) -> bytes:
        (n,) = struct.unpack(">I", self.take(4))
        return self.take(n)


def _encode_term(t: Term) -> bytes:
    return (
        bytes([_KIND_BYTE[t.kind]])
        + _pack_bytes(t.value.encode("utf-8"))
        + _pack_bytes((t.datatype or "").encode("utf-8"))
    )


def _decode_term(r: _Reader) -> Term:
    kind = _BYTE_KIND[r.take(1)[0]]
    value = r.take_bytes().decode("utf-8")
    datatype = r.take_bytes().decode("utf-8") or None
    return Term(kind, value, datatype)


def _write_record(fh: BinaryIO, kind: int, body: bytes) -> None:
    fh.write(struct.pack(">BI", kind, len(body)) + body)


def save_document(gor: GraphOfRevisions, path, head: bytes | None = None) -> None:
    """Write the full log: header, revisions in parent-first order, one
    delta record per edge, then the head graph's triples."""
    heads = sorted(gor.heads())
    if head is None:
        head = heads[0] if heads else gor.root.hash
    order = _topo_order(gor)
    with open(path, "wb") as fh:
        _write_record(fh, REC_HEADER, _pack_bytes(gor.uri.encode("utf-8")) + head)
        for rev in order:
            if rev.is_root:
                continue
            body = (
                rev.hash
                + rev.author
                + struct.pack(">qB?", rev.timestamp, len(rev.parents), gor.is_local(rev.hash))
                + _pack_bytes(b"")
            )
            _write_record(fh, REC_REVISION, body)
            for link in rev.parents:
                delta_text = delta_serialize(link.delta).encode("utf-8")
                _write_record(
                    fh, REC_DELTA, link.parent + rev.hash + _pack_bytes(delta_text)
                )
        for t in sorted(gor.materialize(head), key=canonical_key):
            _write_record(
                fh,
                REC_TRIPLE,
                _encode_term(t.subject) + _encode_term(t.predicate) + _encode_term(t.object),
            )


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
    triples: set[Triple] = set()

    try:
        pos = 0
        while pos < len(data):
            if pos + 5 > len(data):
                raise CorruptLog("truncated frame")
            kind, length = struct.unpack(">BI", data[pos : pos + 5])
            pos += 5
            if pos + length > len(data):
                raise CorruptLog("truncated frame body")
            r = _Reader(data[pos : pos + length])
            pos += length
            if kind == REC_HEADER:
                uri = r.take_bytes().decode("utf-8")
                head = r.take(HASH_LEN)
            elif kind == REC_REVISION:
                h = r.take(HASH_LEN)
                author = r.take(16)
                timestamp, n_parents, local = struct.unpack(">qBB", r.take(10))
                if local > 1:
                    raise CorruptLog(f"local flag {local} is neither 0 nor 1")
                r.take_bytes()  # signature
                revisions[h] = (author, timestamp, n_parents, local, [])
            elif kind == REC_DELTA:
                parent = r.take(HASH_LEN)
                child = r.take(HASH_LEN)
                delta = delta_parse(r.take_bytes().decode("utf-8"))
                if child not in revisions:
                    raise CorruptLog("delta record before its revision record")
                revisions[child][4].append(ParentLink(parent, delta))
            elif kind == REC_TRIPLE:
                triples.add(Triple(_decode_term(r), _decode_term(r), _decode_term(r)))
            else:
                raise CorruptLog(f"unknown record kind {kind}")
    except CorruptLog:
        raise
    except (ValueError, KeyError, struct.error) as exc:
        # a damaged byte: bad UTF-8, delta text or term kind
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
    if gor.materialize(head) != frozenset(triples):
        raise CorruptLog("head graph does not match stored triples")
    return gor, head
