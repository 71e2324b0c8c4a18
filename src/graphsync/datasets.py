"""Dataset metadata and payload handling.

Datasets are opaque payloads (sensor blobs) described by a handful of
triples in a shared document: a rectangular coverage geometry, a type,
optional includes, and agent relations (has / created_by /
created_from).  Only the metadata travels with document
synchronization; payload bytes move exclusively through the transfer
protocol into a per-dataset store file.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .transfer import split_chunks
from .triples import Term, Triple, iri, literal
from .wire import AgentId

NS = "http://aiics.example.org/ns#"
GEO = "http://www.opengis.net/ont/geosparql#"

PRED_GEOMETRY = iri(GEO + "hasGeometry")
PRED_TYPE = iri(NS + "dataset_type")
PRED_INCLUDE = iri(NS + "dataset_include")
PRED_HAS = iri(NS + "has")
PRED_CREATED_BY = iri(NS + "created_by")
PRED_CREATED_FROM = iri(NS + "created_from")

WKT = "http://www.opengis.net/ont/geosparql#wktLiteral"

REL_HAS = "has"
REL_CREATED_BY = "created_by"
REL_CREATED_FROM = "created_from"

_REL_PRED = {
    REL_HAS: PRED_HAS,
    REL_CREATED_BY: PRED_CREATED_BY,
    REL_CREATED_FROM: PRED_CREATED_FROM,
}


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in abstract map units."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self):
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError("rectangle corners out of order")

    @property
    def area(self) -> float:
        return (self.max_x - self.min_x) * (self.max_y - self.min_y)

    def intersects(self, other: "Rect") -> bool:
        """Positive-area overlap; touching edges do not count."""
        return (
            self.min_x < other.max_x
            and other.min_x < self.max_x
            and self.min_y < other.max_y
            and other.min_y < self.max_y
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        if not self.intersects(other):
            return None
        return Rect(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def to_wkt(self) -> str:
        x0, y0, x1, y1 = self.min_x, self.min_y, self.max_x, self.max_y
        return f"POLYGON(({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))"

    @staticmethod
    def from_wkt(text: str) -> "Rect":
        nums = re.findall(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?", text)
        if not text.strip().upper().startswith("POLYGON") or len(nums) != 10:
            raise ValueError(f"not a 5-point rectangle polygon: {text!r}")
        xs = [float(nums[i]) for i in range(0, 10, 2)]
        ys = [float(nums[i]) for i in range(1, 10, 2)]
        return Rect(min(xs), min(ys), max(xs), max(ys))


@dataclass(frozen=True)
class DatasetMeta:
    uri: str
    coverage: Rect
    dataset_type: str
    includes: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.uri in self.includes:
            raise ValueError("a dataset cannot include itself")


@dataclass(frozen=True)
class DatasetRelation:
    agent: AgentId
    dataset: str
    kind: str

    def __post_init__(self):
        if self.kind not in _REL_PRED:
            raise ValueError(f"unknown relation kind {self.kind!r}")


def relation_triple(rel: DatasetRelation) -> Triple:
    """agent has dataset, or dataset created_by / created_from agent."""
    if rel.kind == REL_HAS:
        return Triple(iri(rel.agent.uri), PRED_HAS, iri(rel.dataset))
    return Triple(iri(rel.dataset), _REL_PRED[rel.kind], iri(rel.agent.uri))


def dataset_to_triples(meta: DatasetMeta, relations: Iterable[DatasetRelation] = ()) -> set[Triple]:
    """Deterministic triple encoding of a dataset description."""
    s = iri(meta.uri)
    out = {
        Triple(s, PRED_GEOMETRY, literal(meta.coverage.to_wkt(), WKT)),
        Triple(s, PRED_TYPE, iri(meta.dataset_type)),
    }
    for inc in meta.includes:
        out.add(Triple(s, PRED_INCLUDE, iri(inc)))
    out.update(relation_triple(rel) for rel in relations)
    return out


def datasets_from_triples(triples: Iterable[Triple]) -> dict[str, DatasetMeta]:
    """Parse dataset descriptions back out of a graph; inverse of
    dataset_to_triples on the metadata part."""
    geoms: dict[str, Rect] = {}
    types: dict[str, str] = {}
    includes: dict[str, set[str]] = {}
    for t in triples:
        if t.predicate == PRED_GEOMETRY and t.object.kind == "literal":
            geoms[t.subject.value] = Rect.from_wkt(t.object.value)
        elif t.predicate == PRED_TYPE:
            types[t.subject.value] = t.object.value
        elif t.predicate == PRED_INCLUDE:
            includes.setdefault(t.subject.value, set()).add(t.object.value)
    out = {}
    for uri, rect in geoms.items():
        if uri in types:
            out[uri] = DatasetMeta(
                uri, rect, types[uri], frozenset(includes.get(uri, ()))
            )
    return out


def holders_of(triples: Iterable[Triple], dataset_uri: str) -> set[str]:
    return {
        t.subject.value
        for t in triples
        if t.predicate == PRED_HAS and t.object == iri(dataset_uri)
    }


def discover(doc_graph, region: Rect) -> list[tuple[str, tuple[str, ...]]]:
    """Datasets whose coverage intersects the region, each with the
    URIs of the agents holding the payload; sorted by dataset URI."""
    triples = frozenset(doc_graph)
    found = []
    for uri, meta in sorted(datasets_from_triples(triples).items()):
        if meta.coverage.intersects(region):
            found.append((uri, tuple(sorted(holders_of(triples, uri)))))
    return found


def remaining_region(target: Rect, covered: Iterable[Rect]) -> list[Rect]:
    """Disjoint rectangle decomposition of target minus the union of the
    covered rectangles."""
    pieces = [target]
    for cov in covered:
        nxt: list[Rect] = []
        for piece in pieces:
            hit = piece.intersection(cov)
            if hit is None:
                nxt.append(piece)
                continue
            if piece.min_y < hit.min_y:
                nxt.append(Rect(piece.min_x, piece.min_y, piece.max_x, hit.min_y))
            if hit.max_y < piece.max_y:
                nxt.append(Rect(piece.min_x, hit.max_y, piece.max_x, piece.max_y))
            if piece.min_x < hit.min_x:
                nxt.append(Rect(piece.min_x, hit.min_y, hit.min_x, hit.max_y))
            if hit.max_x < piece.max_x:
                nxt.append(Rect(hit.max_x, hit.min_y, piece.max_x, hit.max_y))
        pieces = nxt
    return [p for p in pieces if p.area > 0]


# ---------------------------------------------------------------------------
# Payload store
# ---------------------------------------------------------------------------


@dataclass
class Payload:
    dataset: str
    blob_type: str
    chunk_size: int
    body: bytes

    @property
    def total_bytes(self) -> int:
        return len(self.body)

    @property
    def chunks(self) -> list[bytes]:
        return split_chunks(self.body, self.chunk_size)

    def data(self) -> bytes:
        return self.body


_MAGIC = b"GSPL"


def _read_header(fh) -> tuple[str, str, int, int]:
    """(uri, blob type, chunk size, total bytes) from a payload file's
    header; leaves fh at the first payload byte."""
    if fh.read(4) != _MAGIC:
        raise ValueError("bad payload file")
    uri_len, type_len = struct.unpack(">HH", fh.read(4))
    uri = fh.read(uri_len).decode("utf-8")
    blob_type = fh.read(type_len).decode("utf-8")
    chunk_size, total = struct.unpack(">IQ", fh.read(12))
    return uri, blob_type, chunk_size, total


class PayloadStore:
    """One file per dataset: header (uri, blob type, chunk size, total
    bytes) followed by the raw chunk bytes.  Commits are atomic (write
    to a temp file, then rename); aborting a partial transfer leaves
    nothing behind."""

    def __init__(self, root):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, dataset_uri: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", dataset_uri)
        return os.path.join(self.root, safe + ".payload")

    def commit(self, dataset_uri: str, blob_type: str, data: bytes,
               chunk_size: int = 64 * 1024) -> None:
        path = self._path(dataset_uri)
        tmp = path + ".tmp"
        uri_b = dataset_uri.encode("utf-8")
        type_b = blob_type.encode("utf-8")
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack(">HH", len(uri_b), len(type_b)))
            fh.write(uri_b)
            fh.write(type_b)
            fh.write(struct.pack(">IQ", chunk_size, len(data)))
            fh.write(data)
        os.replace(tmp, path)

    def abort(self, dataset_uri: str) -> None:
        for path in (self._path(dataset_uri), self._path(dataset_uri) + ".tmp"):
            if os.path.exists(path):
                os.remove(path)

    def has(self, dataset_uri: str) -> bool:
        return os.path.exists(self._path(dataset_uri))

    def list_datasets(self) -> list[str]:
        """URIs of all committed payloads (read back from the headers)."""
        out = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".payload"):
                continue
            with open(os.path.join(self.root, name), "rb") as fh:
                try:
                    out.append(_read_header(fh)[0])
                except ValueError:
                    continue
        return out

    def load(self, dataset_uri: str) -> Payload:
        path = self._path(dataset_uri)
        if not os.path.exists(path):
            raise KeyError(dataset_uri)
        with open(path, "rb") as fh:
            uri, blob_type, chunk_size, total = _read_header(fh)
            data = fh.read(total)
        if len(data) != total:
            raise ValueError("truncated payload file")
        return Payload(uri, blob_type, chunk_size, data)
