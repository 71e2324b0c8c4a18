"""Binary message frames exchanged between agents.

Frame layout: one kind byte, a length-prefixed document (or dataset)
URI, then the message body.  Digests travel as raw 64 bytes, agent
UUIDs as raw 16 bytes, and deltas as their canonical text encoding.
The layouts are frozen; golden-frame tests pin the exact bytes.  Each
of nine kinds is one `_TABLE` row, read by both `encode_frame` and
`decode_frame`: a `struct` head over the fields in dataclass order, then
at most one tail counted by the head's last field.  (`16s` and `64s`
pad a short value; no message carries one.)  Status and revision frames
are coded by hand; a status master flag other than 0 or 1 is malformed,
and a revision frame's signature field is written empty and skipped on
read.  Decoding checks the revision's digest (`verified_revision`), and
`Reader` reads in place from an offset, without copying the body.
Elsewhere in the package only `NetworkSim.advance` reads frame bytes: it
logs each delivery's kind byte raw, and `netsim.EventLog` turns it into
its `KIND_NAMES` label when a row is read or written.  `NetworkSim.send`
keys its memo of decode cells by the whole frame bytes, which it hashes
and compares but does not parse.  The revision log packs and reads its
records with `pack` and `Reader`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from operator import attrgetter

from .revisions import HASH_LEN, UUID_LEN, ParentLink, Revision, verified_revision
from .triples import delta_parse, delta_serialize

KIND_STATUS = 1
KIND_REVISION = 2
KIND_REVISION_REQUEST = 3
KIND_VOTE = 4
KIND_READY = 10
KIND_DATA = 11
KIND_RESEND_REQUEST = 12
KIND_ERROR = 13
KIND_THROTTLE_UP = 14
KIND_THROTTLE_DOWN = 15
KIND_FINISHED = 16

KIND_NAMES = {
    KIND_STATUS: "status",
    KIND_REVISION: "revision",
    KIND_REVISION_REQUEST: "revision-request",
    KIND_VOTE: "vote",
    KIND_READY: "ready",
    KIND_DATA: "data",
    KIND_RESEND_REQUEST: "resend-request",
    KIND_ERROR: "error",
    KIND_THROTTLE_UP: "throttle-up",
    KIND_THROTTLE_DOWN: "throttle-down",
    KIND_FINISHED: "finished",
}

# the widest count of a revision or resend request ('>H') and round of a vote ('>I')
MAX_WANTED = 0xFFFF
MAX_ROUND = 0xFFFFFFFF


class MalformedFrame(ValueError):
    pass


@dataclass(frozen=True, order=True)
class AgentId:
    """Stable agent identity; the uuid is the total order used by the
    protocol (lowest uuid starts elections, breaks ties)."""

    uuid: bytes
    name: str = ""
    public_key: bytes = b""

    def __post_init__(self):
        if len(self.uuid) != UUID_LEN:
            raise ValueError("agent uuid must be 16 bytes")

    @property
    def uri(self) -> str:
        return f"urn:agent:{self.uuid.hex()}"


@dataclass(frozen=True)
class StatusMsg:
    sender: AgentId
    document_uri: str
    head_hash: bytes
    is_merge_master: bool


@dataclass(frozen=True)
class RevisionMsg:
    document_uri: str
    revision: Revision


@dataclass(frozen=True)
class RevisionRequestMsg:
    document_uri: str
    requester: bytes
    wanted: tuple[bytes, ...]

    def __post_init__(self):
        if not self.wanted:
            raise ValueError("revision request must name at least one digest")


@dataclass(frozen=True)
class VoteMsg:
    document_uri: str
    voter: bytes
    candidate: bytes
    round: int
    vote_timestamp: int
    election_timestamp: int


@dataclass(frozen=True)
class ReadyMsg:
    dataset_uri: str
    receiver: bytes


@dataclass(frozen=True)
class DataMsg:
    dataset_uri: str
    sequence: int
    data: bytes


@dataclass(frozen=True)
class ResendRequestMsg:
    dataset_uri: str
    requester: bytes
    sequences: tuple[int, ...]


@dataclass(frozen=True)
class ErrorMsg:
    dataset_uri: str
    sender: bytes


@dataclass(frozen=True)
class ThrottleUpMsg:
    dataset_uri: str
    sender: bytes


@dataclass(frozen=True)
class ThrottleDownMsg:
    dataset_uri: str
    sender: bytes


@dataclass(frozen=True)
class FinishedMsg:
    dataset_uri: str
    last_sequence: int  # -1 for an empty payload


def pack(b: bytes, width: str = "H") -> bytes:
    """b prefixed by its length, packed big-endian as struct code `width`."""
    return struct.pack(">" + width, len(b)) + b


def _frame(kind: int, uri: str, *body: bytes) -> bytes:
    return b"".join((bytes([kind]), pack(uri.encode("utf-8")), *body))


def _row(kind: int, cls, head: str, item=None):
    """A table row: `head` packs the fields after the URI in dataclass
    order; with an `item` (`bytes` for raw bytes, else a struct code),
    the head's last field counts the items of the last field."""
    names = [f.name for f in fields(cls)]
    if isinstance(item, str):
        item = struct.Struct(">" + item)
    return kind, cls, struct.Struct(">" + head), item, attrgetter(*names)


_TABLE = [
    _row(KIND_REVISION_REQUEST, RevisionRequestMsg, "16sH", "64s"),
    _row(KIND_VOTE, VoteMsg, "16s16sIqq"),
    _row(KIND_READY, ReadyMsg, "16s"),
    _row(KIND_DATA, DataMsg, "QI", bytes),
    _row(KIND_RESEND_REQUEST, ResendRequestMsg, "16sH", "Q"),
    _row(KIND_ERROR, ErrorMsg, "16s"),
    _row(KIND_THROTTLE_UP, ThrottleUpMsg, "16s"),
    _row(KIND_THROTTLE_DOWN, ThrottleDownMsg, "16s"),
    _row(KIND_FINISHED, FinishedMsg, "q"),
]
_BY_CLASS = {row[1]: row for row in _TABLE}
_BY_KIND = {row[0]: row for row in _TABLE}


def encode_frame(msg) -> bytes:
    row = _BY_CLASS.get(type(msg))
    if row is not None:
        kind, _, head, item, get = row
        uri, *values = get(msg)
        if item is None:
            return _frame(kind, uri, head.pack(*values))
        items = values.pop()
        tail = items if item is bytes else b"".join(map(item.pack, items))
        return _frame(kind, uri, head.pack(*values, len(items)), tail)
    if isinstance(msg, StatusMsg):
        body = (
            msg.sender.uuid
            + pack(msg.sender.name.encode("utf-8"))
            + pack(msg.sender.public_key)
            + msg.head_hash
            + bytes([1 if msg.is_merge_master else 0])
        )
        return _frame(KIND_STATUS, msg.document_uri, body)
    if isinstance(msg, RevisionMsg):
        rev = msg.revision
        body = (
            rev.author
            + struct.pack(">q", rev.timestamp)
            + rev.hash
            + pack(b"")
            + bytes([len(rev.parents)])
        )
        for link in rev.parents:
            body += link.parent + pack(delta_serialize(link.delta).encode("utf-8"), "I")
        return _frame(KIND_REVISION, msg.document_uri, body)
    raise TypeError(f"not a wire message: {type(msg).__name__}")


class Reader:
    """Bounds-checked reads in place, from an offset into the bytes; a
    short read or a leftover byte raises MalformedFrame."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedFrame("truncated body")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, layout: struct.Struct) -> tuple:
        pos = self.pos
        if pos + layout.size > len(self.data):
            raise MalformedFrame("truncated body")
        self.pos = pos + layout.size
        return layout.unpack_from(self.data, pos)

    def take_prefixed(self, width: str = "H") -> bytes:
        (n,) = self.unpack(_LENGTHS[width])
        return self.take(n)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise MalformedFrame("trailing bytes")


_LENGTHS = {"H": struct.Struct(">H"), "I": struct.Struct(">I")}


def decode_frame(raw: bytes):
    if len(raw) < 3:
        raise MalformedFrame("frame too short")
    kind = raw[0]
    body = Reader(raw, 1)
    uri = body.take_prefixed().decode("utf-8")

    row = _BY_KIND.get(kind)
    if row is not None:
        _, cls, head, item, _ = row
        *values, last = body.unpack(head)  # with an item, last counts the tail
        if item is bytes:
            last = body.take(last)
        elif item is not None:
            last = tuple(x for (x,) in item.iter_unpack(body.take(last * item.size)))
        body.done()
        return cls(uri, *values, last)
    if kind == KIND_STATUS:
        uuid = body.take(UUID_LEN)
        name = body.take_prefixed().decode("utf-8")
        key = body.take_prefixed()
        head = body.take(HASH_LEN)
        master = body.take(1)[0]
        if master > 1:
            raise MalformedFrame(f"master flag {master} is neither 0 nor 1")
        body.done()
        return StatusMsg(AgentId(uuid, name, key), uri, head, master == 1)
    if kind == KIND_REVISION:
        author = body.take(UUID_LEN)
        (timestamp,) = struct.unpack(">q", body.take(8))
        digest = body.take(HASH_LEN)
        body.take_prefixed()  # signature
        n_parents = body.take(1)[0]
        links = []
        lines: dict = {}  # shared by the frame's deltas, see delta_parse
        for _ in range(n_parents):
            parent = body.take(HASH_LEN)
            delta = delta_parse(body.take_prefixed("I").decode("utf-8"), lines)
            links.append(ParentLink(parent, delta))
        body.done()
        return RevisionMsg(uri, verified_revision(digest, author, timestamp, links))
    raise MalformedFrame(f"unknown frame kind {kind}")
