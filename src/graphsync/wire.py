"""Binary message frames exchanged between agents.

Frame layout: one kind byte, a length-prefixed document (or dataset)
URI, then the message body.  Digests travel as raw 64 bytes, agent
UUIDs as raw 16 bytes, and deltas as their canonical text encoding.
The layouts are frozen; golden-frame tests pin the exact bytes.  The
signature field of a revision frame is written empty and skipped on
read; decoding checks the revision's digest (`verified_revision`).
Elsewhere in the package only `NetworkSim.advance` reads frame bytes: it
logs each delivery's kind byte raw, and `netsim.EventLog` turns it into
its `KIND_NAMES` label when a row is read or written.  `NetworkSim.send`
keys its memo of decode cells by the whole frame bytes, which it hashes
and compares but does not parse.  The revision log packs and reads its
records with `pack` and `Reader`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

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

# the widest digest count of a revision request ('>H') and round of a vote ('>I')
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


def _frame(kind: int, uri: str, body: bytes) -> bytes:
    return bytes([kind]) + pack(uri.encode("utf-8")) + body


def encode_frame(msg) -> bytes:
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
    if isinstance(msg, RevisionRequestMsg):
        body = msg.requester + struct.pack(">H", len(msg.wanted)) + b"".join(msg.wanted)
        return _frame(KIND_REVISION_REQUEST, msg.document_uri, body)
    if isinstance(msg, VoteMsg):
        body = msg.voter + msg.candidate + struct.pack(
            ">Iqq", msg.round, msg.vote_timestamp, msg.election_timestamp
        )
        return _frame(KIND_VOTE, msg.document_uri, body)
    if isinstance(msg, ReadyMsg):
        return _frame(KIND_READY, msg.dataset_uri, msg.receiver)
    if isinstance(msg, DataMsg):
        return _frame(
            KIND_DATA, msg.dataset_uri, struct.pack(">Q", msg.sequence) + pack(msg.data, "I")
        )
    if isinstance(msg, ResendRequestMsg):
        body = msg.requester + struct.pack(">H", len(msg.sequences))
        body += b"".join(struct.pack(">Q", s) for s in msg.sequences)
        return _frame(KIND_RESEND_REQUEST, msg.dataset_uri, body)
    if isinstance(msg, ErrorMsg):
        return _frame(KIND_ERROR, msg.dataset_uri, msg.sender)
    if isinstance(msg, ThrottleUpMsg):
        return _frame(KIND_THROTTLE_UP, msg.dataset_uri, msg.sender)
    if isinstance(msg, ThrottleDownMsg):
        return _frame(KIND_THROTTLE_DOWN, msg.dataset_uri, msg.sender)
    if isinstance(msg, FinishedMsg):
        return _frame(KIND_FINISHED, msg.dataset_uri, struct.pack(">q", msg.last_sequence))
    raise TypeError(f"not a wire message: {type(msg).__name__}")


class Reader:
    """Bounds-checked reads; a short read or a leftover byte raises MalformedFrame."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedFrame("truncated body")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def take_prefixed(self, width: str = "H") -> bytes:
        size = struct.calcsize(">" + width)
        (n,) = struct.unpack(">" + width, self.take(size))
        return self.take(n)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise MalformedFrame("trailing bytes")


def decode_frame(raw: bytes):
    if len(raw) < 3:
        raise MalformedFrame("frame too short")
    kind = raw[0]
    body = Reader(raw[1:])
    uri = body.take_prefixed().decode("utf-8")

    if kind == KIND_STATUS:
        uuid = body.take(UUID_LEN)
        name = body.take_prefixed().decode("utf-8")
        key = body.take_prefixed()
        head = body.take(HASH_LEN)
        master = body.take(1)[0] == 1
        body.done()
        return StatusMsg(AgentId(uuid, name, key), uri, head, master)
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
    if kind == KIND_REVISION_REQUEST:
        requester = body.take(UUID_LEN)
        (count,) = struct.unpack(">H", body.take(2))
        wanted = tuple(body.take(HASH_LEN) for _ in range(count))
        body.done()
        return RevisionRequestMsg(uri, requester, wanted)
    if kind == KIND_VOTE:
        voter = body.take(UUID_LEN)
        candidate = body.take(UUID_LEN)
        rnd, vote_ts, election_ts = struct.unpack(">Iqq", body.take(20))
        body.done()
        return VoteMsg(uri, voter, candidate, rnd, vote_ts, election_ts)
    if kind == KIND_READY:
        receiver = body.take(UUID_LEN)
        body.done()
        return ReadyMsg(uri, receiver)
    if kind == KIND_DATA:
        (sequence,) = struct.unpack(">Q", body.take(8))
        data = body.take_prefixed("I")
        body.done()
        return DataMsg(uri, sequence, data)
    if kind == KIND_RESEND_REQUEST:
        requester = body.take(UUID_LEN)
        (count,) = struct.unpack(">H", body.take(2))
        seqs = tuple(struct.unpack(">Q", body.take(8))[0] for _ in range(count))
        body.done()
        return ResendRequestMsg(uri, requester, seqs)
    if kind == KIND_ERROR:
        sender = body.take(UUID_LEN)
        body.done()
        return ErrorMsg(uri, sender)
    if kind == KIND_THROTTLE_UP:
        sender = body.take(UUID_LEN)
        body.done()
        return ThrottleUpMsg(uri, sender)
    if kind == KIND_THROTTLE_DOWN:
        sender = body.take(UUID_LEN)
        body.done()
        return ThrottleDownMsg(uri, sender)
    if kind == KIND_FINISHED:
        (last,) = struct.unpack(">q", body.take(8))
        body.done()
        return FinishedMsg(uri, last)
    raise MalformedFrame(f"unknown frame kind {kind}")
