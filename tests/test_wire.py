import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsync.revisions import (
    ROOT_REVISION,
    HashMismatch,
    MalformedRevision,
    ParentLink,
    make_revision,
)
from graphsync.triples import Delta, canonical_delta_bytes, triple
from graphsync.wire import (
    MAX_ROUND,
    MAX_WANTED,
    AgentId,
    DataMsg,
    ErrorMsg,
    FinishedMsg,
    MalformedFrame,
    ReadyMsg,
    ResendRequestMsg,
    RevisionMsg,
    RevisionRequestMsg,
    StatusMsg,
    ThrottleDownMsg,
    ThrottleUpMsg,
    VoteMsg,
    decode_frame,
    encode_frame,
    pack,
)

from test_revisions import raw_text_digest, swap_first_lines
from test_triples import deltas

ALICE = AgentId(b"\x01" * 16, "alice", b"pk-alice")
BOB = AgentId(b"\x02" * 16, "bob")


def roundtrip(msg):
    return decode_frame(encode_frame(msg))


@pytest.mark.parametrize(
    "msg",
    [
        StatusMsg(ALICE, "doc:map", b"\xaa" * 64, True),
        StatusMsg(BOB, "doc:map", b"\x00" * 64, False),
        RevisionRequestMsg("doc:map", ALICE.uuid, (b"\x11" * 64, b"\x22" * 64)),
        VoteMsg("doc:map", ALICE.uuid, BOB.uuid, 3, 1234, 1200),
        ReadyMsg("ds:scan", BOB.uuid),
        DataMsg("ds:scan", 7, b"\x00\x01\x02payload"),
        ResendRequestMsg("ds:scan", BOB.uuid, (3, 7)),
        ErrorMsg("ds:scan", BOB.uuid),
        ThrottleUpMsg("ds:scan", BOB.uuid),
        ThrottleDownMsg("ds:scan", BOB.uuid),
        FinishedMsg("ds:scan", 41),
        FinishedMsg("ds:empty", -1),
    ],
)
def test_round_trip(msg):
    assert roundtrip(msg) == msg


def test_revision_round_trip():
    rev = make_revision(
        ALICE.uuid,
        77,
        (
            ParentLink(
                ROOT_REVISION.hash,
                Delta.of({triple("urn:a", "urn:b", "urn:c")}, {triple("urn:d", "urn:e", "urn:f")}),
            ),
        ),
    )
    msg = RevisionMsg("doc:map", rev)
    back = roundtrip(msg)
    assert back.revision == rev
    assert back.document_uri == "doc:map"
    # the signature field is written empty; one a peer fills is skipped
    frame = encode_frame(msg)
    at = frame.index(rev.hash) + len(rev.hash)
    assert frame[at:at + 2] == b"\x00\x00"
    assert decode_frame(frame[:at] + b"\x00\x03SIG" + frame[at + 2:]) == msg


def test_merge_revision_two_parents_round_trip():
    rev = make_revision(
        ALICE.uuid,
        9,
        (
            ParentLink(b"\x0a" * 64, Delta.of({triple("urn:x", "urn:p", "urn:y")}, ())),
            ParentLink(b"\x0b" * 64, Delta()),
        ),
    )
    assert roundtrip(RevisionMsg("doc:m", rev)).revision == rev


def test_merge_frame_links_share_triples():
    shared = triple("urn:x", "urn:p", "urn:y")
    rev = make_revision(
        ALICE.uuid,
        9,
        (
            ParentLink(b"\x0a" * 64, Delta.of({shared}, ())),
            ParentLink(b"\x0b" * 64, Delta.of({shared, triple("urn:z", "urn:p", "urn:y")}, ())),
        ),
    )
    first, second = (l.delta for l in roundtrip(RevisionMsg("doc:m", rev)).revision.parents)
    (got,) = first.inserted
    assert any(t is got for t in second.inserted)


def test_merge_frame_row_equal_to_an_iri_is_a_value_error():
    """The second link's text has a row equal to an IRI of the first."""
    first = Delta.of({triple("urn:s", "urn:p", "urn:o")}, ())
    second = Delta.of({triple("urn:s", "urn:p", "urn:o:2")}, ())
    rev = make_revision(ALICE.uuid, 9, (ParentLink(b"\x0a" * 64, first), ParentLink(b"\x0b" * 64, second)))
    frame = encode_frame(RevisionMsg("doc:m", rev))
    text = canonical_delta_bytes(second)
    hostile = b"INSERT DATA {\nurn:s\n}\n"
    assert frame.count(pack(text, "I")) == 1
    with pytest.raises(ValueError):
        decode_frame(frame.replace(pack(text, "I"), pack(hostile, "I")))


class TestNonCanonicalDeltaText:
    """A frame may carry a delta text with its lines out of order.  The
    digest covers the canonical text, so the revision is accepted under
    its canonical digest and refused under a digest of the raw bytes."""

    DELTA = Delta.of({triple("urn:a", "urn:p", f"urn:o:{i}") for i in range(3)}, ())

    def frame_and_text(self):
        rev = make_revision(ALICE.uuid, 5, (ParentLink(ROOT_REVISION.hash, self.DELTA),))
        canonical = canonical_delta_bytes(self.DELTA)
        swapped = swap_first_lines(canonical)
        assert swapped != canonical
        frame = encode_frame(RevisionMsg("doc:map", rev))
        assert frame.count(canonical) == 1
        return rev, frame.replace(canonical, swapped), swapped

    def test_canonical_digest_accepted(self):
        rev, frame, _ = self.frame_and_text()
        back = decode_frame(frame).revision
        assert back == rev
        assert canonical_delta_bytes(back.parents[0].delta) == canonical_delta_bytes(self.DELTA)

    def test_digest_of_raw_bytes_refused(self):
        rev, frame, swapped = self.frame_and_text()
        assert raw_text_digest(ALICE.uuid, 5, ROOT_REVISION.hash, canonical_delta_bytes(self.DELTA)) == rev.hash
        hostile = raw_text_digest(ALICE.uuid, 5, ROOT_REVISION.hash, swapped)
        with pytest.raises(HashMismatch):
            decode_frame(frame.replace(rev.hash, hostile))


def test_revision_frame_with_wrong_digest_rejected():
    rev = make_revision(ALICE.uuid, 5, (ParentLink(ROOT_REVISION.hash, Delta()),))
    frame = encode_frame(RevisionMsg("doc:map", rev))
    at = frame.index(rev.hash)
    with pytest.raises(HashMismatch):
        decode_frame(frame[:at] + bytes([frame[at] ^ 1]) + frame[at + 1:])


def test_revision_frame_needs_one_or_two_parents():
    link = ParentLink(ROOT_REVISION.hash, Delta.of({triple("urn:a", "urn:b", "urn:c")}, ()))
    for links in ((), (link, link, link)):
        frame = encode_frame(RevisionMsg("doc:map", make_revision(ALICE.uuid, 5, links)))
        with pytest.raises(MalformedRevision):
            decode_frame(frame)


def test_golden_status_frame():
    msg = StatusMsg(AgentId(bytes(range(16)), "a", b"k"), "d", b"\xee" * 64, True)
    frame = encode_frame(msg)
    expect = (
        "01" + "000164"                       # kind, uri "d"
        + bytes(range(16)).hex()              # uuid
        + "000161"                            # name "a"
        + "00016b"                            # key "k"
        + "ee" * 64                           # head hash
        + "01"                                # master flag
    )
    assert frame.hex() == expect


def test_status_master_flag_other_than_0_or_1_is_malformed():
    """A lenient read would decode 02 as "not master" and re-encode it as
    00, so two readers of one frame could disagree on its bytes."""
    msg = StatusMsg(AgentId(bytes(range(16)), "a", b"k"), "d", b"\xee" * 64, True)
    frame = encode_frame(msg)
    assert frame[-1:] == b"\x01"
    assert decode_frame(frame[:-1] + b"\x00") == replace(msg, is_merge_master=False)
    for flag in (b"\x02", b"\xff"):
        with pytest.raises(MalformedFrame):
            decode_frame(frame[:-1] + flag)


def test_golden_data_frame():
    frame = encode_frame(DataMsg("d", 258, b"\x99"))
    assert frame.hex() == "0b" + "000164" + "0000000000000102" + "00000001" + "99"


def test_golden_vote_frame():
    msg = VoteMsg("d", b"\x01" * 16, b"\x02" * 16, 1, 2, 3)
    assert encode_frame(msg).hex() == (
        "04" + "000164" + "01" * 16 + "02" * 16
        + "00000001" + "0000000000000002" + "0000000000000003"
    )


def test_golden_revision_frame():
    link = ParentLink(ROOT_REVISION.hash, Delta.of({triple("urn:a", "urn:b", "urn:c")}, ()))
    frame = encode_frame(RevisionMsg("d", make_revision(b"\x01" * 16, 5, [link])))
    text = b"INSERT DATA {\n <urn:a> <urn:b> <urn:c>\n}\n"
    assert frame.hex() == (
        "02" + "000164" + "01" * 16 + "0000000000000005"       # kind, uri, author, time
        + "3b82af73931f1f24629df48cc11b48b0162a333160e9862ada14694e4a821d39"
        + "30aebcf124c52a8eb5f278fdc72577b3b2524ecca38583c4d1eec5918988c4c4"  # digest
        + "0000" + "01"                                         # signature, parents
        + "11bb994b5d2eab48b18667c7d8943e82c9011cb1d974304b8f2b6247a7e6b7f5"
        + "5ca2f7c62893644c3728d17dafd74ae3ba46271cf6287bb9e751c779a26fefc5"  # root
        + "00000029" + text.hex()                               # delta text
    )


@pytest.mark.parametrize(
    "msg, expect",
    [
        (RevisionRequestMsg("d", b"\x01" * 16, (b"\x11" * 64, b"\x22" * 64)),
         "03" + "000164" + "01" * 16 + "0002" + "11" * 64 + "22" * 64),
        (ReadyMsg("d", b"\x01" * 16), "0a" + "000164" + "01" * 16),
        (ResendRequestMsg("d", b"\x01" * 16, (1, 258)),
         "0c" + "000164" + "01" * 16 + "0002" + "0000000000000001" + "0000000000000102"),
        (ErrorMsg("d", b"\x01" * 16), "0d" + "000164" + "01" * 16),
        (ThrottleUpMsg("d", b"\x01" * 16), "0e" + "000164" + "01" * 16),
        (ThrottleDownMsg("d", b"\x01" * 16), "0f" + "000164" + "01" * 16),
        (FinishedMsg("d", 258), "10" + "000164" + "0000000000000102"),
        (FinishedMsg("d", -1), "10" + "000164" + "ff" * 8),
    ],
)
def test_golden_frames(msg, expect):
    assert encode_frame(msg).hex() == expect


def test_malformed_frames_rejected():
    with pytest.raises(MalformedFrame):
        decode_frame(b"")
    with pytest.raises(MalformedFrame):
        decode_frame(b"\x63\x00\x01d")
    good = encode_frame(ReadyMsg("ds", BOB.uuid))
    with pytest.raises(MalformedFrame):
        decode_frame(good[:-1])
    with pytest.raises(MalformedFrame):
        decode_frame(good + b"\x00")


def test_empty_wanted_list_rejected():
    with pytest.raises(ValueError):
        RevisionRequestMsg("doc:map", ALICE.uuid, ())


def test_limits_are_the_widest_values_the_fields_carry():
    def request(n):
        return RevisionRequestMsg("doc:map", ALICE.uuid, (b"\x11" * 64,) * n)

    def vote(rnd):
        return VoteMsg("doc:map", ALICE.uuid, BOB.uuid, rnd, 0, 0)

    for msg in (request(MAX_WANTED), vote(MAX_ROUND)):
        assert roundtrip(msg) == msg
    for msg in (request(MAX_WANTED + 1), vote(MAX_ROUND + 1)):
        with pytest.raises(struct.error):
            encode_frame(msg)


# ---------------------------------------------------------------------------
# Properties of the frame codec over every message kind
# ---------------------------------------------------------------------------

uris = st.text(max_size=12)
uuids = st.binary(min_size=16, max_size=16)
digests = st.binary(min_size=64, max_size=64)
int64s = st.integers(-(2**63), 2**63 - 1)
revisions = st.builds(
    make_revision, uuids, int64s,
    st.lists(st.builds(ParentLink, digests, deltas), min_size=1, max_size=2),
)


def message_kinds(uris, ids=uuids):
    """A message of any kind, its document or dataset URI drawn from uris
    and its agent uuids from ids."""
    agents = st.builds(AgentId, ids, st.text(max_size=8), st.binary(max_size=8))
    return st.one_of(
        st.builds(StatusMsg, agents, uris, digests, st.booleans()),
        st.builds(RevisionMsg, uris, revisions),
        st.builds(RevisionRequestMsg, uris, ids, st.lists(digests, min_size=1, max_size=3).map(tuple)),
        st.builds(VoteMsg, uris, ids, ids, st.integers(0, 2**32 - 1), int64s, int64s),
        st.builds(ReadyMsg, uris, ids),
        st.builds(DataMsg, uris, st.integers(0, 2**64 - 1), st.binary(max_size=32)),
        st.builds(ResendRequestMsg, uris, ids, st.lists(st.integers(0, 2**64 - 1), max_size=4).map(tuple)),
        st.builds(ErrorMsg, uris, ids),
        st.builds(ThrottleUpMsg, uris, ids),
        st.builds(ThrottleDownMsg, uris, ids),
        st.builds(FinishedMsg, uris, int64s),
    )


messages = message_kinds(uris)


@settings(max_examples=300, deadline=None)
@given(messages)
def test_every_message_kind_round_trips(msg):
    assert roundtrip(msg) == msg


@settings(max_examples=150, deadline=None)
@given(messages)
def test_every_proper_prefix_raises_value_error(msg):
    frame = encode_frame(msg)
    for n in range(len(frame)):
        with pytest.raises(ValueError):
            decode_frame(frame[:n])
    with pytest.raises(ValueError):
        decode_frame(frame + b"\x00")
