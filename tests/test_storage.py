import random
from collections import Counter

import pytest

from graphsync.revisions import (
    HASH_LEN,
    ROOT_REVISION,
    GraphOfRevisions,
    ParentLink,
    make_revision,
    merge_revision,
)
from graphsync.storage import (
    REC_DELTA,
    REC_TRIPLE,
    CorruptLog,
    _encode_term,
    _encode_triple,
    load_document,
    save_document,
)
from graphsync.triples import Delta, canonical_delta_bytes, literal, triple
from graphsync.wire import Reader, pack

from test_revisions import A_B, A_M, T, random_dag, raw_text_digest, rev_on, swap_first_lines


def test_round_trip_linear_history(tmp_path):
    gor = GraphOfRevisions("doc:log")
    r1 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0], T[1]}, ()), ts=1)
    r2 = rev_on(gor, r1.hash, Delta.of({T[2]}, {T[0]}), ts=2, local=True)
    path = tmp_path / "doc.log"
    save_document(gor, path)
    loaded, head = load_document(path)
    assert loaded.uri == "doc:log"
    assert head == r2.hash
    assert set(r.hash for r in loaded.revisions()) == set(r.hash for r in gor.revisions())
    assert loaded.is_local(r2.hash) and not loaded.is_local(r1.hash)
    assert loaded.materialize(head) == gor.materialize(r2.hash)


def test_round_trip_random_dags(tmp_path):
    rng = random.Random(11)
    for i in range(10):
        gor, heads = random_dag(rng, 12)
        path = tmp_path / f"dag{i}.log"
        save_document(gor, path, head=heads[0])
        loaded, head = load_document(path)
        assert head == heads[0]
        assert loaded.materialize(head) == gor.materialize(heads[0])
        for rev in gor.revisions():
            if not rev.is_root:
                assert rev.hash in loaded
        again = tmp_path / f"dag{i}.again.log"
        save_document(loaded, again, head=head)
        assert again.read_bytes() == path.read_bytes()


def test_three_parent_revision_rejected(tmp_path):
    gor = GraphOfRevisions("doc:log")
    r1 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=1)
    r2 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[1]}, ()), ts=1)
    links = [ParentLink(h, Delta.of({T[0], T[1]}, ())) for h in (r1.hash, r2.hash)]
    links.append(ParentLink(ROOT_REVISION.hash, Delta.of({T[0], T[1]}, ())))
    three = make_revision(b"\x01" * 16, 2, links)
    gor.insert(three)
    path = tmp_path / "doc.log"
    save_document(gor, path, head=three.hash)
    with pytest.raises(CorruptLog, match="3 parent links"):
        load_document(path)


def test_tampered_log_rejected(tmp_path):
    gor = GraphOfRevisions("doc:log")
    rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0], T[1], T[2]}, ()), ts=1)
    path = tmp_path / "doc.log"
    save_document(gor, path)
    blob = bytearray(path.read_bytes())
    # flip one byte inside a delta body
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptLog):
        load_document(path)


def _log_with_swapped_lines(tmp_path, digest_raw_bytes):
    """A saved one-revision log whose delta text has two lines swapped;
    its revision claims either the canonical digest or one over the
    swapped bytes as they stand."""
    gor = GraphOfRevisions("doc:log")
    delta = Delta.of({T[0], T[1], T[2]}, ())
    rev = rev_on(gor, ROOT_REVISION.hash, delta, ts=1)
    path = tmp_path / "doc.log"
    save_document(gor, path)
    canonical = canonical_delta_bytes(delta)
    swapped = swap_first_lines(canonical)
    blob = path.read_bytes()
    assert blob.count(canonical) == 1
    blob = blob.replace(canonical, swapped)
    if digest_raw_bytes:
        blob = blob.replace(rev.hash, raw_text_digest(A_B, 1, ROOT_REVISION.hash, swapped))
    path.write_bytes(blob)
    return gor, rev, path


def test_non_canonical_text_with_canonical_digest_accepted(tmp_path):
    gor, rev, path = _log_with_swapped_lines(tmp_path, digest_raw_bytes=False)
    loaded, head = load_document(path)
    assert head == rev.hash
    assert loaded.materialize(head) == gor.materialize(rev.hash)


def test_non_canonical_text_with_raw_bytes_digest_rejected(tmp_path):
    _, _, path = _log_with_swapped_lines(tmp_path, digest_raw_bytes=True)
    with pytest.raises(CorruptLog, match="revision rejected"):
        load_document(path)


def test_reload_shares_triples_and_keeps_canonical_text(tmp_path):
    gor = GraphOfRevisions("doc:merges")
    base = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), author=A_M, ts=0)
    merged = rev_on(gor, base.hash, Delta.of({T[1]}, ())).hash
    for k in range(2, 6):
        nxt = rev_on(gor, base.hash, Delta.of({T[k]}, ()), author=bytes([k]) * 16).hash
        merged = merge_revision(gor, merged, nxt, A_M, k).hash
    path = tmp_path / "doc.log"
    save_document(gor, path, head=merged)
    loaded, _ = load_document(path)

    links = [link for rev in loaded.revisions() for link in rev.parents]
    assert len(links) == 1 + 5 + 2 * 4
    assert all(link.delta._text is not None for link in links)
    first_seen = {}
    repeats = 0
    for link in links:
        for t in (*link.delta.inserted, *link.delta.removed):
            if t in first_seen:
                assert first_seen[t] is t
                repeats += 1
            else:
                first_seen[t] = t
    assert repeats > 0


def _records(blob: bytes) -> list[tuple[int, bytes]]:
    """A log split into its (kind, body) records."""
    log, out = Reader(blob), []
    while log.pos < len(blob):
        out.append((log.take(1)[0], log.take_prefixed("I")))
    return out


def _joined(records) -> bytes:
    return b"".join(bytes([kind]) + pack(body, "I") for kind, body in records)


def _head_log(tmp_path):
    """A saved log whose head graph is {T1, T2, typed literal}; T0 sits
    in a delta but not in the head.  Returns the path and the records."""
    gor = GraphOfRevisions("doc:head")
    typed = triple("urn:s:num", "urn:p", literal("7", "urn:xsd:int"))
    r1 = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0], T[1], typed}, ()), ts=1)
    rev_on(gor, r1.hash, Delta.of({T[2]}, {T[0]}), ts=2)
    path = tmp_path / "doc.log"
    save_document(gor, path)
    records = _records(path.read_bytes())
    assert _joined(records) == path.read_bytes()
    assert sum(kind == REC_TRIPLE for kind, _ in records) == 3
    return path, records


def test_head_records_in_any_order_or_repeated_load(tmp_path):
    path, records = _head_log(tmp_path)
    head = [r for r in records if r[0] == REC_TRIPLE]
    rest = [r for r in records if r[0] != REC_TRIPLE]
    gor, at = load_document(path)
    expected = gor.materialize(at)
    for variant in (rest + head[::-1], rest + head + head[1:2], head[:1] + rest + head):
        path.write_bytes(_joined(variant))
        loaded, at = load_document(path)
        assert loaded.materialize(at) == expected


def test_head_record_of_another_triple_rejected(tmp_path):
    """T0 is a valid triple the deltas hold, but not in the head graph."""
    path, records = _head_log(tmp_path)
    swapped = [(k, _encode_triple(T[0]) if b == _encode_triple(T[2]) else b)
               for k, b in records]
    assert swapped != records
    path.write_bytes(_joined(swapped))
    with pytest.raises(CorruptLog, match="head graph"):
        load_document(path)


def test_head_record_with_iri_datatype_rejected(tmp_path):
    """The subject of T1's record re-encoded with a datatype."""
    path, records = _head_log(tmp_path)
    plain = _encode_term(T[1].subject)
    no_datatype = pack(b"", "I")
    assert plain.endswith(no_datatype)
    typed = plain[:-len(no_datatype)] + pack(b"urn:dt", "I")
    damaged = [(k, typed + b[len(plain):] if b == _encode_triple(T[1]) else b)
               for k, b in records]
    assert damaged != records
    path.write_bytes(_joined(damaged))
    with pytest.raises(CorruptLog):
        load_document(path)


def test_delta_row_equal_to_an_iri_fails_as_corrupt_log(tmp_path):
    """The second delta record has a row equal to an IRI of the first."""
    gor = GraphOfRevisions("doc:log")
    base = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=1)
    second = Delta.of({T[1]}, ())
    rev = rev_on(gor, base.hash, second, ts=2)
    path = tmp_path / "doc.log"
    save_document(gor, path)

    def record(text):
        return bytes([REC_DELTA]) + pack(base.hash + rev.hash + pack(text, "I"), "I")

    blob = path.read_bytes()
    assert blob.count(record(canonical_delta_bytes(second))) == 1
    path.write_bytes(blob.replace(record(canonical_delta_bytes(second)),
                                  record(b"INSERT DATA {\nurn:p\n}\n")))
    with pytest.raises(CorruptLog):
        load_document(path)


def test_truncated_log_rejected(tmp_path):
    gor = GraphOfRevisions("doc:log")
    rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=1)
    path = tmp_path / "doc.log"
    save_document(gor, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(CorruptLog):
        load_document(path)


def test_damaged_logs_fail_only_as_corrupt_log(tmp_path):
    """Truncated and bit-flipped copies of a saved log (revisions,
    merges, typed and non-ASCII literals) either load or raise
    CorruptLog; any other exception fails the test."""
    rng = random.Random(5)
    pool = T + [triple("urn:s:lit", "urn:p", literal("caf\u00e9 \u2713")),
                triple("urn:s:num", "urn:p", literal("7", "urn:xsd:int"))]
    gor, heads = random_dag(rng, 10, triple_pool=pool)
    path = tmp_path / "doc.log"
    save_document(gor, path, head=heads[0])
    blob = path.read_bytes()
    damaged = [blob[:n] for n in rng.sample(range(len(blob)), 400)]
    for _ in range(1200):
        bit = rng.randrange(len(blob) * 8)
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged.append(bytes(flipped))
    outcomes = Counter()
    for data in damaged:
        path.write_bytes(data)
        try:
            load_document(path)
        except CorruptLog:
            outcomes["corrupt"] += 1
        else:
            outcomes["loaded"] += 1
    assert outcomes["corrupt"] > outcomes["loaded"]


def test_local_flag_other_than_zero_or_one_rejected(tmp_path):
    """The local flag of a revision record is covered by no digest.  Of
    the eight bit flips of a set flag, the seven that leave a value
    other than 0 or 1 are refused; the one that clears it loads, as an
    unpublished revision turned published, and cannot be detected."""
    gor = GraphOfRevisions("doc:log")
    rev = rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=1, local=True)
    path = tmp_path / "doc.log"
    save_document(gor, path)
    blob = path.read_bytes()
    # revision record body: hash, author, timestamp (8), parent count (1), flag
    at = blob.index(rev.hash + rev.author) + HASH_LEN + len(rev.author) + 9
    assert blob[at] == 1
    refused = []
    for bit in range(8):
        flipped = bytearray(blob)
        flipped[at] ^= 1 << bit
        path.write_bytes(bytes(flipped))
        try:
            loaded, _ = load_document(path)
        except CorruptLog:
            refused.append(bit)
        else:
            assert not loaded.is_local(rev.hash)
    assert refused == [1, 2, 3, 4, 5, 6, 7]


def test_record_with_trailing_bytes_rejected(tmp_path):
    gor = GraphOfRevisions("doc:log")
    rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=1)
    path = tmp_path / "doc.log"
    save_document(gor, path)
    blob = path.read_bytes()
    # the header record comes first: kind byte, body length, body
    size = int.from_bytes(blob[1:5], "big")
    path.write_bytes(blob[:1] + (size + 1).to_bytes(4, "big") + blob[5:5 + size] + b"\0"
                     + blob[5 + size:])
    with pytest.raises(CorruptLog):
        load_document(path)
