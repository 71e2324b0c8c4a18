import random

import pytest

from graphsync.revisions import ROOT_REVISION, GraphOfRevisions, make_revision, ParentLink
from graphsync.storage import CorruptLog, load_document, save_document
from graphsync.triples import Delta, triple

from test_revisions import random_dag, rev_on, T


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


def test_truncated_log_rejected(tmp_path):
    gor = GraphOfRevisions("doc:log")
    rev_on(gor, ROOT_REVISION.hash, Delta.of({T[0]}, ()), ts=1)
    path = tmp_path / "doc.log"
    save_document(gor, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(CorruptLog):
        load_document(path)
