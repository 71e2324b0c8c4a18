import random

import pytest

from graphsync.datasets import (
    DatasetMeta,
    DatasetRelation,
    PayloadStore,
    Rect,
    dataset_to_triples,
    datasets_from_triples,
    discover,
    holders_of,
    remaining_region,
    PRED_GEOMETRY,
    PRED_INCLUDE,
    PRED_TYPE,
    NS,
)
from graphsync.wire import AgentId

UAV0 = AgentId(b"\x10" * 16, "uav0")
UAV1 = AgentId(b"\x11" * 16, "uav1")

POINTS_CLOUD = NS + "points_cloud"


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 0, 5)

    def test_wkt_round_trip(self):
        r = Rect(1.5, -2.0, 4.0, 7.25)
        assert Rect.from_wkt(r.to_wkt()) == r

    def test_touching_edges_do_not_intersect(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))


class TestDatasetTriples:
    def test_two_dataset_example_with_include(self):
        d1 = DatasetMeta("ex:dataset1", Rect(0, 0, 10, 10), POINTS_CLOUD,
                         frozenset({"ex:dataset2"}))
        d2 = DatasetMeta("ex:dataset2", Rect(2, 2, 5, 5), POINTS_CLOUD)
        triples = dataset_to_triples(d1) | dataset_to_triples(d2)
        assert sum(1 for t in triples if t.predicate == PRED_GEOMETRY) == 2
        assert sum(1 for t in triples if t.predicate == PRED_TYPE) == 2
        assert sum(1 for t in triples if t.predicate == PRED_INCLUDE) == 1

    def test_empty_includes_emit_no_include_triples(self):
        d = DatasetMeta("ex:d", Rect(0, 0, 1, 1), POINTS_CLOUD)
        assert all(t.predicate != PRED_INCLUDE for t in dataset_to_triples(d))

    def test_self_include_rejected(self):
        with pytest.raises(ValueError):
            DatasetMeta("ex:d", Rect(0, 0, 1, 1), POINTS_CLOUD, frozenset({"ex:d"}))

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            metas = {}
            for i in range(rng.randrange(1, 5)):
                uri = f"ex:ds{i}"
                x0, y0 = rng.uniform(-50, 50), rng.uniform(-50, 50)
                includes = frozenset(f"ex:ds{j}" for j in range(i) if rng.random() < 0.4)
                metas[uri] = DatasetMeta(
                    uri, Rect(x0, y0, x0 + rng.uniform(0.5, 20), y0 + rng.uniform(0.5, 20)),
                    POINTS_CLOUD, includes,
                )
            triples = set()
            for m in metas.values():
                triples |= dataset_to_triples(m)
            assert datasets_from_triples(triples) == metas

    def test_relations_and_holders(self):
        d = DatasetMeta("ex:d", Rect(0, 0, 1, 1), POINTS_CLOUD)
        triples = dataset_to_triples(
            d,
            [
                DatasetRelation(UAV0, "ex:d", "has"),
                DatasetRelation(UAV0, "ex:d", "created_by"),
                DatasetRelation(UAV1, "ex:d", "created_from"),
            ],
        )
        assert holders_of(triples, "ex:d") == {UAV0.uri}


class TestDiscover:
    def build_world(self):
        triples = set()
        rects = {
            "ex:a": Rect(0, 0, 10, 10),
            "ex:b": Rect(10, 0, 20, 10),
            "ex:c": Rect(20, 0, 30, 10),
        }
        holders = {"ex:a": UAV0, "ex:b": UAV1, "ex:c": UAV0}
        for uri, rect in rects.items():
            triples |= dataset_to_triples(
                DatasetMeta(uri, rect, POINTS_CLOUD),
                [DatasetRelation(holders[uri], uri, "has")],
            )
        return triples

    def test_disjoint_region_is_empty(self):
        assert discover(self.build_world(), Rect(100, 100, 110, 110)) == []

    def test_overlapping_region_returns_all_three(self):
        got = discover(self.build_world(), Rect(5, -5, 25, 15))
        assert [uri for uri, _ in got] == ["ex:a", "ex:b", "ex:c"]
        assert dict(got)["ex:a"] == (UAV0.uri,)

    def test_against_brute_force_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            metas = []
            triples = set()
            for i in range(rng.randrange(0, 8)):
                x0, y0 = rng.uniform(-20, 20), rng.uniform(-20, 20)
                m = DatasetMeta(f"ex:r{i}", Rect(x0, y0, x0 + rng.uniform(1, 10), y0 + rng.uniform(1, 10)), POINTS_CLOUD)
                metas.append(m)
                triples |= dataset_to_triples(m)
            x0, y0 = rng.uniform(-20, 20), rng.uniform(-20, 20)
            region = Rect(x0, y0, x0 + rng.uniform(1, 15), y0 + rng.uniform(1, 15))
            got = [uri for uri, _ in discover(triples, region)]
            expect = sorted(m.uri for m in metas if m.coverage.intersects(region))
            assert got == expect


def grid_area(target: Rect, covered, n=256):
    """Rasterization oracle: measure target minus union(covered) on an
    n-by-n grid of cell centers over the target."""
    dx = (target.max_x - target.min_x) / n
    dy = (target.max_y - target.min_y) / n
    count = 0
    for i in range(n):
        x = target.min_x + (i + 0.5) * dx
        for j in range(n):
            y = target.min_y + (j + 0.5) * dy
            if not any(c.min_x <= x <= c.max_x and c.min_y <= y <= c.max_y for c in covered):
                count += 1
    return count * dx * dy


class TestRemainingRegion:
    def test_fully_covered(self):
        assert remaining_region(Rect(0, 0, 5, 5), [Rect(-1, -1, 6, 6)]) == []

    def test_no_overlap_returns_target(self):
        target = Rect(0, 0, 5, 5)
        assert remaining_region(target, [Rect(10, 10, 20, 20)]) == [target]

    def test_pieces_disjoint_and_inside_target(self):
        rng = random.Random(29)
        for _ in range(200):
            target = Rect(0, 0, 10, 10)
            covered = []
            for _ in range(rng.randrange(0, 5)):
                x0, y0 = rng.uniform(-5, 9), rng.uniform(-5, 9)
                covered.append(Rect(x0, y0, x0 + rng.uniform(0.5, 8), y0 + rng.uniform(0.5, 8)))
            pieces = remaining_region(target, covered)
            for p in pieces:
                assert target.min_x <= p.min_x <= p.max_x <= target.max_x
                assert target.min_y <= p.min_y <= p.max_y <= target.max_y
            for i, p in enumerate(pieces):
                for q in pieces[i + 1 :]:
                    assert not p.intersects(q)

    def test_area_identity_against_grid_oracle(self):
        rng = random.Random(31)
        for _ in range(20):
            target = Rect(0, 0, 12, 9)
            covered = []
            for _ in range(rng.randrange(0, 4)):
                x0, y0 = rng.uniform(-4, 11), rng.uniform(-4, 8)
                covered.append(Rect(x0, y0, x0 + rng.uniform(1, 9), y0 + rng.uniform(1, 7)))
            pieces = remaining_region(target, covered)
            exact = sum(p.area for p in pieces)
            cell = (12 / 256) * (9 / 256)
            approx = grid_area(target, covered)
            # grid error is at most the boundary cells; allow a generous band
            assert abs(exact - approx) <= cell * 256 * 4


class TestPayloadStore:
    def test_commit_load_round_trip(self, tmp_path):
        store = PayloadStore(tmp_path)
        data = bytes(range(256)) * 10
        store.commit("ds:scan/1", "ns#points_cloud", data, chunk_size=100)
        assert store.has("ds:scan/1")
        p = store.load("ds:scan/1")
        assert p.data() == data
        assert p.total_bytes == len(data)
        assert p.blob_type == "ns#points_cloud"
        assert all(len(c) <= 100 for c in p.chunks)

    def test_headers_list_uris_and_refuse_other_files(self, tmp_path):
        store = PayloadStore(tmp_path)
        store.commit("ds:b", "t", b"xy")
        store.commit("ds:a", "t", b"z")
        (tmp_path / "junk.payload").write_bytes(b"NOPE")
        assert store.list_datasets() == ["ds:a", "ds:b"]
        with pytest.raises(ValueError):
            store.load("junk")

    def test_abort_removes_everything(self, tmp_path):
        store = PayloadStore(tmp_path)
        store.commit("ds:x", "t", b"abc")
        store.abort("ds:x")
        assert not store.has("ds:x")
        with pytest.raises(KeyError):
            store.load("ds:x")

    def test_empty_payload(self, tmp_path):
        store = PayloadStore(tmp_path)
        store.commit("ds:empty", "t", b"")
        assert store.load("ds:empty").data() == b""
