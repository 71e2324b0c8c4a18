import random

import pytest

from graphsync.triples import (
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
    skolem_iri,
    triple,
)

T = [triple(f"urn:t:{i}", "urn:p", f"urn:o:{i}") for i in range(8)]


def random_triple(rng, pool=40):
    s = iri(f"urn:s:{rng.randrange(pool)}")
    p = iri(f"urn:p:{rng.randrange(5)}")
    if rng.random() < 0.3:
        o = literal(f"v{rng.randrange(pool)}", "urn:dt:int" if rng.random() < 0.5 else None)
    else:
        o = iri(f"urn:o:{rng.randrange(pool)}")
    return Triple(s, p, o)


def random_graph(rng, size, pool=40):
    return frozenset(random_triple(rng, pool) for _ in range(size))


def random_delta(rng, size=6, pool=40):
    g = random_graph(rng, size, pool)
    h = random_graph(rng, size, pool)
    return delta_compute(g, h)


class TestTerms:
    def test_iri_rejects_whitespace(self):
        with pytest.raises(ValueError):
            iri("urn:has space")
        with pytest.raises(ValueError):
            iri("")

    def test_equality_is_byte_equality(self):
        assert iri("urn:a") == iri("urn:a")
        assert literal("1") != literal("1", "urn:dt:int")
        assert iri("urn:a") != literal("urn:a")

    def test_subject_predicate_must_be_iris(self):
        with pytest.raises(ValueError):
            Triple(literal("x"), iri("urn:p"), iri("urn:o"))
        with pytest.raises(ValueError):
            Triple(iri("urn:s"), literal("x"), iri("urn:o"))

    def test_skolem_iris_are_unique(self):
        a = skolem_iri(b"\x01" * 16)
        b = skolem_iri(b"\x01" * 16)
        assert a != b and a.kind == "iri"


class TestDeltaAlgebra:
    def test_worked_example_compute(self):
        g0 = frozenset({T[0], T[1], T[2]})
        g1 = frozenset({T[2], T[3], T[4]})
        d = delta_compute(g0, g1)
        assert d.inserted == {T[3], T[4]}
        assert d.removed == {T[0], T[1]}

    def test_compute_identical_graphs(self):
        g = frozenset({T[0]})
        assert delta_compute(g, g) == Delta()

    def test_compute_against_pairwise_oracle(self):
        rng = random.Random(101)
        for _ in range(30):
            a, b = random_graph(rng, 50), random_graph(rng, 50)
            d = delta_compute(a, b)
            ins = {t for t in b if all(t != u for u in a)}
            rem = {t for t in a if all(t != u for u in b)}
            assert d.inserted == ins and d.removed == rem
            assert delta_apply(a, d) == b

    def test_apply_worked_example(self):
        g0 = frozenset({T[0], T[1], T[2]})
        d = Delta.of({T[4], T[5]}, {T[1], T[2]})
        assert delta_apply(g0, d) == {T[0], T[4], T[5]}

    def test_apply_empty_delta_is_identity(self):
        g = frozenset(T[:4])
        assert delta_apply(g, Delta()) == g

    def test_apply_reinsert_is_idempotent(self):
        g = frozenset({T[0]})
        assert delta_apply(g, Delta.of({T[0]}, ())) == {T[0]}

    def test_apply_ignores_absent_removals(self):
        assert delta_apply(frozenset({T[0]}), Delta.of((), {T[5]})) == {T[0]}

    def test_invert_swaps(self):
        d = Delta.of({T[3], T[4]}, {T[0], T[1]})
        inv = delta_invert(d)
        assert inv.inserted == {T[0], T[1]} and inv.removed == {T[3], T[4]}
        assert delta_invert(Delta()) == Delta()

    def test_invert_restores_graph(self):
        g = frozenset({T[0], T[1], T[2]})
        d = Delta.of({T[3]}, {T[1]})
        assert delta_apply(delta_apply(g, d), delta_invert(d)) == g

    def test_invert_involution_100_cases(self):
        rng = random.Random(5)
        for _ in range(100):
            d = random_delta(rng)
            assert delta_invert(delta_invert(d)) == d

    def test_round_trip_and_disjointness_property(self):
        rng = random.Random(13)
        for _ in range(10_000):
            a = random_graph(rng, rng.randrange(12), pool=20)
            b = random_graph(rng, rng.randrange(12), pool=20)
            d = delta_compute(a, b)
            assert not (d.inserted & d.removed)
            assert delta_apply(a, d) == b


class TestDeltaCodec:
    APPENDIX_SAMPLE = """PREFIX ex: <http://example.org/>

INSERT DATA {
 ex:a ex:b ex:c
}
DELETE DATA {
 ex:d ex:e ex:f
}
"""

    def test_parse_prefixed_sample(self):
        d = delta_parse(self.APPENDIX_SAMPLE)
        assert d.inserted == {
            triple("http://example.org/a", "http://example.org/b", "http://example.org/c")
        }
        assert d.removed == {
            triple("http://example.org/d", "http://example.org/e", "http://example.org/f")
        }

    def test_serialize_has_both_blocks(self):
        d = delta_parse(self.APPENDIX_SAMPLE)
        text = delta_serialize(d)
        assert "INSERT DATA {" in text and "DELETE DATA {" in text
        assert text.index("INSERT") < text.index("DELETE")
        assert "<http://example.org/a> <http://example.org/b> <http://example.org/c>" in text
        assert "PREFIX" not in text

    def test_empty_delta_serializes_empty(self):
        assert delta_serialize(Delta()) == ""
        assert canonical_delta_bytes(Delta()) == b""

    def test_parse_empty_block(self):
        assert delta_parse("INSERT DATA {}") == Delta()

    def test_where_clause_rejected(self):
        with pytest.raises(MalformedDelta):
            delta_parse("DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }")

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * { ?s ?p ?o }",
            "INSERT { <urn:a> <urn:b> <urn:c> }",
            "INSERT DATA { <urn:a> <urn:b> }",
            "INSERT DATA { ex:a ex:b ex:c }",
            'INSERT DATA { "lit" <urn:p> <urn:o> }',
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(MalformedDelta):
            delta_parse(text)

    def test_round_trip_property(self):
        rng = random.Random(99)
        for _ in range(10_000):
            d = random_delta(rng, size=4, pool=15)
            assert delta_parse(delta_serialize(d)) == d

    def test_literals_with_escapes_round_trip(self):
        nasty = literal('a "quoted"\nline\\t', "urn:dt:string")
        d = Delta.of({Triple(iri("urn:s"), iri("urn:p"), nasty)}, ())
        assert delta_parse(delta_serialize(d)) == d

    def test_canonical_bytes_order_independent(self):
        d1 = Delta.of([T[0], T[1], T[2]], [T[3]])
        d2 = Delta.of([T[2], T[0], T[1]], [T[3]])
        assert canonical_delta_bytes(d1) == canonical_delta_bytes(d2)

    def test_canonical_bytes_stable(self):
        rng = random.Random(3)
        for _ in range(100):
            d = random_delta(rng)
            assert canonical_delta_bytes(d) == canonical_delta_bytes(
                Delta(frozenset(d.inserted), frozenset(d.removed))
            )
