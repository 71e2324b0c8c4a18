import copy
import dataclasses
import os
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsync.triples
from graphsync.revisions import ROOT_REVISION, ParentLink, revision_hash
from graphsync.triples import (
    Delta,
    MalformedDelta,
    Term,
    Triple,
    canonical_delta_bytes,
    canonical_key,
    delta_apply,
    delta_compute,
    delta_invert,
    delta_parse,
    delta_serialize,
    iri,
    literal,
    triple,
)
from graphsync.triples import _tokenize_parse

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

    @pytest.mark.parametrize("make", [
        lambda: iri("urn:a>b"),
        lambda: literal("x", "urn:a> <urn:b"),
        lambda: literal("x", "urn:has space"),
        lambda: literal("x", ""),
    ], ids=["iri-gt", "datatype-gt", "datatype-space", "datatype-empty"])
    def test_rejects_what_the_codec_cannot_carry(self, make):
        """IRIs and datatypes are written inside <...>; an empty datatype
        would share its canonical key with an untyped literal."""
        with pytest.raises(ValueError):
            make()

    def test_parse_rejects_empty_datatype(self):
        with pytest.raises(ValueError):
            delta_parse('INSERT DATA { <urn:s> <urn:p> "x"^^<> }')

    def test_equality_is_byte_equality(self):
        assert iri("urn:a") == iri("urn:a")
        assert literal("1") != literal("1", "urn:dt:int")
        assert iri("urn:a") != literal("urn:a")

    def test_subject_predicate_must_be_iris(self):
        with pytest.raises(ValueError):
            Triple(literal("x"), iri("urn:p"), iri("urn:o"))
        with pytest.raises(ValueError):
            Triple(iri("urn:s"), literal("x"), iri("urn:o"))


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
            "INSERT DATA { <urn:a> <urn:b> <urn:c }",
            'INSERT DATA { <urn:a> <urn:b> "abc }',
            'INSERT DATA { <urn:a> <urn:b> "a\\qb" }',
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(MalformedDelta):
            delta_parse(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("INSERT DATA { <urn:a> <urn:b> <urn:c }", "unterminated IRI at offset 30"),
            ('INSERT DATA { <urn:a> <urn:b> "abc }', "unterminated literal at offset 36"),
            ('INSERT DATA { <urn:a> <urn:b> "a\\qb" }', "bad escape at offset 32"),
            ('INSERT DATA { <urn:a> <urn:b> "a\\', "bad escape at offset 32"),
            ("INSERT DATA { <urn:a> <urn:b> ^ }", "unexpected token '^' at offset 30"),
        ],
    )
    def test_tokenizer_errors_name_the_offset(self, text, message):
        with pytest.raises(MalformedDelta) as err:
            delta_parse(text)
        assert str(err.value) == message

    def test_prefix_redeclared_between_blocks(self):
        d = delta_parse(
            "PREFIX ex: <urn:a:> INSERT DATA { ex:s ex:p ex:o }\n"
            "PREFIX ex: <urn:b:> DELETE DATA { ex:s ex:p ex:o }"
        )
        assert d == Delta.of(
            {triple("urn:a:s", "urn:a:p", "urn:a:o")}, {triple("urn:b:s", "urn:b:p", "urn:b:o")}
        )

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

    def test_canonical_order_is_utf8_byte_order(self):
        # U+FFFF < U+10000 in code points and in UTF-8 (EF.. < F0..), but
        # not in UTF-16, where U+10000 starts with the surrogate D800.
        subjects = ["urn:\uffff", "urn:\U00010000", "urn:a", "urn:a!", "urn:\xe9"]
        d = Delta.of([triple(s, "urn:p", "urn:o") for s in subjects], ())
        assert canonical_delta_bytes(d) == reference_delta_bytes(d)
        lines = canonical_delta_bytes(d).splitlines()[1:-1]
        assert lines == sorted(lines, key=lambda line: line.split(b">")[0])


# ---------------------------------------------------------------------------
# The codec against its first serializer, and under hostile text
# ---------------------------------------------------------------------------

_REF_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _ref_term_key(t):
    return ({"iri": 0, "literal": 1}[t.kind], t.value.encode("utf-8"), (t.datatype or "").encode("utf-8"))


def _ref_term_text(t, escapes=_REF_ESCAPES):
    if t.kind == "iri":
        return f"<{t.value}>"
    body = "".join(escapes.get(c, c) for c in t.value)
    if t.datatype is not None:
        return f'"{body}"^^<{t.datatype}>'
    return f'"{body}"'


def _ref_triple_key(t):
    return tuple(_ref_term_key(x) for x in (t.subject, t.predicate, t.object))


def _ref_block(keyword, triples, escapes):
    ordered = sorted(triples, key=_ref_triple_key)
    lines = [
        " " + " ".join(_ref_term_text(x, escapes) for x in (t.subject, t.predicate, t.object))
        for t in ordered
    ]
    return keyword + " {\n" + "\n".join(lines) + "\n}"


def _ref_text(inserted, removed, escapes=_REF_ESCAPES):
    parts = []
    if inserted:
        parts.append(_ref_block("INSERT DATA", inserted, escapes))
    if removed:
        parts.append(_ref_block("DELETE DATA", removed, escapes))
    return "\n".join(parts) + "\n" if parts else ""


def reference_delta_bytes(d):
    """The codec's first serializer, kept as the reference: a byte-keyed
    sort and per-character escapes."""
    return _ref_text(d.inserted, d.removed).encode("utf-8")


def assert_keys_order_like_reference(triples):
    """canonical_key orders every pair as the reference byte key does,
    and two keys are equal exactly when their triples are."""
    triples = list(triples)
    for a in triples:
        ka, ra = canonical_key(a), _ref_triple_key(a)
        for b in triples:
            kb, rb = canonical_key(b), _ref_triple_key(b)
            assert (ka < kb) == (ra < rb)
            assert (ka == kb) == (a == b)


NS = "http://ex.org/é/"
# Characters of a bare word, so an IRI under NS can be written ex:local.
_LOCAL_CHARS = st.characters(
    blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc"), blacklist_characters='{}<>"^'
)
# Any IRI text the codec can carry: no whitespace and no '>'.
_IRI_CHARS = st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc"), blacklist_characters=">")
_LITERAL_CHARS = st.one_of(
    st.characters(blacklist_categories=("Cs",)),
    st.characters(min_codepoint=0x10000, blacklist_categories=("Cs",)),
    st.sampled_from('"\\\n\r\t'),
)
iri_values = st.one_of(
    st.text(_LOCAL_CHARS, min_size=1, max_size=6).map(lambda local: NS + local),
    st.text(_IRI_CHARS, min_size=1, max_size=8),
)
iri_terms = iri_values.map(iri)
literal_terms = st.builds(literal, st.text(_LITERAL_CHARS, max_size=12), st.none() | iri_values)
triples_st = st.builds(Triple, iri_terms, iri_terms, iri_terms | literal_terms)
deltas = st.builds(
    Delta.of, st.frozensets(triples_st, max_size=6), st.frozensets(triples_st, max_size=6)
)

# Contents the strict matcher must read exactly: '<' inside an IRI,
# typed and non-ASCII literals, and every escaped character.
_ODD_IRIS = st.sampled_from(["a<b", "<<x", "urn:\u00e9<\u00fc", NS + "a<b"])
_odd_iri_terms = (iri_values | _ODD_IRIS).map(iri)
_odd_literals = st.builds(
    literal,
    st.text(_LITERAL_CHARS, max_size=12) | st.sampled_from(["\u00e9", "\U0001F600 x", 'q"\\\t\r\n']),
    st.none() | iri_values | _ODD_IRIS,
)
_odd_triples = st.builds(Triple, _odd_iri_terms, _odd_iri_terms, _odd_iri_terms | _odd_literals)
odd_deltas = st.builds(
    Delta.of, st.frozensets(_odd_triples, max_size=6), st.frozensets(_odd_triples, max_size=6)
)

# Every term over a four-character alphabet with NUL, which an IRI and
# a datatype may hold too: short values share prefixes, so keys meet
# at NULs, at the ends of parts and at the kind flag.
_NUL_CHARS = st.sampled_from("\x00\x01\x02a")
_nul_iris = st.text(_NUL_CHARS, min_size=1, max_size=4)
_nul_iri_terms = _nul_iris.map(iri)
_nul_literals = st.builds(literal, st.text(_NUL_CHARS, max_size=4), st.none() | _nul_iris)
_nul_triples = st.builds(Triple, _nul_iri_terms, _nul_iri_terms, _nul_iri_terms | _nul_literals)
nul_deltas = st.builds(
    Delta.of, st.frozensets(_nul_triples, min_size=2, max_size=8), st.frozensets(_nul_triples, max_size=8)
)


def _loose_iri(value, rng):
    local = value[len(NS):]
    if value.startswith(NS) and local and rng.random() < 0.7:
        return "ex:" + local
    return f"<{value}>"


def _loose_term(t, rng):
    if t.kind == "iri":
        return _loose_iri(t.value, rng)
    # Raw newlines, tabs and carriage returns are legal inside a literal.
    escapes = _REF_ESCAPES if rng.random() < 0.5 else {"\\": "\\\\", '"': '\\"'}
    body = '"' + "".join(escapes.get(c, c) for c in t.value) + '"'
    if t.datatype is None:
        return body
    return body + rng.choice(["^^", " ^^ ", "^^\n"]) + _loose_iri(t.datatype, rng)


def loose_rendering(d, rng):
    """A non-canonical text of d: PREFIX form, shuffled lines, any
    keyword case, extra whitespace and ' .' separators."""

    def space():
        # U+00A0 is whitespace to the tokenizer, as str.isspace says.
        return rng.choice([" ", "  ", "\t", "\n", " \u00a0 "])

    out = [f"PREFIX ex: <{NS}>", space()]
    blocks = [("INSERT DATA", d.inserted), ("DELETE DATA", d.removed)]
    rng.shuffle(blocks)
    for keyword, triples in blocks:
        if not triples and rng.random() < 0.5:
            continue
        lines = [
            space().join(_loose_term(x, rng) for x in (t.subject, t.predicate, t.object))
            for t in triples
        ]
        rng.shuffle(lines)
        keyword = rng.choice([keyword, keyword.lower(), keyword.title()])
        out += [keyword, space(), "{", space()]
        for line in lines:
            out += [line, rng.choice([" .", "", " . .", "\n"]), space()]
        out += ["}", space()]
    return "".join(out)


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(deltas)
    def test_canonical_bytes_match_reference(self, d):
        assert canonical_delta_bytes(d) == reference_delta_bytes(d)

    @settings(max_examples=300, deadline=None)
    @given(odd_deltas)
    def test_parse_inverts_serialize(self, d):
        text = delta_serialize(d)
        parsed = delta_parse(text)
        assert parsed == d
        assert parsed._text is text  # the strict path keeps canonical text

    @settings(max_examples=300, deadline=None)
    @given(nul_deltas, st.randoms(use_true_random=False))
    def test_nuls_in_every_term_keep_the_canonical_order(self, d, rng):
        assert_keys_order_like_reference(d.inserted | d.removed)
        text = delta_serialize(d)
        assert canonical_delta_bytes(d) == reference_delta_bytes(d)
        assert delta_parse(text)._text is text
        # Two adjacent rows of a block swapped: out of order, so the
        # strict path refuses the text and the tokenizer reads it.
        rows = text.split("\n")
        i = rng.choice([i for i in range(len(rows) - 1) if rows[i][:1] == rows[i + 1][:1] == " "])
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
        swapped = "\n".join(rows)
        assert graphsync.triples._canonical_delta(swapped, {}) is None
        parsed = delta_parse(swapped)
        assert parsed == d and parsed._text is None

    @settings(max_examples=200, deadline=None)
    @given(deltas, st.randoms(use_true_random=False))
    def test_loose_rendering_parses_to_canonical_bytes(self, d, rng):
        parsed = delta_parse(loose_rendering(d, rng))
        assert parsed == d
        assert canonical_delta_bytes(parsed) == reference_delta_bytes(d)

    def test_hostile_text_parses_or_raises_value_error(self):
        d = Delta.of(
            {
                Triple(iri(NS + "s"), iri("urn:p"), literal('a "q"\\\n\t\r\U0001F600', NS + "dt")),
                triple(NS + "s", NS + "p", NS + "o"),
            },
            {Triple(iri("urn:s"), iri(NS + "p"), literal(""))},
        )
        text = loose_rendering(d, random.Random(7)) + delta_serialize(d)
        assert delta_parse(text) == d
        variants = [text[:n] for n in range(len(text))]
        variants += [text[:i] + c + text[i + 1:] for i in range(len(text)) for c in '<>"\\{}^ ']
        parsed = 0
        for variant in variants:
            try:
                got = delta_parse(variant)
            except ValueError:
                continue
            parsed += 1
            assert delta_parse(delta_serialize(got)) == got
        assert 0 < parsed < len(variants)


def _cached(t):
    return t._key, t._line, t._hash


class TestTripleCaches:
    """Each Triple keeps its sort key, canonical line and hash."""

    @settings(max_examples=300, deadline=None)
    @given(odd_deltas)
    def test_caches_match_the_terms(self, d):
        for t in d.inserted | d.removed:
            s, p, o = t.subject, t.predicate, t.object
            assert t._line == " " + " ".join(_ref_term_text(x) for x in (s, p, o))
            assert hash(t) == hash((s, p, o))
            twins = [dataclasses.replace(t), copy.copy(t), copy.deepcopy(t),
                     pickle.loads(pickle.dumps(t))]
            for twin in twins:
                assert twin == t and _cached(twin) == _cached(t)
            moved = dataclasses.replace(t, object=literal("moved"))
            assert _cached(moved) == _cached(Triple(s, p, literal("moved")))
            stale = copy.copy(t)
            for name in ("_key", "_line", "_hash"):
                object.__setattr__(stale, name, None)
            assert stale == t and not stale != t
        assert_keys_order_like_reference(d.inserted | d.removed)

    def test_unpickled_triple_hashes_under_this_hash_seed(self):
        """A pickle carries the terms only, so a triple pickled in a
        process with another hash seed still finds itself in a set."""
        t = Triple(iri("urn:s"), iri("urn:p"), literal("v", "urn:dt"))
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = os.path.dirname(os.path.dirname(graphsync.triples.__file__))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        blob = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys; from graphsync.triples import Triple, iri, literal; "
             "sys.stdout.buffer.write(pickle.dumps("
             "Triple(iri('urn:s'), iri('urn:p'), literal('v', 'urn:dt'))))"],
            env=env, capture_output=True, check=True,
        ).stdout
        back = pickle.loads(blob)
        assert _cached(back) == _cached(t)
        assert back in {t}


class TestCanonicalTextCache:
    TEXT = f"PREFIX ex: <{NS}>\nDELETE DATA {{ ex:b ex:p \"y\" . }}\ninsert data {{ ex:a  ex:p ex:o . }}"
    D = Delta.of({triple(NS + "a", NS + "p", NS + "o")}, {Triple(iri(NS + "b"), iri(NS + "p"), literal("y"))})

    def test_cache_ignored_by_eq_and_hash(self):
        fresh = Delta(self.D.inserted, self.D.removed)
        delta_serialize(self.D)
        parsed = delta_parse(self.TEXT)
        assert fresh == self.D == parsed
        assert hash(fresh) == hash(self.D) == hash(parsed)
        assert len({fresh, self.D, parsed}) == 1
        assert delta_serialize(parsed) == delta_serialize(fresh) == delta_serialize(self.D)

    def test_replace_serializes_its_own_triples(self):
        d = Delta.of({T[0]}, {T[1]})
        delta_serialize(d)
        moved = dataclasses.replace(d, inserted=frozenset({T[2]}))
        assert delta_serialize(moved) == delta_serialize(Delta.of({T[2]}, {T[1]}))

    def test_parsed_delta_hashes_like_one_built_from_sets(self):
        def digest(delta):
            return revision_hash(b"\x01" * 16, 5, (ParentLink(ROOT_REVISION.hash, delta),))

        assert digest(delta_parse(self.TEXT)) == digest(Delta(self.D.inserted, self.D.removed))

    def test_codec_types_are_slotted(self):
        for obj in (self.D, triple("urn:s", "urn:p", "urn:o"), literal("x")):
            assert not hasattr(obj, "__dict__")


# ---------------------------------------------------------------------------
# The strict path of delta_parse: canonical text only, kept as the cache
# ---------------------------------------------------------------------------

def _line_pool(rows, at_least):
    """Indexes of the triple lines, or of every line if too few."""
    triple_rows = [i for i, row in enumerate(rows) if row.startswith(" ")]
    return triple_rows if len(triple_rows) >= at_least else list(range(len(rows)))


def _swap_lines(d, text, rng):
    rows = text.split("\n")
    i, j = rng.sample(_line_pool(rows, 2), 2) if len(rows) > 1 else (0, 0)
    rows[i], rows[j] = rows[j], rows[i]
    return "\n".join(rows)


def _duplicate_line(d, text, rng):
    rows = text.split("\n")
    i = rng.choice(_line_pool(rows, 1))
    return "\n".join(rows[:i + 1] + rows[i:])


def _double_space(d, text, rng):
    spaces = [i for i, c in enumerate(text) if c == " "]
    if not spaces:
        return text + " "
    i = rng.choice(spaces)
    return text[:i] + " " + text[i:]


def _empty_block(d, text, rng):
    return rng.choice(["INSERT DATA {\n}\n" + text, text + "DELETE DATA {\n}\n"])


def _blocks_swapped(d, text, rng):
    return _ref_text((), d.removed) + _ref_text(d.inserted, ())


def _no_final_newline(d, text, rng):
    return text[:-1]


def _prefix_form(d, text, rng):
    text = re.sub("<" + re.escape(NS) + r"([^\s>]*)>", r"ex:\1", text, count=rng.randrange(2))
    return f"PREFIX ex: <{NS}>\n" + text


def _raw_tab_or_cr(d, text, rng):
    # Both are legal raw inside a literal, but canonical text escapes them.
    raw = Triple(iri("urn:s"), iri("urn:p"), literal(rng.choice(["a\tb", "c\rd"])))
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
    return _ref_text(d.inserted | {raw}, d.removed, escapes)


MUTATIONS = [
    _swap_lines, _duplicate_line, _double_space, _empty_block, _blocks_swapped,
    _no_final_newline, _prefix_form, _raw_tab_or_cr,
]


class TestStrictPath:
    @settings(max_examples=400, deadline=None)
    @given(odd_deltas, st.sampled_from(MUTATIONS), st.randoms(use_true_random=False))
    def test_mutated_text_parses_like_the_tokenizer(self, d, mutate, rng):
        text = mutate(d, delta_serialize(d), rng)
        try:
            want = _tokenize_parse(text)
        except ValueError:
            want = None
        try:
            got = delta_parse(text)
        except ValueError:
            assert want is None
            return
        assert got == want
        assert got._text is None or got._text == text
        assert delta_serialize(got) == delta_serialize(Delta(got.inserted, got.removed))

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__.strip("_"))
    def test_each_mutation_leaves_the_strict_path(self, mutate):
        d = Delta.of(
            {triple(NS + "s", NS + "p", NS + "o"), Triple(iri("a<b"), iri(NS + "p"), literal("\u00e9", NS + "dt"))},
            {Triple(iri(NS + "s"), iri("urn:p"), literal('x"\t'))},
        )
        text = mutate(d, delta_serialize(d), random.Random(3))
        got = delta_parse(text)
        assert got._text is None
        assert got == _tokenize_parse(text)

    def test_parsed_iris_share_terms(self):
        """One Term per IRI: within a delta, and across deltas parsed
        with one lines table."""
        def text(*objects):
            return delta_serialize(Delta.of({triple("urn:s", "urn:p", o) for o in objects}))

        d = delta_parse(text("urn:o:0", "urn:o:1", "urn:o:2"))
        assert len({id(x) for t in d.inserted for x in (t.subject, t.predicate, t.object)}) == 5
        lines = {}
        first = delta_parse(text("urn:o:0", "urn:o:1"), lines)
        (second,) = delta_parse(text("urn:o:9"), lines).inserted
        assert all(t.subject is second.subject and t.predicate is second.predicate
                   for t in first.inserted)

    def test_row_equal_to_an_iri_is_malformed(self):
        """A row that equals an IRI parsed before it, in the same text or
        in an earlier one with the same lines table, is no triple line."""
        with pytest.raises(MalformedDelta):
            delta_parse("INSERT DATA {\n <urn:s> <urn:p> <urn:o>\nurn:s\n}\n")
        lines = {}
        delta_parse(delta_serialize(Delta.of({triple("urn:s", "urn:p", "urn:o")})), lines)
        for row in ("urn:s", "urn:p", "urn:o"):
            with pytest.raises(MalformedDelta):
                delta_parse(f"INSERT DATA {{\n{row}\n}}\n", lines)

    def test_shared_lines_share_triples(self):
        lines = {}
        first = delta_parse(delta_serialize(Delta.of({T[0], T[1]})), lines)
        second = delta_parse(delta_serialize(Delta.of({T[1], T[2]}, {T[0]})), lines)
        seen = {t: t for t in first.inserted}
        assert sum(seen.get(t) is t for t in second.inserted | second.removed) == 2
        # three lines, and the seven IRIs urn:t:0-2, urn:p and urn:o:0-2
        assert sum(key.startswith(" ") for key in lines) == 3
        assert len(lines) == 3 + 7
