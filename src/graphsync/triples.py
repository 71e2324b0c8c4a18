r"""Terms, triples, graphs and the set-based delta algebra.

A graph version is a plain set of triples.  The difference between two
versions is a delta: the pair (inserted, removed).  Applying a delta
removes first and inserts second, so re-inserting a removed triple is
well defined.  Deltas have a canonical text encoding (a restricted
update-language subset: ``INSERT DATA`` / ``DELETE DATA`` blocks) whose
UTF-8 bytes feed the revision hash, so serialization must be
deterministic: IRIs are always written in full and triples are emitted
in canonical order, the code-point order of (subject, predicate,
object kind, object value, datatype).  Code-point order of strings is
the same as the byte order of their UTF-8 encodings, so the order is
also the byte order of the encoded terms.

Each `Triple` encodes itself once, when it is made: it keeps its sort
key, its canonical text line and its hash.  The sort key is one string
that orders exactly as the 5-tuple above: subject, predicate, a kind
flag ("0" for an IRI, "1" for a literal) glued to the object value, and
the datatype or "", joined by "\0\0".  A part that holds a NUL writes
each one as "\0\1" first, so the separator sorts below every character
of a part.  So serializing a delta is a sort on string keys and a join
of the lines, and a merge whose links carry triples that earlier deltas
already wrote encodes none of them again.

A `Delta` caches its canonical text.  The cache is computed from the
triple sets on the first `delta_serialize` call, or taken from parsed
text only when the strict matcher of `delta_parse` proves that text
canonical.  Other text may use PREFIX forms, extra whitespace or dots
and any line order, and the revision hash must cover the canonical
form, so its delta serializes afresh.  A digest that matches the raw
bytes of a text proves nothing here: whoever wrote the text can hash
exactly those bytes.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

IRI = "iri"
LITERAL = "literal"

# The codec writes an IRI or a datatype inside <...>, so neither may
# hold whitespace or '>'.
_NOT_IN_IRI = re.compile(r"[\s>]")


class MalformedDelta(ValueError):
    """Delta text outside the INSERT DATA / DELETE DATA / PREFIX subset."""


@dataclass(frozen=True, slots=True)
class Term:
    """An IRI or a literal (optionally typed).  Blank nodes never occur;
    a producer names them with IRIs before they enter.  An IRI value and
    a datatype are non-empty and hold no whitespace and no '>'."""

    kind: str
    value: str
    datatype: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (IRI, LITERAL):
            raise ValueError(f"unknown term kind: {self.kind!r}")
        if self.kind == IRI:
            if not self.value or _NOT_IN_IRI.search(self.value):
                raise ValueError(f"invalid IRI: {self.value!r}")
            if self.datatype is not None:
                raise ValueError("IRI terms carry no datatype")
        elif self.datatype is not None and (
            not self.datatype or _NOT_IN_IRI.search(self.datatype)
        ):
            raise ValueError(f"invalid datatype: {self.datatype!r}")


def iri(value: str) -> Term:
    return Term(IRI, value)


def literal(value: str, datatype: Optional[str] = None) -> Term:
    return Term(LITERAL, value, datatype)


@dataclass(frozen=True, slots=True)
class Triple:
    """(subject, predicate, object); subject and predicate are IRIs.

    A triple computes three caches once, when it is made: ``_key``, its
    `canonical_key`, one string that sorts in canonical triple order
    (see the module docstring; only a part holding a NUL is escaped);
    ``_line``, its line in a canonical block; and ``_hash``, the hash
    of its three terms, which `__hash__` returns.
    They take no part in equality, and `dataclasses.replace`, `copy` and
    `pickle` build them afresh through the constructor.
    """

    subject: Term
    predicate: Term
    object: Term
    _key: str = field(init=False, compare=False, repr=False)
    _line: str = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        s, p, o = self.subject, self.predicate, self.object
        if s.kind != IRI:
            raise ValueError("triple subject must be an IRI")
        if p.kind != IRI:
            raise ValueError("triple predicate must be an IRI")
        line = f" <{s.value}> <{p.value}> {_object_text(o)}"
        flag = "0" if o.kind == IRI else "1"
        dt = o.datatype or ""
        key = f"{s.value}\0\0{p.value}\0\0{flag}{o.value}\0\0{dt}"
        if "\0" in line:  # the line holds every part and writes a NUL as is
            key = "\0\0".join(
                [x.replace("\0", "\0\1") for x in (s.value, p.value, flag + o.value, dt)]
            )
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_line", line)
        object.__setattr__(self, "_hash", hash((s, p, o)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # A hash does not survive a process with another hash seed.
        return Triple, (self.subject, self.predicate, self.object)


def triple(s: str, p: str, o) -> Triple:
    """Shorthand: IRIs from strings, literals from Term or pre-built Term."""
    obj = o if isinstance(o, Term) else iri(o)
    return Triple(iri(s), iri(p), obj)


@dataclass(frozen=True, slots=True)
class Delta:
    """(inserted, removed) between two graph versions.

    Application removes first, then inserts, so a triple present in both
    sets ends up present.  Deltas computed from two graphs are always
    disjoint; combined deltas along re-insertion histories may overlap.

    ``_text`` caches the canonical text.  `delta_serialize` fills it
    from the triple sets; `delta_parse` fills it only from text that its
    strict matcher proves canonical.  It takes no part in equality or
    hashing, and `dataclasses.replace` does not copy it.
    """

    inserted: frozenset[Triple] = frozenset()
    removed: frozenset[Triple] = frozenset()
    _text: Optional[str] = field(default=None, init=False, compare=False, repr=False)

    @staticmethod
    def of(inserted: Iterable[Triple] = (), removed: Iterable[Triple] = ()) -> "Delta":
        return Delta(frozenset(inserted), frozenset(removed))


def delta_compute(g_i, g_j) -> Delta:
    """Delta from g_i to g_j: inserted = g_j \\ g_i, removed = g_i \\ g_j."""
    a = frozenset(g_i)
    b = frozenset(g_j)
    return Delta(b - a, a - b)


def delta_apply(g, d: Delta):
    """(g \\ removed) | inserted.  Removing an absent triple is a no-op."""
    return (frozenset(g) - d.removed) | d.inserted


def delta_invert(d: Delta) -> Delta:
    """Swap inserted and removed; an involution."""
    return Delta(d.removed, d.inserted)


# ---------------------------------------------------------------------------
# Canonical text encoding
# ---------------------------------------------------------------------------

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_NEEDS_ESCAPE = re.compile("[" + re.escape("".join(_ESCAPES)) + "]")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


# Sort key of the canonical triple order, (subject, predicate, object
# is a literal, object value, datatype or ""), as one order-preserving
# string (see `Triple`): subject and predicate are always IRIs, and IRI
# objects sort before literals.
canonical_key = operator.attrgetter("_key")


def _object_text(o: Term) -> str:
    if o.kind == IRI:
        return f"<{o.value}>"
    body = o.value
    if _NEEDS_ESCAPE.search(body):
        body = body.translate(_ESCAPE_TABLE)
    if o.datatype is not None:
        return f'"{body}"^^<{o.datatype}>'
    return f'"{body}"'


def _block(keyword: str, triples: Iterable[Triple]) -> str:
    lines = [t._line for t in sorted(triples, key=canonical_key)]
    return keyword + " {\n" + "\n".join(lines) + "\n}"


def delta_serialize(d: Delta) -> str:
    """Deterministic text form: INSERT DATA block then DELETE DATA block,
    either omitted when empty; full IRIs only, triples in canonical order.
    Computed from the triple sets once per delta, then cached on it."""
    text = d._text
    if text is None:
        parts = []
        if d.inserted:
            parts.append(_block("INSERT DATA", d.inserted))
        if d.removed:
            parts.append(_block("DELETE DATA", d.removed))
        text = "\n".join(parts) + "\n" if parts else ""
        object.__setattr__(d, "_text", text)
    return text


def canonical_delta_bytes(d: Delta) -> bytes:
    """UTF-8 of the canonical serialization; equal deltas, equal bytes."""
    return delta_serialize(d).encode("utf-8")


# A literal up to its closing quote: only the five escapes of _UNESCAPES.
# Where this stops in a literal that does not close tells an
# unterminated literal from a bad escape.
_LITERAL_HEAD = r'"[^"\\]*(?:\\["\\nrt][^"\\]*)*'
# One named alternative per token kind: IRIREF, quoted literal, ``^^``,
# brace or dot, bare word (keyword or prefixed name).  The last takes
# any other non-space character as a one-character error token: an
# unterminated IRI or literal, a bad escape, a lone ``^`` or ``>``.
# Whitespace matches no alternative, so finditer skips it.
_TOKEN = re.compile(
    r'(?P<iri><[^>]*>)'
    r'|(?P<literal>' + _LITERAL_HEAD + r'")'
    r'|(?P<caret>\^\^)'
    r'|(?P<punct>[{}.])'
    r'|(?P<word>[^\s{}<>"^]+)'
    r'|(?P<error>\S)'
)
_ESCAPE_SEQ = re.compile(r"\\(.)", re.S)


def _unexpected(text: str, tok: tuple) -> MalformedDelta:
    """The error for the token tok, a (kind, text, offset) triple."""
    kind, value, pos = tok
    if kind == "end":
        return MalformedDelta("unexpected end of delta text")
    if value == "<":
        msg = "unterminated IRI"
    elif value == '"':
        pos = re.compile(_LITERAL_HEAD).match(text, pos).end()
        msg = "unterminated literal" if pos == len(text) else "bad escape"
    else:
        msg = f"unexpected token {value!r}"
    return MalformedDelta(f"{msg} at offset {pos}")


def _unescape(body: str) -> str:
    if "\\" in body:
        return _ESCAPE_SEQ.sub(lambda m: _UNESCAPES[m.group(1)], body)
    return body


def _expand_pname(tok: tuple, prefixes: dict) -> str:
    """The IRI of an IRIREF or a prefixed-name token."""
    kind, value, _ = tok
    if kind == "iri":
        return value[1:-1]
    if ":" not in value:
        raise MalformedDelta(f"not a prefixed name: {value!r}")
    pfx, local = value.split(":", 1)
    if pfx not in prefixes:
        raise MalformedDelta(f"unknown prefix: {pfx!r}")
    return prefixes[pfx] + local


def _parse_term(text: str, toks: list, i: int, prefixes: dict) -> tuple[Term, int]:
    """The term starting at toks[i] and the index after it."""
    kind, value, _ = toks[i]
    if toks[i + 1][0] == "caret":  # checked before this token's own kind
        if kind != "literal":
            raise _unexpected(text, toks[i + 1])
        dt = toks[i + 2]
        if dt[0] not in ("iri", "word"):
            raise MalformedDelta("missing datatype after ^^" if dt[0] == "end" else "bad datatype")
        return Term(LITERAL, _unescape(value[1:-1]), _expand_pname(dt, prefixes)), i + 3
    if kind == "literal":
        return Term(LITERAL, _unescape(value[1:-1])), i + 1
    if kind in ("iri", "word"):
        return Term(IRI, _expand_pname(toks[i], prefixes)), i + 1
    raise _unexpected(text, toks[i])


def _tokenize_parse(text: str) -> Delta:
    """The general parser of `delta_parse`; fills no cache."""
    toks = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    # Two end sentinels: no lookahead from a real token runs past them.
    toks += [("end", "", len(text))] * 2
    prefixes: dict[str, str] = {}
    inserted: set[Triple] = set()
    removed: set[Triple] = set()

    i = 0
    while toks[i][0] != "end":
        kind, value, _ = toks[i]
        if kind != "word":
            raise _unexpected(text, toks[i])
        word = value.upper()
        if word == "PREFIX":
            (name_kind, name, _), (target_kind, target, _) = toks[i + 1 : i + 3]
            if name_kind != "word" or not name.endswith(":"):
                raise MalformedDelta("malformed PREFIX name")
            if target_kind != "iri":
                raise MalformedDelta("malformed PREFIX declaration")
            prefixes[name[:-1]] = target[1:-1]
            i += 3
            continue
        if word in ("INSERT", "DELETE"):
            if toks[i + 1][1].upper() != "DATA":
                raise MalformedDelta(f"{word} must be followed by DATA")
            if toks[i + 2][1] != "{":
                raise MalformedDelta("expected '{'")
            target = inserted if word == "INSERT" else removed
            i += 3
            while toks[i][1] != "}":
                if toks[i][1] == ".":
                    i += 1
                    continue
                if toks[i][0] == "end":
                    raise MalformedDelta("unterminated block")
                s, i = _parse_term(text, toks, i, prefixes)
                p, i = _parse_term(text, toks, i, prefixes)
                o, i = _parse_term(text, toks, i, prefixes)
                if s.kind != IRI or p.kind != IRI:
                    raise MalformedDelta("subject and predicate must be IRIs")
                target.add(Triple(s, p, o))
            i += 1
            continue
        raise MalformedDelta(f"disallowed construct: {value!r}")

    return Delta(frozenset(inserted), frozenset(removed))


# One triple line of a canonical block, as `_block` writes it: full
# IRIs, single spaces, and a literal whose only escapes are those of
# _ESCAPES.  An IRI or a datatype is what `Term` accepts.
_CANONICAL_LINE = re.compile(
    r' <([^\s>]+)> <([^\s>]+)> '
    r'(?:<([^\s>]+)>|"((?:[^"\\\n\r\t]|\\["\\nrt])*)"(?:\^\^<([^\s>]+)>)?)'
)


def _shared_iri(value: str, lines: dict) -> Term:
    # Keyed by a newline and the value: a row of delta text holds no
    # newline, so no row, canonical or not, finds an IRI's entry.
    key = "\n" + value
    term = lines.get(key)
    if term is None:
        term = lines[key] = Term(IRI, value)
    return term


def _canonical_line(row: str, lines: dict) -> Optional[Triple]:
    """The Triple of a canonical triple line, else None.  Its IRI terms
    are shared through ``lines`` (see `_shared_iri`)."""
    m = _CANONICAL_LINE.fullmatch(row)
    if m is None:
        return None
    s, p, o, body, datatype = m.groups()
    if o is not None:
        obj = _shared_iri(o, lines)
    else:
        obj = Term(LITERAL, _unescape(body), datatype)
    return Triple(_shared_iri(s, lines), _shared_iri(p, lines), obj)


def _canonical_delta(text: str, lines: dict) -> Optional[Delta]:
    r"""The delta whose `delta_serialize` is exactly ``text``, with the
    text as its cache; None for any other text.  Accepts only an
    optional non-empty INSERT block, then an optional non-empty DELETE
    block, each of canonical lines in strictly ascending canonical_key
    order, checked by comparing the triples' key strings, whose NULs are
    escaped as "\0\1" so that they order like the terms.  Rows are looked
    up in, and lines added to, ``lines``, which maps each line to its
    Triple; no row reaches its IRI entries."""
    rows = text.split("\n")
    if rows.pop():
        return None  # no final newline
    sets = []
    i = 0
    for opener in ("INSERT DATA {", "DELETE DATA {"):
        block = []
        if i < len(rows) and rows[i] == opener:
            try:
                end = rows.index("}", i + 1)
            except ValueError:
                return None
            last = None
            for row in rows[i + 1:end]:
                t = lines.get(row)
                if t is None:
                    t = _canonical_line(row, lines)
                    if t is None:
                        return None
                    lines[row] = t
                key = t._key
                if last is not None and key <= last:
                    return None
                last = key
                block.append(t)
            if not block:
                return None
            i = end + 1
        sets.append(frozenset(block))
    if i != len(rows):
        return None
    d = Delta(sets[0], sets[1])
    object.__setattr__(d, "_text", text)
    return d


def delta_parse(text: str, lines: Optional[dict] = None) -> Delta:
    """Parse the restricted update subset; inverse of delta_serialize on
    its image.  PREFIX declarations are accepted and expanded.  Anything
    else (WHERE clauses, bare INSERT, ...) raises MalformedDelta.

    A strict matcher runs first.  It accepts only canonical text, which
    is then byte for byte the `delta_serialize` of the result, so the
    text becomes the delta's cache.  Any other text goes to the general
    tokenizer, and its delta caches nothing.  ``lines`` maps each
    canonical triple line seen so far to its Triple, and each IRI, under
    a key no line of text can equal, to its Term: calls that share one
    dict share the triples of their common lines and the terms of their
    common IRIs.
    """
    d = _canonical_delta(text, {} if lines is None else lines)
    return d if d is not None else _tokenize_parse(text)
