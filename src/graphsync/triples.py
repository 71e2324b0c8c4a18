"""Terms, triples, graphs and the set-based delta algebra.

A graph version is a plain set of triples.  The difference between two
versions is a delta: the pair (inserted, removed).  Applying a delta
removes first and inserts second, so re-inserting a removed triple is
well defined.  Deltas have a canonical text encoding (a restricted
update-language subset: ``INSERT DATA`` / ``DELETE DATA`` blocks) whose
UTF-8 bytes feed the revision hash, so serialization must be
deterministic: triples are emitted in canonical order and IRIs are
always written in full.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

IRI = "iri"
LITERAL = "literal"

_KIND_TAG = {IRI: 0, LITERAL: 1}


class MalformedDelta(ValueError):
    """Delta text outside the INSERT DATA / DELETE DATA / PREFIX subset."""


@dataclass(frozen=True)
class Term:
    """An IRI or a literal (optionally typed).  Blank nodes never occur;
    they are skolemized into fresh IRIs at ingestion."""

    kind: str
    value: str
    datatype: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (IRI, LITERAL):
            raise ValueError(f"unknown term kind: {self.kind!r}")
        if self.kind == IRI:
            if not self.value or any(c.isspace() for c in self.value):
                raise ValueError(f"invalid IRI: {self.value!r}")
            if self.datatype is not None:
                raise ValueError("IRI terms carry no datatype")

    def sort_key(self) -> tuple:
        return (
            _KIND_TAG[self.kind],
            self.value.encode("utf-8"),
            (self.datatype or "").encode("utf-8"),
        )


def iri(value: str) -> Term:
    return Term(IRI, value)


def literal(value: str, datatype: Optional[str] = None) -> Term:
    return Term(LITERAL, value, datatype)


@dataclass(frozen=True)
class Triple:
    """(subject, predicate, object); subject and predicate are IRIs."""

    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if self.subject.kind != IRI:
            raise ValueError("triple subject must be an IRI")
        if self.predicate.kind != IRI:
            raise ValueError("triple predicate must be an IRI")

    def sort_key(self) -> tuple:
        return (
            self.subject.sort_key(),
            self.predicate.sort_key(),
            self.object.sort_key(),
        )


def triple(s: str, p: str, o) -> Triple:
    """Shorthand: IRIs from strings, literals from Term or pre-built Term."""
    obj = o if isinstance(o, Term) else iri(o)
    return Triple(iri(s), iri(p), obj)


@dataclass(frozen=True)
class Delta:
    """(inserted, removed) between two graph versions.

    Application removes first, then inserts, so a triple present in both
    sets ends up present.  Deltas computed from two graphs are always
    disjoint; combined deltas along re-insertion histories may overlap.
    """

    inserted: frozenset[Triple] = frozenset()
    removed: frozenset[Triple] = frozenset()

    @staticmethod
    def of(inserted: Iterable[Triple] = (), removed: Iterable[Triple] = ()) -> "Delta":
        return Delta(frozenset(inserted), frozenset(removed))

    def is_empty(self) -> bool:
        return not self.inserted and not self.removed


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
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _term_text(t: Term) -> str:
    if t.kind == IRI:
        return f"<{t.value}>"
    body = "".join(_ESCAPES.get(c, c) for c in t.value)
    if t.datatype is not None:
        return f'"{body}"^^<{t.datatype}>'
    return f'"{body}"'


def _block(keyword: str, triples: Iterable[Triple]) -> str:
    lines = [
        f" {_term_text(t.subject)} {_term_text(t.predicate)} {_term_text(t.object)}"
        for t in sorted(triples, key=Triple.sort_key)
    ]
    return keyword + " {\n" + "\n".join(lines) + "\n}"


def delta_serialize(d: Delta) -> str:
    """Deterministic text form: INSERT DATA block then DELETE DATA block,
    either omitted when empty; full IRIs only, triples in canonical order."""
    parts = []
    if d.inserted:
        parts.append(_block("INSERT DATA", d.inserted))
    if d.removed:
        parts.append(_block("DELETE DATA", d.removed))
    if not parts:
        return ""
    return "\n".join(parts) + "\n"


def canonical_delta_bytes(d: Delta) -> bytes:
    """UTF-8 of the canonical serialization; equal deltas, equal bytes."""
    return delta_serialize(d).encode("utf-8")


class _Tokenizer:
    """Tokens of the restricted update subset: IRIREF, quoted literal,
    prefixed name, keywords, braces, dots and ``^^``."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _error(self, msg: str):
        raise MalformedDelta(f"{msg} at offset {self.pos}")

    def next(self) -> Optional[tuple[str, str]]:
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos].isspace():
            self.pos += 1
        if self.pos >= n:
            return None
        c = text[self.pos]
        if c == "<":
            end = text.find(">", self.pos)
            if end < 0:
                self._error("unterminated IRI")
            value = text[self.pos + 1 : end]
            self.pos = end + 1
            return ("iri", value)
        if c == '"':
            out = []
            i = self.pos + 1
            while i < n:
                ch = text[i]
                if ch == "\\":
                    if i + 1 >= n or text[i + 1] not in _UNESCAPES:
                        self._error("bad escape")
                    out.append(_UNESCAPES[text[i + 1]])
                    i += 2
                elif ch == '"':
                    self.pos = i + 1
                    return ("literal", "".join(out))
                else:
                    out.append(ch)
                    i += 1
            self._error("unterminated literal")
        if c in "{}.":
            self.pos += 1
            return (c, c)
        if text.startswith("^^", self.pos):
            self.pos += 2
            return ("^^", "^^")
        # bare word: keyword or prefixed name
        i = self.pos
        while i < n and not text[i].isspace() and text[i] not in '{}<>"^':
            i += 1
        word = text[self.pos : i]
        self.pos = i
        return ("word", word)

    def peek(self) -> Optional[tuple[str, str]]:
        saved = self.pos
        tok = self.next()
        self.pos = saved
        return tok


def _expand_pname(word: str, prefixes: dict) -> str:
    if ":" not in word:
        raise MalformedDelta(f"not a prefixed name: {word!r}")
    pfx, local = word.split(":", 1)
    if pfx not in prefixes:
        raise MalformedDelta(f"unknown prefix: {pfx!r}")
    return prefixes[pfx] + local


def _parse_term(tz: _Tokenizer, prefixes: dict) -> Term:
    tok = tz.next()
    if tok is None:
        raise MalformedDelta("unexpected end of delta text")
    kind, value = tok
    if kind == "iri":
        return iri(value)
    if kind == "literal":
        nxt = tz.peek()
        if nxt is not None and nxt[0] == "^^":
            tz.next()
            dt = tz.next()
            if dt is None:
                raise MalformedDelta("missing datatype after ^^")
            if dt[0] == "iri":
                return literal(value, dt[1])
            if dt[0] == "word":
                return literal(value, _expand_pname(dt[1], prefixes))
            raise MalformedDelta("bad datatype")
        return literal(value)
    if kind == "word":
        return iri(_expand_pname(value, prefixes))
    raise MalformedDelta(f"unexpected token {value!r}")


def delta_parse(text: str) -> Delta:
    """Parse the restricted update subset; inverse of delta_serialize on
    its image.  PREFIX declarations are accepted and expanded.  Anything
    else (WHERE clauses, bare INSERT, ...) raises MalformedDelta."""
    tz = _Tokenizer(text)
    prefixes: dict[str, str] = {}
    inserted: set[Triple] = set()
    removed: set[Triple] = set()

    while True:
        tok = tz.next()
        if tok is None:
            break
        kind, value = tok
        if kind != "word":
            raise MalformedDelta(f"unexpected token {value!r}")
        word = value.upper()
        if word == "PREFIX":
            name = tz.next()
            target = tz.next()
            if name is None or target is None or target[0] != "iri":
                raise MalformedDelta("malformed PREFIX declaration")
            if name[0] != "word" or not name[1].endswith(":"):
                raise MalformedDelta("malformed PREFIX name")
            prefixes[name[1][:-1]] = target[1]
            continue
        if word in ("INSERT", "DELETE"):
            data = tz.next()
            if data is None or data[0] != "word" or data[1].upper() != "DATA":
                raise MalformedDelta(f"{word} must be followed by DATA")
            brace = tz.next()
            if brace is None or brace[0] != "{":
                raise MalformedDelta("expected '{'")
            target = inserted if word == "INSERT" else removed
            while True:
                nxt = tz.peek()
                if nxt is None:
                    raise MalformedDelta("unterminated block")
                if nxt[0] == "}":
                    tz.next()
                    break
                if nxt[0] == ".":
                    tz.next()
                    continue
                s = _parse_term(tz, prefixes)
                p = _parse_term(tz, prefixes)
                o = _parse_term(tz, prefixes)
                if s.kind != IRI or p.kind != IRI:
                    raise MalformedDelta("subject and predicate must be IRIs")
                target.add(Triple(s, p, o))
            continue
        raise MalformedDelta(f"disallowed construct: {value!r}")

    return Delta(frozenset(inserted), frozenset(removed))


# ---------------------------------------------------------------------------
# Skolemization
# ---------------------------------------------------------------------------

_skolem_lock = threading.Lock()
_skolem_counter = itertools.count()


def skolem_iri(agent_uuid: bytes) -> Term:
    """Mint a fresh IRI standing in for a blank node."""
    with _skolem_lock:
        n = next(_skolem_counter)
    return iri(f"urn:skolem:{agent_uuid.hex()}:{n}")
