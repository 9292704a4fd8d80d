"""The ``.cat`` text format for quivers with relations.

A category and, optionally, named morphisms and objects over it::

    category snake {
      objects a b c d;
      arrows alpha: a -> b; beta: b -> c; gamma: c -> d;
      relations alpha*beta*gamma = 0;
    }
    let ab = alpha*beta;
    object K = (alpha | beta*gamma);

Morphism expressions are Z-linear combinations of ``*``-chained arrow labels
(``2*alpha*beta - gamma``), with ``id(v)`` for identities and ``let`` names
from the session file.  One grammar covers the file and the command-line
arguments::

    expr   := ['-'] term (('+'|'-') term)*
    term   := INT ['*' factor ('*' factor)*] | factor ('*' factor)*
    factor := NAME | 'id' '(' NAME ')'
    object := NAME | 'emb' '(' NAME ')' | '(' [expr] '|' [expr] ')'

An object ``NAME`` is ``zero``, an ``object`` name of the session file or a
vertex; a triple may leave one side empty.  ``#`` starts a comment that runs
to the end of the line.  A ``let`` may use the ``let`` names above it, an
``object`` line every ``let`` name.  A ``let`` or ``object`` name must be
new: not the name of an earlier line, for a ``let`` not an arrow label, for
an ``object`` not a vertex or ``zero``.  Syntax errors, taken names and
unknown names carry ``line:col``.

``build_category`` turns a parsed category block into a ``QuiverCategory``;
``Session`` builds it, evaluates the ``let`` and ``object`` lines and the
expressions and objects of command-line arguments, and makes the morphism
an expression gives between two objects (``Session.morphism``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .addclosure import TupleObject, single, zero_mat
from .adelman import AdelMorphism, AdelObject, WitnessError, emb_object, make_morphism
from .quivercat import (Arrow, EndpointError, LinMorphism, Path, Quiver, QuiverCategory,
                        RelationError, _validate_path, compose_lin, format_signed_sum,
                        make_relation)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


# One alternative per token kind, tried in order; ``\d`` and ``\w`` match
# what ``str.isdecimal`` and ``str.isalnum`` accept.  A name may not start
# with a non-decimal digit such as "²", which ``[^\W\d]`` lets through and
# ``tokenize`` rejects.
_SCANNER = re.compile(r"(?P<newline>\n)|(?P<skip>[ \t\r]+|#[^\n]*)"
                      r"|(?P<symbol>->|[{};:*+\-=()|,])|(?P<int>\d+)"
                      r"|(?P<name>[^\W\d]\w*)|(?P<bad>.)")


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, line_start = 1, 0
    for m in _SCANNER.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind != "skip":
            tok = Token(kind, m.group(), line, m.start() - line_start + 1)
            first = tok.text[0]
            if kind == "bad" or (kind == "name" and not (first.isalpha() or first == "_")):
                raise ParseError(f"unexpected character {first!r}", tok.line, tok.col)
            out.append(tok)
    out.append(Token("eof", "", line, len(text) - line_start + 1))
    return out


# Expression AST: tuple of (coefficient, factors); a factor is either an
# arrow/let name or ("id", vertex).  The empty term tuple encodes zero.
Term = tuple[int, tuple]
# Object AST: ("name", tok), ("emb", tok) or ("triple", tok, rel, corel),
# where an empty side of the triple is None.
ObjectNode = tuple


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        # ("arrow", token) per name factor and ("vertex", token) per id(v),
        # for the caller to check against the names in scope
        self.refs: list[tuple[str, Token]] = []

    def take_refs(self) -> list[tuple[str, Token]]:
        refs, self.refs = self.refs, []
        return refs

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, want: str):
        tok = self.peek()
        raise ParseError(f"expected {want}, found {tok.text or tok.kind!r}", tok.line, tok.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.fail(repr(text or kind))
        return self.advance()

    def at_symbol(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.text == text

    def at_name(self, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == "name" and (text is None or tok.text == text)

    # The rules of the grammar in the module docstring.
    def parse_expr(self) -> tuple[Term, ...]:
        terms: list[Term] = []
        sign = 1
        if self.at_symbol("-"):
            self.advance()
            sign = -1
        terms.extend(self._term(sign))
        while self.at_symbol("+") or self.at_symbol("-"):
            sign = 1 if self.advance().text == "+" else -1
            terms.extend(self._term(sign))
        return tuple(terms)

    def _term(self, sign: int) -> list[Term]:
        coef = sign
        tok = self.peek()
        if tok.kind == "int":
            coef = sign * int(self.advance().text)
            if self.at_symbol("*"):
                self.advance()
            else:
                if coef == 0:
                    return []
                raise ParseError("a bare integer other than 0 is not a morphism",
                                 tok.line, tok.col)
        factors = [self._factor()]
        while self.at_symbol("*"):
            self.advance()
            factors.append(self._factor())
        return [(coef, tuple(factors))]

    def _factor(self):
        tok = self.expect("name")
        if tok.text == "id" and self.at_symbol("("):
            self.advance()
            v = self.expect("name")
            self.expect("symbol", ")")
            self.refs.append(("vertex", v))
            return ("id", v.text)
        self.refs.append(("arrow", tok))
        return tok.text

    def parse_object(self) -> ObjectNode:
        tok = self.peek()
        if self.at_symbol("("):
            self.advance()
            rel = None if self.at_symbol("|") else self.parse_expr()
            self.expect("symbol", "|")
            corel = None if self.at_symbol(")") else self.parse_expr()
            self.expect("symbol", ")")
            if rel is None and corel is None:
                raise ParseError("a triple needs at least one side", tok.line, tok.col)
            return ("triple", tok, rel, corel)
        tok = self.expect("name")
        if tok.text == "emb" and self.at_symbol("("):
            self.advance()
            v = self.expect("name")
            self.expect("symbol", ")")
            return ("emb", v)
        return ("name", tok)


def _check_refs(refs: list[tuple[str, Token]], arrows, vertices):
    """Each factor of ``refs`` is in ``arrows`` (arrow labels and ``let``
    names) and each ``id`` vertex in ``vertices``."""
    for noun, tok in refs:
        if tok.text not in (arrows if noun == "arrow" else vertices):
            raise ParseError(f"unknown {noun} {tok.text!r}", tok.line, tok.col)


@dataclass(frozen=True)
class CategorySpec:
    """Parsed category block; relations are stored moved to one side."""

    name: str
    objects: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    relations: tuple[tuple[Term, ...], ...]


@dataclass(frozen=True)
class SessionSpec:
    category: CategorySpec
    lets: tuple[tuple[str, tuple[Term, ...]], ...] = ()
    objects: tuple[tuple[str, ObjectNode], ...] = ()


def parse_session(text: str) -> SessionSpec:
    p = _Parser(tokenize(text))
    p.expect("name", "category")
    name = p.expect("name").text
    p.expect("symbol", "{")
    objects: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relations: list[tuple[Term, ...]] = []
    keywords = ("objects", "arrows", "relations")
    while not p.at_symbol("}"):
        if p.at_name("objects"):
            p.advance()
            while p.at_name() and p.peek().text not in keywords:
                objects.append(p.advance().text)
            p.expect("symbol", ";")
        elif p.at_name("arrows"):
            p.advance()
            while p.at_name() and p.peek().text not in keywords:
                label = p.advance().text
                p.expect("symbol", ":")
                src = p.expect("name").text
                p.expect("symbol", "->")
                tgt = p.expect("name").text
                arrows.append((label, src, tgt))
                p.expect("symbol", ";")
        elif p.at_name("relations"):
            p.advance()
            while not p.at_symbol("}") and not (p.at_name() and p.peek().text in keywords):
                lhs = p.parse_expr()
                rhs: tuple[Term, ...] = ()
                if p.at_symbol("="):
                    p.advance()
                    rhs = p.parse_expr()
                relations.append(lhs + tuple((-c, f) for c, f in rhs))
                p.expect("symbol", ";")
        else:
            p.fail("objects/arrows/relations")
    p.expect("symbol", "}")
    vertices = set(objects)
    usable = {label for label, _, _ in arrows}  # what an expression may name
    _check_refs(p.take_refs(), usable, vertices)
    lets: list[tuple[str, tuple[Term, ...]]] = []
    objs: list[tuple[str, ObjectNode]] = []
    object_refs: list[tuple[str, Token]] = []  # checked once every let is in scope
    defined: set[str] = set()
    while p.peek().kind != "eof":
        if not (p.at_name("let") or p.at_name("object")):
            p.fail("let/object")
        keyword = p.advance().text
        tok = p.expect("name")
        owner = ("a let or object" if tok.text in defined
                 else "an arrow" if keyword == "let" and tok.text in usable
                 else "a vertex" if keyword == "object" and tok.text in vertices
                 else "the zero object" if keyword == "object" and tok.text == "zero"
                 else None)
        if owner:
            raise ParseError(f"{tok.text!r} already names {owner}", tok.line, tok.col)
        defined.add(tok.text)
        p.expect("symbol", "=")
        if keyword == "let":
            lets.append((tok.text, p.parse_expr()))
            _check_refs(p.take_refs(), usable, vertices)
            usable.add(tok.text)
        else:
            objs.append((tok.text, p.parse_object()))
            object_refs += p.take_refs()
        p.expect("symbol", ";")
    _check_refs(object_refs, usable, vertices)
    return SessionSpec(
        CategorySpec(name, tuple(objects), tuple(arrows), tuple(relations)),
        tuple(lets), tuple(objs))


def print_spec(spec: CategorySpec) -> str:
    lines = [f"category {spec.name} {{"]
    lines.append("  objects " + " ".join(spec.objects) + ";")
    lines.append("  arrows " + " ".join(
        f"{l}: {s} -> {t};" for l, s, t in spec.arrows))
    for rel in spec.relations:
        lines.append(f"  relations {_print_terms(rel)} = 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_terms(terms: tuple[Term, ...]) -> str:
    return format_signed_sum(
        (coef, "*".join(f"id({f[1]})" if isinstance(f, tuple) else f for f in factors))
        for coef, factors in terms)


def build_category(spec: CategorySpec) -> QuiverCategory:
    """A new category with the quiver and relations of ``spec``."""
    quiver = Quiver(spec.objects, tuple(Arrow(l, s, t) for l, s, t in spec.arrows))
    relations = tuple(
        make_relation(None, [(coef, _path(quiver, factors)) for coef, factors in terms])
        for terms in spec.relations)
    return QuiverCategory(quiver, relations, name=spec.name)


def _path(quiver: Quiver, factors: tuple) -> Path:
    """The path of ``factors``; the category walks its arrows."""
    arrows: list[int] = []
    src: Optional[str] = None
    at: Optional[str] = None
    for f in factors:
        if isinstance(f, tuple):  # ("id", v)
            v = f[1]
            if at is not None and at != v:
                # an earlier arrow that does not compose fails first
                _validate_path(quiver, Path(src, at, tuple(arrows)), RelationError)
                raise RelationError(f"identity at {v!r} does not compose at {at!r}")
            src = src or v
            at = v
            continue
        idx = quiver.arrow_index(f)
        src = src or quiver.arrows[idx].source
        at = quiver.arrows[idx].target
        arrows.append(idx)
    if src is None:
        raise RelationError("empty path")
    return Path(src, at if at is not None else src, tuple(arrows))


class Session:
    """A built category together with its named morphisms and objects."""

    def __init__(self, spec: SessionSpec):
        self.spec = spec.category
        self.cat = build_category(spec.category)
        self.lets: dict[str, LinMorphism] = {}
        for lname, terms in spec.lets:
            self.lets[lname] = self.eval_expr(terms)
        self.objects: dict[str, AdelObject] = {}
        for oname, node in spec.objects:
            self.objects[oname] = self.eval_object(node)
        self._usable = {a.label for a in self.cat.quiver.arrows} | self.lets.keys()

    def eval_expr(self, terms: tuple[Term, ...]) -> LinMorphism:
        total: Optional[LinMorphism] = None
        for coef, factors in terms:
            piece: Optional[LinMorphism] = None
            for f in factors:
                nxt = self._factor_lin(f)
                piece = nxt if piece is None else compose_lin(piece, nxt)
            assert piece is not None
            piece = piece.scale(coef)
            total = piece if total is None else total + piece
        if total is None:
            raise RelationError("cannot infer the endpoints of a bare zero expression")
        return total

    def _factor_lin(self, f) -> LinMorphism:
        if isinstance(f, tuple):
            return self.cat.identity_lin(f[1])
        if f in self.lets:
            return self.lets[f]
        return self.cat.arrow_lin(f)

    def eval_object(self, node: ObjectNode) -> AdelObject:
        """The object of a ``parse_object`` node; an unknown name is a
        ``ParseError`` at its token."""
        form, tok, *sides = node
        empty = TupleObject(self.cat, ())
        if form == "triple":
            rel, corel = (None if terms is None else single(self.eval_expr(terms))
                          for terms in sides)
            rel = zero_mat(empty, corel.source) if rel is None else rel
            corel = zero_mat(rel.target, empty) if corel is None else corel
            if rel.target != corel.source:
                raise RelationError(f"relation target {rel.target.summands[0]!r} does not "
                                    f"match corelation source {corel.source.summands[0]!r}")
            return AdelObject(rel, corel)
        if form == "name" and tok.text == "zero":
            return emb_object(empty)
        if form == "name" and tok.text in self.objects:
            return self.objects[tok.text]
        if tok.text in self.cat.quiver.vertices:
            return emb_object(TupleObject(self.cat, (tok.text,)))
        noun = "object" if form == "name" else "vertex"
        raise ParseError(f"unknown {noun} {tok.text!r}", tok.line, tok.col)

    def _parse(self, text: str, rule):
        """All of ``text`` by one rule of ``_Parser``, with its arrow, ``let``
        and ``id`` vertex names checked."""
        p = _Parser(tokenize(text))
        out = rule(p)
        p.expect("eof")
        _check_refs(p.refs, self._usable, self.cat.quiver.vertices)
        return out

    def parse_expr_text(self, text: str) -> LinMorphism:
        return self.eval_expr(self._parse(text, _Parser.parse_expr))

    def parse_object_text(self, text: str) -> AdelObject:
        return self.eval_object(self._parse(text, _Parser.parse_object))

    def morphism(self, expr: str, src: AdelObject, tgt: AdelObject) -> AdelMorphism:
        """The morphism ``src -> tgt`` whose datum is the expression ``expr``."""
        lin = self.parse_expr_text(expr)
        datum = single(lin)
        if datum.source != src.middle or datum.target != tgt.middle:
            raise EndpointError(
                f"expression {expr!r} runs {lin.source}->{lin.target}, which does not "
                "match the given objects")
        made = make_morphism(src, tgt, datum)
        if made is None:
            raise WitnessError(f"{expr!r} is not a well-defined morphism between these objects")
        return made
