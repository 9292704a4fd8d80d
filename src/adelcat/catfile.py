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
an ``object`` not a vertex or ``zero``.  In the category block each vertex
and arrow label is declared once, and an arrow's endpoints are declared
vertices.  Syntax errors, taken names and unknown names carry ``line:col``.

``build_category`` turns a parsed category block into a ``QuiverCategory``;
``Session`` builds it, evaluates the ``let`` and ``object`` lines and the
expressions and objects of command-line arguments, and makes the morphism
an expression gives between two objects (``Session.morphism``).  An
expression is a 1x1 matrix morphism in coordinates; a bare zero has
endpoints only as an operand of ``Session.morphism``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple, Optional

from .addclosure import MatMorphism, TupleObject, compose_mat, identity_mat, single, zero_mat
from .adelman import AdelMorphism, AdelObject, WitnessError, emb_object, make_morphism
from .quivercat import (Arrow, EndpointError, LinMorphism, Path, Quiver, QuiverCategory,
                        RelationError, _validate_path, format_signed_sum, make_relation)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _position(text: str, off: int) -> tuple[int, int]:
    """The line and column of offset ``off`` in ``text``, counted from 1."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


class Token(NamedTuple):
    """A located token, for the object nodes whose errors are raised after
    parsing, when the text is gone."""

    kind: str
    text: str
    line: int
    col: int


# One match per token: the blanks, newlines and comments in front of it,
# then one group per token kind, tried in order.  The prefix stops at a
# character that a group matches, so a match never backtracks into it.
# ``\d`` and ``\w`` match what ``str.isdecimal`` and ``str.isalnum``
# accept.  A name that does not start with an ASCII letter is a ``uname``,
# because ``[^\W\d]`` also lets through non-decimal digits such as "²",
# which ``tokenize`` rejects.
_SCANNER = re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
                      r"(?:(?P<symbol>->|[{};:*+\-=()|,])|(?P<name>[A-Za-z_]\w*)"
                      r"|(?P<int>\d+)|(?P<uname>[^\W\d]\w*)|(?P<eof>\Z)|(?P<bad>.))")
_KINDS = (None, *sorted(_SCANNER.groupindex, key=_SCANNER.groupindex.get))
_NAME, _INT, _EOF, _BAD = (_SCANNER.groupindex[k] for k in ("name", "int", "eof", "bad"))


# A scanned token: its kind, its text and the offset of its first character.
Lexeme = tuple[str, str, int]


def tokenize(text: str) -> list[Lexeme]:
    """The ``(kind, text, offset)`` tokens of ``text``, ending with an
    ``eof`` token; an unexpected character anywhere is a ``ParseError``."""
    out = []
    append = out.append
    for m in _SCANNER.finditer(text):
        group = m.lastindex
        tok = m[group]
        off = m.start(group)
        if group > _INT:  # uname, eof or bad
            if group == _EOF:
                break
            if group == _BAD or not (tok[0].isalpha() or tok[0] == "_"):
                raise ParseError(f"unexpected character {tok[0]!r}", *_position(text, off))
            group = _NAME
        append((_KINDS[group], tok, off))
    append(("eof", "", len(text)))
    return out


# Expression AST: tuple of (coefficient, factors); a factor is either an
# arrow/let name or ("id", vertex).  The empty term tuple encodes zero.
Term = tuple[int, tuple]
# Object AST: ("name", tok), ("emb", tok) or ("triple", tok, rel, corel),
# where ``tok`` is a ``Token`` and an empty side of the triple is None.
ObjectNode = tuple


class _Parser:
    """The rules of the grammar over the tokens of one text.  A symbol or a
    keyword is told by its text alone, which no token of another kind has."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        # the token of each name factor, and ("vertex", name, offset) per
        # id(v), for ``check_refs`` against the names in scope
        self.refs: list[Lexeme] = []

    def error(self, message: str, off: int) -> ParseError:
        return ParseError(message, *_position(self.text, off))

    def located(self, tok: Lexeme) -> Token:
        return Token(tok[0], tok[1], *_position(self.text, tok[2]))

    def take_refs(self) -> list[Lexeme]:
        refs, self.refs = self.refs, []
        return refs

    def check_refs(self, refs: list[Lexeme], arrows, vertices):
        """Each factor of ``refs`` is in ``arrows`` (arrow labels and ``let``
        names) and each ``id`` vertex in ``vertices``."""
        for kind, name, off in refs:
            if name not in (vertices if kind == "vertex" else arrows):
                noun = "vertex" if kind == "vertex" else "arrow"
                raise self.error(f"unknown {noun} {name!r}", off)

    def peek(self) -> Lexeme:
        return self.tokens[self.pos]

    def advance(self) -> Lexeme:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, want: str):
        _, text, off = self.tokens[self.pos]
        raise self.error(f"expected {want}, found {text or 'eof'!r}", off)

    def expect(self, text: str):
        if self.tokens[self.pos][1] != text:
            self.fail(repr(text))
        self.pos += 1

    def expect_name(self) -> Lexeme:
        tok = self.tokens[self.pos]
        if tok[0] != "name":
            self.fail("'name'")
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def at_name(self) -> bool:
        return self.tokens[self.pos][0] == "name"

    # The rules of the grammar in the module docstring.
    def parse_expr(self) -> tuple[Term, ...]:
        tokens = self.tokens
        terms: list[Term] = []
        sign = 1
        if tokens[self.pos][1] == "-":
            self.pos += 1
            sign = -1
        while True:
            self._term(sign, terms)
            op = tokens[self.pos][1]
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                return tuple(terms)
            self.pos += 1

    def _term(self, sign: int, terms: list[Term]):
        """Appends the term at the cursor to ``terms``, unless it is 0."""
        tokens = self.tokens
        kind, text, off = tokens[self.pos]
        coef = sign
        if kind == "int":
            coef = sign * int(text)
            self.pos += 1
            if tokens[self.pos][1] == "*":
                self.pos += 1
            elif coef == 0:
                return
            else:
                raise self.error("a bare integer other than 0 is not a morphism", off)
        factors = [self._factor()]
        while tokens[self.pos][1] == "*":
            self.pos += 1
            factors.append(self._factor())
        terms.append((coef, tuple(factors)))

    def _factor(self):
        tok = self.expect_name()
        if tok[1] == "id" and self.tokens[self.pos][1] == "(":
            self.pos += 1
            _, v, off = self.expect_name()
            self.expect(")")
            self.refs.append(("vertex", v, off))
            return ("id", v)
        self.refs.append(tok)
        return tok[1]

    def parse_object(self) -> ObjectNode:
        tok = self.peek()
        if tok[1] == "(":
            self.pos += 1
            rel = None if self.at("|") else self.parse_expr()
            self.expect("|")
            corel = None if self.at(")") else self.parse_expr()
            self.expect(")")
            if rel is None and corel is None:
                raise self.error("a triple needs at least one side", tok[2])
            return ("triple", self.located(tok), rel, corel)
        self.expect_name()
        if tok[1] == "emb" and self.at("("):
            self.pos += 1
            v = self.expect_name()
            self.expect(")")
            return ("emb", self.located(v))
        return ("name", self.located(tok))


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
    p = _Parser(text)
    tokens = p.tokens
    p.expect("category")
    name = p.expect_name()[1]
    p.expect("{")
    objects: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relations: list[tuple[Term, ...]] = []
    vertices: set[str] = set()
    usable: set[str] = set()  # what an expression may name: arrows, then lets
    keywords = ("objects", "arrows", "relations")
    while not p.at("}"):
        section = p.peek()[1]
        if section not in keywords:
            p.fail("objects/arrows/relations")
        p.pos += 1
        if section == "objects":
            while p.at_name() and tokens[p.pos][1] not in keywords:
                _, v, off = p.advance()
                if v in vertices:
                    raise p.error(f"{v!r} already names a vertex", off)
                vertices.add(v)
                objects.append(v)
            p.expect(";")
        elif section == "arrows":
            while p.at_name() and tokens[p.pos][1] not in keywords:
                _, label, off = p.advance()
                if label in usable:
                    raise p.error(f"{label!r} already names an arrow", off)
                usable.add(label)
                p.expect(":")
                src = p.expect_name()
                p.expect("->")
                tgt = p.expect_name()
                p.refs += (("vertex", src[1], src[2]), ("vertex", tgt[1], tgt[2]))
                arrows.append((label, src[1], tgt[1]))
                p.expect(";")
        else:
            while not p.at("}") and tokens[p.pos][1] not in keywords:
                terms = p.parse_expr()
                if p.at("="):
                    p.pos += 1
                    terms += tuple((-c, f) for c, f in p.parse_expr())
                relations.append(terms)
                p.expect(";")
    p.expect("}")
    p.check_refs(p.take_refs(), usable, vertices)
    lets: list[tuple[str, tuple[Term, ...]]] = []
    objs: list[tuple[str, ObjectNode]] = []
    object_refs: list[Lexeme] = []  # checked once every let is in scope
    defined: set[str] = set()
    while p.peek()[0] != "eof":
        if not (p.at("let") or p.at("object")):
            p.fail("let/object")
        keyword = p.advance()[1]
        _, new, off = p.expect_name()
        owner = ("a let or object" if new in defined
                 else "an arrow" if keyword == "let" and new in usable
                 else "a vertex" if keyword == "object" and new in vertices
                 else "the zero object" if keyword == "object" and new == "zero"
                 else None)
        if owner:
            raise p.error(f"{new!r} already names {owner}", off)
        defined.add(new)
        p.expect("=")
        if keyword == "let":
            lets.append((new, p.parse_expr()))
            p.check_refs(p.take_refs(), usable, vertices)
            usable.add(new)
        else:
            objs.append((new, p.parse_object()))
            object_refs += p.take_refs()
        p.expect(";")
    p.check_refs(object_refs, usable, vertices)
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
        make_relation([(coef, _path(quiver, factors)) for coef, factors in terms])
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
    """A built category with its named morphisms (``lets``, 1x1 matrix
    morphisms) and objects, read-only."""

    def __init__(self, spec: SessionSpec):
        self.cat = build_category(spec.category)
        lets: dict[str, MatMorphism] = {}
        objects: dict[str, AdelObject] = {}
        self.lets, self.objects = MappingProxyType(lets), MappingProxyType(objects)
        for lname, terms in spec.lets:
            lets[lname] = self.eval_expr(terms)
        for oname, node in spec.objects:
            objects[oname] = self.eval_object(node)
        self._usable = {a.label for a in self.cat.quiver.arrows} | self.lets.keys()

    def eval_expr(self, terms: tuple[Term, ...]) -> MatMorphism:
        total: Optional[MatMorphism] = None
        for coef, factors in terms:
            piece = self._factor(factors[0])
            for f in factors[1:]:
                nxt = self._factor(f)
                if piece.target != nxt.source:
                    raise EndpointError(f"cannot compose {_ends(piece)} with {_ends(nxt)}")
                piece = compose_mat(piece, nxt)
            piece = piece.scale(coef)
            if total is not None and (total.source, total.target) != (piece.source, piece.target):
                raise EndpointError("morphisms are not parallel")
            total = piece if total is None else total + piece
        if total is None:
            raise RelationError("cannot infer the endpoints of a bare zero expression")
        return total

    def _factor(self, f) -> MatMorphism:
        if isinstance(f, tuple):
            return identity_mat(TupleObject(self.cat, (f[1],)))
        if f in self.lets:
            return self.lets[f]
        return single(self.cat.arrow_lin(f))

    def eval_object(self, node: ObjectNode) -> AdelObject:
        """The object of a ``parse_object`` node; an unknown name is a
        ``ParseError`` at its token."""
        form, tok, *sides = node
        empty = TupleObject(self.cat, ())
        if form == "triple":
            rel, corel = (None if terms is None else self.eval_expr(terms) for terms in sides)
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
        p = _Parser(text)
        out = rule(p)
        if p.peek()[0] != "eof":
            p.fail("'eof'")
        p.check_refs(p.refs, self._usable, self.cat.quiver.vertices)
        return out

    def parse_expr_text(self, text: str) -> LinMorphism:
        """The morphism of the expression ``text``, as its path vector."""
        return self.eval_expr(self._parse(text, _Parser.parse_expr))[0, 0]

    def parse_object_text(self, text: str) -> AdelObject:
        return self.eval_object(self._parse(text, _Parser.parse_object))

    def morphism(self, expr: str, src: AdelObject, tgt: AdelObject) -> AdelMorphism:
        """The morphism ``src -> tgt`` whose datum is the expression ``expr``;
        a bare zero is the zero datum between them."""
        terms = self._parse(expr, _Parser.parse_expr)
        datum = self.eval_expr(terms) if terms else zero_mat(src.middle, tgt.middle)
        if datum.source != src.middle or datum.target != tgt.middle:
            raise EndpointError(f"expression {expr!r} runs {_ends(datum)}, which does not "
                                "match the given objects")
        made = make_morphism(src, tgt, datum)
        if made is None:
            raise WitnessError(f"{expr!r} is not a well-defined morphism between these objects")
        return made


def _ends(f: MatMorphism) -> str:  # a 1x1 matrix morphism's "a->b"
    return f"{f.source.summands[0]}->{f.target.summands[0]}"
