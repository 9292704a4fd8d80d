"""The Z-linear category of a finite acyclic quiver with relations.

Objects are the vertices; the morphisms from ``a`` to ``b`` are Z-linear
combinations of the (finitely many, by acyclicity) paths from ``a`` to ``b``,
taken modulo the two-sided ideal generated by the given relations.  Each
Hom set is a finitely presented abelian group and every morphism is stored
as the canonical representative of its coset, which makes equality a plain
tuple comparison.

Path bases are ordered length-first, then lexicographically by arrow index;
the same order is used everywhere so certificates are reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .intlinalg import FpAbGroup, IntMatrix, lattice_basis


class QuiverError(ValueError):
    """Malformed quiver data."""


class CyclicQuiverError(QuiverError):
    """The arrow digraph contains a cycle."""


class UnknownVertexError(QuiverError):
    pass


class RelationError(ValueError):
    """A relation mixes non-parallel paths or refers to unknown arrows."""


class EndpointError(ValueError):
    """Morphism endpoints do not compose or do not match."""


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    """Finite acyclic quiver with uniquely labelled vertices and arrows."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise QuiverError("duplicate arrow labels")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise UnknownVertexError(f"arrow {a.label}: unknown endpoint")
        self._check_acyclic()

    def _check_acyclic(self):
        outgoing: dict[str, list[str]] = {v: [] for v in self.vertices}
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            outgoing[a.source].append(a.target)
            indeg[a.target] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in outgoing[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if seen != len(self.vertices):
            raise CyclicQuiverError("the arrow digraph is cyclic")

    def arrow_index(self, label: str) -> int:
        for i, a in enumerate(self.arrows):
            if a.label == label:
                return i
        raise QuiverError(f"unknown arrow {label!r}")

    def opposite(self) -> "Quiver":
        return Quiver(
            self.vertices,
            tuple(Arrow(a.label, a.target, a.source) for a in self.arrows),
        )


@dataclass(frozen=True)
class Path:
    """Composable sequence of arrows, stored by arrow index; the empty
    sequence is the identity path at ``source == target``."""

    source: str
    target: str
    arrows: tuple[int, ...]

    def is_identity(self) -> bool:
        return not self.arrows


def _validate_path(quiver: Quiver, path: Path):
    at = path.source
    for idx in path.arrows:
        a = quiver.arrows[idx]
        if a.source != at:
            raise QuiverError(f"path does not compose at {at!r}")
        at = a.target
    if at != path.target:
        raise QuiverError("path endpoints do not match the arrow sequence")


def enumerate_paths(quiver: Quiver, a: str, b: str) -> tuple[Path, ...]:
    """All paths from ``a`` to ``b``, length-lexicographic by arrow index.

    Includes the identity path exactly when ``a == b``; finite because the
    quiver is acyclic.
    """
    if a not in quiver.vertices or b not in quiver.vertices:
        raise UnknownVertexError(f"unknown vertex in ({a!r}, {b!r})")
    outgoing: dict[str, list[int]] = {v: [] for v in quiver.vertices}
    for i, arrow in enumerate(quiver.arrows):
        outgoing[arrow.source].append(i)
    found: list[tuple[int, ...]] = []

    def walk(at: str, trail: tuple[int, ...]):
        if at == b:
            found.append(trail)
        for i in outgoing[at]:
            walk(quiver.arrows[i].target, trail + (i,))

    walk(a, ())
    found.sort(key=lambda t: (len(t), t))
    return tuple(Path(a, b, t) for t in found)


@dataclass(frozen=True)
class Relation:
    """Z-linear combination of parallel paths, read as ``sum == 0``."""

    source: str
    target: str
    terms: tuple[tuple[int, Path], ...]


def make_relation(quiver: Quiver, terms: Sequence[tuple[int, Path]]) -> Relation:
    if not terms:
        raise RelationError("empty relation")
    src, tgt = terms[0][1].source, terms[0][1].target
    for _, p in terms:
        _validate_path(quiver, p)
        if (p.source, p.target) != (src, tgt):
            raise RelationError(
                f"relation mixes paths {src!r}->{tgt!r} and {p.source!r}->{p.target!r}"
            )
    return Relation(src, tgt, tuple((int(c), p) for c, p in terms))


class QuiverCategory:
    """A quiver with relations, its Hom data and composition tables.

    Path bases and the relation subgroup of every Hom pair are built eagerly
    at construction and never change.  Two kinds of composition data are
    filled lazily, on first use: for a vertex triple ``(a, b, c)`` the table
    sending a pair of basis paths of Hom(a, b) and Hom(b, c) to the index of
    their concatenation in Hom(a, c), and for a Hom pair the canonical forms
    of its unit vectors.  Each entry is a pure function of the immutable
    data above and is stored by a single dict assignment, so a fill raced by
    two threads stores equal values and instances stay safe to share.
    """

    def __init__(self, quiver: Quiver, relations: Sequence[Relation] = (),
                 name: str = "", _opposite: Optional["QuiverCategory"] = None):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.name = name
        for rel in self.relations:
            make_relation(quiver, rel.terms)  # revalidate homogeneity
        self._paths: dict[tuple[str, str], tuple[Path, ...]] = {}
        self._path_index: dict[tuple[str, str], dict[tuple[int, ...], int]] = {}
        for a in quiver.vertices:
            for b in quiver.vertices:
                ps = enumerate_paths(quiver, a, b)
                self._paths[(a, b)] = ps
                self._path_index[(a, b)] = {p.arrows: i for i, p in enumerate(ps)}
        self._rel_rows: dict[tuple[str, str], IntMatrix] = {}
        self._hom: dict[tuple[str, str], FpAbGroup] = {}
        for a in quiver.vertices:
            for b in quiver.vertices:
                rows = self._close_relations(a, b)
                self._rel_rows[(a, b)] = rows
                self._hom[(a, b)] = FpAbGroup(len(self._paths[(a, b)]), lattice_basis(rows))
        self._concat: dict[tuple[str, str, str], tuple[tuple[int, ...], ...]] = {}
        self._units: dict[tuple[str, str], tuple[tuple[int, ...], ...]] = {}
        self._opposite = _opposite
        self._opposite_lock = threading.Lock()

    def _close_relations(self, a: str, b: str) -> IntMatrix:
        """Rows spanning the two-sided closure of the relations inside
        Hom(a, b): every product p * r * q with p: a -> source(r) and
        q: target(r) -> b."""
        basis = self._paths[(a, b)]
        index = self._path_index[(a, b)]
        rows: list[list[int]] = []
        for rel in self.relations:
            for p in self._paths.get((a, rel.source), ()):
                for q in self._paths.get((rel.target, b), ()):
                    row = [0] * len(basis)
                    for coef, mid in rel.terms:
                        full = p.arrows + mid.arrows + q.arrows
                        row[index[full]] += coef
                    if any(row):
                        rows.append(row)
        return IntMatrix.from_rows(rows, cols=len(basis))

    # -- Hom data ---------------------------------------------------------

    def vertices(self) -> tuple[str, ...]:
        return self.quiver.vertices

    def paths(self, a: str, b: str) -> tuple[Path, ...]:
        try:
            return self._paths[(a, b)]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex in ({a!r}, {b!r})") from None

    def path_index(self, a: str, b: str, arrows: tuple[int, ...]) -> int:
        return self._path_index[(a, b)][arrows]

    def relation_subgroup(self, a: str, b: str) -> IntMatrix:
        """Generating rows of the relation subgroup of Hom(a, b)."""
        return self._rel_rows[(a, b)]

    def hom_group_lin(self, a: str, b: str) -> FpAbGroup:
        return self._hom[(a, b)]

    # -- composition tables -------------------------------------------------

    def concat_table(self, a: str, b: str, c: str) -> tuple[tuple[int, ...], ...]:
        """``table[i][j]`` is the index in the basis of Hom(a, c) of the i-th
        basis path of Hom(a, b) followed by the j-th basis path of Hom(b, c)."""
        table = self._concat.get((a, b, c))
        if table is None:
            index = self._path_index[(a, c)]
            right = self.paths(b, c)
            table = tuple(tuple(index[p.arrows + q.arrows] for q in right)
                          for p in self.paths(a, b))
            self._concat[(a, b, c)] = table
        return table

    def unit_coeffs(self, a: str, b: str) -> tuple[tuple[int, ...], ...]:
        """Canonical coefficients of every basis path of Hom(a, b)."""
        units = self._units.get((a, b))
        if units is None:
            group = self.hom_group_lin(a, b)
            n = group.ngens
            units = tuple(group.canonical_rep([int(k == t) for t in range(n)])
                          for k in range(n))
            self._units[(a, b)] = units
        return units

    def compose_coeffs(self, a: str, c: str,
                       terms: Iterable[tuple[str, Sequence[int], Sequence[int]]]) -> tuple[int, ...]:
        """Canonical coefficients in Hom(a, c) of the sum of the composites
        ``f then g`` over ``(b, f, g)`` in ``terms``, where ``f`` and ``g`` are
        coefficient vectors over the bases of Hom(a, b) and Hom(b, c).

        Products are accumulated raw and reduced once at the end; since
        ``canonical_rep`` picks the unique representative of a coset, this
        equals reducing every partial sum.
        """
        group = self.hom_group_lin(a, c)
        acc = [0] * group.ngens
        for b, f, g in terms:
            table = self.concat_table(a, b, c)
            for i, x in enumerate(f):
                if x:
                    row = table[i]
                    for j, y in enumerate(g):
                        if y:
                            acc[row[j]] += x * y
        if not any(acc):
            return tuple(acc)
        return group.canonical_rep(acc)

    # -- morphisms --------------------------------------------------------

    def lin(self, a: str, b: str, coeffs: Sequence[int]) -> "LinMorphism":
        group = self.hom_group_lin(a, b)
        return LinMorphism(self, a, b, group.canonical_rep(coeffs))

    def zero_lin(self, a: str, b: str) -> "LinMorphism":
        return LinMorphism(self, a, b, (0,) * len(self.paths(a, b)))

    def identity_lin(self, a: str) -> "LinMorphism":
        return self.lin_from_path(Path(a, a, ()))

    def lin_from_path(self, path: Path, coef: int = 1) -> "LinMorphism":
        _validate_path(self.quiver, path)
        n = len(self.paths(path.source, path.target))
        coeffs = [0] * n
        coeffs[self.path_index(path.source, path.target, path.arrows)] = coef
        return self.lin(path.source, path.target, coeffs)

    def arrow_lin(self, label: str) -> "LinMorphism":
        i = self.quiver.arrow_index(label)
        a = self.quiver.arrows[i]
        return self.lin_from_path(Path(a.source, a.target, (i,)))

    # -- duality ----------------------------------------------------------

    def opposite(self) -> "QuiverCategory":
        """The opposite category (cached; taking it twice returns self).

        Construction is guarded by a lock so that concurrent users always
        share one opposite instance (structural comparisons rely on it).
        """
        with self._opposite_lock:
            if self._opposite is None:
                op_rel = []
                for rel in self.relations:
                    terms = tuple(
                        (c, Path(p.target, p.source, tuple(reversed(p.arrows))))
                        for c, p in rel.terms
                    )
                    op_rel.append(Relation(rel.target, rel.source, terms))
                self._opposite = QuiverCategory(
                    self.quiver.opposite(), tuple(op_rel),
                    name=self.name + "^op" if self.name else "", _opposite=self,
                )
            return self._opposite


@dataclass(frozen=True)
class LinMorphism:
    """Morphism in the quiver category: a canonical coefficient vector over
    the ordered path basis of Hom(source, target)."""

    cat: QuiverCategory
    source: str
    target: str
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "LinMorphism") -> "LinMorphism":
        self._require_parallel(other)
        return self.cat.lin(self.source, self.target,
                            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LinMorphism") -> "LinMorphism":
        self._require_parallel(other)
        return self.cat.lin(self.source, self.target,
                            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LinMorphism":
        return self.cat.lin(self.source, self.target, tuple(-a for a in self.coeffs))

    def scale(self, c: int) -> "LinMorphism":
        return self.cat.lin(self.source, self.target, tuple(c * a for a in self.coeffs))

    def _require_parallel(self, other: "LinMorphism"):
        if self.cat is not other.cat or (self.source, self.target) != (other.source, other.target):
            raise EndpointError("morphisms are not parallel")

    def __repr__(self) -> str:
        return f"LinMorphism({self.source}->{self.target}: {format_lin(self)})"


def compose_lin(f: LinMorphism, g: LinMorphism) -> LinMorphism:
    """Diagrammatic-order composite ``f then g`` (bilinear extension of path
    concatenation), returned in canonical form."""
    if f.cat is not g.cat:
        raise EndpointError("morphisms from different categories")
    if f.target != g.source:
        raise EndpointError(f"cannot compose {f.source}->{f.target} with {g.source}->{g.target}")
    coeffs = f.cat.compose_coeffs(f.source, g.target, ((f.target, f.coeffs, g.coeffs),))
    return LinMorphism(f.cat, f.source, g.target, coeffs)


def lin_equal(f: LinMorphism, g: LinMorphism) -> bool:
    """Equality modulo the relation subgroup; canonical forms make this a
    coefficient comparison."""
    f._require_parallel(g)
    return f.coeffs == g.coeffs


def dual_lin(f: LinMorphism) -> LinMorphism:
    """The same morphism read in the opposite category (paths reversed)."""
    cat = f.cat
    op = cat.opposite()
    paths = cat.paths(f.source, f.target)
    acc = [0] * len(op.paths(f.target, f.source))
    for i, c in enumerate(f.coeffs):
        if c:
            rev = tuple(reversed(paths[i].arrows))
            acc[op.path_index(f.target, f.source, rev)] += c
    return op.lin(f.target, f.source, acc)


def format_lin(f: LinMorphism) -> str:
    """Human-readable form: ``2*alpha*beta - gamma``, ``id(a)``, ``0``."""
    labels = [a.label for a in f.cat.quiver.arrows]
    paths = f.cat.paths(f.source, f.target)
    parts: list[str] = []
    for i, c in enumerate(f.coeffs):
        if not c:
            continue
        p = paths[i]
        word = "*".join(labels[k] for k in p.arrows) if p.arrows else f"id({p.source})"
        if c == 1:
            term = word
        elif c == -1:
            term = f"-{word}"
        else:
            term = f"{c}*{word}"
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"
