"""The additive closure of a quiver category.

Objects are (possibly empty) tuples of vertices; a morphism from an m-tuple
to an n-tuple is an m x n grid of quiver-category morphisms, composed by the
usual row-times-matrix calculus in diagrammatic order.  The empty tuple is
the zero object and grids with zero rows or columns are legal morphisms.

The module also hosts the homotopy-equation solver ``decide_homotopy``: the
solvability of ``alpha = sigma1 * beta + gamma * sigma2`` is flattened over
the path bases of all Hom entries, one auxiliary unknown per relation-lattice
generator of each target Hom set, and decided by an exact integer solve.
Every positive answer is re-verified by matrix arithmetic before it is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .intlinalg import IntMatrix, solve_left
from .quivercat import (
    EndpointError,
    LinMorphism,
    QuiverCategory,
    dual_lin,
    format_lin,
)


@dataclass(frozen=True)
class TupleObject:
    """Ordered tuple of vertices; the empty tuple is the zero object."""

    cat: QuiverCategory
    summands: tuple[str, ...]

    def __post_init__(self):
        known = set(self.cat.quiver.vertices)
        for v in self.summands:
            if v not in known:
                raise EndpointError(f"unknown vertex {v!r} in tuple object")

    def __len__(self) -> int:
        return len(self.summands)

    def is_zero(self) -> bool:
        return not self.summands

    def __repr__(self) -> str:
        return f"TupleObject({'+'.join(self.summands) or '0'})"


def tuple_obj(cat: QuiverCategory, *summands: str) -> TupleObject:
    return TupleObject(cat, tuple(summands))


def zero_obj(cat: QuiverCategory) -> TupleObject:
    return TupleObject(cat, ())


def sum_obj(x: TupleObject, y: TupleObject) -> TupleObject:
    return TupleObject(x.cat, x.summands + y.summands)


@dataclass(frozen=True)
class MatMorphism:
    """Grid of quiver-category morphisms between tuple objects; entry (i, j)
    runs from the i-th source summand to the j-th target summand."""

    source: TupleObject
    target: TupleObject
    entries: tuple[tuple[LinMorphism, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.source):
            raise EndpointError("entry grid has the wrong number of rows")
        for i, row in enumerate(self.entries):
            if len(row) != len(self.target):
                raise EndpointError("entry grid has the wrong number of columns")
            for j, e in enumerate(row):
                if e.source != self.source.summands[i] or e.target != self.target.summands[j]:
                    raise EndpointError(f"entry ({i},{j}) has endpoints {e.source}->{e.target}")

    @property
    def cat(self) -> QuiverCategory:
        return self.source.cat

    def __getitem__(self, pos: tuple[int, int]) -> LinMorphism:
        i, j = pos
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __add__(self, other: "MatMorphism") -> "MatMorphism":
        if (self.source, self.target) != (other.source, other.target):
            raise EndpointError("cannot add morphisms with different endpoints")
        return MatMorphism(
            self.source,
            self.target,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "MatMorphism") -> "MatMorphism":
        return self + (-other)

    def __neg__(self) -> "MatMorphism":
        return MatMorphism(
            self.source, self.target,
            tuple(tuple(-e for e in row) for row in self.entries),
        )

    def scale(self, c: int) -> "MatMorphism":
        return MatMorphism(
            self.source, self.target,
            tuple(tuple(e.scale(c) for e in row) for row in self.entries),
        )

    def __repr__(self) -> str:
        return f"MatMorphism({self.source!r} -> {self.target!r}: {format_mat(self)})"


def single(lin: LinMorphism) -> MatMorphism:
    """1x1 matrix morphism wrapping a quiver-category morphism."""
    src = TupleObject(lin.cat, (lin.source,))
    tgt = TupleObject(lin.cat, (lin.target,))
    return MatMorphism(src, tgt, ((lin,),))


def zero_mat(x: TupleObject, y: TupleObject) -> MatMorphism:
    cat = x.cat
    return MatMorphism(
        x, y,
        tuple(tuple(cat.zero_lin(a, b) for b in y.summands) for a in x.summands),
    )


def identity_mat(x: TupleObject) -> MatMorphism:
    cat = x.cat
    return MatMorphism(
        x, x,
        tuple(
            tuple(
                cat.identity_lin(a) if i == j else cat.zero_lin(a, b)
                for j, b in enumerate(x.summands)
            )
            for i, a in enumerate(x.summands)
        ),
    )


def compose_mat(f: MatMorphism, g: MatMorphism) -> MatMorphism:
    """Matrix product in diagrammatic order (``f`` then ``g``)."""
    if f.target != g.source:
        raise EndpointError("inner tuple objects do not match")
    cat = f.cat
    rows = []
    for a, frow in zip(f.source.summands, f.entries):
        nonzero = [(j, fe) for j, fe in enumerate(frow) if not fe.is_zero()]
        row = []
        for k, c in enumerate(g.target.summands):
            terms = [(fe.target, fe.coeffs, g.entries[j][k].coeffs) for j, fe in nonzero]
            row.append(LinMorphism(cat, a, c, cat.compose_coeffs(a, c, terms)))
        rows.append(tuple(row))
    return MatMorphism(f.source, g.target, tuple(rows))


def direct_sum_mat(f: MatMorphism, g: MatMorphism) -> MatMorphism:
    """Block-diagonal sum on concatenated tuples."""
    return from_blocks(
        [[f, zero_mat(f.source, g.target)], [zero_mat(g.source, f.target), g]]
    )


def hstack_mat(*fs: MatMorphism) -> MatMorphism:
    """[f g ...]: common source, concatenated targets."""
    fs = tuple(fs)
    src = fs[0].source
    if any(f.source != src for f in fs):
        raise EndpointError("hstack with different sources")
    tgt = TupleObject(src.cat, tuple(v for f in fs for v in f.target.summands))
    entries = tuple(
        tuple(e for f in fs for e in f.entries[i]) for i in range(len(src))
    )
    return MatMorphism(src, tgt, entries)


def vstack_mat(*fs: MatMorphism) -> MatMorphism:
    """[f; g; ...]: concatenated sources, common target."""
    fs = tuple(fs)
    tgt = fs[0].target
    if any(f.target != tgt for f in fs):
        raise EndpointError("vstack with different targets")
    src = TupleObject(tgt.cat, tuple(v for f in fs for v in f.source.summands))
    entries = tuple(row for f in fs for row in f.entries)
    return MatMorphism(src, tgt, entries)


def from_blocks(grid: Sequence[Sequence[MatMorphism]]) -> MatMorphism:
    """Assemble a block matrix; block (i, j) maps the i-th source part to the
    j-th target part."""
    return vstack_mat(*[hstack_mat(*row) for row in grid])


def dual_mat(f: MatMorphism) -> MatMorphism:
    """The morphism read in the opposite category: grid transposed, every
    entry path-reversed."""
    op = f.cat.opposite()
    src = TupleObject(op, f.target.summands)
    tgt = TupleObject(op, f.source.summands)
    entries = tuple(
        tuple(dual_lin(f.entries[i][j]) for i in range(len(f.source)))
        for j in range(len(f.target))
    )
    return MatMorphism(src, tgt, entries)


def format_mat(f: MatMorphism) -> str:
    if not f.entries or not f.entries[0]:
        return "[]"
    return "[" + "; ".join(
        ", ".join(format_lin(e) for e in row) for row in f.entries
    ) + "]"


class HomBasis:
    """Flattened path-coordinate structure of Hom(X, Y) for tuple objects.

    Coordinates of all entry Hom sets are concatenated block by block in
    row-major entry order; ``rel_rows`` lifts the relation lattice of every
    entry into the big coordinate space.
    """

    def __init__(self, x: TupleObject, y: TupleObject):
        self.cat = x.cat
        self.source = x
        self.target = y
        self.block_dim: dict[tuple[int, int], int] = {}
        self.offset: dict[tuple[int, int], int] = {}
        pos = 0
        for i, a in enumerate(x.summands):
            for j, b in enumerate(y.summands):
                n = len(self.cat.paths(a, b))
                self.block_dim[(i, j)] = n
                self.offset[(i, j)] = pos
                pos += n
        self.dim = pos

    def flatten(self, f: MatMorphism) -> tuple[int, ...]:
        if f.source != self.source or f.target != self.target:
            raise EndpointError("morphism does not live in this Hom space")
        out: list[int] = []
        for i in range(len(self.source)):
            for j in range(len(self.target)):
                out.extend(f.entries[i][j].coeffs)
        return tuple(out)

    def unflatten(self, vec: Sequence[int]) -> MatMorphism:
        rows = []
        for i, a in enumerate(self.source.summands):
            row = []
            for j, b in enumerate(self.target.summands):
                off = self.offset[(i, j)]
                row.append(self.cat.lin(a, b, vec[off : off + self.block_dim[(i, j)]]))
            rows.append(tuple(row))
        return MatMorphism(self.source, self.target, tuple(rows))

    def units(self):
        for i in range(len(self.source)):
            for j in range(len(self.target)):
                for k in range(self.block_dim[(i, j)]):
                    yield (i, j, k)

    def rel_rows(self) -> list[list[int]]:
        rows: list[list[int]] = []
        for i, a in enumerate(self.source.summands):
            for j, b in enumerate(self.target.summands):
                group = self.cat.hom_group_lin(a, b)
                off = self.offset[(i, j)]
                for r in range(group.relations.rows):
                    row = [0] * self.dim
                    row[off : off + group.ngens] = group.relations.row(r)
                    rows.append(row)
        return rows


def left_compose_rows(f: MatMorphism, unknown: HomBasis, out: HomBasis) -> list[list[int]]:
    """Coefficient rows of the linear map ``sigma -> f * sigma`` in the
    flattened coordinates; one row per unknown unit."""
    cat = f.cat
    rows = []
    for (l, j, k) in unknown.units():
        b = unknown.source.summands[l]
        c = unknown.target.summands[j]
        unit = cat.unit_coeffs(b, c)[k]
        row = [0] * out.dim
        for i, a in enumerate(out.source.summands):
            fe = f.entries[i][l]
            if not fe.is_zero():
                off = out.offset[(i, j)]
                row[off : off + out.block_dim[(i, j)]] = cat.compose_coeffs(
                    a, c, ((b, fe.coeffs, unit),))
        rows.append(row)
    return rows


def right_compose_rows(unknown: HomBasis, g: MatMorphism, out: HomBasis) -> list[list[int]]:
    """Coefficient rows of ``sigma -> sigma * g`` in flattened coordinates."""
    cat = g.cat
    rows = []
    for (i, l, k) in unknown.units():
        a = unknown.source.summands[i]
        b = unknown.target.summands[l]
        unit = cat.unit_coeffs(a, b)[k]
        row = [0] * out.dim
        for j, c in enumerate(out.target.summands):
            ge = g.entries[l][j]
            if not ge.is_zero():
                off = out.offset[(i, j)]
                row[off : off + out.block_dim[(i, j)]] = cat.compose_coeffs(
                    a, c, ((b, unit, ge.coeffs),))
        rows.append(row)
    return rows


def decide_homotopy(
    alpha: MatMorphism, beta: MatMorphism, gamma: MatMorphism
) -> Optional[tuple[MatMorphism, MatMorphism]]:
    """Solve ``alpha = sigma1 * beta + gamma * sigma2`` exactly.

    Endpoints: ``alpha: a -> b``, ``beta: d -> b``, ``gamma: a -> c``;
    a solution is ``sigma1: a -> d``, ``sigma2: c -> b``.  Returns None
    exactly when no solution exists.
    """
    if beta.target != alpha.target:
        raise EndpointError("beta must share its target with alpha")
    if gamma.source != alpha.source:
        raise EndpointError("gamma must share its source with alpha")
    out = HomBasis(alpha.source, alpha.target)
    h1 = HomBasis(alpha.source, beta.source)
    h2 = HomBasis(gamma.target, alpha.target)
    rows = right_compose_rows(h1, beta, out)
    rows += left_compose_rows(gamma, h2, out)
    aux = out.rel_rows()
    rows += aux
    system = IntMatrix.from_rows(rows, cols=out.dim)
    rhs = IntMatrix.row_vector(out.flatten(alpha))
    sol = solve_left(system, rhs)
    if sol is None:
        return None
    vec = sol.row(0)
    sigma1 = h1.unflatten(vec[: h1.dim])
    sigma2 = h2.unflatten(vec[h1.dim : h1.dim + h2.dim])
    check = compose_mat(sigma1, beta) + compose_mat(gamma, sigma2)
    if check != alpha:
        raise RuntimeError("homotopy solver produced a bad certificate")
    return sigma1, sigma2
