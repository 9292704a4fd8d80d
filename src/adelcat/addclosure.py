"""The additive closure of a quiver category.

Objects are (possibly empty) tuples of vertices; a morphism from an m-tuple
to an n-tuple is an m x n matrix of quiver-category morphisms, composed by
the usual row-times-matrix calculus in diagrammatic order.  The empty tuple
is the zero object and matrices with zero rows or columns are legal
morphisms.

A matrix morphism is stored flat: one tuple of the canonical coefficients
of its entries, block by block in row-major order, each block over the path
basis of its Hom set (the ``HomBasis`` layout).  Block dimensions are the
path counts the category keeps per vertex pair; each value carries its own
and passes them on to the results built from it, and no cache is keyed by
tuple objects.  All arithmetic works on slices of that tuple:
composition goes through ``QuiverCategory.compose_coeffs`` block by block,
sums and multiples reduce only the blocks whose canonical forms are not
closed under integer combinations, and stacking is concatenation.
``f[i, j]`` and ``entries`` are ``LinMorphism`` views for printing and
serialisation.

The module also hosts the homotopy-equation solver ``decide_homotopy``: the
solvability of ``alpha = sigma1 * beta + gamma * sigma2`` is flattened over
the path bases of all Hom entries, one auxiliary unknown per relation-lattice
generator of each target Hom set, and decided by an exact integer solve.
The system is assembled as sparse rows.  Above ``SPARSE_PRECHECK_CELLS``
cells it first goes through the sparse membership test
``intlinalg.in_lattice``, which rejects an unsolvable system without the
dense solve; a solvable one is densified and solved by ``solve_left``, so
the witnesses are the same whichever path ran.  Every positive answer is
re-verified by matrix arithmetic before it is returned.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Optional, Sequence

from .intlinalg import IntMatrix, in_lattice, solve_left
from .quivercat import (
    EndpointError,
    LinMorphism,
    QuiverCategory,
    format_lin,
)


@dataclass(frozen=True)
class TupleObject:
    """Ordered tuple of vertices; the empty tuple is the zero object."""

    cat: QuiverCategory
    summands: tuple[str, ...]

    def __post_init__(self):
        known = self.cat.quiver._position  # keyed by vertex
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


class MatMorphism:
    """Matrix of quiver-category morphisms between tuple objects; entry
    (i, j) runs from the i-th source summand to the j-th target summand.

    ``coeffs`` concatenates the canonical coefficient tuples of the entries
    in row-major order; entry (i, j) takes ``cat.dim(source[i], target[j])``
    of them.  The constructor takes the grid of entries and checks every
    endpoint.  The operations of this module build their results from
    coefficients and carry the block dimensions along from their inputs,
    checking only the number of coefficients; a value keeps its block
    dimensions for as long as it lives, and nothing else stores them.

    Values are immutable: nothing assigns to their attributes after
    construction (a slotted class without an assignment guard, because
    construction is the hottest path of the library).  The hash is
    computed on first use and kept in a slot, so the value-keyed memos
    (``Evaluation``'s, the ``zero_witness`` key of ``construction_memo``)
    do not walk the coefficients again on every lookup.
    """

    __slots__ = ("source", "target", "coeffs", "_dims", "_hash")

    def __new__(cls, source: TupleObject, target: TupleObject,
                entries: Sequence[Sequence[LinMorphism]]):
        xs, ys = source.summands, target.summands
        if len(entries) != len(xs):
            raise EndpointError("entry grid has the wrong number of rows")
        for i, (a, row) in enumerate(zip(xs, entries)):
            if len(row) != len(ys):
                raise EndpointError("entry grid has the wrong number of columns")
            for b, e in zip(ys, row):
                if e.source != a or e.target != b:
                    j = next(j for j, (y, x) in enumerate(zip(ys, row))
                             if x.source != a or x.target != y)
                    raise EndpointError(f"entry ({i},{j}) has endpoints {e.source}->{e.target}")
        return _from_grid(source, target, [[e.coeffs for e in row] for row in entries])

    def __eq__(self, other):
        if not isinstance(other, MatMorphism):
            return NotImplemented
        return (self.coeffs == other.coeffs and self.source == other.source
                and self.target == other.target)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((self.source, self.target, self.coeffs))
            return h

    @property
    def cat(self) -> QuiverCategory:
        return self.source.cat

    def blocks(self) -> list[list[tuple[int, ...]]]:
        """``blocks()[i][j]`` is the coefficient tuple of entry (i, j)."""
        coeffs = self.coeffs
        flat = []
        pos = 0
        for d in self._dims:
            end = pos + d
            flat.append(coeffs[pos:end])
            pos = end
        n = len(self.target.summands)
        return [flat[i * n : (i + 1) * n] for i in range(len(self.source.summands))]

    @property
    def entries(self) -> tuple[tuple[LinMorphism, ...], ...]:
        """The grid of entries as ``LinMorphism`` values."""
        cat, ys = self.cat, self.target.summands
        return tuple(
            tuple(LinMorphism(cat, a, b, block) for b, block in zip(ys, row))
            for a, row in zip(self.source.summands, self.blocks()))

    def __getitem__(self, pos: tuple[int, int]) -> LinMorphism:
        i, j = pos
        return LinMorphism(self.cat, self.source.summands[i], self.target.summands[j],
                           self.blocks()[i][j])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _require_parallel(self, other: "MatMorphism"):
        if self.source != other.source or self.target != other.target:
            raise EndpointError("cannot add morphisms with different endpoints")

    # Integer combinations of canonical blocks are canonical except where
    # the block's group lacks ``unit_pivots``; only those are reduced.

    def __add__(self, other: "MatMorphism") -> "MatMorphism":
        self._require_parallel(other)
        return _canonical(self.source, self.target, self._dims,
                          list(map(operator.add, self.coeffs, other.coeffs)), combination=True)

    def __sub__(self, other: "MatMorphism") -> "MatMorphism":
        self._require_parallel(other)
        return _canonical(self.source, self.target, self._dims,
                          list(map(operator.sub, self.coeffs, other.coeffs)), combination=True)

    def __neg__(self) -> "MatMorphism":
        return _canonical(self.source, self.target, self._dims,
                          [-x for x in self.coeffs], combination=True)

    def scale(self, c: int) -> "MatMorphism":
        return _canonical(self.source, self.target, self._dims,
                          [c * x for x in self.coeffs], combination=True)

    def __repr__(self) -> str:
        return f"MatMorphism({self.source!r} -> {self.target!r}: {format_mat(self)})"


def _mat(source: TupleObject, target: TupleObject, coeffs: tuple[int, ...],
         dims: tuple[int, ...]) -> MatMorphism:
    """The morphism with coefficients ``coeffs``, which must already be
    canonical, in blocks of the dimensions ``dims``; only the length is
    checked."""
    if len(coeffs) != sum(dims):
        raise EndpointError(f"{len(coeffs)} coefficients for a morphism {source!r} -> {target!r}")
    f = object.__new__(MatMorphism)
    f.source = source
    f.target = target
    f.coeffs = coeffs
    f._dims = dims
    return f


def _from_grid(source: TupleObject, target: TupleObject,
               grid: Sequence[Sequence[tuple[int, ...]]]) -> MatMorphism:
    """The morphism whose entry (i, j) has the canonical coefficients
    ``grid[i][j]``."""
    blocks = [block for row in grid for block in row]
    return _mat(source, target, tuple(chain.from_iterable(blocks)), tuple(map(len, blocks)))


def _canonical(x: TupleObject, y: TupleObject, dims: tuple[int, ...], coeffs: list[int],
               combination: bool = False) -> MatMorphism:
    """The morphism ``x -> y`` whose blocks, of dimensions ``dims``, are
    those of ``coeffs`` brought to canonical form.  With ``combination``,
    ``coeffs`` is an integer combination of canonical blocks, and only the
    blocks whose group lacks ``unit_pivots`` are reduced."""
    cat = x.cat
    if cat.relations:
        group_of = cat.hom_group_lin
        pairs = [(a, b) for a in x.summands for b in y.summands]
        pos = 0
        for (a, b), n in zip(pairs, dims):
            if n:
                group = group_of(a, b)
                if group.relations.rows and not (combination and group.unit_pivots):
                    coeffs[pos : pos + n] = group.canonical_rep(coeffs[pos : pos + n])
            pos += n
    return _mat(x, y, tuple(coeffs), dims)


def single(lin: LinMorphism) -> MatMorphism:
    """1x1 matrix morphism wrapping a quiver-category morphism."""
    src = TupleObject(lin.cat, (lin.source,))
    tgt = TupleObject(lin.cat, (lin.target,))
    return _mat(src, tgt, lin.coeffs, (lin.cat.dim(lin.source, lin.target),))


def zero_mat(x: TupleObject, y: TupleObject) -> MatMorphism:
    dims = x.cat.block_dims(x.summands, y.summands)
    return _mat(x, y, (0,) * sum(dims), dims)


def identity_mat(x: TupleObject) -> MatMorphism:
    cat = x.cat
    dims = cat.block_dims(x.summands, x.summands)
    n = len(x.summands)
    out: list[int] = []
    for i, a in enumerate(x.summands):
        for j in range(n):
            # the identity path is the only path from a vertex to itself
            out += cat.unit_coeffs(a, a)[0] if i == j else (0,) * dims[i * n + j]
    return _mat(x, x, tuple(out), dims)


def compose_mat(f: MatMorphism, g: MatMorphism) -> MatMorphism:
    """Matrix product in diagrammatic order (``f`` then ``g``)."""
    if f.target is not g.source and f.target != g.source:
        raise EndpointError("inner tuple objects do not match")
    x, z = f.source, g.target
    cat = x.cat
    dims = cat.block_dims(x.summands, z.summands)
    if not (any(f.coeffs) and any(g.coeffs)):
        return _mat(x, z, (0,) * sum(dims), dims)
    ys = f.target.summands
    p = len(z.summands)
    # the nonzero blocks of each column of g, with their row and its vertex
    g_cols: list[list] = [[] for _ in range(p)]
    for j, row in enumerate(g.blocks()):
        for k, block in enumerate(row):
            if any(block):
                g_cols[k].append((j, ys[j], block))
    compose = cat.compose_coeffs
    out: list[int] = []
    for i, (a, f_row) in enumerate(zip(x.summands, f.blocks())):
        for c, g_col, n in zip(z.summands, g_cols, dims[i * p : (i + 1) * p]):
            terms = [(b, f_row[j], ge) for j, b, ge in g_col if any(f_row[j])]
            out += compose(a, c, terms) if terms else (0,) * n
    return _mat(x, z, tuple(out), dims)


def direct_sum_mat(f: MatMorphism, g: MatMorphism) -> MatMorphism:
    """Block-diagonal sum on concatenated tuples."""
    return from_blocks(
        [[f, zero_mat(f.source, g.target)], [zero_mat(g.source, f.target), g]]
    )


def hstack_mat(*fs: MatMorphism) -> MatMorphism:
    """[f g ...]: common source, concatenated targets."""
    if not fs:
        raise EndpointError("hstack of nothing")
    src = fs[0].source
    if any(f.source != src for f in fs):
        raise EndpointError("hstack with different sources")
    tgt = TupleObject(src.cat, tuple(v for f in fs for v in f.target.summands))
    return _from_grid(src, tgt, [list(chain.from_iterable(row))
                                 for row in zip(*(f.blocks() for f in fs))])


def vstack_mat(*fs: MatMorphism) -> MatMorphism:
    """[f; g; ...]: concatenated sources, common target."""
    if not fs:
        raise EndpointError("vstack of nothing")
    tgt = fs[0].target
    if any(f.target != tgt for f in fs):
        raise EndpointError("vstack with different targets")
    src = TupleObject(tgt.cat, tuple(v for f in fs for v in f.source.summands))
    return _mat(src, tgt, tuple(chain.from_iterable(f.coeffs for f in fs)),
                tuple(chain.from_iterable(f._dims for f in fs)))


def from_blocks(grid: Sequence[Sequence[MatMorphism]]) -> MatMorphism:
    """Assemble a block matrix; block (i, j) maps the i-th source part to the
    j-th target part."""
    return vstack_mat(*[hstack_mat(*row) for row in grid])


def dual_mat(f: MatMorphism) -> MatMorphism:
    """The morphism read in the opposite category: matrix transposed, every
    entry path-reversed."""
    cat = f.cat
    op = cat.opposite()
    xs, ys = f.source.summands, f.target.summands
    blocks = f.blocks()
    return _from_grid(TupleObject(op, ys), TupleObject(op, xs), [
        [cat.dual_coeffs(a, b, blocks[i][j]) for i, a in enumerate(xs)]
        for j, b in enumerate(ys)])


def format_mat(f: MatMorphism) -> str:
    if not f.source.summands or not f.target.summands:
        return "[]"
    return "[" + "; ".join(
        ", ".join(format_lin(e) for e in row) for row in f.entries
    ) + "]"


class HomBasis:
    """Path coordinates of Hom(X, Y) for tuple objects, in the layout of
    ``MatMorphism.coeffs``.

    Entry (i, j) owns the ``block_dim[(i, j)]`` coordinates from
    ``offset[(i, j)]`` on, row-major.  ``flatten`` is a morphism's
    coefficient tuple, ``unflatten`` brings every block of a vector to
    canonical form, and ``rel_rows`` lifts the relation lattice of every
    entry into the big coordinate space, as sparse ``{col: value}`` rows.
    """

    def __init__(self, x: TupleObject, y: TupleObject):
        self.cat = x.cat
        self.source = x
        self.target = y
        self._dims = x.cat.block_dims(x.summands, y.summands)
        pairs = [(i, j) for i in range(len(x)) for j in range(len(y))]
        self.block_dim = dict(zip(pairs, self._dims))
        self.offset = dict(zip(pairs, accumulate(self._dims, initial=0)))
        self.dim = sum(self._dims)

    def flatten(self, f: MatMorphism) -> tuple[int, ...]:
        if f.source != self.source or f.target != self.target:
            raise EndpointError("morphism does not live in this Hom space")
        return f.coeffs

    def unflatten(self, vec: Sequence[int]) -> MatMorphism:
        return _canonical(self.source, self.target, self._dims, list(vec))

    def units(self):
        for (i, j), n in self.block_dim.items():
            for k in range(n):
                yield (i, j, k)

    def rel_rows(self) -> list[dict[int, int]]:
        rows: list[dict[int, int]] = []
        for i, a in enumerate(self.source.summands):
            for j, b in enumerate(self.target.summands):
                group = self.cat.hom_group_lin(a, b)
                off = self.offset[(i, j)]
                for rel in group.relations.entries:
                    rows.append({off + k: v for k, v in enumerate(rel) if v})
        return rows


def _place(row: dict[int, int], off: int, coeffs: Sequence[int]):
    """Write the nonzero ``coeffs`` into the sparse ``row`` from column ``off`` on."""
    for k, v in enumerate(coeffs):
        if v:
            row[off + k] = v


def left_compose_rows(f: MatMorphism, unknown: HomBasis, out: HomBasis) -> list[dict[int, int]]:
    """Sparse coefficient rows, ``{col: value}``, of the linear map
    ``sigma -> f * sigma`` in the flattened coordinates; one row per
    unknown unit."""
    cat = f.cat
    blocks = f.blocks()
    rows = []
    for (l, j, k) in unknown.units():
        b = unknown.source.summands[l]
        c = unknown.target.summands[j]
        unit = cat.unit_coeffs(b, c)[k]
        row: dict[int, int] = {}
        for i, a in enumerate(out.source.summands):
            fe = blocks[i][l]
            if any(fe):
                _place(row, out.offset[(i, j)], cat.compose_coeffs(a, c, ((b, fe, unit),)))
        rows.append(row)
    return rows


def right_compose_rows(unknown: HomBasis, g: MatMorphism, out: HomBasis) -> list[dict[int, int]]:
    """Sparse coefficient rows of ``sigma -> sigma * g`` in flattened
    coordinates."""
    cat = g.cat
    blocks = g.blocks()
    rows = []
    for (i, l, k) in unknown.units():
        a = unknown.source.summands[i]
        b = unknown.target.summands[l]
        unit = cat.unit_coeffs(a, b)[k]
        row: dict[int, int] = {}
        for j, c in enumerate(out.target.summands):
            ge = blocks[l][j]
            if any(ge):
                _place(row, out.offset[(i, j)], cat.compose_coeffs(a, c, ((b, unit, ge),)))
        rows.append(row)
    return rows


def homotopy_rows(beta: MatMorphism, gamma: MatMorphism, out: HomBasis
                  ) -> tuple[HomBasis, HomBasis, list[dict[int, int]]]:
    """The spaces of ``sigma1: a -> d`` and ``sigma2: c -> b`` and the sparse
    rows spanning the null-homotopies ``sigma1 * beta + gamma * sigma2`` in
    ``out`` = Hom(a, b), followed by the relation rows of ``out``."""
    h1 = HomBasis(out.source, beta.source)
    h2 = HomBasis(gamma.target, out.target)
    rows = right_compose_rows(h1, beta, out)
    rows += left_compose_rows(gamma, h2, out)
    rows += out.rel_rows()
    return h1, h2, rows


# Systems of more cells (rows times columns) than this get the sparse
# membership test before the dense solve.  On solvable systems the test costs
# about half a dense solve below 512 cells and under 0.3 of one from 1,024
# cells on, while on unsolvable ones it replaces a dense solve that costs 9
# to 80 times more; the small systems, where the test does not pay, are
# mostly solvable.
SPARSE_PRECHECK_CELLS = 1000


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
    h1, h2, rows = homotopy_rows(beta, gamma, out)
    rhs = out.flatten(alpha)
    if (len(rows) * out.dim > SPARSE_PRECHECK_CELLS
            and not in_lattice(rows, [{j: v for j, v in enumerate(rhs) if v}])):
        return None
    sol = solve_left(IntMatrix.from_sparse(rows, out.dim), IntMatrix.row_vector(rhs))
    if sol is None:
        return None
    vec = sol.entries[0]
    sigma1 = h1.unflatten(vec[: h1.dim])
    sigma2 = h2.unflatten(vec[h1.dim : h1.dim + h2.dim])
    check = compose_mat(sigma1, beta) + compose_mat(gamma, sigma2)
    if check != alpha:
        raise RuntimeError("homotopy solver produced a bad certificate")
    return sigma1, sigma2
