"""The additive closure of a quiver category.

Objects are (possibly empty) tuples of vertices; a morphism from an m-tuple
to an n-tuple is an m x n matrix of quiver-category morphisms, composed by
the usual row-times-matrix calculus in diagrammatic order.  The empty tuple
is the zero object and matrices with zero rows or columns are legal
morphisms.

A matrix morphism stores its grid: the tuple of its rows, each the tuple
of the canonical coefficient blocks of its entries, block (i, j) over the
coordinates of Hom(source[i], target[j]) (``QuiverCategory``: the basis
paths that no unit relation pivot fixes).  Zero blocks are kept by the
category per vertex pair.  Every block formed here is reduced by the
category's one rule: composites through ``compose_coeffs``, checked
entries through ``coords``, and sums, multiples and cut solution vectors
through ``canonical_blocks``.  ``from_blocks`` is the one block-matrix
constructor, and ``arrow_mat`` gives an arrow its 1x1 morphism from the
category's coordinates of the arrow (``QuiverCategory.arrow``).  All
arithmetic on morphisms is here, in coordinates, and ``format_mat`` prints
the blocks from their coordinate paths.  Path vectors (``LinMorphism``)
cross only in the checking constructor, ``entries`` and ``single``, which
the JSON reader and the benchmark harness use.  The flat row-major layout
of homotopy systems belongs to ``HomBasis`` alone, as its ``cuts``.

The module also hosts the homotopy-equation solver ``decide_homotopy``: the
solvability of ``alpha = sigma1 * beta + gamma * sigma2`` is flattened over
the coordinates of all Hom entries, one auxiliary unknown per torsion row of
each target Hom set, and decided by an exact integer solve, ``solve_left``.
A system above ``PROBE_CELLS`` cells, sized from its entries' dimensions,
is first evaluated on the category's two seeded probe representations, by
the matrix half of ``evalfunctor.Evaluation``, before its layouts are
built: a probe that shows it unsolvable returns None.  A zero datum gets
the zero pair, every other positive answer comes from the solve, and each
is re-verified by matrix arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import Iterable, Optional, Sequence, Union

from .intlinalg import FpAbGroup, IntMatrix, left_kernel, solve_left
from .quivercat import EndpointError, LinMorphism, QuiverCategory, format_coords
from .evalfunctor import Evaluation, check_representation, random_representation


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


def sum_obj(*objs: TupleObject) -> TupleObject:
    """The concatenation of ``objs``.  Its summands come from checked objects
    of one category, so it skips the constructor's re-validation."""
    first = objs[0]
    if len(objs) == 1:
        return first
    cat, summands = first.cat, ()
    for x in objs:
        if x.cat is not cat:
            raise EndpointError("summands lie in different categories")
        summands += x.summands
    t = object.__new__(TupleObject)
    t.__dict__.update(cat=cat, summands=summands)
    return t


class MatMorphism:
    """Matrix of quiver-category morphisms between tuple objects; entry
    (i, j) runs from the i-th source summand to the j-th target summand.

    ``blocks`` is the grid of the entries' canonical coordinate tuples:
    ``blocks[i][j]`` holds the ``cat.dim(source[i], target[j])``
    coordinates of entry (i, j).  The constructor takes the grid of
    entries, ``LinMorphism`` values over the path bases, and checks every
    entry's category, endpoints and path count; it is the one place that
    checks them.  It then reads each entry's path vector as canonical
    coordinates (``cat.coords``), so an entry need not be reduced already.
    The operations of this module build their results block by block from
    checked values, so their shapes hold by construction and they are
    built unchecked.

    Values are immutable: nothing assigns to their attributes after
    construction (a slotted class without an assignment guard, because
    construction is the hottest path of the library).  The hash is
    computed on first use and kept in a slot, so the value-keyed tables
    (``Evaluation``'s memo, the replay reader's table) do not walk the
    coefficients again on every lookup.
    """

    __slots__ = ("source", "target", "blocks", "_hash")

    def __new__(cls, source: TupleObject, target: TupleObject,
                entries: Sequence[Sequence[LinMorphism]]):
        cat, xs, ys = source.cat, source.summands, target.summands
        if target.cat is not cat:
            raise EndpointError("source and target lie in different categories")
        if len(entries) != len(xs):
            raise EndpointError("entry grid has the wrong number of rows")
        for i, (a, row) in enumerate(zip(xs, entries)):
            if len(row) != len(ys):
                raise EndpointError("entry grid has the wrong number of columns")
            for j, (b, e) in enumerate(zip(ys, row)):
                if e.cat is not cat:
                    raise EndpointError(f"entry ({i},{j}) belongs to another category")
                if e.source != a or e.target != b:
                    raise EndpointError(f"entry ({i},{j}) has endpoints {e.source}->{e.target}")
                if len(e.coeffs) != cat.hom_group_lin(a, b).ngens:
                    raise EndpointError(f"entry ({i},{j}) has {len(e.coeffs)} coefficients "
                                        f"for {cat.hom_group_lin(a, b).ngens} paths {a}->{b}")
        coords = cat.coords
        return _mat(source, target, tuple([tuple([coords(a, b, e.coeffs) for b, e in zip(ys, row)])
                                           for a, row in zip(xs, entries)]))

    def __eq__(self, other):
        if not isinstance(other, MatMorphism):
            return NotImplemented
        return (self.blocks == other.blocks and self.source == other.source
                and self.target == other.target)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((self.source, self.target, self.blocks))
            return h

    @property
    def cat(self) -> QuiverCategory:
        return self.source.cat

    @property
    def entries(self) -> tuple[tuple[LinMorphism, ...], ...]:
        """The grid of entries as ``LinMorphism`` values."""
        cat, ys = self.cat, self.target.summands
        return tuple(
            tuple(LinMorphism(cat, a, b, cat.pad(a, b, block)) for b, block in zip(ys, row))
            for a, row in zip(self.source.summands, self.blocks))

    def is_zero(self) -> bool:
        return not any(map(any, chain.from_iterable(self.blocks)))

    def _combine(self, op, other: "MatMorphism") -> "MatMorphism":
        if self.source != other.source or self.target != other.target:
            raise EndpointError("cannot add morphisms with different endpoints")
        return _canonical(self.source, self.target, [
            [tuple(map(op, p, q)) for p, q in zip(r, s)]
            for r, s in zip(self.blocks, other.blocks)])

    def __add__(self, other: "MatMorphism") -> "MatMorphism":
        return self._combine(operator.add, other)

    def __sub__(self, other: "MatMorphism") -> "MatMorphism":
        return self._combine(operator.sub, other)

    def __neg__(self) -> "MatMorphism":
        return self.scale(-1)

    def scale(self, c: int) -> "MatMorphism":
        return _canonical(self.source, self.target, [
            [[c * v for v in block] for block in row] for row in self.blocks])

    def __repr__(self) -> str:
        return f"MatMorphism({self.source!r} -> {self.target!r}: {format_mat(self)})"


def _mat(source: TupleObject, target: TupleObject,
         blocks: tuple[tuple[tuple[int, ...], ...], ...]) -> MatMorphism:
    """The morphism with the grid ``blocks``, unchecked: one row per source
    summand, one block per target summand, each block already canonical and
    of its Hom set's dimension."""
    f = object.__new__(MatMorphism)
    f.source = source
    f.target = target
    f.blocks = blocks
    return f


def _canonical(x: TupleObject, y: TupleObject,
               grid: Iterable[Sequence[Sequence[int]]]) -> MatMorphism:
    """The morphism ``x -> y`` whose blocks are those of the rows ``grid``,
    each of its Hom set's dimension, brought to canonical form."""
    return _mat(x, y, x.cat.canonical_blocks(x.summands, y.summands, grid))


def single(lin: LinMorphism) -> MatMorphism:
    """1x1 matrix morphism wrapping a path vector, for the benchmark harness."""
    return MatMorphism(TupleObject(lin.cat, (lin.source,)), TupleObject(lin.cat, (lin.target,)),
                       ((lin,),))


def arrow_mat(cat: QuiverCategory, label: str) -> MatMorphism:
    """The 1x1 matrix morphism of the arrow ``label`` of ``cat``."""
    a, b, block = cat.arrow(label)
    return _mat(TupleObject(cat, (a,)), TupleObject(cat, (b,)), ((block,),))


def zero_mat(x: TupleObject, y: TupleObject) -> MatMorphism:
    return _mat(x, y, x.cat.zero_blocks(x.summands, y.summands))


def identity_mat(x: TupleObject) -> MatMorphism:
    return from_blocks([x], [x], [[1]])


def compose_mat(f: MatMorphism, g: MatMorphism) -> MatMorphism:
    """Matrix product in diagrammatic order (``f`` then ``g``)."""
    if f.target is not g.source and f.target != g.source:
        raise EndpointError("inner tuple objects do not match")
    x, z = f.source, g.target
    if f.is_zero() or g.is_zero():
        return zero_mat(x, z)
    cat = x.cat
    ys = f.target.summands
    # the nonzero blocks of each column of g, with their row and its vertex
    g_cols: list[list] = [[] for _ in z.summands]
    for j, row in enumerate(g.blocks):
        for k, block in enumerate(row):
            if any(block):
                g_cols[k].append((j, ys[j], block))
    compose, zero = cat.compose_coeffs, cat.zero_block
    out = []
    for a, f_row in zip(x.summands, f.blocks):
        out_row = []
        for c, g_col in zip(z.summands, g_cols):
            terms = [(b, f_row[j], ge) for j, b, ge in g_col if any(f_row[j])]
            out_row.append(compose(a, c, terms) if terms else zero(a, c))
        out.append(tuple(out_row))
    return _mat(x, z, tuple(out))


def from_blocks(rows: Sequence[TupleObject], cols: Sequence[TupleObject],
                grid: Sequence[Sequence[Union[MatMorphism, int]]]) -> MatMorphism:
    """The block matrix from the sum of ``rows`` to the sum of ``cols``.

    Part (i, j) is a morphism ``rows[i] -> cols[j]`` or an integer ``c``:
    ``c`` times the identity of ``rows[i]``, which must be ``cols[j]``, and
    the zero part for 0.  The grid of coefficient blocks is written in one
    pass: it starts as the category's zero blocks, and the parts' blocks and
    the coordinate blocks of ``c`` times each identity are written over them.
    The identity path is the only path from a vertex to itself, so the
    block of ``c`` times the identity of ``a`` is ``cat.coords(a, a, (c,))``,
    the canonical coordinates of that path vector; a relation ``id(a) = 0``
    leaves Hom(a, a) with no coordinate, so the block is then empty."""
    if not rows or not cols:
        raise EndpointError("block matrix without row or column objects")
    source, target = sum_obj(*rows), sum_obj(*cols)
    cat = source.cat
    if target.cat is not cat:
        raise EndpointError("summands lie in different categories")
    if len(grid) != len(rows):
        raise EndpointError("block grid does not fit its row objects")
    lines = list(map(list, cat.zero_blocks(source.summands, target.summands)))
    at = 0  # the first line of row object i
    for i, (x, parts) in enumerate(zip(rows, grid)):
        if len(parts) != len(cols):
            raise EndpointError("block grid does not fit its column objects")
        col = 0  # the first block of column object j
        for j, (y, part) in enumerate(zip(cols, parts)):
            if part.__class__ is MatMorphism:
                if (part.source is not x and part.source != x
                        or part.target is not y and part.target != y):
                    raise EndpointError(f"block ({i},{j}) runs {part.source!r} -> {part.target!r}")
                end = col + len(y.summands)
                for k, row in enumerate(part.blocks, at):
                    lines[k][col:end] = row
            elif part:
                if y is not x and y != x:
                    raise EndpointError(f"identity block ({i},{j}) between different objects")
                for k, a in enumerate(x.summands):
                    lines[at + k][col + k] = cat.coords(a, a, (part,))
            col += len(y.summands)
        at += len(x.summands)
    return _mat(source, target, tuple(map(tuple, lines)))


def dual_mat(f: MatMorphism) -> MatMorphism:
    """The morphism read in the opposite category: matrix transposed, every
    entry path-reversed."""
    cat = f.cat
    op = cat.opposite()
    xs, ys = f.source.summands, f.target.summands
    return _mat(TupleObject(op, ys), TupleObject(op, xs), tuple(
        tuple(cat.dual_coeffs(a, b, row[j]) for a, row in zip(xs, f.blocks))
        for j, b in enumerate(ys)))


def format_entries(f: MatMorphism) -> list[list[str]]:
    """The printed entries of ``f``, row by row (``format_coords``)."""
    cat, ys = f.cat, f.target.summands
    return [[format_coords(cat, a, b, block) for b, block in zip(ys, row)]
            for a, row in zip(f.source.summands, f.blocks)]


def format_mat(f: MatMorphism) -> str:
    if not f.source.summands or not f.target.summands:
        return "[]"
    return "[" + "; ".join(map(", ".join, format_entries(f))) + "]"


def entry_dims(x: TupleObject, y: TupleObject) -> list[int]:
    """The dimensions of the entries of Hom(x, y), in row-major order."""
    dim, ys = x.cat.dim, y.summands
    return [dim(a, b) for a in x.summands for b in ys]


class HomBasis:
    """Coordinates of Hom(X, Y) for tuple objects: the flat row-major
    layout in which homotopy systems are posed.  No other code flattens or
    splits a matrix morphism's coefficients.

    The layout is ``cuts``: entry (i, j) owns the coordinates
    ``cuts[i][j]``, a slice of length ``cat.dim(X[i], Y[j])``, and the
    slices tile ``[0, dim)`` in row-major order.  ``flatten`` chains a
    morphism's blocks, ``unflatten`` cuts a vector into blocks and brings
    each to canonical form, and ``rel_rows`` lifts the torsion rows of
    every entry, the relations left on its coordinates, into the big
    coordinate space, as sparse ``{col: value}`` rows.
    """

    def __init__(self, x: TupleObject, y: TupleObject, dims: Optional[list[int]] = None):
        self.cat = x.cat
        self.source = x
        self.target = y
        bounds = list(accumulate(entry_dims(x, y) if dims is None else dims, initial=0))
        self.dim = bounds[-1]
        cuts = iter(map(slice, bounds, bounds[1:]))
        self.cuts = [list(islice(cuts, len(y.summands))) for _ in x.summands]

    def flatten(self, f: MatMorphism) -> tuple[int, ...]:
        if (f.source is not self.source and f.source != self.source
                or f.target is not self.target and f.target != self.target):
            raise EndpointError("morphism does not live in this Hom space")
        return tuple(chain.from_iterable(chain.from_iterable(f.blocks)))

    def unflatten(self, vec: Sequence[int]) -> MatMorphism:
        vec = tuple(vec)
        return _canonical(self.source, self.target,
                          [[vec[cut] for cut in row] for row in self.cuts])

    def rel_rows(self) -> list[dict[int, int]]:
        rows: list[dict[int, int]] = []
        torsion_rows = self.cat.torsion_rows
        for a, cuts in zip(self.source.summands, self.cuts):
            for b, cut in zip(self.target.summands, cuts):
                off = cut.start
                for rel in torsion_rows(a, b):
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
    coordinate of ``unknown``, in its row-major order."""
    cat = f.cat
    compose = cat.compose_coeffs
    xs, zs = out.source.summands, unknown.target.summands
    rows = []
    for l, b in enumerate(unknown.source.summands):
        f_col = [(a, f_row[l], cuts) for a, f_row, cuts in zip(xs, f.blocks, out.cuts)
                 if any(f_row[l])]
        for j, c in enumerate(zs):
            for unit in cat.unit_coeffs(b, c):
                row: dict[int, int] = {}
                for a, fe, cuts in f_col:
                    _place(row, cuts[j].start, compose(a, c, ((b, fe, unit),)))
                rows.append(row)
    return rows


def right_compose_rows(unknown: HomBasis, g: MatMorphism, out: HomBasis) -> list[dict[int, int]]:
    """Sparse coefficient rows of ``sigma -> sigma * g`` in flattened
    coordinates; one row per coordinate of ``unknown``, in its row-major
    order."""
    cat = g.cat
    compose = cat.compose_coeffs
    ys, zs = unknown.target.summands, out.target.summands
    rows = []
    for a, cuts in zip(unknown.source.summands, out.cuts):
        for b, g_row in zip(ys, g.blocks):
            g_parts = [(c, ge, cut.start) for c, ge, cut in zip(zs, g_row, cuts) if any(ge)]
            for unit in cat.unit_coeffs(a, b):
                row: dict[int, int] = {}
                for c, ge, off in g_parts:
                    _place(row, off, compose(a, c, ((b, unit, ge),)))
                rows.append(row)
    return rows


def homotopy_rows(h1: HomBasis, beta: MatMorphism, gamma: MatMorphism, h2: HomBasis,
                  out: HomBasis) -> list[dict[int, int]]:
    """The sparse rows spanning the null-homotopies ``sigma1 * beta + gamma *
    sigma2`` in ``out`` = Hom(a, b), for ``sigma1`` in ``h1`` = Hom(a, d) and
    ``sigma2`` in ``h2`` = Hom(c, b), followed by the relation rows of
    ``out``."""
    return right_compose_rows(h1, beta, out) + left_compose_rows(gamma, h2, out) + out.rel_rows()


# Systems of more cells (rows times columns) than this are first tried on the
# probe representations, before any layout is built, so only the unknowns'
# rows are counted.  In the first 336 ``hom_ladder`` operations of seed 5,
# 672 systems were above it, all unsolvable, and the probes refuted 667 of
# them, in 0.28 to 0.40 s against 1.5 to 1.9 s to solve them (2-core shared
# Xeon, best of three); the operations' result checks add none.  Those add
# 33 systems of 500 to 1000 cells, 5 of them solvable, where probing would
# take 0.009 to 0.015 s to save 0.007 to 0.013 s of solving the 16 refuted.
PROBE_CELLS = 1000

# The seeds of the probe representations.
_PROBE_SEEDS = (0, 1)


def probes(cat: QuiverCategory) -> tuple[Evaluation, ...]:
    """The ``Evaluation``s of ``cat``'s probe representations, built on first use
    from ``_PROBE_SEEDS`` and kept on ``cat``, so they are freed with it.  A
    build that raises or fails ``check_representation`` is left out: a
    missing probe costs only the work it would have saved."""
    found = cat._probes
    if found is None:
        found = []
        for seed in _PROBE_SEEDS:
            try:
                ev = Evaluation(random_representation(cat, seed, max_rank=3))
                if check_representation(ev):
                    found.append(ev)
            except (RuntimeError, ValueError):  # a failed repair; the package's errors
                continue
        found = cat._probes = tuple(found)
    return found


def _probe_refutes(alpha: MatMorphism, beta: MatMorphism, gamma: MatMorphism) -> bool:
    """Whether a probe shows ``alpha = sigma1 * beta + gamma * sigma2``
    unsolvable.  A probe F is an additive functor that kills the relations,
    so a solution gives ``F(alpha) = F(sigma1) F(beta) + F(gamma) F(sigma2)``
    and makes ``x F(alpha)`` zero in the quotient group ``FpAbGroup(n,
    F(beta))`` for every row ``x`` with ``x F(gamma) = 0``; one basis row of
    that left kernel for which it is not zero refutes the system."""
    for ev in probes(alpha.cat):
        kernel = left_kernel(ev.mat(gamma))
        if kernel.rows:
            b = ev.mat(beta)
            quotient = FpAbGroup(b.cols, b)
            if not all(map(quotient.is_zero_element, (kernel * ev.mat(alpha)).entries)):
                return True
    return False


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
    x, y, d, c = alpha.source, alpha.target, beta.source, gamma.target
    if alpha.is_zero():  # the zero pair, as the solve would find it
        sigma1, sigma2 = zero_mat(x, d), zero_mat(c, y)
    else:
        dims, dims1, dims2 = entry_dims(x, y), entry_dims(x, d), entry_dims(c, y)
        if (sum(dims1) + sum(dims2)) * sum(dims) > PROBE_CELLS and _probe_refutes(alpha, beta, gamma):
            return None
        out, h1, h2 = HomBasis(x, y, dims), HomBasis(x, d, dims1), HomBasis(c, y, dims2)
        sol = solve_left(IntMatrix.from_sparse(homotopy_rows(h1, beta, gamma, h2, out), out.dim),
                         IntMatrix.row_vector(out.flatten(alpha)))
        if sol is None:
            return None
        vec = sol.entries[0]
        sigma1 = h1.unflatten(vec[: h1.dim])
        sigma2 = h2.unflatten(vec[h1.dim : h1.dim + h2.dim])
    check = compose_mat(sigma1, beta) + compose_mat(gamma, sigma2)
    if check != alpha:
        raise RuntimeError("homotopy solver produced a bad certificate")
    return sigma1, sigma2
