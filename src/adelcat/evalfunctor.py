"""Representations of a quiver with relations and the exact functor they
induce on the free abelian category, evaluated into f.p. abelian groups.

A representation is a free abelian group on every vertex and an integer
matrix on every arrow (row vectors act on the right), such that all
relations evaluate to zero.  One ``Evaluation`` is the functor of one
representation.  On paths and matrix morphisms it gives integer matrices:
a matrix morphism's block is one product of its coordinates with the
*stacked rows* of its Hom set, the flattened matrices of its coordinate
paths.  Objects of the free abelian category then evaluate to the homology
of the evaluated composable pair, presented on a lattice basis of the
corelation kernel; morphisms evaluate to integer matrices on those
generators.

``addclosure`` refutes large homotopy systems on the matrix evaluations of
seeded representations.  The group side (kernels, cokernels, homology) is
computed from presentations, independently of the categorical
constructions: it is the oracle the test suite compares those
constructions against, and this module imports nothing of the engine above
``quivercat``.  Oracle items are kernel, cokernel, homology and exactness
claims; a mono or epi claim is a kernel or cokernel item whose object is
the zero object.  One routine, ``oracle_compare``, checks every kind: a
construction item reads its symbol and group-side construction from one
table, and an exactness item checks that the evaluated homology vanishes.

``oracle_suite`` evaluates each object and morphism once: its items share
one ``Evaluation``, which memoises stacked rows, objects and morphisms by
value (not paths) and is dropped when the call returns.  Nothing is
cached on the representation or in the module; given a representation,
the public functions compute fresh values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import TYPE_CHECKING, Optional, Sequence

from .intlinalg import (
    FpAbGroup,
    IntMatrix,
    SmithInvariants,
    _matrix,
    lattice_basis,
    left_kernel,
    solve_left,
    vstack,
)
from .quivercat import Path, QuiverCategory

if TYPE_CHECKING:
    from .adelman import AdelMorphism, AdelObject


class RepresentationError(ValueError):
    """Malformed or relation-violating representation data."""


@dataclass(frozen=True, eq=False)
class Representation:
    """Free-module representation of the quiver: ranks on vertices, integer
    matrices on arrows."""

    cat: QuiverCategory
    ranks: dict
    matrices: dict

    def __post_init__(self):
        q = self.cat.quiver
        for v in q.vertices:
            if v not in self.ranks or self.ranks[v] < 0:
                raise RepresentationError(f"missing or negative rank for vertex {v!r}")
        for a in q.arrows:
            shape = (self.ranks[a.source], self.ranks[a.target])
            m = self.matrices.get(a.label)
            if m is None:
                object.__setattr__(self, "matrices", {**self.matrices, a.label: IntMatrix.zeros(*shape)})
            elif m.shape != shape:
                raise RepresentationError(
                    f"matrix for arrow {a.label!r} has shape {m.shape}, expected {shape}")

    def rank_of(self, obj) -> int:
        return sum(self.ranks[v] for v in obj.summands)


@dataclass(frozen=True)
class GroupWithMap:
    """Evaluated object: homology group presented on a lattice basis of the
    corelation kernel inside the evaluated middle module."""

    group: FpAbGroup
    basis: IntMatrix

    def invariants(self) -> SmithInvariants:
        return self.group.invariants().reduced()


@dataclass(frozen=True)
class InducedMap:
    """Evaluated morphism: an integer matrix on the chosen generators that
    sends relations into relations."""

    source: GroupWithMap
    target: GroupWithMap
    matrix: IntMatrix


def _first_cols(m: IntMatrix, k: int) -> IntMatrix:
    return _matrix(tuple(r[:k] for r in m.entries), k)


def _preimage_relations(basis: IntMatrix, lattice_rows: IntMatrix) -> IntMatrix:
    """Rows spanning the c with ``c * basis`` in the lattice of ``lattice_rows``."""
    return _first_cols(left_kernel(vstack(basis, lattice_rows)), basis.rows)


class Evaluation:
    """The exact functor of one representation, memoised by value.

    The functor is a pure function of the representation and the value, so
    a memo hit is what a fresh evaluation would compute.  Each vertex pair's
    stacked rows, each object and each morphism is evaluated at most once
    per ``Evaluation``, on first use; a path's matrix is not memoised, since
    the stacked rows read each coordinate path once.  ``oracle_suite`` makes
    one per call and drops it when it returns; every public function of this
    module that evaluates accepts one in place of a representation.
    """

    def __init__(self, rep: Representation):
        self.rep = rep
        self._stacked: dict[tuple[str, str], tuple[tuple[int, ...], ...]] = {}
        self._objects: dict[AdelObject, GroupWithMap] = {}
        self._morphisms: dict[AdelMorphism, InducedMap] = {}

    def path(self, path: Path) -> IntMatrix:
        """The product of the matrices on ``path``'s arrows; the identity on
        a trivial path."""
        rep = self.rep
        factors = [rep.matrices[rep.cat.quiver.arrows[idx].label] for idx in path.arrows]
        return reduce(mul, factors) if factors else IntMatrix.identity(rep.ranks[path.source])

    def stacked(self, a: str, b: str) -> tuple[tuple[int, ...], ...]:
        """The stacked rows of Hom(a, b): its coordinate paths' matrices, flattened."""
        rows = self._stacked.get((a, b))
        if rows is None:
            rows = self._stacked[(a, b)] = tuple(
                sum(self.path(p).entries, ()) for p in self.rep.cat.coordinate_paths(a, b))
        return rows

    def mat(self, f) -> IntMatrix:
        """One integer matrix on the direct sums, for a matrix morphism: block
        (a, b) is its coordinates times the stacked rows of Hom(a, b), cut
        into rows; a block of a rank-0 vertex or of zeros stays zero."""
        ranks, ys = self.rep.ranks, f.target.summands
        ncols = self.rep.rank_of(f.target)
        rows = [[0] * ncols for _ in range(self.rep.rank_of(f.source))]
        roff = 0
        for a, blocks in zip(f.source.summands, f.blocks):
            ra, coff = ranks[a], 0
            for b, coeffs in zip(ys, blocks):
                rb = ranks[b]
                if ra and rb and any(coeffs):
                    flat = None
                    for c, srow in zip(coeffs, self.stacked(a, b)):
                        if c:
                            term = srow if c == 1 else [c * v for v in srow]
                            flat = term if flat is None else list(map(add, flat, term))
                    for i, row in enumerate(rows[roff : roff + ra]):
                        row[coff : coff + rb] = flat[i * rb : (i + 1) * rb]
                coff += rb
            roff += ra
        return _matrix(tuple(map(tuple, rows)), ncols)

    def object(self, x: AdelObject) -> GroupWithMap:
        g = self._objects.get(x)
        if g is None:
            g = self._objects[x] = self._object(x)
        return g

    def _object(self, x: AdelObject) -> GroupWithMap:
        """Homology of the evaluated composable pair: kernel of the evaluated
        corelation modulo the image of the evaluated relation morphism."""
        if not self.rep.rank_of(x.middle):  # the zero group, as the general path finds it
            empty = IntMatrix.zeros(0, 0)
            return GroupWithMap(FpAbGroup(0, empty), empty)
        kernel_basis = left_kernel(self.mat(x.corel))
        relations = _preimage_relations(kernel_basis, self.mat(x.rel))
        return GroupWithMap(FpAbGroup(kernel_basis.rows, relations), kernel_basis)

    def morphism(self, f: AdelMorphism) -> InducedMap:
        """Induced map on the evaluated homology groups."""
        m = self._morphisms.get(f)
        if m is None:
            m = self._morphisms[f] = self._induced(
                f, self.object(f.source), self.object(f.target))
        return m

    def _induced(self, f: AdelMorphism, src: GroupWithMap, tgt: GroupWithMap) -> InducedMap:
        image_rows = src.basis * self.mat(f.datum)
        coords = solve_left(tgt.basis, image_rows)
        if coords is None:  # pragma: no cover - guaranteed by the witness squares
            raise RepresentationError("evaluated datum does not preserve corelation kernels")
        for row in (src.group.relations * coords).entries:
            if not tgt.group.is_zero_element(row):  # pragma: no cover
                raise RepresentationError("evaluated map does not send relations into relations")
        return InducedMap(src, tgt, coords)


def _evaluation(rep: Representation | Evaluation) -> Evaluation:
    """``rep`` itself when it is an ``Evaluation``, else a fresh one."""
    return rep if isinstance(rep, Evaluation) else Evaluation(rep)


def check_representation(rep: Representation | Evaluation) -> bool:
    """True exactly when every relation evaluates to the zero matrix."""
    return _first_violated(rep) is None


def _first_violated(rep: Representation | Evaluation):
    """The first relation that does not evaluate to zero, or None."""
    ev = _evaluation(rep)
    for rel in ev.rep.cat.relations:
        total = IntMatrix.zeros(ev.rep.ranks[rel.source], ev.rep.ranks[rel.target])
        for coef, path in rel.terms:
            total = total + ev.path(path).scale(coef)
        if not total.is_zero():
            return rel
    return None


def eval_object(rep: Representation | Evaluation, x: AdelObject) -> GroupWithMap:
    """Homology of the evaluated composable pair: kernel of the evaluated
    corelation modulo the image of the evaluated relation morphism."""
    return _evaluation(rep).object(x)


def eval_morphism(rep: Representation | Evaluation, f: AdelMorphism) -> InducedMap:
    """Induced map on the evaluated homology groups."""
    return _evaluation(rep).morphism(f)


# -- random representations ----------------------------------------------------

def zero_representation(cat: QuiverCategory, rank: int = 1) -> Representation:
    return Representation(cat, {v: rank for v in cat.quiver.vertices}, {})


def random_representation(cat: QuiverCategory, seed: int,
                          max_rank: int = 3) -> Representation:
    """Seeded random valid representation.

    Ranks are drawn from ``0..max_rank`` and arrow entries from ``-2..2``;
    relation residuals are then repaired arrow by arrow, solving the last
    arrow of a violated relation's terms exactly (with a random kernel part)
    and zeroing it only when no exact solve exists.  The result always
    satisfies ``check_representation``.
    """
    rng = random.Random(seed)
    q = cat.quiver
    ranks = {v: rng.randint(0, max_rank) for v in q.vertices}
    mats = {a.label: _random_matrix(rng, ranks[a.source], ranks[a.target]) for a in q.arrows}
    rep = Representation(cat, ranks, dict(mats))
    for _ in range(8 * max(1, len(cat.relations))):
        violated = _first_violated(rep)
        if violated is None:
            return rep
        mats = dict(rep.matrices)
        if not _repair_relation(rep, violated, mats, rng):
            for label in (q.arrows[idx].label for _, path in violated.terms for idx in path.arrows):
                mats[label] = IntMatrix.zeros(*mats[label].shape)
        rep = Representation(cat, ranks, mats)
    if not check_representation(rep):  # pragma: no cover - zeroing terminates
        raise RuntimeError("representation repair did not converge")
    return rep


def _random_matrix(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    return IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)], cols)


def _repair_relation(rep: Representation, rel, mats: dict, rng: random.Random) -> bool:
    """Try to solve one arrow of the relation exactly; mutates ``mats`` and
    returns True on success."""
    q = rep.cat.quiver
    # each arrow once, in the order of its first occurrence
    candidates = dict.fromkeys(q.arrows[idx].label for _, path in rel.terms
                               for idx in reversed(path.arrows))
    for label in candidates:
        solved = _solve_arrow(rep, rel, label, mats, rng)
        if solved is not None:
            mats[label] = solved
            return True
    return False


def _solve_arrow(rep: Representation, rel, label: str, mats: dict,
                 rng: random.Random) -> Optional[IntMatrix]:
    """Solve ``sum_terms == 0`` for one arrow that occurs exactly once, at the
    end of every term containing it: ``C * M == T`` with a random homogeneous
    part added."""
    q = rep.cat.quiver
    idx = q.arrow_index(label)
    arrow = q.arrows[idx]
    coeff = IntMatrix.zeros(rep.ranks[rel.source], rep.ranks[arrow.source])
    rhs = IntMatrix.zeros(rep.ranks[rel.source], rep.ranks[rel.target])

    def product(path, arrows):
        return reduce(mul, (mats[q.arrows[k].label] for k in arrows),
                      IntMatrix.identity(rep.ranks[path.source]))
    for coef, path in rel.terms:
        occurrences = [i for i, k in enumerate(path.arrows) if k == idx]
        if not occurrences:
            rhs = rhs - product(path, path.arrows).scale(coef)
        elif len(occurrences) > 1 or occurrences[0] != len(path.arrows) - 1:
            return None
        else:
            coeff = coeff + product(path, path.arrows[:-1]).scale(coef)
    particular_t = solve_left(coeff.transpose(), rhs.transpose())
    if particular_t is None:
        return None
    solution = particular_t.transpose()
    null_basis = left_kernel(coeff.transpose())  # right kernel of coeff
    if null_basis.rows:
        # one random combination of the kernel rows per column of the solution
        combos = IntMatrix.from_rows([[rng.randint(-1, 1) for _ in null_basis.entries]
                                      for _ in range(solution.cols)], null_basis.rows)
        solution = solution + (combos * null_basis).transpose()
    return solution


# -- group-side constructions (the independent oracle) ------------------------

def group_kernel(m: InducedMap) -> tuple[FpAbGroup, IntMatrix]:
    """Kernel of a map of presented groups: the preimage of the target
    relation lattice, presented on its own lattice basis.  Returns the group
    and the embedding rows into the source generators."""
    pre = vstack(m.matrix, m.target.group.relations)
    kern = left_kernel(pre)
    emb = lattice_basis(_first_cols(kern, m.matrix.rows))
    relations = _preimage_relations(emb, m.source.group.relations)
    return FpAbGroup(emb.rows, relations), emb


def group_cokernel(m: InducedMap) -> FpAbGroup:
    return FpAbGroup(m.target.group.ngens, vstack(m.target.group.relations, m.matrix))


def group_homology(m1: InducedMap, m2: InducedMap) -> FpAbGroup:
    """Kernel of ``m2`` modulo image of ``m1`` (plus ambient relations)."""
    ker_group, emb = group_kernel(m2)
    denominator = vstack(m1.matrix, m1.target.group.relations)
    relations = _preimage_relations(emb, denominator)
    return FpAbGroup(emb.rows, relations)


# -- oracle checks ------------------------------------------------------------

@dataclass(frozen=True)
class OracleCheck:
    description: str
    ok: bool
    detail: str = ""


# kind -> (its symbol, its group-side construction on the evaluated maps)
_ORACLE = {
    "kernel": ("ker", lambda m: group_kernel(m)[0]),
    "cokernel": ("coker", group_cokernel),
    "homology": ("H", group_homology),
}


def oracle_compare(rep: Representation | Evaluation, item: tuple) -> OracleCheck:
    """One transport check; ``item`` is a tagged tuple: ('kernel', f, obj),
    ('cokernel', f, obj), ('homology', f, g, obj) or ('exact', f, g, verdict).
    A construction item compares the evaluated ``obj`` with the group-side
    construction on the evaluated maps; an exactness item with a true
    verdict requires the evaluated homology to vanish."""
    kind, *args = item
    if kind == "exact":
        f, g, adel_exact = args
        if not adel_exact:
            return OracleCheck("exactness transports", True, "no claim (not exact upstairs)")
        ev = _evaluation(rep)
        h = group_homology(ev.morphism(f), ev.morphism(g)).invariants()
        return OracleCheck("exactness transports", h.is_trivial(),
                           f"evaluated homology = {h.describe()}")
    if kind not in _ORACLE:
        raise ValueError(f"unknown oracle item kind {kind!r}")
    symbol, construct = _ORACLE[kind]
    *fs, obj = args
    ev = _evaluation(rep)
    want = construct(*map(ev.morphism, fs)).invariants()
    got = ev.object(obj).invariants()
    return OracleCheck(
        f"{kind} transports", got.reduced() == want.reduced(),
        f"eval({symbol}) = {got.describe()}, {symbol}(eval) = {want.describe()}")


def oracle_suite(rep: Representation, items: Sequence[tuple]) -> list[OracleCheck]:
    """``oracle_compare`` on each item, sharing one ``Evaluation`` that is
    dropped on return."""
    ev = Evaluation(rep)
    return [oracle_compare(ev, item) for item in items]
