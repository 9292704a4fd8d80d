"""Evaluation of the induced exact functor into f.p. abelian groups.

A representation (``representation``) evaluates matrix morphisms to integer
matrices.  Objects of the free abelian category then evaluate to the
homology of the evaluated composable pair, presented on a lattice basis of
the corelation kernel; morphisms evaluate to integer matrices on those
generators.

That quiver-level evaluation is shared with ``addclosure``, which refutes
large homotopy systems on seeded representations.  The group side (kernels,
cokernels, homology) is computed from presentations, independently of the
categorical constructions: it is the oracle the test suite compares those
constructions against.  Oracle items
are kernel, cokernel, homology and exactness claims; a mono or epi claim is
a kernel or cokernel item whose object is the zero object.  One routine,
``oracle_compare``, checks every kind: a construction item reads its symbol
and group-side construction from one table, and an exactness item
checks that the evaluated homology vanishes.

``oracle_suite`` evaluates each object, morphism and path once: its items
share one ``Evaluation``, which memoises by value and is dropped when the
call returns.  Nothing is cached on the representation or in the module;
given a representation, the public functions compute fresh values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .adelman import AdelMorphism, AdelObject
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
from .representation import (  # noqa: F401  (the rest re-exported)
    MatrixEvaluation, Representation, RepresentationError, check_representation,
    random_representation, zero_representation)


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


class Evaluation(MatrixEvaluation):
    """The exact functor of one representation, memoised by value.

    The functor is a pure function of the representation and the value, so
    each object, morphism and path is evaluated at most once per
    ``Evaluation`` and a memo hit is what a fresh evaluation would compute.
    ``oracle_suite`` makes one per call and drops it when it returns; every
    public evaluation function of this module accepts one in place of a
    representation.
    """

    def __init__(self, rep: Representation):
        super().__init__(rep)
        self._objects: dict[AdelObject, GroupWithMap] = {}
        self._morphisms: dict[AdelMorphism, InducedMap] = {}

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


def eval_object(rep: Representation | Evaluation, x: AdelObject) -> GroupWithMap:
    """Homology of the evaluated composable pair: kernel of the evaluated
    corelation modulo the image of the evaluated relation morphism."""
    return _evaluation(rep).object(x)


def eval_morphism(rep: Representation | Evaluation, f: AdelMorphism) -> InducedMap:
    """Induced map on the evaluated homology groups."""
    return _evaluation(rep).morphism(f)


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
