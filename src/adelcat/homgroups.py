"""Hom groups of the free abelian category, as presented abelian groups.

The morphisms between two objects form the subquotient of the middle-level
Hom group cut out by the two witness systems (numerator) and the image of
the null-homotopy map plus the relation lattice (denominator).  Both
lattices are computed exactly: the numerator as the projection of the joint
solution lattice of the witness systems, the denominator as a generating set
of image rows.  Every system is posed over the Hom spaces' coordinates
(``HomBasis``), so a relation that fixes a path by a unit pivot adds neither
a column nor a row, and the only relation vectors in the data lattice are
torsion rows.  Generators are reported in HNF-reduced coordinates, so the
presentation is deterministic.

Every generator keeps the relation and corelation witnesses that the joint
solution found for it, so generators and their integer combinations are
built directly as morphisms, without solving for witnesses again.  They are
still validated: the witness squares are linear in the stored coefficients,
so one sparse product gives the residuals of every value, and the
category's one reduction rule decides whether each residual vanishes.
``hom_group`` checks the squares of every generator before it returns; the
generator morphisms themselves are built on first read of ``generators``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence, Union

from .addclosure import HomBasis, MatMorphism, homotopy_rows, left_compose_rows, right_compose_rows
from .adelman import AdelMorphism, AdelObject, WitnessError, _morphism
from .intlinalg import (
    FpAbGroup,
    IntMatrix,
    lattice_basis,
    left_kernel,
    solve_left,
    vstack,
)
from .quivercat import EndpointError


@dataclass(frozen=True)
class HomGroupPresentation:
    """Hom(X, Y) with explicit generating morphisms.

    ``group`` presents the quotient on the generators; ``basis`` holds the
    generator data as rows over the flattened coordinates of the
    middle-level Hom space, and the same row of ``witnesses`` the generator's
    relation and corelation witnesses, flattened and concatenated.  Their
    witness squares were checked by ``hom_group``; the morphisms
    ``generators`` are built from these rows on first read.
    """

    source: AdelObject
    target: AdelObject
    group: FpAbGroup
    basis: IntMatrix
    witnesses: IntMatrix
    # datum, relation and corelation witness spaces, fixed by source and target
    _spaces: tuple[HomBasis, HomBasis, HomBasis] = field(compare=False, repr=False)
    _squares: tuple = field(compare=False, repr=False)  # witness-square map, see ``hom_group``

    @functools.cached_property
    def generators(self) -> tuple[AdelMorphism, ...]:
        return tuple(_built(self.source, self.target, self._spaces,
                            [b + w for b, w in zip(self.basis.entries, self.witnesses.entries)]))

    def coordinates(self, f: Union[AdelMorphism, MatMorphism]) -> tuple[int, ...]:
        """Coordinate vector of a morphism datum on the generators.

        Raises ValueError if the datum does not define a morphism (i.e. lies
        outside the solution lattice of the witness systems), and
        ``EndpointError`` for a morphism between other objects.
        """
        if isinstance(f, AdelMorphism) and (f.source, f.target) != (self.source, self.target):
            raise EndpointError("morphism does not run between these objects")
        datum = f.datum if isinstance(f, AdelMorphism) else f
        flat = IntMatrix.row_vector(self._spaces[0].flatten(datum))
        sol = solve_left(self.basis, flat)
        if sol is None:
            raise ValueError("datum is not a well-defined morphism between these objects")
        return sol.entries[0]

    def element(self, coords: Sequence[int]) -> AdelMorphism:
        """The morphism with the given generator coordinates."""
        coords = IntMatrix.row_vector(coords)
        if coords.cols != self.group.ngens:
            raise ValueError(f"expected {self.group.ngens} coordinates")
        vec = (coords * self.basis).entries[0] + (coords * self.witnesses).entries[0]
        _check_squares(self._squares, [vec])
        return _built(self.source, self.target, self._spaces, [vec])[0]


def hom_group(x: AdelObject, y: AdelObject) -> HomGroupPresentation:
    """Present Hom(X, Y) with generators and relations.

    Numerator: data admitting relation and corelation witnesses, i.e. the
    projection onto the datum block of the solution lattice of

        rel_x * datum == omega * rel_y      (mod relations)
        datum * corel_y == corel_x * psi    (mod relations)

    Denominator: the null-homotopy image ``sigma1 * rel_y + corel_x * sigma2``
    together with the relation lattice of the ambient Hom space.
    """
    hom = HomBasis(x.middle, y.middle)
    n = hom.dim

    h_omega = HomBasis(x.rel_source, y.rel_source)
    h_psi = HomBasis(x.corel_target, y.corel_target)
    eq1 = HomBasis(x.rel_source, y.middle)
    eq2 = HomBasis(x.middle, y.corel_target)

    alpha_eq1 = left_compose_rows(x.rel, hom, eq1)
    alpha_eq2 = right_compose_rows(hom, y.corel, eq2)
    omega_eq1 = right_compose_rows(h_omega, y.rel, eq1)
    psi_eq2 = left_compose_rows(x.corel, h_psi, eq2)
    rel1 = eq1.rel_rows()
    rel2 = _placed(eq2.rel_rows(), eq1.dim)

    # the residuals of the units of datum | omega | psi in both squares
    units = [r1 | r2 for r1, r2 in zip(alpha_eq1, _placed(alpha_eq2, eq1.dim))]
    units += _placed(omega_eq1, 0, -1) + _placed(psi_eq2, eq1.dim, -1)
    at = n + h_omega.dim
    system = IntMatrix.from_sparse(units[:at] + rel1 + units[at:] + rel2, eq1.dim + eq2.dim)

    # A solution lists datum | omega | rel1 multipliers | psi | rel2 multipliers.
    # Its HNF with the datum block first has the HNF basis of the datum
    # projection in the datum block of its leading rows (and zeros there in
    # the others), each row carrying witnesses that solve both systems.
    solutions = left_kernel(system)
    psi_at = n + h_omega.dim + len(rel1)
    triples = lattice_basis(IntMatrix.from_rows(
        [r[: n + h_omega.dim] + r[psi_at : psi_at + h_psi.dim] for r in solutions.entries],
        cols=n + h_omega.dim + h_psi.dim))
    rows = [r for r in triples.entries if any(r[:n])]
    k = len(rows)
    basis = IntMatrix.from_rows([r[:n] for r in rows], cols=n)
    witnesses = IntMatrix.from_rows([r[n:] for r in rows], cols=h_omega.dim + h_psi.dim)

    denominator = IntMatrix.from_sparse(homotopy_rows(
        HomBasis(x.middle, y.rel_source), y.rel, x.corel, HomBasis(x.corel_target, y.middle), hom), n)
    kern = left_kernel(vstack(basis, denominator))
    group = FpAbGroup(k, IntMatrix.from_rows([r[:k] for r in kern.entries], cols=k))

    squares = (units, eq1, eq2)  # relation square columns before eq1.dim
    _check_squares(squares, rows)
    return HomGroupPresentation(x, y, group, basis, witnesses, (hom, h_omega, h_psi), squares)


def _placed(rows: Sequence[dict[int, int]], at: int, sign: int = 1) -> list[dict[int, int]]:
    """Sparse ``rows`` times ``sign``, moved ``at`` columns to the right."""
    return [{at + j: sign * v for j, v in row.items()} for row in rows]


def _check_squares(squares: tuple, vecs: Sequence[Sequence[int]]) -> None:
    """Raise ``WitnessError`` unless each of ``vecs``, a datum, relation
    witness and corelation witness flattened and concatenated, makes both
    witness squares commute.  ``squares`` holds the residual rows of the
    coordinates and the squares' equation spaces ``eq1`` and ``eq2``.  A
    residual that is all zero passes; any other must cut into blocks that
    are zero in their Hom groups.  The residuals are formed from the raw
    vectors: a block and its canonical form differ by relation-lattice
    elements, whose residuals are zero in those groups, so the verdict is
    the same."""
    rows, eq1, eq2 = squares
    split = eq1.dim
    for vec in vecs:
        residual: dict[int, int] = {}
        for c, row in zip(vec, rows):
            if c:
                for j, v in row.items():
                    residual[j] = residual.get(j, 0) + c * v
        if any(residual.values()):
            flat = [0] * (split + eq2.dim)
            for j, v in residual.items():
                flat[j] = v
            for space, part, name in ((eq1, flat[:split], "relation"),
                                      (eq2, flat[split:], "corelation")):
                if not space.unflatten(part).is_zero():
                    raise WitnessError(f"{name} witness square does not commute")


def _built(x: AdelObject, y: AdelObject, spaces: Sequence[HomBasis],
           vecs: Sequence[Sequence[int]]) -> list[AdelMorphism]:
    """The morphisms whose datum, relation witness and corelation witness are
    the consecutive blocks of each of ``vecs`` over the three ``spaces``;
    the caller has checked their witness squares with ``_check_squares``."""
    bounds = list(accumulate((space.dim for space in spaces), initial=0))
    return [_morphism(x, y, *(space.unflatten(vec[a:b])
                              for space, a, b in zip(spaces, bounds, bounds[1:])))
            for vec in vecs]
