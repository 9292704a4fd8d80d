"""Representations of a quiver with relations: a free abelian group on every
vertex and an integer matrix on every arrow (row vectors act on the right),
such that all relations evaluate to zero.  ``MatrixEvaluation`` is the
additive functor this gives on paths, Hom elements and matrix morphisms;
a matrix morphism's block is one product of its coordinates with the
*stacked rows* of its Hom set, the flattened matrices of its coordinate
paths.  ``addclosure`` refutes homotopy systems on seeded representations
before their layouts are built, and ``evalfunctor`` extends the
evaluation to the free abelian category.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Optional

from .intlinalg import IntMatrix, _matrix, left_kernel, solve_left
from .quivercat import Path, QuiverCategory


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


class MatrixEvaluation:
    """The additive functor of one representation on paths, Hom elements and
    matrix morphisms, memoised: each path's matrix and each vertex pair's
    stacked rows are computed at most once per instance, on first use."""

    def __init__(self, rep: Representation):
        self.rep = rep
        self._paths: dict[Path, IntMatrix] = {}
        self._stacked: dict[tuple[str, str], tuple[tuple[int, ...], ...]] = {}

    def path(self, path: Path) -> IntMatrix:
        m = self._paths.get(path)
        if m is None:
            rep = self.rep
            factors = [rep.matrices[rep.cat.quiver.arrows[idx].label] for idx in path.arrows]
            m = reduce(mul, factors) if factors else IntMatrix.identity(rep.ranks[path.source])
            self._paths[path] = m
        return m

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


def check_representation(rep: Representation | MatrixEvaluation) -> bool:
    """True exactly when every relation evaluates to the zero matrix."""
    return _first_violated(rep) is None


def _first_violated(rep: Representation | MatrixEvaluation):
    """The first relation that does not evaluate to zero, or None."""
    ev = rep if isinstance(rep, MatrixEvaluation) else MatrixEvaluation(rep)
    for rel in ev.rep.cat.relations:
        total = IntMatrix.zeros(ev.rep.ranks[rel.source], ev.rep.ranks[rel.target])
        for coef, path in rel.terms:
            total = total + ev.path(path).scale(coef)
        if not total.is_zero():
            return rel
    return None


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
