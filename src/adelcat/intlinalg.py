"""Exact linear algebra over the integers.

Dense matrices of unbounded integers, row-style Hermite normal form with a
tracked unimodular left transform, Smith invariants, left-sided linear system
solving, and finitely presented abelian groups with canonical coset
representatives.  Every equality decision made elsewhere in the package
eventually lands here, in the one row-reduction kernel ``_hnf_py`` (bound
as ``_kernel``), whose Python-int arithmetic never wraps.  A matrix stores
the tuple of its rows, the form that kernel reduces, and Smith invariants
come from alternating Hermite forms in the same kernel.  A matrix is
checked where it enters, by the ``IntMatrix`` constructor, ``from_rows``
and ``row_vector``; every matrix this module derives is built unchecked by
``_matrix``, whose docstring says why each shape holds.

The convention throughout is row-vector-times-matrix: ``solve_left(A, B)``
finds ``X`` with ``X * A == B``, and the row span of a matrix is the lattice
it generates.  All values are immutable and all functions are pure, so
everything is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from operator import add, sub
from typing import Mapping, Optional, Sequence

from . import _hnf_py as _kernel

# Read by the benchmark's environment stamp and its ``comparable_key``.
BACKEND = "pure"


class DimensionError(ValueError):
    """Shapes of the operands do not match."""


class IntMatrix:
    """Dense integer matrix, stored as the tuple of its rows.

    The rows are what the kernel reduces, so they pass to it unchanged.
    ``rows`` and ``cols`` are the counts; ``cols`` is stored because a
    matrix without rows still has a width.

    The constructor rejects a negative width and a row of another length.
    Values are immutable: nothing assigns to their attributes after
    construction (a slotted class without an assignment guard, because
    matrices are built on every path of the group-side oracle).
    """

    __slots__ = ("entries", "cols")

    def __init__(self, entries: tuple[tuple[int, ...], ...], cols: int):
        _check_width(cols)
        if any(map(cols.__ne__, map(len, entries))):
            raise DimensionError(f"expected rows of length {cols}")
        self.entries = entries
        self.cols = cols

    def __eq__(self, other):
        if other.__class__ is not IntMatrix:
            return NotImplemented
        return self.cols == other.cols and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries, self.cols))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = tuple(map(tuple, rows))
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return IntMatrix(rows, cols)

    @staticmethod
    def from_sparse(rows: Sequence[Mapping[int, int]], cols: int) -> "IntMatrix":
        """The dense matrix whose rows are the ``{col: value}`` maps ``rows``."""
        _check_width(cols)
        dense = [[0] * cols for _ in rows]
        for out, row in zip(dense, rows):
            for j, v in row.items():
                out[j] = v
        return _matrix(tuple(map(tuple, dense)), cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        _check_width(n)
        return _matrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        _check_width(cols)
        return _matrix(((0,) * cols,) * rows, cols)

    @staticmethod
    def row_vector(v: Sequence[int]) -> "IntMatrix":
        v = tuple(v)
        return IntMatrix((v,), len(v))

    @property
    def rows(self) -> int:
        return len(self.entries)

    def to_rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def transpose(self) -> "IntMatrix":
        return _matrix(tuple(zip(*self.entries)) if self.entries else ((),) * self.cols,
                       self.rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        return _matrix(tuple(map(tuple, _kernel.mul_rows(
            self.entries, other.entries, self.cols, other.cols))), other.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        return _matrix(tuple(tuple(map(add, r, s)) for r, s in zip(self.entries, other.entries)),
                       self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot subtract {self.shape} and {other.shape}")
        return _matrix(tuple(tuple(map(sub, r, s)) for r, s in zip(self.entries, other.entries)),
                       self.cols)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        return _matrix(tuple(tuple(c * a for a in r) for r in self.entries), self.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), self.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"


def _check_width(cols: int):
    if cols < 0:
        raise DimensionError("negative matrix dimensions")


def _matrix(entries: tuple[tuple[int, ...], ...], cols: int) -> IntMatrix:
    """The matrix with rows ``entries`` and width ``cols``, unchecked.

    Only for results whose shape holds by construction, from checked
    operands or from the kernel, which returns rows of the width it is
    given:

    * ``identity``, ``zeros`` and ``from_sparse`` check that the width is
      not negative and make rows of that many entries (a sparse row assigns
      into a zero row of that length, and a column past its end raises
      ``IndexError``);
    * ``transpose`` turns ``cols`` rows of width ``rows`` into ``rows``
      rows of width ``cols``, and keeps the width of a matrix without rows;
    * ``*`` checks the inner dimension, and ``mul_rows`` returns rows of the
      right factor's width; ``+`` and ``-`` check equal shapes, and they and
      ``scale`` map rows entry by entry;
    * ``vstack`` checks that every part has the same width;
    * ``hnf_rows`` returns rows of the input's width and transform rows of
      its row count, which ``hnf``, ``lattice_basis``, ``left_kernel`` and
      ``FpAbGroup`` slice by rows only;
    * ``solve_left`` makes one row of ``a.rows`` entries per row of ``b``;
    * ``evalfunctor._first_cols`` keeps the first ``k`` columns of a left
      kernel of a stack of at least ``k`` rows, so of at least ``k``
      columns;
    * ``evalfunctor.Evaluation.mat`` allocates its rows at the
      summed ranks of the target's summands and writes each evaluated block,
      of the ranks of its two vertices, over a slice of that width.
    """
    m = object.__new__(IntMatrix)
    m.entries = entries
    m.cols = cols
    return m


def vstack(*mats: IntMatrix) -> IntMatrix:
    """Stack matrices with equal column counts on top of each other."""
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack with mismatched column counts")
    return _matrix(tuple(chain.from_iterable(m.entries for m in mats)), cols)


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Hermite normal form with left transform.

    Returns ``(h, u)`` with ``u * m == h``, ``u`` unimodular, and ``h`` in
    row echelon form with positive pivots and the entries above each pivot
    reduced into ``[0, pivot)``.  The nonzero rows of ``h`` are the unique
    such basis of the row lattice of ``m``.
    """
    h_rows, u_rows, _ = _kernel.hnf_rows(m.entries, m.cols, True)
    return _matrix(tuple(map(tuple, h_rows)), m.cols), _matrix(tuple(map(tuple, u_rows)), m.rows)


def lattice_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the row lattice: the nonzero rows of the HNF."""
    h_rows, _, pivots = _kernel.hnf_rows(m.entries, m.cols, False)
    return _matrix(tuple(map(tuple, h_rows[: len(pivots)])), m.cols)


def left_kernel(m: IntMatrix) -> IntMatrix:
    """Basis of the saturated lattice ``{x : x * m == 0}`` as rows.

    The rows of the transform that correspond to zero rows of the HNF are
    such a basis.
    """
    _, u_rows, pivots = _kernel.hnf_rows(m.entries, m.cols, True)
    return _matrix(tuple(map(tuple, u_rows[len(pivots) :])), m.rows)


@dataclass(frozen=True)
class SmithInvariants:
    """Isomorphism invariants of ``Z^cols / rowspan``: the chain of nonzero
    invariant factors and the free rank."""

    factors: tuple[int, ...]
    free_rank: int

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and all(d == 1 for d in self.factors)

    def reduced(self) -> "SmithInvariants":
        """Drop invariant factors equal to 1 (they carry no group)."""
        return SmithInvariants(tuple(d for d in self.factors if d != 1), self.free_rank)

    def describe(self) -> str:
        parts = [f"Z/{d}" for d in self.factors if d != 1]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def snf(m: IntMatrix) -> SmithInvariants:
    """Smith invariants of the cokernel ``Z^cols / rowspan(m)``.

    Alternating Hermite forms (Kannan and Bachem, 1979): the nonzero HNF
    rows of the matrix, then of their transpose, and so on, until every
    nonzero row holds its pivot alone.  This ends.  A pass's first pivot
    is the gcd of the first nonzero column; the pivot row is the next
    pass's first column, so the next pivot divides it and is at most that,
    and it is smaller unless the pivot divides the rest of its row.  Once
    it does, that row and column are cleared and stay cleared, and the same
    holds, in turn, for the block that is left.  The transposes do not
    change the rank or the nonzero invariant factors.  The pivots are then
    brought into the divisibility chain ``d1 | d2 | ...`` by gcd/lcm
    exchanges.  Only the invariant factors and the free rank are returned.
    """
    rows, ncols = m.entries, m.cols
    while True:
        h, _, pivots = _kernel.hnf_rows(rows, ncols, False)
        if not any(any(h[r][c + 1 :]) for r, c in pivots):
            break
        rows, ncols = list(zip(*h[: len(pivots)])), len(pivots)
    diag = [h[r][c] for r, c in pivots]
    # After pass i, diag[i] is the gcd of diag[i:] and divides every later
    # entry; later passes only exchange multiples of it.
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return SmithInvariants(tuple(diag), m.cols - len(diag))


def solve_left(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Solve ``X * a == b`` exactly over the integers.

    ``a`` and ``b`` must have the same column count.  Returns None exactly
    when some row of ``b`` lies outside the row lattice of ``a``.
    """
    if a.cols != b.cols:
        raise DimensionError(f"solve_left: {a.shape} vs {b.shape}")
    h, u, pivots = _kernel.hnf_rows(a.entries, a.cols, True)
    out = []
    for res in b.entries:
        res = list(res)
        x = [0] * a.rows
        # Reduce against the HNF rows and add q times the matching transform
        # row, so X = y * u is formed only from the rows that y uses.
        for (r, c) in pivots:
            hr = h[r]
            q, rem = divmod(res[c], hr[c])
            if rem:
                return None
            if q:
                for j in range(c, a.cols):
                    if hr[j]:
                        res[j] -= q * hr[j]
                for j, v in enumerate(u[r]):
                    if v:
                        x[j] += q * v
        if any(res):
            return None
        out.append(tuple(x))
    return _matrix(tuple(out), a.rows)


def det(m: IntMatrix) -> int:
    """Determinant via the Bareiss fraction-free elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class FpAbGroup:
    """Finitely presented abelian group ``Z^ngens / rowspan(relations)``.

    The constructor takes any rows spanning the relation lattice and keeps
    its HNF basis as ``relations``, so it reduces the lattice once and two
    presentations of one lattice are equal.

    Elements are integer vectors of length ``ngens``; two vectors represent
    the same element exactly when their canonical representatives coincide.
    ``canonical_rep`` reduces every vector it is given; deciding which
    coefficient blocks need it is ``QuiverCategory.canonical``'s rule.
    """

    ngens: int
    relations: IntMatrix
    _reduced: tuple = field(init=False, repr=False, compare=False)  # (HNF row, pivot column)

    def __post_init__(self):
        if self.relations.cols != self.ngens:
            raise DimensionError(
                f"relations have {self.relations.cols} columns for {self.ngens} generators"
            )
        h_rows, _, pivots = _kernel.hnf_rows(self.relations.entries, self.ngens, False)
        rows = tuple(map(tuple, h_rows[: len(pivots)]))
        object.__setattr__(self, "relations", _matrix(rows, self.ngens))
        object.__setattr__(self, "_reduced", tuple(zip(rows, (c for _, c in pivots))))

    @staticmethod
    def free(ngens: int) -> "FpAbGroup":
        return FpAbGroup(ngens, IntMatrix.zeros(0, ngens))

    def canonical_rep(self, v: Sequence[int]) -> tuple[int, ...]:
        """Unique representative of the coset of ``v``.

        Reduction against the HNF basis of the relation lattice; the result
        has its entry at every pivot column in ``[0, pivot)``.
        """
        v = list(v)
        if len(v) != self.ngens:
            raise DimensionError(f"element length {len(v)} for {self.ngens} generators")
        for row, c in self._reduced:
            q = v[c] // row[c]
            if q:
                for j in range(c, self.ngens):
                    if row[j]:
                        v[j] -= q * row[j]
        return tuple(v)

    def is_zero_element(self, v: Sequence[int]) -> bool:
        return all(x == 0 for x in self.canonical_rep(v))

    def elements_equal(self, v: Sequence[int], w: Sequence[int]) -> bool:
        return self.canonical_rep(v) == self.canonical_rep(w)

    def invariants(self) -> SmithInvariants:
        return snf(self.relations) if self.relations.rows else SmithInvariants((), self.ngens)

    def is_trivial(self) -> bool:
        return self.invariants().is_trivial()

