"""Exact linear algebra over the integers.

Dense matrices of unbounded integers, row-style Hermite normal form with a
tracked unimodular left transform, Smith invariants, left-sided linear system
solving, and finitely presented abelian groups with canonical coset
representatives.  Every equality decision made elsewhere in the package
eventually lands here, in the one row-reduction kernel ``_hnf_py`` (bound
as ``_kernel``), whose Python-int arithmetic never wraps.

Large sparse systems have a cheaper first test: ``in_lattice`` decides
membership in a row lattice by sparse elimination on ``{col: value}`` rows,
without the transform that ``solve_left`` carries.  It answers only yes or
no; a caller that needs the solution itself falls back to the dense
``solve_left``, so solutions do not depend on which test ran first.

The convention throughout is row-vector-times-matrix: ``solve_left(A, B)``
finds ``X`` with ``X * A == B``, and the row span of a matrix is the lattice
it generates.  All values are immutable and all functions are pure, so
everything is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from typing import Mapping, Optional, Sequence

from . import _hnf_py as _kernel
from ._hnf_py import in_lattice  # noqa: F401  (the sparse membership test)

# Read by the benchmark's environment stamp and its ``comparable_key``.
BACKEND = "pure"


class DimensionError(ValueError):
    """Shapes of the operands do not match."""


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, entries in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [tuple(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        if cols is not None and rows and ncols != cols:
            raise DimensionError("explicit column count does not match rows")
        flat = tuple(chain.from_iterable(rows))
        return IntMatrix(len(rows), ncols, flat)

    @staticmethod
    def from_sparse(rows: Sequence[Mapping[int, int]], cols: int) -> "IntMatrix":
        """The dense matrix whose rows are the ``{col: value}`` maps ``rows``."""
        entries = [0] * (len(rows) * cols)
        for i, row in enumerate(rows):
            base = i * cols
            for j, v in row.items():
                entries[base + j] = v
        return IntMatrix(len(rows), cols, tuple(entries))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def row_vector(v: Sequence[int]) -> "IntMatrix":
        v = tuple(v)
        return IntMatrix(1, len(v), v)

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        prod = _kernel.mul_rows(self.to_rows(), other.to_rows(), self.cols, other.cols)
        return IntMatrix(self.rows, other.cols, tuple(x for r in prod for x in r))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        return IntMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot subtract {self.shape} and {other.shape}")
        return IntMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"


def vstack(*mats: IntMatrix) -> IntMatrix:
    """Stack matrices with equal column counts on top of each other."""
    mats = tuple(mats)
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack with mismatched column counts")
    return IntMatrix(sum(m.rows for m in mats), cols, tuple(x for m in mats for x in m.entries))


def hstack(*mats: IntMatrix) -> IntMatrix:
    """Concatenate matrices with equal row counts side by side."""
    mats = tuple(mats)
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack with mismatched row counts")
    out: list[int] = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return IntMatrix(rows, sum(m.cols for m in mats), tuple(out))


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Hermite normal form with left transform.

    Returns ``(h, u)`` with ``u * m == h``, ``u`` unimodular, and ``h`` in
    row echelon form with positive pivots and the entries above each pivot
    reduced into ``[0, pivot)``.  The nonzero rows of ``h`` are the unique
    such basis of the row lattice of ``m``.
    """
    h_rows, u_rows, _ = _kernel.hnf_rows(m.to_rows(), m.cols, True)
    h = IntMatrix(m.rows, m.cols, tuple(x for r in h_rows for x in r))
    u = IntMatrix(m.rows, m.rows, tuple(x for r in u_rows for x in r))
    return h, u


def lattice_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the row lattice: the nonzero rows of the HNF."""
    h_rows, _, pivots = _kernel.hnf_rows(m.to_rows(), m.cols, False)
    rank = len(pivots)
    return IntMatrix.from_rows(h_rows[:rank], cols=m.cols)


def left_kernel(m: IntMatrix) -> IntMatrix:
    """Basis of the saturated lattice ``{x : x * m == 0}`` as rows.

    The rows of the transform that correspond to zero rows of the HNF are
    such a basis.
    """
    h_rows, u_rows, pivots = _kernel.hnf_rows(m.to_rows(), m.cols, True)
    rank = len(pivots)
    return IntMatrix.from_rows(u_rows[rank:], cols=m.rows)


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

    Direct elimination in stages.  A stage moves a nonzero entry of least
    magnitude of the remaining block to its corner and reduces the rest of
    its row and column by division with remainder; the stage is done when
    nothing is left beside the pivot.  Otherwise a nonzero remainder,
    smaller than the pivot, becomes the next pivot, so the pivot magnitude
    falls strictly and every stage ends.  The diagonal that results is
    then brought into the divisibility chain ``d1 | d2 | ...`` by gcd/lcm
    exchanges.  Only the invariant factors and the free rank are returned.
    """
    a = m.to_rows()
    rows, cols = m.rows, m.cols
    diag: list[int] = []
    t = 0
    while t < rows and t < cols:
        best = 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                v = abs(row[j])
                if v and (not best or v < best):
                    best, pi, pj = v, i, j
        if not best:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        top = a[t]
        p = top[t]
        done = True
        for i in range(t + 1, rows):
            row = a[i]
            q = row[t] // p
            if q:
                for j in range(t, cols):
                    if top[j]:
                        row[j] -= q * top[j]
            if row[t]:
                done = False
        for j in range(t + 1, cols):
            q = top[j] // p
            if q:
                for row in a[t:]:
                    row[j] -= q * row[t]
            if top[j]:
                done = False
        if done:
            diag.append(abs(p))
            t += 1
    # After pass i, diag[i] is the gcd of diag[i:] and divides every later
    # entry; later passes only exchange multiples of it.
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return SmithInvariants(tuple(diag), cols - len(diag))


def solve_left(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Solve ``X * a == b`` exactly over the integers.

    ``a`` and ``b`` must have the same column count.  Returns None exactly
    when some row of ``b`` lies outside the row lattice of ``a``.
    """
    if a.cols != b.cols:
        raise DimensionError(f"solve_left: {a.shape} vs {b.shape}")
    h, u, pivots = _kernel.hnf_rows(a.to_rows(), a.cols, True)
    out: list[int] = []
    for i in range(b.rows):
        res = list(b.row(i))
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
        out.extend(x)
    return IntMatrix(b.rows, a.rows, tuple(out))


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

    Elements are integer vectors of length ``ngens``; two vectors represent
    the same element exactly when their canonical representatives coincide.

    ``unit_pivots`` is true when every pivot of the reduced relation basis
    is 1.  Canonical representatives are then exactly the vectors that
    vanish at the pivot columns, so integer combinations of canonical
    representatives are canonical again.
    """

    ngens: int
    relations: IntMatrix
    _reduced: IntMatrix = field(init=False, repr=False, compare=False)
    _pivots: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    unit_pivots: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.relations.cols != self.ngens:
            raise DimensionError(
                f"relations have {self.relations.cols} columns for {self.ngens} generators"
            )
        h_rows, _, pivots = _kernel.hnf_rows(self.relations.to_rows(), self.ngens, False)
        reduced = IntMatrix.from_rows(h_rows[: len(pivots)], cols=self.ngens)
        object.__setattr__(self, "_reduced", reduced)
        object.__setattr__(self, "_pivots", tuple((i, c) for i, (_, c) in enumerate(pivots)))
        object.__setattr__(self, "unit_pivots", all(reduced[i, c] == 1 for i, c in self._pivots))

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
        for (r, c) in self._pivots:
            piv = self._reduced[r, c]
            q = v[c] // piv
            if q:
                row = self._reduced.row(r)
                for j in range(c, self.ngens):
                    if row[j]:
                        v[j] -= q * row[j]
        return tuple(v)

    def is_zero_element(self, v: Sequence[int]) -> bool:
        return all(x == 0 for x in self.canonical_rep(v))

    def elements_equal(self, v: Sequence[int], w: Sequence[int]) -> bool:
        return self.canonical_rep(v) == self.canonical_rep(w)

    def membership_certificate(self, v: Sequence[int]) -> Optional[IntMatrix]:
        """Solution vector writing ``v`` as a combination of relation rows,
        or None when ``v`` is not in the relation lattice."""
        return solve_left(self.relations, IntMatrix.row_vector(v))

    def invariants(self) -> SmithInvariants:
        return snf(self.relations) if self.relations.rows else SmithInvariants((), self.ngens)

    def is_trivial(self) -> bool:
        return self.invariants().is_trivial()

