import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelcat import intlinalg
from adelcat.intlinalg import (
    DimensionError,
    FpAbGroup,
    IntMatrix,
    SmithInvariants,
    det,
    hnf,
    lattice_basis,
    left_kernel,
    snf,
    solve_left,
    vstack,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


@st.composite
def matrices(draw, max_dim=5, max_entry=9):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    row = st.lists(st.integers(-max_entry, max_entry), min_size=cols, max_size=cols)
    return IntMatrix.from_rows(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)


def with_cols(m, cols):
    """``m`` with every row cut or padded with zeros to ``cols`` entries."""
    return IntMatrix.from_rows([r[:cols] + (0,) * (cols - len(r)) for r in m.entries], cols=cols)


def bumped(m, d):
    """``m`` with ``d`` added to its first entry (``m`` itself if it has none)."""
    if not (m.rows and m.cols):
        return m
    rows = m.to_rows()
    rows[0][0] += d
    return IntMatrix.from_rows(rows, cols=m.cols)


def _pivots(h):
    """(row, column) of the leading entry of every nonzero row of ``h``."""
    return [(r, next(c for c, x in enumerate(row) if x))
            for r, row in enumerate(h.entries) if any(row)]


class TestHnf:
    def test_identity(self):
        h, u = hnf(IntMatrix.identity(3))
        assert h == IntMatrix.identity(3)
        assert u == IntMatrix.identity(3)

    def test_zero(self):
        h, u = hnf(IntMatrix.zeros(2, 2))
        assert h == IntMatrix.zeros(2, 2)
        assert u == IntMatrix.identity(2)

    def test_worked_example(self):
        m = mat([[2, 4], [1, 1]])
        h, u = hnf(m)
        assert u * m == h
        assert abs(det(u)) == 1
        assert h.entries[0][0] == 1 and h.entries[1][1] == 2
        assert h.entries[1][0] == 0

    @settings(max_examples=120)
    @given(matrices())
    def test_transform_and_unimodularity(self, m):
        h, u = hnf(m)
        assert u * m == h
        assert abs(det(u)) == 1

    @settings(max_examples=80)
    @given(matrices(max_dim=4), st.randoms(use_true_random=False))
    def test_uniqueness_under_row_shuffle(self, m, rng):
        rows = m.to_rows()
        rng.shuffle(rows)
        shuffled = IntMatrix.from_rows(rows, cols=m.cols)
        assert hnf(m)[0] == hnf(shuffled)[0]

    @settings(max_examples=60)
    @given(matrices(max_dim=4))
    def test_pivot_normalization(self, m):
        h, _ = hnf(m)
        pivots = _pivots(h)
        assert [c for _, c in pivots] == sorted({c for _, c in pivots})
        assert all(not any(row) for row in h.entries[len(pivots):])
        for r, c in pivots:
            piv = h.entries[r][c]
            assert piv > 0
            for i in range(r):
                assert 0 <= h.entries[i][c] < piv

    def test_big_integer_growth_preserved(self):
        # coefficients must stay exact far beyond machine width
        m = mat([[10**40 + 1, 3], [7, 10**41 - 9]])
        h, u = hnf(m)
        assert u * m == h
        assert abs(det(u)) == 1
        n = 10**50
        assert mat([[n]]) * mat([[n]]) == mat([[n * n]])


class TestSnf:
    def test_identity(self):
        assert snf(IntMatrix.identity(2)) == SmithInvariants((1, 1), 0)

    def test_zero_on_one_generator(self):
        assert snf(IntMatrix.zeros(1, 1)) == SmithInvariants((), 1)

    def test_diagonal_2_3(self):
        assert snf(mat([[2, 0], [0, 3]])) == SmithInvariants((1, 6), 0)

    @settings(max_examples=80)
    @given(matrices(max_dim=4))
    def test_divisibility_chain(self, m):
        inv = snf(m)
        for a, b in zip(inv.factors, inv.factors[1:]):
            assert b % a == 0
        assert inv.free_rank == m.cols - len(inv.factors)

    @settings(max_examples=50)
    @given(matrices(max_dim=4), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, m, rng):
        rows = m.to_rows()
        rng.shuffle(rows)
        cols = list(range(m.cols))
        rng.shuffle(cols)
        permuted = IntMatrix.from_rows(
            [[row[j] for j in cols] for row in rows], cols=m.cols)
        assert snf(m) == snf(permuted)

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(20260809)
        cases = []
        for _ in range(300):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            cases.append((rows, cols, [[rng.randint(-9, 9) for _ in range(cols)]
                                       for _ in range(rows)]))
        # sparse and larger, with entries whose gcd steps take several rounds
        for _ in range(150):
            rows, cols = rng.randint(1, 14), rng.randint(1, 14)
            density = rng.choice((0.1, 0.2, 0.35))
            cases.append((rows, cols, [[rng.randint(-99, 99) if rng.random() < density else 0
                                        for _ in range(cols)] for _ in range(rows)]))
        for rows, cols, entries in cases:
            factors = invariant_factors(sympy.Matrix(rows, cols, sum(entries, [])),
                                        domain=sympy.ZZ)
            nonzero = tuple(abs(int(d)) for d in factors if d != 0)
            inv = snf(IntMatrix.from_rows(entries, cols=cols))
            assert inv.factors == nonzero, entries
            assert inv.free_rank == cols - len(nonzero), entries


class TestSolveLeft:
    def test_identity_system(self):
        b = mat([[3, -1], [0, 5]])
        assert solve_left(IntMatrix.identity(2), b) == b

    def test_divisibility_obstruction(self):
        assert solve_left(mat([[2]]), mat([[3]])) is None
        assert solve_left(mat([[2]]), mat([[4]])) == mat([[2]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_left(IntMatrix.zeros(1, 2), IntMatrix.zeros(1, 3))

    @settings(max_examples=100)
    @given(matrices(max_dim=4), matrices(max_dim=4))
    def test_round_trip(self, a, x):
        x = with_cols(x, a.rows)
        b = x * a
        found = solve_left(a, b)
        assert found is not None
        assert found * a == b

    @settings(max_examples=80)
    @given(matrices(max_dim=4), matrices(max_dim=4))
    def test_exactness_of_answers(self, a, b):
        b = with_cols(b, a.cols)
        found = solve_left(a, b)
        if found is not None:
            assert found * a == b

    @settings(max_examples=100)
    @given(matrices(max_dim=5), matrices(max_dim=5), st.booleans())
    def test_matches_transform_formula(self, a, x, consistent):
        """The same X as reducing against ``hnf(a)`` and multiplying the
        reduction coefficients y by the full transform: X = y * u."""
        b = with_cols(x, a.rows) * a
        if not consistent:
            b = bumped(b, 1)
        h, u = hnf(a)
        ys = []
        for row in b.entries:
            res, y = list(row), [0] * a.rows
            for r, c in _pivots(h):
                y[r], rem = divmod(res[c], h.entries[r][c])
                if rem:
                    break
                res = [v - y[r] * w for v, w in zip(res, h.entries[r])]
            if any(res):
                assert solve_left(a, b) is None
                return
            ys.append(y)
        assert solve_left(a, b) == IntMatrix.from_rows(ys, cols=a.rows) * u


class TestQuotientMembership:
    """``FpAbGroup(a.cols, a).is_zero_element(row)``, the membership test of
    the probe refutation, holds exactly when ``solve_left(a, row)`` finds a
    solution."""

    @staticmethod
    def check(a, rhs):
        group = FpAbGroup(a.cols, a)
        verdicts = [group.is_zero_element(row) for row in rhs.entries]
        assert verdicts == [solve_left(a, IntMatrix.row_vector(row)) is not None
                            for row in rhs.entries]
        return verdicts

    @settings(max_examples=250)
    @given(matrices(max_dim=6), matrices(max_dim=4), matrices(max_dim=4),
           st.sampled_from((1, 2, 6, 10**40 + 1)), st.integers(-1, 2), st.booleans())
    def test_matches_solve_left(self, a, x, other, scale, shift, zero_row):
        """Scaled systems have no unit pivots; ``shift`` moves a consistent
        right-hand side off the lattice, and ``other`` is an unrelated one."""
        rows = [[scale * v for v in row] for row in a.entries]
        if zero_row and rows:
            rows[0] = [0] * a.cols
        a = IntMatrix.from_rows(rows, cols=a.cols)
        b = bumped(with_cols(x, a.rows) * a, shift)
        self.check(a, vstack(b, with_cols(other, a.cols)))

    def test_shapes_without_rows_or_columns(self):
        assert self.check(IntMatrix.zeros(0, 0), IntMatrix.zeros(1, 0)) == [True]
        assert self.check(IntMatrix.zeros(0, 1), mat([[0], [1]])) == [True, False]
        assert self.check(IntMatrix.zeros(2, 2), mat([[0, 0], [0, 1]])) == [True, False]

    def test_entries_near_10_pow_40(self):
        n = 10**40
        a = mat([[n + 1, 3, 0], [7, n - 9, 0], [0, 2 * n, 4]])
        member = mat([[n, -1, 5], [2, 0, -n]]) * a
        off = member + mat([[0, 0, 0], [0, 0, 2]])
        assert self.check(a, vstack(member, off)) == [True, True, True, False]


class TestKernelLattice:
    @settings(max_examples=80)
    @given(matrices(max_dim=4))
    def test_left_kernel_annihilates(self, m):
        k = left_kernel(m)
        assert (k * m).is_zero()

    def test_kernel_of_column(self):
        k = left_kernel(mat([[2], [3]]))
        assert k.rows == 1
        assert (k * mat([[2], [3]])).is_zero()


class TestFpAbGroup:
    def test_free_group_reps(self):
        g = FpAbGroup.free(3)
        assert g.canonical_rep((5, -2, 7)) == (5, -2, 7)

    def test_mod_two(self):
        g = FpAbGroup(1, mat([[2]]))
        assert g.canonical_rep((3,)) == (1,)
        assert g.canonical_rep((4,)) == (0,)

    def test_rank_two_with_relation(self):
        g = FpAbGroup(2, mat([[2, 4]]))
        assert g.canonical_rep((2, 4)) == (0, 0)

    def test_idempotent_and_coset_membership(self):
        rng = random.Random(5)
        for _ in range(50):
            ngens = rng.randint(0, 4)
            nrel = rng.randint(0, 3)
            rels = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(ngens)] for _ in range(nrel)],
                cols=ngens)
            g = FpAbGroup(ngens, rels)
            v = tuple(rng.randint(-9, 9) for _ in range(ngens))
            rep = g.canonical_rep(v)
            assert g.canonical_rep(rep) == rep
            diff = tuple(a - b for a, b in zip(v, rep))
            cert = solve_left(rels, IntMatrix.row_vector(diff))
            assert cert is not None
            assert cert * rels == IntMatrix.row_vector(diff)

    def test_translation_by_relation_rows(self):
        rng = random.Random(9)
        g = FpAbGroup(3, mat([[2, 0, 1], [0, 3, 3]]))
        for _ in range(30):
            v = tuple(rng.randint(-9, 9) for _ in range(3))
            for row in g.relations.entries:
                shifted = tuple(a + b for a, b in zip(v, row))
                assert g.canonical_rep(v) == g.canonical_rep(shifted)

    def test_length_mismatch(self):
        g = FpAbGroup.free(2)
        with pytest.raises(DimensionError):
            g.canonical_rep((1, 2, 3))

    def test_keeps_the_hnf_basis_of_its_lattice(self):
        rows = mat([[2, 4], [0, 6]])
        other = mat([[2, -2], [2, 4], [4, 8], [0, 0]])
        g, h = FpAbGroup(2, rows), FpAbGroup(2, other)
        assert g.relations == h.relations == lattice_basis(rows) == mat([[2, 4], [0, 6]])
        assert g == h and hash(g) == hash(h)
        assert FpAbGroup(2, mat([[2, 4]])) != g

    @settings(max_examples=80)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4))),
        st.randoms(use_true_random=False))
    def test_groups_of_one_lattice_are_equal(self, data, rng):
        n, rows = data
        m = IntMatrix.from_rows(rows, cols=n)
        # the same lattice by other rows: shuffled, with multiples of rows added
        others = [list(r) for r in rows]
        for _ in range(3):
            if len(others) > 1:
                i, j = rng.sample(range(len(others)), 2)
                c = rng.randint(-3, 3)
                others[i] = [u + c * v for u, v in zip(others[i], others[j])]
        rng.shuffle(others)
        others.append([0] * n)
        g, h = FpAbGroup(n, m), FpAbGroup(n, IntMatrix.from_rows(others, cols=n))
        assert g == h and g.relations == lattice_basis(m)

    def test_invariants(self):
        g = FpAbGroup(2, mat([[2, 0], [0, 3]]))
        assert g.invariants().reduced() == SmithInvariants((6,), 0)


class TestAgainstSympyHnf:
    """An outside check of the Hermite form: sympy's ``hermite_normal_form``
    of the transpose, whose independent columns span the row lattice."""

    @staticmethod
    def sympy_basis(m):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form

        flat = [v for row in m.entries for v in row]
        return hermite_normal_form(sympy.Matrix(m.rows, m.cols, flat).T)

    @settings(max_examples=100)
    @given(matrices())
    def test_lattice_basis_spans_the_sympy_lattice(self, m):
        rows = self.sympy_basis(m).T.tolist()
        theirs = IntMatrix.from_rows([[int(v) for v in row] for row in rows], cols=m.cols)
        ours = lattice_basis(m)
        assert ours.rows == theirs.rows
        assert solve_left(ours, theirs) is not None
        assert solve_left(theirs, ours) is not None

    @settings(max_examples=100)
    @given(matrices(), st.data())
    def test_solvability_agrees_with_sympy(self, m, data):
        """``b`` is a combination of the rows of ``m`` moved by a small shift,
        and in the lattice exactly when the sympy basis solves for it in
        integers (the solution over the rationals is unique)."""
        sympy = pytest.importorskip("sympy")
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows))
        shift = data.draw(st.lists(st.integers(-1, 1), min_size=m.cols, max_size=m.cols))
        b = [s + sum(c * row[j] for c, row in zip(coeffs, m.entries)) for j, s in enumerate(shift)]
        basis = self.sympy_basis(m)
        if basis.cols == 0:
            member = not any(b)
        else:
            try:
                y, _ = basis.gauss_jordan_solve(sympy.Matrix(b))
                member = all(v.is_integer for v in y)
            except ValueError:  # no rational solution
                member = False
        assert (solve_left(m, IntMatrix.row_vector(b)) is not None) == member


def test_lattice_basis_is_canonical():
    m = mat([[2, 4], [4, 8], [0, 0]])
    b = lattice_basis(m)
    assert b == mat([[2, 4]])
    assert lattice_basis(vstack(b, b)) == b


def test_backend_is_pure():
    assert intlinalg.BACKEND == "pure"


def test_rows_must_have_the_column_count():
    ragged = "^expected rows of length 1$"
    with pytest.raises(DimensionError, match=ragged):
        IntMatrix.from_rows([[1], [1, 2]])
    with pytest.raises(DimensionError, match=ragged):
        IntMatrix(((1,), (1, 2)), 1)
    with pytest.raises(DimensionError, match="^expected rows of length 3$"):
        IntMatrix.from_rows([[1, 2]], cols=3)
    for negative in (lambda: IntMatrix((), -1), lambda: IntMatrix.from_rows([], cols=-1),
                     lambda: IntMatrix.zeros(0, -1), lambda: IntMatrix.identity(-1),
                     lambda: IntMatrix.from_sparse([], -1)):
        with pytest.raises(DimensionError, match="^negative matrix dimensions$"):
            negative()
    assert IntMatrix.from_rows([], cols=3).shape == (0, 3)
    assert IntMatrix.zeros(0, 3).transpose() == IntMatrix.zeros(3, 0)


def shaped(rows, cols, max_entry=9):
    row = st.tuples(*[st.integers(-max_entry, max_entry)] * cols)
    return st.lists(row, min_size=rows, max_size=rows).map(
        lambda entries: IntMatrix(tuple(entries), cols))


def rechecked(m):
    """``m`` rebuilt by the checking constructor, once every row is seen to
    be a tuple of ``m.cols`` ints."""
    assert type(m.entries) is tuple
    for row in m.entries:
        assert type(row) is tuple and len(row) == m.cols
        assert all(type(v) is int for v in row)
    return IntMatrix(m.entries, m.cols)


@settings(max_examples=120)
@given(matrices(max_dim=4), st.data())
def test_unchecked_results_are_checked_matrices(m, data):
    """Every result that ``intlinalg`` builds unchecked passes the checks it
    skipped, on shapes that include 0 rows and 0 columns."""
    rows, cols = m.shape
    other = data.draw(shaped(rows, cols))
    right = data.draw(shaped(cols, data.draw(st.integers(0, 4))))
    combos = data.draw(shaped(data.draw(st.integers(0, 3)), rows, max_entry=3))
    sparse = [{j: v for j, v in enumerate(row) if v} for row in m.entries]
    solution = solve_left(m, combos * m)
    assert solution is not None
    results = [*hnf(m), lattice_basis(m), left_kernel(m), solution, m * right, m + other,
               m - other, m.scale(-3), -m, m.transpose(), vstack(m, other, m),
               IntMatrix.identity(rows), IntMatrix.zeros(rows, cols),
               IntMatrix.from_sparse(sparse, cols)]
    for result in results:
        assert rechecked(result) == result
    assert IntMatrix.from_sparse(sparse, cols) == m
    assert hash(rechecked(m.transpose().transpose())) == hash(m)
