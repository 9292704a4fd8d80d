import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

from adelcat import adelman
from adelcat.catfile import build_category, parse_session
from adelcat.intlinalg import IntMatrix
from adelcat.provers import build_five_data, build_snake_figure, category_by_name
from adelcat.quivercat import LinMorphism, QuiverCategory

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from adelbench.gen import ladder_spec  # noqa: E402

# Every property test draws the same examples on every run and writes no
# example database; a test's own ``settings`` sets only its example count.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def snake_cat():
    return category_by_name("snake")


@pytest.fixture(scope="session")
def five_cat():
    return category_by_name("five")


@pytest.fixture(scope="session")
def snake_fig():
    return build_snake_figure()


@pytest.fixture(scope="session")
def five_data():
    return build_five_data()


def count_constructions(patch=setattr) -> Counter:
    """Counts of the memoised constructions' own runs: a ``kernel`` or
    ``cokernel`` run builds one result, a ``zero_witness`` run solves one
    homotopy system (as does each half of ``make_morphism``).  ``patch``
    replaces the three names in ``adelman`` with their counting wrappers."""
    counts = Counter()
    for name in ("KernelResult", "CokernelResult", "decide_homotopy"):
        def counting(*args, real=getattr(adelman, name), name=name):
            counts[name] += 1
            return real(*args)
        patch(adelman, name, counting)
    return counts


@pytest.fixture
def underlying(monkeypatch):
    """``count_constructions`` for one test."""
    return count_constructions(monkeypatch.setattr)


def category_from_text(text: str) -> QuiverCategory:
    return build_category(parse_session(text).category)


def torsion_category() -> QuiverCategory:
    """Single arrow x: a -> b with 2x = 0; Hom(a, b) is Z/2."""
    return category_from_text(
        "category torsion { objects a b; arrows x: a -> b; relations 2*x = 0; }")


def kronecker_category() -> QuiverCategory:
    """Two parallel arrows a -> b, no relations; Hom(a, b) is Z^2."""
    return category_from_text("category kronecker { objects a b; arrows u: a -> b; v: a -> b; }")


def ladder_category(n: int = 6) -> QuiverCategory:
    """The commuting ladder with n rungs: rows t_i -> t_{i+1} and
    b_i -> b_{i+1}, rungs t_i -> b_i, every square commuting."""
    return category_from_text(ladder_spec(n).cat_text())


def path_lin(cat: QuiverCategory, a: str, b: str, arrows: tuple[int, ...]) -> LinMorphism:
    """The path vector of the single path ``arrows`` from ``a`` to ``b``, by
    the path basis and ``cat.lin``: the reference the coordinate
    constructors are checked against."""
    vec = [0] * len(cat.paths(a, b))
    vec[cat.path_index(a, b, arrows)] = 1
    return cat.lin(a, b, vec)


def arrow_lin(cat: QuiverCategory, label: str) -> LinMorphism:
    """The path vector of the arrow ``label`` (``path_lin``)."""
    i = cat.quiver.arrow_index(label)
    arrow = cat.quiver.arrows[i]
    return path_lin(cat, arrow.source, arrow.target, (i,))


def identity_lin(cat: QuiverCategory, a: str) -> LinMorphism:
    """The path vector of the identity of ``a`` (``path_lin``)."""
    return path_lin(cat, a, a, ())


def dual_lin(f: LinMorphism) -> LinMorphism:
    """The same morphism read in the opposite category: every path of its
    path vector reversed, then reduced there."""
    op = f.cat.opposite()
    acc = [0] * len(op.paths(f.target, f.source))
    for p, c in zip(f.cat.paths(f.source, f.target), f.coeffs):
        acc[op.path_index(f.target, f.source, p.arrows[::-1])] += c
    return op.lin(f.target, f.source, acc)


def path_sum_mat(ev, f) -> IntMatrix:
    """The matrix of the matrix morphism ``f`` under the evaluation ``ev``:
    block (a, b) is the sum of the matrices of the coordinate paths of
    Hom(a, b), each scaled by its coordinate, and the blocks are laid out
    at the ranks of their vertices."""
    ranks, cat = ev.rep.ranks, f.cat
    rows = []
    for a, line in zip(f.source.summands, f.blocks):
        blocks = []
        for b, coeffs in zip(f.target.summands, line):
            block = IntMatrix.zeros(ranks[a], ranks[b])
            for path, c in zip(cat.coordinate_paths(a, b), coeffs):
                block = block + ev.path(path).scale(c)
            blocks.append(block)
        rows += [[v for block in blocks for v in block.entries[i]] for i in range(ranks[a])]
    return IntMatrix.from_rows(rows, cols=ev.rep.rank_of(f.target))


@pytest.fixture(scope="session")
def torsion_cat():
    return torsion_category()


@pytest.fixture(scope="session")
def kronecker_cat():
    return kronecker_category()


@pytest.fixture(scope="session")
def ladder_cat():
    return ladder_category()
