from collections import Counter

import pytest

from adelcat import adelman
from adelcat.provers import (
    build_five_data,
    build_snake_figure,
    five_category,
    snake_category,
)
from adelcat.quivercat import Arrow, Path, Quiver, QuiverCategory, Relation


@pytest.fixture(scope="session")
def snake_cat():
    return snake_category()


@pytest.fixture(scope="session")
def five_cat():
    return five_category()


@pytest.fixture(scope="session")
def snake_fig():
    return build_snake_figure()


@pytest.fixture(scope="session")
def five_data():
    return build_five_data()


@pytest.fixture
def underlying(monkeypatch):
    """Counts of the memoised constructions' own runs: a ``kernel`` or
    ``cokernel`` run builds one result, a ``zero_witness`` run solves one
    homotopy system (as does each half of ``make_morphism``)."""
    counts = Counter()
    for name in ("KernelResult", "CokernelResult", "decide_homotopy"):
        def counting(*args, real=getattr(adelman, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(adelman, name, counting)
    return counts


def torsion_category() -> QuiverCategory:
    """Single arrow x: a -> b with 2x = 0; Hom(a, b) is Z/2."""
    q = Quiver(("a", "b"), (Arrow("x", "a", "b"),))
    rel = Relation("a", "b", ((2, Path("a", "b", (0,))),))
    return QuiverCategory(q, (rel,), name="torsion")


@pytest.fixture(scope="session")
def torsion_cat():
    return torsion_category()


@pytest.fixture(scope="session")
def kronecker_cat():
    """Two parallel arrows a -> b, no relations; Hom(a, b) is Z^2."""
    q = Quiver(("a", "b"), (Arrow("u", "a", "b"), Arrow("v", "a", "b")))
    return QuiverCategory(q, (), name="kronecker")


def ladder_category(n: int = 6) -> QuiverCategory:
    """The commuting ladder with n rungs: rows t_i -> t_{i+1} and
    b_i -> b_{i+1}, rungs t_i -> b_i, every square commuting."""
    tops = [f"t{i}" for i in range(n)]
    bots = [f"b{i}" for i in range(n)]
    arrows = ([Arrow(f"h{i}", tops[i], tops[i + 1]) for i in range(n - 1)]
              + [Arrow(f"g{i}", bots[i], bots[i + 1]) for i in range(n - 1)]
              + [Arrow(f"v{i}", tops[i], bots[i]) for i in range(n)])
    h, g, v = 0, n - 1, 2 * (n - 1)
    rels = tuple(
        Relation(tops[i], bots[i + 1], (
            (1, Path(tops[i], bots[i + 1], (h + i, v + i + 1))),
            (-1, Path(tops[i], bots[i + 1], (v + i, g + i))),
        ))
        for i in range(n - 1))
    return QuiverCategory(Quiver(tuple(tops + bots), tuple(arrows)), rels, name=f"ladder{n}")


@pytest.fixture(scope="session")
def ladder_cat():
    return ladder_category()
