"""Composition through the cached path-concatenation tables agrees with
composing path by path and reducing every product."""

from hypothesis import given, settings
from hypothesis import strategies as st

from adelcat.addclosure import (
    HomBasis,
    MatMorphism,
    TupleObject,
    compose_mat,
    left_compose_rows,
    right_compose_rows,
)
from adelcat.provers import five_category, snake_category

from conftest import ladder_category

_BASE = {"snake": snake_category(), "five": five_category(), "ladder": ladder_category()}
CATEGORIES = {**_BASE, **{f"{k}^op": c.opposite() for k, c in _BASE.items()}}


def naive_compose(cat, a, b, c, f, g):
    """Coefficients of ``f then g`` (vectors over the path bases of Hom(a, b)
    and Hom(b, c)): every path product reduced on its own, then the sum."""
    group = cat.hom_group_lin(a, c)
    acc = [0] * group.ngens
    for p, x in zip(cat.paths(a, b), f):
        for q, y in zip(cat.paths(b, c), g):
            if x and y:
                unit = [0] * group.ngens
                unit[cat.path_index(a, c, p.arrows + q.arrows)] = x * y
                acc = [s + t for s, t in zip(acc, group.canonical_rep(unit))]
    return group.canonical_rep(acc)


def unit_vector(cat, a, b, k):
    return [int(t == k) for t in range(len(cat.paths(a, b)))]


def rand_tuple(cat, rng):
    return TupleObject(cat, tuple(rng.choice(cat.quiver.vertices)
                                  for _ in range(rng.randint(0, 3))))


def rand_mat(cat, src, tgt, rng):
    return MatMorphism(src, tgt, tuple(
        tuple(cat.lin(a, b, [rng.choice((0, 0, 1, -1, 2)) for _ in cat.paths(a, b)])
              for b in tgt.summands)
        for a in src.summands))


SETTINGS = settings(max_examples=60, deadline=None)
cats = st.sampled_from(sorted(CATEGORIES))
rngs = st.randoms(use_true_random=False)


@SETTINGS
@given(cats, rngs)
def test_compose_mat_matches_naive(name, rng):
    cat = CATEGORIES[name]
    x, y, z = (rand_tuple(cat, rng) for _ in range(3))
    f, g = rand_mat(cat, x, y, rng), rand_mat(cat, y, z, rng)
    fg = compose_mat(f, g)
    for i, a in enumerate(x.summands):
        for k, c in enumerate(z.summands):
            acc = [0] * len(cat.paths(a, c))
            for j, b in enumerate(y.summands):
                part = naive_compose(cat, a, b, c, f[i, j].coeffs, g[j, k].coeffs)
                acc = [s + t for s, t in zip(acc, part)]
            assert fg[i, k].coeffs == cat.hom_group_lin(a, c).canonical_rep(acc)


@SETTINGS
@given(cats, rngs)
def test_left_compose_rows_match_naive(name, rng):
    cat = CATEGORIES[name]
    x, y, z = (rand_tuple(cat, rng) for _ in range(3))
    f = rand_mat(cat, x, y, rng)
    unknown, out = HomBasis(y, z), HomBasis(x, z)
    rows = left_compose_rows(f, unknown, out)
    assert len(rows) == unknown.dim
    for row, (l, j, k) in zip(rows, unknown.units()):
        b, c = y.summands[l], z.summands[j]
        expected = [0] * out.dim
        for i, a in enumerate(x.summands):
            off = out.offset[(i, j)]
            block = naive_compose(cat, a, b, c, f[i, l].coeffs, unit_vector(cat, b, c, k))
            expected[off : off + len(block)] = block
        assert row == expected


@SETTINGS
@given(cats, rngs)
def test_right_compose_rows_match_naive(name, rng):
    cat = CATEGORIES[name]
    x, y, z = (rand_tuple(cat, rng) for _ in range(3))
    g = rand_mat(cat, y, z, rng)
    unknown, out = HomBasis(x, y), HomBasis(x, z)
    rows = right_compose_rows(unknown, g, out)
    assert len(rows) == unknown.dim
    for row, (i, l, k) in zip(rows, unknown.units()):
        a, b = x.summands[i], y.summands[l]
        expected = [0] * out.dim
        for j, c in enumerate(z.summands):
            off = out.offset[(i, j)]
            block = naive_compose(cat, a, b, c, unit_vector(cat, a, b, k), g[l, j].coeffs)
            expected[off : off + len(block)] = block
        assert row == expected


def test_concat_table_indexes_concatenations(ladder_cat):
    a, b, c = "t0", "t2", "b4"
    table = ladder_cat.concat_table(a, b, c)
    assert table is ladder_cat.concat_table(a, b, c)
    for i, p in enumerate(ladder_cat.paths(a, b)):
        for j, q in enumerate(ladder_cat.paths(b, c)):
            assert ladder_cat.paths(a, c)[table[i][j]].arrows == p.arrows + q.arrows


def test_unit_coeffs_are_canonical(snake_cat):
    for a in snake_cat.quiver.vertices:
        for b in snake_cat.quiver.vertices:
            group = snake_cat.hom_group_lin(a, b)
            for k, unit in enumerate(snake_cat.unit_coeffs(a, b)):
                assert unit == group.canonical_rep(unit_vector(snake_cat, a, b, k))
    # alpha*beta*gamma = 0 makes the only path a -> d vanish
    assert snake_cat.unit_coeffs("a", "d") == ((0,),)
