"""The matrix morphism in coordinates agrees with path-level arithmetic.

A block holds the coordinates of its entry: the canonical path vector
without its zeros at the unit pivots of the relation HNF.  Composition
through the cached product tables agrees with composing path by path and
reducing every product; every other operation on the blocks agrees with
the same operation done entry by entry on raw path vectors and read back
through ``cat.lin``, compared through ``entries``, and leaves every block
canonical.
"""

import ast
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adelcat
from adelcat.addclosure import (
    HomBasis,
    MatMorphism,
    TupleObject,
    compose_mat,
    dual_mat,
    from_blocks,
    identity_mat,
    left_compose_rows,
    right_compose_rows,
    zero_mat,
)
from adelcat.provers import category_by_name
from adelcat.quivercat import Arrow, Path, Quiver, QuiverCategory, Relation

from conftest import (arrow_lin, category_from_text, dual_lin, identity_lin, ladder_category,
                      path_lin, torsion_category)


def skew_category() -> QuiverCategory:
    """Arrows u, v: a -> b and w: b -> c with 2u + v = 0.  Hom(a, b) is free
    of rank 1, but its relation basis has pivot 2, so a sum of canonical
    coefficient vectors need not be canonical."""
    q = Quiver(("a", "b", "c"), (Arrow("u", "a", "b"), Arrow("v", "a", "b"),
                                 Arrow("w", "b", "c")))
    rel = Relation("a", "b", ((2, Path("a", "b", (0,))), (1, Path("a", "b", (1,)))))
    return QuiverCategory(q, (rel,), name="skew")


def mixed_category() -> QuiverCategory:
    """Two parallel steps a -> b -> c whose relations give Hom(a, c) the
    pivots 3, 2 and 4; in the opposite category, where the paths are
    ordered otherwise, Hom(c, a) has unit pivots and torsion rows both."""
    return category_from_text(
        "category mixed { objects a b c; arrows x: a -> b; y: a -> b; u: b -> c; v: b -> c;"
        " relations 3*x*u - 2*y*v = 0; 2*x*v + y*u = 0; 4*y*u = 0; }")


_BASE = {"snake": category_by_name("snake"), "five": category_by_name("five"),
         "d4": category_by_name("d4"), "ladder": ladder_category(),
         "torsion": torsion_category(), "skew": skew_category(), "mixed": mixed_category()}
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


def lin_comb(pairs):
    """``cat.lin`` of the raw path vector ``sum(c * e.coeffs)`` over the
    parallel entries ``e`` of the ``(c, e)`` in ``pairs``: a reference that
    reduces once, at the end."""
    e = pairs[0][1]
    vec = [sum(c * x.coeffs[k] for c, x in pairs) for k in range(len(e.coeffs))]
    return e.cat.lin(e.source, e.target, vec)


def zero_lin(cat, a, b):
    return cat.lin(a, b, (0,) * len(cat.paths(a, b)))


def unit_vector(cat, a, b, k):
    """The path vector of the k-th coordinate path of Hom(a, b)."""
    vec = [0] * len(cat.paths(a, b))
    vec[cat.path_index(a, b, cat.coordinate_paths(a, b)[k].arrows)] = 1
    return vec


def drop(cat, a, b, vec):
    """The coordinates of a canonical path vector of Hom(a, b): its entries
    at the coordinate paths."""
    return tuple(vec[cat.path_index(a, b, p.arrows)] for p in cat.coordinate_paths(a, b))


def rand_tuple(cat, rng):
    return TupleObject(cat, tuple(rng.choice(cat.quiver.vertices)
                                  for _ in range(rng.randint(0, 3))))


def rand_grid(cat, src, tgt, rng):
    return tuple(
        tuple(cat.lin(a, b, [rng.choice((0, 0, 1, -1, 2, 3)) for _ in cat.paths(a, b)])
              for b in tgt.summands)
        for a in src.summands)


def rand_mat(cat, src, tgt, rng):
    return MatMorphism(src, tgt, rand_grid(cat, src, tgt, rng))


def units(hb):
    """(i, j, k) for the k-th coordinate of entry (i, j) of ``hb``, in the
    order of its coordinates."""
    return [(i, j, k) for i, row in enumerate(hb.cuts) for j, cut in enumerate(row)
            for k in range(cut.stop - cut.start)]


def check_flat(f, entries):
    """``f`` has exactly the given entries, its grid of blocks holds their
    coordinates, and ``HomBasis.flatten`` chains those in row-major order."""
    cat = f.cat
    entries = tuple(tuple(row) for row in entries)
    for row in entries:
        for e in row:
            assert e.coeffs == cat.hom_group_lin(e.source, e.target).canonical_rep(e.coeffs)
    assert f.entries == entries
    blocks = tuple(tuple(drop(cat, e.source, e.target, e.coeffs) for e in row) for row in entries)
    assert f.blocks == blocks
    assert HomBasis(f.source, f.target).flatten(f) == tuple(
        c for row in blocks for block in row for c in block)


SETTINGS = settings(max_examples=60)
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
                part = naive_compose(cat, a, b, c, f.entries[i][j].coeffs,
                                     g.entries[j][k].coeffs)
                acc = [s + t for s, t in zip(acc, part)]
            assert fg.entries[i][k].coeffs == cat.hom_group_lin(a, c).canonical_rep(acc)


@SETTINGS
@given(cats, rngs)
def test_left_compose_rows_match_naive(name, rng):
    cat = CATEGORIES[name]
    x, y, z = (rand_tuple(cat, rng) for _ in range(3))
    f = rand_mat(cat, x, y, rng)
    unknown, out = HomBasis(y, z), HomBasis(x, z)
    rows = left_compose_rows(f, unknown, out)
    assert len(rows) == unknown.dim
    for row, (l, j, k) in zip(rows, units(unknown)):
        b, c = y.summands[l], z.summands[j]
        expected = [0] * out.dim
        for i, a in enumerate(x.summands):
            off = out.cuts[i][j].start
            block = drop(cat, a, c, naive_compose(cat, a, b, c, f.entries[i][l].coeffs,
                                                  unit_vector(cat, b, c, k)))
            expected[off : off + len(block)] = block
        assert row == {col: v for col, v in enumerate(expected) if v}


@SETTINGS
@given(cats, rngs)
def test_right_compose_rows_match_naive(name, rng):
    cat = CATEGORIES[name]
    x, y, z = (rand_tuple(cat, rng) for _ in range(3))
    g = rand_mat(cat, y, z, rng)
    unknown, out = HomBasis(x, y), HomBasis(x, z)
    rows = right_compose_rows(unknown, g, out)
    assert len(rows) == unknown.dim
    for row, (i, l, k) in zip(rows, units(unknown)):
        a, b = x.summands[i], y.summands[l]
        expected = [0] * out.dim
        for j, c in enumerate(z.summands):
            off = out.cuts[i][j].start
            block = drop(cat, a, c, naive_compose(cat, a, b, c, unit_vector(cat, a, b, k),
                                                  g.entries[l][j].coeffs))
            expected[off : off + len(block)] = block
        assert row == {col: v for col, v in enumerate(expected) if v}


@SETTINGS
@given(cats, rngs)
def test_padding_and_dropping_are_inverse(name, rng):
    """Padding coordinates with zeros at the unit pivots and dropping them
    again gives the coordinates back, and dropping the zeros of a canonical
    path vector, then padding, gives the vector back; ``coords`` reads any
    path vector as the coordinates of its canonical form."""
    cat = CATEGORIES[name]
    a, b = rng.choice(cat.quiver.vertices), rng.choice(cat.quiver.vertices)
    raw = [rng.randint(-5, 5) for _ in range(cat.dim(a, b))]
    assert drop(cat, a, b, cat.pad(a, b, raw)) == tuple(raw)
    coords = cat.canonical(a, b, raw)
    assert cat.coords(a, b, cat.pad(a, b, coords)) == coords
    path_raw = [rng.randint(-5, 5) for _ in cat.paths(a, b)]
    vec = cat.lin(a, b, path_raw).coeffs
    assert cat.pad(a, b, drop(cat, a, b, vec)) == vec
    assert cat.coords(a, b, path_raw) == cat.coords(a, b, vec) == drop(cat, a, b, vec)
    assert cat.dim(a, b) == len(cat.coordinate_paths(a, b)) <= len(cat.paths(a, b))


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_path_vectors_enter_coordinates_by_one_rule(name):
    """``coords`` sums the coordinate images of a path vector's paths and
    reduces by the torsion rows alone; padded, that is the representative
    that the path-level presentation's ``canonical_rep`` picks, and it is
    what ``lin`` holds."""
    cat = CATEGORIES[name]
    rng = random.Random(name)
    for a in cat.quiver.vertices:
        for b in cat.quiver.vertices:
            group = cat.hom_group_lin(a, b)
            for _ in range(8):
                vec = [rng.randint(-9, 9) for _ in range(group.ngens)]
                expected = group.canonical_rep(vec)
                assert cat.lin(a, b, vec).coeffs == cat.pad(a, b, cat.coords(a, b, vec)) == expected


def test_concat_table_indexes_concatenations(ladder_cat):
    """The product table, which replaced the table of concatenation indices,
    holds for each pair of coordinate paths the coordinates of their
    concatenation, as (coordinate, value) pairs."""
    a, b, c = "t0", "t2", "b4"
    table = ladder_cat.product_table(a, b, c)
    assert table is ladder_cat.product_table(a, b, c)
    for i, p in enumerate(ladder_cat.coordinate_paths(a, b)):
        for j, q in enumerate(ladder_cat.coordinate_paths(b, c)):
            expected = [0] * ladder_cat.dim(a, c)
            for k, v in table[i][j]:
                expected[k] += v
            path = path_lin(ladder_cat, a, c, p.arrows + q.arrows).coeffs
            assert tuple(expected) == drop(ladder_cat, a, c, path)


def test_unit_coeffs_are_canonical(snake_cat):
    for a in snake_cat.quiver.vertices:
        for b in snake_cat.quiver.vertices:
            group = snake_cat.hom_group_lin(a, b)
            for k, unit in enumerate(snake_cat.unit_coeffs(a, b)):
                path_vector = unit_vector(snake_cat, a, b, k)
                assert path_vector == list(group.canonical_rep(path_vector))
                assert unit == drop(snake_cat, a, b, path_vector)
    # alpha*beta*gamma = 0 makes the only path a -> d a unit pivot: Hom(a, d)
    # has no coordinates
    assert snake_cat.unit_coeffs("a", "d") == ()


@SETTINGS
@given(cats, rngs)
def test_sum_difference_negation_scale_match_entries(name, rng):
    cat = CATEGORIES[name]
    x, y = rand_tuple(cat, rng), rand_tuple(cat, rng)
    fg, gg = rand_grid(cat, x, y, rng), rand_grid(cat, x, y, rng)
    f, g = MatMorphism(x, y, fg), MatMorphism(x, y, gg)
    c = rng.randint(-3, 3)
    check_flat(f, fg)
    pairs = [list(zip(r, s)) for r, s in zip(fg, gg)]
    check_flat(f + g, [[lin_comb([(1, a), (1, b)]) for a, b in row] for row in pairs])
    check_flat(f - g, [[lin_comb([(1, a), (-1, b)]) for a, b in row] for row in pairs])
    check_flat(-f, [[lin_comb([(-1, a)]) for a in r] for r in fg])
    check_flat(f.scale(c), [[lin_comb([(c, a)]) for a in r] for r in fg])
    assert (f - f).is_zero() and f + (-f) == zero_mat(x, y)


@SETTINGS
@given(cats, rngs)
def test_stacks_and_blocks_match_entries(name, rng):
    cat = CATEGORIES[name]
    x1, x2, y1, y2 = (rand_tuple(cat, rng) for _ in range(4))
    g11, g12 = rand_grid(cat, x1, y1, rng), rand_grid(cat, x1, y2, rng)
    g21, g22 = rand_grid(cat, x2, y1, rng), rand_grid(cat, x2, y2, rng)
    f11, f12 = MatMorphism(x1, y1, g11), MatMorphism(x1, y2, g12)
    f21, f22 = MatMorphism(x2, y1, g21), MatMorphism(x2, y2, g22)
    check_flat(from_blocks([x1], [y1, y2], [[f11, f12]]), [r + s for r, s in zip(g11, g12)])
    check_flat(from_blocks([x1], [y1], [[f11]]), g11)
    check_flat(from_blocks([x1, x2], [y1], [[f11], [f21]]), g11 + g21)
    check_flat(from_blocks([x2], [y1], [[f21]]), g21)
    check_flat(from_blocks([x1, x2], [y1, y2], [[f11, f12], [f21, f22]]),
               [r + s for r, s in zip(g11 + g21, g12 + g22)])
    block = from_blocks([x1, x2], [y1, y2], [[f11, f12], [f21, f22]])
    assert block.source.summands == x1.summands + x2.summands
    assert block.target.summands == y1.summands + y2.summands


@SETTINGS
@given(cats, rngs)
def test_zero_and_identity_match_entries(name, rng):
    cat = CATEGORIES[name]
    x, y = rand_tuple(cat, rng), rand_tuple(cat, rng)
    check_flat(zero_mat(x, y), [[zero_lin(cat, a, b) for b in y.summands] for a in x.summands])
    check_flat(identity_mat(x), [
        [identity_lin(cat, a) if i == j else zero_lin(cat, a, b)
         for j, b in enumerate(x.summands)]
        for i, a in enumerate(x.summands)])


@SETTINGS
@given(cats, rngs)
def test_dual_matches_entries(name, rng):
    cat = CATEGORIES[name]
    x, y = rand_tuple(cat, rng), rand_tuple(cat, rng)
    fg = rand_grid(cat, x, y, rng)
    f = MatMorphism(x, y, fg)
    d = dual_mat(f)
    assert d.cat is cat.opposite()
    assert (d.source.summands, d.target.summands) == (y.summands, x.summands)
    check_flat(d, [[dual_lin(fg[i][j]) for i in range(len(x))] for j in range(len(y))])
    assert dual_mat(d) == f


@SETTINGS
@given(cats, rngs)
def test_unflatten_canonicalises_once_and_flatten_inverts(name, rng):
    cat = CATEGORIES[name]
    x, y = rand_tuple(cat, rng), rand_tuple(cat, rng)
    hb = HomBasis(x, y)
    vec = [rng.randint(-5, 5) for _ in range(hb.dim)]
    m = hb.unflatten(vec)
    check_flat(m, [[cat.lin(a, b, cat.pad(a, b, vec[hb.cuts[i][j]]))
                    for j, b in enumerate(y.summands)] for i, a in enumerate(x.summands)])
    assert hb.flatten(m) == tuple(c for row in m.blocks for block in row for c in block)
    assert hb.unflatten(hb.flatten(m)) == m
    f = rand_mat(cat, x, y, rng)
    assert hb.unflatten(hb.flatten(f)) == f


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_hom_basis_cuts_tile_the_coordinates_row_major(name):
    cat = CATEGORIES[name]
    rng = random.Random(name)
    for _ in range(20):
        x, y = rand_tuple(cat, rng), rand_tuple(cat, rng)
        hb = HomBasis(x, y)
        assert len(hb.cuts) == len(x)
        at = 0
        for a, row in zip(x.summands, hb.cuts):
            assert len(row) == len(y)
            for b, cut in zip(y.summands, row):
                assert (cut.start, cut.step) == (at, None)
                assert cut.stop - cut.start == cat.dim(a, b)
                at = cut.stop
        assert at == hb.dim
        f = rand_mat(cat, x, y, rng)
        assert hb.unflatten(hb.flatten(f)) == f


@SETTINGS
@given(cats, rngs)
def test_compose_results_are_canonical(name, rng):
    cat = CATEGORIES[name]
    x, y, z = (rand_tuple(cat, rng) for _ in range(3))
    fg = compose_mat(rand_mat(cat, x, y, rng), rand_mat(cat, y, z, rng))
    check_flat(fg, fg.entries)


def check_canonical(f):
    """Every block of ``f``, padded to a path vector, is its own canonical
    representative."""
    cat = f.cat
    for a, row in zip(f.source.summands, f.blocks):
        for b, block in zip(f.target.summands, row):
            vec = cat.pad(a, b, block)
            assert vec == cat.hom_group_lin(a, b).canonical_rep(vec)


@pytest.mark.parametrize("name", ["skew", "torsion", "five"])
def test_sums_multiples_identity_parts_and_unflatten_are_canonical(name):
    """Skew's Hom(a, b) and Hom(a, c) and torsion's Hom(a, b) have relation
    pivots other than 1, so integer combinations of canonical blocks can
    leave canonical form there; every pivot of five's groups is 1."""
    cat = _BASE[name]
    rng = random.Random(name)
    for _ in range(20):
        x, y = rand_tuple(cat, rng), rand_tuple(cat, rng)
        f, g = rand_mat(cat, x, y, rng), rand_mat(cat, x, y, rng)
        for h in (f + g, f - g, *(f.scale(c) for c in (-2, -1, 2, 3))):
            check_canonical(h)
        if len(x) and len(y):
            c = rng.choice((-2, -1, 2, 3))
            check_canonical(from_blocks([x, y], [x, y], [[c, f], [0, -c]]))
        hb = HomBasis(x, y)
        check_canonical(hb.unflatten([rng.randint(-5, 5) for _ in range(hb.dim)]))


def test_sum_of_canonical_blocks_is_reduced():
    # canonical u is (1, 0); u + u = (2, 0) reduces to -v, i.e. (0, -1)
    skew = _BASE["skew"]
    a, b = TupleObject(skew, ("a",)), TupleObject(skew, ("b",))
    u = MatMorphism(a, b, ((arrow_lin(skew, "u"),),))
    assert u.blocks == (((1, 0),),)
    assert (u + u).blocks == (((0, -1),),)
    assert (u + u).entries[0][0] == skew.lin("a", "b", (2, 0)) == skew.lin("a", "b", (0, -1))
    assert u.scale(2) == u + u


def test_construction_layers_never_read_path_bases():
    """Blocks and homotopy systems are laid out over coordinates, so the
    layers above ``quivercat`` never read a path basis or a path index."""
    for name in ("addclosure.py", "homgroups.py", "adelman.py"):
        text = (pathlib.Path(adelcat.__file__).parent / name).read_text(encoding="utf-8")
        for call in (".paths(", "path_index", "concat_table"):
            assert call not in text, (name, call)


def test_only_quivercat_and_intlinalg_call_canonical_rep():
    """``QuiverCategory.canonical`` is the one rule for reducing a block, so
    no module above ``quivercat`` chooses whether to reduce, and inside
    ``quivercat`` only it and its grid form reduce, by the torsion rows: a
    path vector is never reduced on its paths."""
    package = pathlib.Path(adelcat.__file__).parent
    callers = {p.name for p in package.glob("*.py")
               if "canonical_rep(" in p.read_text(encoding="utf-8")}
    assert callers == {"intlinalg.py", "quivercat.py"}
    text = (package / "quivercat.py").read_text(encoding="utf-8")
    calls = {node.name: ast.get_source_segment(text, node).count("canonical_rep(")
             for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)}
    assert {name for name, n in calls.items() if n} == {"canonical", "canonical_blocks"}
    assert sum(calls.values()) == text.count("canonical_rep(")


def _calls(tree):
    """(qualified name of the enclosing class or function, called name) for
    every call in ``tree``; a called attribute counts by its name."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found.append((scope, name, isinstance(func, ast.Attribute)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_path_vectors_cross_only_at_the_json_codec_and_the_harness_names():
    """Quiver morphisms are coordinate blocks throughout the package: a path
    vector is built only by ``QuiverCategory.lin``, ``MatMorphism.entries``
    and the JSON reader, and nothing in the package calls the path-vector
    adapters (``single``, ``parse_expr_text``, ``lin``), which are kept for
    the benchmark harness."""
    package = pathlib.Path(adelcat.__file__).parent
    builders, adapters = set(), []
    for path in sorted(package.glob("*.py")):
        for scope, name, attr in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            if name == "LinMorphism":
                builders.add((path.name, scope))
            if name in ("single", "parse_expr_text") or attr and name == "lin":
                adapters.append((path.name, scope, name))
    assert builders == {("quivercat.py", "QuiverCategory.lin"),
                        ("addclosure.py", "MatMorphism.entries"), ("provers.py", "_matrix")}
    assert adapters == []
