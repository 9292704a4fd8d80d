"""``addclosure.from_blocks``, the one block-matrix constructor, against the
stacking helpers it replaced.

The oracle below is the old composition, kept here only: ``zero_mat``,
``identity_mat``, ``hstack_mat`` and ``vstack_mat`` written entry by entry
through the validating ``MatMorphism`` constructor, and the kernel and
cokernel assembled from them as ``adelman`` used to.  The new constructor
must give the same values, down to the canonical blocks of ``c`` times an
identity.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelcat.addclosure import MatMorphism, TupleObject, from_blocks, identity_mat
from adelcat.adelman import KernelResult, cokernel, kernel
from adelcat.homgroups import hom_group
from adelcat.quivercat import EndpointError, Path, Quiver, QuiverCategory, Relation

from conftest import arrow_lin, identity_lin
from test_composition_tables import (
    CATEGORIES, check_flat, rand_grid, rand_tuple, zero_lin)
from test_homgroups import _ladder_pairs


# -- the old composition, as a test-local oracle -------------------------------

def old_zero(x, y):
    return MatMorphism(x, y, [[zero_lin(x.cat, a, b) for b in y.summands] for a in x.summands])


def old_identity(x):
    cat = x.cat
    return MatMorphism(x, x, [[identity_lin(cat, a) if i == j else zero_lin(cat, a, b)
                               for j, b in enumerate(x.summands)]
                              for i, a in enumerate(x.summands)])


def old_hstack(*fs):
    src = fs[0].source
    assert all(f.source == src for f in fs)
    tgt = TupleObject(src.cat, tuple(v for f in fs for v in f.target.summands))
    return MatMorphism(src, tgt, [sum((list(f.entries[i]) for f in fs), [])
                                  for i in range(len(src))])


def old_vstack(*fs):
    tgt = fs[0].target
    assert all(f.target == tgt for f in fs)
    src = TupleObject(tgt.cat, tuple(v for f in fs for v in f.source.summands))
    return MatMorphism(src, tgt, [row for f in fs for row in f.entries])


def old_blocks(parts):
    return old_vstack(*[old_hstack(*row) for row in parts])


def old_cokernel(f):
    a, b = f.source, f.target
    return (
        old_blocks([[b.rel, old_zero(b.rel_source, a.corel_target)], [f.datum, a.corel]]),
        old_blocks([[b.corel, old_zero(b.middle, a.corel_target)],
                    [old_zero(a.corel_target, b.corel_target), old_identity(a.corel_target)]]),
        old_hstack(old_identity(b.middle), old_zero(b.middle, a.corel_target)),
        old_hstack(old_identity(b.rel_source), old_zero(b.rel_source, a.middle)),
        old_hstack(old_identity(b.corel_target), old_zero(b.corel_target, a.corel_target)),
        old_hstack(old_zero(a.middle, b.rel_source), old_identity(a.middle)),
        old_hstack(old_zero(a.corel_target, b.middle), -old_identity(a.corel_target)),
    )


def old_kernel(f):
    a, b = f.source, f.target
    return (
        old_blocks([[a.rel, old_zero(a.rel_source, b.rel_source)],
                    [old_zero(b.rel_source, a.middle), old_identity(b.rel_source)]]),
        old_blocks([[a.corel, f.datum], [old_zero(b.rel_source, a.corel_target), b.rel]]),
        old_vstack(old_identity(a.middle), old_zero(b.rel_source, a.middle)),
        old_vstack(old_identity(a.rel_source), old_zero(b.rel_source, a.rel_source)),
        old_vstack(old_identity(a.corel_target), old_zero(b.middle, a.corel_target)),
        old_vstack(old_zero(a.middle, b.rel_source), -old_identity(b.rel_source)),
        old_vstack(old_zero(a.corel_target, b.middle), old_identity(b.middle)),
    )


def parts_of(result, base):
    """The seven matrices of a kernel or cokernel result, in the oracle's
    order, after checking that its morphism starts or ends at ``base``."""
    obj = result.obj
    f = result.emb if isinstance(result, KernelResult) else result.proj
    assert base in (f.source, f.target) and obj in (f.source, f.target)
    wp = result.composite_zero_wp
    return (obj.rel, obj.corel, f.datum, f.rel_witness, f.corel_witness, wp.sigma1, wp.sigma2)


# -- one pass against the oracle ------------------------------------------------

def identity_torsion_category() -> QuiverCategory:
    """Vertices a -> b with 3 * id(a) = 0: Hom(a, a) is Z/3, whose relation
    pivot 3 makes a multiple of a canonical block need reducing."""
    q = Quiver(("a", "b"), ())
    return QuiverCategory(q, (Relation("a", "a", ((3, Path("a", "a", ())),)),), name="idtorsion")


ALL = {**CATEGORIES, "idtorsion": identity_torsion_category()}
EXAMPLES = settings(max_examples=150)


def rand_part(cat, x, y, rng):
    """A part from ``x`` to ``y``: a random matrix, 0, or c in {-2, -1, 1, 2}
    times the identity where ``x`` is ``y``; with the oracle's value."""
    kind = rng.choice(("matrix", "zero", "identity") if x is y else ("matrix", "zero"))
    if kind == "matrix":
        f = MatMorphism(x, y, rand_grid(cat, x, y, rng))
        return f, f
    if kind == "zero":
        return 0, old_zero(x, y)
    c = rng.choice((-2, -1, 1, 2))
    return c, old_identity(x).scale(c)


@EXAMPLES
@given(st.sampled_from(sorted(ALL)), st.randoms(use_true_random=False))
def test_from_blocks_matches_the_old_composition(name, rng):
    cat = ALL[name]
    rows = [rand_tuple(cat, rng) for _ in range(rng.randint(1, 3))]
    # some column objects are row objects, so identity parts occur
    cols = [rows[j] if j < len(rows) and rng.random() < 0.6 else rand_tuple(cat, rng)
            for j in range(rng.randint(1, 3))]
    drawn = [[rand_part(cat, x, y, rng) for y in cols] for x in rows]
    f = from_blocks(rows, cols, [[part for part, _ in row] for row in drawn])
    expected = old_blocks([[value for _, value in row] for row in drawn])
    assert f == expected
    assert f.blocks == expected.blocks
    check_flat(f, expected.entries)


@pytest.mark.parametrize("c", [-2, -1, 1, 2])
def test_scaled_identity_is_reduced_as_scale_reduces(c):
    cat = ALL["idtorsion"]
    for x in (TupleObject(cat, ("a",)), TupleObject(cat, ("a", "b", "a")), TupleObject(cat, ())):
        f = from_blocks([x], [x], [[c]])
        assert f.blocks == identity_mat(x).scale(c).blocks == old_identity(x).scale(c).blocks
    # -2 and -1 lie outside [0, 3) and are reduced to 1 and 2
    a = TupleObject(cat, ("a",))
    assert from_blocks([a], [a], [[c]]).blocks == (((c % 3,),),)


def test_empty_tuple_objects(snake_cat):
    z, x = TupleObject(snake_cat, ()), TupleObject(snake_cat, ("a", "b"))
    f = MatMorphism(x, x, rand_grid(snake_cat, x, x, random.Random(2)))
    assert from_blocks([z], [z], [[1]]) == old_identity(z)
    assert from_blocks([z, x], [x, z], [[0, 0], [f, 0]]) == old_blocks(
        [[old_zero(z, x), old_zero(z, z)], [f, old_zero(x, z)]])
    assert from_blocks([x, z], [z, x], [[0, 1], [0, 0]]).blocks == old_identity(x).blocks


def test_wrong_parts_raise_endpoint_errors(snake_cat, five_cat):
    a, b = TupleObject(snake_cat, ("a",)), TupleObject(snake_cat, ("b",))
    alpha = MatMorphism(a, b, [[arrow_lin(snake_cat, "alpha")]])
    cases = [
        ([b], [b], [[alpha]], "block \\(0,0\\) runs"),           # wrong source
        ([a], [a], [[alpha]], "block \\(0,0\\) runs"),           # wrong target
        ([a, b], [b], [[alpha], [alpha]], "block \\(1,0\\) runs"),
        ([a], [b], [[1]], "identity block \\(0,0\\) between different objects"),
        ([a], [b], [[alpha, 0]], "does not fit its column objects"),
        ([a, a], [b], [[alpha]], "does not fit its row objects"),
        ([a], [TupleObject(five_cat, ("a",))], [[0]], "different categories"),
        ([a, TupleObject(five_cat, ("b",))], [b], [[alpha], [0]], "different categories"),
    ]
    for rows, cols, parts, message in cases:
        with pytest.raises(EndpointError, match=message):
            from_blocks(rows, cols, parts)


# -- kernels and cokernels -------------------------------------------------------

def check_constructions(fs):
    for f in fs:
        assert parts_of(kernel(f), f.source) == old_kernel(f)
        assert parts_of(cokernel(f), f.target) == old_cokernel(f)


def test_snake_kernels_and_cokernels_match_the_old_assembly(snake_fig):
    fig = snake_fig
    check_constructions([fig.alpha, fig.beta, fig.gamma, fig.delta, fig.eps, fig.connecting,
                         fig.connecting.scale(-2), fig.blue1, fig.blue2, fig.blue4, fig.blue5,
                         fig.ker_eps.emb, fig.coka.proj, fig.cok_delta.proj])


def test_five_kernels_and_cokernels_match_the_old_assembly(five_data):
    d = five_data
    check_constructions([d.top1, d.top2, d.top3, d.bot1, d.bot2, d.bot3, d.eps, d.zeta,
                         d.m21, d.m22, d.nu, d.m3, d.m4, d.ker_mu.emb, d.cok_lambda.proj])


def test_ladder_kernels_and_cokernels_match_the_old_assembly():
    rng = random.Random(11)
    fs = []
    for x, y in _ladder_pairs(5, 6):
        hg = hom_group(x, y)
        fs += hg.generators[:2]
        fs.append(hg.element([rng.randint(-3, 3) for _ in range(hg.group.ngens)]))
    assert len(fs) > 6
    check_constructions(fs)


# -- the zero blocks stay bounded by the vertex pairs ------------------------------

def test_zero_blocks_are_kept_per_vertex_pair():
    """About 200 Hom-group, kernel and cokernel operations on one ladder
    category keep at most one zero block per vertex pair: no cache is keyed
    by tuple objects."""
    pairs = _ladder_pairs(29, 70)
    cat = pairs[0][0].cat
    assert all(x.cat is cat and y.cat is cat for x, y in pairs)
    rng = random.Random(29)
    for x, y in pairs:
        hg = hom_group(x, y)
        f = hg.element([rng.randint(-3, 3) for _ in range(hg.group.ngens)])
        kernel(f)
        cokernel(f)
    vertices = cat.quiver.vertices
    assert cat._zeros
    assert len(cat._zeros) <= len(vertices) ** 2
    assert all(a in vertices and b in vertices for a, b in cat._zeros)
    assert all(block == (0,) * cat.dim(a, b) for (a, b), block in cat._zeros.items())
