import random

import pytest

from adelcat import addclosure, adelman
from adelcat.addclosure import HomBasis, left_compose_rows, right_compose_rows
from adelcat.adelman import (
    emb_vertex,
    is_equal,
    is_zero_morphism,
    make_morphism,
    zero_adel_object,
    zero_morphism,
)
from adelcat.homgroups import hom_group
from adelcat.intlinalg import IntMatrix, SmithInvariants, lattice_basis, left_kernel

from test_addclosure import rand_mat, rand_tuple
from adelcat.adelman import AdelObject


def rand_object(cat, rng):
    mid = rand_tuple(cat, rng)
    rel = rand_mat(cat, rand_tuple(cat, rng), mid, rng)
    corel = rand_mat(cat, mid, rand_tuple(cat, rng), rng)
    return AdelObject(rel, corel)


class TestEmbFullness:
    def test_invariants_match_base_category(self, snake_cat, torsion_cat, kronecker_cat):
        for cat in (snake_cat, torsion_cat, kronecker_cat):
            for a in cat.quiver.vertices:
                for b in cat.quiver.vertices:
                    upstairs = hom_group(emb_vertex(cat, a), emb_vertex(cat, b))
                    downstairs = cat.hom_group_lin(a, b)
                    assert (upstairs.group.invariants().reduced()
                            == downstairs.invariants().reduced())


class TestDowkerGroup:
    def test_free_rank_one(self, snake_fig):
        hg = hom_group(snake_fig.ker_eps.obj, snake_fig.cok_delta.obj)
        assert hg.group.invariants().reduced() == SmithInvariants((), 1)
        assert len(hg.generators) == 1

    def test_generator_is_connecting_up_to_sign(self, snake_fig):
        hg = hom_group(snake_fig.ker_eps.obj, snake_fig.cok_delta.obj)
        gen = hg.generators[0]
        assert (is_equal(gen, snake_fig.connecting) is not None
                or is_equal(gen, -snake_fig.connecting) is not None)

    def test_coordinates_are_multiples(self, snake_fig):
        hg = hom_group(snake_fig.ker_eps.obj, snake_fig.cok_delta.obj)
        for s in (-2, -1, 0, 1, 5):
            coords = hg.coordinates(snake_fig.connecting.scale(s))
            assert coords in ((s,), (-s,))


class TestDegenerateGroups:
    def test_hom_into_zero_object(self, snake_fig):
        z = zero_adel_object(snake_fig.cat)
        hg = hom_group(snake_fig.ker_eps.obj, z)
        assert hg.group.ngens == 0
        assert hg.group.invariants().is_trivial()

    def test_hom_out_of_zero_object(self, snake_fig):
        z = zero_adel_object(snake_fig.cat)
        hg = hom_group(z, snake_fig.cok_delta.obj)
        assert hg.group.invariants().is_trivial()


class TestPresentationContracts:
    def test_generators_are_well_defined(self, five_data):
        rng = random.Random(13)
        cat = five_data.cat
        for _ in range(8):
            x = rand_object(cat, rng)
            y = rand_object(cat, rng)
            hg = hom_group(x, y)
            for gen in hg.generators:
                assert make_morphism(x, y, gen.datum) is not None

    def test_coordinate_additivity(self, five_data):
        rng = random.Random(19)
        cat = five_data.cat
        for _ in range(6):
            x = rand_object(cat, rng)
            y = rand_object(cat, rng)
            hg = hom_group(x, y)
            if hg.group.ngens == 0:
                continue
            c1 = tuple(rng.randint(-2, 2) for _ in range(hg.group.ngens))
            c2 = tuple(rng.randint(-2, 2) for _ in range(hg.group.ngens))
            f = hg.element(c1)
            g = hg.element(c2)
            lhs = hg.coordinates(f + g)
            rhs = tuple(a + b for a, b in zip(hg.coordinates(f), hg.coordinates(g)))
            assert hg.group.elements_equal(lhs, rhs)

    def test_zero_class_matches_zero_decision(self, five_data):
        rng = random.Random(23)
        cat = five_data.cat
        for _ in range(6):
            x = rand_object(cat, rng)
            y = rand_object(cat, rng)
            hg = hom_group(x, y)
            if hg.group.ngens == 0:
                continue
            coords = tuple(rng.randint(-2, 2) for _ in range(hg.group.ngens))
            f = hg.element(coords)
            assert hg.is_zero_class(f) == (is_zero_morphism(f) is not None)

    def test_ill_defined_datum_rejected(self, five_cat):
        # identity datum of emb(c) into the kernel-style object over zeta*kappa
        from adelcat.addclosure import single, zero_mat, TupleObject
        from adelcat.quivercat import compose_lin
        d = AdelObject(
            zero_mat(TupleObject(five_cat, ()), TupleObject(five_cat, ("c",))),
            single(compose_lin(five_cat.arrow_lin("zeta"), five_cat.arrow_lin("kappa"))))
        src = emb_vertex(five_cat, "c")
        hg = hom_group(src, d)
        with pytest.raises(ValueError):
            hg.coordinates(single(five_cat.identity_lin("c")))

    def test_auxiliary_torsion_freeness_facts(self, snake_cat):
        # the hom groups flanking the connecting pair vanish
        assert snake_cat.hom_group_lin("b", "a").is_trivial()
        assert snake_cat.hom_group_lin("d", "c").is_trivial()
        assert len(snake_cat.paths("b", "a")) == 0
        assert len(snake_cat.paths("d", "c")) == 0


def datum_projection_basis(x, y):
    """HNF basis of the data admitting both witnesses: the projection onto
    the datum block of the joint solution lattice of the witness systems."""
    hom = HomBasis(x.middle, y.middle)
    eq1 = HomBasis(x.rel_source, y.middle)
    eq2 = HomBasis(x.middle, y.corel_target)
    omega = right_compose_rows(HomBasis(x.rel_source, y.rel_source), y.rel, eq1)
    psi = left_compose_rows(x.corel, HomBasis(x.corel_target, y.corel_target), eq2)

    def dense(rows, space):
        return IntMatrix.from_sparse(rows, space.dim).to_rows()

    rows = [r1 + r2 for r1, r2 in zip(dense(left_compose_rows(x.rel, hom, eq1), eq1),
                                      dense(right_compose_rows(hom, y.corel, eq2), eq2))]
    rows += [r + [0] * eq2.dim for r in dense(omega + eq1.rel_rows(), eq1)]
    rows += [[0] * eq1.dim + r for r in dense(psi + eq2.rel_rows(), eq2)]
    solutions = left_kernel(IntMatrix.from_rows(rows, cols=eq1.dim + eq2.dim))
    return lattice_basis(IntMatrix.from_rows(
        [solutions.row(i)[: hom.dim] for i in range(solutions.rows)], cols=hom.dim))


class TestJointSolutionWitnesses:
    def _pairs(self, cats, seed, count):
        rng = random.Random(seed)
        return [(rand_object(cat, rng), rand_object(cat, rng))
                for cat in cats for _ in range(count)]

    def test_no_homotopy_solve_on_the_hom_group_path(self, five_cat, ladder_cat, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("witnesses were solved for again")
        monkeypatch.setattr(addclosure, "decide_homotopy", refuse)
        monkeypatch.setattr(adelman, "decide_homotopy", refuse)
        monkeypatch.setattr(adelman, "make_morphism", refuse)
        rng = random.Random(31)
        for x, y in self._pairs((five_cat, ladder_cat), 29, 4):
            hg = hom_group(x, y)
            coords = tuple(rng.randint(-3, 3) for _ in range(hg.group.ngens))
            f = hg.element(coords)
            assert hg.group.elements_equal(hg.coordinates(f), coords)

    def test_generator_data_are_the_hnf_of_the_datum_projection(self, five_cat, ladder_cat):
        for x, y in self._pairs((five_cat, ladder_cat), 37, 8):
            hg = hom_group(x, y)
            assert hg.basis == datum_projection_basis(x, y)
            hom = HomBasis(x.middle, y.middle)
            assert [g.datum for g in hg.generators] == [
                hom.unflatten(hg.basis.row(i)) for i in range(hg.basis.rows)]

    def test_element_of_an_empty_presentation_is_zero(self, snake_fig, snake_cat):
        k = snake_fig.ker_eps.obj
        for x, y in ((k, zero_adel_object(snake_cat)),
                     (emb_vertex(snake_cat, "b"), emb_vertex(snake_cat, "a"))):
            hg = hom_group(x, y)
            assert hg.group.ngens == 0
            assert hg.element(()) == zero_morphism(x, y)
