import os
import random
import re
import sys
from dataclasses import replace

import pytest

from adelcat import addclosure, adelman
from adelcat.addclosure import HomBasis, left_compose_rows, right_compose_rows
from adelcat.adelman import (
    AdelMorphism,
    WitnessError,
    emb_vertex,
    is_equal,
    is_zero_morphism,
    make_morphism,
    zero_adel_object,
    zero_morphism,
)
from adelcat.homgroups import _morphisms, hom_group
from adelcat.intlinalg import FpAbGroup, IntMatrix, SmithInvariants, lattice_basis, left_kernel
from adelcat.quivercat import EndpointError

from conftest import category_from_text
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
            zero_class = hg.group.is_zero_element(hg.coordinates(f))
            assert zero_class == (is_zero_morphism(f) is not None)

    def test_ill_defined_datum_rejected(self, five_cat):
        # identity datum of emb(c) into the kernel-style object over zeta*kappa
        from adelcat.addclosure import (TupleObject, arrow_mat, compose_mat, identity_mat,
                                        tuple_obj, zero_mat)
        d = AdelObject(
            zero_mat(TupleObject(five_cat, ()), TupleObject(five_cat, ("c",))),
            compose_mat(*(arrow_mat(five_cat, x) for x in ("zeta", "kappa"))))
        src = emb_vertex(five_cat, "c")
        hg = hom_group(src, d)
        with pytest.raises(ValueError):
            hg.coordinates(identity_mat(tuple_obj(five_cat, "c")))

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
        [r[: hom.dim] for r in solutions.entries], cols=hom.dim))


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
                hom.unflatten(r) for r in hg.basis.entries]

    def test_element_of_an_empty_presentation_is_zero(self, snake_fig, snake_cat):
        k = snake_fig.ker_eps.obj
        for x, y in ((k, zero_adel_object(snake_cat)),
                     (emb_vertex(snake_cat, "b"), emb_vertex(snake_cat, "a"))):
            hg = hom_group(x, y)
            assert hg.group.ngens == 0
            assert hg.element(()) == zero_morphism(x, y)


def _ladder_pairs(seed, count, torsion=False):
    """Seeded object pairs on the 2x6 commuting ladder, drawn by the
    benchmark's generators; with ``torsion``, on the 2x4 ladder whose
    squares commute only up to 2, so that its Hom sets keep torsion rows."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)
    from adelbench import gen
    if torsion:
        text = re.sub(r"(\w+\*\w+) = (\w+\*\w+)", r"2*\1 = 2*\2", gen.ladder_spec(4).cat_text())
        cat = category_from_text(text)
    else:
        cat = gen.ladder_spec(6).category()
    rng = gen.rng_for(seed, "hom-group-agreement")
    return [tuple(gen.rand_object(rng, cat, gen.rand_shape(rng, cat)) for _ in range(2))
            for _ in range(count)]


def _verdict(build):
    """None when ``build()`` succeeds, else the message of its ``WitnessError``."""
    try:
        build()
    except WitnessError as e:
        return str(e)
    return None


def _parts(hg, vec):
    """Datum, relation witness and corelation witness of a flat vector."""
    parts, at = [], 0
    for space in hg._spaces:
        parts.append(space.unflatten(vec[at : at + space.dim]))
        at += space.dim
    return parts


class TestFamilyValidation:
    """Generators and elements are checked by one sparse product per Hom
    group instead of by the public constructor; the two must agree."""

    @pytest.fixture(scope="class")
    def ladder_groups(self):
        return [hom_group(x, y) for x, y in _ladder_pairs(47, 10)]

    def test_generators_and_elements_pass_the_public_constructor(self, ladder_groups):
        rng = random.Random(3)
        for hg in ladder_groups:
            values = list(hg.generators)
            values.append(hg.element([rng.randint(-5, 5) for _ in range(hg.group.ngens)]))
            for f in values:
                assert AdelMorphism(f.source, f.target, f.datum,
                                    f.rel_witness, f.corel_witness) == f
        assert sum(hg.group.ngens for hg in ladder_groups) > 20

    def test_presentation_stays_hashable(self, ladder_groups):
        # the witness-square map is neither hashed, compared nor printed
        assert len(set(ladder_groups)) == len(ladder_groups)
        assert "_squares" not in repr(ladder_groups[0])

    def test_two_calls_give_equal_presentations(self, ladder_groups):
        # the Hom bases are fixed by the endpoints and are not compared
        for hg in ladder_groups:
            again = hom_group(hg.source, hg.target)
            assert again == hg and hash(again) == hash(hg)
            assert again._spaces is not hg._spaces
        assert "_spaces" not in repr(ladder_groups[0])

    def test_corrupted_rows_are_rejected_exactly_when_the_constructor_rejects(
            self, ladder_groups):
        """One coefficient of a ``basis`` or ``witnesses`` row plus 1, taken
        as an element: ``element`` raises ``WitnessError`` with the public
        constructor's message exactly when that constructor rejects the
        same parts, and otherwise returns the morphism it builds.  Every
        coefficient of each row is corrupted."""
        checked = rejected = 0
        for hg in ladder_groups:
            n = hg.basis.cols
            for i in range(hg.group.ngens):
                row = list(hg.basis.entries[i] + hg.witnesses.entries[i])
                for p in range(len(row)):
                    bad = row[:]
                    bad[p] += 1
                    parts = _parts(hg, bad)
                    expected = _verdict(lambda: AdelMorphism(hg.source, hg.target, *parts))
                    one = replace(hg, group=FpAbGroup.free(1),
                                  basis=IntMatrix.from_rows([bad[:n]]),
                                  witnesses=IntMatrix.from_rows([bad[n:]]))
                    assert _verdict(lambda: one.element([1])) == expected
                    if expected is None:
                        assert one.element([1]) == AdelMorphism(hg.source, hg.target, *parts)
                    checked += 1
                    rejected += expected is not None
        assert checked > 2000
        assert 0 < rejected < checked

    def test_one_bad_value_fails_the_whole_family(self, ladder_groups):
        hg = next(h for h in ladder_groups if h.group.ngens >= 3)
        rows = [list(b + w) for b, w in zip(hg.basis.entries, hg.witnesses.entries)]

        def build(vecs):
            return lambda: _morphisms(hg.source, hg.target, hg._spaces, hg._squares, vecs)
        assert _verdict(build(rows)) is None
        for p in range(hg.basis.cols, len(rows[1])):
            bad = [r[:] for r in rows]
            bad[1][p] += 1
            message = _verdict(build([bad[1]]))
            if message is not None:
                assert _verdict(build(bad)) == message
                return
        pytest.fail("no corrupted witness coefficient was rejected")

    def test_raw_vectors_give_the_verdicts_and_morphisms_of_their_canonical_forms(self):
        """The residuals are formed from the raw solution vectors.  A row
        shifted by relation-lattice elements in every block is still accepted
        and builds the generator itself; the same row with one forged
        coefficient is rejected.  The commuting ladder has no torsion rows,
        so its coordinates have no relation lattice: the groups are taken
        on the ladder whose squares commute up to 2."""
        checked = 0
        for hg in [hom_group(x, y) for x, y in _ladder_pairs(47, 10, torsion=True)]:
            row = list(hg.basis.entries[0] + hg.witnesses.entries[0]) if hg.group.ngens else []
            shifts = [(at, rel) for at, space in zip((0, hg._spaces[0].dim,
                                                      hg._spaces[0].dim + hg._spaces[1].dim),
                                                     hg._spaces) for rel in space.rel_rows()]
            if not row or not shifts:
                continue
            for k, (at, rel) in enumerate(shifts):
                for col, v in rel.items():
                    row[at + col] += (k % 3 + 1) * v
            assert row != list(hg.basis.entries[0] + hg.witnesses.entries[0])
            [built] = _morphisms(hg.source, hg.target, hg._spaces, hg._squares, [row])
            assert built == hg.generators[0]
            forged = [row[:p] + [row[p] + 1] + row[p + 1:] for p in range(len(row))]
            verdicts = [_verdict(lambda v=v: _morphisms(hg.source, hg.target, hg._spaces,
                                                         hg._squares, [v])) for v in forged]
            assert any(verdicts)
            checked += 1
        assert checked >= 3


class TestCoordinatesEndpoints:
    def test_morphism_between_other_objects_is_rejected(self, snake_fig):
        hg = hom_group(snake_fig.ker_eps.obj, snake_fig.cok_delta.obj)
        with pytest.raises(EndpointError):
            hg.coordinates(snake_fig.beta)

    def test_bare_datum_is_accepted(self, snake_fig):
        hg = hom_group(snake_fig.ker_eps.obj, snake_fig.cok_delta.obj)
        assert hg.coordinates(snake_fig.connecting.datum) in ((1,), (-1,))
        assert hg.coordinates(snake_fig.connecting) in ((1,), (-1,))
