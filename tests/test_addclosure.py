import gc
import json
import random
import weakref

import pytest

from adelcat import addclosure, intlinalg
from adelcat.addclosure import (
    HomBasis,
    MatMorphism,
    TupleObject,
    arrow_mat,
    compose_mat,
    decide_homotopy,
    from_blocks,
    identity_mat,
    left_compose_rows,
    right_compose_rows,
    single,
    sum_obj,
    tuple_obj,
    zero_mat,
    zero_obj,
)
from adelcat.adelman import emb_morphism, is_zero_morphism
from adelcat.intlinalg import IntMatrix, solve_left
from adelcat.quivercat import Arrow, EndpointError, LinMorphism, Quiver, QuiverCategory
from adelcat.representation import MatrixEvaluation, Representation, check_representation
from conftest import arrow_lin, identity_lin, ladder_category


def rand_mat(cat, src, tgt, rng):
    entries = tuple(
        tuple(
            cat.lin(a, b, [rng.randint(-2, 2) for _ in cat.paths(a, b)])
            for b in tgt.summands
        )
        for a in src.summands
    )
    return MatMorphism(src, tgt, entries)


def rand_tuple(cat, rng, max_len=2):
    return TupleObject(cat, tuple(
        rng.choice(cat.quiver.vertices) for _ in range(rng.randint(0, max_len))))


class TestMatArithmetic:
    def test_identity_composition(self, snake_cat):
        x = tuple_obj(snake_cat, "a", "b")
        y = tuple_obj(snake_cat, "b")
        f = rand_mat(snake_cat, x, y, random.Random(0))
        assert compose_mat(identity_mat(x), f) == f
        assert compose_mat(f, identity_mat(y)) == f

    def test_additive_inverse(self, snake_cat):
        x = tuple_obj(snake_cat, "a")
        y = tuple_obj(snake_cat, "b", "c")
        f = rand_mat(snake_cat, x, y, random.Random(1))
        assert (f + (-f)).is_zero()

    def test_one_by_one_composition(self, snake_cat):
        al = arrow_mat(snake_cat, "alpha")
        be = arrow_mat(snake_cat, "beta")
        ab = compose_mat(al, be)
        assert ab.entries[0][0] == snake_cat.lin("a", "c", [1])

    def test_shape_mismatch(self, snake_cat):
        al = arrow_mat(snake_cat, "alpha")
        with pytest.raises(EndpointError):
            compose_mat(al, al)
        with pytest.raises(EndpointError):
            al + arrow_mat(snake_cat, "beta")

    def test_bilinearity(self, five_cat):
        rng = random.Random(4)
        x = tuple_obj(five_cat, "a", "b")
        y = tuple_obj(five_cat, "b", "c")
        z = tuple_obj(five_cat, "c", "g")
        f = rand_mat(five_cat, x, y, rng)
        f2 = rand_mat(five_cat, x, y, rng)
        g = rand_mat(five_cat, y, z, rng)
        assert compose_mat(f + f2, g) == compose_mat(f, g) + compose_mat(f2, g)

    def test_zero_object_grids(self, snake_cat):
        z = zero_obj(snake_cat)
        x = tuple_obj(snake_cat, "a")
        into = zero_mat(x, z)
        out = zero_mat(z, x)
        round_trip = compose_mat(into, out)
        assert round_trip == zero_mat(x, x)
        assert compose_mat(out, into) == zero_mat(z, z)


def direct_sum(f, g):
    """The block-diagonal sum of ``f`` and ``g``."""
    return from_blocks([f.source, g.source], [f.target, g.target], [[f, 0], [0, g]])


class TestDirectSum:
    def test_block_diagonal(self, snake_cat):
        al = arrow_mat(snake_cat, "alpha")
        be = arrow_mat(snake_cat, "beta")
        s = direct_sum(al, be)
        assert s.source.summands == ("a", "b")
        assert s.target.summands == ("b", "c")
        assert not any(s.entries[0][1].coeffs) and not any(s.entries[1][0].coeffs)
        assert s.entries[0][0] == arrow_lin(snake_cat, "alpha")
        assert s.entries[1][1] == arrow_lin(snake_cat, "beta")

    def test_sum_with_zero_object(self, snake_cat):
        al = arrow_mat(snake_cat, "alpha")
        z = zero_obj(snake_cat)
        padded = direct_sum(al, zero_mat(z, z))
        assert padded == al

    def test_identity_sum(self, snake_cat):
        x = tuple_obj(snake_cat, "a")
        y = tuple_obj(snake_cat, "b")
        assert direct_sum(identity_mat(x), identity_mat(y)) == identity_mat(sum_obj(x, y))
        assert from_blocks([x, y], [x, y], [[1, 0], [0, 1]]) == identity_mat(sum_obj(x, y))


class TestBlocks:
    def test_from_blocks_shapes(self, snake_cat):
        al = arrow_mat(snake_cat, "alpha")
        x = al.source
        y = al.target
        block = from_blocks([x, x], [y, y], [
            [al, zero_mat(x, y)],
            [0, al],
        ])
        assert block.source.summands == ("a", "a")
        assert block.target.summands == ("b", "b")

    def test_hstack_vstack_consistency(self, snake_cat):
        rng = random.Random(7)
        x = tuple_obj(snake_cat, "a")
        y1 = tuple_obj(snake_cat, "b")
        y2 = tuple_obj(snake_cat, "c")
        f = rand_mat(snake_cat, x, y1, rng)
        g = rand_mat(snake_cat, x, y2, rng)
        h = from_blocks([x], [y1, y2], [[f, g]])
        assert h.target.summands == ("b", "c")
        assert h.blocks == tuple(r + s for r, s in zip(f.blocks, g.blocks))
        f2 = rand_mat(snake_cat, tuple_obj(snake_cat, "a"), y1, rng)
        v = from_blocks([x, f2.source], [y1], [[f], [f2]])
        assert v.source.summands == ("a", "a")
        assert v.blocks == f.blocks + f2.blocks

    def test_tuple_object_rejects_unknown_vertex(self, snake_cat):
        with pytest.raises(EndpointError, match="unknown vertex 'zz' in tuple object"):
            tuple_obj(snake_cat, "a", "zz")

    def test_stacking_nothing_is_an_endpoint_error(self, snake_cat):
        x = tuple_obj(snake_cat, "a")
        for rows, cols, grid in (([], [x], []), ([x], [], [[]]), ([], [], [])):
            with pytest.raises(EndpointError, match="without row or column objects"):
                from_blocks(rows, cols, grid)

    def test_constructor_checks_endpoints(self, snake_cat):
        a, b = tuple_obj(snake_cat, "a"), tuple_obj(snake_cat, "b")
        alpha = arrow_lin(snake_cat, "alpha")
        assert MatMorphism(a, b, ((alpha,),)) == single(alpha) == arrow_mat(snake_cat, "alpha")
        with pytest.raises(EndpointError, match="wrong number of rows"):
            MatMorphism(a, b, ())
        with pytest.raises(EndpointError, match="wrong number of columns"):
            MatMorphism(a, b, ((),))
        with pytest.raises(EndpointError, match=r"entry \(0,0\) has endpoints a->b"):
            MatMorphism(b, a, ((alpha,),))
        ab = tuple_obj(snake_cat, "a", "b")
        with pytest.raises(EndpointError, match=r"entry \(1,1\) has endpoints a->b"):
            MatMorphism(ab, ab, ((identity_lin(snake_cat, "a"), alpha),
                                 (snake_cat.lin("b", "a", ()), alpha)))

    def test_constructor_checks_category_and_coefficient_count(self):
        def category(*arrows):
            q = Quiver(("a", "b"), tuple(Arrow(label, "a", "b") for label in arrows))
            return QuiverCategory(q)
        c1, c2 = category("f"), category("f", "g")
        a, b = tuple_obj(c1, "a"), tuple_obj(c1, "b")
        with pytest.raises(EndpointError, match=r"entry \(0,0\) belongs to another category"):
            MatMorphism(a, b, [[arrow_lin(c2, "g")]])
        with pytest.raises(EndpointError, match=r"entry \(0,0\) has 2 coefficients for 1 paths"):
            MatMorphism(a, b, [[LinMorphism(c1, "a", "b", (1, 0))]])
        with pytest.raises(EndpointError, match="different categories"):
            MatMorphism(a, tuple_obj(c2, "b"), [[arrow_lin(c1, "f")]])
        assert MatMorphism(a, b, [[arrow_lin(c1, "f")]]).blocks == (((1,),),)

    def test_constructor_brings_entries_to_canonical_form(self, snake_cat):
        # alpha*beta*gamma = 0, so the only path a -> d is zero in Hom(a, d):
        # it is a unit pivot, and Hom(a, d) has no coordinates
        a, d = tuple_obj(snake_cat, "a"), tuple_obj(snake_cat, "d")
        m = MatMorphism(a, d, [[LinMorphism(snake_cat, "a", "d", (1,))]])
        assert m.blocks == (((),),) and m.entries[0][0].coeffs == (0,)
        assert m == zero_mat(a, d) and m.is_zero()
        assert is_zero_morphism(emb_morphism(m)) is not None


def _ladder_systems(ladder_cat):
    """Two homotopy systems above the size gate: the zero-object test of the
    ladder object (rel | corel), whose identity is not null-homotopic, and a
    solvable one with the same ``beta`` and ``gamma``."""
    rng = random.Random(7)
    mid = tuple_obj(ladder_cat, "t0", "t0", "t1", "t2", "b3", "b4", "t0", "t1")
    rel = rand_mat(ladder_cat, tuple_obj(ladder_cat, "t0", "t1", "t1", "t2", "b2", "t0"), mid, rng)
    corel = rand_mat(ladder_cat, mid, tuple_obj(ladder_cat, "b4", "b5", "b5", "b3", "b4"), rng)
    out = HomBasis(mid, mid)
    unknowns = HomBasis(mid, rel.source).dim + HomBasis(corel.target, mid).dim
    assert unknowns * out.dim > addclosure.PROBE_CELLS
    solvable = (compose_mat(rand_mat(ladder_cat, mid, rel.source, rng), rel)
                + compose_mat(corel, rand_mat(ladder_cat, corel.target, mid, rng)))

    # the Hom groups of the category are reduced once, on first use
    for u in ladder_cat.quiver.vertices:
        for v in ladder_cat.quiver.vertices:
            ladder_cat.hom_group_lin(u, v)
    return (identity_mat(mid), rel, corel), (solvable, rel, corel)


class TestDecideHomotopy:
    def test_zero_datum_gives_zero_witnesses(self, snake_cat):
        a = tuple_obj(snake_cat, "a")
        b = tuple_obj(snake_cat, "b")
        d = tuple_obj(snake_cat, "a")
        c = tuple_obj(snake_cat, "c")
        alpha = zero_mat(a, b)
        beta = rand_mat(snake_cat, d, b, random.Random(2))
        gamma = rand_mat(snake_cat, a, c, random.Random(3))
        found = decide_homotopy(alpha, beta, gamma)
        assert found is not None
        s1, s2 = found
        assert (compose_mat(s1, beta) + compose_mat(gamma, s2)) == alpha

    def test_zero_datum_poses_no_system(self, five_cat, monkeypatch):
        def unused(*args):
            raise AssertionError("a zero datum posed a homotopy system")
        monkeypatch.setattr(HomBasis, "__init__", unused)
        monkeypatch.setattr(addclosure, "solve_left", unused)
        rng = random.Random(7)
        for _ in range(20):
            a, b, c, d = (rand_tuple(five_cat, rng, max_len=3) for _ in range(4))
            found = decide_homotopy(zero_mat(a, b), rand_mat(five_cat, d, b, rng),
                                    rand_mat(five_cat, a, c, rng))
            assert found == (zero_mat(a, d), zero_mat(c, b))

    def test_identity_beta_always_solvable(self, five_cat):
        # sigma1 = alpha, sigma2 = 0 solves the equation whatever gamma is
        rng = random.Random(11)
        for _ in range(20):
            a = rand_tuple(five_cat, rng)
            b = rand_tuple(five_cat, rng)
            c = rand_tuple(five_cat, rng)
            alpha = rand_mat(five_cat, a, b, rng)
            gamma = rand_mat(five_cat, a, c, rng)
            found = decide_homotopy(alpha, identity_mat(b), gamma)
            assert found is not None
            s1, s2 = found
            assert compose_mat(s1, identity_mat(b)) + compose_mat(gamma, s2) == alpha

    def test_torsion_obstruction(self, torsion_cat):
        a = tuple_obj(torsion_cat, "a")
        b = tuple_obj(torsion_cat, "b")
        z = zero_obj(torsion_cat)
        x = arrow_mat(torsion_cat, "x")
        # no sigma can produce x: the only relation room is 2x
        assert decide_homotopy(x, zero_mat(z, b), zero_mat(a, z)) is None
        # but 2x is null-homotopic via the relation lattice
        found = decide_homotopy(x.scale(2), zero_mat(z, b), zero_mat(a, z))
        assert found is not None

    def test_endpoint_validation(self, snake_cat):
        a = tuple_obj(snake_cat, "a")
        b = tuple_obj(snake_cat, "b")
        alpha = rand_mat(snake_cat, a, b, random.Random(0))
        with pytest.raises(EndpointError):
            decide_homotopy(alpha, rand_mat(snake_cat, a, a, random.Random(0)), zero_mat(a, a))

    def test_constructed_solutions_are_found(self, five_cat, torsion_cat):
        rng = random.Random(23)
        for cat in (five_cat, torsion_cat):
            for _ in range(25):
                a = rand_tuple(cat, rng)
                b = rand_tuple(cat, rng)
                c = rand_tuple(cat, rng)
                d = rand_tuple(cat, rng)
                beta = rand_mat(cat, d, b, rng)
                gamma = rand_mat(cat, a, c, rng)
                s1 = rand_mat(cat, a, d, rng)
                s2 = rand_mat(cat, c, b, rng)
                alpha = compose_mat(s1, beta) + compose_mat(gamma, s2)
                found = decide_homotopy(alpha, beta, gamma)
                assert found is not None
                t1, t2 = found
                assert compose_mat(t1, beta) + compose_mat(gamma, t2) == alpha

    def test_unsolvable_ladder_system_is_refuted_on_a_probe(self, ladder_cat, monkeypatch):
        system = _ladder_systems(ladder_cat)[0]
        assert addclosure.probes(ladder_cat)
        decided = []
        probe = addclosure._probe_refutes
        monkeypatch.setattr(addclosure, "_probe_refutes",
                            lambda *a: decided.append(probe(*a)) or decided[-1])
        hnf_rows = intlinalg._kernel.hnf_rows

        def small_only(rows, ncols, *args):
            if len(rows) * ncols > addclosure.PROBE_CELLS:
                raise AssertionError("row reduction of a system above the size gate")
            return hnf_rows(rows, ncols, *args)
        monkeypatch.setattr(intlinalg._kernel, "hnf_rows", small_only)
        assert decide_homotopy(*system) is None
        assert decided == [True]

    def test_refuted_ladder_system_builds_no_layout(self, ladder_cat, monkeypatch):
        system = _ladder_systems(ladder_cat)[0]

        def no_layout(*args):
            raise AssertionError("a layout was built for a refuted system")
        monkeypatch.setattr(HomBasis, "__init__", no_layout)
        assert decide_homotopy(*system) is None

    def test_size_gate_counts_the_layout_cells(self, ladder_cat, monkeypatch):
        """The probes are consulted exactly for the systems whose layouts
        have more than ``PROBE_CELLS`` cells, on tuples with repeated
        summands on both sides of the gate."""
        consulted = []
        monkeypatch.setattr(addclosure, "_probe_refutes",
                            lambda *a: consulted.append(a) or False)
        rng = random.Random(41)
        sides = {True: 0, False: 0}
        for _ in range(30):
            # five or more summands from four vertices: every tuple repeats one
            a, b, c, d = (TupleObject(ladder_cat, tuple(rng.choice(("t0", "t1", "b2", "b4"))
                                                        for _ in range(rng.randint(5, 9))))
                          for _ in range(4))
            beta, gamma = rand_mat(ladder_cat, d, b, rng), rand_mat(ladder_cat, a, c, rng)
            alpha = (compose_mat(rand_mat(ladder_cat, a, d, rng), beta)
                     + compose_mat(gamma, rand_mat(ladder_cat, c, b, rng)))
            cells = (HomBasis(a, d).dim + HomBasis(c, b).dim) * HomBasis(a, b).dim
            consulted.clear()
            assert decide_homotopy(alpha, beta, gamma) is not None
            assert len(consulted) == (cells > addclosure.PROBE_CELLS)
            sides[cells > addclosure.PROBE_CELLS] += 1
        assert min(sides.values()) >= 5

    def test_solvable_ladder_system_keeps_the_dense_solution(self, ladder_cat):
        rng = random.Random(7)
        a, b, c, d = (tuple_obj(ladder_cat, *vs) for vs in (
            ("t0", "t1", "t1", "t0"), ("b3", "b4", "b5", "b5", "b4", "b5"),
            ("b2", "t4", "b4", "b3", "t5"), ("t2", "t3", "b2", "t2", "t1")))
        beta, gamma = rand_mat(ladder_cat, d, b, rng), rand_mat(ladder_cat, a, c, rng)
        alpha = (compose_mat(rand_mat(ladder_cat, a, d, rng), beta)
                 + compose_mat(gamma, rand_mat(ladder_cat, c, b, rng)))
        out, h1, h2 = HomBasis(a, b), HomBasis(a, d), HomBasis(c, b)
        rows = right_compose_rows(h1, beta, out) + left_compose_rows(gamma, h2, out)
        rows += out.rel_rows()
        assert len(rows) * out.dim > addclosure.PROBE_CELLS
        # the dense formula: X * system == alpha, split into the two unknowns
        x = solve_left(IntMatrix.from_sparse(rows, out.dim),
                       IntMatrix.row_vector(out.flatten(alpha))).entries[0]
        expected = (h1.unflatten(x[: h1.dim]), h2.unflatten(x[h1.dim : h1.dim + h2.dim]))
        assert decide_homotopy(alpha, beta, gamma) == expected

    def test_negation_solvability_matches(self, torsion_cat, five_cat):
        rng = random.Random(29)
        for cat in (torsion_cat, five_cat):
            for _ in range(15):
                a = rand_tuple(cat, rng)
                b = rand_tuple(cat, rng)
                c = rand_tuple(cat, rng)
                d = rand_tuple(cat, rng)
                alpha = rand_mat(cat, a, b, rng)
                beta = rand_mat(cat, d, b, rng)
                gamma = rand_mat(cat, a, c, rng)
                lhs = decide_homotopy(alpha, beta, gamma)
                rhs = decide_homotopy(-alpha, beta, gamma)
                assert (lhs is None) == (rhs is None)


def _broken_representation(cat):
    """Rank one and the identity on every arrow of the ladder but ``v1``,
    which is 2: two squares no longer commute."""
    ranks = {v: 1 for v in cat.quiver.vertices}
    return Representation(cat, ranks, {a.label: IntMatrix.from_rows([[2 if a.label == "v1" else 1]])
                                       for a in cat.quiver.arrows})


class TestProbes:
    """The probe representations behind ``decide_homotopy``'s refutation are
    built once per category instance, and a builder that raises or returns
    an invalid representation costs the probe, never a crash or an unsound
    refutation."""

    @staticmethod
    def _builder(monkeypatch, make=None):
        built = []
        real = addclosure.random_representation

        def builder(cat, seed, max_rank=3):
            built.append(cat)
            return real(cat, seed, max_rank) if make is None else make(cat)
        monkeypatch.setattr(addclosure, "random_representation", builder)
        return built

    def test_built_once_per_category_instance(self, monkeypatch):
        built = self._builder(monkeypatch)
        cat = ladder_category()
        first = addclosure.probes(cat)
        assert len(first) == 2 and all(check_representation(ev) for ev in first)
        assert addclosure.probes(cat) is first and built == [cat, cat]
        op = cat.opposite()
        assert {ev.rep.cat for ev in addclosure.probes(op)} == {op}
        assert addclosure.probes(op) is addclosure.probes(op) and built == [cat, cat, op, op]
        assert addclosure.probes(ladder_category()) is not first and len(built) == 6

    def test_invalid_probe_is_left_out(self, monkeypatch):
        cat = ladder_category()
        _, solvable = _ladder_systems(cat)
        bad = _broken_representation(cat)
        assert not check_representation(bad)
        # admitted, the broken representation would refute a solvable system
        monkeypatch.setattr(cat, "_probes", (MatrixEvaluation(bad),))
        assert addclosure._probe_refutes(*solvable)

        cat = ladder_category()
        built = self._builder(monkeypatch, _broken_representation)
        unsolvable, solvable = _ladder_systems(cat)
        assert decide_homotopy(*solvable) is not None
        assert decide_homotopy(*unsolvable) is None
        assert addclosure.probes(cat) == () and built == [cat, cat]

    def test_probed_category_is_freed(self):
        # the probes' representations refer to their category; kept on it,
        # they do not keep it alive
        cat = ladder_category()
        assert addclosure.probes(cat) and addclosure.probes(cat.opposite())
        freed = weakref.ref(cat)
        del cat
        gc.collect()
        assert freed() is None

    def test_raising_builder_means_no_probe(self, monkeypatch):
        def fail(cat):
            raise RuntimeError("representation repair did not converge")
        built = self._builder(monkeypatch, fail)
        cat = ladder_category()
        unsolvable, solvable = _ladder_systems(cat)
        assert decide_homotopy(*solvable) is not None
        assert decide_homotopy(*unsolvable) is None
        assert addclosure.probes(cat) == () and built == [cat, cat]


class TestHomBasis:
    def test_flatten_unflatten_round_trip(self, five_cat):
        rng = random.Random(31)
        for _ in range(20):
            x = rand_tuple(five_cat, rng)
            y = rand_tuple(five_cat, rng)
            hb = HomBasis(x, y)
            f = rand_mat(five_cat, x, y, rng)
            assert hb.unflatten(hb.flatten(f)) == f

    def test_dim_counts_paths(self, snake_cat):
        x = tuple_obj(snake_cat, "a", "b")
        y = tuple_obj(snake_cat, "b", "c")
        hb = HomBasis(x, y)
        expected = sum(
            len(snake_cat.paths(a, b)) for a in x.summands for b in y.summands)
        assert hb.dim == expected


class TestStoredHash:
    """A matrix morphism computes its hash once and keeps it; values that
    are equal hash equal whichever route built them."""

    def routes(self, cat, f):
        from adelcat.provers import from_json, to_json

        x, y = f.source, f.target
        grid = f.entries
        cols = [MatMorphism(x, TupleObject(cat, (b,)), [[row[j]] for row in grid])
                for j, b in enumerate(y.summands)]
        rows = [MatMorphism(TupleObject(cat, (a,)), y, [grid[i]])
                for i, a in enumerate(x.summands)]
        cells = [[MatMorphism(TupleObject(cat, (a,)), TupleObject(cat, (b,)), [[e]])
                  for b, e in zip(y.summands, row)] for a, row in zip(x.summands, grid)]
        hb = HomBasis(x, y)
        shifted = list(hb.flatten(f))
        for col, v in hb.rel_rows()[0].items():
            shifted[col] += 3 * v
        return {
            "grid": MatMorphism(x, y, grid),
            "one_block_row": from_blocks([x], [c.target for c in cols], [cols]),
            "one_block_column": from_blocks([r.source for r in rows], [y], [[r] for r in rows]),
            "from_blocks": from_blocks([r.source for r in rows], [c.target for c in cols], cells),
            "unflatten": hb.unflatten(shifted),
            "from_json": from_json(cat, MatMorphism, json.loads(json.dumps(to_json(f)))),
        }

    def test_equal_values_hash_equal_by_every_route(self, torsion_cat):
        # 2x = 0 is a torsion row of Hom(a, b), so it stays in the coordinates
        x = tuple_obj(torsion_cat, "a", "b")
        y = tuple_obj(torsion_cat, "b", "b")
        f = rand_mat(torsion_cat, x, y, random.Random(5))
        assert HomBasis(x, y).rel_rows(), "unflatten must reduce a relation"
        first, second = self.routes(torsion_cat, f), self.routes(torsion_cat, f)
        value_hash = hash((x, y, f.blocks))
        keys = {}
        for route, g in first.items():
            assert g == f and g is not f, route
            keys.setdefault(g, route)
        assert keys == {f: "grid"}
        for route, g in [*first.items(), *second.items()]:
            assert hash(g) == value_hash and keys[g] == "grid", route

    def test_equal_objects_share_one_evaluation(self, snake_cat):
        from adelcat.adelman import AdelObject
        from adelcat.evalfunctor import Evaluation, random_representation
        from adelcat.provers import from_json, to_json

        x = tuple_obj(snake_cat, "a", "b")
        y = tuple_obj(snake_cat, "c")
        z = tuple_obj(snake_cat, "d")
        rng = random.Random(8)
        obj = AdelObject(rand_mat(snake_cat, x, y, rng), rand_mat(snake_cat, y, z, rng))
        twin = from_json(snake_cat, AdelObject, json.loads(json.dumps(to_json(obj))))
        assert twin == obj and twin.rel is not obj.rel and twin.corel is not obj.corel
        ev = Evaluation(random_representation(snake_cat, 4))
        group = ev.object(obj)
        assert ev.object(twin) is group
        assert ev.object(AdelObject(twin.rel, obj.corel)) is group
