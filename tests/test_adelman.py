import random

import pytest

from adelcat.addclosure import (
    TupleObject,
    arrow_mat,
    compose_mat,
    identity_mat,
    tuple_obj,
    zero_mat,
)
from adelcat.adelman import (
    AdelObject,
    CompositeNotZeroError,
    NotMonoError,
    WitnessError,
    WitnessPair,
    cokernel,
    cokernel_colift,
    colift_along_epi,
    compose,
    connecting_homomorphism,
    construction_memo,
    direct_sum_object,
    dualize_morphism,
    dualize_object,
    emb_morphism,
    emb_object,
    emb_vertex,
    epi_as_cokernel,
    homology,
    homology_comparison,
    identity_morphism,
    image,
    is_epi,
    is_equal,
    is_exact,
    is_iso,
    is_mono,
    is_zero_morphism,
    is_zero_object,
    kernel,
    kernel_lift,
    lift_along_mono,
    make_morphism,
    subobject_leq,
    zero_adel_object,
    zero_morphism,
    zero_witness,
)
from adelcat import adelman
from adelcat.quivercat import EndpointError

from test_addclosure import rand_mat, rand_tuple


class TestEmbedding:
    def test_zero_object_embeds_to_zero(self, snake_cat):
        assert is_zero_object(zero_adel_object(snake_cat))

    def test_identity_functorial(self, snake_cat):
        x = tuple_obj(snake_cat, "b")
        assert emb_morphism(identity_mat(x)) == identity_morphism(emb_object(x))

    def test_composition_functorial(self, snake_cat):
        al = arrow_mat(snake_cat, "alpha")
        be = arrow_mat(snake_cat, "beta")
        assert compose(emb_morphism(al), emb_morphism(be)) == emb_morphism(compose_mat(al, be))

    def test_nonzero_vertex_not_zero(self, snake_cat):
        assert not is_zero_object(emb_vertex(snake_cat, "b"))


class TestMakeMorphism:
    def test_zero_datum_always_works(self, five_cat):
        rng = random.Random(2)
        for _ in range(10):
            x = AdelObject(rand_mat(five_cat, rand_tuple(five_cat, rng), (mid := rand_tuple(five_cat, rng)), rng),
                           rand_mat(five_cat, mid, rand_tuple(five_cat, rng), rng))
            y = AdelObject(rand_mat(five_cat, rand_tuple(five_cat, rng), (mid2 := rand_tuple(five_cat, rng)), rng),
                           rand_mat(five_cat, mid2, rand_tuple(five_cat, rng), rng))
            made = make_morphism(x, y, zero_mat(x.middle, y.middle))
            assert made is not None

    def test_dowker_connecting_datum(self, snake_fig):
        cat = snake_fig.cat
        src = snake_fig.ker_eps.obj
        tgt = snake_fig.cok_delta.obj
        made = make_morphism(src, tgt, arrow_mat(cat, "beta"))
        assert made is not None
        assert made.rel_witness == identity_mat(src.rel_source)
        assert made.corel_witness == identity_mat(tgt.corel_target)

    def test_cokernel_inclusion_datum(self, snake_fig):
        cat = snake_fig.cat
        made = make_morphism(
            emb_vertex(cat, "b"), snake_fig.coka.obj,
            identity_mat(tuple_obj(cat, "b")))
        assert made is not None

    def test_obstructed_datum(self, five_cat):
        # zeta*kappa*mu is the only path c -> j, killed in the category, so
        # the identity datum of emb(c) cannot map into (0 -> c -> j)-style
        # objects unless the corelation square closes.
        d = AdelObject(
            zero_mat(TupleObject(five_cat, ()), TupleObject(five_cat, ("c",))),
            compose_mat(*(arrow_mat(five_cat, x) for x in ("zeta", "kappa"))))
        src = emb_vertex(five_cat, "c")
        made = make_morphism(src, d, identity_mat(tuple_obj(five_cat, "c")))
        assert made is None  # id*zeta*kappa is not zero in Hom(c, h)


class TestEqualityDecisions:
    def test_reflexive_with_zero_pair(self, snake_fig):
        wp = is_equal(snake_fig.connecting, snake_fig.connecting)
        assert wp is not None
        assert wp.sigma1.is_zero() and wp.sigma2.is_zero()

    def test_connecting_vs_negative(self, snake_fig):
        assert is_equal(snake_fig.connecting, -snake_fig.connecting) is None

    def test_constructed_equal_pair(self, snake_fig):
        rng = random.Random(5)
        cat = snake_fig.cat
        f = snake_fig.connecting
        sigma1 = rand_mat(cat, f.source.middle, f.target.rel_source, rng)
        shifted_datum = f.datum + compose_mat(sigma1, f.target.rel)
        g = make_morphism(f.source, f.target, shifted_datum)
        assert g is not None
        wp = is_equal(f, g)
        assert wp is not None
        assert wp.verifies(f.source, f.target, f.datum - g.datum)

    def test_zero_morphism_detection(self, snake_fig):
        z = zero_morphism(snake_fig.ker_eps.obj, snake_fig.cok_delta.obj)
        wp = is_zero_morphism(z)
        assert wp is not None

    def test_identity_on_nonzero_not_zero(self, snake_cat):
        assert is_zero_morphism(identity_morphism(emb_vertex(snake_cat, "a"))) is None


class TestConstructionMemo:
    """Inside a scope ``kernel``, ``cokernel`` and ``zero_witness`` run once
    per argument; outside one every call runs."""

    def test_hit_is_what_an_unscoped_call_computes(self, snake_fig, underlying):
        f = snake_fig.ker_gamma.emb  # a mono: its kernel is a zero object
        k = kernel(f).obj
        g = snake_fig.gamma          # not a mono: no witness
        underlying.clear()
        with construction_memo():
            first = (kernel(f), cokernel(f), zero_witness(k, k, identity_mat(k.middle)),
                     zero_witness(*_kernel_identity(g)))
            # the homotopy decision is keyed by value: a new, equal datum hits
            again = (kernel(f), cokernel(f), zero_witness(k, k, identity_mat(k.middle)),
                     zero_witness(*_kernel_identity(g)))
        assert underlying == {"KernelResult": 2, "CokernelResult": 1, "decide_homotopy": 2}
        assert all(a is b for a, b in zip(first, again))
        assert first[2] is not None and first[3] is None
        unscoped = (kernel(f), cokernel(f), zero_witness(k, k, identity_mat(k.middle)),
                    zero_witness(*_kernel_identity(g)))
        assert unscoped == first
        assert underlying == {"KernelResult": 4, "CokernelResult": 2, "decide_homotopy": 4}

    def test_nothing_outlives_a_scope(self, snake_fig, underlying):
        with construction_memo():
            kernel(snake_fig.beta)
        assert adelman._MEMO.get() is None
        with pytest.raises(KeyError):
            with construction_memo():
                kernel(snake_fig.beta)
                raise KeyError("inside the scope")
        assert adelman._MEMO.get() is None
        kernel(snake_fig.beta)
        assert underlying["KernelResult"] == 3

    def test_nested_scope_starts_empty_and_restores_the_outer(self, snake_fig, underlying):
        f = snake_fig.beta
        with construction_memo():
            outer = kernel(f)
            with construction_memo():
                inner = kernel(f)
                assert inner is not outer and inner == outer
            assert kernel(f) is outer
        assert underlying["KernelResult"] == 2

    def test_exceptions_are_not_memoised(self, snake_fig, underlying):
        a, b = snake_fig.alpha, snake_fig.beta  # datum a -> b is not from b
        with construction_memo():
            for _ in range(2):
                with pytest.raises(EndpointError):
                    zero_witness(b.source, b.target, a.datum)
        assert underlying["decide_homotopy"] == 2


def _kernel_identity(f):
    k = kernel(f).obj
    return k, k, identity_mat(k.middle)


class TestKernelsCokernels:
    def test_cokernel_of_identity_is_zero(self, snake_cat):
        ck = cokernel(identity_morphism(emb_vertex(snake_cat, "b")))
        assert is_zero_object(ck.obj)

    def test_kernel_of_identity_is_zero(self, snake_cat):
        kr = kernel(identity_morphism(emb_vertex(snake_cat, "b")))
        assert is_zero_object(kr.obj)

    def test_cokernel_of_zero_is_target(self, snake_fig):
        cat = snake_fig.cat
        x = emb_vertex(cat, "a")
        y = snake_fig.ker_eps.obj
        ck = cokernel(zero_morphism(x, y))
        comparison = make_morphism(y, ck.obj, ck.proj.datum)
        assert comparison is not None
        assert is_iso(comparison)

    def test_kernel_of_zero_is_source(self, snake_fig):
        cat = snake_fig.cat
        x = snake_fig.ker_eps.obj
        y = emb_vertex(cat, "d")
        kr = kernel(zero_morphism(x, y))
        comparison = make_morphism(kr.obj, x, kr.emb.datum)
        assert comparison is not None
        assert is_iso(comparison)

    def test_canonical_witness_pairs_verify(self, snake_fig):
        # the closed-form pairs are not re-verified when they are built
        for f in (snake_fig.alpha, snake_fig.beta, snake_fig.delta, snake_fig.eps,
                  snake_fig.connecting):
            ck = cokernel(f)
            assert ck.composite_zero_wp.verifies(
                f.source, ck.obj, compose_mat(f.datum, ck.proj.datum))
            kr = kernel(f)
            assert kr.composite_zero_wp.verifies(
                kr.obj, f.target, compose_mat(kr.emb.datum, f.datum))

    @pytest.mark.parametrize("construction, part", [
        (kernel, "emb"), (cokernel, "proj")], ids=["kernel", "cokernel"])
    def test_parts_are_built_on_first_read(self, snake_fig, monkeypatch, construction, part):
        # the object takes two block matrices, the embedding or projection
        # three more and the witness pair two, each once
        built = []
        real = adelman.from_blocks
        monkeypatch.setattr(adelman, "from_blocks", lambda *a: built.append(a) or real(*a))
        result = construction(snake_fig.beta)
        assert len(built) == 2
        first = getattr(result, part)
        assert len(built) == 5 and getattr(result, part) is first
        wp = result.composite_zero_wp
        assert len(built) == 7 and result.composite_zero_wp is wp
        assert construction(snake_fig.beta) == result and len(built) == 9

    def test_projection_epi_embedding_mono(self, snake_fig):
        f = snake_fig.connecting
        assert is_epi(cokernel(f).proj)
        assert is_mono(kernel(f).emb)

    def test_colift_round_trip(self, snake_fig):
        f = snake_fig.alpha
        ck = cokernel(f)
        tau = ck.proj
        colift = cokernel_colift(f, tau, ck.composite_zero_wp)
        assert is_equal(compose(ck.proj, colift), tau) is not None
        assert is_equal(colift, identity_morphism(ck.obj)) is not None

    def test_lift_round_trip(self, snake_fig):
        f = snake_fig.beta
        kr = kernel(f)
        tau = kr.emb
        lift = kernel_lift(f, tau, kr.composite_zero_wp)
        assert is_equal(compose(lift, kr.emb), tau) is not None
        assert is_equal(lift, identity_morphism(kr.obj)) is not None

    @pytest.mark.parametrize("induced, universal", [
        (cokernel_colift, lambda f: (cokernel(f).proj, cokernel(f).composite_zero_wp)),
        (kernel_lift, lambda f: (kernel(f).emb, kernel(f).composite_zero_wp)),
    ], ids=["cokernel_colift", "kernel_lift"])
    def test_invalid_witness_rejected(self, snake_fig, induced, universal):
        # the side-condition check is the only guard on the induced morphism,
        # which is built without checking its witness squares
        f = snake_fig.alpha
        tau, wp = universal(f)
        assert induced(f, tau, wp)
        bad = WitnessPair(wp.sigma1.scale(2), wp.sigma2.scale(2))
        with pytest.raises(WitnessError, match="side condition"):
            induced(f, tau, bad)

    def test_colift_realizes_the_induced_arrow(self, snake_fig):
        # the arrow coker(alpha) -> emb(d) of the snake diagram is the colift
        # of beta*gamma through the cokernel projection
        cat = snake_fig.cat
        tau = make_morphism(
            snake_fig.emb["b"], snake_fig.emb["d"],
            compose_mat(arrow_mat(cat, "beta"), arrow_mat(cat, "gamma")))
        assert tau is not None
        wp = is_zero_morphism(compose(snake_fig.alpha, tau))
        assert wp is not None
        colift = cokernel_colift(snake_fig.alpha, tau, wp)
        assert is_equal(colift, snake_fig.eps) is not None


class TestDuality:
    def test_double_dual_objects(self, snake_fig):
        for obj in (snake_fig.ker_eps.obj, snake_fig.cok_delta.obj, snake_fig.coka.obj):
            assert dualize_object(dualize_object(obj)) == obj

    def test_double_dual_morphisms(self, snake_fig):
        f = snake_fig.connecting
        assert dualize_morphism(dualize_morphism(f)) == f

    def test_kernel_is_dual_cokernel(self, snake_fig, five_data):
        for f in (snake_fig.alpha, snake_fig.eps, snake_fig.connecting,
                  five_data.m3, five_data.m4):
            assert kernel(f).obj == dualize_object(cokernel(dualize_morphism(f)).obj)
            assert kernel(f).emb == dualize_morphism(cokernel(dualize_morphism(f)).proj)

    def test_emb_dualizes_to_emb(self, snake_cat):
        x = emb_vertex(snake_cat, "a")
        d = dualize_object(x)
        assert d.middle.summands == ("a",)
        assert d.rel_source.summands == ()
        assert d.corel_target.summands == ()


class TestPredicates:
    def test_identity_is_iso(self, snake_cat):
        assert is_iso(identity_morphism(emb_vertex(snake_cat, "c")))

    def test_delta_is_epi_in_five(self, five_data):
        assert is_epi(five_data.cok_lambda.proj)

    def test_zeta_not_mono_in_five(self, five_data):
        assert not is_mono(five_data.zeta)

    def test_eta_is_mono_in_five(self, five_data):
        assert is_mono(five_data.ker_mu.emb)


class TestSubobjects:
    def test_reflexive(self, snake_fig):
        kb = kernel(snake_fig.beta)
        assert subobject_leq(kb.emb, kb.emb)

    def test_zero_below_everything(self, snake_fig):
        cat = snake_fig.cat
        z = zero_adel_object(cat)
        zero_sub = zero_morphism(z, snake_fig.emb["b"])
        kb = kernel(snake_fig.beta)
        assert subobject_leq(zero_sub, kb.emb)

    def test_kernel_inclusion_chain(self, snake_fig):
        cat = snake_fig.cat
        kb = kernel(snake_fig.beta)
        bg = make_morphism(
            snake_fig.emb["b"], snake_fig.emb["d"],
            compose_mat(arrow_mat(cat, "beta"), arrow_mat(cat, "gamma")))
        kbg = kernel(bg)
        assert subobject_leq(kb.emb, kbg.emb)
        assert not subobject_leq(kbg.emb, kb.emb)

    def test_non_mono_rejected(self, snake_fig):
        with pytest.raises(NotMonoError):
            subobject_leq(snake_fig.beta, snake_fig.beta)


class TestLiftsAlongMonosEpis:
    def test_lift_along_identity(self, snake_fig):
        x = snake_fig.ker_eps.obj
        tau = snake_fig.connecting
        lift = lift_along_mono(identity_morphism(tau.target), tau)
        assert is_equal(lift, tau) is not None

    def test_colift_of_projection_is_identity(self, snake_fig):
        proj = snake_fig.coka.proj
        c = colift_along_epi(proj, proj)
        assert is_equal(c, identity_morphism(snake_fig.coka.obj)) is not None

    def test_lift_recovers_through_mono(self, snake_fig):
        kb = kernel(snake_fig.beta)
        # blue2 factors through ker(eps); lift emb against the composite
        tau = compose(snake_fig.blue1, kb.emb)
        lift = lift_along_mono(kb.emb, tau)
        assert is_equal(compose(lift, kb.emb), tau) is not None

    def test_epi_as_cokernel_triangle(self, snake_fig):
        for eps in (snake_fig.coka.proj, snake_fig.cok_delta.proj):
            data = epi_as_cokernel(eps)
            assert data.triangle_wp.verifies(
                eps.source, data.cok_of_kernel.obj,
                compose_mat(eps.datum, data.comparison.datum) - data.cok_of_kernel.proj.datum)
            assert is_equal(compose(eps, data.comparison), data.cok_of_kernel.proj) is not None


class TestHomology:
    def test_emb_pair_presentation(self, snake_fig):
        cat = snake_fig.cat
        h = homology(snake_fig.alpha, snake_fig.beta)
        w = AdelObject(arrow_mat(cat, "alpha"), arrow_mat(cat, "beta"))
        comp = homology_comparison(h, w, identity_mat(h.cok.obj.middle))
        assert comp is not None
        assert is_iso(comp)

    def test_homology_of_zero_pair_is_middle(self, snake_fig):
        y = snake_fig.ker_eps.obj
        cat = snake_fig.cat
        z = zero_adel_object(cat)
        h = homology(zero_morphism(z, y), zero_morphism(y, z))
        comp = homology_comparison(h, y, h.cok.proj.datum)
        assert comp is not None
        assert is_iso(comp)

    def test_exactness_requires_zero_composite(self, snake_fig):
        with pytest.raises(CompositeNotZeroError):
            is_exact(snake_fig.alpha, snake_fig.beta)

    def test_trivial_exactness_criterion(self, snake_cat):
        cat = snake_cat
        z = zero_adel_object(cat)
        x = emb_vertex(cat, "a")
        assert not is_exact(zero_morphism(z, x), zero_morphism(x, z))
        assert is_exact(zero_morphism(z, z), zero_morphism(z, z))


class TestConnecting:
    def test_snake_generators(self, snake_fig):
        conn = snake_fig.connecting
        assert conn.source == snake_fig.ker_eps.obj
        assert conn.target == snake_fig.cok_delta.obj

    def test_zero_triple(self, snake_cat):
        a = tuple_obj(snake_cat, "a")
        b = tuple_obj(snake_cat, "b")
        c = tuple_obj(snake_cat, "c")
        d = tuple_obj(snake_cat, "d")
        conn = connecting_homomorphism(zero_mat(a, b), zero_mat(b, c), zero_mat(c, d))
        assert is_zero_morphism(conn) is not None

    def test_nonzero_composite_rejected(self):
        from adelcat.quivercat import Arrow, Quiver, QuiverCategory
        free = QuiverCategory(Quiver(("a", "b", "c", "d"), (
            Arrow("x", "a", "b"), Arrow("y", "b", "c"), Arrow("z", "c", "d"))), ())
        with pytest.raises(CompositeNotZeroError):
            connecting_homomorphism(arrow_mat(free, "x"),
                                    arrow_mat(free, "y"),
                                    arrow_mat(free, "z"))


def test_direct_sum_object_middle(snake_fig):
    s = direct_sum_object(snake_fig.ker_eps.obj, snake_fig.cok_delta.obj)
    assert s.middle.summands == ("b", "c")


def test_image_factorization(snake_fig):
    f = snake_fig.eps
    img = image(f)
    ck = cokernel(f)
    assert img.of == ck.proj
    assert is_mono(img.emb)
    corestriction = kernel_lift(ck.proj, f, ck.composite_zero_wp)
    assert is_equal(compose(corestriction, img.emb), f) is not None


def test_image_and_homology_build_no_lift(snake_fig, monkeypatch):
    lifts = []
    lift = adelman.kernel_lift
    monkeypatch.setattr(adelman, "kernel_lift", lambda *args: lifts.append(args) or lift(*args))
    f, g = snake_fig.alpha, snake_fig.beta
    image(f)
    h = homology(f, g)
    assert lifts == []
    # the counter sees the lift that a comparison does make
    assert homology_comparison(h, h.obj, h.img.emb.datum) is not None
    assert len(lifts) == 1


def test_image_is_the_kernel_of_the_cokernel_projection(snake_fig):
    f, g = snake_fig.alpha, snake_fig.beta
    with construction_memo():
        assert image(f) is kernel(cokernel(f).proj)
        h = homology(f, g)
        assert h.img.of.source == cokernel(f).obj
        assert h.obj is h.img.obj


def test_objects_and_morphisms_keep_their_field_hash(snake_fig):
    # the hash dataclass would compute from the fields, computed once and
    # kept; a value rebuilt from equal parts is equal and hashes equal
    f = snake_fig.eps
    fields = {f.source: (f.source.rel, f.source.corel),
              f: (f.source, f.target, f.datum, f.rel_witness, f.corel_witness)}
    for value, parts in fields.items():
        assert hash(value) == hash(parts) and vars(value)["_hash"] == hash(parts)
        twin = type(value)(*parts)
        assert twin == value and "_hash" not in vars(twin) and hash(twin) == hash(value)
