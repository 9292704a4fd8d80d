import functools
import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from adelcat import intlinalg
from adelcat.addclosure import (TupleObject, compose_mat, dual_mat, identity_mat, single,
                                tuple_obj)
from adelcat.adelman import emb_object, kernel, make_morphism
from adelcat.intlinalg import FpAbGroup, IntMatrix, SmithInvariants, lattice_basis
from adelcat.provers import CATEGORY_TEXTS
from adelcat.quivercat import (
    MAX_PATH_BASIS,
    Arrow,
    CyclicQuiverError,
    EndpointError,
    Path,
    PathBasisTooLargeError,
    Quiver,
    QuiverCategory,
    QuiverError,
    Relation,
    RelationError,
    UnknownVertexError,
    enumerate_paths,
    format_lin,
    make_relation,
)

from conftest import (
    category_from_text,
    dual_lin,
    kronecker_category,
    ladder_category,
    torsion_category,
)


def _chain(n: int) -> Quiver:
    return Quiver(tuple(f"v{i}" for i in range(n)),
                  tuple(Arrow(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)))


def _doubled_chain(n: int) -> Quiver:
    """Two parallel arrows per step: 2^(n-1) paths from v0 to v(n-1)."""
    return Quiver(tuple(f"v{i}" for i in range(n)), tuple(
        Arrow(f"{x}{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1) for x in "xy"))


class TestQuiverValidation:
    def test_duplicate_vertices(self):
        with pytest.raises(QuiverError):
            Quiver(("a", "a"), ())

    def test_duplicate_arrow_labels(self):
        with pytest.raises(QuiverError):
            Quiver(("a", "b"), (Arrow("x", "a", "b"), Arrow("x", "a", "b")))

    def test_cycle_rejected(self):
        with pytest.raises(CyclicQuiverError):
            Quiver(("a", "b"), (Arrow("x", "a", "b"), Arrow("y", "b", "a")))

    def test_self_loop_rejected(self):
        with pytest.raises(CyclicQuiverError):
            Quiver(("a",), (Arrow("x", "a", "a"),))

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownVertexError):
            Quiver(("a",), (Arrow("x", "a", "zz"),))

    def test_arrow_index(self):
        q = ladder_category().quiver
        for i, arrow in enumerate(q.arrows):
            assert q.arrow_index(arrow.label) == i
        assert q.opposite().arrow_index("v3") == q.arrow_index("v3")
        with pytest.raises(QuiverError, match="unknown arrow 'zz'"):
            q.arrow_index("zz")


class TestPathEnumeration:
    def test_disconnected_pair_is_empty(self, snake_cat):
        assert enumerate_paths(snake_cat.quiver, "b", "a") == ()

    def test_identity_path_at_each_vertex(self, snake_cat):
        paths = enumerate_paths(snake_cat.quiver, "a", "a")
        assert len(paths) == 1
        assert paths[0].arrows == ()

    def test_snake_a_to_c(self, snake_cat):
        paths = enumerate_paths(snake_cat.quiver, "a", "c")
        assert [p.arrows for p in paths] == [(0, 1)]

    def test_exhaustive_against_brute_force(self):
        # diamond with a doubled edge: enumerate all arrow words and filter
        q = Quiver(("a", "b", "c", "d"), (
            Arrow("p", "a", "b"),
            Arrow("q", "a", "c"),
            Arrow("r", "b", "d"),
            Arrow("s", "c", "d"),
            Arrow("t", "b", "d"),
        ))
        found = {p.arrows for p in enumerate_paths(q, "a", "d")}
        brute = set()
        for length in range(0, 4):
            for word in itertools.product(range(5), repeat=length):
                at = "a"
                ok = True
                for idx in word:
                    if q.arrows[idx].source != at:
                        ok = False
                        break
                    at = q.arrows[idx].target
                if ok and at == "d":
                    brute.add(word)
        assert found == brute

    def test_length_lex_order(self):
        q = Quiver(("a", "b", "c", "d"), (
            Arrow("p", "a", "b"),
            Arrow("q", "a", "c"),
            Arrow("r", "b", "d"),
            Arrow("s", "c", "d"),
            Arrow("t", "a", "d"),
        ))
        paths = [p.arrows for p in enumerate_paths(q, "a", "d")]
        assert paths == [(4,), (0, 2), (1, 3)]

    def test_unknown_vertex(self, snake_cat):
        with pytest.raises(UnknownVertexError):
            enumerate_paths(snake_cat.quiver, "a", "nope")

    def test_long_chain_needs_no_recursion(self):
        q = _chain(3000)
        (path,) = enumerate_paths(q, "v0", "v2999")
        assert path.arrows == tuple(range(2999))
        assert enumerate_paths(q, "v2999", "v0") == ()

    def test_basis_size_is_capped(self):
        q = _doubled_chain(40)
        assert len(enumerate_paths(q, "v0", "v13")) == 2 ** 13 <= MAX_PATH_BASIS
        with pytest.raises(PathBasisTooLargeError):
            enumerate_paths(q, "v0", "v39")
        assert issubclass(PathBasisTooLargeError, QuiverError)


def _reference_paths(quiver, a, b):
    """Brute-force DFS over arrow words, sorted length-lexicographically."""
    found = []

    def walk(at, word):
        if at == b:
            found.append(word)
        for i, arrow in enumerate(quiver.arrows):
            if arrow.source == at:
                walk(arrow.target, word + (i,))

    walk(a, ())
    return sorted(found, key=lambda w: (len(w), w))


def _reference_closure(cat, a, b):
    q = cat.quiver
    basis = _reference_paths(q, a, b)
    rows = []
    for rel in cat.relations:
        for p in _reference_paths(q, a, rel.source):
            for r in _reference_paths(q, rel.target, b):
                row = [0] * len(basis)
                for coef, mid in rel.terms:
                    row[basis.index(p + mid.arrows + r)] += coef
                rows.append(row)
    return basis, IntMatrix.from_rows(rows, cols=len(basis))


class TestLazyHomData:
    @pytest.mark.parametrize("build", [
        # new categories, not the shared built-ins other tests have filled
        *(functools.partial(category_from_text, CATEGORY_TEXTS[name])
          for name in ("snake", "five", "d4")),
        ladder_category, torsion_category, kronecker_category,
    ], ids=["snake", "five", "d4", "ladder", "torsion", "kronecker"])
    @pytest.mark.parametrize("side", ["category", "opposite"])
    def test_every_pair_matches_reference(self, build, side):
        cat = build()
        if side == "opposite":
            cat = cat.opposite()
        pairs = [(a, b) for a in cat.quiver.vertices for b in cat.quiver.vertices]
        random.Random(len(pairs)).shuffle(pairs)  # fill in no particular order
        for a, b in pairs:
            basis, rows = _reference_closure(cat, a, b)
            assert [p.arrows for p in cat.paths(a, b)] == basis
            assert all((p.source, p.target) == (a, b) for p in cat.paths(a, b))
            assert lattice_basis(cat.hom_group_lin(a, b).relations) == lattice_basis(rows)
            assert cat.hom_group_lin(a, b) == FpAbGroup(len(basis), lattice_basis(rows))

    def test_concurrent_fills_agree(self):
        reference = ladder_category()
        pairs = [(a, b) for a in reference.quiver.vertices for b in reference.quiver.vertices]
        expected = {p: (reference.paths(*p), reference.hom_group_lin(*p)) for p in pairs}
        shared = ladder_category()

        def fill(seed):
            order = pairs[:]
            random.Random(seed).shuffle(order)
            return {p: (shared.paths(*p), shared.hom_group_lin(*p)) for p in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(fill, seed) for seed in range(6)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(r == expected for r in results)

    def test_fill_reduces_the_closure_once(self, monkeypatch):
        """Filling a pair with relations and no torsion row makes one row
        reduction: ``FpAbGroup`` keeps the HNF basis it computes."""
        cat = ladder_category()
        cat.paths("t0", "b5")
        calls = []
        hnf_rows = intlinalg._kernel.hnf_rows
        monkeypatch.setattr(intlinalg._kernel, "hnf_rows",
                            lambda *args: calls.append(args) or hnf_rows(*args))
        cat.hom_group_lin("t0", "b5")
        assert len(calls) == 1
        assert cat.dim("t0", "b5") == 1 and cat.torsion_rows("t0", "b5") == ()

    def test_kernel_on_long_chain_fills_few_pairs(self):
        cat = QuiverCategory(_chain(1000))
        emb = [emb_object(TupleObject(cat, (v,))) for v in ("v0", "v1")]
        f = make_morphism(emb[0], emb[1], single(cat.arrow_lin("a0")))
        assert kernel(f).obj is not None
        assert len(cat._paths) <= 4
        assert len(cat._hom) <= 4

    def test_construction_builds_nothing(self):
        cat = QuiverCategory(_doubled_chain(40))
        assert not cat._paths and not cat._hom
        assert len(cat.paths("v0", "v3")) == 8
        with pytest.raises(PathBasisTooLargeError):
            cat.hom_group_lin("v0", "v39")


class TestRelationClosure:
    def test_no_relations_means_free(self, kronecker_cat):
        assert kronecker_cat.hom_group_lin("a", "b").relations.rows == 0
        inv = kronecker_cat.hom_group_lin("a", "b").invariants()
        assert inv == SmithInvariants((), 2)

    def test_snake_full_composite_killed(self, snake_cat):
        rows = snake_cat.hom_group_lin("a", "d").relations
        assert rows.to_rows() == [[1]]
        assert snake_cat.hom_group_lin("a", "d").is_trivial()

    def test_torsion_hom_set(self, torsion_cat):
        inv = torsion_cat.hom_group_lin("a", "b").invariants().reduced()
        assert inv == SmithInvariants((2,), 0)

    def test_non_parallel_relation_rejected(self):
        q = Quiver(("a", "b", "c"), (Arrow("x", "a", "b"), Arrow("y", "b", "c")))
        terms = [(1, Path("a", "b", (0,))), (-1, Path("b", "c", (1,)))]
        with pytest.raises(RelationError):
            QuiverCategory(q, (make_relation(terms),))

    def test_two_sided_closure_reaches_all_hom_pairs(self, five_cat):
        # beta*zeta = epsilon*iota propagated to Hom(a, g) through alpha
        rows = five_cat.hom_group_lin("a", "g").relations
        assert rows.rows > 0
        assert five_cat.hom_group_lin("a", "g").is_trivial()


class TestComposition:
    """Composition of 1x1 matrix morphisms, against ``cat.lin`` of raw path
    vectors."""

    def test_identity_units(self, snake_cat):
        be = single(snake_cat.arrow_lin("beta"))
        assert compose_mat(identity_mat(be.source), be) == be
        assert compose_mat(be, identity_mat(be.target)) == be

    def test_basis_concatenation(self, snake_cat):
        al, be = (single(snake_cat.arrow_lin(x)) for x in ("alpha", "beta"))
        ab = compose_mat(al, be)[0, 0]
        assert format_lin(ab) == "alpha*beta"
        assert ab == snake_cat.lin("a", "c", (1,))

    def test_relation_kills_composite(self, snake_cat):
        al, be, ga = (single(snake_cat.arrow_lin(x)) for x in ("alpha", "beta", "gamma"))
        assert compose_mat(compose_mat(al, be), ga).is_zero()

    def test_endpoint_mismatch(self, snake_cat):
        al = single(snake_cat.arrow_lin("alpha"))
        with pytest.raises(EndpointError):
            compose_mat(al, al)

    def test_associativity_and_bilinearity(self, five_cat, kronecker_cat, torsion_cat):
        rng = random.Random(17)
        for cat in (five_cat, kronecker_cat, torsion_cat):
            verts = cat.quiver.vertices
            for _ in range(60):
                a, b, c, d = (rng.choice(verts) for _ in range(4))
                if not (cat.paths(a, b) and cat.paths(b, c) and cat.paths(c, d)):
                    continue
                f = _random_lin(cat, a, b, rng)
                f2 = _random_lin(cat, a, b, rng)
                g = _random_lin(cat, b, c, rng)
                h = _random_lin(cat, c, d, rng)
                fm, f2m, gm, hm = map(single, (f, f2, g, h))
                assert compose_mat(fm, gm)[0, 0] == _path_product(cat, f, g)
                assert (compose_mat(compose_mat(fm, gm), hm)
                        == compose_mat(fm, compose_mat(gm, hm)))
                assert compose_mat(fm + f2m, gm) == compose_mat(fm, gm) + compose_mat(f2m, gm)


def _random_lin(cat, a, b, rng):
    n = len(cat.paths(a, b))
    return cat.lin(a, b, [rng.randint(-2, 2) for _ in range(n)])


def _path_product(cat, f, g):
    """``cat.lin`` of the raw path vector of ``f then g``: every pair of
    paths concatenated, and nothing reduced before ``lin``."""
    a, b, c = f.source, f.target, g.target
    acc = [0] * len(cat.paths(a, c))
    for p, x in zip(cat.paths(a, b), f.coeffs):
        for q, y in zip(cat.paths(b, c), g.coeffs):
            acc[cat.path_index(a, c, p.arrows + q.arrows)] += x * y
    return cat.lin(a, c, acc)


class TestEquality:
    """Canonical forms make equality modulo the relation subgroup a
    comparison of values."""

    def test_reflexive(self, snake_cat):
        al = snake_cat.arrow_lin("alpha")
        assert al == snake_cat.arrow_lin("alpha")

    def test_torsion_identification(self, torsion_cat):
        x = single(torsion_cat.arrow_lin("x"))
        assert x == x.scale(3)
        assert x != x.scale(2)
        assert x.scale(2).is_zero()
        assert x.scale(3)[0, 0] == torsion_cat.lin("a", "b", (3,))

    def test_free_hom_set_is_faithful(self, snake_cat):
        al = snake_cat.arrow_lin("alpha")
        assert al != snake_cat.lin("a", "b", (0,))

    def test_endpoint_mismatch(self, snake_cat):
        al, be = (single(snake_cat.arrow_lin(x)) for x in ("alpha", "beta"))
        assert al != be
        with pytest.raises(EndpointError):
            al - be


class TestAcyclicityConsequences:
    def test_endomorphisms_are_scalar(self, snake_cat, five_cat):
        for cat in (snake_cat, five_cat):
            for v in cat.quiver.vertices:
                assert len(cat.paths(v, v)) == 1
                assert cat.hom_group_lin(v, v).invariants() == SmithInvariants((), 1)

    def test_no_two_way_morphisms(self, snake_cat, five_cat):
        for cat in (snake_cat, five_cat):
            for a in cat.quiver.vertices:
                for b in cat.quiver.vertices:
                    if a != b:
                        assert not (cat.paths(a, b) and cat.paths(b, a))


class TestDuality:
    def test_opposite_is_involutive(self, snake_cat):
        assert snake_cat.opposite().opposite() is snake_cat

    def test_dual_lin_round_trip(self, five_cat):
        rng = random.Random(3)
        verts = five_cat.quiver.vertices
        for _ in range(40):
            a, b = rng.choice(verts), rng.choice(verts)
            if not five_cat.paths(a, b):
                continue
            f = _random_lin(five_cat, a, b, rng)
            assert dual_lin(dual_lin(f)) == f

    def test_dual_antimultiplicative(self, snake_cat):
        al, be = (single(snake_cat.arrow_lin(x)) for x in ("alpha", "beta"))
        left = dual_mat(compose_mat(al, be))
        assert left == compose_mat(dual_mat(be), dual_mat(al))
        assert left[0, 0] == dual_lin(snake_cat.lin("a", "c", (1,)))

    def test_opposite_relations_respected(self, snake_cat):
        op = snake_cat.opposite()
        assert op.hom_group_lin("d", "a").is_trivial()


def test_format_lin_round_names(snake_cat):
    al = snake_cat.arrow_lin("alpha")
    idb = snake_cat.identity_lin("b")
    assert format_lin(al) == "alpha"
    assert format_lin(idb) == "id(b)"
    assert format_lin(identity_mat(tuple_obj(snake_cat, "b")).scale(-2)[0, 0]) == "-2*id(b)"
    assert format_lin(snake_cat.lin("a", "b", (0,))) == "0"


class TestRelationChecks:
    """Each relation path is walked once, by the category that receives the
    relation; ``catfile.build_category`` only resolves the arrow labels."""

    CATEGORY = ("category s {{ objects a b c d; arrows alpha: a -> b; beta: b -> c; "
                "gamma: c -> d; relations {}; }}")

    def test_session_walks_each_relation_path_once(self, monkeypatch):
        from adelcat import quivercat
        from adelcat.catfile import build_category, parse_session
        walked = []
        real = quivercat._validate_path
        monkeypatch.setattr(quivercat, "_validate_path",
                            lambda quiver, path, *err: walked.append(path) or real(quiver, path, *err))
        cat = build_category(parse_session(self.CATEGORY.format(
            "alpha*beta = 0; beta*gamma = 2*beta*gamma; alpha*beta*gamma = 0")).category)
        assert [p.arrows for p in walked] == [(0, 1), (1, 2), (1, 2), (0, 1, 2)]
        assert len(cat.relations) == 3

    @pytest.mark.parametrize("relation, message", [
        ("alpha*gamma = 0", "arrow 'gamma' does not compose at 'b'"),
        ("id(c)*alpha = 0", "arrow 'alpha' does not compose at 'c'"),
        ("alpha*id(c) = 0", "identity at 'c' does not compose at 'b'"),
        ("alpha*gamma*id(c) = 0", "arrow 'gamma' does not compose at 'b'"),
        ("alpha*id(b)*gamma = 0", "arrow 'gamma' does not compose at 'b'"),
        ("alpha*beta*id(b) = 0", "identity at 'b' does not compose at 'c'"),
        ("alpha = beta", "relation mixes paths 'a'->'b' and 'b'->'c'"),
        ("alpha*gamma = beta", "arrow 'gamma' does not compose at 'b'"),
        ("0 = 0", "empty relation"),
    ])
    def test_session_messages(self, relation, message):
        from adelcat.catfile import build_category, parse_session
        with pytest.raises(RelationError, match=f"^{message}$"):
            build_category(parse_session(self.CATEGORY.format(relation)).category)

    def test_category_checks_relations_built_directly(self):
        q = Quiver(("a", "b", "c"), (Arrow("x", "a", "b"), Arrow("y", "b", "c")))
        with pytest.raises(RelationError, match="arrow 'x' does not compose at 'b'"):
            QuiverCategory(q, (Relation("b", "c", ((1, Path("b", "c", (0,))),)),))
        with pytest.raises(RelationError, match="relation mixes paths"):
            QuiverCategory(q, (Relation("a", "b", ((1, Path("a", "b", (0,))),
                                                   (1, Path("b", "c", (1,))))),))
        with pytest.raises(RelationError,
                           match=r"^relation declared 'a'->'b' has paths 'a'->'c'$"):
            QuiverCategory(q, (Relation("a", "b", ((1, Path("a", "c", (0, 1))),)),))
        with pytest.raises(RelationError, match=r"^relation between unknown vertices 'z'->'z'$"):
            QuiverCategory(q, (Relation("z", "z", ((1, Path("z", "z", ())),)),))
        with pytest.raises(RelationError, match=r"^empty relation$"):
            QuiverCategory(q, (Relation("a", "b", ()),))
