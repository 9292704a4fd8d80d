"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; failures surface as normal
assertion errors.  All equality claims are exact (integer or group-invariant
equality); the only tolerances are the stated wall-clock budgets.
"""

import random
import time

from adelcat.addclosure import compose_mat
from adelcat.adelman import (
    AdelObject,
    cokernel,
    cokernel_colift,
    compose,
    dualize_morphism,
    dualize_object,
    epi_as_cokernel,
    is_equal,
    is_zero_morphism,
    kernel,
    kernel_lift,
    zero_morphism,
)
from adelcat.evalfunctor import check_representation, oracle_suite, random_representation
from adelcat.homgroups import hom_group
from adelcat.intlinalg import IntMatrix, det, hnf, snf, solve_left
from adelcat.provers import (
    build_five_data,
    build_snake_figure,
    explore_d4,
    five_oracle_items,
    explicit_sweep_witness,
    prove_connecting_uniqueness,
    prove_refined_five,
    prove_snake,
    snake_oracle_items,
    sweep,
)

from test_addclosure import rand_mat, rand_tuple


def _report(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_1_snake_universal_instance():
    start = time.perf_counter()
    report = prove_snake()
    elapsed = time.perf_counter() - start
    failures = [c.description for c in report.checks if not c.verdict]
    assert report.overall, failures
    squares = [c for c in report.checks if "commutes" in c.description]
    rows_cols = [c for c in report.checks if "column exact" in c.description
                 or "row exact" in c.description]
    blue = [c for c in report.checks if "blue sequence exact" in c.description]
    assert len(squares) == 6
    assert len(rows_cols) == 16
    assert len(blue) == 4
    assert elapsed < 10.0, f"snake prover took {elapsed:.2f}s"
    _report(1, f"universal snake verified ({len(report.checks)} checks, {elapsed:.2f}s)")


def test_criterion_2_exactness_sweep_boundary():
    results = sweep(range(-3, 4))[1]
    assert results == {s: (s in (-1, 1)) for s in range(-3, 4)}
    fig = build_snake_figure()
    for s in (-1, 1):
        via, wp = explicit_sweep_witness(fig, s, fig.connecting.scale(s))
        assert wp.verifies(via.source, via.target, via.datum)
    _report(2, "exact iff s in {-1, +1} over -3..3; closed-form witness pair re-verified")


def test_criterion_3_connecting_uniqueness():
    report = prove_connecting_uniqueness()
    assert report.overall, [c.description for c in report.checks if not c.verdict]
    fig = build_snake_figure()
    hg = hom_group(kernel(fig.eps).obj, cokernel(fig.delta).obj)
    inv = hg.group.invariants().reduced()
    assert inv.free_rank == 1 and inv.factors == ()
    gen = hg.generators[0]
    assert (is_equal(gen, fig.connecting) is not None
            or is_equal(gen, -fig.connecting) is not None)
    assert fig.cat.hom_group_lin("b", "a").is_trivial()
    assert fig.cat.hom_group_lin("d", "c").is_trivial()
    _report(3, "Hom(K, C) = Z generated by the connecting datum up to sign")


def test_criterion_4_refined_five_lemma():
    start = time.perf_counter()
    report = prove_refined_five()
    elapsed = time.perf_counter() - start
    assert report.overall, [c.description for c in report.checks if not c.verdict]
    by_desc = {c.description: c for c in report.checks}
    assert by_desc["step 4: the explicit chain map is a monomorphism"].verdict
    assert by_desc["step 4: the explicit witness matrices certify the kernel is zero"].verdict
    assert elapsed < 60.0, f"refined five prover took {elapsed:.2f}s"
    _report(4, f"steps (1)-(4) verified incl. explicit witness matrices ({elapsed:.2f}s)")


def test_criterion_5_oracle_equivalence():
    fig = build_snake_figure()
    data = build_five_data()
    snake_items = snake_oracle_items(fig)
    five_items = five_oracle_items(data)
    reps = 0
    mismatches = []
    for seed in range(12):
        rep = random_representation(fig.cat, seed, max_rank=3)
        assert check_representation(rep)
        reps += 1
        for chk in oracle_suite(rep, snake_items):
            if not chk.ok:
                mismatches.append((fig.cat.name, seed, chk.description, chk.detail))
    for seed in range(10):
        rep = random_representation(data.cat, seed, max_rank=3)
        assert check_representation(rep)
        reps += 1
        for chk in oracle_suite(rep, five_items):
            if not chk.ok:
                mismatches.append((data.cat.name, seed, chk.description, chk.detail))
    assert reps >= 20
    assert not mismatches, mismatches
    _report(5, f"{reps} seeded representations, "
               f"{reps * len(snake_items + five_items) // 2}+ transport checks, zero mismatches")


def _random_object(cat, rng):
    mid = rand_tuple(cat, rng)
    rel = rand_mat(cat, rand_tuple(cat, rng), mid, rng)
    corel = rand_mat(cat, mid, rand_tuple(cat, rng), rng)
    return AdelObject(rel, corel)


def _random_morphism(cat, rng):
    x = _random_object(cat, rng)
    y = _random_object(cat, rng)
    hg = hom_group(x, y)
    if hg.group.ngens == 0:
        return zero_morphism(x, y)
    coords = [rng.randint(-2, 2) for _ in range(hg.group.ngens)]
    return hg.element(coords)


def test_criterion_6_computability_suite():
    from adelcat.provers import category_by_name
    from conftest import kronecker_category, torsion_category
    cats = [category_by_name("snake"), category_by_name("five"), torsion_category(),
            kronecker_category()]
    rng = random.Random(20260809)
    instances = 0
    for i in range(200):
        cat = cats[i % len(cats)]
        f = _random_morphism(cat, rng)
        # (a) every positive equality/zero decision re-verifies its certificate
        wz = is_zero_morphism(f)
        if wz is not None:
            assert wz.verifies(f.source, f.target, f.datum)
        we = is_equal(f, f)
        assert we is not None
        assert we.verifies(f.source, f.target, f.datum - f.datum)
        # (b) universal-property round trips
        ck = cokernel(f)
        colift = cokernel_colift(f, ck.proj, ck.composite_zero_wp)
        assert is_equal(compose(ck.proj, colift), ck.proj) is not None
        kr = kernel(f)
        lift = kernel_lift(f, kr.emb, kr.composite_zero_wp)
        assert is_equal(compose(lift, kr.emb), kr.emb) is not None
        # (c) duality identity, structurally
        assert kr.obj == dualize_object(cokernel(dualize_morphism(f)).obj)
        assert ck.obj == dualize_object(kernel(dualize_morphism(f)).obj)
        # (d) the epi-as-cokernel triangle for the constructed projection
        tri = epi_as_cokernel(ck.proj)
        diff = compose_mat(ck.proj.datum, tri.comparison.datum) - tri.cok_of_kernel.proj.datum
        assert tri.triangle_wp.verifies(ck.proj.source, tri.cok_of_kernel.obj, diff)
        instances += 1
    assert instances >= 200
    _report(6, f"{instances} random instances: certificates, round trips, "
               "duality, epi-as-cokernel all verified")


def test_criterion_7_integer_linear_algebra_suite():
    rng = random.Random(1729)
    checked = 0
    for _ in range(1000):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                                cols=cols)
        h, u = hnf(m)
        assert u * m == h
        assert abs(det(u)) == 1
        shuffled_rows = m.to_rows()
        rng.shuffle(shuffled_rows)
        shuffled = IntMatrix.from_rows(shuffled_rows, cols=cols)
        assert hnf(shuffled)[0] == h
        inv = snf(m)
        for a, b in zip(inv.factors, inv.factors[1:]):
            assert b % a == 0
        x = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(rows)] for _ in range(2)],
                                cols=rows)
        b = x * m
        found = solve_left(m, b)
        assert found is not None and found * m == b
        checked += 1
    assert checked == 1000
    _report(7, "1000 seeded matrices: transform, unimodularity, uniqueness, "
               "divisibility, solve round trips")


def test_criterion_8_d4_exploration_stretch():
    report = explore_d4()
    assert report.overall, [c.description for c in report.checks if not c.verdict]
    _report(8, "D4 sink image subobjects and joins computed without error (stretch)")
