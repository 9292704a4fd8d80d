"""The benchmark's inputs are a function of the seed alone."""

import json

import pytest

from adelbench import gen, workloads
from adelcat.provers import _ser_obj


def fingerprint(wl) -> str:
    return json.dumps([op.inputs for op in wl.ops], sort_keys=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    setup = workloads.WORKLOADS[name]
    first = fingerprint(setup(7, str(tmp_path / "a")))
    again = fingerprint(setup(7, str(tmp_path / "a")))
    other = fingerprint(setup(8, str(tmp_path / "a")))
    assert first == again
    assert first != other


def test_generators_are_seeded():
    cat = gen.ladder_spec(6).category()

    def draw(seed):
        rng = gen.rng_for(seed, "test")
        shape = gen.rand_shape(rng, cat)
        return (_ser_obj(gen.rand_object(rng, cat, shape)), gen.rand_coeffs(rng, 20))

    assert draw(1) == draw(1)
    assert draw(1) != draw(2)


def test_tuple_lengths_and_coefficients_in_range():
    cat = gen.ladder_spec(6).category()
    rng = gen.rng_for(3, "test")
    for _ in range(20):
        shape = gen.rand_shape(rng, cat)
        assert all(4 <= len(t) <= 6 for t in shape)
        obj = gen.rand_object(rng, cat, shape)
        for row in obj.rel.entries:
            for lin in row:
                group = cat.hom_group_lin(lin.source, lin.target)
                assert lin.coeffs == group.canonical_rep(lin.coeffs)


def test_cat_text_round_trips_through_the_cli_parser():
    from adelcat.cli import Session, parse_session
    for spec in (gen.chain_spec(5), gen.ladder_spec(4)):
        session = Session(parse_session(spec.cat_text()))
        built = spec.category()
        assert session.cat.quiver == built.quiver
        for a in built.vertices():
            for b in built.vertices():
                assert (session.cat.hom_group_lin(a, b).invariants()
                        == built.hom_group_lin(a, b).invariants())
