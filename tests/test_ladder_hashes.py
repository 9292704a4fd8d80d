"""Pins the sha256 of ``hom-group --json`` on a commuting ladder.

The hashes were recorded before Hom-group generators and elements were
validated by one sparse product per group instead of one constructor check
per value; generators, their witnesses and the presentation must not change.
The objects have relations and corelations on both sides, and ``W`` gives a
torsion Hom group.

The ``(t0, W)`` hash was recorded again when Hom spaces moved to reduced
coordinates: Z/2 now lists its one generator once, where the path layout
listed ``v0*g0`` twice, as two rows differing by ``h0*v1 = v0*g0``.
"""

import hashlib

import pytest

from adelcat.cli import run_command

LADDER_SRC = """
category ladder4 {
  objects t0 t1 t2 t3 b0 b1 b2 b3;
  arrows h0: t0 -> t1; h1: t1 -> t2; h2: t2 -> t3; g0: b0 -> b1; g1: b1 -> b2; g2: b2 -> b3;
    v0: t0 -> b0; v1: t1 -> b1; v2: t2 -> b2; v3: t3 -> b3;
  relations h0*v1 = v0*g0; h1*v2 = v1*g1; h2*v3 = v2*g2;
}
object X = (h0 | h1*v2);
object Y = (2*v0*g0 | g1*g2);
object Z = (h0*h1 | v2);
object W = (2*v0*g0 | );
"""

EXPECTED = {
    ("X", "Y"): "125221015ed87bade75558b23da82bfa9ff09536a6f2ed8af30efccb3231e9a1",
    ("t0", "W"): "3e18ac1832eb1b2644ad210b00f115df39c5475ae6f5aac935a1c26994391e18",
    ("X", "Z"): "13c28861e94559cca4a7e16bf529a41eb25b3481724db64aa6113fd0e9e9b61b",
}


@pytest.mark.parametrize("pair", sorted(EXPECTED))
def test_hom_group_json_hash(pair, tmp_path, capsys):
    path = tmp_path / "ladder.cat"
    path.write_text(LADDER_SRC)
    code = run_command(["hom-group", *pair, "--category", str(path), "--json", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED[pair]


def test_torsion_hom_group_lists_one_generator(tmp_path, capsys):
    """Hom(t0, W) is Z/2 on the class of ``v0*g0``.  Laid out over paths, its
    datum lattice held both ``v0*g0`` and ``h0*v1``, which differ by the
    relation ``h0*v1 = v0*g0``, and each printed as ``v0*g0``; over
    coordinates ``h0*v1`` is a unit pivot, so one generator is listed."""
    path = tmp_path / "ladder.cat"
    path.write_text(LADDER_SRC)
    assert run_command(["hom-group", "t0", "W", "--category", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("Hom group: Z/2 ")
    assert [line for line in lines if "generator:" in line] == ["  generator: v0*g0"]
