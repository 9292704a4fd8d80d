"""Pins the sha256 of ``hom-group --json`` on a commuting ladder.

The hashes were recorded before Hom-group generators and elements were
validated by one sparse product per group instead of one constructor check
per value; generators, their witnesses and the presentation must not change.
The objects have relations and corelations on both sides, and ``W`` gives a
torsion Hom group.
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
    ("t0", "W"): "3ae8cb4a752ef1fc0b7d12fbe53faf3a560d7515bed9791d91d094085f003105",
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
