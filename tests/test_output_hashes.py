"""Pins the sha256 of canonical ``--json`` CLI outputs.

The CLI prints ``--json`` reports with sorted keys and fixed indentation, so
equal reports are equal bytes.  The hashes were recorded before the
morphism-arithmetic and Hom-group fast paths were introduced; any change to
a verdict, a certificate or a generator shows up here.

The ``prove snake``, ``prove five``, ``prove uniqueness`` and ``sweep``
hashes were recorded again when commuting squares, zero composites and the
closed-form witness pairs became ``equal``, ``zero`` and ``mono`` claim
certificates, which carry the morphisms of the claim instead of a bare
datum, and the snake's exactness checks next to a zero object became the
``epi`` or ``mono`` claim of their arrow.  Every check kept its description
and verdict, and every witness pair reappears byte-identical.

The ``prove five`` hash was recorded again when Hom spaces moved to reduced
coordinates: the smaller homotopy systems pick other particular solutions,
so the ``cokernel_zero_wp`` pairs of steps 1 and 3 changed.
``test_semantic_pin`` holds every verdict.
"""

import hashlib

import pytest

from adelcat.cli import run_command

SNAKE_SRC = """
category snake {
  objects a b c d;
  arrows alpha: a -> b; beta: b -> c; gamma: c -> d;
  relations alpha*beta*gamma = 0;
}
object K = (alpha | beta*gamma);
object C = (alpha*beta | gamma);
let ab = alpha*beta;
"""

EXPECTED = {
    "prove snake":
        "d5a7dfa1c3349259484bbc1c9fe5964fe4bf5b9b01b3acf389313649689c5c76",
    "prove five":
        "2db70fdfa40ca67619a00bdb8fe653b123895008023e6bcfde079f77949cb8fd",
    "prove uniqueness":
        "c48714aad2ecd3702e84f60120e9d867f091c3d1c5d4c0f1875f72663ad8fb5e",
    "prove d4":
        "b625337fa2998dee3b647da3e61da322beb5cd9fe9a5b51f53ad161c0e13dac7",
    "sweep":
        "ab560696125e91a4eb26ecfe90ce0fcafc51ab3999a58a03c44f4dbb730a4bd2",
    "hom-group K C":
        "f0567f16d1042c09df776c13f3e1234001c77a8c4c22f27e43c9b1e3cb65e591",
}


def _argv(name, snake_file):
    if name == "sweep":
        return ["sweep", "--range", "-3..3"]
    if name == "hom-group K C":
        return ["hom-group", "K", "C", "--category", snake_file]
    return name.split()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_json_output_hash(name, tmp_path, capsys):
    path = tmp_path / "snake.cat"
    path.write_text(SNAKE_SRC)
    code = run_command(_argv(name, str(path)) + ["--json", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED[name]
