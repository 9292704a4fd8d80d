"""Pins the exact text that prints quiver morphisms.

Each case pins the sha256 of the exit code, stdout and stderr of one
command: the ``hom-group`` generator lines over the README's snake text and
the commuting ladder of ``test_ladder_hashes``, the ``connecting`` command
as text and with ``--json --seed 0``, and the ``kernel`` and ``homology``
objects of the ladder, whose matrices print paths next to the unit pivots
of its commuting squares.  The hashes were recorded while entries were
still printed from their path vectors, before printing moved to
coordinates; a canonical path vector is zero at every unit pivot, so the
bytes must not change.
"""

import hashlib
import json

import pytest

from adelcat.cli import run_command
from test_ladder_hashes import LADDER_SRC
from test_output_hashes import SNAKE_SRC

SOURCES = {"snake": SNAKE_SRC, "ladder": LADDER_SRC}

CASES = {
    "snake hom-group K C": ("snake", ["hom-group", "K", "C"]),
    "ladder hom-group X Y": ("ladder", ["hom-group", "X", "Y"]),
    "ladder hom-group X Z": ("ladder", ["hom-group", "X", "Z"]),
    "ladder hom-group t0 W": ("ladder", ["hom-group", "t0", "W"]),
    "snake connecting": ("snake", ["connecting", "alpha", "beta", "gamma"]),
    "snake connecting json": ("snake", ["connecting", "alpha", "beta", "gamma",
                                        "--json", "--seed", "0"]),
    "ladder kernel": ("ladder", ["kernel", "h1", "--source", "X", "--target", "Z"]),
    "ladder homology": ("ladder", ["homology", "h0", "h1*v2", "--objects", "t0", "t1", "b2"]),
}

EXPECTED = {
    "snake hom-group K C":
        "37a7703eed32db6a8b1ceae8fd50a007c1254fca1255f8eedc835efbd13c9481",
    "ladder hom-group X Y":
        "961fc7ff95805ed378cf706daa64d0b20c78bf33853c0cac26fbe2cdf69fba58",
    "ladder hom-group X Z":
        "52bb368999767f189f027a77a39ca875ca529103c40ba524c67698df53f0c01f",
    "ladder hom-group t0 W":
        "13d08b0f2a25a26f99941b870a18ff22227b5a48d0149f395e343267607edb75",
    "snake connecting":
        "4dacc7c49c61f81086a6e2e2d38df9c92f965c8b8f426b0ed6ecbe4d108a58a8",
    "snake connecting json":
        "e40efc80362e1b0c8c24c8778afebcfe5de95d6b7d5361ed1ea10511583e1b7f",
    "ladder kernel":
        "3f9434cac09bec8dacac0e479645f5b5924696304cdfd29dc5473aa4490acbcb",
    "ladder homology":
        "b3d72304943d21403bbe8ae9bc217d0189d7e2b89da5d269232a850017c2d2dd",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_printed_output_hash(name, tmp_path, capsys):
    source, argv = CASES[name]
    path = tmp_path / f"{source}.cat"
    path.write_text(SOURCES[source])
    code = run_command(argv + ["--category", str(path)])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    assert digest == EXPECTED[name]
