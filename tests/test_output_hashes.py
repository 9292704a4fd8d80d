"""Pins the sha256 of canonical ``--json`` CLI outputs.

The CLI prints ``--json`` reports with sorted keys and fixed indentation, so
equal reports are equal bytes.  The hashes were recorded before the
morphism-arithmetic and Hom-group fast paths were introduced; any change to
a verdict, a certificate or a generator shows up here.
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
        "bbe713b08481418c5ee53d9fb5c8d2437268a7a3b689290958213fe798a4d361",
    "prove five":
        "f9e27160611fbf07d4706351e350880d91ce42d070236a192bae31505888bae2",
    "prove uniqueness":
        "e134d0feec0a2247cdacebbc71031eccbfdbc4bf7c7f5011ea443d27107d9ddf",
    "prove d4":
        "b625337fa2998dee3b647da3e61da322beb5cd9fe9a5b51f53ad161c0e13dac7",
    "sweep":
        "7859cd50de36a14d79cbfe145a49fa64906211ed9cda2d375569ddbf849e7051",
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
