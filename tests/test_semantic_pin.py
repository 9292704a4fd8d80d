"""Pins what the pinned CLI outputs decide, apart from how they certify it.

The byte pins of ``test_output_hashes`` and ``test_ladder_hashes`` also fix
every witness and generator, which a solver is free to choose.  This pin
covers only the decisions: the (description, verdict) pair of every check of
the four ``prove`` lemmas and of ``sweep --range -3..3``, and the invariant
factors and free rank of every pinned ``hom-group`` output.  It was recorded
before Hom spaces moved to reduced coordinates, and must hold unedited
whatever particular solutions a solve picks.
"""

import hashlib
import json

from adelcat.cli import run_command

from test_ladder_hashes import EXPECTED as LADDER_PAIRS, LADDER_SRC
from test_output_hashes import SNAKE_SRC

EXPECTED = "90236f0deaec6d456b859607dcc7379985246f036e1536291cde64def963d0b7"


def _json(argv, capsys) -> dict:
    code = run_command(argv + ["--json", "--seed", "0"])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def decisions(tmp_path, capsys) -> list:
    snake = tmp_path / "snake.cat"
    snake.write_text(SNAKE_SRC)
    ladder = tmp_path / "ladder.cat"
    ladder.write_text(LADDER_SRC)
    out = []
    for argv in (["prove", "snake"], ["prove", "five"], ["prove", "uniqueness"],
                 ["prove", "d4"], ["sweep", "--range", "-3..3"]):
        report = _json(argv, capsys)
        out.append([" ".join(argv), [[c["description"], c["verdict"]]
                                     for c in report["certificates"]]])
    pairs = [(("K", "C"), snake)] + [(pair, ladder) for pair in sorted(LADDER_PAIRS)]
    for (x, y), path in pairs:
        report = _json(["hom-group", x, y, "--category", str(path)], capsys)
        out.append([f"hom-group {x} {y}", report["invariant_factors"], report["free_rank"]])
    return out


def test_decisions_and_invariants_are_pinned(tmp_path, capsys):
    text = json.dumps(decisions(tmp_path, capsys), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED
