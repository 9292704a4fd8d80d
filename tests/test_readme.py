"""Every ``adelcat`` command line of the README runs as written, against the
README's own ``.cat`` block, and exits with the code its example implies."""

import re
import shlex
from pathlib import Path

import pytest

from adelcat.cli import run_command

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# the README's ``eval`` example reads rep.txt; this one satisfies the relation
REPRESENTATION = "rank a = 1\nrank b = 1\nrank c = 1\nrank d = 1\nmatrix alpha = [[2]]\n"

# the examples whose verdict is negative on purpose, by their first words
FAILING = {("check-equal", "beta", "0 - beta"), ("prove", "snake", "--connecting-scale")}


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


COMMANDS = [shlex.split(line, comments=True)[1:] for block in _blocks("sh")
            for line in block.splitlines() if line.startswith("adelcat ")]


def test_the_readme_has_its_examples():
    assert len(COMMANDS) >= 13
    assert [b for b in _blocks("text") if b.startswith("category snake")]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    [cat_text] = [b for b in _blocks("text") if b.startswith("category snake")]
    (tmp_path / "snake.cat").write_text(cat_text)
    (tmp_path / "rep.txt").write_text(REPRESENTATION)
    monkeypatch.chdir(tmp_path)
    expected = 1 if tuple(argv[:3]) in FAILING else 0
    assert run_command(argv) == expected, capsys.readouterr().err
    assert capsys.readouterr().err == ""
