"""Every ``adelcat`` command line of the README runs as written, against the
README's own ``.cat`` block, and exits with the code its example implies.
The README's command -> certificate-kinds table lists the kinds each
command emits: the provers' from their reports, the other commands' from
the README's examples."""

import json
import re
import shlex
from pathlib import Path

import pytest

from adelcat import provers
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


PROVER_REPORTS = {
    "prove snake": provers.prove_snake,
    "prove five": provers.prove_refined_five,
    "prove uniqueness": provers.prove_connecting_uniqueness,
    "prove d4": provers.explore_d4,
    "sweep": lambda: provers.sweep_report(range(-3, 4)),
}


def _kinds_table() -> list[tuple[set, set]]:
    """The rows of the certificate-kinds table as (commands, kinds)."""
    section = README.split("| command | certificate kinds |\n|---|---|\n", 1)[1]
    rows = []
    for line in section.splitlines():
        if not line.startswith("|"):
            break
        commands, kinds = line.strip("|").split("|")
        rows.append((set(re.findall(r"`([^`]+)`", commands)), set(re.findall(r"`([^`]+)`", kinds))))
    return rows


def test_certificate_kinds_table_matches_the_emitted_kinds(tmp_path, monkeypatch, capsys):
    emitted = {name: {c["certificate"]["kind"] for c in report().to_dict()["checks"]
                      if c["certificate"]}
               for name, report in PROVER_REPORTS.items()}
    [cat_text] = [b for b in _blocks("text") if b.startswith("category snake")]
    (tmp_path / "snake.cat").write_text(cat_text)
    (tmp_path / "rep.txt").write_text(REPRESENTATION)
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        if argv[0] in ("prove", "sweep"):
            continue
        run_command(argv + ["--json", "--seed", "0"])
        certificates = json.loads(capsys.readouterr().out)["certificates"]
        emitted.setdefault(argv[0], set()).update(cert["kind"] for cert in certificates)
    rows = _kinds_table()
    assert len(rows) >= 9
    for commands, kinds in rows:
        assert all(emitted.get(c) for c in commands), commands
        assert set().union(*(emitted[c] for c in commands)) == kinds, commands
    assert set().union(*(commands for commands, _ in rows)) == {c for c, k in emitted.items() if k}
