"""The ``.cat`` grammar module on its own: the built-in category texts, and
the layering that keeps the grammar and the provers free of the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import adelcat
from adelcat.catfile import build_category, parse_session, print_spec
from adelcat.provers import CATEGORY_TEXTS, category_by_name


@pytest.mark.parametrize("name", sorted(CATEGORY_TEXTS))
def test_built_in_text_round_trips(name):
    spec = parse_session(CATEGORY_TEXTS[name]).category
    assert spec.name == name
    assert parse_session(print_spec(spec)).category == spec
    rebuilt = build_category(parse_session(print_spec(spec)).category)
    built_in = category_by_name(name)
    assert (rebuilt.quiver, rebuilt.relations) == (built_in.quiver, built_in.relations)


def test_grammar_and_provers_import_without_the_cli():
    src = str(Path(adelcat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, adelcat.provers, adelcat.catfile; "
            "assert 'adelcat.cli' not in sys.modules")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
