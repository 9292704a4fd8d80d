"""The package on the oldest Python that ``requires-python`` admits: every
module imports there, the built-in ``.cat`` texts parse, the group-side
oracle checks the snake over a random representation, and
``adelcat prove snake`` runs.  Skipped when no interpreter of that version
is installed, either on ``PATH`` or under pyenv."""

import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import importlib, pkgutil, sys
import adelcat
for module in pkgutil.iter_modules(adelcat.__path__):
    importlib.import_module("adelcat." + module.name)
from adelcat.catfile import parse_session
from adelcat.cli import run_command
from adelcat.evalfunctor import oracle_suite, random_representation
from adelcat.provers import CATEGORY_TEXTS, build_snake_figure, snake_oracle_items
assert sorted(parse_session(text).category.name for text in CATEGORY_TEXTS.values()) == sorted(CATEGORY_TEXTS)
fig = build_snake_figure()
checks = oracle_suite(random_representation(fig.cat, 3), snake_oracle_items(fig))
assert checks and all(check.ok for check in checks), [c for c in checks if not c.ok]
sys.exit(run_command(["prove", "snake"]))
"""


def _floor() -> str:
    """The minor version that ``requires-python`` names, such as "3.10"."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'requires-python\s*=\s*">=\s*(\d+\.\d+)', text).group(1)


def _runs(python: str, version: str) -> bool:
    try:
        done = subprocess.run([python, "--version"], capture_output=True, text=True, timeout=30)
    except OSError:
        return False
    return done.returncode == 0 and done.stdout.startswith(f"Python {version}.")


def _interpreter(version: str):
    """A working ``python<version>`` on ``PATH``, else one under pyenv."""
    candidates = [shutil.which(f"python{version}")]
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates += sorted(str(p) for p in pyenv.glob(f"versions/{version}.*/bin/python"))
    return next((c for c in candidates if c and _runs(c, version)), None)


def test_runs_on_the_oldest_supported_python():
    version = _floor()
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no Python {version} interpreter found")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([python, "-c", SCRIPT], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("verdict: pass\n"), done.stdout
