"""The package at both ends of the supported range: on the oldest Python
that ``requires-python`` admits and on the newest CPython installed, every
module imports, the built-in ``.cat`` texts parse, the group-side oracle
checks the snake over a random representation, and ``adelcat prove snake``
runs.  Each run is skipped when no interpreter of its version is installed,
either on ``PATH`` or under pyenv."""

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


def _pyenv() -> Path:
    return Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")


def _interpreter(version: str):
    """A working ``python<version>`` on ``PATH``, else one under pyenv."""
    candidates = [shutil.which(f"python{version}")]
    candidates += sorted(str(p) for p in _pyenv().glob(f"versions/{version}.*/bin/python"))
    return next((c for c in candidates if c and _runs(c, version)), None)


def _newest() -> str:
    """The newest CPython minor version named by a ``python3.N`` on ``PATH``
    or a ``3.N.*`` version under pyenv, such as "3.13"; the floor when there
    is none."""
    names = [p.name[len("python"):] for d in os.get_exec_path() for p in Path(d).glob("python3.*")]
    names += [p.name for p in _pyenv().glob("versions/3.*")]
    minors = [int(m.group(1)) for m in map(re.compile(r"3\.(\d+)").match, names) if m]
    return f"3.{max(minors)}" if minors else _floor()


def _run_at(version: str):
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no Python {version} interpreter found")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([python, "-c", SCRIPT], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("verdict: pass\n"), done.stdout


def test_runs_on_the_oldest_supported_python():
    _run_at(_floor())


def test_runs_on_the_newest_installed_python():
    _run_at(_newest())
