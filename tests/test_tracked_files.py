"""No generated or stale artifacts are tracked by git."""

import shutil
import subprocess
from pathlib import Path, PurePosixPath

import pytest

ROOT = Path(__file__).resolve().parent.parent

ARTIFACT_SUFFIXES = (".c", ".so", ".pyd")
ARTIFACT_DIRS = ("__pycache__", ".bench_work")
ARTIFACT_FILES = ("test_output.txt",)


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True, check=False)


def _is_artifact(path: str) -> bool:
    p = PurePosixPath(path)
    return (p.suffix in ARTIFACT_SUFFIXES
            or p.name in ARTIFACT_FILES
            or any(part in ARTIFACT_DIRS or part.endswith(".egg-info")
                   for part in p.parts[:-1]))


def test_is_artifact_patterns():
    for path in ("src/adelcat/_kernel.c", "x.cpython-311-x86_64-linux-gnu.so",
                 "a/b.pyd", "src/adelcat.egg-info/PKG-INFO",
                 "tests/__pycache__/t.pyc", ".bench_work/a.cat", "test_output.txt"):
        assert _is_artifact(path), path
    for path in ("src/adelcat/_hnf_py.py", "README.md", "tests/test_cli.py"):
        assert not _is_artifact(path), path


def test_no_generated_artifacts_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this project")
    listed = _git("ls-files", "-z")
    assert listed.returncode == 0, listed.stderr
    tracked = [p for p in listed.stdout.split("\0") if p]
    assert [p for p in tracked if _is_artifact(p)] == []
