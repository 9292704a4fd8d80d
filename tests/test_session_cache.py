"""The CLI keeps one session per category text (``cli._session_of``).

A kept session must answer as a new one would: every pinned command prints
the same bytes cold and warm, an edited file is read afresh, a text that
fails is not kept, a command that fails part-way leaves nothing behind, and
the cache holds at most ``SESSION_CACHE_SIZE`` categories alive.
"""

import gc
import hashlib
import json
import weakref

import pytest

import test_command_hashes
import test_printer_hashes
from adelcat import cli
from adelcat.cli import run_command
from test_cli import _NEAR_CAP, _chain_text
from test_output_hashes import SNAKE_SRC

# a command on another text, run between the pinned ones
_CHAIN_KERNEL = ["kernel", "a0", "--source", "v0", "--target", "v1"]


def _run(argv, capsys):
    code = run_command(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _cold(argv, capsys):
    cli._session_of.cache_clear()
    return _run(argv, capsys)


def _digest(result):
    return hashlib.sha256(json.dumps(list(result)).encode()).hexdigest()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_warm_sessions_print_the_pinned_bytes(tmp_path, capsys):
    files = {source: _write(tmp_path, f"{source}.cat", text)
             for source, text in test_printer_hashes.SOURCES.items()}
    chain = _write(tmp_path, "chain.cat", _chain_text(40))
    pins = [(argv + ["--category", files["snake"]] + test_command_hashes.MODES[mode],
             test_command_hashes.EXPECTED[name, mode])
            for name, argv in test_command_hashes.CASES.items()
            for mode in test_command_hashes.MODES]
    pins += [(argv + ["--category", files[source]], test_printer_hashes.EXPECTED[name])
             for name, (source, argv) in test_printer_hashes.CASES.items()]
    cold = [_cold(argv, capsys) for argv, _ in pins]
    assert [_digest(result) for result in cold] == [digest for _, digest in pins]
    for _ in range(2):
        hits = cli._session_of.cache_info().hits
        warm = []
        for argv, _ in pins:
            assert _run(_CHAIN_KERNEL + ["--category", chain], capsys)[0] == 0
            warm.append(_run(argv, capsys))
        assert warm == cold
    # the second pass found every session kept
    assert cli._session_of.cache_info().hits - hits == 2 * len(pins)


def test_an_edited_file_is_read_again(tmp_path, capsys):
    path = _write(tmp_path, "snake.cat", SNAKE_SRC)
    argv = ["hom-group", "K", "C", "--category", path, "--json", "--seed", "0"]
    before = _run(argv, capsys)
    edited = SNAKE_SRC.replace("category snake", "category snake2").replace(
        "object K = (alpha | beta*gamma);", "object K = (| beta);")
    _write(tmp_path, "snake.cat", edited)
    after = _run(argv, capsys)
    assert after != before and '"category": "snake2"' in after[1]
    assert after == _cold(argv, capsys)


@pytest.mark.parametrize("let, message", [
    ("let bad = alpha*nope;", "error: 10:17: unknown arrow 'nope'\n"),
    ("let bad = alpha*gamma;", "error: cannot compose a->b with c->d\n"),
], ids=["parse", "build"])
def test_a_failing_text_is_not_kept(let, message, tmp_path, capsys):
    path = _write(tmp_path, "bad.cat", SNAKE_SRC + let + "\n")
    argv = ["kernel", "beta", "--source", "b", "--target", "c", "--category", path]
    cli._session_of.cache_clear()
    assert _run(argv, capsys) == (2, "", message)
    assert _run(argv, capsys) == (2, "", message)
    info = cli._session_of.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


@pytest.mark.parametrize("text, failing, message, following", [
    (_chain_text(40), ["connecting", "a0", "a1", "a2"],
     "error: triple composite is not zero\n",
     ["kernel", "a0*a1", "--source", "v0", "--target", "v2"]),
    (_chain_text(40, parallel="xy"),
     ["kernel", _NEAR_CAP + "*x13", "--source", "v0", "--target", "v14"],
     "error: more than 10000 paths from 'v0' to 'v14'\n",
     ["kernel", "x0*y1", "--source", "v0", "--target", "v2"]),
], ids=["connecting", "path-cap"])
def test_a_failed_command_leaves_nothing_behind(text, failing, message, following,
                                               tmp_path, capsys):
    path = _write(tmp_path, "chain.cat", text)
    following = following + ["--category", path, "--json", "--seed", "1"]
    cold = _cold(following, capsys)
    assert cold[0] == 0
    for _ in range(2):
        assert _run(failing + ["--category", path], capsys) == (2, "", message)
        assert _run(following, capsys) == cold


def test_the_cache_holds_at_most_its_bound(tmp_path, capsys):
    cli._session_of.cache_clear()
    path = str(tmp_path / "snake.cat")
    argv = ["kernel", "beta", "--source", "b", "--target", "c", "--category", path]
    texts = [SNAKE_SRC + f"# text {k}\n" for k in range(cli.SESSION_CACHE_SIZE + 1)]
    _write(tmp_path, "snake.cat", texts[0])
    assert _run(argv, capsys)[0] == 0
    first = weakref.ref(cli._session_of(texts[0]).cat)
    for text in texts[1:-1]:
        _write(tmp_path, "snake.cat", text)
        assert _run(argv, capsys)[0] == 0
    gc.collect()
    assert first() is not None
    _write(tmp_path, "snake.cat", texts[-1])
    assert _run(argv, capsys)[0] == 0
    gc.collect()
    assert first() is None
