"""Pins the exact output of the commands that take morphisms.

``check-equal``, ``kernel``, ``cokernel``, ``homology``, ``is-mono``,
``is-epi``, ``is-iso`` and ``is-exact`` run over the README's snake text,
once as text and once with ``--json --seed 0``.  Each case pins the sha256
of its exit code, stdout and stderr, so a changed verdict, certificate,
object, error message or ``line:col`` position shows up here.  The cases
cover every verdict and one exit-2 case per argument shape: a single
morphism, a parallel pair and a composable pair.  The hashes were recorded
before the CLI declared these commands in one table.
"""

import hashlib
import json

import pytest

from adelcat.cli import run_command
from test_output_hashes import SNAKE_SRC

CASES = {
    "check-equal equal": ["check-equal", "ab", "2*ab", "--source", "a", "--target", "(ab |)"],
    "check-equal not equal": ["check-equal", "beta", "0 - beta", "--source", "K", "--target", "C"],
    "kernel": ["kernel", "beta", "--source", "b", "--target", "c"],
    "cokernel": ["cokernel", "beta", "--source", "b", "--target", "c"],
    "homology": ["homology", "alpha", "beta*gamma", "--objects", "a", "b", "d"],
    "is-mono": ["is-mono", "id(c)", "--source", "(| gamma)", "--target", "c"],
    "is-epi": ["is-epi", "id(c)", "--source", "c", "--target", "(alpha*beta |)"],
    "is-iso": ["is-iso", "id(a)", "--source", "a", "--target", "(| alpha*beta*gamma)"],
    "is-exact exact": ["is-exact", "id(b)", "beta", "--objects", "(| beta)", "b", "c"],
    "is-exact not exact": ["is-exact", "alpha", "beta*gamma", "--objects", "a", "b", "d"],
    # exit 2, one per argument shape
    "kernel unknown object": ["kernel", "beta", "--source", "b", "--target", "zz"],
    "check-equal unknown name": ["check-equal", "beta", "nope", "--source", "b", "--target", "c"],
    "is-exact nonzero composite": ["is-exact", "alpha", "beta", "--objects", "a", "b", "c"],
    "is-exact parse error": ["is-exact", "alpha", "beta +", "--objects", "a", "b", "c"],
}

EXPECTED = {
    ("check-equal equal", "json"):
        "992cfbcb8b9edcc06e4abdb56ddb4542c12110fbb869fdd3a64d4118a450461c",
    ("check-equal equal", "text"):
        "b3fbfa69e5a452a4e138795ac9e296ef77d920a14fa41832ea56572975ab2003",
    ("check-equal not equal", "json"):
        "3561ad74cf9877a41cdd3f103e61d94e2cdedff67b590d0e10632f7f4827e6d3",
    ("check-equal not equal", "text"):
        "b015874ea97bf87bd995fc91a6ab2b6625bb7ff82c4c6a2efa7e1f3d92f1dfde",
    ("check-equal unknown name", "json"):
        "95075240c82f290e0f8889919bd1fac8a169bd6f55e9fde3b9af41fe78fb5003",
    ("check-equal unknown name", "text"):
        "95075240c82f290e0f8889919bd1fac8a169bd6f55e9fde3b9af41fe78fb5003",
    ("cokernel", "json"):
        "76fc9c454f3d118713276f20c432418b335608e65aae7626d699b5abd975dad4",
    ("cokernel", "text"):
        "31e61d73724a9e904f6d725f9111c8f892b1fe414dc1088fdf491743301728b6",
    ("homology", "json"):
        "5ee3c4be3e786710b2c2265223aeb1439078130f034ef1f631587507035996f1",
    ("homology", "text"):
        "7319ec9da5b191a9e55ab59d7a72b2dc59d8105ac5ef7ede24ef60f68927c90d",
    ("is-epi", "json"):
        "0a687c1976e85dc919717e70141ee593d73f3e960e5a25cca4e9e6d6775a161d",
    ("is-epi", "text"):
        "a4b0aea83eeaff538dd343ced844a343691d2081751daedcff022f58a12164de",
    ("is-exact exact", "json"):
        "46e7519f614f1b7fde2eb4336d3cca1331dc173119befd33f923b82add81aadd",
    ("is-exact exact", "text"):
        "295c25f49cb28a8c7ab2ac9433cae5ff7be65371188121687e7a7160862dcff5",
    ("is-exact nonzero composite", "json"):
        "338fa30c6e988cae4e721d23c2701462280caf80fe4c13ab965d748639171836",
    ("is-exact nonzero composite", "text"):
        "338fa30c6e988cae4e721d23c2701462280caf80fe4c13ab965d748639171836",
    ("is-exact not exact", "json"):
        "3f94fae3e8897845aef89c10d9e8354f582f07eee40a78051ca87c39f51f4f0b",
    ("is-exact not exact", "text"):
        "d2a43f7f6faf44fdbb58ef9e6ca359640b0554ac4128e385985277cc966c226b",
    ("is-exact parse error", "json"):
        "b8b2cb0435864b55643e2cb249f806fae9f8209053fa9e28ed50ea75d28cbce4",
    ("is-exact parse error", "text"):
        "b8b2cb0435864b55643e2cb249f806fae9f8209053fa9e28ed50ea75d28cbce4",
    ("is-iso", "json"):
        "4be5cd81da1ed2a2382742aa66838de25b52f5dc27e243a4297487eb0713d7da",
    ("is-iso", "text"):
        "5bce37dc68df19f68de4efcb6d88f0e4856214da140ebf824c75cf8c8a4a3f84",
    ("is-mono", "json"):
        "1e64f873033801aed33da791b8835d18c55ebdcda7e36066db2c15bb19c449b6",
    ("is-mono", "text"):
        "3fff31e7162ab3f51878f0f492f22cdb42f06a9861f889de0dccdeafaa3f1452",
    ("kernel", "json"):
        "3216d651c489cd99c40105c6a2c7b191a31629d45acabb822e723633d66fdfc8",
    ("kernel", "text"):
        "1ab08440c11d4822b6b52ace2bc1c835d2eb3b94d6024023b8c2fee032e9a54b",
    ("kernel unknown object", "json"):
        "77f3c8ae5b7e26acc4feaaa4b601ecc3efeb7fb04a84232b72d3249a8365730a",
    ("kernel unknown object", "text"):
        "77f3c8ae5b7e26acc4feaaa4b601ecc3efeb7fb04a84232b72d3249a8365730a",
}

MODES = {"text": [], "json": ["--json", "--seed", "0"]}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_command_output_hash(name, mode, tmp_path, capsys):
    path = tmp_path / "snake.cat"
    path.write_text(SNAKE_SRC)
    code = run_command(CASES[name] + ["--category", str(path)] + MODES[mode])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    assert digest == EXPECTED[name, mode]
