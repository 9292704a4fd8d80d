"""The four benchmark workloads.

Each workload is set up from ``--seed`` into a list of operations that a
single client runs in a closed loop (one operation starts when the previous
one has returned).  An operation is a ``run`` callable, timed, and a
``check`` callable, not timed, that raises ``WrongResult`` when the
program's answer is wrong.  ``cycle`` is the length of the repeating
operation mix; the harness only stops between cycles, so every run sees
the same mix.

Workload code calls ``adelcat`` through module attributes (``ad.kernel``,
``provers.prove_snake``) at call time, so that the tracer's rebinding is
seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

from adelcat import adelman as ad
from adelcat import cli, evalfunctor, homgroups, provers
from adelcat.addclosure import identity_mat, single

from . import gen


class WrongResult(Exception):
    """The program returned an answer that fails the benchmark's check."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    inputs: Any = None        # JSON-able description of the inputs


@dataclass
class Workload:
    name: str
    ops: list[Op]
    cycle: int
    cycle_s: float            # one cycle at the reference speed; sizes the traced pass


# -- provers -------------------------------------------------------------------

CONNECTING_CHECKS = frozenset({
    "blue sequence exact at K (connecting source)",
    "blue sequence exact at C (connecting target)",
})


def _prover_op(kind: str, make: Callable, expected_failures=frozenset(), inputs=None) -> Op:
    def run():
        report = make()
        as_dict = report.to_dict()
        back = json.loads(json.dumps(as_dict, sort_keys=True))
        return report, as_dict, back, provers.replay_report(back)

    def check(result):
        report, as_dict, back, replayed = result
        if not report.checks:
            raise WrongResult(f"{kind}: empty report")
        if back != as_dict:
            raise WrongResult(f"{kind}: report changed in the JSON round trip")
        failing = {c.description for c in report.checks if not c.verdict}
        if failing != expected_failures:
            raise WrongResult(f"{kind}: failing checks {sorted(failing)}, "
                              f"expected {sorted(expected_failures)}")
        if not replayed:
            raise WrongResult(f"{kind}: certificates did not re-verify")

    return Op(kind, run, check, [kind, inputs])


def setup_provers(seed: int, workdir: str) -> Workload:
    """Cycle of seven: the five provers, the mutated snake, and a second
    sweep window.  Two sweeps keep the mix odd, so the median latency falls
    inside one operation kind instead of on the edge between two."""
    rng = gen.rng_for(seed, "provers")
    ops: list[Op] = []
    for _ in range(16):
        lo_a, lo_b = rng.randint(-5, -1), rng.randint(-5, -1)
        win_a = tuple(range(lo_a, lo_a + rng.randint(5, 9)))
        win_b = tuple(range(lo_b, lo_b + rng.randint(5, 9)))
        k = rng.choice((-4, -3, -2, 2, 3, 4))
        ops += [
            _prover_op("snake", lambda: provers.prove_snake()),
            _prover_op("uniqueness", lambda: provers.prove_connecting_uniqueness()),
            _prover_op("five", lambda: provers.prove_refined_five()),
            _prover_op("sweep", lambda w=win_a: provers.sweep_report(w), inputs=win_a),
            _prover_op("d4", lambda: provers.explore_d4()),
            _prover_op("snake_mutated", lambda k=k: provers.prove_snake(connecting_scale=k),
                       CONNECTING_CHECKS, inputs=k),
            _prover_op("sweep", lambda w=win_b: provers.sweep_report(w), inputs=win_b),
        ]
    return Workload("provers", ops, 7, 0.21)


# -- hom_ladder -------------------------------------------------------------------

def _hom_ladder_op(x, y, draw) -> Op:
    def run():
        hg = homgroups.hom_group(x, y)
        coords = tuple(draw[i % len(draw)] for i in range(hg.group.ngens))
        element = hg.element(coords)
        back = hg.coordinates(element)
        same = hg.group.elements_equal(back, coords)
        kr = ad.kernel(element)
        ck = ad.cokernel(element)
        return (hg, coords, element, same,
                (kr.obj, ad.zero_object_witness(kr.obj)),
                (ck.obj, ad.zero_object_witness(ck.obj)))

    def check(result):
        hg, coords, element, same, *zero_tests = result
        if not same:
            raise WrongResult("coordinates(element(c)) is not the class of c")
        for obj, wp in zero_tests:
            if wp is not None and not wp.verifies(obj, obj, identity_mat(obj.middle)):
                raise WrongResult("zero-object witness does not verify")
        zero_class = hg.group.is_zero_element(coords)
        if (ad.is_zero_morphism(element) is not None) != zero_class:
            raise WrongResult("Hom-group class and homotopy solver disagree on zero")

    return Op("hom_group", run, check,
              [provers._ser_obj(x), provers._ser_obj(y), list(draw)])


def _system_size(cat, xs, ys) -> int:
    """Unknowns plus equations of the Hom-group system between objects of
    shapes ``xs`` and ``ys``; the operation's cost grows with it."""
    def dim(a, b):
        return sum(len(cat.paths(u, v)) for u in a.summands for v in b.summands)
    (xr, xm, xc), (yr, ym, yc) = xs, ys
    return dim(xm, ym) + dim(xr, yr) + dim(xc, yc) + dim(xr, ym) + dim(xm, yc)


LADDER_STRATA = 16
LADDER_ROUNDS = 24


def setup_hom_ladder(seed: int, workdir: str) -> Workload:
    """Pairs of random objects on the 2x6 commuting ladder.

    Operation cost is set by the tuple shapes (which vertices, in which
    order) and varies about threefold between pairs, while coefficients
    hardly move it.  So that every seed runs the same mix of system sizes,
    the shapes come from one fixed panel; the seed draws every coefficient,
    the element coordinates and the order within each cycle.  The panel is
    ranked by system size and cut into ``LADDER_STRATA`` bands, and every
    cycle of ``LADDER_STRATA`` operations takes one pair from each band, so a run that
    stops early still sees the whole range of sizes.
    """
    shapes = gen.rng_for(0, "hom_ladder-shapes")
    rng = gen.rng_for(seed, "hom_ladder")
    cat = gen.ladder_spec(6).category()
    panel = [(gen.rand_shape(shapes, cat), gen.rand_shape(shapes, cat))
             for _ in range(LADDER_STRATA * LADDER_ROUNDS)]
    order = sorted(range(len(panel)), key=lambda i: _system_size(cat, *panel[i]))
    bands = [order[b * LADDER_ROUNDS:(b + 1) * LADDER_ROUNDS] for b in range(LADDER_STRATA)]
    ops = []
    for r in range(LADDER_ROUNDS):
        cycle = [panel[band[r]] for band in bands]
        rng.shuffle(cycle)
        for xs, ys in cycle:
            x = gen.rand_object(rng, cat, xs)
            y = gen.rand_object(rng, cat, ys)
            ops.append(_hom_ladder_op(x, y, gen.rand_coeffs(rng, 97)))
    return Workload("hom_ladder", ops, LADDER_STRATA, 1.1)


# -- oracle -----------------------------------------------------------------------

def _oracle_op(kind: str, rep, items) -> Op:
    def run():
        return (evalfunctor.check_representation(rep),
                evalfunctor.oracle_suite(rep, items))

    def check(result):
        valid, checks = result
        if not valid:
            raise WrongResult(f"{kind}: generated representation violates a relation")
        if len(checks) != len(items):
            raise WrongResult(f"{kind}: {len(checks)} checks for {len(items)} items")
        bad = [c.description for c in checks if not c.ok]
        if bad:
            raise WrongResult(f"{kind}: oracle mismatches {bad}")

    inputs = [kind, rep.ranks, {a: m.to_rows() for a, m in sorted(rep.matrices.items())}]
    return Op(kind, run, check, inputs)


ORACLE_POOL = 256


def setup_oracle(seed: int, workdir: str) -> Workload:
    rng = gen.rng_for(seed, "oracle")
    fig = provers.build_snake_figure()
    data = provers.build_five_data()
    suites = (("snake", fig.cat, provers.snake_oracle_items(fig)),
              ("five", data.cat, provers.five_oracle_items(data)))
    ops = []
    for i in range(ORACLE_POOL):
        kind, cat, items = suites[i % 2]
        rep = evalfunctor.random_representation(cat, rng.getrandbits(32), max_rank=3)
        ops.append(_oracle_op(kind, rep, items))
    return Workload("oracle", ops, 2, 0.021)


# -- cli_big_quiver -----------------------------------------------------------------

CHAIN_LENGTH = 40
LADDER_RUNGS = 16


def _times(c: int, word: str) -> str:
    """``c*word`` in CLI syntax; a leading minus would read as an option."""
    return f"{c}*{word}" if c >= 0 else f"0 - {-c}*{word}"


@dataclass(frozen=True)
class _Command:
    argv: tuple[str, ...]
    code: int                 # expected exit code
    free_rank: int = -1       # expected Hom-group rank, hom-group only


def _chain_commands(rng) -> list[_Command]:
    n = CHAIN_LENGTH
    i = rng.randrange(n - 2)
    c1 = rng.choice((1, -1, 2))
    c2 = c1 if rng.random() < 0.5 else -c1
    c = rng.choice((1, -1, 2, 3))
    a, b = sorted(rng.sample(range(n), 2))
    if rng.random() < 0.25:
        a, b = b, a
    return [
        _Command(("kernel", f"a{i}", "--source", f"v{i}", "--target", f"v{i + 1}"), 0),
        _Command(("check-equal", _times(c1, f"a{i}*a{i + 1}"), _times(c2, f"a{i}*a{i + 1}"),
                  "--source", f"v{i}", "--target", f"v{i + 2}"), 0 if c1 == c2 else 1),
        _Command(("hom-group", f"v{a}", f"v{b}"), 0, 1 if a <= b else 0),
        _Command(("is-exact", _times(c, f"id(v{i})"), f"a{i}",
                  "--objects", f"(| a{i})", f"v{i}", f"v{i + 1}"), 0 if abs(c) == 1 else 1),
    ]


def _ladder_commands(rng) -> list[_Command]:
    n = LADDER_RUNGS
    i = rng.randrange(n - 1)
    c1 = rng.choice((1, -1, 2))
    c2 = c1 if rng.random() < 0.5 else -c1
    c = rng.choice((1, -1, 2, 3))
    a, b = rng.randrange(n), rng.randrange(n)
    rows = rng.choice((("t", "t"), ("t", "b"), ("b", "b"), ("b", "t")))
    rank = 1 if a <= b and rows != ("b", "t") else 0
    return [
        _Command(("kernel", f"v{i}", "--source", f"t{i}", "--target", f"b{i}"), 0),
        _Command(("check-equal", _times(c1, f"h{i}*v{i + 1}"), _times(c2, f"v{i}*g{i}"),
                  "--source", f"t{i}", "--target", f"b{i + 1}"), 0 if c1 == c2 else 1),
        _Command(("hom-group", f"{rows[0]}{a}", f"{rows[1]}{b}"), 0, rank),
        _Command(("is-exact", _times(c, f"id(t{i})"), f"h{i}",
                  "--objects", f"(| h{i})", f"t{i}", f"t{i + 1}"), 0 if abs(c) == 1 else 1),
    ]


def _expected_kernel(session, argv) -> dict:
    """The kernel object the library itself builds, as the CLI prints it."""
    src = session.parse_object_text(argv[argv.index("--source") + 1])
    tgt = session.parse_object_text(argv[argv.index("--target") + 1])
    f = ad.make_morphism(src, tgt, single(session.parse_expr_text(argv[1])))
    return json.loads(json.dumps(provers._ser_obj(ad.kernel(f).obj)))


def _cli_op(cmd: _Command, path: str, session, seed: int) -> Op:
    kind = cmd.argv[0]
    argv = list(cmd.argv) + ["--category", path, "--json", "--seed", str(seed)]
    want_kernel = _expected_kernel(session, cmd.argv) if kind == "kernel" else None

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != cmd.code:
            raise WrongResult(f"{' '.join(cmd.argv)}: exit {code}, expected {cmd.code}: {err.strip()}")
        payload = json.loads(out)
        if payload["verdict"] != (code == 0):
            raise WrongResult(f"{kind}: verdict {payload['verdict']} with exit {code}")
        for cert in payload["certificates"]:
            if not provers.verify_certificate(session.cat, cert):
                raise WrongResult(f"{kind}: emitted certificate does not re-verify")
        if kind in ("check-equal", "is-exact") and code == 0 and not payload["certificates"]:
            raise WrongResult(f"{kind}: positive verdict without a certificate")
        if kind == "kernel" and payload["object"] != want_kernel:
            raise WrongResult("kernel: object differs from the library's kernel")
        if kind == "hom-group" and (payload["free_rank"] != cmd.free_rank
                                    or payload["invariant_factors"]):
            raise WrongResult(f"hom-group: got rank {payload['free_rank']}, factors "
                              f"{payload['invariant_factors']}, expected Z^{cmd.free_rank}")

    return Op(kind, run, check, argv)


def setup_cli_big_quiver(seed: int, workdir: str) -> Workload:
    """Each command re-reads and rebuilds its category from a generated
    ``.cat`` file.  The categories are also built here, outside the timed
    region, to re-check what the commands emit."""
    rng = gen.rng_for(seed, "cli_big_quiver")
    os.makedirs(workdir, exist_ok=True)
    files = []
    for spec, commands in ((gen.chain_spec(CHAIN_LENGTH), _chain_commands),
                           (gen.ladder_spec(LADDER_RUNGS), _ladder_commands)):
        text = spec.cat_text()
        path = os.path.join(workdir, f"{spec.name}.cat")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        files.append((commands, path, cli.Session(cli.parse_session(text))))
    ops: list[Op] = []
    for _ in range(8):
        drawn = [(commands(rng), path, session) for commands, path, session in files]
        for k in range(4):
            for cmds, path, session in drawn:
                ops.append(_cli_op(cmds[k], path, session, seed))
    return Workload("cli_big_quiver", ops, 8, 0.39)


WORKLOADS = {
    "provers": setup_provers,
    "hom_ladder": setup_hom_ladder,
    "oracle": setup_oracle,
    "cli_big_quiver": setup_cli_big_quiver,
}
