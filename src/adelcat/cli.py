"""Command-line front end: argparse, the commands and representation files.

Category/session files and the object and morphism arguments of the
commands are written in the ``.cat`` grammar; ``adelcat.catfile.Session``
builds a file's category and evaluates its lines and the arguments.  The
commands on morphisms are declared once, in ``_ON_MORPHISMS``, and every
subcommand's handler is set where its parser is declared.

``prove`` and ``sweep`` run on the built-in categories and take no
``--category``.  Any other command reads its ``--category`` file every
time, and looks its session up by the file's contents: in-process callers
of ``run_command`` reuse one session, with the Hom data it has filled, for
each of the last ``SESSION_CACHE_SIZE`` category texts.  A text that fails
to parse or build is not kept.  A one-shot ``adelcat`` process parses and
builds its category once.

Exit codes: 0 when every verdict is positive, 1 for a negative verdict, 2
for usage, parse, or precondition errors.  ``--json`` output is byte-stable
for fixed inputs and seed; wall-clock timings are only attached when
``--timings`` is passed.
"""

from __future__ import annotations

import argparse
import ast as pyast
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

from . import adelman, provers
from .addclosure import format_entries, format_mat
from .adelman import AdelObject, connecting_homomorphism
from .catfile import ParseError, Session, parse_session
from .evalfunctor import Representation, check_representation, eval_object
from .homgroups import hom_group
from .intlinalg import IntMatrix

# Inputs whose size is a number, not text, are capped before anything is
# allocated for them: the values of ``sweep --range`` and a representation rank.
MAX_SWEEP_VALUES = 10_000
MAX_RANK = 1_000
# The category texts whose sessions a process keeps (see ``_session_of``).
SESSION_CACHE_SIZE = 16


def parse_representation(session: Session, text: str) -> Representation:
    """Text format: ``rank v = n`` and ``matrix arrow = [[..],[..]]`` lines;
    blank lines and ``#`` comments are ignored.  A vertex or arrow outside
    the quiver, a second line for the same one, a negative rank or one above
    ``MAX_RANK``, and a matrix whose shape does not match the ranks are parse
    errors."""
    quiver = session.cat.quiver
    known = {"rank": ("vertex", set(quiver.vertices)),
             "matrix": ("arrow", {a.label for a in quiver.arrows})}
    ranks: dict[str, int] = {}
    raw_matrices: dict[str, tuple[int, list[list[int]]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("=", 1)
        if len(parts) != 2:
            raise ParseError("expected 'rank v = n' or 'matrix a = [[..]]'", lineno, 1)
        head = parts[0].split()
        value = parts[1].strip()
        if len(head) != 2 or head[0] not in ("rank", "matrix"):
            raise ParseError(f"unrecognized line {line!r}", lineno, 1)
        kind, name = head
        noun, names = known[kind]
        if name not in names:
            raise ParseError(f"unknown {noun} {name!r}", lineno, 1)
        if name in (ranks if kind == "rank" else raw_matrices):
            raise ParseError(f"repeated {kind} line for {name!r}", lineno, 1)
        if kind == "rank":
            try:
                ranks[name] = int(value)
            except ValueError:
                raise ParseError(f"bad rank value {value!r}", lineno, 1) from None
            if ranks[name] < 0:
                raise ParseError(f"negative rank for vertex {name!r}", lineno, 1)
            if ranks[name] > MAX_RANK:
                raise ParseError(f"rank for vertex {name!r} is above {MAX_RANK}", lineno, 1)
        else:
            try:
                rows = pyast.literal_eval(value)
            except (ValueError, SyntaxError, TypeError):
                rows = None
            # only a list of equally long lists of plain ints (no bool, float or str)
            if not (isinstance(rows, list) and all(
                    isinstance(row, list) and len(row) == len(rows[0])
                    and all(type(x) is int for x in row) for row in rows)):
                raise ParseError(f"bad matrix literal for {name!r}", lineno, 1)
            raw_matrices[name] = (lineno, rows)
    matrices: dict[str, IntMatrix] = {}
    for label, (lineno, entries) in raw_matrices.items():
        arrow = quiver.arrows[quiver.arrow_index(label)]
        shape = (ranks.get(arrow.source), ranks.get(arrow.target))
        m = IntMatrix.from_rows(entries, cols=None if entries else shape[1] or 0)
        # a missing rank has no line; Representation reports it
        if None not in shape and m.shape != shape:
            raise ParseError(f"matrix for arrow {label!r} has shape {m.shape}, "
                             f"expected {shape}", lineno, 1)
        matrices[label] = m
    return Representation(session.cat, ranks, matrices)


# -- report rendering ------------------------------------------------------------

def _format_object(x: AdelObject) -> str:
    mid = "+".join(x.middle.summands) or "0"
    left = "+".join(x.rel_source.summands) or "0"
    right = "+".join(x.corel_target.summands) or "0"
    return (f"({left} -> {mid} -> {right}) with rel {format_mat(x.rel)}, "
            f"corel {format_mat(x.corel)}")


@dataclass
class CommandResult:
    command: str
    inputs: dict
    verdict: bool
    certificates: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    def to_dict(self, seed: Optional[int], timings: Optional[dict]) -> dict:
        out = {
            "command": self.command,
            "inputs": {**self.inputs, **({"seed": seed} if seed is not None else {})},
            "verdict": self.verdict,
            "certificates": self.certificates,
        }
        out.update(self.extra)
        if timings is not None:
            out["timings"] = timings
        return out


def _emit(result: CommandResult, args, elapsed: float) -> int:
    timings = {"seconds": round(elapsed, 6)} if args.timings else None
    if args.json:
        payload = result.to_dict(args.seed, timings)
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in result.lines:
            print(line)
        print(f"verdict: {'pass' if result.verdict else 'FAIL'}")
        if timings:
            print(f"time: {timings['seconds']}s")
    return 0 if result.verdict else 1


@functools.lru_cache(maxsize=SESSION_CACHE_SIZE)
def _session_of(text: str) -> Session:
    """The session of the category text ``text``.  A command's results do
    not outlive it, and a session fills its Hom data and arrows as pure
    functions of the text, so a kept session answers as a new one would."""
    return Session(parse_session(text))


def _need_session(args) -> Session:
    if not args.category:
        raise ValueError("this command needs --category FILE")
    with open(args.category, "r", encoding="utf-8") as fh:
        return _session_of(fh.read())


# -- subcommand implementations ----------------------------------------------------

# argument shape -> (operands, object arguments, and the objects each operand
# runs between, as indices into the objects the arguments name)
_SHAPES = {
    "morphism": (("morphism",), ("source", "target"), ((0, 1),)),
    "parallel": (("first", "second"), ("source", "target"), ((0, 1), (0, 1))),
    "composable": (("first", "second"), ("objects",), ((0, 1), (1, 2))),
}

# the commands on morphisms: name -> (argument shape, and either a claim of
# ``adelman.CLAIMS`` with the line that states its verdict, or the name of an
# ``adelman`` construction, whose ``obj`` the command prints, and None);
# ``zero`` is stated by ``check-equal``
_ON_MORPHISMS = {
    "check-equal": ("parallel", "equal", lambda ok: (
        f"morphisms are {'equal' if ok else 'NOT equal'} in the free abelian category")),
    "kernel": ("morphism", "kernel", None),
    "cokernel": ("morphism", "cokernel", None),
    "homology": ("composable", "homology", None),
    "is-exact": ("composable", "exact", lambda ok: (
        f"sequence is {'exact' if ok else 'NOT exact'} at the middle object")),
    **{f"is-{kind}": ("morphism", kind, lambda ok, kind=kind: f"{kind}: {ok}")
       for kind in ("mono", "epi", "iso")},
}


def _read_operands(args, shape: str) -> tuple[list, dict]:
    """The morphisms of a command of argument shape ``shape``, and its
    report inputs.  The objects are read first, then the operands in order."""
    operands, object_args, ends = _SHAPES[shape]
    session = _need_session(args)
    texts = args.objects if object_args == ("objects",) else (args.source, args.target)
    objs = [session.parse_object_text(t) for t in texts]
    fs = [session.morphism(getattr(args, name), objs[i], objs[j])
          for name, (i, j) in zip(operands, ends)]
    inputs = {name: getattr(args, name) for name in operands + object_args}
    return fs, {**inputs, "category": session.cat.name}


def _cmd_on_morphisms(args) -> CommandResult:
    """A command of ``_ON_MORPHISMS``: a construction's object, or a claim's
    verdict, whose positive answer carries the claim's certificate."""
    shape, action, says = _ON_MORPHISMS[args.command]
    fs, inputs = _read_operands(args, shape)
    if says is None:  # a construction, looked up on ``adelman`` as the command runs
        obj = getattr(adelman, action)(*fs).obj
        return CommandResult(args.command, inputs, True, extra={"object": provers.to_json(obj)},
                             lines=[f"{args.command} object: {_format_object(obj)}"])
    cert = provers.claim_certificate(action, *fs)
    verdict = cert is not None
    return CommandResult(args.command, inputs, verdict, [cert] if verdict else [],
                         lines=[says(verdict)])


def _cmd_hom_group(args) -> CommandResult:
    session = _need_session(args)
    x = session.parse_object_text(args.source)
    y = session.parse_object_text(args.target)
    hg = hom_group(x, y)
    inv = hg.group.invariants().reduced()
    gens = [provers.to_json(g.datum) for g in hg.generators]
    gen_lines = ["  generator: " + " | ".join(chain.from_iterable(format_entries(g.datum)))
                 for g in hg.generators]
    return CommandResult(
        "hom-group",
        {"source": args.source, "target": args.target, "category": session.cat.name},
        True,
        [provers.invariants_certificate(hg.group, inv.factors, inv.free_rank)],
        extra={"invariant_factors": list(inv.factors), "free_rank": inv.free_rank,
               "generators": gens},
        lines=[f"Hom group: {inv.describe()} "
               f"(invariant factors {list(inv.factors)}, free rank {inv.free_rank})"]
              + gen_lines)


def _cmd_connecting(args) -> CommandResult:
    session = _need_session(args)
    conn = connecting_homomorphism(*map(session.parse_mat_text,
                                        (args.first, args.second, args.third)))
    return CommandResult(
        "connecting",
        {"first": args.first, "second": args.second, "third": args.third,
         "category": session.cat.name},
        True, [],
        extra={"morphism": provers.to_json(conn)},
        lines=[
            f"source: {_format_object(conn.source)}",
            f"target: {_format_object(conn.target)}",
            f"datum: {args.second}",
        ])


# lemma -> its prover, called with the connecting scale (only snake reads it)
_LEMMAS = {
    "snake": lambda scale: provers.prove_snake(scale),
    "five": lambda _: provers.prove_refined_five(),
    "uniqueness": lambda _: provers.prove_connecting_uniqueness(),
    "d4": lambda _: provers.explore_d4(),
}


def _cmd_prove(args) -> CommandResult:
    name, scale = args.lemma, args.connecting_scale
    if scale is not None and name != "snake":
        raise ValueError(f"--connecting-scale applies to prove snake, not to prove {name}")
    scale = 1 if scale is None else scale
    report = _LEMMAS[name](scale)
    d = report.to_dict()
    lines = [f"{report.lemma} in category {report.category!r}:"]
    for check in report.checks:
        mark = "ok" if check.verdict else "FAIL"
        lines.append(f"  [{mark}] {check.description}" +
                     (f" ({check.summary})" if check.summary else ""))
    inputs = {"lemma": name, **({} if scale == 1 else {"connecting_scale": scale})}
    return CommandResult("prove", inputs, report.overall, d["checks"], lines=lines)


def _cmd_sweep(args) -> CommandResult:
    lo, hi = args.range
    values = list(range(lo, hi + 1))
    report, results = provers.sweep(values)
    lines = [f"s = {s}: {'exact' if results[s] else 'not exact'}" for s in values]
    return CommandResult(
        "sweep", {"range": [lo, hi]}, report.overall,
        report.to_dict()["checks"],
        extra={"results": {str(s): results[s] for s in values}},
        lines=lines)


def _cmd_eval(args) -> CommandResult:
    session = _need_session(args)
    with open(args.rep, "r", encoding="utf-8") as fh:
        rep = parse_representation(session, fh.read())
    valid = check_representation(rep)
    lines = [f"representation is {'valid' if valid else 'INVALID (relations violated)'}"]
    extra: dict = {"ranks": {v: rep.ranks[v] for v in session.cat.quiver.vertices}}
    verdict = valid
    if valid and args.object:
        obj = session.parse_object_text(args.object)
        gw = eval_object(rep, obj)
        inv = gw.invariants()
        extra["invariant_factors"] = list(inv.factors)
        extra["free_rank"] = inv.free_rank
        lines.append(f"evaluated object: {inv.describe()}")
    return CommandResult(
        "eval",
        {"rep": args.rep, "object": args.object, "category": session.cat.name},
        verdict, [], extra=extra, lines=lines)


def _parse_range(text: str) -> tuple[int, int]:
    """``lo..hi`` with at most ``MAX_SWEEP_VALUES`` values; an empty range
    passes here and is refused by the sweep."""
    if ".." not in text:
        raise argparse.ArgumentTypeError("range must look like -3..3")
    lo, hi = text.split("..", 1)
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("range must look like -3..3") from None
    if hi - lo >= MAX_SWEEP_VALUES:
        raise argparse.ArgumentTypeError(f"range has more than {MAX_SWEEP_VALUES} values")
    return lo, hi


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args``
    keeps no state between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, default=None,
                        help="seed recorded in reports (required with --json)")
    common.add_argument("--timings", action="store_true",
                        help="attach wall-clock timings to the report")
    on_file = argparse.ArgumentParser(add_help=False, parents=[common])
    on_file.add_argument("--category", help="category/session file")

    parser = argparse.ArgumentParser(
        prog="adelcat",
        description="exact homological computations in free abelian categories")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (shape, _, _) in _ON_MORPHISMS.items():
        operands, object_args, _ = _SHAPES[shape]
        p = sub.add_parser(name, parents=[on_file])
        p.set_defaults(run=_cmd_on_morphisms)
        for operand in operands:
            p.add_argument(operand)
        for arg in object_args:
            p.add_argument(f"--{arg}", nargs=3 if arg == "objects" else None, required=True)

    p = sub.add_parser("hom-group", parents=[on_file])
    p.set_defaults(run=_cmd_hom_group)
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser("connecting", parents=[on_file])
    p.set_defaults(run=_cmd_connecting)
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("third")

    p = sub.add_parser("prove", parents=[common])
    p.set_defaults(run=_cmd_prove)
    p.add_argument("lemma", choices=list(_LEMMAS))
    p.add_argument("--connecting-scale", type=int, default=None,
                   help="mutation hook for the snake connecting arrow (prove snake only)")

    p = sub.add_parser("sweep", parents=[common])
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--range", type=_parse_range, default=(-3, 3))

    p = sub.add_parser("eval", parents=[on_file])
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--rep", required=True)
    p.add_argument("--object", default=None)

    return parser


def run_command(argv: Sequence[str]) -> int:
    argv = list(argv)
    # glue "--range -3..3" together so argparse does not read the value as a flag
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--range":
            argv[i:i + 2] = [f"--range={argv[i + 1]}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.json and args.seed is None:
        print("error: --json requires --seed for reproducible reports", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        result = args.run(args)
    except (OSError, ValueError) as exc:  # every adelcat error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError, OverflowError) as exc:
        print(f"error: input too large to compute ({type(exc).__name__})", file=sys.stderr)
        return 2
    return _emit(result, args, time.perf_counter() - start)


def main() -> None:
    try:
        sys.exit(run_command(sys.argv[1:]))
    except BrokenPipeError:
        sys.exit(0)


if __name__ == "__main__":
    main()
