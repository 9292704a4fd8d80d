"""Layer tracing from outside the program.

``Tracer.install`` replaces the public functions of every ``adelcat``
module, a short list of methods, and the two row-reduction kernels behind
``intlinalg._kernel`` (by name, so that the compiled kernel, whose
functions are not Python functions, is wrapped too) with wrappers that record one span per call: name,
parent span, start and end.  A function imported into another module with
``from .x import f`` is rebound there too, so every call path is seen.
Accessors and dunders are left alone, except the two constructors the
per-layer metrics need (``QuiverCategory.__init__`` as the category build
and ``AdelMorphism.__post_init__`` as witness validation).

Spans are kept in flat arrays while the run lasts and aggregated (or
written out) only at the end.  A layer's self time is the time during which
the innermost open span belongs to it; the harness opens a root span of
layer ``bench`` around each operation, so the self times of all layers add
up to the traced wall time.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("intlinalg", "quivercat", "addclosure", "adelman", "homgroups",
          "evalfunctor", "provers", "cli")

_MODULE_LAYER = {f"adelcat.{name}": name for name in LAYERS}

# Functions of the active kernel module, ``intlinalg._kernel``; their spans
# are named ``intlinalg.kernel.<function>``.
KERNEL_FUNCTIONS = ("hnf_rows", "mul_rows")

ROOT = "bench.op"

# Constructions of the free abelian category counted by adelman.constructions.
_CONSTRUCTIONS = frozenset(f"adelman.{n}" for n in (
    "kernel", "cokernel", "image", "homology", "kernel_lift", "cokernel_colift",
    "lift_along_mono", "colift_along_epi", "epi_as_cokernel",
    "connecting_homomorphism", "homology_comparison", "homology_map",
    "cokernel_map", "kernel_map"))


def _methods():
    """(class, attribute, span name) for the traced methods."""
    from adelcat import addclosure, adelman, cli, homgroups, intlinalg, provers, quivercat
    return (
        (quivercat.QuiverCategory, "__init__", "quivercat.build"),
        (quivercat.QuiverCategory, "lin", "quivercat.lin"),
        (quivercat.QuiverCategory, "opposite", "quivercat.opposite"),
        (intlinalg.FpAbGroup, "canonical_rep", "intlinalg.canonical_rep"),
        (intlinalg.FpAbGroup, "invariants", "intlinalg.invariants"),
        (addclosure.HomBasis, "flatten", "addclosure.HomBasis.flatten"),
        (addclosure.HomBasis, "unflatten", "addclosure.HomBasis.unflatten"),
        (addclosure.HomBasis, "rel_rows", "addclosure.HomBasis.rel_rows"),
        (adelman.AdelMorphism, "__post_init__", "adelman.validate"),
        (adelman.WitnessPair, "verifies", "adelman.WitnessPair.verifies"),
        (homgroups.HomGroupPresentation, "element", "homgroups.element"),
        (homgroups.HomGroupPresentation, "coordinates", "homgroups.coordinates"),
        (provers.ProofReport, "to_dict", "provers.ProofReport.to_dict"),
        (cli.Session, "__init__", "cli.session"),
    )


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        if row:
            b = max(map(abs, row)).bit_length()
            if b > best:
                best = b
    return best


class Tracer:
    """Span recorder; create one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, hook=None, root: bool = False):
        """Wrapper recording a span named ``name`` around each call of
        ``fn``; ``hook(args, result, span_index)`` runs after a normal
        return, outside the span.  Only a ``root`` wrapper records when no
        span is open, so work outside the harness's operations (set-up,
        result checks) is not traced."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1] < 0 and not root:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, idx)
            return result

        traced.__adelbench_original__ = fn
        return traced

    # -- hooks that record size statistics ---------------------------------

    def _hooks(self) -> dict:
        c = self.counters
        names, parents = self.span_name, self.span_parent
        decide = self._name_id("addclosure.decide_homotopy")

        def hnf(args, result, idx):
            rows, ncols = args[0], args[1]
            c["intlinalg.hnf.cells"] += len(rows) * ncols
            bits = max(_max_bits(rows), _max_bits(result[0]))
            if bits > c["intlinalg.hnf.max_bits"]:
                c["intlinalg.hnf.max_bits"] = bits

        def solve_left(args, result, idx):
            if result is None:
                c["intlinalg.solve_left.unsolvable"] += 1
            parent = parents[idx]
            if parent >= 0 and names[parent] == decide:
                system = args[0]
                c["addclosure.decide_homotopy.unknowns"] += system.rows
                c["addclosure.decide_homotopy.equations"] += system.cols

        def enumerate_paths(args, result, idx):
            c["quivercat.paths_enumerated"] += len(result)

        def compose_mat(args, result, idx):
            f, g = args[0], args[1]
            c["addclosure.compose_mat.entry_products"] += (
                len(f.source) * len(f.target) * len(g.target))

        def decide_homotopy(args, result, idx):
            if result is None:
                c["addclosure.decide_homotopy.unsolvable"] += 1

        def zero_witness(args, result, idx):
            if result is not None:
                c["adelman.zero_witness.found"] += 1

        def hom_group(args, result, idx):
            c["homgroups.generators"] += len(result.generators)

        def oracle_compare(args, result, idx):
            c["evalfunctor.oracle_checks"] += 1
            if not result.ok:
                c["evalfunctor.oracle_mismatches"] += 1

        return {
            "intlinalg.kernel.hnf_rows": hnf,
            "intlinalg.solve_left": solve_left,
            "quivercat.enumerate_paths": enumerate_paths,
            "addclosure.compose_mat": compose_mat,
            "addclosure.decide_homotopy": decide_homotopy,
            "adelman.zero_witness": zero_witness,
            "homgroups.hom_group": hom_group,
            "evalfunctor.oracle_compare": oracle_compare,
        }

    def _report_hook(self, args, result, idx):
        checks = getattr(result, "checks", None)
        if checks is not None:
            self.counters["provers.checks"] += len(checks)

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer-boundary function and method of ``adelcat``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in list(sys.modules.items())
                   if m is not None and (n == "adelcat" or n.startswith("adelcat."))}
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for mod_name, module in modules.items():
            layer = _MODULE_LAYER.get(mod_name)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod_name):
                    continue
                name = f"{layer}.{attr}"
                hook = hooks.get(name)
                if layer == "provers" and hook is None:
                    hook = self._report_hook
                wrapped[id(value)] = (value, self.wrap(value, name, hook))
        # Rebind every module attribute that refers to a wrapped function,
        # including copies made by ``from .x import f``.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for cls, attr, name in _methods():
            self._patch(cls, attr, self.wrap(vars(cls)[attr], name, hooks.get(name)))
        kernel = sys.modules["adelcat.intlinalg"]._kernel
        for attr in KERNEL_FUNCTIONS:
            name = f"intlinalg.kernel.{attr}"
            self._patch(kernel, attr, self.wrap(getattr(kernel, attr), name, hooks.get(name)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def summary(self, factors=None) -> dict[str, float]:
        """Per-layer metrics over everything recorded so far.

        ``factors[k]``, if given, multiplies the durations of the ``k``-th
        root span and of every span inside it (the harness passes each
        operation's factor to the reference speed)."""
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        durations = array("d", bytes(8 * n))
        root = -1
        for i in range(n):
            if parents[i] < 0:
                root += 1
            factor = 1.0 if factors is None else factors[root]
            durations[i] = (ends[i] - starts[i]) * factor
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += durations[i]
        name_layer = [_layer_of(nm) for nm in self.names]
        count = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_by_name = [0.0] * len(self.names)
        self_by_layer: dict[str, float] = defaultdict(float)
        entries: dict[str, int] = defaultdict(int)
        entry_time: dict[str, float] = defaultdict(float)
        for i in range(n):
            nid = names[i]
            layer = name_layer[nid]
            dur = durations[i]
            own = dur - child[i]
            count[nid] += 1
            incl[nid] += dur
            self_by_name[nid] += own
            self_by_layer[layer] += own
            p = parents[i]
            if p < 0 or name_layer[names[p]] != layer:
                entries[layer] += 1
                entry_time[layer] += dur

        def stat(table, name):
            nid = self._ids.get(name)
            return table[nid] if nid is not None else 0

        wall = entry_time["bench"]
        share = (lambda s: s / wall) if wall > 0 else (lambda s: 0.0)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_by_layer[layer]
            out[f"{layer}.share"] = share(self_by_layer[layer])
            out[f"{layer}.calls"] = entries[layer]
        kernel = [i for i, nm in enumerate(self.names) if nm.startswith("intlinalg.kernel.")]
        kernel_self = sum(self_by_name[i] for i in kernel)
        c = self.counters
        out.update({
            "intlinalg.kernel.self_s": kernel_self,
            "intlinalg.kernel.share": share(kernel_self),
            "intlinalg.kernel.calls": sum(count[i] for i in kernel),
            "intlinalg.hnf.cells": c["intlinalg.hnf.cells"],
            "intlinalg.hnf.max_bits": c["intlinalg.hnf.max_bits"],
            "intlinalg.solve_left.calls": stat(count, "intlinalg.solve_left"),
            "intlinalg.solve_left.unsolvable": c["intlinalg.solve_left.unsolvable"],
            "intlinalg.snf.calls": stat(count, "intlinalg.snf"),
            "intlinalg.canonical_rep.calls": stat(count, "intlinalg.canonical_rep"),
            "quivercat.build.calls": stat(count, "quivercat.build"),
            "quivercat.build_s": stat(incl, "quivercat.build"),
            "quivercat.paths_enumerated": c["quivercat.paths_enumerated"],
            "quivercat.compose_lin.calls": stat(count, "quivercat.compose_lin"),
            "quivercat.lin.calls": stat(count, "quivercat.lin"),
            "addclosure.compose_mat.calls": stat(count, "addclosure.compose_mat"),
            "addclosure.compose_mat.s": stat(incl, "addclosure.compose_mat"),
            "addclosure.compose_mat.entry_products": c["addclosure.compose_mat.entry_products"],
            "addclosure.decide_homotopy.calls": stat(count, "addclosure.decide_homotopy"),
            "addclosure.decide_homotopy.s": stat(incl, "addclosure.decide_homotopy"),
            "addclosure.decide_homotopy.unsolvable": c["addclosure.decide_homotopy.unsolvable"],
            "addclosure.decide_homotopy.unknowns": c["addclosure.decide_homotopy.unknowns"],
            "addclosure.decide_homotopy.equations": c["addclosure.decide_homotopy.equations"],
            "adelman.validate.calls": stat(count, "adelman.validate"),
            "adelman.validate_s": stat(incl, "adelman.validate"),
            "adelman.make_morphism.calls": stat(count, "adelman.make_morphism"),
            "adelman.make_morphism_s": stat(incl, "adelman.make_morphism"),
            "adelman.zero_witness.calls": stat(count, "adelman.zero_witness"),
            "adelman.zero_witness.found": c["adelman.zero_witness.found"],
            "adelman.constructions": sum(count[i] for i, nm in enumerate(self.names)
                                         if nm in _CONSTRUCTIONS),
            "homgroups.hom_group.calls": stat(count, "homgroups.hom_group"),
            "homgroups.hom_group_s": stat(incl, "homgroups.hom_group"),
            "homgroups.generators": c["homgroups.generators"],
            "evalfunctor.eval_s": entry_time["evalfunctor"],
            "evalfunctor.oracle_checks": c["evalfunctor.oracle_checks"],
            "evalfunctor.oracle_mismatches": c["evalfunctor.oracle_mismatches"],
            "provers.checks": c["provers.checks"],
            "provers.replay_s": stat(incl, "provers.replay_report"),
            "provers.certificates": stat(count, "provers.verify_certificate"),
            "cli.parse_s": stat(incl, "cli.parse_session") + stat(incl, "cli.parse_representation"),
            "cli.commands": stat(count, "cli.run_command"),
            "bench.outside_s": self_by_layer["bench"],
            "bench.wall_s": wall,
            "bench.spans": n,
        })
        return out

    def write(self, path: str):
        """Write every span to ``path``: one JSON header line (span names
        and array layout), then the name-id, parent, start and end arrays
        as raw machine bytes, in that order.  Parent -1 marks a root span."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [["name", self.span_name.typecode], ["parent", self.span_parent.typecode],
                       ["start", self.span_start.typecode], ["end", self.span_end.typecode]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
