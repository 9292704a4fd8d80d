"""Scripted machine-verification of homological lemmata.

Each prover reads a fixed diagram in the free abelian category over one
of the built-in ``.cat`` texts, whose ``object`` lines are the presentations
the diagram's constructions must reproduce, runs the categorical decision
procedures, and emits a structured report.  The snake figure and the five
data are built once per process, beside the session of their text, and are
read-only arrows; their kernels and cokernels are kept on the arrows.  A
prover call only decides and certifies its claims; each homotopy system is
decided where it is asked, and nothing a call decides is kept.  Failures
never raise; they become report entries.  Every passing check embeds a
certificate (witness pairs, explicit objects, invariant data) that
``replay_report`` re-verifies by plain matrix arithmetic without redoing
any search.

Zero morphisms, equality, mono, epi, iso and exactness are decided by
``adelman.CLAIMS``; this module only formats them.  A claim's certificate
carries its morphisms and one witness pair per part, found by search or
written down in closed form, and replay rebuilds from the morphisms what
each part declares null-homotopic, and decides nothing.  One replay reads
each distinct value once, through a table that lives for the replay: equal
copies in its certificates become one instance, validated once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence, Union, get_type_hints

from . import adelman as ad
from . import homgroups
from .addclosure import MatMorphism, TupleObject, compose_mat, from_blocks, identity_mat
from .adelman import (
    AdelMorphism,
    AdelObject,
    WitnessPair,
    cokernel,
    cokernel_colift,
    compose,
    connecting_homomorphism,
    emb_morphism,
    emb_vertex,
    homology,
    homology_comparison,
    homology_map,
    image,
    is_exact,
    is_zero_morphism,
    kernel,
    zero_adel_object,
)
from .catfile import Session, parse_session
from .evalfunctor import eval_object, zero_representation
from .intlinalg import FpAbGroup, IntMatrix
from .quivercat import LinMorphism, QuiverCategory


# -- report plumbing -----------------------------------------------------------

@dataclass(frozen=True)
class ProofCheck:
    description: str
    verdict: bool
    summary: str = ""
    certificate: Optional[dict] = None


@dataclass(frozen=True)
class ProofReport:
    lemma: str
    category: str
    checks: tuple[ProofCheck, ...]

    @property
    def overall(self) -> bool:
        return all(c.verdict for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "category": self.category,
            "overall": self.overall,
            "checks": [
                {
                    "description": c.description,
                    "verdict": c.verdict,
                    "summary": c.summary,
                    "certificate": c.certificate,
                }
                for c in self.checks
            ],
        }


class _Checks:
    """Collects ProofCheck entries; exceptions become failing entries."""

    def __init__(self):
        self.items: list[ProofCheck] = []

    def add(self, description: str, verdict: bool, summary: str = "",
            certificate: Optional[dict] = None):
        self.items.append(ProofCheck(description, bool(verdict), summary,
                                     certificate if verdict else None))

    def run(self, description: str, thunk):
        try:
            verdict, summary, certificate = thunk()
        except Exception as exc:  # failures are report entries, not crashes
            self.add(description, False, f"error: {exc}")
            return
        self.add(description, verdict, summary, certificate)


# -- built-in categories ---------------------------------------------------------

CATEGORY_TEXTS = {
    "snake": """category snake {  # a -> b -> c -> d with the full composite killed
  objects a b c d;
  arrows alpha: a -> b; beta: b -> c; gamma: c -> d;
  relations alpha*beta*gamma = 0;
}
# the presentations the snake figure's constructions must have
object coker_alpha = (alpha |);
object K = (alpha | beta*gamma);
object ker_gamma = (| gamma);
object C = (alpha*beta | gamma);
object ker_beta = (| beta);
object ker_delta = (| alpha*beta);
object coker_beta = (beta |);
object coker_eps = (beta*gamma |);""",
    "five": """category five {  # the grid of the refined five-term situation
  objects i a b c f g h j;
  arrows lambda: i -> a; alpha: a -> b; beta: b -> c; epsilon: b -> f;
         zeta: c -> g; iota: f -> g; kappa: g -> h; mu: h -> j;
  relations alpha*beta = 0; iota*kappa = 0; beta*zeta = epsilon*iota;
    # Both hold in every abelian-category instance of the premise (the outer
    # verticals are a cokernel projection and a kernel embedding); without
    # them the outer horizontal arrows of the diagram are not well-defined.
    lambda*alpha*epsilon = 0; zeta*kappa*mu = 0;
}
# the outer objects and the proof steps' 1x1 presentations
object E = (lambda |);
object D = (| mu);
object w1 = (beta | zeta*kappa);  # H(beta, zeta*kappa), step 1
object wa = (alpha | beta);  # H at emb(b), step 3
object wb = (alpha*epsilon | iota);  # H at emb(f), step 3""",
    "d4": """category d4 {  # three sources with a common sink, no relations
  objects x y z w;
  arrows p: x -> w; q: y -> w; r: z -> w;
}""",
}


@functools.cache
def _session(name: str) -> Session:
    """The session of the built-in text ``name``, built once per process: it
    holds no proof state, only Hom data and read-only objects."""
    if name not in CATEGORY_TEXTS:
        raise ValueError(f"unknown prover category {name!r}")
    return Session(parse_session(CATEGORY_TEXTS[name]))


def category_by_name(name: str) -> QuiverCategory:
    """The category of the built-in text ``name``, one instance per name."""
    return _session(name).cat


# -- the certificate codec -------------------------------------------------------

# The JSON fields of each value type of a certificate: its dataclass fields,
# each read back as its annotated type.  A matrix morphism is the leaf.
_FIELDS = {cls: get_type_hints(cls) for cls in (AdelObject, AdelMorphism, WitnessPair)}


def to_json(value) -> dict:
    """The JSON form of a matrix morphism, object, morphism or witness pair.
    A matrix morphism's entries are path coefficient vectors, its
    coordinates padded with zeros at the unit pivots."""
    if isinstance(value, MatMorphism):
        xs, ys, pad = value.source.summands, value.target.summands, value.cat.pad
        return {"source": list(xs), "target": list(ys),
                "entries": [[list(pad(a, b, block)) for b, block in zip(ys, row)]
                            for a, row in zip(xs, value.blocks)]}
    return {name: to_json(getattr(value, name)) for name in _FIELDS[type(value)]}


_ser_obj = to_json  # the benchmark harness serializes objects by this name


def _typed(value, kind: type):
    """``value`` if its type is exactly ``kind``: a bool or a float is no int."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _list_of(value, kind: type) -> tuple:
    if type(value) is not list or not all([type(v) is kind for v in value]):
        raise TypeError(f"expected a list of {kind.__name__}")
    return tuple(value)


def from_json(cat: QuiverCategory, kind: type, data):
    """The value of type ``kind`` over ``cat`` that ``to_json`` wrote as
    ``data``, built by its validating constructor.  A missing field raises
    ``KeyError``, a field of another JSON type (a coefficient must be exactly
    an int) ``TypeError``, and a grid of the wrong shape ``ValueError``.
    Each call reads with a table of its own (see ``_read``)."""
    return _read(cat, kind, data, {})


def _read(cat: QuiverCategory, kind: type, data, table: dict):
    """``from_json`` that builds each distinct value once per ``table``, so
    equal copies are one instance: a matrix morphism is keyed by its
    type-checked fields, any other value by its already-read fields.  A
    table holds the values of one category, and a read that raises stores
    nothing."""
    if kind is not MatMorphism:
        parts = tuple([_read(cat, t, data[name], table) for name, t in _FIELDS[kind].items()])
        key, build = (kind, parts), lambda: kind(*parts)
    else:
        src, tgt = _list_of(data["source"], str), _list_of(data["target"], str)
        grid = tuple([tuple([_list_of(block, int) for block in _typed(row, list)])
                      for row in _typed(data["entries"], list)])
        key, build = (MatMorphism, src, tgt, grid), lambda: _matrix(cat, src, tgt, grid)
    try:
        return table[key]
    except KeyError:
        value = table[key] = build()
        return value


def _matrix(cat: QuiverCategory, src: tuple, tgt: tuple, grid: tuple) -> MatMorphism:
    return MatMorphism(TupleObject(cat, src), TupleObject(cat, tgt), tuple(
        tuple(LinMorphism(cat, a, b, block) for b, block in zip(tgt, row, strict=True))
        for a, row in zip(src, grid, strict=True)))


def claim_certificate(kind: str, *fs: AdelMorphism,
                      witnesses: Optional[dict[str, WitnessPair]] = None) -> Optional[dict]:
    """The certificate of the claim ``kind`` (a key of ``adelman.CLAIMS``)
    about the morphisms ``fs`` with the given witness pairs (by key), or
    with pairs found by search when none are given; None when the claim
    does not hold or a given pair fails its part."""
    if witnesses is None:
        witnesses = ad.claim_witnesses(kind, *fs)
        if witnesses is None:
            return None
    elif not ad.claim_verifies(kind, fs, witnesses):
        return None
    names = ad.CLAIMS[kind][0]
    return {"kind": kind, **{name: to_json(f) for name, f in zip(names, fs)},
            **{key: to_json(wp) for key, wp in witnesses.items()}}


def invariants_certificate(group, factors, free_rank) -> dict:
    """The ``invariants`` certificate: a presented group with the invariant
    factors and free rank claimed for it."""
    return {
        "kind": "invariants",
        "ngens": group.ngens,
        "relations": group.relations.to_rows(),
        "factors": list(factors),
        "free_rank": free_rank,
    }


def verify_certificate(cat: QuiverCategory, cert: dict, table: Optional[dict] = None) -> bool:
    """Re-check one certificate by direct matrix arithmetic (no search).  A
    missing or mistyped field fails the certificate; an unknown kind raises.
    The certificate's values are read through ``table`` (see ``_read``), a
    fresh one when none is given."""
    if table is None:
        table = {}
    try:
        kind = cert["kind"]
        if kind == "structural":
            return (_read(cat, AdelObject, cert["left"], table)
                    == _read(cat, AdelObject, cert["right"], table))
        if kind in ad.CLAIMS:
            names, parts = ad.CLAIMS[kind]
            fs = [_read(cat, AdelMorphism, cert[name], table) for name in names]
            return ad.claim_verifies(
                kind, fs, {key: _read(cat, WitnessPair, cert[key], table) for key, _ in parts})
        if kind == "invariants":
            ngens = _typed(cert["ngens"], int)
            relations = [_list_of(row, int) for row in _typed(cert["relations"], list)]
            inv = FpAbGroup(ngens, IntMatrix.from_rows(relations, cols=ngens)).invariants().reduced()
            return (inv.factors == _list_of(cert["factors"], int)
                    and inv.free_rank == _typed(cert["free_rank"], int))
    except (KeyError, TypeError, ValueError):  # every adelcat error is a ValueError
        return False
    raise ValueError(f"unknown certificate kind {kind!r}")


def replay_report(report: dict) -> bool:
    """Re-verify every embedded certificate of a serialized report.

    Passing checks must carry a valid certificate; failing checks carry none
    and are left alone.  Returns True when all certificates verify.  A
    report without a category name, a nonempty list of checks, or a boolean
    verdict in each check is malformed and raises ``ValueError``.  The
    certificates are read through one table that lives for this call.
    """
    if not isinstance(report, dict) or not isinstance(report.get("category"), str):
        raise ValueError("malformed report: no category name")
    if not isinstance(report.get("checks"), list):
        raise ValueError("malformed report: no list of checks")
    if not report["checks"]:
        raise ValueError("malformed report: empty list of checks")
    for i, check in enumerate(report["checks"]):
        if not isinstance(check, dict) or not isinstance(check.get("verdict"), bool):
            raise ValueError(f"malformed report: check {i} has no boolean verdict")
    cat = category_by_name(report["category"])
    table: dict = {}
    for check in report["checks"]:
        cert = check.get("certificate")
        if check["verdict"] and cert is not None:
            if not verify_certificate(cat, cert, table):
                return False
    return True


def _grid(cat: QuiverCategory, rows: str, cols: str,
          parts: Sequence[Sequence[Union[MatMorphism, int]]]) -> MatMorphism:
    """The block matrix between sums of the one-vertex objects named in
    ``rows`` and ``cols``.  A part is a 1x1 morphism or an integer ``c``:
    ``c`` times the identity, reduced as ``scale`` reduces it, and 0 the zero
    part (``from_blocks``)."""
    def objects(names: str) -> list[TupleObject]:
        return [TupleObject(cat, (v,)) for v in names.split()]
    return from_blocks(objects(rows), objects(cols), parts)


# -- check helpers --------------------------------------------------------------

def _check_structural(checks: _Checks, description: str, left: AdelObject,
                      right: AdelObject):
    checks.add(description, left == right,
               "objects coincide" if left == right else "objects differ",
               {"kind": "structural", "left": to_json(left), "right": to_json(right)})


def _check_claim(checks: _Checks, description: str, kind: str,
                 build: Callable[[], tuple], summary: Optional[str] = None):
    """The morphisms returned by ``build`` (called inside the check, so that
    its failures are report entries; None for one that does not exist)
    satisfy the claim ``kind``; ``summary`` describes a pass, ``kind`` by
    default."""
    def thunk():
        fs = build()
        if None in fs:
            return False, "morphism does not exist", None
        cert = claim_certificate(kind, *fs)
        if cert is None:
            return False, f"not {kind}", None
        return True, summary or kind, cert
    checks.run(description, thunk)


def _check_square(checks: _Checks, description: str, f1: AdelMorphism, f2: AdelMorphism,
                  g1: AdelMorphism, g2: AdelMorphism):
    """The square ``f1 * f2 == g1 * g2`` commutes: the claim ``equal``."""
    _check_claim(checks, description, "equal", lambda: (compose(f1, f2), compose(g1, g2)))


def _check_composite_zero(checks: _Checks, description: str, f: AdelMorphism,
                          g: AdelMorphism):
    _check_claim(checks, description, "zero", lambda: (compose(f, g),))


# -- the snake figure ------------------------------------------------------------

@dataclass(frozen=True)
class SnakeFigure:
    """All arrows of the universal snake diagram; the kernels and cokernels
    of the diagram are those of its arrows (K is ``kernel(eps)``, C is
    ``cokernel(delta)``), kept on each arrow."""

    cat: QuiverCategory
    objects: Mapping               # the snake text's object lines, over cat
    emb: Mapping                   # emb(v) for each vertex v, read-only
    alpha: AdelMorphism
    beta: AdelMorphism
    gamma: AdelMorphism
    eps: AdelMorphism              # coker(alpha) -> emb(d)
    delta: AdelMorphism            # emb(a) -> ker(gamma)
    blue1: AdelMorphism            # ker(delta) -> ker(beta), datum alpha
    blue2: AdelMorphism            # ker(beta) -> K, datum id_b
    connecting: AdelMorphism       # K -> C, datum beta
    blue4: AdelMorphism            # C -> coker(beta), datum id_c
    blue5: AdelMorphism            # coker(beta) -> coker(eps), datum gamma


@functools.cache
def build_snake_figure() -> SnakeFigure:
    """The snake figure, built once per process beside its session."""
    session = _session("snake")
    cat, arrow = session.cat, session.morphism
    al, be, ga = map(session.arrow, ("alpha", "beta", "gamma"))
    emb = MappingProxyType({v: emb_vertex(cat, v) for v in "abcd"})

    alpha, beta, gamma = map(emb_morphism, (al, be, ga))
    eps = arrow("beta*gamma", cokernel(alpha).obj, emb["d"])
    delta = arrow("alpha*beta", emb["a"], kernel(gamma).obj)

    blue1 = arrow("alpha", kernel(delta).obj, kernel(beta).obj)
    blue2 = arrow("id(b)", kernel(beta).obj, kernel(eps).obj)
    connecting = connecting_homomorphism(al, be, ga)
    blue4 = arrow("id(c)", cokernel(delta).obj, cokernel(beta).obj)
    blue5 = arrow("gamma", cokernel(beta).obj, cokernel(eps).obj)

    return SnakeFigure(cat, session.objects, emb, alpha, beta, gamma, eps, delta,
                       blue1, blue2, connecting, blue4, blue5)


def prove_snake(connecting_scale: int = 1) -> ProofReport:
    """Verify the universal snake diagram: constructed objects match their
    explicit presentations, all squares commute, rows and columns are
    exact, and the six-term sequence through the connecting morphism is
    exact at its four interior objects.

    ``connecting_scale`` is a mutation hook: scaling the connecting arrow by
    anything other than +-1 must break exactness exactly at its two ends.
    """
    fig = build_snake_figure()
    connecting = fig.connecting.scale(connecting_scale)
    cat = fig.cat
    checks = _Checks()

    constructed = {
        "coker(alpha)": cokernel(fig.alpha).obj,
        "K": kernel(fig.eps).obj,
        "ker(gamma)": kernel(fig.gamma).obj,
        "C": cokernel(fig.delta).obj,
        "ker(beta)": kernel(fig.beta).obj,
        "ker(delta)": kernel(fig.delta).obj,
        "coker(beta)": cokernel(fig.beta).obj,
        "coker(eps)": cokernel(fig.eps).obj,
    }
    for name, obj in constructed.items():
        # .cat names are identifiers: coker(alpha) is the text's coker_alpha
        _check_structural(checks, f"object {name} has its explicit presentation",
                          obj, fig.objects[name.replace("(", "_").rstrip(")")])

    _check_square(checks, "square ker(delta) -> ker(beta) -> emb(b) commutes",
                  fig.blue1, kernel(fig.beta).emb, kernel(fig.delta).emb, fig.alpha)
    _check_square(checks, "square ker(beta) -> K -> coker(alpha) commutes",
                  fig.blue2, kernel(fig.eps).emb,
                  kernel(fig.beta).emb, cokernel(fig.alpha).proj)
    _check_square(checks, "square emb(a) -> emb(b) -> emb(c) commutes",
                  fig.alpha, fig.beta, fig.delta, kernel(fig.gamma).emb)
    _check_square(checks, "square emb(b) -> coker(alpha) -> emb(d) commutes",
                  cokernel(fig.alpha).proj, fig.eps, fig.beta, fig.gamma)
    _check_square(checks, "square ker(gamma) -> C -> coker(beta) commutes",
                  cokernel(fig.delta).proj, fig.blue4,
                  kernel(fig.gamma).emb, cokernel(fig.beta).proj)
    _check_square(checks, "square emb(c) -> emb(d) -> coker(eps) commutes",
                  fig.gamma, cokernel(fig.eps).proj, cokernel(fig.beta).proj, fig.blue5)

    def exact(description, f, g):
        _check_claim(checks, description, "exact", lambda: (f, g))

    # exactness next to a zero object: at the end of a sequence it is the
    # epi claim of the arrow into that spot, at the start the mono claim of
    # the arrow out of it
    def exact_at_end(description, f):
        _check_claim(checks, description, "epi", lambda: (f,))

    def exact_at_start(description, g):
        _check_claim(checks, description, "mono", lambda: (g,))

    exact("top row exact at emb(b)", fig.alpha, cokernel(fig.alpha).proj)
    exact_at_end("top row exact at coker(alpha)", cokernel(fig.alpha).proj)
    exact_at_start("bottom row exact at ker(gamma)", kernel(fig.gamma).emb)
    exact("bottom row exact at emb(c)", kernel(fig.gamma).emb, fig.gamma)

    exact_at_start("first column exact at ker(delta)", kernel(fig.delta).emb)
    exact("first column exact at emb(a)", kernel(fig.delta).emb, fig.delta)
    exact("first column exact at ker(gamma)", fig.delta, cokernel(fig.delta).proj)
    exact_at_end("first column exact at C", cokernel(fig.delta).proj)
    exact_at_start("middle column exact at ker(beta)", kernel(fig.beta).emb)
    exact("middle column exact at emb(b)", kernel(fig.beta).emb, fig.beta)
    exact("middle column exact at emb(c)", fig.beta, cokernel(fig.beta).proj)
    exact_at_end("middle column exact at coker(beta)", cokernel(fig.beta).proj)
    exact_at_start("last column exact at K", kernel(fig.eps).emb)
    exact("last column exact at coker(alpha)", kernel(fig.eps).emb, fig.eps)
    exact("last column exact at emb(d)", fig.eps, cokernel(fig.eps).proj)
    exact_at_end("last column exact at coker(eps)", cokernel(fig.eps).proj)

    _check_composite_zero(checks, "blue composite ker(delta) -> ker(beta) -> K is zero",
                          fig.blue1, fig.blue2)
    _check_composite_zero(checks, "blue composite ker(beta) -> K -> C is zero",
                          fig.blue2, connecting)
    _check_composite_zero(checks, "blue composite K -> C -> coker(beta) is zero",
                          connecting, fig.blue4)
    _check_composite_zero(checks, "blue composite C -> coker(beta) -> coker(eps) is zero",
                          fig.blue4, fig.blue5)

    exact("blue sequence exact at ker(beta)", fig.blue1, fig.blue2)
    exact("blue sequence exact at K (connecting source)", fig.blue2, connecting)
    exact("blue sequence exact at C (connecting target)", connecting, fig.blue4)
    exact("blue sequence exact at coker(beta)", fig.blue4, fig.blue5)

    lemma = "universal snake diagram"
    if connecting_scale != 1:
        lemma += f" (connecting arrow scaled by {connecting_scale})"
    return ProofReport(lemma, cat.name, tuple(checks.items))


def explicit_sweep_witness(fig: SnakeFigure, s: int,
                           conn_s: AdelMorphism) -> tuple[AdelMorphism, WitnessPair]:
    """The kernel-to-cokernel composite at ``conn_s``, the connecting morphism
    of the unscaled ``fig`` scaled by s, and its closed-form witness pair for
    exactness at the connecting source, valid exactly for s in {-1, +1}."""
    grid = functools.partial(_grid, fig.cat)
    via = compose(kernel(conn_s).emb, cokernel(fig.blue2).proj)
    alpha = _session("snake").arrow("alpha")
    return via, WitnessPair(grid("b a", "a b", [[0, 1], [-s, alpha.scale(s)]]),
                            grid("d c", "b c", [[0, 0], [0, -s]]))


def sweep_report(s_values: Sequence[int]) -> ProofReport:
    """Exactness sweep as a report, re-verifying the closed-form witness pair
    at s = -1 and s = +1."""
    return sweep(s_values)[0]


def sweep(s_values: Sequence[int]) -> tuple[ProofReport, dict[int, Optional[bool]]]:
    """The sweep report together with the exactness found for each s (None
    where the check raised).  An empty ``s_values`` is a ``ValueError``: a
    sweep that checks nothing proves nothing."""
    s_values = [int(s) for s in s_values]
    if not s_values:
        raise ValueError("the sweep needs at least one value of s")
    fig = build_snake_figure()
    checks = _Checks()
    results: dict[int, Optional[bool]] = {}
    for s in s_values:
        expect = s in (-1, 1)
        results[s] = None
        # one scaled morphism per s, so both checks read the kernel kept on it
        conn_s = fig.connecting.scale(s)

        def exact_thunk(s=s, expect=expect, conn_s=conn_s):
            cert = claim_certificate("exact", fig.blue2, conn_s)
            results[s] = exact = cert is not None
            if exact != expect:
                return False, f"exactness = {exact}, expected {expect}", None
            return True, "exact" if exact else "not exact (as expected)", cert
        checks.run(f"blue sequence exact at K for s = {s}", exact_thunk)
        if expect:
            def thunk(s=s, conn_s=conn_s):
                via, wp = explicit_sweep_witness(fig, s, conn_s)
                cert = claim_certificate("zero", via, witnesses={"wp": wp})
                return cert is not None, "closed-form witness pair re-verified", cert
            checks.run(f"closed-form witness pair valid for s = {s}", thunk)
    report = ProofReport("exactness parameter sweep", fig.cat.name, tuple(checks.items))
    return report, results


def prove_connecting_uniqueness() -> ProofReport:
    """The morphisms K -> C form a free group of rank one generated by the
    connecting morphism; only the generator and its inverse make the blue
    sequence exact."""
    fig = build_snake_figure()
    cat = fig.cat
    checks = _Checks()

    hg = homgroups.hom_group(kernel(fig.eps).obj, cokernel(fig.delta).obj)
    inv = hg.group.invariants().reduced()

    def inv_thunk():
        ok = inv.free_rank == 1 and not inv.factors
        return ok, f"Hom(K, C) = {inv.describe()}", invariants_certificate(
            hg.group, inv.factors, inv.free_rank)
    checks.run("Hom(K, C) is free of rank one", inv_thunk)

    def gen_thunk():
        if len(hg.generators) != 1:
            return False, f"{len(hg.generators)} generators", None
        gen = hg.generators[0]
        for sign, conn in (("+", fig.connecting), ("-", -fig.connecting)):
            cert = claim_certificate("equal", gen, conn)
            if cert is not None:
                return True, f"generator = {sign}[beta]", cert
        return False, "generator is not the connecting datum up to sign", None
    checks.run("the generator is the connecting morphism up to sign", gen_thunk)

    for a, b in (("b", "a"), ("d", "c")):
        def hom_thunk(a=a, b=b):
            group = cat.hom_group_lin(a, b)
            ok = group.ngens == 0 and group.is_trivial()
            return ok, f"Hom({a},{b}) has no paths", invariants_certificate(group, (), 0)
        checks.run(f"auxiliary Hom({a},{b}) is trivial", hom_thunk)

    exactness = {s: is_exact(fig.blue2, fig.connecting.scale(s)) for s in range(-3, 4)}
    ok_sweep = all(v == (s in (-1, 1)) for s, v in exactness.items())
    checks.add("exactness over s in -3..3 holds exactly at -1 and +1", ok_sweep,
               ", ".join(f"{s}:{'exact' if v else 'not'}" for s, v in sorted(exactness.items())))

    return ProofReport("connecting morphism uniqueness", cat.name, tuple(checks.items))


# -- the refined five-term situation --------------------------------------------

@dataclass(frozen=True)
class FiveData:
    """The universal diagram of the refined five-term lemma, with the
    auxiliary objects of the four proof steps."""

    cat: QuiverCategory
    objects: Mapping                  # the five text's object lines (E, D, w1, wa, wb), over cat
    lam: AdelMorphism                 # emb(i) -> emb(a); cokernel E, projection delta
    mu: AdelMorphism                  # emb(h) -> emb(j); kernel D, embedding eta
    top1: AdelMorphism                # emb(a) -> emb(b), alpha
    top2: AdelMorphism                # emb(b) -> emb(c), beta
    top3: AdelMorphism                # emb(c) -> D, zeta*kappa
    bot1: AdelMorphism                # E -> emb(f), alpha*epsilon
    bot2: AdelMorphism                # emb(f) -> emb(g), iota
    bot3: AdelMorphism                # emb(g) -> emb(h), kappa
    eps: AdelMorphism                 # emb(b) -> emb(f)
    zeta: AdelMorphism                # emb(c) -> emb(g)
    w2: AdelObject                    # step 2 explicit object
    w3: AdelObject                    # step 3 explicit object
    m21: AdelMorphism                 # ker(eps) -> ker(zeta)
    m22: AdelMorphism                 # ker(zeta) -> w1
    nu: AdelMorphism                  # coker(m21) -> w1 colift; its kernel object must be w2
    m3: AdelMorphism                  # wa -> wb, datum epsilon; its cokernel object must be w3
    m4: AdelMorphism                  # w2 -> w3, the explicit chain map


@functools.cache
def build_five_data() -> FiveData:
    """The five data, built once per process beside its session."""
    session = _session("five")
    cat, arrow = session.cat, session.morphism
    m = {a.label: session.arrow(a.label) for a in cat.quiver.arrows}
    emb = {v: emb_vertex(cat, v) for v in "iabcfghj"}

    lam = emb_morphism(m["lambda"])
    mu = emb_morphism(m["mu"])

    top1 = emb_morphism(m["alpha"])
    top2 = emb_morphism(m["beta"])
    top3 = arrow("zeta*kappa", emb["c"], kernel(mu).obj)
    bot1 = arrow("alpha*epsilon", cokernel(lam).obj, emb["f"])
    bot2 = emb_morphism(m["iota"])
    bot3 = emb_morphism(m["kappa"])
    eps = emb_morphism(m["epsilon"])
    zeta = emb_morphism(m["zeta"])

    m21 = arrow("beta", kernel(eps).obj, kernel(zeta).obj)
    m22 = arrow("id(c)", kernel(zeta).obj, session.objects["w1"])
    zwp = is_zero_morphism(compose(m21, m22))
    if zwp is None:
        raise RuntimeError("step 2 composite is not zero")
    nu = cokernel_colift(m21, m22, zwp)

    grid = functools.partial(_grid, cat)
    w2 = AdelObject(grid("b b", "c f b", [[m["beta"], m["epsilon"], 0],
                                          [0, 0, 1]]),
                    grid("c f b", "g f c", [[m["zeta"], 0, 1],
                                            [0, 1, 0],
                                            [0, 0, m["beta"]]]))

    m3 = arrow("epsilon", session.objects["wa"], session.objects["wb"])
    w3 = AdelObject(grid("a b", "f c", [[compose_mat(m["alpha"], m["epsilon"]), 0],
                                        [m["epsilon"], m["beta"]]]),
                    grid("f c", "g c", [[m["iota"], 0],
                                        [0, 1]]))

    m4 = AdelMorphism(w2, w3,
                      grid("c f b", "f c", [[0, 1], [1, 0], [m["epsilon"], m["beta"]]]),
                      grid("b b", "a b", [[0, 1], [0, 1]]),
                      grid("g f c", "g c", [[-1, 0], [m["iota"], 0], [m["zeta"], 1]]))

    return FiveData(cat, session.objects, lam, mu, top1, top2, top3, bot1,
                    bot2, bot3, eps, zeta, w2, w3, m21, m22, nu, m3, m4)


def explicit_five_witness(data: FiveData) -> WitnessPair:
    """The explicit big witness pair certifying that the kernel object of
    the step-4 chain map is zero."""
    grid = functools.partial(_grid, data.cat)
    alpha = _session("five").arrow("alpha")
    return WitnessPair(
        grid("c f b a b", "b b a b", [[0, 0, 0, 0],
                                      [0, 0, 0, 0],
                                      [-1, 1, 0, 0],
                                      [-alpha, 0, 1, 0],
                                      [-1, 0, 0, 1]]),
        grid("g f c f c", "c f b a b", [[0, 0, 0, 0, 0],
                                        [0, 0, 0, 0, 0],
                                        [0, 0, 0, 0, 0],
                                        [0, 1, 0, 0, 0],
                                        [1, 0, 0, 0, 0]]))


def prove_refined_five() -> ProofReport:
    """Verify the universal diagram of the refined five-term lemma: the
    premise (outer epi/mono, commuting squares, zero composites) and the
    four proof steps, ending with the monomorphism verdict certified both by
    search and by the explicit closed-form witness matrices."""
    data = build_five_data()
    cat = data.cat
    checks = _Checks()

    _check_structural(checks, "E is presented as (i -> a -> 0)",
                      cokernel(data.lam).obj, data.objects["E"])
    _check_structural(checks, "D is presented as (0 -> h -> j)",
                      kernel(data.mu).obj, data.objects["D"])

    _check_claim(checks, "delta (cokernel projection of lambda) is an epi", "epi",
                 lambda: (cokernel(data.lam).proj,), "cokernel is zero")
    _check_claim(checks, "eta (kernel embedding of mu) is a mono", "mono",
                 lambda: (kernel(data.mu).emb,), "kernel is zero")

    _check_square(checks, "left square commutes",
                  data.top1, data.eps, cokernel(data.lam).proj, data.bot1)
    _check_square(checks, "middle square commutes", data.top2, data.zeta, data.eps, data.bot2)
    _check_square(checks, "right square commutes",
                  data.top3, kernel(data.mu).emb, data.zeta, data.bot3)

    _check_composite_zero(checks, "top composite alpha * beta is zero", data.top1, data.top2)
    _check_composite_zero(checks, "top composite beta * (zeta*kappa) is zero",
                          data.top2, data.top3)
    _check_composite_zero(checks, "bottom composite (alpha*epsilon) * iota is zero",
                          data.bot1, data.bot2)
    _check_composite_zero(checks, "bottom composite iota * kappa is zero", data.bot2, data.bot3)

    @functools.cache
    def comparison(first, second, w):  # the homology of (first, second) and its comparison from w
        h = homology(first, second)
        return h, homology_comparison(h, w, identity_mat(h.cok.obj.middle))

    # step 1
    _check_claim(checks, "step 1: homology of the top right pair has the composable-pair form",
                 "iso", lambda: (comparison(data.top2, data.top3, data.objects["w1"])[1],),
                 "H(beta, zeta*kappa) = (b -> c -> h)")

    # step 2
    _check_structural(checks,
                      "step 2: kernel of the colift equals the explicit 2-3-3 object",
                      kernel(data.nu).obj, data.w2)

    # step 3
    _check_structural(checks,
                      "step 3: cokernel of the middle homology map equals the explicit object",
                      cokernel(data.m3).obj, data.w3)

    _check_claim(checks, "step 3: top homology identification", "iso",
                 lambda: (comparison(data.top1, data.top2, data.objects["wa"])[1],),
                 "H at emb(b) = (a -> b -> c)")
    _check_claim(checks, "step 3: bottom homology identification", "iso",
                 lambda: (comparison(data.bot1, data.bot2, data.objects["wb"])[1],),
                 "H at emb(f) = (a -> f -> g)")

    def step3_square():
        h_top, comp_a = comparison(data.top1, data.top2, data.objects["wa"])
        h_bot, comp_b = comparison(data.bot1, data.bot2, data.objects["wb"])
        if comp_a is None or comp_b is None:
            return (None,)
        hmap = homology_map(h_top, h_bot, data.eps)
        return compose(comp_a, hmap), compose(data.m3, comp_b)
    _check_claim(checks, "step 3: induced homology map is the explicit comparison morphism",
                 "equal", step3_square,
                 "H(eps) matches the explicit comparison morphism under the identifications")

    # step 4
    _check_claim(checks, "step 4: the explicit chain map is a monomorphism", "mono",
                 lambda: (data.m4,), "kernel is zero")

    def step4_witness():
        cert = claim_certificate("mono", data.m4,
                                 witnesses={"kernel_zero_wp": explicit_five_witness(data)})
        return cert is not None, "explicit 5x4 / 5x5 witness matrices re-verified", cert
    checks.run("step 4: the explicit witness matrices certify the kernel is zero",
               step4_witness)

    def degenerate():
        rep = zero_representation(cat, rank=0)
        invs = [
            eval_object(rep, data.w2).invariants(),
            eval_object(rep, data.w3).invariants(),
            eval_object(rep, kernel(data.m4).obj).invariants(),
        ]
        ok = all(i.is_trivial() for i in invs)
        return ok, "all step objects evaluate to the trivial group", None
    checks.run("degenerate evaluation: everything-zero representation", degenerate)

    return ProofReport("universal refined five-term lemma", cat.name, tuple(checks.items))


# -- the D4 exploration (stretch) ------------------------------------------------

def explore_d4() -> ProofReport:
    """Subobject comparisons of the three canonical images inside the
    embedded sink of the three-source star quiver.  Each image embedding is
    certified a mono; the comparison pattern is recorded without asserting
    any particular value."""
    session = _session("d4")
    checks = _Checks()
    images = {}
    for lbl in ("p", "q", "r"):
        img = image(emb_morphism(session.arrow(lbl)))
        images[lbl] = img
        _check_claim(checks, f"embedding of im({lbl}) is a mono", "mono",
                     lambda img=img: (img.emb,), "kernel is zero")

    pattern = {}

    def pairwise():
        for la in images:
            for lb in images:
                pattern[(la, lb)] = ad.subobject_leq(images[la].emb, images[lb].emb)
        reflexive = all(pattern[(l, l)] for l in images)
        summary = ", ".join(
            f"im({a}){'<=' if v else '!<='}im({b})" for (a, b), v in sorted(pattern.items()) if a != b)
        return reflexive, summary, None
    checks.run("pairwise subobject comparisons computed", pairwise)

    def joins():
        for la, lb in (("p", "q"), ("p", "r"), ("q", "r")):
            combined = ad.morphism_from_sum(images[la].emb, images[lb].emb)
            join = image(combined)
            for part in (la, lb):
                if not ad.subobject_leq(images[part].emb, join.emb):
                    return False, f"im({part}) not below join({la},{lb})", None
        return True, "binary joins computed and dominate their parts", None
    checks.run("binary joins of the image subobjects computed", joins)

    return ProofReport("three-subspace exploration", session.cat.name, tuple(checks.items))


# -- oracle item suites -----------------------------------------------------------

def snake_oracle_items(fig: SnakeFigure) -> list[tuple]:
    """Transport checks for the snake diagram: kernels, cokernels,
    homologies, exactness verdicts, and mono/epi claims as zero kernels and
    cokernels."""
    items: list[tuple] = []
    named = [fig.alpha, fig.beta, fig.gamma, fig.delta, fig.eps, fig.connecting]
    for f in named:
        items.append(("kernel", f, kernel(f).obj))
        items.append(("cokernel", f, cokernel(f).obj))
    items.append(("homology", fig.alpha, fig.beta, homology(fig.alpha, fig.beta).obj))
    items.append(("homology", fig.beta, fig.gamma, homology(fig.beta, fig.gamma).obj))
    items.append(("homology", fig.blue2, fig.connecting,
                  homology(fig.blue2, fig.connecting).obj))
    items.append(("homology", fig.connecting, fig.blue4,
                  homology(fig.connecting, fig.blue4).obj))
    blue = [fig.blue1, fig.blue2, fig.connecting, fig.blue4, fig.blue5]
    for f, g in zip(blue, blue[1:]):
        items.append(("exact", f, g, is_exact(f, g)))
    items.append(("exact", fig.alpha, cokernel(fig.alpha).proj,
                  is_exact(fig.alpha, cokernel(fig.alpha).proj)))
    items.append(("exact", kernel(fig.gamma).emb, fig.gamma,
                  is_exact(kernel(fig.gamma).emb, fig.gamma)))
    zero = zero_adel_object(fig.cat)  # mono and epi: a zero kernel or cokernel
    items.append(("kernel", kernel(fig.eps).emb, zero))
    items.append(("cokernel", cokernel(fig.alpha).proj, zero))
    items.append(("cokernel", cokernel(fig.delta).proj, zero))
    return items


def five_oracle_items(data: FiveData) -> list[tuple]:
    items: list[tuple] = []
    grid = [data.top1, data.top2, data.top3, data.bot1, data.bot2, data.bot3,
            data.eps, data.zeta, data.m3, data.m4]
    for f in grid:
        items.append(("kernel", f, kernel(f).obj))
        items.append(("cokernel", f, cokernel(f).obj))
    items.append(("homology", data.top2, data.top3,
                  homology(data.top2, data.top3).obj))
    items.append(("homology", data.m21, data.m22, kernel(data.nu).obj))
    items.append(("homology", data.top1, data.top2, data.objects["wa"]))
    items.append(("homology", data.bot1, data.bot2, data.objects["wb"]))
    items.append(("cokernel", data.m3, data.w3))
    zero = zero_adel_object(data.cat)  # mono and epi: a zero kernel or cokernel
    items.append(("kernel", data.m4, zero))
    items.append(("kernel", kernel(data.mu).emb, zero))
    items.append(("cokernel", cokernel(data.lam).proj, zero))
    return items
