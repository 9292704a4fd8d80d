"""The free abelian category over an additive quiver category.

Objects are composable pairs (a relation morphism into a middle object and a
corelation morphism out of it); morphisms are middle-level matrix morphisms
that admit witnesses making both squares commute, taken modulo
null-homotopies.  Every "yes" answer of a decision procedure carries a
witness pair that re-verifies by plain matrix arithmetic, and all
constructions (kernels, cokernels, lifts, colifts, images, homology) are
carried out on explicit block matrices.

Zero morphisms, equality, mono, epi, iso and exactness are decided in one
place: ``CLAIMS`` lists, per claim, the data its parts declare
null-homotopic, rebuilt from the morphisms without search;
``claim_witnesses`` decides them and ``claim_verifies`` checks given witness
pairs.  The predicates, the provers' certificates and their replay all read
that table.

Witness squares are checked where a morphism enters (the public
constructor, ``make_morphism``, the replay reader, a Hom group's family
check); ``_morphism`` builds what is derived from checked morphisms.

Sign conventions follow the matrices with the fewest minus signs.  Values
are immutable; objects and morphisms keep their hash, a morphism its kernel
and cokernel (and so its image, the kernel of its cokernel projection), and
kernel and cokernel results their other parts, once built on first read.
The one step that searches, the homotopy decision ``zero_witness``, decides
its system each time it is asked and keeps nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .addclosure import (
    MatMorphism,
    TupleObject,
    _mat,
    compose_mat,
    decide_homotopy,
    dual_mat,
    from_blocks,
    identity_mat,
    zero_mat,
    zero_obj,
)
from .quivercat import EndpointError, QuiverCategory


class WitnessError(ValueError):
    """A provided witness fails its defining equation."""


class NotMonoError(ValueError):
    pass


class NotEpiError(ValueError):
    pass


class SideConditionError(ValueError):
    """A lift/colift side condition does not hold."""


class CompositeNotZeroError(ValueError):
    pass


@dataclass(frozen=True)
class AdelObject:
    """Composable pair: relation morphism ``rel`` into the middle object and
    corelation morphism ``corel`` out of it."""

    rel: MatMorphism
    corel: MatMorphism

    def __post_init__(self):
        if self.rel.target != self.corel.source:
            raise EndpointError("relation target and corelation source differ")

    def __hash__(self) -> int:  # the fields' hash, computed once, as MatMorphism's
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.rel, self.corel))

    @property
    def middle(self) -> TupleObject:
        return self.rel.target

    @property
    def rel_source(self) -> TupleObject:
        return self.rel.source

    @property
    def corel_target(self) -> TupleObject:
        return self.corel.target

    @property
    def cat(self) -> QuiverCategory:
        return self.rel.source.cat

    def __repr__(self) -> str:
        return f"AdelObject({self.rel_source!r} -> {self.middle!r} -> {self.corel_target!r})"


@dataclass(frozen=True)
class WitnessPair:
    """Certificate that a morphism datum is null-homotopic:
    ``datum == sigma1 * rel(target) + corel(source) * sigma2``."""

    sigma1: MatMorphism
    sigma2: MatMorphism

    def verifies(self, source: AdelObject, target: AdelObject, datum: MatMorphism) -> bool:
        """False also for a pair that does not run between these objects."""
        try:
            lhs = compose_mat(self.sigma1, target.rel) + compose_mat(source.corel, self.sigma2)
        except EndpointError:
            return False
        return lhs == datum


@dataclass(frozen=True)
class AdelMorphism:
    """Morphism datum together with its relation and corelation witnesses.

    Every value is a well-defined morphism: this constructor checks both
    witness squares exactly, and ``_morphism`` derives values whose squares
    hold by algebra.
    """

    source: AdelObject
    target: AdelObject
    datum: MatMorphism
    rel_witness: MatMorphism
    corel_witness: MatMorphism

    def __post_init__(self):
        if self.datum.source != self.source.middle or self.datum.target != self.target.middle:
            raise EndpointError("datum does not run between the middle objects")
        if compose_mat(self.source.rel, self.datum) != compose_mat(self.rel_witness, self.target.rel):
            raise WitnessError("relation witness square does not commute")
        if compose_mat(self.source.corel, self.corel_witness) != compose_mat(self.datum, self.target.corel):
            raise WitnessError("corelation witness square does not commute")

    def __hash__(self) -> int:  # the fields' hash, computed once, as MatMorphism's
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.source, self.target, self.datum, self.rel_witness, self.corel_witness))

    def __add__(self, other: "AdelMorphism") -> "AdelMorphism":
        if self.source != other.source or self.target != other.target:
            raise EndpointError("cannot add morphisms with different endpoints")
        return _morphism(
            self.source, self.target,
            self.datum + other.datum,
            self.rel_witness + other.rel_witness,
            self.corel_witness + other.corel_witness,
        )

    def __neg__(self) -> "AdelMorphism":
        return _morphism(self.source, self.target, -self.datum,
                         -self.rel_witness, -self.corel_witness)

    def __sub__(self, other: "AdelMorphism") -> "AdelMorphism":
        return self + (-other)

    def scale(self, c: int) -> "AdelMorphism":
        return _morphism(self.source, self.target, self.datum.scale(c),
                         self.rel_witness.scale(c), self.corel_witness.scale(c))


def _morphism(source: AdelObject, target: AdelObject, datum: MatMorphism,
              rel_witness: MatMorphism, corel_witness: MatMorphism) -> AdelMorphism:
    """The morphism with these parts, its witness squares unchecked.  They
    hold by one rule per caller: associativity (composites), linearity
    (sums, negatives, multiples), block form (identities, zeros, embedded
    matrices, maps out of a direct sum, cokernel projections, kernel
    embeddings), the verified pair (a colift or lift, built after its
    side-condition pair verifies), the verified pairs of ``make_morphism``
    (``decide_homotopy`` re-checks each witness square as the solution of
    its zero claim), duality (duals) or, in ``homgroups``, the square check
    that ``hom_group`` runs on every generator and ``element`` on its value."""
    f = object.__new__(AdelMorphism)
    vars(f).update(source=source, target=target, datum=datum,
                   rel_witness=rel_witness, corel_witness=corel_witness)
    return f


def compose(f: AdelMorphism, g: AdelMorphism) -> AdelMorphism:
    """Diagrammatic composite; data and witnesses compose componentwise."""
    if f.target != g.source:
        raise EndpointError("composable pair objects do not match")
    return _morphism(
        f.source, g.target,
        compose_mat(f.datum, g.datum),
        compose_mat(f.rel_witness, g.rel_witness),
        compose_mat(f.corel_witness, g.corel_witness),
    )


def identity_morphism(x: AdelObject) -> AdelMorphism:
    return _morphism(x, x, identity_mat(x.middle),
                     identity_mat(x.rel_source), identity_mat(x.corel_target))


def zero_morphism(x: AdelObject, y: AdelObject) -> AdelMorphism:
    return _morphism(x, y, zero_mat(x.middle, y.middle),
                     zero_mat(x.rel_source, y.rel_source),
                     zero_mat(x.corel_target, y.corel_target))


# -- the full embedding -----------------------------------------------------

def emb_object(x: TupleObject) -> AdelObject:
    """Image of a tuple object under the canonical full embedding:
    zero relations, zero corelations."""
    z = zero_obj(x.cat)
    return AdelObject(zero_mat(z, x), zero_mat(x, z))


def emb_vertex(cat: QuiverCategory, v: str) -> AdelObject:
    return emb_object(TupleObject(cat, (v,)))


def emb_morphism(f: MatMorphism) -> AdelMorphism:
    """Image of a matrix morphism under the embedding; witnesses are the
    empty morphisms between zero objects."""
    src = emb_object(f.source)
    tgt = emb_object(f.target)
    z = zero_obj(f.cat)
    return _morphism(src, tgt, f, zero_mat(z, z), zero_mat(z, z))


def zero_adel_object(cat: QuiverCategory) -> AdelObject:
    return emb_object(zero_obj(cat))


def direct_sum_object(x: AdelObject, y: AdelObject) -> AdelObject:
    """Pointwise direct sum of composable pairs."""
    return AdelObject(
        from_blocks([x.rel_source, y.rel_source], [x.middle, y.middle], [[x.rel, 0], [0, y.rel]]),
        from_blocks([x.middle, y.middle], [x.corel_target, y.corel_target],
                    [[x.corel, 0], [0, y.corel]]))


def morphism_from_sum(f: AdelMorphism, g: AdelMorphism) -> AdelMorphism:
    """The morphism out of a direct sum with the given components into a
    common target."""
    if f.target != g.target:
        raise EndpointError("components do not share a target")
    x, y, t = f.source, g.source, f.target
    return _morphism(
        direct_sum_object(x, y), t,
        from_blocks([x.middle, y.middle], [t.middle], [[f.datum], [g.datum]]),
        from_blocks([x.rel_source, y.rel_source], [t.rel_source],
                    [[f.rel_witness], [g.rel_witness]]),
        from_blocks([x.corel_target, y.corel_target], [t.corel_target],
                    [[f.corel_witness], [g.corel_witness]]),
    )


# -- equality and the zero test ---------------------------------------------

def zero_witness(source: AdelObject, target: AdelObject,
                 datum: MatMorphism) -> Optional[WitnessPair]:
    """Witness pair for a datum being null-homotopic between two objects, or
    None when it is not: the homotopy system ``datum = sigma1 * target.rel +
    source.corel * sigma2``, decided by ``decide_homotopy``."""
    found = decide_homotopy(datum, target.rel, source.corel)
    return None if found is None else WitnessPair(*found)


def make_morphism(source: AdelObject, target: AdelObject,
                  datum: MatMorphism) -> Optional[AdelMorphism]:
    """Morphism with computed witnesses, or None when no witnesses exist.

    Each witness square is a zero claim: ``rel_s * datum`` is null-homotopic
    into ``target`` from the embedded relation source, with the relation
    witness as ``sigma1``, and ``datum * corel_t`` from ``source`` into the
    embedded corelation target, with the corelation witness as ``sigma2``.
    """
    if datum.source != source.middle or datum.target != target.middle:
        raise EndpointError("datum does not run between the middle objects")
    rel = zero_witness(emb_object(source.rel_source), target, compose_mat(source.rel, datum))
    if rel is None:
        return None
    corel = zero_witness(source, emb_object(target.corel_target), compose_mat(datum, target.corel))
    if corel is None:
        return None
    return _morphism(source, target, datum, rel.sigma1, corel.sigma2)


def is_zero_morphism(f: AdelMorphism) -> Optional[WitnessPair]:
    """Certified zero test; a returned pair always re-verifies."""
    return zero_witness(*_datum_zero(f))


def is_equal(f: AdelMorphism, g: AdelMorphism) -> Optional[WitnessPair]:
    """Certificate that ``f - g`` is null-homotopic, or None."""
    return zero_witness(*_difference_zero(f, g))


# -- kernels and cokernels ---------------------------------------------------

@dataclass(frozen=True)
class CokernelResult:
    """The cokernel of ``of``; ``proj`` and ``composite_zero_wp`` are built on first read."""

    of: AdelMorphism
    obj: AdelObject

    @functools.cached_property
    def proj(self) -> AdelMorphism:
        a, b = self.of.source, self.of.target
        return _morphism(b, self.obj, from_blocks([b.middle], [b.middle, a.corel_target], [[1, 0]]),
                         from_blocks([b.rel_source], [b.rel_source, a.middle], [[1, 0]]),
                         from_blocks([b.corel_target], [b.corel_target, a.corel_target], [[1, 0]]))

    @functools.cached_property
    def composite_zero_wp(self) -> WitnessPair:  # certifies of * proj == 0
        a, b = self.of.source, self.of.target
        return WitnessPair(from_blocks([a.middle], [b.rel_source, a.middle], [[0, 1]]),
                           from_blocks([a.corel_target], [b.middle, a.corel_target], [[0, -1]]))


@dataclass(frozen=True)
class KernelResult:
    """The kernel of ``of``; ``emb`` and ``composite_zero_wp`` are built on first read."""

    of: AdelMorphism
    obj: AdelObject

    @functools.cached_property
    def emb(self) -> AdelMorphism:
        a, b = self.of.source, self.of.target
        return _morphism(self.obj, a, from_blocks([a.middle, b.rel_source], [a.middle], [[1], [0]]),
                         from_blocks([a.rel_source, b.rel_source], [a.rel_source], [[1], [0]]),
                         from_blocks([a.corel_target, b.middle], [a.corel_target], [[1], [0]]))

    @functools.cached_property
    def composite_zero_wp(self) -> WitnessPair:  # certifies emb * of == 0
        a, b = self.of.source, self.of.target
        return WitnessPair(from_blocks([a.middle, b.rel_source], [b.rel_source], [[0], [-1]]),
                           from_blocks([a.corel_target, b.middle], [b.middle], [[0], [1]]))


def cokernel(f: AdelMorphism) -> CokernelResult:
    """Cokernel of ``f``, built on explicit block matrices once per morphism
    object and kept in its instance dict, as its hash."""
    kept = vars(f).get("_cokernel")
    if kept is None:  # setdefault: threads that build at once return one result
        a, b = f.source, f.target
        mid = [b.middle, a.corel_target]
        kept = vars(f).setdefault("_cokernel", CokernelResult(f, AdelObject(
            from_blocks([b.rel_source, a.middle], mid, [[b.rel, 0], [f.datum, a.corel]]),
            from_blocks(mid, [b.corel_target, a.corel_target], [[b.corel, 0], [0, 1]]))))
    return kept


def cokernel_colift(f: AdelMorphism, tau: AdelMorphism, wp: WitnessPair) -> AdelMorphism:
    """Morphism induced on the cokernel by a test morphism ``tau`` with
    ``f * tau == 0``, certified by ``wp``; the pair is re-verified."""
    if tau.source != f.target:
        raise EndpointError("test morphism must start at the cokernel base")
    if not wp.verifies(f.source, tau.target, compose_mat(f.datum, tau.datum)):
        raise WitnessError("invalid witness pair for the colift side condition")
    a, b, t = f.source, f.target, tau.target
    datum = from_blocks([b.middle, a.corel_target], [t.middle], [[tau.datum], [-wp.sigma2]])
    omega = from_blocks([b.rel_source, a.middle], [t.rel_source], [[tau.rel_witness], [wp.sigma1]])
    psi = from_blocks([b.corel_target, a.corel_target], [t.corel_target],
                      [[tau.corel_witness], [-compose_mat(wp.sigma2, t.corel)]])
    return _morphism(cokernel(f).obj, t, datum, omega, psi)


def kernel(f: AdelMorphism) -> KernelResult:
    """Kernel of ``f``; the exact dual of the cokernel construction, and kept
    on ``f`` as it is."""
    kept = vars(f).get("_kernel")
    if kept is None:
        a, b = f.source, f.target
        mid = [a.middle, b.rel_source]
        kept = vars(f).setdefault("_kernel", KernelResult(f, AdelObject(
            from_blocks([a.rel_source, b.rel_source], mid, [[a.rel, 0], [0, 1]]),
            from_blocks(mid, [a.corel_target, b.middle], [[a.corel, f.datum], [0, b.rel]]))))
    return kept


def kernel_lift(f: AdelMorphism, tau: AdelMorphism, wp: WitnessPair) -> AdelMorphism:
    """Morphism induced into the kernel by a test morphism ``tau`` with
    ``tau * f == 0``, certified by ``wp``; the pair is re-verified."""
    if tau.target != f.source:
        raise EndpointError("test morphism must end at the kernel base")
    if not wp.verifies(tau.source, f.target, compose_mat(tau.datum, f.datum)):
        raise WitnessError("invalid witness pair for the lift side condition")
    a, b, t = f.source, f.target, tau.source
    datum = from_blocks([t.middle], [a.middle, b.rel_source], [[tau.datum, -wp.sigma1]])
    omega = from_blocks([t.rel_source], [a.rel_source, b.rel_source],
                        [[tau.rel_witness, -compose_mat(t.rel, wp.sigma1)]])
    psi = from_blocks([t.corel_target], [a.corel_target, b.middle],
                      [[tau.corel_witness, wp.sigma2]])
    return _morphism(t, kernel(f).obj, datum, omega, psi)


# -- duality -----------------------------------------------------------------

def dualize_object(x: AdelObject) -> AdelObject:
    """The same data read in the opposite category, roles of relations and
    corelations exchanged; an involution."""
    return AdelObject(dual_mat(x.corel), dual_mat(x.rel))


def dualize_morphism(f: AdelMorphism) -> AdelMorphism:
    return _morphism(
        dualize_object(f.target), dualize_object(f.source),
        dual_mat(f.datum),
        dual_mat(f.corel_witness), dual_mat(f.rel_witness),
    )


# -- predicates ---------------------------------------------------------------

def zero_object_witness(x: AdelObject) -> Optional[WitnessPair]:
    """An object is zero exactly when its identity is null-homotopic."""
    return zero_witness(*_identity_zero(x))


def is_zero_object(x: AdelObject) -> bool:
    return zero_object_witness(x) is not None


# The rebuilds of the claims' parts: each returns, without search, the
# (source, target, datum) that the part declares null-homotopic.  They call
# the constructions through this module's globals at call time.

def _datum_zero(f: AdelMorphism):
    return f.source, f.target, f.datum


def _difference_zero(f: AdelMorphism, g: AdelMorphism):
    if f.source != g.source or f.target != g.target:
        raise EndpointError("morphisms do not have the same endpoints")
    return f.source, f.target, f.datum - g.datum


def _identity_zero(x: AdelObject):
    return x, x, identity_mat(x.middle)


def _kernel_zero(f: AdelMorphism):
    return _identity_zero(kernel(f).obj)


def _cokernel_zero(f: AdelMorphism):
    return _identity_zero(cokernel(f).obj)


def _composite_zero(f: AdelMorphism, g: AdelMorphism):
    if f.target != g.source:
        raise EndpointError("not a composable pair")
    return f.source, g.target, compose_mat(f.datum, g.datum)


def _via_zero(f: AdelMorphism, g: AdelMorphism):
    via = compose(kernel(g).emb, cokernel(f).proj)
    return via.source, via.target, via.datum


# Claim kind -> (names of the morphisms it is about, its parts in order as
# (witness key, rebuild)).  ``zero`` declares a datum and ``equal`` the
# difference of two parallel data null-homotopic; mono, epi and iso declare
# the kernel, the cokernel or both zero objects; exactness of a complex
# ``(f, g)`` declares ``f * g`` and then the kernel-to-cokernel composite
# null-homotopic.
CLAIMS = {
    "zero": (("morphism",), (("wp", _datum_zero),)),
    "equal": (("first", "second"), (("wp", _difference_zero),)),
    "mono": (("morphism",), (("kernel_zero_wp", _kernel_zero),)),
    "epi": (("morphism",), (("cokernel_zero_wp", _cokernel_zero),)),
    "iso": (("morphism",), (("kernel_zero_wp", _kernel_zero),
                            ("cokernel_zero_wp", _cokernel_zero))),
    "exact": (("first", "second"), (("composite_wp", _composite_zero),
                                    ("via_wp", _via_zero))),
}


def claim_witnesses(kind: str, *fs: AdelMorphism) -> Optional[dict[str, WitnessPair]]:
    """The witness pair of each part of the claim ``kind`` about ``fs``, by
    key, or None from the first part that has none.  Exactness of a pair
    whose composite does not vanish is undefined and raises."""
    found = {}
    for key, rebuild in CLAIMS[kind][1]:
        wp = zero_witness(*rebuild(*fs))
        if wp is None:
            if key == "composite_wp":
                raise CompositeNotZeroError("composite is not zero, exactness is undefined")
            return None
        found[key] = wp
    return found


def claim_verifies(kind: str, fs, witnesses: dict[str, WitnessPair]) -> bool:
    """Whether each given witness pair (by key) verifies its part of the
    claim ``kind`` about ``fs``, rebuilt without search.  Morphisms that do
    not fit the claim raise ``EndpointError``."""
    return all(witnesses[key].verifies(*rebuild(*fs)) for key, rebuild in CLAIMS[kind][1])


def is_mono(f: AdelMorphism) -> bool:
    return claim_witnesses("mono", f) is not None


def is_epi(f: AdelMorphism) -> bool:
    return claim_witnesses("epi", f) is not None


def is_iso(f: AdelMorphism) -> bool:
    return claim_witnesses("iso", f) is not None


def is_exact(f: AdelMorphism, g: AdelMorphism) -> bool:
    """Exactness at the middle object of a certified complex."""
    return claim_witnesses("exact", f, g) is not None


def subobject_leq(i1: AdelMorphism, i2: AdelMorphism) -> bool:
    """Whether im(``i1``) <= im(``i2``) for two morphisms into the same
    object: whether ``i1`` composed with the cokernel projection of ``i2``
    vanishes.  For monos this is the subobject order."""
    if i1.target != i2.target:
        raise EndpointError("subobjects of different objects")
    return is_zero_morphism(compose(i1, cokernel(i2).proj)) is not None


# -- epis as cokernels of their kernels ---------------------------------------

@dataclass(frozen=True)
class EpiAsCokernel:
    """Data identifying an epi with the cokernel of its kernel: the kernel
    (of the epi), the cokernel of its embedding, the comparison morphism out
    of the epi's target, and the explicit pair certifying the triangle."""

    ker: KernelResult
    cok_of_kernel: CokernelResult
    comparison: AdelMorphism
    triangle_wp: WitnessPair


def epi_as_cokernel(eps: AdelMorphism) -> EpiAsCokernel:
    """Identify an epi with the cokernel projection of its kernel.

    The comparison morphism's datum, witnesses, and the triangle witness
    pair are written down explicitly from a witness pair for the epi's own
    cokernel projection being zero and re-verified, not searched for.
    """
    a, b = eps.source, eps.target
    ck = cokernel(eps)
    pz = is_zero_morphism(ck.proj)
    if pz is None:
        raise NotEpiError("morphism is not an epimorphism")
    # sigma1: b -> rel_source(b) (+) middle(a); sigma2: corel_target(b) -> middle(b) (+) corel_target(a)
    n_rb = len(b.rel_source)
    sigma7 = _take_cols(pz.sigma1, 0, n_rb)
    sigma8 = _take_cols(pz.sigma1, n_rb, len(a.middle))
    n_b = len(b.middle)
    sigma5 = _take_cols(pz.sigma2, 0, n_b)
    sigma6 = _take_cols(pz.sigma2, n_b, len(a.corel_target))
    kr = kernel(eps)
    c2 = cokernel(kr.emb)
    gb = b.corel
    rs = [a.rel_source, a.middle, b.rel_source]        # c2.obj.rel_source
    mid = [a.middle, a.corel_target, b.middle]         # c2.obj.middle
    ct = [a.corel_target, a.corel_target, b.middle]    # c2.obj.corel_target
    datum = from_blocks([b.middle], mid,
                        [[sigma8, -compose_mat(gb, sigma6), -compose_mat(gb, sigma5)]])
    omega = from_blocks([b.rel_source], rs, [[
        0, compose_mat(b.rel, sigma8), compose_mat(b.rel, sigma7) - identity_mat(b.rel_source)]])
    psi = from_blocks([b.corel_target], ct, [[-sigma6, -sigma6, -sigma5]])
    comparison = AdelMorphism(b, c2.obj, datum, omega, psi)
    triangle_wp = WitnessPair(
        from_blocks([a.middle], rs, [[
            0, compose_mat(eps.datum, sigma8) - identity_mat(a.middle),
            compose_mat(eps.datum, sigma7)]]),
        from_blocks([a.corel_target], mid, [[0, 1, 0]]),
    )
    diff = compose_mat(eps.datum, comparison.datum) - c2.proj.datum
    if not triangle_wp.verifies(a, c2.obj, diff):
        raise RuntimeError("explicit triangle witness failed to verify")
    return EpiAsCokernel(kr, c2, comparison, triangle_wp)


def _take_cols(f: MatMorphism, start: int, count: int) -> MatMorphism:
    tgt = TupleObject(f.cat, f.target.summands[start : start + count])
    return _mat(f.source, tgt, tuple(row[start : start + count] for row in f.blocks))


def colift_along_epi(eps: AdelMorphism, tau: AdelMorphism) -> AdelMorphism:
    """Unique morphism ``c`` with ``eps * c == tau``, for ``eps`` epi and
    ``tau`` killed by the kernel of ``eps``."""
    if tau.source != eps.source:
        raise EndpointError("test morphism must share the epi's source")
    data = epi_as_cokernel(eps)
    side = compose(data.ker.emb, tau)
    wp = is_zero_morphism(side)
    if wp is None:
        raise SideConditionError("kernel of the epi does not kill the test morphism")
    nu = cokernel_colift(data.ker.emb, tau, wp)
    return compose(data.comparison, nu)


def lift_along_mono(iota: AdelMorphism, tau: AdelMorphism) -> AdelMorphism:
    """Unique morphism ``l`` with ``l * iota == tau``, for ``iota`` mono and
    ``tau`` killed by the cokernel of ``iota``; computed by dualizing the
    colift construction."""
    if tau.target != iota.target:
        raise EndpointError("test morphism must share the mono's target")
    try:
        colift = colift_along_epi(dualize_morphism(iota), dualize_morphism(tau))
    except NotEpiError:
        raise NotMonoError("morphism is not a monomorphism") from None
    except SideConditionError:
        raise SideConditionError("cokernel of the mono does not kill the test morphism") from None
    return dualize_morphism(colift)


# -- images, homology, connecting morphisms -----------------------------------

def image(f: AdelMorphism) -> KernelResult:
    """Image of ``f``: the kernel of its cokernel projection, which is the
    result's ``of``.  The corestriction ``f.source -> obj`` is
    ``kernel_lift(ck.proj, f, ck.composite_zero_wp)`` for ``ck = cokernel(f)``."""
    return kernel(cokernel(f).proj)


@dataclass(frozen=True)
class HomologyResult:
    """Homology of a composable pair: the image of the composite ``via`` of
    the second morphism's kernel embedding and the first one's cokernel
    projection."""

    cok: CokernelResult         # of the first morphism
    img: KernelResult           # image of ``via``: ker(second) -> cok.obj

    @property
    def obj(self) -> AdelObject:
        return self.img.obj


def homology(f: AdelMorphism, g: AdelMorphism) -> HomologyResult:
    """Homology of the composable pair ``(f, g)`` at the middle object; the
    composite ``f * g`` is not required to vanish."""
    if f.target != g.source:
        raise EndpointError("not a composable pair")
    cr = cokernel(f)
    return HomologyResult(cr, image(compose(kernel(g).emb, cr.proj)))


def _lift_into(kr: KernelResult, tau: AdelMorphism) -> Optional[AdelMorphism]:
    """The lift of ``tau`` into the kernel ``kr`` when ``kr.of`` kills it, else None."""
    wp = is_zero_morphism(compose(tau, kr.of))
    return None if wp is None else kernel_lift(kr.of, tau, wp)


def homology_comparison(h: HomologyResult, w: AdelObject,
                        datum_to_cok: MatMorphism) -> Optional[AdelMorphism]:
    """Lift a candidate presentation ``w`` into the homology object.

    ``datum_to_cok`` runs from the middle of ``w`` to the middle of the
    cokernel; when it defines a morphism that the image's cokernel kills,
    the lift ``w -> h.obj`` is returned, otherwise None.
    """
    theta = make_morphism(w, h.cok.obj, datum_to_cok)
    return None if theta is None else _lift_into(h.img, theta)


def connecting_homomorphism(alpha: MatMorphism, beta: MatMorphism,
                            gamma: MatMorphism) -> AdelMorphism:
    """The connecting morphism of three consecutive morphisms whose full
    composite vanishes: datum ``beta`` from ``(alpha | beta*gamma)`` to
    ``(alpha*beta | gamma)``, with identity witnesses."""
    if alpha.target != beta.source or beta.target != gamma.source:
        raise EndpointError("morphisms are not consecutive")
    if not compose_mat(compose_mat(alpha, beta), gamma).is_zero():
        raise CompositeNotZeroError("triple composite is not zero")
    src = AdelObject(alpha, compose_mat(beta, gamma))
    tgt = AdelObject(compose_mat(alpha, beta), gamma)
    return AdelMorphism(src, tgt, beta,
                        identity_mat(alpha.source), identity_mat(gamma.target))


# -- functoriality of kernels, cokernels, homology ----------------------------

def cokernel_map(f1: AdelMorphism, c2: CokernelResult,
                 vy: AdelMorphism) -> AdelMorphism:
    """Induced map on cokernel objects for a square commuting over ``vy``:
    from the cokernel of ``f1`` to ``c2``."""
    tau = compose(vy, c2.proj)
    wp = is_zero_morphism(compose(f1, tau))
    if wp is None:
        raise SideConditionError("square does not induce a cokernel map")
    return cokernel_colift(f1, tau, wp)


def homology_map(h1: HomologyResult, h2: HomologyResult,
                 vy: AdelMorphism) -> AdelMorphism:
    """Induced map on homology objects for compatible squares over the
    middle morphism ``vy``."""
    lift = _lift_into(h2.img, compose(h1.img.emb, cokernel_map(h1.cok.of, h2.cok, vy)))
    if lift is None:
        raise SideConditionError("squares do not induce a homology map")
    return lift
