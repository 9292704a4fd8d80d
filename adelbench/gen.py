"""Seeded input generators owned by the benchmark.

Every workload draws its inputs here, from a ``random.Random`` that is
seeded with the run's ``--seed`` and the workload name, so the same seed
always yields the same inputs.  (``hom_ladder`` also draws a fixed panel of
tuple shapes from seed 0; see ``workloads.setup_hom_ladder``.)  Quivers are described as plain data
(``QuiverSpec``) that can be turned into an ``adelcat`` category or into the
text of a ``.cat`` file for the command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from adelcat.adelman import AdelObject
from adelcat.addclosure import MatMorphism, TupleObject
from adelcat.quivercat import Arrow, Path, Quiver, QuiverCategory, Relation


def rng_for(seed: int, workload: str) -> random.Random:
    """Independent stream per workload; string seeding is stable across
    processes and Python versions."""
    return random.Random(f"adelbench:{workload}:{seed}")


@dataclass(frozen=True)
class QuiverSpec:
    """A quiver with commutativity relations, as plain data.

    ``relations`` holds pairs of arrow-label paths that must be equal.
    """

    name: str
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    relations: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()

    def category(self) -> QuiverCategory:
        quiver = Quiver(self.vertices, tuple(Arrow(*a) for a in self.arrows))
        index = {label: i for i, (label, _, _) in enumerate(self.arrows)}
        ends = {label: (s, t) for label, s, t in self.arrows}
        rels = []
        for lhs, rhs in self.relations:
            src, tgt = ends[lhs[0]][0], ends[lhs[-1]][1]
            rels.append(Relation(src, tgt, (
                (1, Path(src, tgt, tuple(index[l] for l in lhs))),
                (-1, Path(src, tgt, tuple(index[l] for l in rhs))),
            )))
        return QuiverCategory(quiver, tuple(rels), name=self.name)

    def cat_text(self) -> str:
        """The category in the command line's ``.cat`` format."""
        lines = [f"category {self.name} {{", "  objects " + " ".join(self.vertices) + ";"]
        lines.append("  arrows " + " ".join(f"{l}: {s} -> {t};" for l, s, t in self.arrows))
        if self.relations:
            lines.append("  relations " + " ".join(
                f"{'*'.join(lhs)} = {'*'.join(rhs)};" for lhs, rhs in self.relations))
        lines.append("}")
        return "\n".join(lines) + "\n"


def chain_spec(n: int) -> QuiverSpec:
    """The chain A_n: v0 -> v1 -> ... -> v(n-1), no relations."""
    return QuiverSpec(
        f"chain{n}",
        tuple(f"v{i}" for i in range(n)),
        tuple((f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)),
    )


def ladder_spec(n: int) -> QuiverSpec:
    """The commuting ladder with n rungs: top row t_i, bottom row b_i,
    rungs v_i: t_i -> b_i, and every square commuting."""
    top = [(f"h{i}", f"t{i}", f"t{i + 1}") for i in range(n - 1)]
    bottom = [(f"g{i}", f"b{i}", f"b{i + 1}") for i in range(n - 1)]
    rungs = [(f"v{i}", f"t{i}", f"b{i}") for i in range(n)]
    squares = tuple(((f"h{i}", f"v{i + 1}"), (f"v{i}", f"g{i}")) for i in range(n - 1))
    return QuiverSpec(
        f"ladder{n}",
        tuple([f"t{i}" for i in range(n)] + [f"b{i}" for i in range(n)]),
        tuple(top + bottom + rungs),
        squares,
    )


COEFF_BOUND = 2               # coefficients are drawn from [-2, 2]
TUPLE_LENGTHS = (4, 6)        # tuple objects have 4 to 6 summands


def rand_coeffs(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(n)]


def rand_tuple(rng: random.Random, cat: QuiverCategory) -> TupleObject:
    vertices = cat.quiver.vertices
    length = rng.randint(*TUPLE_LENGTHS)
    return TupleObject(cat, tuple(rng.choice(vertices) for _ in range(length)))


def rand_mat(rng: random.Random, cat: QuiverCategory, src: TupleObject,
             tgt: TupleObject) -> MatMorphism:
    """Matrix morphism with every path coefficient drawn by ``rand_coeffs``."""
    return MatMorphism(src, tgt, tuple(
        tuple(cat.lin(a, b, rand_coeffs(rng, len(cat.paths(a, b)))) for b in tgt.summands)
        for a in src.summands))


def rand_shape(rng: random.Random, cat: QuiverCategory):
    """Relation source, middle and corelation target: three random tuples."""
    return tuple(rand_tuple(rng, cat) for _ in range(3))


def rand_object(rng: random.Random, cat: QuiverCategory, shape) -> AdelObject:
    """Object on the given shape with random coefficients."""
    src, mid, tgt = shape
    return AdelObject(rand_mat(rng, cat, src, mid), rand_mat(rng, cat, mid, tgt))
