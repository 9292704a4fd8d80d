"""The Z-linear category of a finite acyclic quiver with relations.

Objects are the vertices; the morphisms from ``a`` to ``b`` are Z-linear
combinations of the (finitely many, by acyclicity) paths from ``a`` to ``b``,
taken modulo the two-sided ideal generated by the given relations.  Each
Hom set is a finitely presented abelian group, held in coordinates (see
``QuiverCategory``), and every morphism as the canonical coordinates of its
coset, which makes equality a plain tuple comparison.  An arrow enters
coordinates through ``QuiverCategory.arrow`` and a block is printed from
its coordinate paths (``format_coords``); path vectors (``LinMorphism``,
built by ``QuiverCategory.lin``) exist only in the JSON reports and for
the benchmark harness.

Path bases are ordered length-first, then lexicographically by arrow index;
the same order is used everywhere so certificates are reproducible.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .intlinalg import DimensionError, FpAbGroup, IntMatrix

# Largest number of paths allowed between two vertices.  Path counts can grow
# exponentially in the size of an acyclic quiver; the cap turns such input
# into a clean error instead of unbounded time and memory.
MAX_PATH_BASIS = 10_000


class QuiverError(ValueError):
    """Malformed quiver data."""


class CyclicQuiverError(QuiverError):
    """The arrow digraph contains a cycle."""


class UnknownVertexError(QuiverError):
    pass


class PathBasisTooLargeError(QuiverError):
    """Two vertices are joined by more than ``MAX_PATH_BASIS`` paths."""


class RelationError(ValueError):
    """A relation mixes non-parallel paths or refers to unknown arrows."""


class EndpointError(ValueError):
    """Morphism endpoints do not compose or do not match."""


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    """Finite acyclic quiver with uniquely labelled vertices and arrows."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise QuiverError("duplicate arrow labels")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise UnknownVertexError(f"arrow {a.label}: unknown endpoint")
        order = self._check_acyclic()
        incoming: dict[str, list[int]] = {v: [] for v in self.vertices}
        for i, a in enumerate(self.arrows):
            incoming[a.target].append(i)
        # derived lookups for path enumeration and labels, not dataclass fields
        object.__setattr__(self, "_position", {v: k for k, v in enumerate(order)})
        object.__setattr__(self, "_incoming", {v: tuple(ix) for v, ix in incoming.items()})
        object.__setattr__(self, "_arrow_index", {label: i for i, label in enumerate(labels)})

    def _check_acyclic(self) -> list[str]:
        """A topological order of the vertices (Kahn's algorithm)."""
        outgoing: dict[str, list[str]] = {v: [] for v in self.vertices}
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            outgoing[a.source].append(a.target)
            indeg[a.target] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        order: list[str] = []
        while queue:
            v = queue.pop()
            order.append(v)
            for w in outgoing[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != len(self.vertices):
            raise CyclicQuiverError("the arrow digraph is cyclic")
        return order

    def arrow_index(self, label: str) -> int:
        try:
            return self._arrow_index[label]
        except KeyError:
            raise QuiverError(f"unknown arrow {label!r}") from None

    def opposite(self) -> "Quiver":
        return Quiver(
            self.vertices,
            tuple(Arrow(a.label, a.target, a.source) for a in self.arrows),
        )


@dataclass(frozen=True)
class Path:
    """Composable sequence of arrows, stored by arrow index; the empty
    sequence is the identity path at ``source == target``."""

    source: str
    target: str
    arrows: tuple[int, ...]


def _validate_path(quiver: Quiver, path: Path, error: type = QuiverError):
    at = path.source
    for idx in path.arrows:
        a = quiver.arrows[idx]
        if a.source != at:
            raise error(f"arrow {a.label!r} does not compose at {at!r}")
        at = a.target
    if at != path.target:
        raise error("path endpoints do not match the arrow sequence")


def _path_words(quiver: Quiver, a: str, b: str,
                known: Callable[[str], Optional[Iterable[tuple[int, ...]]]] = lambda v: None,
                ) -> dict[str, Iterable[tuple[int, ...]]]:
    """Arrow words of the paths from ``a`` to ``b`` and to every vertex ``v``
    met on the way, in length-lexicographic order.

    Dynamic programming over the topological order, without recursion: the
    paths from ``a`` to ``v`` are those to the source ``u`` of each arrow
    ``x: u -> v``, followed by ``x``.  Only the vertices that reach ``b`` and
    do not come before ``a`` are visited; ``known(v)``, when not ``None``,
    gives the words for ``v`` and stops the search there.
    """
    position, incoming, arrows = quiver._position, quiver._incoming, quiver.arrows
    if a not in position or b not in position:
        raise UnknownVertexError(f"unknown vertex in ({a!r}, {b!r})")
    start = position[a]
    need = {b}
    todo = [b]
    while todo:
        v = todo.pop()
        if v == a or known(v) is not None:
            continue
        for i in incoming[v]:
            u = arrows[i].source
            if u not in need and position[u] >= start:
                need.add(u)
                todo.append(u)
    words: dict[str, Iterable[tuple[int, ...]]] = {}
    for v in sorted(need, key=position.__getitem__):
        found = known(v)
        if found is None:
            if v == a:
                found = [()]
            else:
                found = [w + (i,) for i in incoming[v] for w in words.get(arrows[i].source, ())]
                if len(found) > MAX_PATH_BASIS:
                    raise PathBasisTooLargeError(
                        f"more than {MAX_PATH_BASIS} paths from {a!r} to {v!r}")
                found.sort(key=lambda w: (len(w), w))
        words[v] = found
    return words


# A pair's path basis and the index of each basis path's arrow word.
_PathData = tuple[tuple[Path, ...], dict[tuple[int, ...], int]]

# A sparse coordinate vector: its nonzero (coordinate, value) pairs.
_Sparse = tuple[tuple[int, int], ...]


@functools.cache
def _free_group(n: int) -> FpAbGroup:
    """``FpAbGroup.free(n)``, shared: most Hom sets have no relations, and
    ``n`` is at most ``MAX_PATH_BASIS``."""
    return FpAbGroup.free(n)


class _Hom(NamedTuple):
    """One Hom set's data (see ``QuiverCategory``)."""

    group: FpAbGroup               # presented on the path basis
    cols: tuple[int, ...]          # the basis index of each coordinate path
    paths: tuple[Path, ...]        # the coordinate paths
    reduce: tuple[_Sparse, ...]    # per basis path, the coordinates it is congruent to
    torsion: Optional[FpAbGroup]   # presented on the coordinates; None without torsion rows


@dataclass(frozen=True)
class Relation:
    """Z-linear combination of parallel paths, read as ``sum == 0``."""

    source: str
    target: str
    terms: tuple[tuple[int, Path], ...]


def make_relation(terms: Sequence[tuple[int, Path]]) -> Relation:
    """The relation with the endpoints of its first path; the category that
    takes it checks it against its quiver."""
    if not terms:
        raise RelationError("empty relation")
    first = terms[0][1]
    return Relation(first.source, first.target, tuple((int(c), p) for c, p in terms))


def _check_relation(quiver: Quiver, rel: Relation):
    """Raise ``RelationError`` unless ``rel`` is a nonempty combination of
    paths of ``quiver`` that all run between its declared endpoints."""
    if not rel.terms:
        raise RelationError("empty relation")
    first = rel.terms[0][1]
    src, tgt = first.source, first.target
    for _, p in rel.terms:
        _validate_path(quiver, p, RelationError)
        if (p.source, p.target) != (src, tgt):
            raise RelationError(
                f"relation mixes paths {src!r}->{tgt!r} and {p.source!r}->{p.target!r}"
            )
    if (rel.source, rel.target) != (src, tgt):
        raise RelationError(
            f"relation declared {rel.source!r}->{rel.target!r} has paths {src!r}->{tgt!r}")
    if src not in quiver._position or tgt not in quiver._position:
        raise RelationError(f"relation between unknown vertices {src!r}->{tgt!r}")


class QuiverCategory:
    """A quiver with relations, its Hom data and composition tables.

    Hom(a, b) is held in *coordinates*: the basis paths that are not a unit
    pivot of the Hermite normal form (HNF) of its relation lattice.  A unit
    pivot's path is minus the rest of its row, which lies on coordinates, so
    a canonical path vector is zero at every unit pivot.  A torsion pivot
    (above 1) keeps its path, and its row, cut to the coordinates, is a
    *torsion row*.  All arithmetic is on coordinates; a path vector enters
    them only through ``coords`` and leaves only through ``pad``, which
    inserts the zeros at the unit pivots.

    Nothing is computed per vertex pair at construction.  Each piece of Hom
    data is filled on first use and never changes afterwards:

    * for a pair ``(a, b)``, its path basis and the index of each basis path,
      by dynamic programming that also fills the pairs ``(a, v)`` on the way;
    * for a pair ``(a, b)``, the f.p. group presented on its paths by the
      two-sided closure of the relations, which needs the path bases of
      ``(a, source(r))`` and ``(target(r), b)`` for each relation ``r``, and
      the coordinates, torsion rows and images of the paths read off its HNF
      (skipped for a pair that no relation reaches);
    * for a pair, its zero block, one tuple shared by every zero entry of
      every matrix morphism, and its coordinate unit vectors;
    * for a vertex triple ``(a, b, c)``, the table of the products of the
      coordinate paths of Hom(a, b) and Hom(b, c), in coordinates.

    ``canonical`` is the one rule that reduces a block of coordinates, by the
    torsion rows alone: composites, sums, multiples, cut solution vectors
    and the path vectors that ``coords`` reads all go through it or through
    ``canonical_blocks``, its form for a whole grid, so no other module
    decides whether a block needs reducing.

    Each entry is a pure function of the quiver and the relations and is
    stored by a single dict assignment of one value, so a fill raced by two
    threads stores equal values and instances stay safe to share.  So are
    the probe evaluations that ``addclosure.probes`` keeps in ``_probes``:
    stored on the category, they are freed with it.
    """

    def __init__(self, quiver: Quiver, relations: Sequence[Relation] = (),
                 name: str = "", _opposite: Optional["QuiverCategory"] = None):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.name = name
        for rel in self.relations:
            _check_relation(quiver, rel)
        self._paths: dict[tuple[str, str], _PathData] = {}
        self._hom: dict[tuple[str, str], _Hom] = {}
        self._zeros: dict[tuple[str, str], tuple[int, ...]] = {}
        self._products: dict[tuple[str, str, str], tuple[tuple[_Sparse, ...], ...]] = {}
        self._units: dict[tuple[str, str], tuple[tuple[int, ...], ...]] = {}
        self._probes: Optional[tuple] = None  # filled by ``addclosure.probes``
        self._opposite = _opposite
        self._opposite_lock = threading.Lock()

    def _path_data(self, a: str, b: str) -> _PathData:
        try:
            return self._paths[(a, b)]
        except KeyError:
            return self._fill_paths(a, b)

    def _fill_paths(self, a: str, b: str) -> _PathData:
        cache = self._paths

        def known(v):
            # an index dict iterates over its words in basis order
            entry = cache.get((a, v))
            return None if entry is None else entry[1]

        for v, words in _path_words(self.quiver, a, b, known).items():
            if (a, v) not in cache:
                cache[(a, v)] = (tuple(Path(a, v, w) for w in words),
                                 {w: k for k, w in enumerate(words)})
        return cache[(a, b)]

    def _fill_hom(self, a: str, b: str) -> _Hom:
        """Hom(a, b) presented by the two-sided closure of the relations:
        every product p * r * q with p: a -> source(r) and q: target(r) -> b;
        then its coordinates, read off the HNF rows of that lattice."""
        basis, index = self._path_data(a, b)
        position = self.quiver._position
        rows: list[list[int]] = []
        for rel in self.relations if basis else ():  # no relation reaches a pair without paths
            if position[rel.source] < position[a] or position[b] < position[rel.target]:
                continue  # no path a -> source(r) or target(r) -> b
            left = self.paths(a, rel.source)
            if not left:
                continue
            right = self.paths(rel.target, b)
            for p in left:
                for q in right:
                    row = [0] * len(basis)
                    for coef, mid in rel.terms:
                        full = p.arrows + mid.arrows + q.arrows
                        row[index[full]] += coef
                    if any(row):
                        rows.append(row)
        n = len(basis)
        if not rows:  # no relation reaches the pair: its paths are its coordinates
            hom = self._hom[(a, b)] = _Hom(_free_group(n), tuple(range(n)), basis,
                                           tuple([((k, 1),) for k in range(n)]), None)
            return hom
        group = FpAbGroup(n, IntMatrix.from_rows(rows, cols=n))
        # An HNF row is zero at the unit pivot column of every other row, so a
        # unit pivot's path is minus the rest of its row, in coordinates.
        unit, torsion = {}, []
        for row in group.relations.entries:
            pivot, *rest = compress(range(n), row)
            if row[pivot] == 1:
                unit[pivot] = [(j, -row[j]) for j in rest]
            else:
                torsion.append(row)
        cols = tuple(k for k in range(n) if k not in unit)
        at = {k: i for i, k in enumerate(cols)}

        reduce = tuple(((at[k], 1),) if k in at else tuple((at[j], v) for j, v in unit[k])
                       for k in range(n))
        torsion = [[row[k] for k in cols] for row in torsion]
        hom = self._hom[(a, b)] = _Hom(
            group, cols, tuple(basis[k] for k in cols), reduce,
            FpAbGroup(len(cols), IntMatrix.from_rows(torsion, cols=len(cols))) if torsion else None)
        return hom

    def _hom_data(self, a: str, b: str) -> _Hom:
        try:
            return self._hom[(a, b)]
        except KeyError:
            return self._fill_hom(a, b)

    # -- Hom data ---------------------------------------------------------

    def vertices(self) -> tuple[str, ...]:
        return self.quiver.vertices

    def paths(self, a: str, b: str) -> tuple[Path, ...]:
        try:
            return self._paths[(a, b)][0]
        except KeyError:
            return self._fill_paths(a, b)[0]

    def dim(self, a: str, b: str) -> int:
        """Number of coordinates of Hom(a, b)."""
        try:
            return len(self._hom[(a, b)].cols)
        except KeyError:
            return len(self._fill_hom(a, b).cols)

    def coordinate_paths(self, a: str, b: str) -> tuple[Path, ...]:
        """The basis paths of Hom(a, b) that are coordinates, in basis order."""
        return self._hom_data(a, b).paths

    def torsion_rows(self, a: str, b: str) -> tuple[tuple[int, ...], ...]:
        """The relations of Hom(a, b) on its coordinates: its torsion rows."""
        torsion = self._hom_data(a, b).torsion
        return () if torsion is None else torsion.relations.entries

    def zero_block(self, a: str, b: str) -> tuple[int, ...]:
        """The zero coefficient block of Hom(a, b)."""
        block = self._zeros.get((a, b))
        if block is None:
            block = self._zeros[a, b] = (0,) * self.dim(a, b)
        return block

    def zero_blocks(self, sources: Sequence[str],
                    targets: Sequence[str]) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The grid of zero coefficient blocks of Hom(a, b): one row per ``a``
        in ``sources``, one block per ``b`` in ``targets``."""
        known = self._zeros
        try:
            return tuple([tuple([known[a, b] for b in targets]) for a in sources])
        except KeyError:
            return tuple([tuple([self.zero_block(a, b) for b in targets]) for a in sources])

    def path_index(self, a: str, b: str, arrows: tuple[int, ...]) -> int:
        return self._path_data(a, b)[1][arrows]

    def hom_group_lin(self, a: str, b: str) -> FpAbGroup:
        """Hom(a, b) presented on its path basis."""
        return self._hom_data(a, b).group

    # -- coordinates ------------------------------------------------------

    def coords(self, a: str, b: str, coeffs: Sequence[int]) -> tuple[int, ...]:
        """The canonical coordinates in Hom(a, b) of the path coefficients
        ``coeffs``, which must number ``len(paths(a, b))``: the ``canonical``
        form of the sum of each coefficient times its path's image."""
        try:
            _, cols, _, reduce, torsion = self._hom[(a, b)]
        except KeyError:
            _, cols, _, reduce, torsion = self._fill_hom(a, b)
        if len(coeffs) != len(reduce):
            raise DimensionError(f"element length {len(coeffs)} for {len(reduce)} generators")
        if len(cols) != len(reduce):  # some paths are unit pivots
            acc = [0] * len(cols)
            for c, image in zip(coeffs, reduce):
                for k, v in image:
                    acc[k] += c * v
            coeffs = acc
        return tuple(coeffs) if torsion is None else self.canonical(a, b, coeffs)

    def pad(self, a: str, b: str, coords: Sequence[int]) -> tuple[int, ...]:
        """The canonical path vector of the coordinates ``coords`` of
        Hom(a, b): zeros inserted at the unit pivots."""
        try:
            _, cols, _, reduce, _ = self._hom[(a, b)]
        except KeyError:
            _, cols, _, reduce, _ = self._fill_hom(a, b)
        if len(cols) == len(reduce):
            return tuple(coords)
        vec = [0] * len(reduce)
        for k, c in zip(cols, coords):
            vec[k] = c
        return tuple(vec)

    def canonical(self, a: str, b: str, coeffs: Sequence[int]) -> tuple[int, ...]:
        """The canonical form in Hom(a, b) of the coordinates ``coeffs``,
        which must number ``dim(a, b)``: the one rule by which every block is
        reduced.  A zero vector, and a vector of a pair without torsion
        rows, is its own canonical form; any other goes through
        ``canonical_rep`` by the torsion rows."""
        coeffs = tuple(coeffs)
        try:
            torsion = self._hom[(a, b)].torsion
        except KeyError:
            torsion = self._fill_hom(a, b).torsion
        return coeffs if torsion is None or not any(coeffs) else torsion.canonical_rep(coeffs)

    def canonical_blocks(self, sources: Sequence[str], targets: Sequence[str],
                         grid: Sequence[Sequence[Sequence[int]]]
                         ) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``canonical`` applied to every block of the rows ``grid``, block
        (i, j) in Hom(sources[i], targets[j]): a zero block becomes the
        pair's shared zero block, a block of a pair without torsion rows is
        kept, and any other is reduced by the torsion rows."""
        zeros, homs = self._zeros, self._hom
        try:
            return tuple([tuple([
                zeros[a, b] if not any(block) else
                tuple(block) if (torsion := homs[a, b].torsion) is None
                else torsion.canonical_rep(block)
                for b, block in zip(targets, row)]) for a, row in zip(sources, grid)])
        except KeyError:
            self.zero_blocks(sources, targets)  # fills every pair of the grid
            return self.canonical_blocks(sources, targets, grid)

    # -- composition tables -------------------------------------------------

    def product_table(self, a: str, b: str, c: str) -> tuple[tuple[_Sparse, ...], ...]:
        """``table[i][j]`` is the image in the coordinates of Hom(a, c) of the
        i-th coordinate path of Hom(a, b) followed by the j-th of Hom(b, c)."""
        table = self._products.get((a, b, c))
        if table is None:
            index, reduce = self._path_data(a, c)[1], self._hom_data(a, c).reduce
            right = self.coordinate_paths(b, c)
            table = self._products[(a, b, c)] = tuple(
                tuple([reduce[index[p.arrows + q.arrows]] for q in right])
                for p in self.coordinate_paths(a, b))
        return table

    def unit_coeffs(self, a: str, b: str) -> tuple[tuple[int, ...], ...]:
        """The coordinate unit vectors of Hom(a, b), each canonical: a unit
        vector is below every torsion pivot."""
        units = self._units.get((a, b))
        if units is None:
            units = self._units[(a, b)] = IntMatrix.identity(self.dim(a, b)).entries
        return units

    def compose_coeffs(self, a: str, c: str,
                       terms: Iterable[tuple[str, Sequence[int], Sequence[int]]]) -> tuple[int, ...]:
        """Canonical coordinates in Hom(a, c) of the sum of the composites
        ``f then g`` over ``(b, f, g)`` in ``terms``, where ``f`` and ``g`` are
        coordinate vectors of Hom(a, b) and Hom(b, c).

        Products are accumulated from the product tables and reduced once at
        the end; since ``canonical_rep`` picks the unique representative of
        a coset, this equals reducing every partial sum.
        """
        acc = [0] * self.dim(a, c)
        for b, f, g in terms:
            for x, row in zip(f, self.product_table(a, b, c)):
                if x:
                    for y, product in zip(g, row):
                        if y:
                            for k, v in product:
                                acc[k] += x * y * v
        return self.canonical(a, c, acc)

    def dual_coeffs(self, a: str, b: str, coeffs: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates in Hom(b, a) of the opposite category of
        the morphism with coordinates ``coeffs`` in Hom(a, b): every path
        reversed."""
        op = self.opposite()
        acc = [0] * len(op.paths(b, a))
        for p, c in zip(self.coordinate_paths(a, b), coeffs):
            if c:
                acc[op.path_index(b, a, p.arrows[::-1])] += c
        return op.coords(b, a, acc)

    # -- morphisms --------------------------------------------------------

    def arrow(self, label: str) -> tuple[str, str, tuple[int, ...]]:
        """The source, target and canonical coordinates of the arrow ``label``."""
        i = self.quiver.arrow_index(label)
        a, b = self.quiver.arrows[i].source, self.quiver.arrows[i].target
        coeffs = [0] * len(self.paths(a, b))
        coeffs[self.path_index(a, b, (i,))] = 1
        return a, b, self.coords(a, b, coeffs)

    def lin(self, a: str, b: str, coeffs: Sequence[int]) -> "LinMorphism":
        return LinMorphism(self, a, b, self.pad(a, b, self.coords(a, b, coeffs)))

    # -- duality ----------------------------------------------------------

    def opposite(self) -> "QuiverCategory":
        """The opposite category (cached; taking it twice returns self).

        Construction is guarded by a lock so that concurrent users always
        share one opposite instance (structural comparisons rely on it).
        """
        with self._opposite_lock:
            if self._opposite is None:
                op_rel = []
                for rel in self.relations:
                    terms = tuple(
                        (c, Path(p.target, p.source, tuple(reversed(p.arrows))))
                        for c, p in rel.terms
                    )
                    op_rel.append(Relation(rel.target, rel.source, terms))
                self._opposite = QuiverCategory(
                    self.quiver.opposite(), tuple(op_rel),
                    name=self.name + "^op" if self.name else "", _opposite=self,
                )
            return self._opposite


@dataclass(frozen=True)
class LinMorphism:
    """Morphism in the quiver category as the canonical coefficient vector
    over the ordered path basis of Hom(source, target), the form of the
    JSON reports; it has no arithmetic."""

    cat: QuiverCategory
    source: str
    target: str
    coeffs: tuple[int, ...]


def format_coords(cat: QuiverCategory, a: str, b: str, coords: Sequence[int]) -> str:
    """Human-readable form of the coordinates ``coords`` of Hom(a, b):
    ``2*alpha*beta - gamma``, ``id(a)``, ``0``.  A canonical path vector is
    zero at the unit pivots, so this prints it term for term."""
    labels = [x.label for x in cat.quiver.arrows]
    return format_signed_sum(
        (c, "*".join(labels[k] for k in p.arrows) if p.arrows else f"id({p.source})")
        for c, p in zip(coords, cat.coordinate_paths(a, b)) if c)


def format_signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Join (coefficient, word) terms as ``2*x - y + z``: a leading ``-``,
    then ``+ term`` or ``- term``; ``0`` when there are no terms."""
    parts: list[str] = []
    for c, word in terms:
        piece = word if abs(c) == 1 else f"{abs(c)}*{word}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + piece)
        else:
            parts.append(("-" if c < 0 else "") + piece)
    return " ".join(parts) if parts else "0"
