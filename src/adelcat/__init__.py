"""Exact homological computation in free abelian categories over finite
acyclic quivers with relations.

The layers, bottom up: ``intlinalg`` (integer matrices, Hermite/Smith forms,
f.p. abelian groups), ``quivercat`` (the Z-linear path category),
``representation`` (quiver representations and their matrix evaluation),
``addclosure`` (tuple objects, matrix morphisms, the homotopy-equation
solver), ``adelman`` (the free abelian category: certified equality,
kernels, cokernels, homology), ``homgroups`` (Hom-group presentations),
``evalfunctor`` (evaluation into f.p. abelian groups, the oracle),
``catfile`` (the ``.cat`` grammar, and ``Session``, which evaluates a text's
category, named morphisms and objects), ``provers`` (machine-checked
lemmata whose categories and 1x1 presentations are ``.cat`` text), and
``cli`` (argparse, the commands, representation files), which nothing below
it imports.
"""

from .intlinalg import FpAbGroup, IntMatrix, SmithInvariants, hnf, snf, solve_left
from .quivercat import Arrow, LinMorphism, Path, Quiver, QuiverCategory, Relation
from .addclosure import MatMorphism, TupleObject, decide_homotopy
from .adelman import (
    AdelMorphism,
    AdelObject,
    WitnessPair,
    cokernel,
    colift_along_epi,
    connecting_homomorphism,
    emb_lin,
    emb_morphism,
    emb_object,
    homology,
    is_epi,
    is_equal,
    is_exact,
    is_iso,
    is_mono,
    is_zero_morphism,
    is_zero_object,
    kernel,
    kernel_lift,
    cokernel_colift,
    lift_along_mono,
    make_morphism,
    subobject_leq,
)
from .homgroups import HomGroupPresentation, hom_group
from .evalfunctor import Representation, check_representation, eval_morphism, eval_object

__version__ = "0.1.0"
