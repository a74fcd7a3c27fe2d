"""Hecke fusion algebras of finite and arithmetic pairs.

The package realizes, at desk scale, the explicitly computable layer of the
fusion calculus of group-measure-space factors: double-coset Hecke algebras
with their modular function (finite pairs, SL(2,Z) inside rational matrices,
and the rational ax+b pair), the extended Hecke fusion algebra whose basis
attaches irreducible representations of little groups to double cosets, the
scalar-2-cocycle calculus with its conjugation phases, and the
elementary-bimodule fusion rules with cocycle twists.  Two independent
computation paths exist for everything central and are cross-checked by the
test suite and the ``check`` CLI command.
"""

from .cocycle import (
    Cocycle,
    CocycleError,
    PhaseFunction,
    are_cohomologous,
    bilinear_cocycle,
    coboundary,
    coboundary_witness,
    coboundary_witness_s1,
    cohomology_witness,
    conjugation_phase,
    heisenberg_cocycle,
)
from .elementary import (
    BimoduleSum,
    ElementaryBimodule,
    admissible_classes,
    identity_object,
    is_irreducible,
    required_cocycle,
    to_ext_hecke,
)
from .exthecke import (
    ExtHeckeElement,
    FinitePair,
    basis,
    crossed_dim_identity,
    dims,
    from_rep,
    structure_constants,
    to_hecke,
    unit,
)
from .hecke import (
    BostConnesHecke,
    FiniteHecke,
    GL2Hecke,
    HeckeElement,
    convolve,
    degree,
    degrees,
    involution,
    modular_lambda,
    parse_element,
)
from .permcore import (
    CommensurationError,
    FiniteGroup,
    GroupAction,
    GroupTooLarge,
    DegreeTooLarge,
    Perm,
    Subgroup,
    commensuration_subgroups,
    commensurations,
    conjugate_intersection,
    normalizer_in_sym,
    out_description,
)
from .projrep import (
    NumericalDegradation,
    Rep,
    RepClass,
    decompose,
    hom_dim,
    hom_dims,
    induce,
    irreducibles,
    regular_rep,
    restrict,
    tensor,
    transport,
    trivial_rep,
)

# the fusion products of the two calculi share a name; import the modules
# themselves to use both side by side
from .exthecke import fuse as ext_fuse
from .elementary import fuse as elementary_fuse
from . import cocycle, elementary, hecke, projrep


def clear_caches() -> None:
    """Empty every module-level cache of the package: irreducible classes,
    trivial cocycles and GL2's primitive HNF representatives.

    Each ``FinitePair`` and ``FiniteGroup`` keeps its own cache store, which
    goes with its owner.  Cached values own their data, so a live element,
    class or cocycle stays valid after the clear.
    """
    projrep.clear_caches()
    cocycle._TRIVIAL_CACHE.clear()
    hecke._HNF_REPS.clear()

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
