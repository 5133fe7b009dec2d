"""Finite posets, the simplex category, nerves, colimits, and Kan extensions."""

from ._kernels import backend as kernel_backend
from .colimits import (
    Cocone,
    ColimitError,
    PosetDiagram,
    SubcategoryError,
    colimit_delta,
    colimit_pos,
    colimit_tos,
    paper_pushout_square,
    verify_universal,
)
from .continuity import (
    BoundError,
    ContinuityError,
    ContinuityReport,
    check_continuity,
    density_colimit,
    fully_faithful_witness,
    reconstruct,
)
from .corpus import all_posets, poset_classes
from .delta import (
    DeltaError,
    DeltaMap,
    GeneratorWord,
    compose,
    degeneracy,
    face,
    factorize,
    generator,
    identity_delta,
    verify_simplicial_identities,
)
from .kan import (
    ExtensionResult,
    FunctorPresentation,
    KanError,
    check_extension_cocontinuity,
    comma_diagram,
    extend,
    extend_map,
    inclusion_functor,
    product_functor,
    underlying_set_functor,
)
from .posets import (
    CycleError,
    FinPoset,
    MonotoneMap,
    NotSplitMonoError,
    PosetError,
    antichain_poset,
    chain_poset,
    count_monotone_maps,
    find_isomorphism,
    intersection_of_extensions,
    isomorphisms,
    linear_extensions,
    make_poset,
    meet_of_extensions,
    monotone_maps,
    ordinal_poset,
    product_poset,
    split_retraction,
)
from .simplicial import (
    SimplicialError,
    SimplicialIdentityError,
    SimplicialMap,
    TruncatedSimplicialSet,
    count_simplicial_maps,
    evaluate,
    make_sset,
    nerve,
    nerve_map,
    simplicial_maps,
)

__version__ = "0.1.0"
