"""Exact tools for single-cycle Belyi maps, their monodromy triples, and
dessins d'enfants.

The three representations of one cover are kept in lockstep: a combinatorial
type (d; e0, e1, eInf), a canonical generating system, a dessin, and, for
the two closed-form families, an exactly verified rational map.
"""

from .exact import (
    Poly,
    RatFunc,
    parse_rational,
    poly_gcd,
    poly_text,
    squarefree_decomposition,
)
from .perm import (
    CycleType,
    DegreeMismatchError,
    Permutation,
    is_transitive,
)
from .gensys import (
    CombinatorialType,
    GeneratingSystem,
    InvalidTypeError,
    NotTransitiveError,
    canonical_single_cycle,
    canonical_triples,
    chebyshev_gensys,
    equivalent,
    make_gensys,
    power_gensys,
    valid_types,
)
from .dessin import (
    Dessin,
    DessinShape,
    dessin_from_gensys,
    gensys_from_dessin,
)
from .families import (
    BelyiMap,
    MapParams,
    ParameterOutOfRangeError,
    RamificationProfile,
    VerificationError,
    chebyshev_map,
    family_map_for_type,
    power_map,
    ramification_profile,
    single_cycle_polynomial,
    symmetric_single_cycle,
    verify_single_cycle,
)
from .catalog import TriptychRecord, iter_catalog, write_catalog

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "RatFunc",
    "parse_rational",
    "poly_gcd",
    "poly_text",
    "squarefree_decomposition",
    "CycleType",
    "DegreeMismatchError",
    "Permutation",
    "is_transitive",
    "CombinatorialType",
    "GeneratingSystem",
    "InvalidTypeError",
    "NotTransitiveError",
    "canonical_single_cycle",
    "canonical_triples",
    "chebyshev_gensys",
    "equivalent",
    "make_gensys",
    "power_gensys",
    "valid_types",
    "Dessin",
    "DessinShape",
    "dessin_from_gensys",
    "gensys_from_dessin",
    "BelyiMap",
    "MapParams",
    "ParameterOutOfRangeError",
    "RamificationProfile",
    "VerificationError",
    "chebyshev_map",
    "family_map_for_type",
    "power_map",
    "ramification_profile",
    "single_cycle_polynomial",
    "symmetric_single_cycle",
    "verify_single_cycle",
    "TriptychRecord",
    "iter_catalog",
    "write_catalog",
]
