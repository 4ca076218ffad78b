"""ramforge: exact wild-ramification invariants of Galois covers of curves
in characteristic p.

The library computes Artin-Schreier conductors, Herbrand upper/lower jump
conversions, the conductor law for the Galois action on covers of germs,
admissible jump sequences, Riemann-Hurwitz genera and genus spectra, and
Kato's smoothness invariant, all in exact arithmetic.
"""

from .algebra import (
    INFINITY,
    FieldElement,
    FieldSpec,
    LaurentPoly,
    artin_schreier,
    canonical_modulus,
    format_laurent,
    parse_laurent,
)
from .aschreier import (
    UNRAMIFIED,
    ASReduced,
    as_deform,
    as_reduce,
)
from .asext import (
    ExtElement,
    ExtFieldSpec,
    ExtReduced,
    ext_as_reduce,
    format_ext,
    minimal_tower_element,
    parse_ext,
    tower_jumps,
    upper_jumps,
)
from .genus import (
    BranchPoint,
    CoverData,
    KatoInput,
    SpectrumResult,
    contains_progressions,
    genus_increment,
    genus_spectrum,
    kato_mu,
    last_lower_jump_increment,
    ram_divisor_degree,
    rh_genus,
    spectrum_density,
)
from .ramfilt import (
    Filtration,
    InertiaShape,
    LevelStep,
    action_transform,
    admissible_check,
    admissible_enumerate,
    filtration_from_dict,
    filtration_to_dict,
    lower_to_upper,
    phi,
    psi,
    random_filtration,
    tower_plan,
    upper_to_lower,
    validate,
)

__version__ = "0.1.0"
