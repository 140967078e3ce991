"""Exact character-level invariants of the spetsial imprimitive complex
reflection groups G(m,1,n) and G(m,m,n): fake degrees, generic degrees,
Schur elements, Fourier pairings, and rational Catalan trace identities,
all in exact cyclotomic arithmetic with zero numerical tolerance.
"""

from types import ModuleType as _ModuleType

from .exactnum import (
    Cyclotomic,
    LaurentPoly,
    InexactDivisionError,
    FractionalPowerError,
    cyclo,
    cyclo_rational,
    eval_at_root,
    poly_exact_div,
    q_int,
    q_monomial,
    q_poly,
)
from .groups import (
    GroupSpec,
    GroupInvariants,
    Reflection,
    Gm1n,
    Gmmn,
    TypeA,
    invariants,
    enumerate_reflections,
    parse_group,
)
from .labels import (
    CharLabel,
    all_labels,
    dimension,
    dual_label,
    exterior_twist_label,
    galois_twist,
    label_str,
    parse_label,
)
from .symbols import (
    MSymbol,
    Family,
    symbol_of,
    symbol_stats,
    symbol_str,
    families,
    family_of,
    rotation_stabilizer,
)
from .degrees import (
    CharData,
    char_data,
    all_char_data,
    fake_degree,
    generic_degree,
    schur_element,
    poincare,
    family_invariants,
    tau,
)
from .fourier import (
    PairingMatrix,
    pairing,
    pairing_matrix,
    verify_T1,
    pairing_symmetry_report,
    verify_transform_swap,
)
from .catalan import (
    VerificationReport,
    catalan,
    closed_form_main,
    coprime_range,
    trace_sum,
    verify_main,
    verify_parking,
    verify_vanishing,
)

__version__ = "0.1.0"

# Names of the explicit matrix models and of the small-group character
# tables and their Fourier transform, whose modules no check and no
# character datum uses: each module is imported on the first read of one
# of its names.
_LAZY = {
    "GeneratorMatrices": "tableaux",
    "build_model": "tableaux",
    "reflection_character_sum": "tableaux",
    "standard_tableaux": "tableaux",
    "FiniteGroup": "chartable",
    "character_table": "chartable",
    "nonabelian_fourier": "chartable",
    "NonabelianFourier": "chartable",
}

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
