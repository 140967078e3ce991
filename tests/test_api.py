"""The public API, pinned: every name `spetscat` exports and the
parameter names of each one that has a signature.  A change to the
contract shows here as an edited row."""
import inspect

import spetscat

EXCEPTIONS = ("FractionalPowerError", "InexactDivisionError")

SIGNATURES = {
    "CharData": ("label", "feg", "deg", "a", "A", "b", "B", "h_char", "content_c"),
    "CharLabel": ("group", "parts", "component"),
    "Cyclotomic": ("n", "coeffs", "reduced"),
    "Family": ("members",),
    "FiniteGroup": ("table",),
    "GeneratorMatrices": ("shape", "basis", "t_matrix", "s_matrices", "m", "n"),
    "Gm1n": ("m", "n"),
    "Gmmn": ("m", "n"),
    "GroupInvariants": (
        "degrees", "codegrees", "exponents", "coxeter_number",
        "num_reflections", "num_hyperplanes", "order", "poincare",
    ),
    "GroupSpec": ("kind", "m", "n"),
    "LaurentPoly": ("terms", "reduced"),
    "MSymbol": ("rows",),
    "NonabelianFourier": ("pairs", "matrix"),
    "PairingMatrix": ("family", "entries"),
    "Reflection": ("perm", "phases"),
    "TypeA": ("n",),
    "VerificationReport": (
        "group", "p", "claim", "equal", "lhs", "rhs", "witness", "ms",
    ),
    "all_char_data": ("g",),
    "all_labels": ("g",),
    "build_model": ("lab", "bound"),
    "catalan": ("g", "p", "q_deformed"),
    "char_data": ("lab",),
    "character_table": ("group",),
    "closed_form_main": ("g", "p"),
    "coprime_range": ("h", "upper"),
    "cyclo": ("n", "k"),
    "cyclo_rational": ("x",),
    "dimension": ("lab",),
    "dual_label": ("lab",),
    "enumerate_reflections": ("g", "bound"),
    "eval_at_root": ("f", "n", "k"),
    "exterior_twist_label": ("g", "k", "p"),
    "fake_degree": ("lab",),
    "families": ("g",),
    "family_invariants": ("g",),
    "family_of": ("g", "lab"),
    "galois_twist": ("lab", "p"),
    "generic_degree": ("lab",),
    "invariants": ("g",),
    "label_str": ("lab",),
    "nonabelian_fourier": ("table", "bound"),
    "pairing": ("g", "lab1", "lab2"),
    "pairing_matrix": ("g", "fam"),
    "pairing_symmetry_report": ("g",),
    "parse_group": ("text",),
    "parse_label": ("g", "text"),
    "poincare": ("g",),
    "poly_exact_div": ("num", "den"),
    "q_int": ("n",),
    "q_monomial": ("e", "coeff"),
    "q_poly": ("pairs",),
    "reflection_character_sum": ("lab", "bound"),
    "rotation_stabilizer": ("s",),
    "schur_element": ("lab", "formula"),
    "standard_tableaux": ("shape",),
    "symbol_of": ("lab",),
    "symbol_stats": ("s",),
    "symbol_str": ("s",),
    "tau": ("m",),
    "trace_sum": ("g", "p"),
    "verify_T1": ("g",),
    "verify_main": ("g", "p_list"),
    "verify_parking": ("g", "p"),
    "verify_transform_swap": ("g", "p"),
    "verify_vanishing": ("g", "p"),
}


def test_exported_names_are_pinned():
    assert sorted(spetscat.__all__) == sorted([*SIGNATURES, *EXCEPTIONS])
    assert len(spetscat.__all__) == 67


def test_exceptions_are_exported_types():
    for name in EXCEPTIONS:
        assert issubclass(getattr(spetscat, name), ArithmeticError)


def test_parameter_names_are_pinned():
    got = {
        name: tuple(inspect.signature(getattr(spetscat, name)).parameters)
        for name in SIGNATURES
    }
    assert got == SIGNATURES
