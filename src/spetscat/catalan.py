"""Rational Catalan numbers, the symmetrizing-trace sums they equal, and
the exact verification suite.

The trace of the inverse p-th power of a Coxeter-element lift against
the canonical symmetrizing trace expands character by character as

    (1/P_W) * sum over characters of
        q^((h_char - n h) p / h) * Feg(zeta_h^p) * Deg(q),

computed here in the root variable y with y^h = q so every exponent is
an integer.  The claimed closed form is q^(-np) (1-q)^n Cat_p(W; q) with

    Cat_p(W; q) = prod_i [p + (p e_i mod h)]_q / [d_i]_q,

and the verification compares the two sides exactly, coefficient by
coefficient, reporting the first differing term on any mismatch.  The
companion checks are the vanishing of generic degrees at zeta_h^p away
from exterior-twist labels and the parking-function count
(q^p - 1)^n; everything is exact, nothing is numeric.

The scalar depends on p only through p mod h.  So each group keeps a
table of every character's Feg and Deg at zeta_h^r, one row per residue
r that a check has asked for (at most phi(h) rows), and vanishing, the
trace, parking and the swap all read it.  Characters with one h_char
share the shift q^((h_char - n h) p / h), and at zeta_h^p only those
with h_char = k h (k = 0..n) keep a nonzero value in these sums, so
each sum has n+1 classes of terms.  Per residue, each class's terms are
added once into one polynomial in the root variable.  A sum at p then
shifts the n+1 class polynomials of p mod h and adds them.  Parking's
right side is built term by term by the binomial theorem, so its size
does not grow with p.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, gcd, prod
from operator import attrgetter
from typing import NamedTuple

from .exactnum import (
    Cyclotomic,
    FractionalPowerError,
    InexactDivisionError,
    LaurentPoly,
    _int_exact_div,
    _int_poly,
    _mul_q_int,
    _poly_mul,
    eval_at_root,
    poly_exact_div,
)
from .groups import KIND_G1, KIND_GM, GroupSpec, invariants
from .labels import dimension, exterior_twist_label, label_str
from .degrees import all_char_data, poincare

__all__ = [
    "VerificationReport",
    "coprime_range",
    "catalan",
    "closed_form_main",
    "trace_sum",
    "verify_main",
    "verify_vanishing",
    "verify_parking",
]


@dataclass(frozen=True)
class VerificationReport:
    """The outcome of one exact check.

    `p` is the value the check ran at, or None for a check that does not
    depend on p (T1, T2/T3).  `lhs` and `rhs` are the two sides a
    comparison computed.  Both are None for checks that compare no two
    polynomials, and a side that raised is None (the right side runs
    first, so a right side that raised leaves both None).  `witness`
    names the first failure, or is None when `equal`.  `ms` is the wall
    time of the check in whole milliseconds, truncated.
    """

    group: str
    p: int | None
    claim: str
    equal: bool
    lhs: LaurentPoly | None
    rhs: LaurentPoly | None
    witness: str | None
    ms: int

    def to_json(self):
        out = dict(vars(self))
        for side in ("lhs", "rhs"):
            if out[side] is not None:
                out[side] = out[side].to_json()
        return out


def coprime_range(h: int, upper: int) -> tuple[int, ...]:
    return tuple(p for p in range(1, upper + 1) if gcd(p, h) == 1)


def _check_p(g: GroupSpec, p: int) -> int:
    if p < 1:
        raise ValueError(f"p = {p} must be a positive integer")
    h = invariants(g).coxeter_number
    if gcd(p, h) != 1:
        raise ValueError(f"p = {p} is not coprime to the Coxeter number h = {h}")
    return h


def _check_dense(p: int, length: int, what: str) -> None:
    """Refuse a p whose dense coefficient list could not be allocated."""
    if length > sys.maxsize:
        raise ValueError(
            f"p = {p} is too large: {what} would need a dense list of "
            f"{length} coefficients"
        )


def _tops(g: GroupSpec, p: int) -> list[int]:
    """The numerator factors p + (p e_i mod h) of Cat_p(W)."""
    h = _check_p(g, p)
    return [p + (p * e) % h for e in invariants(g).exponents]


def _catalan_q_coeffs(g: GroupSpec, p: int) -> list[int]:
    """Cat_p(W; q) as an int list, ascending: prod [t_i]_q divided
    exactly by prod [d_i]_q, so a non-polynomial value raises
    InexactDivisionError."""
    tops = _tops(g, p)
    _check_dense(p, sum(tops) - len(tops) + 1, "Cat_p(W; q)")
    numer = denom = [1]
    for t in tops:
        numer = _mul_q_int(numer, t)
    for d in invariants(g).degrees:
        denom = _mul_q_int(denom, d)
    return _int_exact_div(numer, denom)


def catalan(g: GroupSpec, p: int, q_deformed: bool = False):
    """Cat_p(W) as an exact rational, or its q-deformation as a
    polynomial (computed by exact division, so a non-polynomial value
    cannot slip through silently)."""
    if not q_deformed:
        return Fraction(prod(_tops(g, p)), prod(invariants(g).degrees))
    return _int_poly(_catalan_q_coeffs(g, p))


def closed_form_main(g: GroupSpec, p: int) -> LaurentPoly:
    """q^(-np) (1-q)^n Cat_p(W; q), a Laurent polynomial in q."""
    n = g.rank
    coeffs = _catalan_q_coeffs(g, p)
    for _ in range(n):
        coeffs = _poly_mul(coeffs, [1, -1])
    return _int_poly(coeffs, -n * p)


def _first_diff(lhs: LaurentPoly, rhs: LaurentPoly) -> str | None:
    if lhs == rhs:
        return None
    diff = lhs - rhs
    e = diff.min_exp()
    frac = (
        f"q^{e}" if diff.root_order == 1 else f"q^({e}/{diff.root_order})"
    )
    return f"{frac}: {diff.coeff(e)}"


class _AtRoot(NamedTuple):
    """One character's fake and generic degree at a root of unity."""

    feg: Cyclotomic
    deg: Cyclotomic


_FEG = attrgetter("feg")
_DEG = attrgetter("deg")


@lru_cache(maxsize=None)
def _values_at(g: GroupSpec, r: int) -> tuple[_AtRoot, ...]:
    """Feg and Deg of every character, in all_char_data order, at
    zeta_h^r for a residue 0 <= r < h.

    A value at zeta_h^p depends on p only through p mod h, conductor
    included, so every p with p % h == r reads this row.
    """
    h = invariants(g).coxeter_number
    return tuple(
        _AtRoot(eval_at_root(cd.feg, h, r), eval_at_root(cd.deg, h, r))
        for cd in all_char_data(g).values()
    )


def _dim(cd) -> LaurentPoly:
    """A character's degree as a constant polynomial: the parking weight."""
    return _int_poly([dimension(cd.label)])


@lru_cache(maxsize=None)
def _class_sums(
    g: GroupSpec, r: int, at_root, weight
) -> tuple[tuple[int, dict[int, Cyclotomic]], ...]:
    """The character sum at zeta_h^r before the shift by p, one class of
    terms per h_char: pairs of h_char - n h and the class's sum
    at_root(char)(zeta_h^r) * weight(char), as exponents of y mapped to
    nonzero coefficients.

    Characters with one h_char share the shift y^((h_char - n h) p), so
    a class adds to one polynomial that depends on p only through
    r = p mod h.  Only characters whose `at_root` value is nonzero
    count; on the checks' sums those form the n+1 classes h_char = k h.
    Each term is weight(char) in the root variable times its scalar, so
    every coefficient is at the scalars' conductor h.
    """
    h = invariants(g).coxeter_number
    nh = g.n * h
    classes: dict[int, LaurentPoly] = {}
    for cd, values in zip(all_char_data(g).values(), _values_at(g, r)):
        scalar = at_root(values)
        if not scalar.is_zero():
            k = cd.h_char - nh
            term = weight(cd).with_root_order(h) * scalar
            classes[k] = classes[k] + term if k in classes else term
    return tuple((k, s.t) for k, s in classes.items())


def _char_sum(g: GroupSpec, p: int, at_root, weight) -> LaurentPoly:
    """sum over characters of
    y^((h_char - n h) p) * at_root(char)(zeta_h^p) * weight(char),
    in the root variable y with y^h = q.  Callers validate p.

    `at_root` reads a character's row of _values_at.  The sum shifts
    each class of _class_sums at p mod h by its (h_char - n h) p, and
    adds the classes where they meet on one exponent.
    """
    h = invariants(g).coxeter_number
    out: dict[int, Cyclotomic] = {}
    for k, coeffs in _class_sums(g, p % h, at_root, weight):
        shift = k * p
        for e, c in coeffs.items():
            e += shift
            if e in out:
                c = out.pop(e) + c
                if c.is_zero():
                    continue
            out[e] = c
    return LaurentPoly(out, "q", h, reduced=True)


def _timed(
    g: GroupSpec, p: int | None, claim: str, lhs=None, rhs=None, failures=None
) -> VerificationReport:
    """Run one check under the clock and report it.

    A comparison passes thunks `lhs` and `rhs`; `rhs` runs first, so a
    left side that raises still leaves the right side in the report.
    Other checks pass `failures`, a generator of failure descriptions.
    Inexact divisions and fractional powers would falsify the theory, so
    they become the witness too.
    """
    start = time.perf_counter()
    left = right = None
    try:
        if failures is None:
            right = rhs()
            left = lhs()
            found = _first_diff(left, right)
        else:
            found = "; ".join(failures()) or None
    except (InexactDivisionError, FractionalPowerError) as exc:
        found = f"{type(exc).__name__}: {exc}"
    ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(
        str(g), p, claim, found is None, left, right, found, ms
    )


def trace_sum(g: GroupSpec, p: int) -> LaurentPoly:
    """The character-expansion trace sum, as an exact Laurent polynomial
    in q.

    The character sum is collapsed to the smallest root order that
    divides its exponents, which is q itself whenever the identity
    holds, and divided by P_W there: long division commutes with
    y -> y^k, so divisibility and fractional powers come out as they
    would in the root variable, with shorter dense lists.

    Raises InexactDivisionError if the Poincare polynomial fails to
    divide the sum, and FractionalPowerError if the total retains
    genuinely fractional q-powers; either would falsify the theory and
    is surfaced, never suppressed.
    """
    if g.kind not in (KIND_G1, KIND_GM):
        raise ValueError("trace sums cover the imprimitive kinds only")
    _check_p(g, p)
    total = _char_sum(g, p, _FEG, _DEG).collapse()
    if not total.is_zero():
        _check_dense(p, total.max_exp() - total.min_exp() + 1, "the trace sum")
    quotient = poly_exact_div(total, poincare(g).with_root_order(total.root_order))
    return quotient.in_q()


def verify_main(g: GroupSpec, p_list) -> tuple[VerificationReport, ...]:
    """Compare trace_sum with the closed Catalan form for each p."""
    return tuple(
        _timed(
            g, p, "main",
            lhs=partial(trace_sum, g, p),
            rhs=partial(closed_form_main, g, p),
        )
        for p in p_list
    )


def verify_vanishing(g: GroupSpec, p: int) -> VerificationReport:
    """Evaluate every generic degree at zeta_h^p: the value must be
    (-1)^k exactly on the n+1 exterior-twist labels and 0 elsewhere."""
    h = _check_p(g, p)

    def failures():
        twists = {
            exterior_twist_label(g, k, p): k for k in range(g.n + 1)
        }
        for lab, values in zip(all_char_data(g), _values_at(g, p % h)):
            value = values.deg
            expected = (-1) ** twists[lab] if lab in twists else 0
            # is_zero is far cheaper than comparing with the rational 0
            if not value.is_zero() if expected == 0 else value != expected:
                yield f"{label_str(lab)}: got {value}, expected {expected}"
                return

    return _timed(g, p, "vanishing", failures=failures)


def verify_parking(g: GroupSpec, p: int) -> VerificationReport:
    """The Wedderburn-weighted sum against (q - 1)^n [p]_q^n.

    The left side is sum over characters of
    q^((n h - h_char) p / h) * dim * Feg(zeta_h^(-p)), the character sum
    at -p; it must collapse to the exact polynomial (q^p - 1)^n.
    """
    _check_p(g, p)
    return _timed(
        g, p, "parking",
        lhs=lambda: _char_sum(g, -p, _FEG, _dim).in_q(),
        rhs=lambda: _q_power_minus_one(p, g.n),
    )


def _q_power_minus_one(p: int, n: int) -> LaurentPoly:
    """(q^p - 1)^n by the binomial theorem: the n+1 terms
    C(n, k) (-1)^(n-k) q^(kp)."""
    return LaurentPoly(
        {k * p: Cyclotomic.rational(comb(n, k) * (-1) ** (n - k)) for k in range(n + 1)},
        reduced=True,
    )
