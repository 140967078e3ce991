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
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm, prod
from operator import attrgetter

from .exactnum import (
    Cyclotomic,
    FractionalPowerError,
    InexactDivisionError,
    LaurentPoly,
    _int_exact_div,
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


def _tops(g: GroupSpec, p: int) -> list[int]:
    """The numerator factors p + (p e_i mod h) of Cat_p(W)."""
    h = _check_p(g, p)
    return [p + (p * e) % h for e in invariants(g).exponents]


def _catalan_q_coeffs(g: GroupSpec, p: int) -> list[int]:
    """Cat_p(W; q) as an int list, ascending: prod [t_i]_q divided
    exactly by prod [d_i]_q, so a non-polynomial value raises
    InexactDivisionError."""
    numer = denom = [1]
    for t in _tops(g, p):
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
    return LaurentPoly(dict(enumerate(_catalan_q_coeffs(g, p))))


def closed_form_main(g: GroupSpec, p: int) -> LaurentPoly:
    """q^(-np) (1-q)^n Cat_p(W; q), a Laurent polynomial in q."""
    n = g.rank
    coeffs = _catalan_q_coeffs(g, p)
    for _ in range(n):
        coeffs = _poly_mul(coeffs, [1, -1])
    return LaurentPoly({i - n * p: c for i, c in enumerate(coeffs)})


def _first_diff(lhs: LaurentPoly, rhs: LaurentPoly) -> str | None:
    if lhs == rhs:
        return None
    diff = lhs - rhs
    e = diff.min_exp()
    frac = (
        f"q^{e}" if diff.root_order == 1 else f"q^({e}/{diff.root_order})"
    )
    return f"{frac}: {diff.coeff(e)}"


_FEG = attrgetter("feg")
_DEG = attrgetter("deg")


def _dim(cd) -> LaurentPoly:
    return LaurentPoly({0: dimension(cd.label)})


def _char_sum(g: GroupSpec, p: int, at_root, weight) -> LaurentPoly:
    """sum over characters of
    y^((h_char - n h) p) * at_root(char)(zeta_h^p) * weight(char),
    in the root variable y with y^h = q.  Callers validate p.

    Each coefficient of the sum is gathered unreduced, as exponents of
    zeta_L with L the lcm of h and every conductor that occurs, and
    reduced once at the end.
    """
    h = invariants(g).coxeter_number
    nh = g.n * h
    terms = []
    for cd in all_char_data(g).values():
        scalar = eval_at_root(at_root(cd), h, p)
        if not scalar.is_zero():
            terms.append((weight(cd), scalar, (cd.h_char - nh) * p))
    n = lcm(
        h,
        *(s.n for _, s, _ in terms),
        *(c.n for w, _, _ in terms for c in w.t.values()),
    )
    slots: dict[int, dict[int, Fraction]] = {}
    for w, s, shift in terms:
        step, rest = divmod(h, w.root_order)
        if rest:
            raise ValueError(f"root_order {h} is not a multiple of {w.root_order}")
        s_lifted = [(i * (n // s.n), v) for i, v in s.c.items()]
        for e, c in w.t.items():
            slot = slots.setdefault(e * step + shift, {})
            lift = n // c.n
            for j, u in c.c.items():
                for i, v in s_lifted:
                    x = (j * lift + i) % n
                    slot[x] = slot.get(x, 0) + u * v
    return LaurentPoly({e: Cyclotomic(n, acc) for e, acc in slots.items()}, "q", h)


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

    Raises InexactDivisionError if the Poincare polynomial fails to
    divide the sum, and FractionalPowerError if the total retains
    genuinely fractional q-powers; either would falsify the theory and
    is surfaced, never suppressed.
    """
    if g.kind not in (KIND_G1, KIND_GM):
        raise ValueError("trace sums cover the imprimitive kinds only")
    h = _check_p(g, p)
    total = _char_sum(g, p, _FEG, _DEG)
    quotient = poly_exact_div(total, poincare(g).with_root_order(h))
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
        for lab, cd in all_char_data(g).items():
            value = eval_at_root(cd.deg, h, p)
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
    """(q^p - 1)^n, multiplied out in int lists."""
    coeffs = [1]
    for _ in range(n):
        coeffs = _poly_mul(coeffs, [-1] + [0] * (p - 1) + [1])
    return LaurentPoly({e: c for e, c in enumerate(coeffs) if c})
