"""Fake degrees, generic degrees, Schur elements, and the derived scalar
invariants for every character of G(m,1,n) and G(m,m,n).

Fake and generic degrees share one shape in the character's m-symbol S:
numer * prod_{d in degrees} (q^d - 1) * q^(-stair) / prod_rows theta,
with one exact division.  The fake degree's numer is the rows'
Vandermonde products times a q-power weight summed over the rotations;
the generic degree's is the signed symbol-binomial product, and its
quotient is scaled by tau(m)^(-ell).  The group kind is data only: the
stair's content offset (1 for G(m,1,n), 0 for G(m,m,n)), the rotations
(the identity, or all m), and the rotation stabilizer s of S, which
scales the fake degree by 1/s and the generic degree by m/s on G(m,m,n).
Both routes read the stair and the exponents of theta from `_stair` and
`_theta_exponents`.

Generic degrees are computed in the group ring Z[C_m][q], as m int
lists, one per power of zeta_m, with no reduction along the way.  A
binomial q^lam zeta^i - q^mu zeta^j is two shifted, rotated list
additions and each q^d - 1 a shift-subtract per list; the stair is an
exponent offset.  Division by theta (an int polynomial with leading
coefficient 1) is long division per list, and its remainder must vanish
mod Phi_m (`exactnum._ring_exact_div`).  Each quotient coefficient is
then reduced once.  Fake degrees and Schur elements stay on the
Cyclotomic LaurentPoly kernel (`_symbol_quotient`, `poly_exact_div`)
for now: the `chars` benchmark re-imports the package before each
operation, outside its timer, so a faster character layer lengthens a
`chars` run on the wall clock until the benchmark bounds that time.

Schur elements: two independent closed forms for G(m,1,n) (a hook
product form and a symbol-free multiplicative form), which must agree;
for G(m,m,n), the exact quotient of the Poincare polynomial by the
generic degree, which exists precisely because these groups are
spetsial.

Derived scalars per character: a and A (valuation and degree of the
generic degree), b and B (of the dual character's fake degree), the
generalized Coxeter number h = a + A, and the content c = |R| - h.  The
assembly cross-validates h three independent ways and refuses to return
inconsistent data.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .exactnum import (
    Cyclotomic,
    LaurentPoly,
    _ring_exact_div,
    _ring_poly,
    cyclo,
    cyclo_rational,
    poly_exact_div,
    q_monomial,
    q_poly,
)
from .groups import KIND_G1, GroupSpec, invariants
from .labels import (
    CharLabel,
    _rotations,
    _twist_parts,
    all_labels,
    conjugate_partition,
    dimension,
    dual_label,
)
from .symbols import (
    Family,
    MSymbol,
    _content_offset,
    families,
    raw_defect,
    rotation_stabilizer,
    symbol_of,
)

__all__ = [
    "CharData",
    "tau",
    "fake_degree",
    "generic_degree",
    "schur_element",
    "char_data",
    "all_char_data",
    "poincare",
    "family_invariants",
]


def poincare(g: GroupSpec) -> LaurentPoly:
    return invariants(g).poincare


@lru_cache(maxsize=None)
def tau(m: int) -> Cyclotomic:
    """prod_{0 <= i < j < m} (zeta_m^i - zeta_m^j), exactly in Q(zeta_m)."""
    out = cyclo_rational(1)
    for i in range(m):
        for j in range(i + 1, m):
            out = out * (cyclo(m, i) - cyclo(m, j))
    return out


def _theta_exponents(s: MSymbol, m: int) -> list[int]:
    """The d of every factor q^d - 1 of prod_rows theta: m*j for j = 1..e
    over every entry e of every row."""
    return [m * j for row in s.rows for e in row for j in range(1, e + 1)]


def _stair(g: GroupSpec, s: MSymbol) -> int:
    """sum_{j=1}^{ell-1} C(m*j + offset, 2) with ell = content // m and
    the content offset 1 for G(m,1,n) symbols (content 1 mod m), 0 for
    G(m,m,n) (content 0 mod m)."""
    m, offset = g.m, _content_offset(g)
    return sum(comb(m * j + offset, 2) for j in range(1, s.content // m))


def _delta(row, m: int) -> LaurentPoly:
    """prod over pairs mu < lam within a row of (q^{m lam} - q^{m mu})."""
    out = q_poly([(0, 1)])
    for b, lam in enumerate(row):
        for mu in row[:b]:
            out = out * (q_monomial(m * lam) - q_monomial(m * mu))
    return out


def _symbol_quotient(g: GroupSpec, s: MSymbol, numer: LaurentPoly) -> LaurentPoly:
    """numer * prod_{d in degrees} (q^d - 1) * q^(-stair) / prod_rows theta,
    exactly, through the Cyclotomic LaurentPoly kernel."""
    for d in invariants(g).degrees:
        numer = numer * (q_monomial(d) - 1)
    den = q_poly([(0, 1)])
    for d in _theta_exponents(s, g.m):
        den = den * (q_monomial(d) - 1)
    return poly_exact_div(numer.shift(-_stair(g, s)), den)


def _times_q_power_minus_one(a: list[int], d: int) -> list[int]:
    """a * (q^d - 1) for a dense int list a."""
    out = [0] * d + a
    for i, x in enumerate(a):
        out[i] -= x
    return out


def _times_binomial(comps: list[list[int]], lam: int, i: int, mu: int, j: int):
    """comps * (q^lam zeta^i - q^mu zeta^j) in Z[C_m][q], where comps[k]
    is the coefficient list of zeta^k and all have one length."""
    m, width = len(comps), len(comps[0]) + max(lam, mu)
    out = []
    for k in range(m):
        row = [0] * width
        for e, x in enumerate(comps[(k - i) % m], lam):
            row[e] = x
        for e, x in enumerate(comps[(k - j) % m], mu):
            row[e] -= x
        out.append(row)
    return out


def fake_degree(lab: CharLabel) -> LaurentPoly:
    """Graded multiplicity of the character in the coinvariant algebra,
    as a polynomial in q; its value at q = 1 is the dimension."""
    g = lab.group
    s = symbol_of(lab)
    m, rows = g.m, s.rows
    numer = q_poly(
        [
            (sum((m - i) * sum(rows[(i + j) % m]) for i in range(1, m)), 1)
            for j in _rotations(g)
        ]
    )
    for row in rows:
        numer = numer * _delta(row, m)
    return _symbol_quotient(g, s, numer) * Fraction(1, rotation_stabilizer(s))


def _generic_degree_of_symbol(g: GroupSpec, s: MSymbol) -> LaurentPoly:
    """The signed symbol-binomial product times prod_{d in degrees}
    (q^d - 1) * q^(-stair) / prod_rows theta in Z[C_m][q], reduced once
    per coefficient, then scaled by tau(m)^(-ell) * len(rotations) / s."""
    m, rows = g.m, s.rows
    ell = s.content // m
    defect_steps = raw_defect(s)
    assert defect_steps % m == 0, "unipotent symbols have defect 0 mod m"
    gamma = (defect_steps // m) * (m * ell - 1)
    sign = (-1) ** (comb(m, 2) * comb(ell, 2) + gamma)
    binomials = [
        (lam, i, mu, j)
        for i in range(m)
        for j in range(i, m)
        for lam in rows[i]
        for mu in rows[j]
        if i < j or mu < lam
    ]
    comps = [[sign]] + [[0] for _ in range(m - 1)]
    for b in binomials:
        comps = _times_binomial(comps, *b)
    for d in invariants(g).degrees:
        comps = [_times_q_power_minus_one(c, d) for c in comps]
    den = [1]
    for d in _theta_exponents(s, m):
        den = _times_q_power_minus_one(den, d)
    stair = _stair(g, s)
    quot = _ring_exact_div(comps, den, -stair)
    # conductor m once a binomial is multiplied in, 1 otherwise: where
    # the Cyclotomic kernel leaves the coefficients
    return _ring_poly(quot[: m if binomials else 1], -stair) * (
        tau(m).inv() ** ell * Fraction(len(_rotations(g)), rotation_stabilizer(s))
    )


def generic_degree(lab: CharLabel) -> LaurentPoly:
    """The q-polynomial playing the role of a principal-series character
    degree; it is the Poincare polynomial divided by the Schur element,
    and a genuine polynomial because the supported groups are spetsial."""
    return _generic_degree_of_symbol(lab.group, symbol_of(lab))


# ---------------------------------------------------------------------------
# Schur elements for G(m,1,n): two independent closed forms


def _young_cells(lam):
    return [(i, j) for i, row in enumerate(lam, 1) for j in range(1, row + 1)]


def _hook(lam_s, lam_t_conj, i, j):
    """lam_s[i] - i + lam_t'[j] - j + 1 with 1-based i, j."""
    arm = lam_s[i - 1] if i <= len(lam_s) else 0
    leg = lam_t_conj[j - 1] if j <= len(lam_t_conj) else 0
    return arm - i + leg - j + 1


def _n_stat(lam) -> int:
    return sum((i - 1) * part for i, part in enumerate(lam, 1))


def schur_element(lab: CharLabel, formula: str = "chlouveraki") -> LaurentPoly:
    """Schur element of a G(m,1,n) character at the spetsial
    specialization, by either of two published closed forms.

    formula = "chlouveraki": a single product of shifted hook binomials
    divided by (q-1)^n.  formula = "mathas": hook q-integers with the
    cross-component correction factors.  The two must agree exactly.
    """
    g = lab.group
    if g.kind != KIND_G1:
        raise ValueError(
            "closed Schur forms cover G(m,1,n); use char_data for G(m,m,n)"
        )
    if formula == "chlouveraki":
        return _schur_chlouveraki(lab)
    if formula == "mathas":
        return _schur_mathas(lab)
    raise ValueError(f"unknown formula {formula!r}")


def _schur_chlouveraki(lab: CharLabel) -> LaurentPoly:
    m, n = lab.group.m, lab.group.n
    parts = lab.parts
    conjs = [conjugate_partition(p) for p in parts]
    flat = sorted((x for p in parts for x in p), reverse=True)
    sign = (-1) ** (n * (m - 1))
    out = q_poly([(0, sign)]).shift(-_n_stat(flat))
    for s in range(m):
        for (i, j) in _young_cells(parts[s]):
            for t in range(m):
                h = _hook(parts[s], conjs[t], i, j)
                e = h + (1 if s == 0 else 0) - (1 if t == 0 else 0)
                z = cyclo(m, s - t)
                out = out * (LaurentPoly({e: z}) - 1)
    return poly_exact_div(out, (q_monomial(1) - 1) ** n)


def _schur_mathas(lab: CharLabel) -> LaurentPoly:
    m, n = lab.group.m, lab.group.n
    parts = lab.parts
    conjs = [conjugate_partition(p) for p in parts]

    def q_cap(s):
        # Q_s as a Laurent polynomial: q for s = 0, else the scalar zeta^s
        return q_monomial(1) if s == 0 else q_poly([(0, cyclo(m, s))])

    alpha = sum(_n_stat(p) for p in parts)
    sign = (-1) ** (m * n)
    numer = q_poly([(0, sign)]).shift(-alpha - n)
    den = q_poly([(0, 1)])
    for s in range(m):
        qs = q_cap(s)
        for (i, j) in _young_cells(parts[s]):
            h = _hook(parts[s], conjs[s], i, j)
            numer = numer * qs * q_poly([(e, 1) for e in range(h)])
        for t in range(s + 1, m):
            qt = q_cap(t)
            lam_t = parts[t]
            lam_t_conj = conjs[t]
            first_col = lam_t[0] if lam_t else 0
            for (i, j) in _young_cells(lam_t):
                numer = numer * (q_monomial(j - i) * qt - qs)
            for (i, j) in _young_cells(parts[s]):
                e = j - i
                numer = numer * (q_monomial(e) * qs - q_monomial(first_col) * qt)
                for k in range(1, first_col + 1):
                    col = lam_t_conj[k - 1] if k <= len(lam_t_conj) else 0
                    numer = numer * (
                        q_monomial(e) * qs - q_monomial(k - 1 - col) * qt
                    )
                    den = den * (
                        q_monomial(e) * qs - q_monomial(k - col) * qt
                    )
    return poly_exact_div(numer, den)


# ---------------------------------------------------------------------------
# assembled per-character data


@dataclass(frozen=True)
class CharData:
    label: CharLabel
    feg: LaurentPoly
    deg: LaurentPoly
    schur: LaurentPoly
    a: int
    A: int
    b: int
    B: int
    h_char: int
    content_c: int

    def to_json(self):
        from .labels import label_str

        return {
            "label": label_str(self.label),
            "feg": self.feg.to_json(),
            "deg": self.deg.to_json(),
            "schur": self.schur.to_json(),
            "a": self.a,
            "A": self.A,
            "b": self.b,
            "B": self.B,
            "h": self.h_char,
            "c": self.content_c,
        }


def _exterior_twist_power(lab: CharLabel) -> int | None:
    """k when the label has the exterior-twist shape (n-k) + column 1^k in
    a component coprime to m, else None."""
    g = lab.group
    for k in range(g.n + 1):
        for slot in range(g.m):
            if k and gcd(slot, g.m) != 1:
                continue
            if _twist_parts(g, k, slot) == lab.parts:
                return k
    return None


def char_data(lab: CharLabel) -> CharData:
    return all_char_data(lab.group)[lab]


@lru_cache(maxsize=None)
def all_char_data(g: GroupSpec) -> dict[CharLabel, CharData]:
    """CharData for every label of the group, cross-validated.

    The generalized Coxeter number is required to agree between (i) the
    valuation-plus-degree of the generic degree, (ii) the exponent-sum
    route through the fake degrees of the character and its dual, and
    (iii) k times the Coxeter number on exterior-twist labels; any
    mismatch raises.
    """
    inv = invariants(g)
    p_w = inv.poincare
    labs = all_labels(g)
    fegs = {lab: fake_degree(lab) for lab in labs}
    out: dict[CharLabel, CharData] = {}
    for lab in labs:
        deg = generic_degree(lab)
        if g.kind == KIND_G1:
            schur = schur_element(lab, "chlouveraki")
        else:
            schur = poly_exact_div(p_w, deg)
        feg = fegs[lab]
        dim = dimension(lab)
        if feg.value_at_one() != dim or deg.value_at_one() != dim:
            raise AssertionError(f"degree values at q=1 disagree with dim({lab})")
        a, A = deg.min_exp(), deg.max_exp()
        dual_feg = fegs[dual_label(lab)]
        b, B = dual_feg.min_exp(), dual_feg.max_exp()
        h_char = a + A
        n_sum = feg.derivative_at_one().as_fraction()
        n_sum_dual = dual_feg.derivative_at_one().as_fraction()
        if Fraction(h_char) != (n_sum + n_sum_dual) / dim:
            raise AssertionError(
                f"exponent-sum route disagrees with a + A for {lab}"
            )
        k = _exterior_twist_power(lab)
        if k is not None and h_char != k * inv.coxeter_number:
            raise AssertionError(
                f"exterior-twist label {lab} has h = {h_char}, "
                f"expected {k} * {inv.coxeter_number}"
            )
        out[lab] = CharData(
            label=lab,
            feg=feg,
            deg=deg,
            schur=schur,
            a=a,
            A=A,
            b=b,
            B=B,
            h_char=h_char,
            content_c=inv.num_reflections - h_char,
        )
    return out


def family_invariants(g: GroupSpec) -> tuple[tuple[Family, int, int], ...]:
    """Families with their shared (a, A); raises if not constant."""
    data = all_char_data(g)
    out = []
    for fam in families(g):
        a_vals = {data[lab].a for lab in fam.members}
        A_vals = {data[lab].A for lab in fam.members}
        if len(a_vals) != 1 or len(A_vals) != 1:
            raise AssertionError(
                f"family {[str(l) for l in fam.members]} has non-constant (a, A)"
            )
        out.append((fam, a_vals.pop(), A_vals.pop()))
    return tuple(out)
