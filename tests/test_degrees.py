from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from spetscat.exactnum import LaurentPoly, cyclo, poly_exact_div, q_monomial, q_poly
from spetscat.groups import KIND_G1, Gm1n, Gmmn, invariants
from spetscat.labels import (
    CharLabel,
    all_labels,
    conjugate_partition,
    dimension,
    dual_label,
    exterior_twist_label,
    rotate,
)
from spetscat.symbols import raw_defect, rotation_stabilizer, symbol_of
from spetscat import degrees
from spetscat.degrees import (
    all_char_data,
    fake_degree,
    family_invariants,
    generic_degree,
    poincare,
    schur_element,
    tau,
)

SMALL_GROUPS = [Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3), Gmmn(3, 2), Gmmn(2, 3), Gmmn(3, 3)]

# the nine acceptance groups, plus G(2,1,4) and G(3,3,4)
ORACLE_GROUPS = [
    Gm1n(2, 2),
    Gm1n(2, 3),
    Gm1n(3, 2),
    Gm1n(3, 3),
    Gm1n(4, 2),
    Gm1n(2, 4),
    Gmmn(2, 3),
    Gmmn(3, 2),
    Gmmn(3, 3),
    Gmmn(4, 3),
    Gmmn(3, 4),
]


def test_fake_degree_examples():
    g = Gm1n(2, 2)
    assert fake_degree(CharLabel(g, ((2,), ()))) == q_poly([(0, 1)])
    assert fake_degree(CharLabel(g, ((1,), (1,)))) == q_poly([(1, 1), (3, 1)])


def test_fake_degree_values_at_one():
    for g in SMALL_GROUPS:
        for lab in all_labels(g):
            assert fake_degree(lab).value_at_one() == dimension(lab)


def _stembridge_fake_degree(m, n, parts):
    """Stembridge's hook formula for the G(m,1,n) fake degree of the
    m-partition `parts`, with no symbol: prod_{i<=n} (q^{mi} - 1) times
    q^(sum_j m n(lam^j) + ((m - j) mod m) |lam^j|) over the product of
    (q^{m hook} - 1) over the cells of every lam^j."""
    numer = q_monomial(
        sum(
            m * sum(i * part for i, part in enumerate(lam)) + ((m - j) % m) * sum(lam)
            for j, lam in enumerate(parts)
        )
    )
    for i in range(1, n + 1):
        numer = numer * (q_monomial(m * i) - 1)
    den = q_poly([(0, 1)])
    for lam in parts:
        conj = conjugate_partition(lam)
        for i, row in enumerate(lam):
            for j in range(row):
                den = den * (q_monomial(m * (row - j + conj[j] - i - 1)) - 1)
    return poly_exact_div(numer, den)


@pytest.mark.parametrize("g", ORACLE_GROUPS, ids=str)
def test_fake_degree_matches_hook_formula(g):
    """G(m,1,n): fake_degree is the hook formula.  G(m,m,n): by Clifford
    restriction, the hook formula summed over the rotation orbit of the
    m-partition is fake_degree times [m]_{q^n}."""
    m, n = g.m, g.n
    q_n_int = q_poly([(n * i, 1) for i in range(m)])
    for lab in all_labels(g):
        if g.kind == KIND_G1:
            assert fake_degree(lab) == _stembridge_fake_degree(m, n, lab.parts), lab
            continue
        orbit, cur = set(), lab.parts
        for _ in range(m):
            orbit.add(cur)
            cur = rotate(cur)
        total = q_poly([])
        for parts in orbit:
            total = total + _stembridge_fake_degree(m, n, parts)
        assert total == fake_degree(lab) * q_n_int, lab


def test_regular_representation_identity():
    for g in SMALL_GROUPS:
        total = q_poly([])
        for lab in all_labels(g):
            total = total + fake_degree(lab) * dimension(lab)
        assert total == poincare(g)


def test_generic_degree_examples():
    g = Gm1n(2, 2)
    assert generic_degree(CharLabel(g, ((2,), ()))) == q_poly([(0, 1)])
    half = Fraction(1, 2)
    assert generic_degree(CharLabel(g, ((1,), (1,)))) == q_poly(
        [(1, half), (2, 1), (3, half)]
    )
    det_like = CharLabel(g, ((), (2,)))
    assert generic_degree(det_like).value_at_one() == 1


def test_generic_degree_of_trivial_is_one_for_gmmn():
    from spetscat.labels import canonical_rotation

    for g in (Gmmn(3, 2), Gmmn(2, 3), Gmmn(3, 3), Gmmn(4, 3)):
        parts = canonical_rotation(((g.n,),) + ((),) * (g.m - 1))
        triv = CharLabel(g, parts, 0)
        assert generic_degree(triv) == q_poly([(0, 1)])


def _twist_degree_closed_form(g, k, p):
    """Independent product formula for the generic degree of the k-th
    exterior power of the p-twisted reflection representation, k >= 1."""
    m, n = g.m, g.n
    z = cyclo(m, p)
    num = q_monomial(k + m * comb(k, 2)) * (q_monomial(n - k) - z)
    for i in range(k, n + 1):
        num = num * (q_monomial(m * i) - 1)
    den = (q_monomial(k) - 1) * (q_monomial(n) - z) * m
    for j in range(1, n - k + 1):
        den = den * (q_monomial(m * j) - 1)
    return poly_exact_div(num, den)


def test_twist_generic_degrees_match_closed_form():
    for g in (Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3), Gm1n(4, 2)):
        h = invariants(g).coxeter_number
        for p in [p for p in range(1, h + 2) if gcd(p, h) == 1]:
            for k in range(1, g.n + 1):
                lab = exterior_twist_label(g, k, p)
                assert generic_degree(lab) == _twist_degree_closed_form(g, k, p)


# ---------------------------------------------------------------------------
# the Cyclotomic route of the generic degree, as the differential reference


def _binomial_product(rows, m):
    """prod over row pairs i <= j and entries (lam, mu) in row_i x row_j
    (with mu < lam when i = j) of (q^lam zeta^i - q^mu zeta^j)."""
    out = q_poly([(0, 1)])
    for i in range(m):
        zi = cyclo(m, i)
        for j in range(i, m):
            zj = cyclo(m, j)
            for lam in rows[i]:
                for mu in rows[j]:
                    if i == j and not mu < lam:
                        continue
                    out = out * (LaurentPoly({lam: zi}) - LaurentPoly({mu: zj}))
    return out


def _generic_degree_reference(lab):
    """The symbol formula with Cyclotomic coefficients throughout and one
    exact division by the Cyclotomic LaurentPoly kernel."""
    g, s = lab.group, symbol_of(lab)
    m = g.m
    ell = s.content // m
    gamma = (raw_defect(s) // m) * (m * ell - 1)
    sign = (-1) ** (comb(m, 2) * comb(ell, 2) + gamma)
    numer = _binomial_product(s.rows, m) * sign
    return (
        degrees._symbol_quotient(g, s, numer)
        * tau(m).inv() ** ell
        * Fraction(len(degrees._rotations(g)), rotation_stabilizer(s))
    )


# the nine acceptance groups, plus G(2,1,4), G(3,3,4) and G(6,6,2)
REFERENCE_GROUPS = ORACLE_GROUPS + [Gmmn(6, 2)]


@pytest.mark.parametrize("g", REFERENCE_GROUPS, ids=str)
def test_generic_degree_matches_cyclotomic_reference(g):
    """Values and conductors: the group-ring route reduces once per
    coefficient and must land where the Cyclotomic kernel does."""
    for lab in all_labels(g):
        assert generic_degree(lab).to_json() == _generic_degree_reference(lab).to_json(), lab


SMALL_POOL = [Gm1n(m, n) for m in (2, 3, 4, 5, 6) for n in (1, 2)] + [
    Gm1n(2, 3), Gm1n(2, 4), Gm1n(2, 5),
    Gmmn(4, 2), Gmmn(5, 2), Gmmn(7, 2), Gmmn(8, 2), Gmmn(2, 4), Gmmn(2, 5),
]


@settings(max_examples=40, deadline=None)
@given(g=st.sampled_from(SMALL_POOL), data=st.data())
def test_generic_degree_matches_cyclotomic_reference_hypothesis(g, data):
    lab = data.draw(st.sampled_from(all_labels(g)), label="label")
    assert generic_degree(lab).to_json() == _generic_degree_reference(lab).to_json()


def test_schur_trivial_is_poincare():
    for g in (Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3), Gm1n(4, 2)):
        triv = CharLabel(g, ((g.n,),) + ((),) * (g.m - 1))
        assert schur_element(triv, "chlouveraki") == poincare(g)
        assert schur_element(triv, "mathas") == poincare(g)


def test_schur_formulas_agree():
    for g in (Gm1n(2, 2), Gm1n(3, 2)):
        for lab in all_labels(g):
            assert schur_element(lab, "chlouveraki") == schur_element(lab, "mathas")


def test_schur_times_generic_degree_is_poincare():
    for g in SMALL_GROUPS:
        data = all_char_data(g)
        for lab, cd in data.items():
            assert cd.deg * cd.schur == poincare(g)


def test_schur_requires_gm1n_kind():
    with pytest.raises(ValueError):
        schur_element(CharLabel(Gmmn(3, 3), ((3,), (), ()), 0))


def test_char_data_scalar_conventions():
    g = Gm1n(3, 2)
    data = all_char_data(g)
    inv = invariants(g)
    for lab, cd in data.items():
        assert cd.a == cd.deg.min_exp() and cd.A == cd.deg.max_exp()
        dual_feg = fake_degree(dual_label(lab))
        assert cd.b == dual_feg.min_exp() and cd.B == dual_feg.max_exp()
        assert cd.h_char == cd.a + cd.A
        assert cd.content_c == inv.num_reflections - cd.h_char
        assert cd.a <= cd.b


def test_h_char_of_twists():
    for g in (Gm1n(2, 2), Gm1n(3, 2), Gmmn(3, 3)):
        inv = invariants(g)
        data = all_char_data(g)
        for k in range(g.n + 1):
            lab = exterior_twist_label(g, k, 1)
            assert data[lab].h_char == k * inv.coxeter_number


def test_family_shared_a_A():
    for g in SMALL_GROUPS:
        for fam, a, big_a in family_invariants(g):
            data = all_char_data(g)
            for lab in fam.members:
                assert data[lab].a == a and data[lab].A == big_a


def test_tau_squared_value():
    # tau(m)^2 = (-1)^C(m-1,2) * m^m, the radical-free characterization
    for m in (2, 3, 4):
        expected = Fraction((-1) ** comb(m - 1, 2) * m**m)
        assert (tau(m) * tau(m)).as_fraction() == expected
