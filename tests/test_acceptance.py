"""Acceptance suite: every release criterion, exact arithmetic, zero
tolerance.  Each test prints one pass/fail line (run with -s to see them
on success)."""
import random
import time
from fractions import Fraction
from math import comb, gcd

from spetscat.exactnum import (
    Cyclotomic,
    LaurentPoly,
    cyclo_rational,
    eval_at_root,
    poly_exact_div,
    q_poly,
)
from spetscat.groups import Gm1n, Gmmn, TypeA, invariants
from spetscat.labels import (
    CharLabel,
    all_labels,
    dimension,
    dual_label,
    exterior_twist_label,
)
from spetscat.degrees import all_char_data, fake_degree, poincare, schur_element
from spetscat.tableaux import reflection_character_sum
from spetscat.fourier import (
    pairing_symmetry_report,
    verify_T1,
    verify_transform_swap,
)
from spetscat.chartable import (
    cyclic_group_table,
    nonabelian_fourier,
    symmetric_group_table,
)
from spetscat.catalan import (
    catalan,
    coprime_range,
    trace_sum,
    verify_main,
    verify_parking,
    verify_vanishing,
)

GROUPS = [
    Gm1n(2, 2),
    Gm1n(2, 3),
    Gm1n(3, 2),
    Gm1n(3, 3),
    Gm1n(4, 2),
    Gmmn(2, 3),
    Gmmn(3, 2),
    Gmmn(3, 3),
    Gmmn(4, 3),
]

SCHUR_GROUPS = [Gm1n(2, 2), Gm1n(2, 3), Gm1n(3, 2), Gm1n(4, 2)]
FOURIER_GROUPS = [Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3)]


def _sweep(g):
    h = invariants(g).coxeter_number
    return coprime_range(h, 3 * h)


def _report(number, ok, detail):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d} failed: {detail}"


def test_criterion_01_main_identity():
    start = time.perf_counter()
    checked = 0
    for g in GROUPS:
        for rep in verify_main(g, _sweep(g)):
            assert rep.equal, (rep.group, rep.p, rep.witness)
            checked += 1
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 300, f"trace sum = closed form, {checked} cases, {elapsed:.1f}s")


def test_criterion_02_vanishing():
    checked = 0
    for g in GROUPS:
        for p in _sweep(g):
            rep = verify_vanishing(g, p)
            assert rep.equal, (rep.group, rep.p, rep.witness)
            checked += 1
    _report(2, True, f"generic degrees at h-th roots, {checked} full scans")


def test_criterion_03_parking():
    checked = 0
    for g in GROUPS:
        for p in _sweep(g):
            rep = verify_parking(g, p)
            assert rep.equal, (rep.group, rep.p, rep.witness)
            checked += 1
    _report(3, True, f"weighted sums equal (q-1)^n [p]_q^n, {checked} cases")


def test_criterion_04_spetsiality():
    for g in GROUPS:
        if g.kind == "Gm1n":
            triv = CharLabel(g, ((g.n,),) + ((),) * (g.m - 1))
            assert schur_element(triv, "chlouveraki") == poincare(g)
        data = all_char_data(g)
        p_w = poincare(g)
        for lab, cd in data.items():
            quotient = poly_exact_div(p_w, cd.schur)
            assert quotient == cd.deg
            assert quotient.min_exp() >= 0, f"{lab}: quotient is not a polynomial"
    _report(4, True, "trivial Schur = Poincare; all quotients are polynomials")


def test_criterion_05_schur_cross_check():
    checked = 0
    for g in SCHUR_GROUPS:
        for lab in all_labels(g):
            both = (
                schur_element(lab, "mathas"),
                schur_element(lab, "chlouveraki"),
            )
            assert both[0] == both[1], str(lab)
            checked += 1
    _report(5, True, f"hook-product and binomial Schur forms agree, {checked} labels")


def test_criterion_06_h_consistency():
    for g in FOURIER_GROUPS:
        inv = invariants(g)
        data = all_char_data(g)
        for lab, cd in data.items():
            dim = dimension(lab)
            n_sum = fake_degree(lab).derivative_at_one().as_fraction()
            n_dual = fake_degree(dual_label(lab)).derivative_at_one().as_fraction()
            assert Fraction(cd.a + cd.A) == (n_sum + n_dual) / dim, str(lab)
            c_matrix = reflection_character_sum(lab).as_fraction()
            assert cd.a + cd.A == inv.num_reflections - c_matrix, str(lab)
    twists = 0
    for g in GROUPS:
        inv = invariants(g)
        data = all_char_data(g)
        for p in coprime_range(inv.coxeter_number, inv.coxeter_number)[:4]:
            for k in range(g.n + 1):
                lab = exterior_twist_label(g, k, p)
                assert data[lab].h_char == k * inv.coxeter_number
                twists += 1
    _report(6, True, f"a+A = exponent-sum = |R|-c; {twists} twist labels at k*h")


def test_criterion_07_twisted_reflection_fake_degrees():
    checked = 0
    for g in GROUPS:
        inv = invariants(g)
        h = inv.coxeter_number
        for p in _sweep(g):
            feg = fake_degree(exterior_twist_label(g, 1, p))
            expected = q_poly([((p * e) % h, 1) for e in inv.exponents])
            assert feg == expected, (str(g), p)
            assert feg.max_exp() < h
            checked += 1
    _report(7, True, f"twisted reflection fake degrees with exponents < h, {checked} cases")


def test_criterion_08_fourier_suite():
    for g in FOURIER_GROUPS:
        t1 = verify_T1(g)
        assert t1.equal, t1.witness
        t23 = pairing_symmetry_report(g)
        assert t23.equal, t23.witness
        for p in _sweep(g):
            rep = verify_transform_swap(g, p)
            assert rep.equal, (str(g), p, rep.witness)
    _report(8, True, "T1 exact, T2 symmetric, T3 support, swap identity")


def test_criterion_09_catalan_spot_values():
    assert catalan(TypeA(3), 5) == 7
    for g in GROUPS + [TypeA(3), TypeA(4)]:
        assert catalan(g, 1) == 1
    h = invariants(Gm1n(2, 2)).coxeter_number
    assert catalan(Gm1n(2, 2), h + 1) == 6 == comb(4, 2)
    _report(9, True, "Cat(3,5) = 7, Cat_1 = 1, Cat_(h+1) = 6 on the rank-2 case")


def test_criterion_10_nonabelian_fourier():
    half = Fraction(1, 2)
    for name, table in (
        ("Z2", cyclic_group_table(2)),
        ("Z3", cyclic_group_table(3)),
        ("S3", symmetric_group_table(3)),
    ):
        nf = nonabelian_fourier(table)
        size = len(nf.pairs)
        for i in range(size):
            for j in range(size):
                total = cyclo_rational(0)
                for k in range(size):
                    total = total + nf.matrix[i][k] * nf.matrix[j][k].conjugate()
                assert total == (1 if i == j else 0), (name, i, j)
        if name == "Z2":
            assert all(v == half or v == -half for row in nf.matrix for v in row)
    _report(10, True, "transforms of Z2, Z3, S3 exactly unitary; Z2 entries +-1/2")


def _random_cyclotomic(rng, conductor):
    coeffs = {
        rng.randrange(conductor): Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        for _ in range(rng.randint(1, 3))
    }
    return Cyclotomic(conductor, {e: c for e, c in coeffs.items() if c})


def _random_laurent(rng, conductor):
    return LaurentPoly(
        {
            rng.randint(-5, 6): _random_cyclotomic(rng, conductor)
            for _ in range(rng.randint(1, 4))
        }
    )


def test_criterion_11_randomized_kernel_suite():
    rng = random.Random(20260810)
    conductors = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 21, 24]
    cases = 0
    for _ in range(400):
        n = rng.choice(conductors)
        a, b, c = (_random_cyclotomic(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == 1
        cases += 1
    for _ in range(300):
        n = rng.choice([1, 2, 3, 4, 6, 8, 12])
        f, g = _random_laurent(rng, n), _random_laurent(rng, n)
        if not g.is_zero():
            assert poly_exact_div(f * g, g) == f
        cases += 1
    for _ in range(300):
        n = rng.choice([1, 2, 3, 4, 6, 12])
        root_n, k = rng.choice([(3, 1), (4, 1), (5, 2), (6, 5), (8, 3), (12, 7)])
        f, g = _random_laurent(rng, n), _random_laurent(rng, n)
        assert eval_at_root(f * g, root_n, k) == eval_at_root(f, root_n, k) * eval_at_root(g, root_n, k)
        assert eval_at_root(f + g, root_n, k) == eval_at_root(f, root_n, k) + eval_at_root(g, root_n, k)
        cases += 1
    _report(11, cases == 1000, f"randomized kernel suite, {cases} cases, fixed seed")
