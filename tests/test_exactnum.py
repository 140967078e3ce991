import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from polyref import poly_mul
from spetscat import exactnum
from spetscat.exactnum import (
    Cyclotomic,
    InexactDivisionError,
    LaurentPoly,
    cyclo,
    cyclo_from_json,
    cyclo_rational,
    cyclotomic_polynomial,
    eval_at_root,
    lpoly_from_json,
    poly_exact_div,
    q_int,
    q_monomial,
    q_poly,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_construction():
    assert cyclo(4, 2) == -1
    assert (cyclo(3, 0) + cyclo(3, 1) + cyclo(3, 2)).is_zero()
    assert cyclo(6, 2) == cyclo(6, 1) - 1
    assert cyclo(5, 7) == cyclo(5, 2)


def test_mixed_conductor_arithmetic():
    s = cyclo(4, 1) + cyclo(6, 1)
    assert s.n == 12
    assert s - cyclo(6, 1) == cyclo(4, 1)
    assert cyclo(3, 1) * cyclo(3, 2) == 1
    assert 1 / cyclo(7, 3) == cyclo(7, 4)


def test_division_by_zero_signaled():
    with pytest.raises(ZeroDivisionError):
        cyclo(3, 1) / cyclo_rational(0)
    with pytest.raises(ZeroDivisionError):
        cyclo_rational(0).inv()


def test_conjugation_and_galois():
    a = cyclo(7, 3) + Fraction(1, 2)
    assert a.conjugate().conjugate() == a
    assert cyclo(5, 1).galois(2) == cyclo(5, 2)
    with pytest.raises(ValueError):
        cyclo(6, 1).galois(2)


def test_conductor_lift_round_trip():
    a = cyclo(3, 1) - 2
    lifted = a.lift(12)
    assert lifted.n == 12
    assert lifted == a


def test_serialization_round_trip():
    a = cyclo(12, 7) * Fraction(3, 4) - cyclo(12, 2) + 5
    assert cyclo_from_json(a.to_json()) == a
    f = q_poly([(-2, a), (3, Fraction(1, 2))])
    assert lpoly_from_json(f.to_json()) == f
    assert f.to_json()["terms"][0][0] == -2  # ascending exponents


def test_json_in_another_variable_is_refused():
    data = dict(q_poly([(1, 1)]).to_json(), var="y")
    with pytest.raises(ValueError, match="'y'"):
        lpoly_from_json(data)


ONE_JSON = {"conductor": 1, "coeffs": [[0, "1"]]}


def _lpoly_json(**fields):
    return {"var": "q", "root_order": 1, "terms": [[0, ONE_JSON]], **fields}


@pytest.mark.parametrize(
    "read, data, field",
    [
        (lpoly_from_json, {"root_order": 1, "terms": []}, "var"),
        (lpoly_from_json, {"var": "q", "terms": []}, "root_order"),
        (lpoly_from_json, {"var": "q", "root_order": 1}, "terms"),
        (cyclo_from_json, {"conductor": 3}, "coeffs"),
        (cyclo_from_json, {"coeffs": []}, "conductor"),
        (lpoly_from_json, _lpoly_json(terms=[[1.9, ONE_JSON]]), "terms"),
        (lpoly_from_json, _lpoly_json(terms=[[True, ONE_JSON]]), "terms"),
        (cyclo_from_json, {"conductor": 3, "coeffs": [[1.5, "1"]]}, "coeffs"),
        (cyclo_from_json, {"conductor": 3.0, "coeffs": []}, "conductor"),
        (lpoly_from_json, _lpoly_json(terms=[[0, ONE_JSON], [0, ONE_JSON]]), "terms"),
        (cyclo_from_json, {"conductor": 3, "coeffs": [[0, "1"], [0, "1"]]}, "coeffs"),
        (lpoly_from_json, _lpoly_json(root_order=2), "root_order"),
        (lpoly_from_json, _lpoly_json(root_order=True), "root_order"),
        (cyclo_from_json, {"conductor": 1, "coeffs": [[0, 0.1]]}, "coeffs"),
        (cyclo_from_json, {"conductor": 1, "coeffs": [[0, True]]}, "coeffs"),
        (cyclo_from_json, {"conductor": 1, "coeffs": [[0, "x"]]}, "coeffs"),
        (cyclo_from_json, {"conductor": 1, "coeffs": 5}, "coeffs"),
        (cyclo_from_json, {"conductor": 1, "coeffs": [[0]]}, "coeffs"),
        (lpoly_from_json, _lpoly_json(terms=[[0]]), "terms"),
    ],
    ids=[
        "no-var", "no-root_order", "no-terms", "no-coeffs", "no-conductor",
        "float-exponent", "bool-exponent", "float-k", "float-conductor",
        "repeated-exponent", "repeated-k", "root_order-2", "root_order-True",
        "float-coefficient", "bool-coefficient", "word-coefficient",
        "int-coeffs", "short-coeffs-pair", "short-terms-pair",
    ],
)
def test_malformed_json_is_refused_naming_the_field(read, data, field):
    with pytest.raises(ValueError, match=f"'{field}'"):
        read(data)


def test_exact_division_examples():
    assert poly_exact_div(q_monomial(2) - 1, q_monomial(1) - 1) == q_int(2)
    num = (q_monomial(2) - 1) * (q_monomial(4) - 1)
    assert poly_exact_div(num, (q_monomial(1) - 1) ** 2) == q_int(2) * q_int(4)
    with pytest.raises(InexactDivisionError):
        poly_exact_div(q_monomial(2) + 1, q_monomial(1) - 1)
    with pytest.raises(ZeroDivisionError):
        poly_exact_div(q_int(2), q_poly([]))


def test_eval_at_root_examples():
    assert eval_at_root(q_int(4), 4, 1).is_zero()
    assert eval_at_root(q_monomial(3), 6, 1) == -1
    assert eval_at_root(q_poly([(1, 1), (3, 1)]), 4, 1).is_zero()


@pytest.mark.parametrize("n", [0, -3])
def test_root_order_below_one_is_refused(n):
    with pytest.raises(ValueError, match=f"n = {n} "):
        eval_at_root(q_int(2), n, 1)
    with pytest.raises(ValueError, match=f"n = {n} "):
        cyclo(n, 1)


def _random_cyclotomic(rng, conductor):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randrange(conductor)] = Fraction(
            rng.randint(-4, 4), rng.randint(1, 4)
        )
    return Cyclotomic(conductor, {e: c for e, c in terms.items() if c})


def _random_laurent(rng, conductor):
    return LaurentPoly(
        {
            rng.randint(-4, 5): _random_cyclotomic(rng, conductor)
            for _ in range(rng.randint(1, 4))
        }
    )


def test_field_axioms_randomized():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 21, 24, 60])
        a, b, c = (_random_cyclotomic(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == 1
            assert a.inv().n == a.n


def test_division_round_trip_randomized():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4, 6, 8, 12])
        f = _random_laurent(rng, n)
        g = _random_laurent(rng, n)
        if g.is_zero():
            continue
        assert poly_exact_div(f * g, g) == f


def test_eval_is_ring_homomorphism_randomized():
    rng = random.Random(303)
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4, 6, 12])
        root_n, k = rng.choice([(3, 1), (4, 1), (5, 2), (6, 5), (8, 3)])
        f = _random_laurent(rng, n)
        g = _random_laurent(rng, n)
        ev = lambda h: eval_at_root(h, root_n, k)
        assert ev(f * g) == ev(f) * ev(g)
        assert ev(f + g) == ev(f) + ev(g)


# ---------------------------------------------------------------------------
# fast paths against the reference routes


def _lift_multiply(x, y):
    """The product by lifting both operands to the lcm conductor and
    reducing the convolution: the route a rational operand skips."""
    m = lcm(x.n, y.n)
    acc = {}
    for e1, c1 in x.lift(m).c.items():
        for e2, c2 in y.lift(m).c.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return Cyclotomic(m, acc)


def test_rational_times_cyclotomic_matches_lift_multiply():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 24])
        x = _random_cyclotomic(rng, n)
        r = cyclo_rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for prod, ref in ((r * x, _lift_multiply(r, x)), (x * r, _lift_multiply(x, r))):
            assert (prod.n, prod.c) == (ref.n, ref.c)


def _int_laurent(coeffs, conductor, low=0):
    """LaurentPoly with integer coefficients, all written over one
    conductor."""
    return LaurentPoly(
        {
            low + i: Cyclotomic(conductor, {0: Fraction(c)}, reduced=True)
            for i, c in enumerate(coeffs)
            if c
        }
    )


def _outcome(num, den):
    """The quotient's JSON, or the InexactDivisionError message."""
    try:
        return poly_exact_div(num, den).to_json()
    except InexactDivisionError as exc:
        return f"inexact: {exc}"


def _both_routes(num, den):
    """(outcome on the int path, which must be taken, outcome with every
    division sent through the Cyclotomic loop)."""
    with mock.patch.object(
        exactnum, "_cyclotomic_exact_div", side_effect=AssertionError("took the loop")
    ):
        fast = _outcome(num, den)
    with mock.patch.object(exactnum, "_int_dense", return_value=None):
        return fast, _outcome(num, den)


def _check_int_division(quot, num_n, den, den_n, low, bump):
    """quot * den, written over conductor num_n, divided by den over
    den_n; then the same dividend plus bump = (exponent, coefficient)."""
    den_poly = _int_laurent(den, den_n)
    product = poly_mul(quot, den)
    num = _int_laurent(product, num_n, low)
    fast, ref = _both_routes(num, den_poly)
    assert fast == ref
    assert fast == _int_laurent(quot, lcm(num_n, den_n), low).to_json()
    e, c = bump
    product[e] += c
    perturbed = _int_laurent(product, num_n, low)
    # a divisor prime to q divides no monomial, so both routes must fail
    fast, ref = _both_routes(perturbed, den_poly)
    assert fast == ref and fast.startswith("inexact: "), fast


CONDUCTORS = [1, 2, 3, 4, 6, 8, 12]


def test_int_division_matches_cyclotomic_loop_randomized():
    rng = random.Random(505)
    for _ in range(150):
        quot = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        quot[0], quot[-1] = quot[0] or -1, quot[-1] or 1
        den = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))] + [rng.choice([1, -1])]
        den[0] = den[0] or 1
        bump = (rng.randrange(len(den) - 1), rng.choice([-2, -1, 1, 2]))
        _check_int_division(
            quot, rng.choice(CONDUCTORS), den, rng.choice(CONDUCTORS),
            rng.randint(-5, 5), bump,
        )


@settings(max_examples=60, deadline=None)
@given(
    quot=st.lists(st.integers(-50, 50), min_size=1, max_size=10).filter(lambda q: q[0] and q[-1]),
    lower=st.lists(st.integers(-10, 10), min_size=2, max_size=6).filter(lambda d: d[0]),
    lead=st.sampled_from([1, -1]),
    conductors=st.tuples(st.sampled_from(CONDUCTORS), st.sampled_from(CONDUCTORS)),
    shift=st.integers(-6, 6),
    bump=st.tuples(st.integers(0, 1), st.integers(1, 5)),
)
def test_int_division_matches_cyclotomic_loop_hypothesis(
    quot, lower, lead, conductors, shift, bump
):
    _check_int_division(quot, conductors[0], lower + [lead], conductors[1], shift, bump)


def _check_int_divmod(a, b):
    """_int_divmod against the identity a = quot * b + rem, against
    _int_exact_div and against the Cyclotomic loop on a - rem."""
    quot, rem = exactnum._int_divmod(a, b)
    assert len(rem) == len(b) - 1
    product = poly_mul(quot, b)
    total = [0] * max(len(a), len(product), len(rem))
    for i, x in enumerate(product):
        total[i] += x
    for i, x in enumerate(rem):
        total[i] += x
    assert exactnum._trim(total) == exactnum._trim(list(a))
    nonzero = [i for i, r in enumerate(rem) if r]
    if nonzero:
        with pytest.raises(InexactDivisionError, match=f"exponent {nonzero[0] + 3}$"):
            exactnum._int_exact_div(a, b, 3)
    else:
        assert exactnum._int_exact_div(a, b) == quot
    exact = [x - (rem[i] if i < len(rem) else 0) for i, x in enumerate(a)]
    if any(exact):
        loop = exactnum._cyclotomic_exact_div(_int_laurent(exact, 1), _int_laurent(b, 1))
        assert loop.to_json() == _int_laurent(quot, 1).to_json()


def test_int_divmod_randomized():
    rng = random.Random(1010)
    for _ in range(150):
        b = [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))] + [rng.choice([1, -1])]
        a = [rng.randint(-9, 9) for _ in range(rng.randint(len(b), 14))]
        a[-1] = a[-1] or 1
        if rng.random() < 0.5:
            # an exact dividend: a multiple of b
            a = poly_mul(a, b)
        _check_int_divmod(a, b)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.integers(-50, 50), min_size=1, max_size=12).filter(lambda a: a[-1]),
    lower=st.lists(st.integers(-10, 10), min_size=0, max_size=5),
    lead=st.sampled_from([1, -1]),
)
def test_int_divmod_hypothesis(a, lower, lead):
    _check_int_divmod(a, lower + [lead])


def test_int_divmod_short_dividend():
    assert exactnum._int_divmod([5], [1, 0, 1]) == ([], [5, 0])


def test_ring_division_passes_a_remainder_zero_mod_phi():
    """A remainder 1 + zeta + zeta^2 at m = 3 is nonzero in Z[C_3] but 0 in
    Z[zeta_3], so the division is exact and the quotient is read off."""
    b = [-1, 0, 1]  # q^2 - 1
    x = [[2, -1, 3], [0, 4, 1], [5, 0, -2]]
    comps = [poly_mul(c, b) for c in x]
    for c in comps:
        c[1] += 1
    assert exactnum._ring_exact_div(comps, b) == x
    # at m = 4 the same remainder is no multiple of Phi_4 = 1 + zeta^2
    comps4 = comps + [poly_mul([0, 0, 0], b)]
    with pytest.raises(InexactDivisionError, match="exponent 1$"):
        exactnum._ring_exact_div(comps4, b)


def test_ring_division_names_the_exponent_of_a_perturbation():
    b = [1, 0, -1, 1]
    rng = random.Random(2020)
    for m in (2, 3, 4, 5, 6):
        x = [[rng.randint(-5, 5) for _ in range(3)] + [1] for _ in range(m)]
        comps = [poly_mul(c, b) for c in x]
        assert exactnum._ring_exact_div(comps, b) == x
        e, k = rng.randrange(3), rng.randrange(m)
        comps[k][e] += rng.choice([-2, -1, 1, 2])
        with pytest.raises(InexactDivisionError, match=f"exponent {e - 7}$"):
            exactnum._ring_exact_div(comps, b, -7)


def test_ring_poly_reduces_once_per_coefficient():
    # 1 + zeta + zeta^2 = 0 at conductor 3 drops out; zeta^2 = -1 - zeta
    f = exactnum._ring_poly([[1, 0, 2], [1, 0, 0], [1, 1, 0]], -2)
    assert f.to_json() == LaurentPoly({-1: cyclo(3, 2), 0: cyclo(3, 0) * 2}).to_json()
    assert f.coeff(0).n == 3
    # one component is conductor 1
    assert exactnum._ring_poly([[0, -3]], 4).to_json() == q_poly([(5, -3)]).to_json()


def test_other_operands_take_the_loop():
    """A non-unit leading divisor coefficient, a non-integer coefficient,
    or integers over two conductors in one operand."""
    loop = exactnum._cyclotomic_exact_div
    with mock.patch.object(exactnum, "_cyclotomic_exact_div", side_effect=loop) as spy:
        den = q_poly([(0, 1), (1, 2)])
        assert poly_exact_div(q_int(3) * den, den) == q_int(3)
        half = q_poly([(0, Fraction(1, 2)), (1, 1)])
        assert poly_exact_div(half * q_int(2), q_int(2)) == half
        # the loop leaves this quotient over conductor 1, not lcm(4, 1)
        mixed = LaurentPoly({0: _int_laurent([1], 4).coeff(0), 1: 1})
        assert poly_exact_div(mixed, q_int(2)).to_json() == q_int(1).to_json()
        assert spy.call_count == 3


# ---------------------------------------------------------------------------
# one reduction per value against the term-by-term loops


def _eval_y_term_by_term(f, m, k):
    """Evaluation at q = zeta_m^k with one lift and one reduction per term."""
    total = exactnum.ZERO
    for e, c in f.t.items():
        total = total + c * cyclo(m, (k * e) % m)
    return total


def _sum_term_by_term(f):
    total = exactnum.ZERO
    for c in f.t.values():
        total = total + c
    return total


def _same(x, y):
    assert (x.n, x.c) == (y.n, y.c), (x.to_json(), y.to_json())


MIXED = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 24]


def _mixed_laurent(rng):
    """Coefficients over independent conductors, exponents of both signs."""
    return LaurentPoly(
        {
            rng.randint(-7, 7): _random_cyclotomic(rng, rng.choice(MIXED))
            for _ in range(rng.randint(0, 5))
        }
    )


def _check_eval(f, m, k):
    _same(eval_at_root(f, m, k), _eval_y_term_by_term(f, m, k))


def test_eval_y_matches_term_by_term_examples():
    # a conductor that does not divide m, a negative exponent and k < 0
    f = LaurentPoly({-3: cyclo(12, 5), 2: cyclo_rational(Fraction(-2, 3)), 4: cyclo(5, 2)})
    for k in (-7, -1, 0, 1, 3):
        _check_eval(f, 5, k)
    assert eval_at_root(f, 5, 1).n == 60
    # the empty polynomial is the rational zero
    empty = LaurentPoly({})
    _check_eval(empty, 8, 3)
    assert eval_at_root(empty, 8, 3).n == 1
    # terms that cancel keep the lcm conductor
    cancel = LaurentPoly({0: cyclo(3, 1), 3: -cyclo(3, 1)})
    _same(eval_at_root(cancel, 3, 1), Cyclotomic(3, {}))


def test_eval_y_matches_term_by_term_randomized():
    rng = random.Random(606)
    for _ in range(300):
        _check_eval(_mixed_laurent(rng), rng.choice(MIXED), rng.randint(-30, 30))


@settings(max_examples=60, deadline=None)
@given(
    terms=st.dictionaries(
        st.integers(-12, 12),
        st.tuples(
            st.sampled_from(MIXED),
            st.dictionaries(
                st.integers(0, 23),
                st.fractions(max_denominator=6),
                min_size=1,
                max_size=3,
            ),
        ),
        max_size=5,
    ),
    m=st.sampled_from(MIXED),
    k=st.integers(-50, 50),
)
def test_eval_y_matches_term_by_term_hypothesis(terms, m, k):
    f = LaurentPoly(
        {e: Cyclotomic(n, {j % n: v for j, v in c.items()}) for e, (n, c) in terms.items()}
    )
    _check_eval(f, m, k)


def test_value_at_one_matches_term_by_term():
    rng = random.Random(707)
    for _ in range(100):
        f = _mixed_laurent(rng)
        _same(f.value_at_one(), _sum_term_by_term(f))


# ---------------------------------------------------------------------------
# equality against the lift


def _lifted_eq(x, y):
    m = lcm(x.n, y.n)
    return x.lift(m).c == y.lift(m).c


def test_equality_with_a_rational_skips_the_lift():
    half = Fraction(1, 2)
    cases = [
        (Cyclotomic(8, {0: 1, 2: 1}), cyclo_rational(1), False),
        (Cyclotomic(8, {0: 1, 2: 1}), 1, False),
        (Cyclotomic(9, {}), exactnum.ZERO, True),
        (Cyclotomic(9, {}), 0, True),
        (Cyclotomic(12, {0: half}), half, True),
        (Cyclotomic(12, {0: half}), cyclo_rational(half), True),
        (Cyclotomic(12, {0: half}), Cyclotomic(12, {0: half, 1: 1}), False),
    ]
    with mock.patch.object(Cyclotomic, "lift", side_effect=AssertionError("lifted")):
        for x, y, equal in cases:
            assert (x == y) is equal and (y == x) is equal
            assert (x != y) is not equal
    for x, y, equal in cases:
        if isinstance(y, Cyclotomic):
            assert _lifted_eq(x, y) is equal


def test_equality_across_non_rational_conductors_lifts():
    lift = Cyclotomic.lift
    with mock.patch.object(Cyclotomic, "lift", autospec=True, side_effect=lift) as spy:
        assert cyclo(4, 1) == cyclo(8, 2)
        assert cyclo(4, 1) != cyclo(8, 1)
        assert spy.call_count == 4


def test_equality_matches_lift_randomized():
    rng = random.Random(808)
    for _ in range(300):
        x = _random_cyclotomic(rng, rng.choice(MIXED))
        if rng.random() < 0.3:
            x = cyclo_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        y = x.lift(x.n * rng.choice([1, 2, 3])) if rng.random() < 0.5 else (
            _random_cyclotomic(rng, rng.choice(MIXED))
        )
        assert (x == y) is _lifted_eq(x, y)
        assert (y == x) is _lifted_eq(x, y)


# ---------------------------------------------------------------------------
# q-integer products by running sums


def test_q_int_product_matches_convolution_randomized():
    rng = random.Random(909)
    for _ in range(300):
        a = [rng.randint(-5, 5) for _ in range(rng.randint(0, 12))]
        t = rng.randint(0, 15)
        assert exactnum._mul_q_int(a, t) == poly_mul(a, [1] * t)


@settings(max_examples=100, deadline=None)
@given(a=st.lists(st.integers(-100, 100), max_size=30), t=st.integers(0, 40))
def test_q_int_product_matches_convolution_hypothesis(a, t):
    assert exactnum._mul_q_int(a, t) == poly_mul(a, [1] * t)


# ---------------------------------------------------------------------------
# the int-list constructor against the checked LaurentPoly constructor


def test_int_poly_matches_checked_constructor_randomized():
    rng = random.Random(707)
    for _ in range(200):
        coeffs = [rng.choice([0, 0, rng.randint(-30, 30)]) for _ in range(rng.randint(0, 15))]
        n, low = rng.choice(CONDUCTORS), rng.randint(-9, 9)
        fast = exactnum._int_poly(coeffs, low, n)
        ref = LaurentPoly(
            {low + i: Cyclotomic(n, {0: Fraction(c)}) for i, c in enumerate(coeffs)}
        )
        assert fast.to_json() == ref.to_json()
        assert all(c.c for c in fast.t.values())
    assert exactnum._int_poly([0, 0]).to_json() == LaurentPoly({}).to_json()


def test_reduced_laurent_keeps_the_map():
    terms = {2: cyclo(4, 1), -1: cyclo_rational(3)}
    f = LaurentPoly(terms, reduced=True)
    assert f.t is terms
    assert f == LaurentPoly(dict(terms))
