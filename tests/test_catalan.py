import dataclasses
import importlib
import random
from fractions import Fraction
from functools import partial
from math import comb, gcd

import pytest

from polyref import poly_mul
from spetscat import exactnum
from spetscat.exactnum import (
    FractionalPowerError,
    InexactDivisionError,
    LaurentPoly,
    eval_at_root,
    poly_exact_div,
    q_int,
    q_monomial,
    q_poly,
)
from spetscat.groups import Gm1n, Gmmn, TypeA, invariants
from spetscat.labels import all_labels, label_str
from spetscat.degrees import all_char_data, poincare
from spetscat.fourier import verify_transform_swap
from spetscat.catalan import (
    catalan,
    closed_form_main,
    coprime_range,
    trace_sum,
    verify_main,
    verify_parking,
    verify_vanishing,
)

# the package re-exports the function catalan under the submodule's name
CATALAN_MODULE = importlib.import_module("spetscat.catalan")

SMALL = [Gm1n(2, 2), Gm1n(3, 2), Gmmn(3, 2), Gmmn(2, 3)]


def test_catalan_spot_values():
    assert catalan(TypeA(3), 5) == 7
    assert catalan(Gm1n(2, 2), 5) == 6
    assert catalan(Gm1n(2, 2), 5) == comb(4, 2)
    for g in (Gm1n(2, 2), Gmmn(3, 3), TypeA(4), Gm1n(4, 2)):
        assert catalan(g, 1) == 1


def test_catalan_coprimality_guard():
    with pytest.raises(ValueError):
        catalan(Gm1n(2, 2), 2)


def test_q_catalan_at_one_is_plain():
    for g in SMALL:
        h = invariants(g).coxeter_number
        for p in coprime_range(h, 2 * h):
            q_version = catalan(g, p, q_deformed=True)
            assert q_version.value_at_one().as_fraction() == catalan(g, p)


ACCEPTANCE_GROUPS = [
    Gm1n(2, 2), Gm1n(2, 3), Gm1n(3, 2), Gm1n(3, 3), Gm1n(4, 2),
    Gmmn(2, 3), Gmmn(3, 2), Gmmn(3, 3), Gmmn(4, 3),
]


@pytest.mark.parametrize("g", ACCEPTANCE_GROUPS, ids=str)
def test_int_closed_form_matches_q_int_products(g):
    """The int-list Catalan side against the LaurentPoly construction:
    prod [t_i]_q through the Cyclotomic division loop, times (1-q)^n."""
    inv = invariants(g)
    h, n = inv.coxeter_number, g.rank
    ps = coprime_range(h, 6 * h)
    for p in (ps[0], ps[len(ps) // 2], ps[-1]):
        numer = q_poly([(0, 1)])
        for e in inv.exponents:
            numer = numer * q_int(p + (p * e) % h)
        cat = exactnum._cyclotomic_exact_div(numer, inv.poincare)
        closed = cat * (1 - q_monomial(1)) ** n * q_monomial(-n * p)
        assert catalan(g, p, q_deformed=True).to_json() == cat.to_json()
        assert closed_form_main(g, p).to_json() == closed.to_json()


def test_trace_sum_examples():
    expect = q_monomial(-2) * (1 - q_monomial(1)) ** 2
    assert trace_sum(Gm1n(2, 2), 1) == expect
    lhs = trace_sum(Gm1n(2, 2), 3)
    rhs = q_monomial(-6) * (1 - q_monomial(1)) ** 2 * catalan(
        Gm1n(2, 2), 3, q_deformed=True
    )
    assert lhs == rhs


def test_verify_main_small_groups():
    for g in SMALL:
        h = invariants(g).coxeter_number
        for rep in verify_main(g, coprime_range(h, 2 * h)):
            assert rep.equal, (rep.group, rep.p, rep.witness)


def test_verify_vanishing_and_parking_small_groups():
    for g in SMALL:
        h = invariants(g).coxeter_number
        for p in coprime_range(h, h + 1):
            assert verify_vanishing(g, p).equal
            rep = verify_parking(g, p)
            assert rep.equal
            assert rep.rhs == (q_monomial(p) - 1) ** g.n


def test_parking_p_one_is_q_minus_one_power():
    for g in SMALL:
        rep = verify_parking(g, 1)
        assert rep.equal
        assert rep.lhs == (q_monomial(1) - 1) ** g.n


def test_individual_terms_may_be_fractional_but_total_is_not():
    """Some labels carry genuinely fractional q-weights; their fake and
    generic degrees vanish at every coprime root, so the total is in q."""
    g = Gm1n(3, 2)
    h = invariants(g).coxeter_number
    data = all_char_data(g)
    fractional = [lab for lab, cd in data.items() if (cd.h_char - g.n * h) % h]
    assert fractional, "expected at least one fractionally weighted label"
    for r in coprime_range(h, h):
        row = dict(zip(data, CATALAN_MODULE._values_at(g, r)))
        for lab in fractional:
            assert row[lab].feg.is_zero() and row[lab].deg.is_zero(), (r, lab)
    assert trace_sum(g, 1) == closed_form_main(g, 1)


def test_swap_route_gives_same_trace():
    """Evaluating the fake degrees at the root and keeping generic degrees
    polynomial agrees with the swapped evaluation, after dividing by the
    Poincare polynomial."""
    for g in (Gm1n(2, 2), Gm1n(3, 2)):
        h = invariants(g).coxeter_number
        for p in coprime_range(h, h):
            swapped = _char_sum_term_by_term(
                g, p, CATALAN_MODULE._DEG, CATALAN_MODULE._FEG
            )
            quotient = poly_exact_div(LaurentPoly(swapped), _to_y(poincare(g), h))
            assert _from_y(quotient.t, h) == trace_sum(g, p)


def test_report_json_shape():
    rep = verify_main(Gm1n(2, 2), [1])[0]
    data = rep.to_json()
    assert set(data) == {"group", "p", "claim", "equal", "lhs", "rhs", "witness", "ms"}
    assert data["equal"] is True and data["claim"] == "main"


def test_mismatch_reports_first_differing_term(monkeypatch):
    g = Gm1n(2, 2)
    monkeypatch.setattr(
        CATALAN_MODULE,
        "closed_form_main",
        lambda g, p: closed_form_main(g, p) + q_monomial(7),
    )
    rep = verify_main(g, [3])[0]
    assert rep.equal is False
    assert rep.witness == "q^7: -1"
    assert rep.lhs == trace_sum(g, 3)


def test_inexact_division_becomes_witness_and_keeps_rhs(monkeypatch):
    g = Gm1n(2, 2)
    monkeypatch.setattr(
        CATALAN_MODULE, "poincare", lambda g: poincare(g) + q_monomial(1)
    )
    rep = verify_main(g, [3])[0]
    assert rep.equal is False
    assert rep.witness.startswith("InexactDivisionError")
    assert rep.lhs is None
    assert rep.rhs == closed_form_main(g, 3)


def test_type_a_has_catalan_but_no_trace():
    assert catalan(TypeA(4), 5, q_deformed=True).value_at_one().as_fraction() == 14
    with pytest.raises(ValueError):
        trace_sum(TypeA(3), 2)


# ---------------------------------------------------------------------------
# one reduction per coefficient against the term-by-term loops


# The references below add the character sum in the root variable
# y = q^(1/h), as plain dicts from exponents of y to Cyclotomic values: a
# term of weight q^e at the shift of h_char lands on y^((h_char - n h) p
# + h e), so a fractional power of q would survive there as an exponent
# off a multiple of h.


def _add_term(total, e, c):
    """total[e] += c in a dict of nonzero Cyclotomic values."""
    c = total.pop(e, exactnum.ZERO) + c
    if not c.is_zero():
        total[e] = c


def _to_y(f, h):
    """A polynomial in q as one in y = q^(1/h)."""
    return LaurentPoly({e * h: c for e, c in f.t.items()})


def _from_y(terms, h):
    """A dict in y = q^(1/h) as a polynomial in q; FractionalPowerError
    on an exponent off a multiple of h."""
    off = sorted(e for e in terms if e % h)
    if off:
        raise FractionalPowerError(f"exponent {off[0]}/{h} of q is fractional")
    return LaurentPoly({e // h: c for e, c in terms.items()})


def _char_sum_term_by_term(g, p, at_root, weight):
    """The character sum in y with one reduced Cyclotomic per term: each
    value at the root summed term by term, then each weighted term added
    at its exponent of y."""
    h = invariants(g).coxeter_number
    total = {}
    for cd in all_char_data(g).values():
        scalar = exactnum.ZERO
        for e, c in at_root(cd).t.items():
            scalar = scalar + c * exactnum.cyclo(h, (p * e) % h)
        if scalar.is_zero():
            continue
        for e, c in weight(cd).t.items():
            _add_term(total, (cd.h_char - g.n * h) * p + h * e, c * scalar)
    return total


WEIGHTS = [
    (CATALAN_MODULE._FEG, CATALAN_MODULE._DEG),
    (CATALAN_MODULE._DEG, CATALAN_MODULE._FEG),
    (CATALAN_MODULE._FEG, CATALAN_MODULE._dim),
]


@pytest.mark.parametrize("g", ACCEPTANCE_GROUPS, ids=str)
def test_char_sum_matches_term_by_term(g):
    h = invariants(g).coxeter_number
    for p in coprime_range(h, 6 * h):
        for sp in (p, -p):
            for at_root, weight in WEIGHTS:
                fast = CATALAN_MODULE._char_sum(g, sp, at_root, weight)
                ref = _char_sum_term_by_term(g, sp, at_root, weight)
                assert fast.to_json() == _from_y(ref, h).to_json(), (sp, at_root, weight)


def test_parking_rhs_matches_laurent_power():
    for n in range(6):
        for p in [*range(1, 25), 97, 10**6, 10**20]:
            expect = (q_monomial(p) - 1) ** n
            assert CATALAN_MODULE._q_power_minus_one(p, n).to_json() == expect.to_json()


STRETCH = [
    Gm1n(2, 4), Gmmn(3, 4), Gmmn(4, 3), Gm1n(4, 2), Gm1n(4, 3), Gm1n(3, 4), Gm1n(5, 2),
]


@pytest.mark.parametrize("g", STRETCH, ids=str)
def test_catalan_coeffs_match_convolved_q_ints(g):
    """The running-sum [t]_q products against convolution by [1] * t."""
    inv = invariants(g)
    h = inv.coxeter_number
    for p in coprime_range(h, 12 * h - 1):
        numer = denom = [1]
        for e in inv.exponents:
            numer = poly_mul(numer, [1] * (p + (p * e) % h))
        for d in inv.degrees:
            denom = poly_mul(denom, [1] * d)
        ref = exactnum._int_exact_div(numer, denom)
        assert CATALAN_MODULE._catalan_q_coeffs(g, p) == ref, p


# ---------------------------------------------------------------------------
# the value table and the collapsed division against evaluating and
# dividing at each p


def _values_json(values):
    return [(v.feg.to_json(), v.deg.to_json()) for v in values]


@pytest.mark.parametrize("g", ACCEPTANCE_GROUPS, ids=str)
def test_values_at_matches_eval_at_each_p(g):
    """A row read at p % h equals eval_at_root at p, p + h and -p,
    conductors included, from a cold and from a warm table."""
    h = invariants(g).coxeter_number
    data = list(all_char_data(g).values())
    rng = random.Random(h * 1009 + g.m)
    ps = coprime_range(h, 6 * h)
    for warm in (False, True):
        if not warm:
            CATALAN_MODULE._values_at.cache_clear()
        for p in rng.sample(ps, min(4, len(ps))):
            for sp in (p, p + h, -p):
                expect = [
                    (
                        eval_at_root(cd.feg, h, sp).to_json(),
                        eval_at_root(cd.deg, h, sp).to_json(),
                    )
                    for cd in data
                ]
                assert _values_json(CATALAN_MODULE._values_at(g, sp % h)) == expect, sp


@pytest.mark.parametrize(
    "g", [Gm1n(2, 3), Gm1n(3, 3), Gmmn(3, 3), Gmmn(4, 3), Gm1n(4, 2)], ids=str
)
def test_value_table_holds_one_row_per_coprime_residue(g, cold_tables):
    """After vanishing and parking (which reads -p) over every coprime
    p <= 6h, the table holds phi(h) rows for the group."""
    h = invariants(g).coxeter_number
    for p in coprime_range(h, 6 * h):
        assert verify_vanishing(g, p).equal
        assert verify_parking(g, p).equal
    assert CATALAN_MODULE._values_at.cache_info().currsize == len(coprime_range(h, h))


def _trace_sum_root_order_h(g, p):
    """The trace sum divided by P_W in the root variable y = q^(1/h),
    then read back in q."""
    h = invariants(g).coxeter_number
    total = CATALAN_MODULE._char_sum(g, p, CATALAN_MODULE._FEG, CATALAN_MODULE._DEG)
    divisor = _to_y(CATALAN_MODULE.poincare(g), h)
    return _from_y(poly_exact_div(_to_y(total, h), divisor).t, h)


@pytest.mark.parametrize("g", ACCEPTANCE_GROUPS, ids=str)
def test_trace_sum_matches_division_at_root_order_h(g):
    h = invariants(g).coxeter_number
    for p in coprime_range(h, 3 * h):
        assert trace_sum(g, p).to_json() == _trace_sum_root_order_h(g, p).to_json(), p


@pytest.mark.parametrize("g", [Gm1n(2, 2), Gm1n(3, 2), Gmmn(3, 3)], ids=str)
def test_trace_sum_with_perturbed_poincare_still_raises(g, monkeypatch):
    h = invariants(g).coxeter_number
    monkeypatch.setattr(
        CATALAN_MODULE, "poincare", lambda g: poincare(g) + q_monomial(1)
    )
    for p in coprime_range(h, 2 * h):
        with pytest.raises(InexactDivisionError):
            trace_sum(g, p)
        with pytest.raises(InexactDivisionError):
            _trace_sum_root_order_h(g, p)


# ---------------------------------------------------------------------------
# the per-residue class sums


@pytest.fixture
def cold_tables():
    """Empty value and class-sum tables before the test and after it, so
    no test sees rows another test built or perturbed."""
    CATALAN_MODULE._values_at.cache_clear()
    CATALAN_MODULE._class_sums.cache_clear()
    yield
    CATALAN_MODULE._values_at.cache_clear()
    CATALAN_MODULE._class_sums.cache_clear()


@pytest.mark.parametrize(
    "g", [Gm1n(2, 3), Gm1n(3, 3), Gmmn(3, 3), Gmmn(4, 3), Gm1n(4, 2)], ids=str
)
def test_class_sums_hold_n_plus_one_classes_per_residue(g, cold_tables):
    """After main, vanishing, parking and swap over every coprime
    p <= 6h, the class sums hold at most one entry per residue and sum
    (three sums, phi(h) residues), and every entry holds the n+1
    classes h_char = k h, keyed by j = k - n."""
    h = invariants(g).coxeter_number
    residues = coprime_range(h, h)
    feg, deg, dim = CATALAN_MODULE._FEG, CATALAN_MODULE._DEG, CATALAN_MODULE._dim
    sums = [(feg, deg), (feg, dim)]
    for p in coprime_range(h, 6 * h):
        assert verify_main(g, [p])[0].equal
        assert verify_vanishing(g, p).equal
        assert verify_parking(g, p).equal
        if g == Gm1n(g.m, g.n):
            assert verify_transform_swap(g, p).equal
    if g == Gm1n(g.m, g.n):
        sums.append((deg, feg))
    size = CATALAN_MODULE._class_sums.cache_info().currsize
    assert size == len(sums) * len(residues) <= 3 * len(residues)
    expect = list(range(-g.n, 1))
    for r in residues:
        for at_root, weight in sums:
            classes = CATALAN_MODULE._class_sums(g, r, at_root, weight)
            assert sorted(k for k, _ in classes) == expect, (r, at_root, weight)
    # every entry read above was already there
    assert CATALAN_MODULE._class_sums.cache_info().currsize == size


def _char_sum_from_rows(g, p, at_root, weight):
    """The character sum in q, added term by term in y from the rows of
    _values_at, with no class sums."""
    h = invariants(g).coxeter_number
    total = {}
    rows = CATALAN_MODULE._values_at(g, p % h)
    for cd, values in zip(all_char_data(g).values(), rows):
        scalar = at_root(values)
        if not scalar.is_zero():
            for e, c in weight(cd).t.items():
                _add_term(total, (cd.h_char - g.n * h) * p + h * e, c * scalar)
    return _from_y(total, h)


def _reference_reports(g, p):
    """main, parking and swap at p through _timed, every character sum
    built by _char_sum_from_rows."""
    feg, deg, dim = CATALAN_MODULE._FEG, CATALAN_MODULE._DEG, CATALAN_MODULE._dim
    h = invariants(g).coxeter_number

    def trace():
        return poly_exact_div(_char_sum_from_rows(g, p, feg, deg), poincare(g))

    timed = CATALAN_MODULE._timed
    return [
        timed(g, p, "main", lhs=trace, rhs=lambda: closed_form_main(g, p)),
        timed(
            g, h - p, "parking",
            lhs=lambda: _char_sum_from_rows(g, p - h, feg, dim),
            rhs=lambda: (q_monomial(h - p) - 1) ** g.n,
        ),
        timed(
            g, p, "swap",
            lhs=lambda: _char_sum_from_rows(g, p, feg, deg),
            rhs=lambda: _char_sum_from_rows(g, p, deg, feg),
        ),
    ]


@pytest.mark.parametrize("g", [Gm1n(2, 3), Gm1n(3, 2), Gm1n(4, 2)], ids=str)
@pytest.mark.parametrize("change", ["double", "fill"])
def test_perturbed_value_row_fails_like_the_reference(g, change, cold_tables, monkeypatch):
    """One character's Feg in the row of residue 1 is doubled where it
    is nonzero, or set to 1 where it is zero.  main and swap at p = 1
    and parking at p = h - 1 (which reads residue 1) read that row;
    each must fail with the witness the term-by-term sum gives."""
    h = invariants(g).coxeter_number
    values_at = CATALAN_MODULE._values_at
    row = values_at(g, 1)
    i = max(
        j for j, v in enumerate(row) if v.feg.is_zero() == (change == "fill")
    )
    moved = row[i]._replace(feg=row[i].feg * 2 if change == "double" else exactnum.ONE)
    perturbed = row[:i] + (moved,) + row[i + 1:]
    monkeypatch.setattr(
        CATALAN_MODULE,
        "_values_at",
        lambda g1, r: perturbed if (g1, r) == (g, 1) else values_at(g1, r),
    )
    got = [
        verify_main(g, [1])[0],
        verify_parking(g, h - 1),
        verify_transform_swap(g, 1),
    ]
    for rep, ref in zip(got, _reference_reports(g, 1)):
        assert rep.equal is False, rep.claim
        assert (rep.claim, rep.witness) == (ref.claim, ref.witness)


# ---------------------------------------------------------------------------
# the class check: a class off a multiple of h must add to zero


@pytest.mark.parametrize("g", [Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3)], ids=str)
def test_class_off_a_multiple_of_h_is_a_witness(g, cold_tables, monkeypatch):
    """Move the trivial character's h_char one off its multiple of h:
    its class is then alone and nonzero at every residue, so main,
    parking and swap each fail with a FractionalPowerError that names
    it."""
    data = dict(all_char_data(g))
    triv = next(lab for lab, cd in data.items() if cd.feg == 1)
    data[triv] = dataclasses.replace(data[triv], h_char=data[triv].h_char + 1)
    monkeypatch.setattr(CATALAN_MODULE, "all_char_data", lambda g1: data)
    h = invariants(g).coxeter_number
    for p in coprime_range(h, 2 * h):
        reports = [verify_main(g, [p])[0], verify_parking(g, p), verify_transform_swap(g, p)]
        for rep in reports:
            assert rep.equal is False, (p, rep.claim)
            assert rep.witness.startswith("FractionalPowerError"), (p, rep.witness)
            assert label_str(triv) in rep.witness, (p, rep.witness)


STRETCH_TIER = [Gm1n(2, 4), Gm1n(4, 3), Gm1n(5, 2), Gmmn(3, 4), Gm1n(3, 4)]


@pytest.mark.parametrize("g", ACCEPTANCE_GROUPS + STRETCH_TIER, ids=str)
def test_no_class_off_a_multiple_of_h_is_nonzero(g):
    """At every coprime residue, each of the three sums the checks read
    adds every class off a multiple of h to zero, summed here term by
    term, and _class_sums keeps exactly the n+1 classes j = -n..0."""
    h = invariants(g).coxeter_number
    data = list(all_char_data(g).values())
    for r in coprime_range(h, h):
        rows = CATALAN_MODULE._values_at(g, r)
        for at_root, weight in WEIGHTS:
            off = {}
            for cd, values in zip(data, rows):
                if (cd.h_char - g.n * h) % h:
                    term = weight(cd) * at_root(values)
                    off[cd.h_char] = off.get(cd.h_char, LaurentPoly({})) + term
            assert all(s.is_zero() for s in off.values()), (r, at_root, weight)
            classes = CATALAN_MODULE._class_sums(g, r, at_root, weight)
            assert sorted(j for j, _ in classes) == list(range(-g.n, 1)), (r, at_root)



# ---------------------------------------------------------------------------
# verify_main's product form against the reference comparison through
# trace_sum


SWEEP_GROUPS = [Gm1n(2, 4), Gmmn(3, 4), Gmmn(4, 3), Gm1n(4, 2)]
PRODUCT_FORM_CASES = [(g, 3) for g in ACCEPTANCE_GROUPS + STRETCH_TIER] + [
    (g, 6) for g in SWEEP_GROUPS
]


def _reference_main(g, p):
    """The main report at p through trace_sum, as verify_main made it
    before the product form."""
    return CATALAN_MODULE._timed(
        g, p, "main",
        lhs=partial(trace_sum, g, p),
        rhs=partial(closed_form_main, g, p),
    )


def _without_ms(report):
    out = report.to_json()
    del out["ms"]
    return out


@pytest.fixture
def count_trace_sum(monkeypatch):
    """Count the calls verify_main makes to trace_sum."""
    calls = []

    def counted(g, p):
        calls.append((g, p))
        return trace_sum(g, p)

    monkeypatch.setattr(CATALAN_MODULE, "trace_sum", counted)
    return calls


@pytest.mark.parametrize("g,span", PRODUCT_FORM_CASES, ids=str)
def test_product_form_matches_the_reference(g, span, count_trace_sum):
    """Every passing main report of both tiers (p <= 3h) and of the
    sweep groups (p <= 6h) equals the reference report apart from ms,
    and the reference path, trace_sum, never runs."""
    h = invariants(g).coxeter_number
    for p in coprime_range(h, span * h):
        got = verify_main(g, (p,))[0]
        assert got.equal, p
        assert _without_ms(got) == _without_ms(_reference_main(g, p)), p
    assert count_trace_sum == []


def _message(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize(
    "g,p",
    [(TypeA(3), 1), (Gm1n(2, 2), 0), (Gm1n(2, 2), 2), (Gmmn(3, 3), 3), (Gm1n(2, 2), 2**63 + 1)],
    ids=str,
)
def test_product_form_refuses_like_the_reference(g, p):
    """Type A, p = 0, a p not coprime to h and a p past any dense list
    raise the reference comparison's ValueError."""
    expect = _message(lambda: _reference_main(g, p))
    assert _message(lambda: verify_main(g, (p,))) == expect


def test_type_a_main_names_the_imprimitive_kinds():
    with pytest.raises(ValueError, match="^trace sums cover the imprimitive kinds only$"):
        verify_main(TypeA(3), (1,))
