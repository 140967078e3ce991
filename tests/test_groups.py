from itertools import permutations, product
from math import prod

import pytest

from spetscat.exactnum import q_int
from spetscat.groups import (
    Gm1n,
    Gmmn,
    TypeA,
    enumerate_reflections,
    invariants,
    parse_group,
)


def test_invariants_examples():
    inv = invariants(Gm1n(2, 2))
    assert inv.degrees == (2, 4)
    assert inv.coxeter_number == 4
    assert inv.num_reflections == 4
    assert inv.poincare == q_int(2) * q_int(4)

    inv33 = invariants(Gmmn(3, 3))
    assert inv33.degrees == (3, 3, 6)
    assert inv33.coxeter_number == 6

    inv_a = invariants(TypeA(3))
    assert inv_a.degrees == (2, 3)
    assert inv_a.coxeter_number == 3
    assert inv_a.exponents == (1, 2)


def test_irreducibility_guards():
    with pytest.raises(ValueError):
        Gmmn(2, 2)
    with pytest.raises(ValueError):
        Gmmn(3, 1)
    with pytest.raises(ValueError):
        TypeA(1)
    with pytest.raises(ValueError):
        Gm1n(1, 3)
    with pytest.raises(ValueError):
        Gm1n(1, 1)


def test_group_parsing():
    assert str(parse_group(" G( 3 , 1 , 2 ) ")) == "G(3,1,2)"
    assert str(parse_group("G(4,4,3)")) == "G(4,4,3)"
    assert str(parse_group("A2")) == "A2"
    with pytest.raises(ValueError):
        parse_group("G(4,2,3)")
    with pytest.raises(ValueError):
        parse_group("E8")


def test_coxeter_number_is_average_of_counts():
    for g in (Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3), Gmmn(3, 3), Gmmn(4, 3), Gmmn(2, 3)):
        inv = invariants(g)
        rank = len(inv.degrees)
        assert inv.coxeter_number * rank == inv.num_reflections + inv.num_hyperplanes


def test_poincare_at_one_is_group_order():
    for g in (Gm1n(2, 2), Gm1n(3, 3), Gmmn(3, 3), TypeA(4)):
        inv = invariants(g)
        assert inv.poincare.value_at_one().as_fraction() == prod(inv.degrees)
        assert prod(inv.degrees) == inv.order


def test_well_generated_duality():
    for g in (Gm1n(2, 2), Gm1n(3, 3), Gmmn(3, 3), Gmmn(4, 3)):
        inv = invariants(g)
        h = inv.coxeter_number
        assert all(d + d_star == h for d, d_star in zip(inv.degrees, inv.codegrees))


def _brute_force_reflections(m, n, diagonal_allowed):
    """Scan every monomial element for a codimension-1 fixed space.

    An element (perm, phases) fixes one dimension per permutation cycle
    whose phases sum to 0 mod m.
    """
    out = set()
    for perm in permutations(range(n)):
        for phases in product(range(m), repeat=n):
            if not diagonal_allowed and sum(phases) % m:
                continue
            seen = set()
            fixed = 0
            for start in range(n):
                if start in seen:
                    continue
                cycle_sum = 0
                x = start
                while x not in seen:
                    seen.add(x)
                    cycle_sum += phases[x]
                    x = perm[x]
                if cycle_sum % m == 0:
                    fixed += 1
            if fixed == n - 1:
                out.add((perm, phases))
    return out


@pytest.mark.parametrize(
    "g",
    [Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3), Gmmn(3, 2), Gmmn(2, 3), Gmmn(3, 3)],
    ids=str,
)
def test_reflections_match_brute_force_scan(g):
    refs = enumerate_reflections(g)
    assert len(refs) == invariants(g).num_reflections
    got = {(r.perm, r.phases) for r in refs}
    want = _brute_force_reflections(g.m, g.n, diagonal_allowed=g.kind == "Gm1n")
    assert got == want


def test_reflection_matrices_are_monomial_with_correct_order():
    for r in enumerate_reflections(Gm1n(3, 2)):
        nonzero = sum(1 for row in r.matrix for x in row if not x.is_zero())
        assert nonzero == 2
        assert r.order >= 2 or r.hyperplane_class == "diagonal"


def test_scan_bound_enforced():
    with pytest.raises(ValueError):
        enumerate_reflections(Gm1n(2, 3), bound=10)
    with pytest.raises(ValueError):
        enumerate_reflections(TypeA(3))
