from functools import partial, reduce
from itertools import permutations, product
from math import gcd, prod

import pytest

from spetscat.exactnum import q_int
from spetscat.groups import (
    Gm1n,
    Gmmn,
    TypeA,
    _compose,
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


# the nine acceptance groups, then the stretch tier
PAIR_GROUPS = [
    Gm1n(2, 2), Gm1n(2, 3), Gm1n(3, 2), Gm1n(3, 3), Gm1n(4, 2),
    Gmmn(2, 3), Gmmn(3, 2), Gmmn(3, 3), Gmmn(4, 3),
    Gm1n(2, 4), Gm1n(4, 3), Gm1n(5, 2), Gmmn(3, 4), Gm1n(3, 4),
]


def _pair_order(m, w):
    identity = (tuple(range(len(w[0]))), (0,) * len(w[0]))
    power, k = w, 1
    while power != identity:
        power, k = _compose(m, power, w), k + 1
    return k


def _coxeter_element(g, s0_phases):
    """c = s_0 s_1 ... s_{n-1}, the s_i (i >= 1) swapping coordinates
    i-1 and i; s_0 is diag(zeta_m, 1, ...) for G(m,1,n), and for G(m,m,n)
    swaps the first two coordinates with phases `s0_phases`."""
    m, n = g.m, g.n
    identity = tuple(range(n))
    swap01 = (1, 0) + identity[2:]
    if g.kind == "Gm1n":
        gens = [(identity, (1,) + (0,) * (n - 1))]
    else:
        gens = [(swap01, tuple(k % m for k in s0_phases) + (0,) * (n - 2))]
    for i in range(1, n):
        perm = list(identity)
        perm[i - 1], perm[i] = i, i - 1
        gens.append((tuple(perm), (0,) * n))
    return reduce(partial(_compose, m), gens)


@pytest.mark.parametrize("g", PAIR_GROUPS, ids=str)
def test_pairs_compose_to_the_group_orders(g):
    """c has order h (for either phase order of the G(m,m,n) s_0), each
    transposition order 2, and diag(zeta_m^k) at one coordinate order
    m / gcd(m, k)."""
    h = invariants(g).coxeter_number
    for s0_phases in [(-1, 1), (1, -1)]:
        assert _pair_order(g.m, _coxeter_element(g, s0_phases)) == h
    for r in enumerate_reflections(g):
        if r.perm == tuple(range(g.n)):
            (k,) = [k for k in r.phases if k]
            assert _pair_order(g.m, (r.perm, r.phases)) == g.m // gcd(g.m, k)
        else:
            assert _pair_order(g.m, (r.perm, r.phases)) == 2


def test_scan_bound_enforced():
    with pytest.raises(ValueError):
        enumerate_reflections(Gm1n(2, 3), bound=10)
    with pytest.raises(ValueError):
        enumerate_reflections(TypeA(3))
