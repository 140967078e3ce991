from fractions import Fraction
from itertools import permutations, product
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from spetscat import fourier
from spetscat.cli import main
from spetscat.exactnum import cyclo, cyclo_rational
from spetscat.groups import Gm1n, Gmmn, invariants
from spetscat.labels import CharLabel, all_labels, label_str
from spetscat.symbols import (
    families,
    label_of_symbol,
    symbol_of,
    symbol_rank,
    symbols_with_entries,
)
from spetscat.degrees import tau
from spetscat.fourier import (
    PairingMatrix,
    _value_groups,
    pairing,
    pairing_matrix,
    pairing_symmetry_report,
    verify_T1,
    verify_transform_swap,
)
from spetscat.chartable import (
    cyclic_group_table,
    nonabelian_fourier,
    symmetric_group_table,
)

TRIO = [Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3)]
# G(4,1,3) and G(5,1,2) stay out: the reference takes seconds on them
REFERENCE_GROUPS = TRIO + [Gm1n(3, 3), Gm1n(4, 2), Gm1n(2, 4)]
HYPOTHESIS_POOL = [Gm1n(m, n) for m in (2, 3, 4) for n in (1, 2, 3)]


# ---------------------------------------------------------------------------
# the reference: the pairing summed term by term over every assignment


def _class_members(sym):
    """All assignments realizing the symbol: its rows permuted within each
    block of equal entries, the base assignment first."""
    for choice in product(*(permutations(block) for block in _value_groups(sym))):
        yield sum(choice, ())


def _eps(psi) -> int:
    """(-1) to the number of ascending pairs y < y' with psi(y) < psi(y')."""
    n = len(psi)
    return (-1) ** sum(psi[y] < psi[y2] for y in range(n) for y2 in range(y + 1, n))


def _pairing_from_assignments(m: int, ell: int, sym1, psi2):
    eps2 = _eps(psi2)
    total = cyclo_rational(0)
    for nu in _class_members(sym1):
        e = sum(a * b for a, b in zip(nu, psi2)) % m
        total = total + _eps(nu) * eps2 * cyclo(m, (-e) % m)
    sign = -1 if (ell * (m - 1)) % 2 else 1
    return total * sign * tau(m).inv() ** ell


def _reference_pairing(g, lab1: CharLabel, lab2: CharLabel):
    s1, s2 = symbol_of(lab1), symbol_of(lab2)
    ell = (s1.content - 1) // g.m
    return _pairing_from_assignments(g.m, ell, s1, next(_class_members(s2)))


@pytest.mark.parametrize("g", REFERENCE_GROUPS, ids=str)
def test_pairing_matches_assignment_reference(g):
    for fam in families(g):
        for a in fam.members:
            for b in fam.members:
                ref = _reference_pairing(g, a, b)
                assert pairing(g, a, b).to_json() == ref.to_json(), (a, b)


@settings(max_examples=40, deadline=None)
@given(g=st.sampled_from(HYPOTHESIS_POOL), data=st.data())
def test_pairing_matches_assignment_reference_hypothesis(g, data):
    fam = data.draw(st.sampled_from(families(g)), label="family")
    a = data.draw(st.sampled_from(fam.members), label="a")
    b = data.draw(st.sampled_from(fam.members), label="b")
    assert pairing(g, a, b).to_json() == _reference_pairing(g, a, b).to_json()


def test_pairing_of_trivial_is_one():
    for g in TRIO:
        triv = CharLabel(g, ((g.n,),) + ((),) * (g.m - 1))
        assert pairing(g, triv, triv) == 1


def test_pairing_middle_family_of_b2():
    g = Gm1n(2, 2)
    refl = CharLabel(g, ((1,), (1,)))
    row_a = CharLabel(g, ((1, 1), ()))
    col_c = CharLabel(g, ((), (2,)))
    half = Fraction(1, 2)
    assert pairing(g, refl, refl) == half
    assert pairing(g, row_a, refl) == half
    assert pairing(g, row_a, col_c) == -half


def test_pairing_vanishes_across_families():
    g = Gm1n(2, 2)
    triv = CharLabel(g, ((2,), ()))
    refl = CharLabel(g, ((1,), (1,)))
    assert pairing(g, triv, refl).is_zero()


def test_pairing_requires_gm1n():
    g = Gmmn(3, 3)
    lab = all_labels(g)[0]
    with pytest.raises(ValueError):
        pairing(g, lab, lab)


def test_T1_exact():
    for g in TRIO:
        rep = verify_T1(g)
        assert rep.equal, rep.witness


def test_T2_symmetry_and_T3_support():
    for g in TRIO:
        rep = pairing_symmetry_report(g)
        assert rep.equal, rep.witness


@pytest.fixture
def perturbed_b2(monkeypatch):
    """Entry (0, 1) of the matrix of G(2,1,2)'s 3-member family moved by
    one; returns that entry's two labels."""
    g = Gm1n(2, 2)
    (fam,) = [f for f in families(g) if len(f.members) == 3]
    real = fourier.pairing_matrix

    def moved(g2, fam2):
        mat = real(g2, fam2)
        if (g2, fam2) != (g, fam):
            return mat
        rows = [list(row) for row in mat.entries]
        rows[0][1] = rows[0][1] + 1
        return PairingMatrix(fam, tuple(map(tuple, rows)))

    monkeypatch.setattr(fourier, "pairing_matrix", moved)
    return fam.members[0], fam.members[1]


def test_T2_fails_on_an_asymmetric_entry(perturbed_b2):
    a, b = perturbed_b2
    rep = pairing_symmetry_report(Gm1n(2, 2))
    assert not rep.equal
    assert rep.witness == f"T2: {{{label_str(a)}, {label_str(b)}}}"


def test_T1_fails_naming_the_character_of_the_moved_row(perturbed_b2):
    a, _ = perturbed_b2
    rep = verify_T1(Gm1n(2, 2))
    assert not rep.equal
    assert [w.partition(":")[0] for w in rep.witness.split("; ")] == [label_str(a)]


def test_fourier_cli_exits_1_on_a_failed_check(perturbed_b2, capsys):
    assert main(["fourier", "--group", "G(2,1,2)"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_pairing_matrix_rows_unit_norm():
    g = Gm1n(2, 2)
    for fam in families(g):
        mat = pairing_matrix(g, fam)
        for i, row in enumerate(mat.entries):
            assert mat.entries[i][i] == mat.entries[i][i].conjugate()


def _pairing_all_second_reps(g, lab1: CharLabel, lab2: CharLabel):
    """Pairing recomputed with every assignment realizing the second
    symbol as the fixed representative (they must all agree)."""
    s1, s2 = symbol_of(lab1), symbol_of(lab2)
    m = g.m
    ell = (s1.content - 1) // m
    return tuple(
        _pairing_from_assignments(m, ell, s1, psi2)
        for psi2 in _class_members(s2)
    )


def test_second_representative_independence():
    for g in (Gm1n(2, 2), Gm1n(3, 2)):
        for fam in families(g):
            for a in fam.members:
                for b in fam.members:
                    vals = _pairing_all_second_reps(g, a, b)
                    assert all(v == vals[0] for v in vals)


def _admissible_classes_brute_force(m, entries):
    """Every admissible assignment, grouped into symbols, by raw
    enumeration of all functions from positions to rows."""
    size = len(entries)
    ell = (size - 1) // m
    target = (ell * comb(m, 2)) % m
    symbols = {}
    for psi in product(range(m), repeat=size):
        if sum(psi) % m != target:
            continue
        rows = [[] for _ in range(m)]
        admissible = True
        for pos, row in enumerate(psi):
            v = entries[pos]
            if rows[row] and rows[row][-1] == v:
                admissible = False
                break
            rows[row].append(v)
        if not admissible:
            continue
        key = tuple(tuple(r) for r in rows)
        symbols[key] = symbols.get(key, 0) + 1
    return symbols


def test_assignment_classes_biject_with_family_symbols():
    """The assignment classes built from a family's entry multiset are in
    bijection with the defect-0 symbols carrying that multiset, each class
    having one assignment per way of permuting equal entries."""
    g = Gm1n(3, 2)
    for fam in families(g):
        s0 = symbol_of(fam.members[0])
        entries = s0.entries()
        classes = _admissible_classes_brute_force(g.m, entries)
        expected = {
            s.rows for s in symbols_with_entries(g.m, entries)
        }
        assert set(classes) == expected
        mult = 1
        for v in set(entries):
            cnt = sum(1 for e in entries if e == v)
            for i in range(2, cnt + 1):
                mult *= i
        assert all(size == mult for size in classes.values())
        # the family's own symbols appear among the classes
        for lab in fam.members:
            assert symbol_of(lab).rows in classes
        # and every class of full rank is a unipotent symbol of rank n
        for rows in classes:
            from spetscat.symbols import MSymbol

            assert symbol_rank(MSymbol(rows)) == g.n


def test_swap_identity():
    for g in TRIO:
        h = invariants(g).coxeter_number
        for p in [p for p in range(1, 2 * h) if gcd(p, h) == 1]:
            rep = verify_transform_swap(g, p)
            assert rep.equal, (str(g), p, rep.witness)


def _check_unitary(nf):
    n = len(nf.pairs)
    for i in range(n):
        for j in range(n):
            total = cyclo_rational(0)
            for k in range(n):
                total = total + nf.matrix[i][k] * nf.matrix[j][k].conjugate()
            assert total == (1 if i == j else 0)


def test_nonabelian_fourier_z2():
    nf = nonabelian_fourier(cyclic_group_table(2))
    assert len(nf.pairs) == 4
    half = Fraction(1, 2)
    for row in nf.matrix:
        for v in row:
            assert v == half or v == -half
    _check_unitary(nf)


def test_nonabelian_fourier_z3_and_s3():
    nf3 = nonabelian_fourier(cyclic_group_table(3))
    assert len(nf3.pairs) == 9
    _check_unitary(nf3)
    nfs3 = nonabelian_fourier(symmetric_group_table(3))
    assert len(nfs3.pairs) == 8
    _check_unitary(nfs3)


def test_nonabelian_fourier_trivial_group():
    nf = nonabelian_fourier(((0,),))
    assert len(nf.pairs) == 1
    assert nf.matrix[0][0] == 1


def test_nonabelian_fourier_bound():
    with pytest.raises(ValueError):
        nonabelian_fourier(symmetric_group_table(4), bound=10)


@pytest.mark.parametrize("n", range(2, 7))
def test_type_b_families_embed_in_the_transform_of_z2(n):
    """Lusztig's embedding of type-B families into M(Z/2) (Characters of
    reductive groups over a finite field, 1984, ch. 4): the pairing on
    every 3-member family of G(2,1,n), in member order, is the leading 3x3
    block of the non-abelian transform of Z/2."""
    nf = nonabelian_fourier(cyclic_group_table(2))
    block = tuple(row[:3] for row in nf.matrix[:3])
    g = Gm1n(2, n)
    trios = [fam for fam in families(g) if len(fam.members) == 3]
    assert trios
    for fam in trios:
        assert pairing_matrix(g, fam).entries == block, fam
