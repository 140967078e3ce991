"""The Fourier pairing on characters of G(m,1,n) and its exchange
properties.

For a family of G(m,1,n) characters whose symbols share the entry
multiset, index the entries by a totally ordered set Y (positions of the
weakly increasing entry list).  An assignment psi maps each position to
the row holding that entry; a symbol corresponds to the class of
assignments that realize its rows, and the pairing between two symbols
S, S2 is

    (-1)^(l(m-1)) / tau(m)^l *
        sum over assignments nu realizing S of
            eps(nu) eps(psi2) prod_y zeta_m^(-nu(y) psi2(y)),

where psi2 is a fixed assignment realizing S2 and eps counts ascending
pairs: eps(psi) = (-1)^#{y < y' with psi(y) < psi(y')}.  The sum does
not depend on which assignment realizes S2; that independence is checked
empirically by the tests rather than assumed.

The sum factors over the blocks of positions holding equal entries.
Every nu realizing S is its base assignment (each block's rows in
increasing order) with the rows permuted inside each block.  Ascents
across blocks do not depend on those permutations, so the sum is
eps(base) eps(psi2) times the product over blocks of
det(zeta_m^(-r_i s_j)), r and s the block's rows in S and in S2.  Each
determinant is a Leibniz sum over the block's k! permutations, kept as m
int counts per power of zeta_m, and the blocks multiply by cyclic
convolution in Z[C_m].

`pairing_matrix` builds each family's entries once per process, and the
checks read it.  The pairing exchanges generic and fake degrees within
each family (T1), each family's matrix is symmetric (T2), and it is
supported on pairs with equal generalized Coxeter number (T3); those
three properties give the exchange identity used by the trace
computation, checked here as verify_transform_swap.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .exactnum import Cyclotomic, LaurentPoly, cyclo_rational
from .groups import KIND_G1, GroupSpec
from .labels import CharLabel, label_str
from .symbols import Family, MSymbol, families, family_of, symbol_of
from .degrees import all_char_data, tau
from .catalan import _DEG, _FEG, VerificationReport, _char_sum, _check_p, _timed

__all__ = [
    "PairingMatrix",
    "pairing",
    "pairing_matrix",
    "verify_T1",
    "pairing_symmetry_report",
    "verify_transform_swap",
]


# ---------------------------------------------------------------------------
# the pairing as a product of block determinants


def _value_groups(sym: MSymbol) -> list[tuple[int, ...]]:
    """The blocks of equal entries, by increasing value: for each value,
    the rows holding it, in increasing order."""
    rows_of: dict[int, list[int]] = {}
    for i, row in enumerate(sym.rows):
        for v in row:
            rows_of.setdefault(v, []).append(i)
    return [tuple(rows_of[v]) for v in sorted(rows_of)]


def _parity(seq) -> int:
    """(-1) to the number of pairs i < j with seq[i] > seq[j]."""
    return (-1) ** sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])


def _entry(m: int, blocks1, blocks2) -> Cyclotomic:
    """The sum over nu of the module docstring, before scaling."""
    # eps(base) counts ascents, the inversions of the reversed assignment
    total = [0] * m
    total[0] = _parity(sum(blocks1, ())[::-1]) * _parity(sum(blocks2, ())[::-1])
    for rows1, rows2 in zip(blocks1, blocks2):
        det = [0] * m
        for perm in permutations(range(len(rows1))):
            e = sum(rows1[p] * s for p, s in zip(perm, rows2))
            det[-e % m] += _parity(perm)
        total = [sum(total[i] * det[k - i] for i in range(m)) for k in range(m)]
    return Cyclotomic(m, dict(enumerate(total)))


def pairing(g: GroupSpec, lab1: CharLabel, lab2: CharLabel) -> Cyclotomic:
    """The Fourier pairing of two G(m,1,n) characters; zero across
    families."""
    fam = family_of(g, lab1)
    mat = pairing_matrix(g, fam)
    if lab2 not in fam.members:
        return cyclo_rational(0)
    return mat.entries[fam.members.index(lab1)][fam.members.index(lab2)]


@dataclass(frozen=True)
class PairingMatrix:
    """The Fourier pairing on one family: entries[i][j] is
    {members[i], members[j]}, rows and columns in the order of
    `family.members`."""

    family: Family
    entries: tuple[tuple[Cyclotomic, ...], ...]

    def to_json(self):
        return {
            "family": [label_str(lab) for lab in self.family.members],
            "entries": [[c.to_json() for c in row] for row in self.entries],
        }


@lru_cache(maxsize=None)
def pairing_matrix(g: GroupSpec, fam: Family) -> PairingMatrix:
    """The pairing on one family of G(m,1,n), built once per process."""
    if g.kind != KIND_G1:
        raise ValueError("the Fourier pairing is implemented for G(m,1,n)")
    m = g.m
    ell = (symbol_of(fam.members[0]).content - 1) // m
    scale = (-1) ** (ell * (m - 1)) * tau(m).inv() ** ell
    blocks = [_value_groups(symbol_of(lab)) for lab in fam.members]
    entries = tuple(tuple(_entry(m, b1, b2) * scale for b2 in blocks) for b1 in blocks)
    return PairingMatrix(fam, entries)


def verify_T1(g: GroupSpec) -> VerificationReport:
    """Exactness of Deg = pairing-transform of Feg, character by
    character."""

    def failures():
        data = all_char_data(g)
        for fam in families(g):
            mat = pairing_matrix(g, fam)
            for i, chi in enumerate(fam.members):
                total = LaurentPoly({})
                for j, phi in enumerate(fam.members):
                    total = total + data[phi].feg * mat.entries[i][j]
                if total != data[chi].deg:
                    yield (
                        f"{label_str(chi)}: transform of fake degrees is {total}, "
                        f"generic degree is {data[chi].deg}"
                    )

    return _timed(g, None, "T1", failures=failures)


def pairing_symmetry_report(g: GroupSpec) -> VerificationReport:
    """T2 (each family's matrix is symmetric) and T3 (equal generalized
    Coxeter number on its nonzero entries); the pairing is zero across
    families."""

    def failures():
        data = all_char_data(g)
        for fam in families(g):
            mat = pairing_matrix(g, fam).entries
            for i, a in enumerate(fam.members):
                for j, b in enumerate(fam.members[i:], i):
                    if mat[i][j] != mat[j][i]:
                        yield f"T2: {{{label_str(a)}, {label_str(b)}}}"
                    if not mat[i][j].is_zero() and data[a].h_char != data[b].h_char:
                        yield f"T3: {{{label_str(a)}, {label_str(b)}}}"

    return _timed(g, None, "T2/T3", failures=failures)


def verify_transform_swap(g: GroupSpec, p: int) -> VerificationReport:
    """The exchange step used by the trace computation: swapping which
    argument is evaluated at zeta_h^p leaves the weighted sum unchanged."""
    _check_p(g, p)
    return _timed(
        g, p, "swap",
        lhs=lambda: _char_sum(g, p, _FEG, _DEG),
        rhs=lambda: _char_sum(g, p, _DEG, _FEG),
    )
