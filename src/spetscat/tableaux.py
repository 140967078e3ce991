"""Explicit matrix models of Irr(G(m,1,n)) on standard Young m-tableaux.

The model acts on the basis of standard Young m-tableaux of a given
shape: the order-m generator scales a tableau by zeta_m^(component of 1),
and the transposition generators act through axial distances,

    s_i . T = (1/a) T + (1 + 1/a) T',

where T' swaps i and i+1 (zero if not standard) and a is the axial
distance, with 1/a = 0 when i and i+1 sit in different components.  All
defining relations are verified exactly at build time.

This module is the independent oracle for character values: reflections
are mapped through the model by deterministic words in the generators,
giving the content c(chi) as a normalized trace sum over reflections.
Each word is checked against its reflection's (perm, phases) pair by
multiplying the generators' pairs with `groups._compose`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce

from .exactnum import ONE, ZERO, Cyclotomic, cyclo, cyclo_rational
from .groups import KIND_G1, GroupSpec, Reflection, _compose, enumerate_reflections
from .labels import CharLabel, MPartition, dimension

__all__ = [
    "GeneratorMatrices",
    "standard_tableaux",
    "build_model",
    "word_image",
    "reflection_word",
    "reflection_character_sum",
    "galois_twist_model",
    "character_on_generators",
    "mat_mul",
    "mat_trace",
]

# a tableau is an m-tuple of components; each component is a tuple of rows;
# each row is a tuple of the numbers 1..n it contains
Tableau = tuple[tuple[tuple[int, ...], ...], ...]


@lru_cache(maxsize=None)
def standard_tableaux(shape: MPartition) -> tuple[Tableau, ...]:
    """All standard Young m-tableaux of the given shape, in a fixed order.

    Built by removing the largest entry from a removable corner and
    recursing; rows and columns increase within every component.
    """
    n = sum(sum(p) for p in shape)
    if n == 0:
        return (tuple(() for _ in shape),)
    out: list[Tableau] = []
    for ci, comp in enumerate(shape):
        for ri, row_len in enumerate(comp):
            if row_len == 0:
                continue
            below = comp[ri + 1] if ri + 1 < len(comp) else 0
            if row_len == below:
                continue  # not a corner
            smaller_comp = tuple(
                (r - 1 if j == ri else r) for j, r in enumerate(comp)
            )
            smaller_comp = tuple(r for r in smaller_comp if r) or ()
            smaller = tuple(
                smaller_comp if j == ci else c for j, c in enumerate(shape)
            )
            for t in standard_tableaux(smaller):
                comp_rows = list(t[ci])
                while len(comp_rows) <= ri:
                    comp_rows.append(())
                comp_rows[ri] = comp_rows[ri] + (n,)
                filled = tuple(
                    tuple(comp_rows) if j == ci else c for j, c in enumerate(t)
                )
                out.append(filled)
    return tuple(sorted(out))


def _positions(t: Tableau) -> dict[int, tuple[int, int, int]]:
    pos = {}
    for ci, comp in enumerate(t):
        for ri, row in enumerate(comp):
            for col, val in enumerate(row):
                pos[val] = (ci, ri, col)
    return pos


def _swap_entries(t: Tableau, i: int) -> Tableau | None:
    """Exchange i and i+1 if the result is standard, else None."""
    pos = _positions(t)
    (c1, r1, k1), (c2, r2, k2) = pos[i], pos[i + 1]

    def put(tab, where, val):
        c, r, k = where
        comp = list(tab[c])
        row = list(comp[r])
        row[k] = val
        comp[r] = tuple(row)
        return tuple(tuple(comp) if j == c else x for j, x in enumerate(tab))

    swapped = put(put(t, (c1, r1, k1), i + 1), (c2, r2, k2), i)
    for comp in swapped:
        for ri, row in enumerate(comp):
            if any(a >= b for a, b in zip(row, row[1:])):
                return None
            if ri + 1 < len(comp):
                below = comp[ri + 1]
                if any(a >= b for a, b in zip(row, below)):
                    return None
    return swapped


@dataclass(frozen=True)
class GeneratorMatrices:
    """Exact matrices for the generators t, s_1, ..., s_{n-1}."""

    shape: MPartition
    basis: tuple[Tableau, ...]
    t_matrix: tuple[tuple[Cyclotomic, ...], ...]
    s_matrices: tuple[tuple[tuple[Cyclotomic, ...], ...], ...]
    m: int
    n: int


def mat_mul(a, b):
    size = len(a)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = ZERO
            for k in range(size):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_identity(size):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(size)) for i in range(size)
    )


def mat_trace(a) -> Cyclotomic:
    tr = ZERO
    for i in range(len(a)):
        tr = tr + a[i][i]
    return tr


def _mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _check_relations(model: GeneratorMatrices):
    m, n = model.m, model.n
    size = len(model.basis)
    ident = mat_identity(size)
    t = model.t_matrix
    s = model.s_matrices
    power = ident
    for _ in range(m):
        power = mat_mul(power, t)
    if not _mat_eq(power, ident):
        raise AssertionError("t^m != 1 in the tableau model")
    for i, si in enumerate(s):
        if not _mat_eq(mat_mul(si, si), ident):
            raise AssertionError(f"s_{i+1}^2 != 1 in the tableau model")
    if s:
        lhs = mat_mul(mat_mul(t, s[0]), mat_mul(t, s[0]))
        rhs = mat_mul(mat_mul(s[0], t), mat_mul(s[0], t))
        if not _mat_eq(lhs, rhs):
            raise AssertionError("t s1 t s1 != s1 t s1 t in the tableau model")
    for i in range(len(s) - 1):
        lhs = mat_mul(mat_mul(s[i], s[i + 1]), s[i])
        rhs = mat_mul(mat_mul(s[i + 1], s[i]), s[i + 1])
        if not _mat_eq(lhs, rhs):
            raise AssertionError(f"braid relation fails at s_{i+1}, s_{i+2}")
    for i in range(len(s)):
        for j in range(i + 2, len(s)):
            if not _mat_eq(mat_mul(s[i], s[j]), mat_mul(s[j], s[i])):
                raise AssertionError(f"distant generators s_{i+1}, s_{j+1} do not commute")
        if i >= 1:
            if not _mat_eq(mat_mul(t, s[i]), mat_mul(s[i], t)):
                raise AssertionError(f"t does not commute with s_{i+1}")


@lru_cache(maxsize=None)
def build_model(lab: CharLabel, bound: int = 200) -> GeneratorMatrices:
    """Matrices of the generators on standard tableaux of lab's shape.

    Only G(m,1,n) labels have models here; the G(m,m,n) data is derived
    combinatorially elsewhere.  All defining relations are verified before
    returning.
    """
    g = lab.group
    if g.kind != KIND_G1:
        raise ValueError("tableau models exist for the G(m,1,n) kind only")
    shape = lab.parts
    dim = dimension(lab)
    if dim > bound:
        raise ValueError(f"dimension {dim} exceeds the model bound {bound}")
    basis = standard_tableaux(shape)
    assert len(basis) == dim, "tableau count must match the hook-length dimension"
    index = {t: i for i, t in enumerate(basis)}
    m, n = g.m, g.n

    t_matrix = tuple(
        tuple(
            cyclo(m, _positions(bt)[1][0]) if i == j else ZERO
            for j, bt in enumerate(basis)
        )
        for i in range(dim)
    )

    s_matrices = []
    for i in range(1, n):
        cols: list[list[Cyclotomic]] = [[ZERO] * dim for _ in range(dim)]
        for j, bt in enumerate(basis):
            pos = _positions(bt)
            (c1, r1, k1), (c2, r2, k2) = pos[i], pos[i + 1]
            swapped = _swap_entries(bt, i)
            if c1 == c2:
                a = (k2 - r2) - (k1 - r1)
                inv_a = Fraction(1, a)
                cols[j][j] = cyclo_rational(inv_a)
                if swapped is not None:
                    cols[j][index[swapped]] = cyclo_rational(1 + inv_a)
            else:
                cols[j][index[swapped]] = ONE
        s_matrices.append(
            tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))
        )

    model = GeneratorMatrices(
        shape=shape,
        basis=basis,
        t_matrix=t_matrix,
        s_matrices=tuple(s_matrices),
        m=m,
        n=n,
    )
    _check_relations(model)
    return model


# ---------------------------------------------------------------------------
# words in the generators


def _generator_pair(n: int, tok):
    """The monomial pair of t or of s_i (token ("s", i) swaps the 0-based
    coordinates i-1 and i), in `groups.Reflection`'s convention."""
    if tok == "t":
        return tuple(range(n)), (1,) + (0,) * (n - 1)
    perm = list(range(n))
    perm[tok[1] - 1], perm[tok[1]] = tok[1], tok[1] - 1
    return tuple(perm), (0,) * n


def _swap_word(i: int, j: int):
    """Word for the transposition of 0-based coordinates i < j (a
    palindrome of adjacent swaps; token ("s", a) swaps coordinates
    a-1 and a)."""
    return (
        [("s", a) for a in range(i + 1, j)]
        + [("s", j)]
        + [("s", a) for a in range(j - 1, i, -1)]
    )


def reflection_word(g: GroupSpec, refl: Reflection):
    """A deterministic word in {t, s_1, ..., s_{n-1}} mapping to refl."""
    n = g.n
    perm, phases = refl.perm, refl.phases

    def t_coord_word(c, k):
        # diagonal phase k at 0-based coordinate c: conjugate t^k by (0, c)
        chain = _swap_word(0, c) if c else []
        return chain + ["t"] * (k % g.m) + chain

    if perm == tuple(range(n)):
        i = next(j for j, ph in enumerate(phases) if ph)
        word = t_coord_word(i, phases[i])
    else:
        i = next(j for j in range(n) if perm[j] != j)
        j = perm[i]
        k = phases[j]  # e_i -> zeta^k e_j
        word = t_coord_word(j, k) + _swap_word(i, j) + t_coord_word(j, (-k) % g.m)
    identity = (tuple(range(n)), (0,) * n)
    pairs = (_generator_pair(n, tok) for tok in word)
    assert reduce(partial(_compose, g.m), pairs, identity) == (perm, phases), (
        "reflection word failed to reproduce the reflection's pair"
    )
    return word


def word_image(model: GeneratorMatrices, word):
    out = mat_identity(len(model.basis))
    for tok in word:
        mat = model.t_matrix if tok == "t" else model.s_matrices[tok[1] - 1]
        out = mat_mul(out, mat)
    return out


def reflection_character_sum(lab: CharLabel, bound: int = 200) -> Cyclotomic:
    """The content c(chi): the normalized sum of character values over all
    reflections, computed from the explicit matrices."""
    g = lab.group
    model = build_model(lab, bound)
    total = ZERO
    for refl in enumerate_reflections(g):
        total = total + mat_trace(word_image(model, reflection_word(g, refl)))
    return total / dimension(lab)


def character_on_generators(model: GeneratorMatrices):
    """Traces of t and the s_i (a cheap character fingerprint)."""
    return (mat_trace(model.t_matrix),) + tuple(
        mat_trace(s) for s in model.s_matrices
    )


def galois_twist_model(model: GeneratorMatrices, p: int) -> GeneratorMatrices:
    """Apply zeta_m -> zeta_m^p to every matrix entry."""

    def twist_matrix(mat):
        return tuple(tuple(entry.galois(p) for entry in row) for row in mat)

    return GeneratorMatrices(
        shape=model.shape,
        basis=model.basis,
        t_matrix=twist_matrix(model.t_matrix),
        s_matrices=tuple(twist_matrix(s) for s in model.s_matrices),
        m=model.m,
        n=model.n,
    )
