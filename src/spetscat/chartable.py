"""Exact character tables of small finite groups given by multiplication
tables, via the Burnside-Dixon method, and the non-abelian Fourier
transform that reads them.

The table entries are computed modulo a prime p with p = 1 mod exp(G)
and p > 2 sqrt(|G|): the class-sum matrices are simultaneously
diagonalized over F_p, the degrees recovered from the orthogonality
relation (both square roots are available mod p; the true degree is the
one below p/2), and the values lifted exactly into cyclotomic integers
through the eigenvalue-multiplicity discrete Fourier sum.  No floating
point, no approximation: the lifted multiplicities are honest
non-negative integers bounded by the degree, hence recovered exactly
from their residues.

`nonabelian_fourier` pairs (class, centralizer character) pairs through
the centralizers' tables; it is the finite-group side of Lusztig's
embedding of type-B families, which the tests compare with
`fourier.pairing_matrix`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, isqrt

from .exactnum import Cyclotomic, cyclo, cyclo_rational

__all__ = [
    "FiniteGroup",
    "character_table",
    "nonabelian_fourier",
    "NonabelianFourier",
    "cyclic_group_table",
    "symmetric_group_table",
    "direct_product_table",
]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group presented by its multiplication table.

    table[i][j] is the index of the product (element i) * (element j);
    the identity is located automatically.  The identity and the inverse
    table are computed on first read and kept on the instance.
    """

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.table)
        for row in self.table:
            if len(row) != n or sorted(row) != list(range(n)):
                raise ValueError("multiplication table rows must be permutations")
        for j in range(n):
            if sorted(self.table[i][j] for i in range(n)) != list(range(n)):
                raise ValueError("multiplication table columns must be permutations")
        if self.identity is None:
            raise ValueError("multiplication table has no identity element")

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def identity(self) -> int | None:
        for e in range(self.order):
            if all(self.table[e][j] == j for j in range(self.order)) and all(
                self.table[i][e] == i for i in range(self.order)
            ):
                return e
        return None

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    @cached_property
    def _inverse_table(self) -> tuple[int, ...]:
        e = self.identity
        return tuple(row.index(e) for row in self.table)

    def inverse(self, i: int) -> int:
        return self._inverse_table[i]

    def element_order(self, i: int) -> int:
        e = self.identity
        k, x = 1, i
        while x != e:
            x = self.table[x][i]
            k += 1
        return k

    def conjugate(self, g: int, x: int) -> int:
        """g x g^{-1}."""
        return self.table[self.table[g][x]][self.inverse(g)]

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        seen = set()
        classes = []
        for x in range(self.order):
            if x in seen:
                continue
            cls = sorted({self.conjugate(g, x) for g in range(self.order)})
            seen.update(cls)
            classes.append(tuple(cls))
        classes.sort(key=lambda c: (c[0] != self.identity, len(c), c))
        return tuple(classes)

    def centralizer(self, x: int) -> tuple[int, ...]:
        return tuple(
            g
            for g in range(self.order)
            if self.table[g][x] == self.table[x][g]
        )

    def subgroup(self, elements) -> tuple["FiniteGroup", dict[int, int]]:
        """The subgroup on the given (closed) element set, re-indexed;
        also returns the map from parent indices to subgroup indices."""
        elems = sorted(elements)
        index = {g: i for i, g in enumerate(elems)}
        table = []
        for a in elems:
            row = []
            for b in elems:
                ab = self.table[a][b]
                if ab not in index:
                    raise ValueError("element set is not closed under products")
                row.append(index[ab])
            table.append(tuple(row))
        return FiniteGroup(tuple(table)), index


def cyclic_group_table(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def symmetric_group_table(n: int) -> tuple[tuple[int, ...], ...]:
    from itertools import permutations

    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for a in perms:
        row = []
        for b in perms:
            row.append(index[tuple(a[b[i]] for i in range(n))])
        table.append(tuple(row))
    return tuple(table)


def direct_product_table(ta, tb) -> tuple[tuple[int, ...], ...]:
    na, nb = len(ta), len(tb)
    table = []
    for i in range(na * nb):
        ia, ib = divmod(i, nb)
        row = []
        for j in range(na * nb):
            ja, jb = divmod(j, nb)
            row.append(ta[ia][ja] * nb + tb[ib][jb])
        table.append(tuple(row))
    return tuple(table)


# ---------------------------------------------------------------------------
# linear algebra over F_p


def _nullspace_mod(matrix, p):
    """Basis of the right nullspace of matrix over F_p (rows of result)."""
    rows = [list(r) for r in matrix]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivots = {}
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    basis = []
    free = [c for c in range(n_cols) if c not in pivots]
    for fc in free:
        vec = [0] * n_cols
        vec[fc] = 1
        for c, pr in pivots.items():
            vec[c] = (-rows[pr][fc]) % p
        basis.append(vec)
    return basis


def _mat_mul_mod(a, b, p):
    n, k = len(a), len(b[0])
    out = [[0] * k for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t, v in enumerate(ai):
            if v:
                bt = b[t]
                oi = out[i]
                for j in range(k):
                    oi[j] = (oi[j] + v * bt[j]) % p
    return out


def _dixon_prime(order: int, exponent: int) -> int:
    p = 3
    while True:
        if (
            p * p > 4 * order
            and p % exponent == 1 % exponent
            and all(p % d for d in range(2, isqrt(p) + 1))
        ):
            return p
        p += 1


def _primitive_root(p: int) -> int:
    factors = []
    n = p - 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise AssertionError("no primitive root found")


@lru_cache(maxsize=None)
def character_table(group: FiniteGroup):
    """(classes, characters): conjugacy classes and, per irreducible
    character, the tuple of its exact cyclotomic values on the class
    representatives (the first entry of each class tuple)."""
    classes = group.conjugacy_classes()
    k = len(classes)
    class_of = {}
    for ci, cls in enumerate(classes):
        for x in cls:
            class_of[x] = ci
    reps = [cls[0] for cls in classes]
    orders = [group.element_order(r) for r in reps]
    exponent = 1
    for o in orders:
        exponent = exponent * o // gcd(exponent, o)
    p = _dixon_prime(group.order, exponent)

    # class-sum matrices, stored transposed so that a row vector v of
    # central-character values satisfies v . mat = omega_j v exactly when
    # the untransposed matrix has v as a right eigenvector
    mats = []
    for j in range(k):
        mat = [[0] * k for _ in range(k)]
        for x in classes[j]:
            xi = group.inverse(x)
            for t in range(k):
                y = group.mul(xi, reps[t])
                mat[t][class_of[y]] += 1
        mats.append(mat)

    # split the k-dimensional space into common eigenspaces of the M_j
    spaces = [[[1 if i == t else 0 for t in range(k)] for i in range(k)]]
    for mat in mats:
        if all(len(s) == 1 for s in spaces):
            break
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            image = _mat_mul_mod(basis, mat, p)  # rows: images of basis rows
            # row coordinates x span an eigen-row of mat for lam exactly when
            # x * (image - lam * basis) = 0: the left nullspace, which is the
            # right nullspace of the transpose (basis rows are independent)
            r = len(basis)
            seen_dim = 0
            for lam in range(p):
                shifted_t = [
                    [(image[i][c] - lam * basis[i][c]) % p for i in range(r)]
                    for c in range(k)
                ]
                null = _nullspace_mod(shifted_t, p)
                if not null:
                    continue
                sub = _mat_mul_mod(null, basis, p)
                new_spaces.append(sub)
                seen_dim += len(sub)
                if seen_dim == r:
                    break
            if seen_dim != r:
                raise AssertionError("class matrix failed to split a subspace")
        spaces = new_spaces
    if any(len(s) != 1 for s in spaces) or len(spaces) != k:
        raise AssertionError("class algebra failed to diagonalize over F_p")

    inv_class = [class_of[group.inverse(reps[t])] for t in range(k)]
    ident_class = class_of[group.identity]
    chars_mod_p = []
    for (vec,) in spaces:
        if vec[ident_class] % p == 0:
            raise AssertionError("eigenvector vanishes on the identity class")
        scale = pow(vec[ident_class], -1, p)
        omega = [(v * scale) % p for v in vec]  # |C_t| chi(g_t) / chi(1)
        s = 0
        for t in range(k):
            s = (s + omega[t] * omega[inv_class[t]] * pow(len(classes[t]), -1, p)) % p
        d_sq = (group.order * pow(s, -1, p)) % p
        d = _sqrt_mod(d_sq, p)
        d = min(d, p - d)
        values = [
            (d * omega[t] * pow(len(classes[t]), -1, p)) % p for t in range(k)
        ]
        chars_mod_p.append((d, values))

    # power maps for the lift
    power_class = []
    for t in range(k):
        row = []
        x = group.identity
        for _ in range(orders[t]):
            row.append(class_of[x])
            x = group.mul(x, reps[t])
        power_class.append(row)

    z = _primitive_root(p)
    lifted = []
    for d, values in chars_mod_p:
        char_vals = []
        for t in range(k):
            o = orders[t]
            w = pow(z, (p - 1) // o, p)
            inv_o = pow(o, -1, p)
            val = cyclo_rational(0)
            for exp_i in range(o):
                m_i = 0
                for j in range(o):
                    m_i = (
                        m_i + values[power_class[t][j]] * pow(w, (-j * exp_i) % (p - 1), p)
                    ) % p
                m_i = (m_i * inv_o) % p
                if m_i > d:
                    raise AssertionError("lifted multiplicity exceeds the degree")
                if m_i:
                    val = val + cyclo(o, exp_i) * m_i
            char_vals.append(val)
        lifted.append(tuple(char_vals))
    lifted.sort(key=lambda vals: (vals[ident_class].as_fraction(), _char_sort_key(vals)))
    return classes, tuple(lifted)


def _sqrt_mod(a: int, p: int) -> int:
    a %= p
    for r in range(p):
        if (r * r) % p == a:
            return r
    raise AssertionError(f"{a} has no square root mod {p}")


def _char_sort_key(vals):
    return tuple(
        (v.n, tuple(sorted((e, str(c)) for e, c in v.c.items()))) for v in vals
    )


# ---------------------------------------------------------------------------
# the abstract non-abelian Fourier transform


@dataclass(frozen=True)
class NonabelianFourier:
    """Transform matrix indexed by pairs (conjugacy class, irreducible
    character of the centralizer of its representative)."""

    pairs: tuple[tuple[int, int], ...]
    matrix: tuple[tuple[Cyclotomic, ...], ...]


def nonabelian_fourier(table, bound: int = 120) -> NonabelianFourier:
    """The pairing matrix over all pairs (x, sigma) with x a class
    representative and sigma an irreducible character of its centralizer:

        {(x, sigma), (y, tau)} = 1/(|C(x)| |C(y)|) *
            sum over g with x (g y g^-1) = (g y g^-1) x of
                sigma(g y g^-1) tau(g^-1 x^-1 g).

    Groups are given by multiplication tables; centralizer character
    tables come from `character_table`.
    """
    group = FiniteGroup(tuple(tuple(row) for row in table))
    if group.order > bound:
        raise ValueError(f"group order {group.order} exceeds the bound {bound}")
    reps = [cls[0] for cls in group.conjugacy_classes()]
    # per representative x: |C(x)|, the class in C(x) of each element of
    # C(x) (by its index in the group), and the characters of C(x)
    cents = []
    for x in reps:
        elems = group.centralizer(x)
        sub, index = group.subgroup(elems)
        sub_classes, chars = character_table(sub)
        class_of = {e: ci for ci, cls in enumerate(sub_classes) for e in cls}
        cents.append((len(elems), {g: class_of[index[g]] for g in elems}, chars))
    pairs = tuple(
        (xi, si) for xi, (_, _, chars) in enumerate(cents) for si in range(len(chars))
    )

    def entry(pair_a, pair_b) -> Cyclotomic:
        (xi, si), (yi, ti) = pair_a, pair_b
        size_x, class_x, chars_x = cents[xi]
        size_y, class_y, chars_y = cents[yi]
        x, x_inv = reps[xi], group.inverse(reps[xi])
        total = cyclo_rational(0)
        for gg in range(group.order):
            gi = group.inverse(gg)
            u = group.mul(group.mul(gg, reps[yi]), gi)  # g y g^-1
            if group.mul(x, u) != group.mul(u, x):
                continue
            v = group.mul(group.mul(gi, x_inv), gg)  # g^-1 x^-1 g
            total = total + chars_x[si][class_x[u]] * chars_y[ti][class_y[v]]
        return total / (size_x * size_y)

    matrix = tuple(tuple(entry(a, b) for b in pairs) for a in pairs)
    return NonabelianFourier(pairs, matrix)
