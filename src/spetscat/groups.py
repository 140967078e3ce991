"""Group-level data for the supported reflection groups.

Supported kinds: G(m,1,n) and G(m,m,n) in their standard monomial
reflection representations, plus a degrees-only type A mode (the
symmetric group S_n on its (n-1)-dimensional reflection representation),
which participates only in Catalan-number computations.

Degrees, codegrees, exponents, the Coxeter number, reflection and
hyperplane counts, and the Poincare polynomial are returned by
`invariants`; `enumerate_reflections` lists the reflections of the
imprimitive kinds as explicit monomial matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .exactnum import Cyclotomic, LaurentPoly, cyclo, cyclo_rational, q_int

__all__ = [
    "GroupSpec",
    "GroupInvariants",
    "Reflection",
    "Gm1n",
    "Gmmn",
    "TypeA",
    "invariants",
    "enumerate_reflections",
    "parse_group",
]

KIND_G1 = "Gm1n"
KIND_GM = "Gmmn"
KIND_A = "TypeA"


@dataclass(frozen=True)
class GroupSpec:
    """Which reflection group: G(m,1,n), G(m,m,n), or type A (degrees only)."""

    kind: str
    m: int
    n: int

    def __post_init__(self):
        if self.kind == KIND_G1:
            if self.n < 1 or self.m < 2:
                raise ValueError(f"G({self.m},1,{self.n}) is not an irreducible group")
        elif self.kind == KIND_GM:
            if self.m < 2 or self.n < 2 or (self.m, self.n) == (2, 2):
                raise ValueError(f"G({self.m},{self.m},{self.n}) is not irreducible")
        elif self.kind == KIND_A:
            if self.n < 2:
                raise ValueError(f"type A mode needs n >= 2, got n = {self.n}")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    @property
    def rank(self) -> int:
        """Dimension of the reflection representation."""
        return self.n - 1 if self.kind == KIND_A else self.n

    def __str__(self):
        if self.kind == KIND_G1:
            return f"G({self.m},1,{self.n})"
        if self.kind == KIND_GM:
            return f"G({self.m},{self.m},{self.n})"
        return f"A{self.n - 1}"


def Gm1n(m: int, n: int) -> GroupSpec:
    return GroupSpec(KIND_G1, m, n)


def Gmmn(m: int, n: int) -> GroupSpec:
    return GroupSpec(KIND_GM, m, n)


def TypeA(n: int) -> GroupSpec:
    """The symmetric group S_n in its reflection representation A_{n-1}."""
    return GroupSpec(KIND_A, 1, n)


def parse_group(text: str) -> GroupSpec:
    """Parse "G(m,1,n)", "G(m,m,n)" or "A<rank>" (whitespace-insensitive)."""
    s = "".join(text.split())
    if s.upper().startswith("A"):
        try:
            rank = int(s[1:])
        except ValueError:
            raise ValueError(f"cannot parse group {text!r}") from None
        if rank < 1:
            raise ValueError(f"type A needs a rank of at least 1, got {text!r}")
        return TypeA(rank + 1)
    if s.startswith("G(") and s.endswith(")"):
        body = s[2:-1].split(",")
        if len(body) == 3:
            try:
                m, p, n = (int(x) for x in body)
            except ValueError:
                raise ValueError(f"cannot parse group {text!r}") from None
            if p == 1:
                return Gm1n(m, n)
            if p == m:
                return Gmmn(m, n)
            raise ValueError(f"G({m},{p},{n}) is not spetsial (need p = 1 or p = m)")
    raise ValueError(f"cannot parse group {text!r}")


@dataclass(frozen=True)
class GroupInvariants:
    """The reflection invariants of one group, from its degrees alone.

    `degrees` are ascending; `exponents` are d_i - 1; `codegrees` are
    h - d_i, paired with the degrees in reverse order (duality of a
    well-generated group).  `coxeter_number` is h = (N + N*) / n, with
    N = `num_reflections` and N* = `num_hyperplanes`; `order` is the
    product of the degrees; `poincare` is prod [d_i]_q.
    """

    degrees: tuple[int, ...]
    codegrees: tuple[int, ...]
    exponents: tuple[int, ...]
    coxeter_number: int
    num_reflections: int
    num_hyperplanes: int
    order: int
    poincare: LaurentPoly

    def to_json(self):
        return {
            "degrees": list(self.degrees),
            "codegrees": list(self.codegrees),
            "exponents": list(self.exponents),
            "h": self.coxeter_number,
            "num_reflections": self.num_reflections,
            "num_hyperplanes": self.num_hyperplanes,
            "order": self.order,
            "poincare": self.poincare.to_json(),
        }


@lru_cache(maxsize=None)
def invariants(g: GroupSpec) -> GroupInvariants:
    m, n = g.m, g.n
    if g.kind == KIND_G1:
        degrees = tuple(m * i for i in range(1, n + 1))
        num_hyperplanes = n + m * n * (n - 1) // 2
    elif g.kind == KIND_GM:
        degrees = tuple(sorted([m * i for i in range(1, n)] + [n]))
        num_hyperplanes = m * n * (n - 1) // 2
    else:
        degrees = tuple(range(2, n + 1))
        num_hyperplanes = n * (n - 1) // 2
    exponents = tuple(d - 1 for d in degrees)
    num_reflections = sum(exponents)
    rank = len(degrees)
    h = (num_reflections + num_hyperplanes) // rank
    assert h * rank == num_reflections + num_hyperplanes
    # well-generated duality d_i + d*_i = h, pairing ascending degrees with
    # descending codegrees
    codegrees = tuple(h - d for d in degrees)
    poincare = q_int(degrees[0])
    for d in degrees[1:]:
        poincare = poincare * q_int(d)
    return GroupInvariants(
        degrees=degrees,
        codegrees=codegrees,
        exponents=exponents,
        coxeter_number=h,
        num_reflections=num_reflections,
        num_hyperplanes=num_hyperplanes,
        order=math.prod(degrees),
        poincare=poincare,
    )


@dataclass(frozen=True)
class Reflection:
    """A reflection as an n x n monomial matrix with cyclotomic entries.

    `perm` and `phases` carry the monomial data (column j maps e_j to
    zeta_m^phases[perm[j]] e_perm[j]); `hyperplane_class` tags the
    hyperplane orbit.
    """

    matrix: tuple[tuple[Cyclotomic, ...], ...]
    order: int
    hyperplane_class: str
    perm: tuple[int, ...]
    phases: tuple[int, ...]


def _monomial_matrix(m: int, n: int, perm: tuple[int, ...], phases: tuple[int, ...]):
    zero = cyclo_rational(0)
    cols = []
    for j in range(n):
        col = [zero] * n
        col[perm[j]] = cyclo(m, phases[perm[j]])
        cols.append(col)
    # rows[i][j] = entry mapping e_j into e_i
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def enumerate_reflections(g: GroupSpec, bound: int = 10**5):
    """All reflections of G(m,1,n) or G(m,m,n) as monomial matrices.

    Diagonal reflections diag(..., zeta_m^k, ...) exist only for the
    G(m,1,n) kind; both kinds have the order-2 reflections swapping
    e_i -> zeta_m^k e_j.  The count always equals the exponent sum.
    """
    if g.kind == KIND_A:
        raise ValueError("type A mode is degrees-only; no reflection enumeration")
    m, n = g.m, g.n
    if m**n * math.factorial(n) > bound:
        raise ValueError(
            f"group order {m}^{n} * {n}! exceeds the reflection scan bound {bound}"
        )
    out: list[Reflection] = []
    identity = tuple(range(n))
    if g.kind == KIND_G1:
        for i in range(n):
            for k in range(1, m):
                phases = tuple(k if a == i else 0 for a in range(n))
                out.append(
                    Reflection(
                        matrix=_monomial_matrix(m, n, identity, phases),
                        order=m // math.gcd(m, k),
                        hyperplane_class="diagonal",
                        perm=identity,
                        phases=phases,
                    )
                )
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(m):
                perm = list(range(n))
                perm[i], perm[j] = j, i
                phases = [0] * n
                phases[j] = k % m
                phases[i] = (-k) % m
                out.append(
                    Reflection(
                        matrix=_monomial_matrix(m, n, tuple(perm), tuple(phases)),
                        order=2,
                        hyperplane_class="transposition",
                        perm=tuple(perm),
                        phases=tuple(phases),
                    )
                )
    assert len(out) == invariants(g).num_reflections
    return tuple(out)
