"""Exact arithmetic in cyclotomic fields and in Laurent polynomials over them.

A `Cyclotomic` is an element of Q(zeta_N), stored as a polynomial in
zeta_N reduced modulo the N-th cyclotomic polynomial Phi_N (power basis,
degree < deg Phi_N), with Fraction coefficients.  Zero coefficients are
never stored, so an element is zero iff its coefficient map is empty, and
two elements at the same conductor are equal iff their maps are equal.
Elements at different conductors are compared and combined after lifting
both to the least common multiple conductor; results are not demoted to a
smaller conductor.

A rational operand (conductor 1) of a product scales the other
operand's coefficients in place of the lift; the product keeps the other
operand's conductor, as the lift would give it.  A rational is {0: v} at
every conductor, so equality with a rational, or at one conductor,
compares the maps without a lift.

A `LaurentPoly` is a Laurent polynomial in one variable with Cyclotomic
coefficients.  Fractional powers of the nominal variable q are realized
through a declared `root_order` D: the terms live in integer powers of
y = q^(1/D).  When every exponent is divisible by D the value is an
honest Laurent polynomial in q.

`poly_exact_div` divides dense `int` lists when every coefficient of
both operands is an integer, each operand's coefficients share one
conductor and the divisor's leading coefficient is +-1 (Poincare
polynomials, q-integers, (q-1)^n, products of q^k - 1).  Its quotient
is written over the lcm of the two conductors, which is where the
Cyclotomic division loop, kept for every other operand, leaves it.
Every int list becomes a `LaurentPoly` through `_int_poly`, which
builds each coefficient once and passes `reduced=True`, so the
constructor skips its per-coefficient conversion and zero test.

A polynomial over Z[zeta_m] may also be held in the group ring
Z[C_m][q], as m int lists, one per power of zeta_m.  `_ring_exact_div`
long-divides each list by an int divisor with leading coefficient +-1
and requires the remainder to vanish mod Phi_m; `_ring_poly` reduces
each coefficient once into a LaurentPoly.

Evaluation at a root of unity reduces once: every term is added as
exponents of zeta_L, L the lcm of the root's order and the coefficients'
conductors, and only the sum is reduced modulo Phi_L.

There is no floating point anywhere in this module.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "Cyclotomic",
    "LaurentPoly",
    "InexactDivisionError",
    "FractionalPowerError",
    "cyclo",
    "cyclo_rational",
    "cyclo_from_json",
    "eval_at_root",
    "poly_exact_div",
    "q_int",
    "q_monomial",
    "q_poly",
    "lpoly_from_json",
]


class InexactDivisionError(ArithmeticError):
    """A polynomial quotient left a nonzero remainder.

    This signals a mathematical finding (the divisor does not divide the
    dividend in the Laurent ring), not a programming error.
    """


class FractionalPowerError(ArithmeticError):
    """A value with genuinely fractional q-powers was used where a plain
    Laurent polynomial in q is required."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction tables


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, as integers (monic)."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        phi_d = cyclotomic_polynomial(d)
        quot = [0] * (len(poly) - len(phi_d) + 1)
        rem = list(poly)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + len(phi_d) - 1]
            quot[i] = c
            if c:
                for j, pc in enumerate(phi_d):
                    rem[i + j] -= c * pc
        assert all(c == 0 for c in rem), f"Phi_{d} must divide x^{n}-1"
        poly = quot
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(degree d of Phi_n, rows) with rows[e - d] = x^e mod Phi_n.

    Rows cover exponents d..max(n - 1, 2d - 2), enough both to reduce a
    freshly constructed power zeta_n^k (k < n) and the convolution of two
    reduced elements.
    """
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    top = max(n - 1, 2 * d - 2)
    rows: list[tuple[int, ...]] = []
    # x^d = -(phi_0 + phi_1 x + ... + phi_{d-1} x^{d-1})  since Phi is monic
    cur = [-c for c in phi[:d]]
    for _ in range(d, top + 1):
        rows.append(tuple(cur))
        lead = cur[d - 1]
        nxt = [0] + cur[: d - 1]
        if lead:
            base = rows[0]
            nxt = [a + lead * b for a, b in zip(nxt, base)]
        cur = nxt
    return d, tuple(rows)


def _reduce(n: int, coeffs: dict[int, Fraction]) -> dict[int, Fraction]:
    """Reduce exponents modulo Phi_n; drop zero coefficients."""
    d, rows = _reduction_rows(n)
    out: dict[int, Fraction] = {}
    for e, c in coeffs.items():
        if not c:
            continue
        if e >= n or e < 0:
            e %= n
        if e < d:
            out[e] = out.get(e, 0) + c
        else:
            for j, r in enumerate(rows[e - d]):
                if r:
                    out[j] = out.get(j, 0) + c * r
    return {e: c for e, c in out.items() if c}


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of dense Fraction polynomials (b nonzero)."""
    r = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = f
        for j, bc in enumerate(b):
            r[shift + j] -= f * bc
        _trim(r)
    return _trim(q), r


def _poly_mul(a: list, b: list) -> list:
    """Product of dense polynomials; int lists stay int."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _mul_q_int(a: list[int], t: int) -> list[int]:
    """a * [t]_q, i.e. a times 1 + q + ... + q^(t-1), for an int list a,
    by a running sum over a window of t coefficients."""
    if not a or t < 1:
        return []
    padded = a + [0] * (t - 1)
    out, s = [], 0
    for i, x in enumerate(padded):
        s += x
        if i >= t:
            s -= padded[i - t]
        out.append(s)
    return _trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _int_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of dense int polynomials (ascending), where
    b has leading coefficient +-1, so the quotient stays integral.  The
    remainder is the low deg b coefficients, zeros included."""
    lead, db = b[-1], len(b) - 1
    terms = [(j, c) for j, c in enumerate(b) if c]
    rem = a + [0] * max(0, db - len(a))
    quot = [0] * max(0, len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + db]
        if c:
            f = c * lead
            quot[i] = f
            for j, bc in terms:
                rem[i + j] -= f * bc
    return quot, rem[:db]


def _int_exact_div(a: list[int], b: list[int], offset: int = 0) -> list[int]:
    """Exact quotient a / b by `_int_divmod`.

    Raises InexactDivisionError on a nonzero remainder, naming its lowest
    exponent plus `offset`.
    """
    quot, rem = _int_divmod(a, b)
    for i, r in enumerate(rem):
        if r:
            raise InexactDivisionError(
                f"remainder has a nonzero term at exponent {i + offset}"
            )
    return quot


def _ring_exact_div(
    comps: list[list[int]], b: list[int], offset: int = 0
) -> list[list[int]]:
    """Exact quotient of sum_k comps[k] zeta_m^k, m = len(comps) and
    comps[k] a dense int polynomial, by an int polynomial b with leading
    coefficient +-1.

    Each component is long-divided on its own, in the group ring
    Z[C_m][q]; this is sound because Z[C_m] -> Z[zeta_m] is a ring map.
    The remainder, gathered per exponent, must reduce to 0 mod Phi_m;
    otherwise InexactDivisionError names its lowest such exponent plus
    `offset`.
    """
    quots, rems = zip(*(_int_divmod(c, b) for c in comps))
    for i, col in enumerate(zip(*rems)):
        if any(col) and _reduce(len(comps), dict(enumerate(col))):
            raise InexactDivisionError(
                f"remainder has a nonzero term at exponent {i + offset}"
            )
    return list(quots)


def _solve_exact(mat: list[list[Fraction]], ncols: int):
    """Solve an overdetermined augmented system exactly; None if inconsistent.

    mat rows have ncols coefficient entries plus the RHS entry.
    """
    rows = [row[:] for row in mat]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][ncols]:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol


class Cyclotomic:
    """An element of Q(zeta_N) in canonical reduced form.

    Immutable; all operations return new values.  Mixed-conductor
    operations lift both operands to the lcm conductor first.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs: dict[int, Fraction], *, reduced: bool = False):
        if n < 1:
            raise ValueError(f"conductor must be positive, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", coeffs if reduced else _reduce(n, coeffs))

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(x) -> Cyclotomic:
        x = _as_fraction(x)
        return Cyclotomic(1, {0: x} if x else {}, reduced=True)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def is_rational(self) -> bool:
        return all(e == 0 for e in self.c)

    def as_fraction(self) -> Fraction:
        if not self.c:
            return Fraction(0)
        if self.is_rational():
            return self.c[0]
        raise ValueError(f"{self!r} is not rational")

    def lift(self, m: int) -> Cyclotomic:
        """The same value viewed in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        f = m // self.n
        return Cyclotomic(m, {e * f: c for e, c in self.c.items()})

    def try_demote(self, m: int) -> Cyclotomic | None:
        """The same value in Q(zeta_m) if representable there, else None.

        Solves a small linear system on the power basis of Q(zeta_n).
        Results of ordinary arithmetic are intentionally left at their
        working conductor; this is for tests and display only.
        """
        if m == self.n:
            return self
        if self.n % m:
            return None
        f = self.n // m
        dn, _ = _reduction_rows(self.n)
        dm, _ = _reduction_rows(m)
        # columns: images of zeta_m^j in the power basis of Q(zeta_n)
        cols = [Cyclotomic(self.n, {j * f: Fraction(1)}).c for j in range(dm)]
        # augmented system rows indexed by exponents 0..dn-1
        mat = [[col.get(e, Fraction(0)) for col in cols] + [self.c.get(e, Fraction(0))]
               for e in range(dn)]
        sol = _solve_exact(mat, dm)
        if sol is None:
            return None
        return Cyclotomic(m, {j: c for j, c in enumerate(sol) if c})

    # -- arithmetic --------------------------------------------------------

    def _common(self, other) -> tuple[Cyclotomic, Cyclotomic]:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented, NotImplemented
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._common(other)
        if a is NotImplemented:
            return NotImplemented
        out = dict(a.c)
        for e, c in b.c.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Cyclotomic(a.n, out, reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, {e: -c for e, c in self.c.items()}, reduced=True)

    def __sub__(self, other):
        a, b = self._common(other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, f) -> Cyclotomic:
        if not f:
            return Cyclotomic(self.n, {}, reduced=True)
        return Cyclotomic(self.n, {e: c * f for e, c in self.c.items()}, reduced=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(_as_fraction(other))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        # a rational operand scales the other: no lift, no reduction
        if other.n == 1:
            return self._scaled(other.c.get(0, 0))
        if self.n == 1:
            return other._scaled(self.c.get(0, 0))
        a, b = self._common(other)
        acc: dict[int, Fraction] = {}
        for e1, c1 in a.c.items():
            for e2, c2 in b.c.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return Cyclotomic(a.n, acc)

    __rmul__ = __mul__

    def inv(self) -> Cyclotomic:
        """Multiplicative inverse, by the extended Euclidean algorithm
        against Phi_n in Q[x]."""
        if not self.c:
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        if self.is_rational():
            return Cyclotomic(self.n, {0: 1 / self.c[0]}, reduced=True)
        d, _ = _reduction_rows(self.n)
        a = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        b = [Fraction(0)] * d
        for e, c in self.c.items():
            b[e] = c
        _trim(b)
        # track only the self-multipliers: u*Phi + t*self = current remainder
        ta, tb = [], [Fraction(1)]
        while len(b) > 1:
            q, r = _poly_divmod(a, b)
            tn = _poly_sub(ta, _poly_mul(q, tb))
            a, ta = b, tb
            b, tb = r, tn
            if not b:
                raise ZeroDivisionError("element shares a factor with Phi_n")
        unit = b[0]
        return Cyclotomic(self.n, {i: c / unit for i, c in enumerate(tb) if c})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if not f:
                raise ZeroDivisionError("division by zero")
            return self * (1 / f)
        a, b = self._common(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        return Cyclotomic.rational(_as_fraction(other)) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = Cyclotomic.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def galois(self, p: int) -> Cyclotomic:
        """Image under the field automorphism zeta_n -> zeta_n^p, gcd(p, n) = 1."""
        if gcd(p, self.n) != 1:
            raise ValueError(f"{p} is not coprime to the conductor {self.n}")
        return Cyclotomic(self.n, {(e * p) % self.n: c for e, c in self.c.items()})

    def conjugate(self) -> Cyclotomic:
        return self.galois(self.n - 1) if self.n > 1 else self

    # -- comparison & display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.c == ({0: other} if other else {})
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        # a rational is {0: v} at every conductor: only two non-rational
        # conductors that differ need the lift
        if self.n == other.n or self.n == 1 or other.n == 1:
            return self.c == other.c
        a, b = self._common(other)
        return a.c == b.c

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    __hash__ = None  # equal values at different conductors; keep unhashable

    def __repr__(self):
        return f"Cyclotomic({self})"

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            c = self.c[e]
            if e == 0:
                parts.append(str(c))
                continue
            tok = f"E({self.n})" if e == 1 else f"E({self.n})^{e}"
            if c == 1:
                parts.append(tok)
            elif c == -1:
                parts.append(f"-{tok}")
            else:
                parts.append(f"{c}*{tok}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def to_json(self):
        return {
            "conductor": self.n,
            "coeffs": [[e, str(self.c[e])] for e in sorted(self.c)],
        }


def cyclo(n: int, k: int) -> Cyclotomic:
    """zeta_n^k as a canonical element of Q(zeta_n)."""
    return Cyclotomic(n, {k % n: Fraction(1)})


def cyclo_rational(x) -> Cyclotomic:
    return Cyclotomic.rational(x)


def cyclo_from_json(data) -> Cyclotomic:
    return Cyclotomic(
        data["conductor"], {int(e): Fraction(s) for e, s in data["coeffs"]}
    )


ZERO = Cyclotomic.rational(0)
ONE = Cyclotomic.rational(1)


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Laurent polynomial in one variable over cyclotomic numbers.

    `terms` maps integer exponents of y to nonzero Cyclotomic
    coefficients, where y^root_order = var.  Immutable.  With
    `reduced=True` the caller vouches that every value of `terms` is a
    nonzero Cyclotomic, and the map is kept as it is.
    """

    __slots__ = ("var", "root_order", "t")

    def __init__(
        self,
        terms: dict[int, Cyclotomic],
        var: str = "q",
        root_order: int = 1,
        *,
        reduced: bool = False,
    ):
        if root_order < 1:
            raise ValueError(f"root_order must be positive, got {root_order}")
        if reduced:
            clean = terms
        else:
            clean = {}
            for e, c in terms.items():
                if isinstance(c, (int, Fraction)):
                    c = Cyclotomic.rational(c)
                if not c.is_zero():
                    clean[e] = c
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "root_order", root_order)
        object.__setattr__(self, "t", clean)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.t

    def min_exp(self) -> int:
        return min(self.t)

    def max_exp(self) -> int:
        return max(self.t)

    def coeff(self, e: int) -> Cyclotomic:
        return self.t.get(e, ZERO)

    def with_root_order(self, d: int) -> LaurentPoly:
        """The same value expressed with root_order d (a multiple of ours)."""
        if d == self.root_order:
            return self
        if d % self.root_order:
            raise ValueError(f"root_order {d} is not a multiple of {self.root_order}")
        f = d // self.root_order
        return LaurentPoly({e * f: c for e, c in self.t.items()}, self.var, d)

    def collapse(self) -> LaurentPoly:
        """Present with the smallest root_order dividing every exponent."""
        if self.root_order == 1 or not self.t:
            return LaurentPoly(self.t, self.var, 1) if self.root_order != 1 else self
        g = self.root_order
        for e in self.t:
            g = gcd(g, e)
            if g == 1:
                return self
        return LaurentPoly(
            {e // g: c for e, c in self.t.items()}, self.var, self.root_order // g
        )

    def in_q(self) -> LaurentPoly:
        """As a genuine Laurent polynomial in the nominal variable.

        Raises FractionalPowerError if some exponent is not divisible by
        the declared root order.
        """
        c = self.collapse()
        if c.root_order != 1:
            bad = min(e for e in self.t if e % self.root_order)
            raise FractionalPowerError(
                f"exponent {bad}/{self.root_order} of {self.var} is fractional"
            )
        return c

    def _common(self, other) -> tuple[LaurentPoly, LaurentPoly]:
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = LaurentPoly({0: other}, self.var, 1)
        if not isinstance(other, LaurentPoly):
            return NotImplemented, NotImplemented
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
        d = self.root_order * other.root_order // gcd(self.root_order, other.root_order)
        return self.with_root_order(d), other.with_root_order(d)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._common(other)
        if a is NotImplemented:
            return NotImplemented
        out = dict(a.t)
        for e, c in b.t.items():
            v = out.get(e)
            out[e] = c if v is None else v + c
        return LaurentPoly(out, a.var, a.root_order)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.t.items()}, self.var, self.root_order)

    def __sub__(self, other):
        a, b = self._common(other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            if isinstance(other, (int, Fraction)):
                other = Cyclotomic.rational(other)
            if other.is_zero():
                return LaurentPoly({}, self.var, self.root_order)
            return LaurentPoly(
                {e: c * other for e, c in self.t.items()}, self.var, self.root_order
            )
        a, b = self._common(other)
        if a is NotImplemented:
            return NotImplemented
        acc: dict[int, Cyclotomic] = {}
        for e1, c1 in a.t.items():
            for e2, c2 in b.t.items():
                e = e1 + e2
                v = acc.get(e)
                p = c1 * c2
                acc[e] = p if v is None else v + p
        return LaurentPoly(acc, a.var, a.root_order)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("use poly_exact_div for inverses")
        out = LaurentPoly({0: ONE}, self.var, self.root_order)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def shift(self, e: int) -> LaurentPoly:
        """Multiply by y^e (exponent shift in the root variable)."""
        return LaurentPoly(
            {k + e: c for k, c in self.t.items()}, self.var, self.root_order
        )

    # -- comparison & display -------------------------------------------------

    def __eq__(self, other):
        a, b = self._common(other)
        if a is NotImplemented:
            return NotImplemented
        if set(a.t) != set(b.t):
            return False
        return all(a.t[e] == b.t[e] for e in a.t)

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    __hash__ = None

    def __str__(self):
        if not self.t:
            return "0"
        parts = []
        for e in sorted(self.t):
            c = self.t[e]
            if e == 0:
                mono = ""
            elif self.root_order == 1:
                mono = self.var if e == 1 else f"{self.var}^{e}"
            else:
                mono = f"{self.var}^({e}/{self.root_order})"
            cs = str(c)
            if mono == "":
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            elif "+" in cs or (" - " in cs) or "*" in cs or "E(" in cs:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"LaurentPoly({self})"

    def to_json(self):
        return {
            "var": self.var,
            "root_order": self.root_order,
            "terms": [[e, self.t[e].to_json()] for e in sorted(self.t)],
        }

    def value_at_one(self) -> Cyclotomic:
        return eval_y_at_root(self, 1, 0)

    def derivative_at_one(self) -> Cyclotomic:
        """d/dy at y = 1 (for q-polynomials with root_order 1 this is the
        usual derivative at q = 1)."""
        total = ZERO
        for e, c in self.t.items():
            total = total + c * e
        return total


def q_monomial(e: int, coeff=1, var: str = "q", root_order: int = 1) -> LaurentPoly:
    return LaurentPoly({e: coeff}, var, root_order)


def q_poly(pairs, var: str = "q", root_order: int = 1) -> LaurentPoly:
    """LaurentPoly from (exponent, coefficient) pairs."""
    acc: dict[int, Cyclotomic] = {}
    for e, c in pairs:
        if isinstance(c, (int, Fraction)):
            c = Cyclotomic.rational(c)
        acc[e] = acc.get(e, ZERO) + c
    return LaurentPoly(acc, var, root_order)


def q_int(n: int, var: str = "q") -> LaurentPoly:
    """The q-analog [n]_q = 1 + q + ... + q^(n-1) for n >= 0."""
    if n < 0:
        raise ValueError(f"q-analog of a negative integer: {n}")
    return LaurentPoly({e: ONE for e in range(n)}, var, 1)


def _int_poly(
    coeffs: list[int], lo: int = 0, n: int = 1, var: str = "q", root_order: int = 1
) -> LaurentPoly:
    """sum of coeffs[i] y^(lo + i) over an int list, each nonzero
    coefficient an integer at conductor n."""
    return LaurentPoly(
        {
            lo + i: Cyclotomic(n, {0: Fraction(c)}, reduced=True)
            for i, c in enumerate(coeffs)
            if c
        },
        var,
        root_order,
        reduced=True,
    )


def _ring_poly(comps: list[list[int]], lo: int = 0) -> LaurentPoly:
    """sum_k comps[k] zeta_n^k q^(lo + i) over n = len(comps) int lists of
    one length, each coefficient reduced once mod Phi_n, at conductor n."""
    n = len(comps)
    terms = {}
    for i, col in enumerate(zip(*comps)):
        if any(col):
            c = _reduce(n, dict(enumerate(col)))
            if c:
                terms[lo + i] = Cyclotomic(
                    n, {e: Fraction(v) for e, v in c.items()}, reduced=True
                )
    return LaurentPoly(terms, reduced=True)


def lpoly_from_json(data) -> LaurentPoly:
    return LaurentPoly(
        {int(e): cyclo_from_json(c) for e, c in data["terms"]},
        data["var"],
        data["root_order"],
    )


def poly_exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num / den in the Laurent ring.

    Raises InexactDivisionError when den does not divide num (a
    mathematical finding, e.g. a failure of spetsiality), and
    ZeroDivisionError when den is zero.  Integer operands with a unit
    leading divisor coefficient are divided as int lists; all others go
    through the Cyclotomic loop.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a, b = num._common(den)
    if num.is_zero():
        return LaurentPoly({}, a.var, a.root_order)
    sa, sb = a.min_exp(), b.min_exp()
    if a.max_exp() - sa < b.max_exp() - sb:
        raise InexactDivisionError(f"degree of {den} exceeds degree of {num}")
    int_a, int_b = _int_dense(a), _int_dense(b)
    if int_a is None or int_b is None or int_b[1][-1] not in (1, -1):
        return _cyclotomic_exact_div(a, b)
    (na, A), (nb, B) = int_a, int_b
    return _int_poly(
        _int_exact_div(A, B, sa), sa - sb, lcm(na, nb), a.var, a.root_order
    )


def _int_dense(f: LaurentPoly) -> tuple[int, list[int]] | None:
    """(conductor, coefficients from the lowest exponent up) when every
    coefficient of the nonzero f is an integer and all share one
    conductor; None otherwise."""
    lo = f.min_exp()
    out = [0] * (f.max_exp() - lo + 1)
    n = f.t[lo].n
    for e, c in f.t.items():
        v = c.c.get(0)
        if c.n != n or len(c.c) != 1 or v is None or v.denominator != 1:
            return None
        out[e - lo] = v.numerator
    return n, out


def _cyclotomic_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The division loop over Cyclotomic coefficients, for a nonzero a
    and b at one root order with deg a >= deg b."""
    sa, sb = a.min_exp(), b.min_exp()
    da, db = a.max_exp() - sa, b.max_exp() - sb
    A = [ZERO] * (da + 1)
    for e, c in a.t.items():
        A[e - sa] = c
    B = [ZERO] * (db + 1)
    for e, c in b.t.items():
        B[e - sb] = c
    lead_inv = B[db].inv()
    Q = [ZERO] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = A[i + db]
        if c.is_zero():
            continue
        f = c * lead_inv
        Q[i] = f
        for j in range(db + 1):
            if not B[j].is_zero():
                A[i + j] = A[i + j] - f * B[j]
    for i in range(db):
        if not A[i].is_zero():
            raise InexactDivisionError(
                f"remainder has a nonzero term at exponent {i + sa}"
            )
    return LaurentPoly(
        {i + sa - sb: c for i, c in enumerate(Q) if not c.is_zero()},
        a.var,
        a.root_order,
    )


def eval_at_root(f: LaurentPoly, n: int, k: int) -> Cyclotomic:
    """Evaluate f at q = zeta_n^k, exactly, in Q(zeta_n).

    f must be an honest Laurent polynomial in q (every exponent divisible
    by its root order); otherwise FractionalPowerError is raised and the
    caller should evaluate in y via eval_y_at_root.
    """
    return eval_y_at_root(f.in_q(), n, k)


def eval_y_at_root(f: LaurentPoly, m: int, k: int) -> Cyclotomic:
    """Evaluate in the root variable: substitute y = zeta_m^k.

    Every term is added as exponents of zeta_L, L the lcm of m and the
    coefficients' conductors, and the sum is reduced once; the value is
    at conductor L, or 1 for the zero polynomial.
    """
    if not f.t:
        return ZERO
    n = lcm(m, *(c.n for c in f.t.values()))
    step = n // m
    acc: dict[int, Fraction] = {}
    for e, c in f.t.items():
        shift = (k * e) % m * step
        lift = n // c.n
        for j, v in c.c.items():
            x = (j * lift + shift) % n
            acc[x] = acc.get(x, 0) + v
    return Cyclotomic(n, acc)
