"""Digests of spetscat's JSON outputs that depend on values, not on how
they are written.

A cyclotomic number is written as coefficients over one conductor N,
and the conductor is whatever the computation happened to work in.  So
the digest does not hash that text.  It maps every cyclotomic number
through one ring homomorphism

    Q(zeta_M) -> F_l,   zeta_M -> w,

where M is a multiple of every conductor the supported groups use, l is
a prime with l = 1 (mod M) and w has order exactly M in F_l.  zeta_N is
zeta_M^(M/N), so every way of writing the same value maps to the same
residue, and two different values collide only with probability about
(degree)/l, with l near 2^61.  A Laurent polynomial becomes its nonzero
terms, each exponent as the reduced fraction e/root_order.  The timing
field `ms` is dropped.  Everything else is hashed as it is.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

# 2^6 3^3 5^2 7 11 13: every conductor N <= 16, and 20, 24, 36, 40, 48.
FIELD_ORDER = 64 * 27 * 25 * 7 * 11 * 13
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _field():
    k = (1 << 61) // FIELD_ORDER
    while not _is_prime(k * FIELD_ORDER + 1):
        k += 1
    prime = k * FIELD_ORDER + 1
    for x in range(2, prime):
        w = pow(x, k, prime)
        if all(pow(w, FIELD_ORDER // r, prime) != 1 for r in (2, 3, 5, 7, 11, 13)):
            return prime, w
    raise AssertionError("no element of order M")


PRIME, ROOT = _field()


def _rational(text: str) -> int:
    num, _, den = text.partition("/")
    value = int(num) % PRIME
    return value * pow(int(den), -1, PRIME) % PRIME if den else value


def cyclotomic_residue(data) -> int:
    """The image in F_l of a cyclotomic number in spetscat's JSON form."""
    n = data["conductor"]
    if FIELD_ORDER % n:
        raise ValueError(f"conductor {n} does not divide {FIELD_ORDER}")
    step = FIELD_ORDER // n
    total = 0
    for k, c in data["coeffs"]:
        total += _rational(c) * pow(ROOT, k * step % FIELD_ORDER, PRIME)
    return total % PRIME


def canonical(obj):
    """The value-level canonical form of a JSON output, without `ms`."""
    if isinstance(obj, dict):
        if obj.keys() == {"conductor", "coeffs"}:
            return cyclotomic_residue(obj)
        if obj.keys() == {"var", "root_order", "terms"}:
            terms = {}
            for e, c in obj["terms"]:
                r = cyclotomic_residue(c)
                if r:
                    terms[Fraction(e, obj["root_order"])] = r
            return {
                "var": obj["var"],
                "terms": [[str(e), terms[e]] for e in sorted(terms)],
            }
        return {k: canonical(v) for k, v in obj.items() if k != "ms"}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def combine(digests) -> str:
    """One digest for a sequence of digests, order-sensitive."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()[:32]
