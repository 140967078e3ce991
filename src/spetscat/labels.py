"""m-partitions of n as labels for the irreducible characters.

Irr(G(m,1,n)) is parametrized by m-tuples of partitions with total size
n.  Restriction to G(m,m,n) splits the character labeled by an m-tuple
into s components, where s is the order of its stabilizer under cyclic
rotation of the tuple; a G(m,m,n) label is therefore a rotation-orbit
representative plus a component index below s.  Orbit representatives
are the lexicographically least rotation, so labels serialize
deterministically.

The group kind enters only as the rotations a label is taken up to
(`_rotations`): the identity for G(m,1,n), all m of them for G(m,m,n).
The canonical form is the least of those rotations and the stabilizer
counts those that fix the tuple, so one rule serves both kinds.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, prod

from .groups import KIND_A, KIND_GM, GroupSpec, invariants

__all__ = [
    "CharLabel",
    "all_labels",
    "partitions",
    "m_partitions",
    "conjugate_partition",
    "hook_count",
    "rotate",
    "canonical_rotation",
    "dimension",
    "exterior_twist_label",
    "galois_twist",
    "dual_label",
    "label_str",
    "parse_label",
]

Partition = tuple[int, ...]
MPartition = tuple[Partition, ...]


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, parts weakly decreasing, in a fixed order."""
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def build(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            build(remaining - part, part, prefix + (part,))

    build(n, n, ())
    return tuple(out)


@lru_cache(maxsize=None)
def m_partitions(m: int, n: int) -> tuple[MPartition, ...]:
    """All m-tuples of partitions with total size n, in a fixed order."""
    if m == 0:
        return ((),) if n == 0 else ()
    out = []
    for k in range(n + 1):
        for lam in partitions(k):
            for rest in m_partitions(m - 1, n - k):
                out.append((lam,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _m_partition_set(m: int, n: int) -> frozenset[MPartition]:
    return frozenset(m_partitions(m, n))


def conjugate_partition(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def hook_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    n = sum(lam)
    if n == 0:
        return 1
    prod_hooks = 1
    conj = conjugate_partition(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            prod_hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(n) // prod_hooks


def rotate(parts: MPartition) -> MPartition:
    """One cyclic rotation: component i of the result is old component i-1."""
    return (parts[-1],) + parts[:-1]


def _rotated(t: tuple, ks) -> list[tuple]:
    """t rotated by each k in ks (rotation by k applies `rotate` k times)."""
    return [t[-k:] + t[:-k] for k in ks]


def _rotations(g: GroupSpec) -> range:
    """Rotations a label of the group is taken up to: the identity for
    G(m,1,n), all m of them for G(m,m,n)."""
    return range(g.m) if g.kind == KIND_GM else range(1)


def _canonical(g: GroupSpec, parts: MPartition) -> MPartition:
    """The least rotation of parts that the group allows."""
    return min(_rotated(parts, _rotations(g)))


def _stabilizer(g: GroupSpec, parts: MPartition) -> int:
    """How many of the group's rotations fix parts."""
    return _rotated(parts, _rotations(g)).count(parts)


def canonical_rotation(parts: MPartition) -> MPartition:
    return min(_rotated(parts, range(len(parts))))


@dataclass(frozen=True)
class CharLabel:
    """Label of an irreducible character.

    For G(m,1,n): `parts` is the m-partition itself and `component` is 0.
    For G(m,m,n): `parts` is the canonical rotation-orbit representative
    and `component` indexes one of the s(parts) conjugate constituents of
    the restricted character.
    """

    group: GroupSpec
    parts: MPartition
    component: int = 0

    def __post_init__(self):
        if len(self.parts) != max(self.group.m, 1):
            raise ValueError(
                f"label needs {self.group.m} components, got {len(self.parts)}"
            )
        if sum(sum(p) for p in self.parts) != self.group.n:
            raise ValueError(f"label sizes must sum to n = {self.group.n}")
        if self.parts not in _m_partition_set(len(self.parts), self.group.n):
            raise ValueError(f"label components {self.parts} are not all partitions")
        if self.parts != _canonical(self.group, self.parts):
            raise ValueError("G(m,m,n) labels use the canonical rotation")
        if not 0 <= self.component < _stabilizer(self.group, self.parts):
            raise ValueError(f"component index {self.component} out of range")

    def __str__(self):
        return label_str(self)


def rotation_orbit_stabilizer(parts: MPartition) -> int:
    """s(parts): how many of the m rotations fix the tuple."""
    return _rotated(parts, range(len(parts))).count(parts)


def all_labels(g: GroupSpec) -> tuple[CharLabel, ...]:
    if g.kind == KIND_A:
        raise ValueError("type A mode has no label pipeline")
    reps = sorted(
        parts for parts in m_partitions(g.m, g.n) if parts == _canonical(g, parts)
    )
    return tuple(
        CharLabel(g, parts, j) for parts in reps for j in range(_stabilizer(g, parts))
    )


def dimension(lab: CharLabel) -> int:
    """Degree of the labeled character."""
    n = lab.group.n
    sizes = [sum(p) for p in lab.parts]
    d = factorial(n)
    for s in sizes:
        d //= factorial(s)
    d *= prod(hook_count(p) for p in lab.parts)
    return d // _stabilizer(lab.group, lab.parts)


def _check_twist(g: GroupSpec, p: int) -> int:
    """h, after refusing a p that is not coprime to it."""
    h = invariants(g).coxeter_number
    if gcd(p, h) != 1:
        raise ValueError(f"p = {p} is not coprime to the Coxeter number h = {h}")
    return h


@lru_cache(maxsize=None)
def _exterior_twists(g: GroupSpec, slot: int) -> tuple[CharLabel, ...]:
    """The exterior-twist labels at every p with p mod m = slot, for
    k = 0..n: (n-k) in component 0 and a column 1^k in component `slot`
    (the hook (n-k, 1^k) when slot = 0, everything in component 0 when
    k = 0), in the canonical rotation for G(m,m,n), component index 0."""
    m, n = g.m, g.n
    out = []
    for k in range(n + 1):
        comps: list[Partition] = [()] * m
        if k == 0:
            comps[0] = (n,)
        elif slot == 0:
            comps[0] = tuple([n - k] + [1] * k) if n > k else (1,) * k
        else:
            if n > k:
                comps[0] = (n - k,)
            comps[slot] = (1,) * k
        out.append(CharLabel(g, _canonical(g, tuple(comps))))
    return tuple(out)


def exterior_twist_label(g: GroupSpec, k: int, p: int) -> CharLabel:
    """Label of the k-th exterior power of the p-twisted reflection
    representation: (n-k) in component 0 and a column 1^k in component
    p mod m (everything in component 0 when k = 0)."""
    if not 0 <= k <= g.n:
        raise ValueError(f"exterior power index {k} out of range 0..{g.n}")
    _check_twist(g, p)
    return _exterior_twists(g, p % g.m)[k]


def galois_twist(lab: CharLabel, p: int) -> CharLabel:
    """Move component k to component p*k mod m (the action induced by the
    field automorphism sending each Coxeter-number root of unity to its
    p-th power)."""
    _check_twist(lab.group, p)
    m = lab.group.m
    comps: list[Partition] = [()] * m
    for k, lam in enumerate(lab.parts):
        comps[(p * k) % m] = lam
    return CharLabel(lab.group, _canonical(lab.group, tuple(comps)), lab.component)


def dual_label(lab: CharLabel) -> CharLabel:
    """Label of the complex-conjugate character: component i of the dual
    is component -i mod m of the original.

    Validated against explicit matrix models (conjugating every character
    value), not derived from a printed formula; see the tableaux module
    tests.
    """
    m = lab.group.m
    parts = tuple(lab.parts[(-i) % m] for i in range(m))
    return CharLabel(lab.group, _canonical(lab.group, parts), lab.component)


def label_str(lab: CharLabel) -> str:
    body = ",".join("(" + ",".join(str(x) for x in p) + ")" for p in lab.parts)
    base = f"[{body}]"
    if lab.group.kind == KIND_GM:
        return f"{base}#{lab.component}"
    return base


def parse_label(g: GroupSpec, text: str) -> CharLabel:
    s = "".join(text.split())
    component = 0
    if "#" in s:
        s, comp = s.rsplit("#", 1)
        try:
            component = int(comp)
        except ValueError:
            raise ValueError(f"cannot parse label {text!r}") from None
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"cannot parse label {text!r}")
    comps: list[Partition] = []
    depth = 0
    cur = ""
    for ch in s[1:-1] + ",":
        if ch == "," and depth == 0:
            if not (cur.startswith("(") and cur.endswith(")")):
                raise ValueError(f"cannot parse label {text!r}")
            try:
                comps.append(tuple(int(x) for x in cur[1:-1].split(",") if x))
            except ValueError:
                raise ValueError(f"cannot parse label {text!r}") from None
            cur = ""
        else:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            cur += ch
    if cur:
        raise ValueError(f"cannot parse label {text!r}")
    return CharLabel(g, tuple(comps), component)
