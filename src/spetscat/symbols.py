"""m-symbols: construction from character labels, statistics, equivalence,
and the family partition for both infinite families.

An m-symbol is an m-tuple of strictly increasing sequences of
non-negative integers.  Its content is the total number of entries; its
rank and defect are given by the formulas below.  Labels of G(m,1,n) map
to reduced symbols of content 1 mod m and defect 0; labels of G(m,m,n)
map to symbols with all rows the same length (content 0 mod m, defect 0),
taken up to cyclic rotation of the rows and simultaneous shift

    (s_1, ..., s_M)  ->  (0, s_1 + 1, ..., s_M + 1)   (every row at once).

A symbol's content class is its content mod m, read from the symbol
itself: the defect formula (`raw_defect`) branches on it and refuses a
content that is neither 0 nor 1 mod m.

The group kind enters only as the content offset (`_content_offset`):
how many entries row 0 of a principal symbol has beyond the other rows,
1 for G(m,1,n) and 0 for G(m,m,n).  Rotations come from the labels
module.

Families group labels whose symbol entries coincide as multisets after
normalizing to a common content; rotation-invariant symbols split into
singleton families instead (only G(m,m,n) has any).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groups import KIND_A, KIND_G1, GroupSpec
from .labels import CharLabel, all_labels, rotation_orbit_stabilizer

__all__ = [
    "MSymbol",
    "Family",
    "symbol_of",
    "symbol_stats",
    "symbol_rank",
    "symbol_defect",
    "raw_defect",
    "shift",
    "shift_to_content",
    "rotation_stabilizer",
    "rotate_symbol",
    "label_of_symbol",
    "families",
    "family_of",
    "symbol_str",
    "symbols_with_entries",
]


@dataclass(frozen=True)
class MSymbol:
    """An m-symbol: m rows, each a strictly increasing tuple of
    non-negative integers (checked on construction)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if any(a < 0 for a in row) or any(
                a >= b for a, b in zip(row, row[1:])
            ):
                raise ValueError(f"rows must be strictly increasing and >= 0: {row}")

    @property
    def content(self) -> int:
        return sum(len(r) for r in self.rows)

    def entries(self) -> tuple[int, ...]:
        return tuple(sorted(x for r in self.rows for x in r))

    def __str__(self):
        return symbol_str(self)


def symbol_str(s: MSymbol) -> str:
    return ";".join(",".join(str(x) for x in row) for row in s.rows)


def symbol_rank(s: MSymbol) -> int:
    i = s.content
    m = len(s.rows)
    total = sum(x for row in s.rows for x in row)
    return total - (i - 1) * (i - m + 1) // (2 * m)


def raw_defect(s: MSymbol) -> int:
    """The defect before reduction mod m (used by the sign rules).

    For content 1 mod m this is (m-1)(I-1)/2 - sum(i * len(row_i));
    for content 0 mod m it is (m-1)I/2 - sum(i * len(row_i)).
    """
    m = len(s.rows)
    i = s.content
    weighted = sum(idx * len(row) for idx, row in enumerate(s.rows))
    if i % m == 1 % m:
        return (m - 1) * (i - 1) // 2 - weighted
    if i % m == 0:
        return (m - 1) * i // 2 - weighted
    raise ValueError(f"content {i} is neither 0 nor 1 mod {m}")


def symbol_defect(s: MSymbol) -> int:
    return raw_defect(s) % len(s.rows)


def symbol_stats(s: MSymbol) -> tuple[int, int, int]:
    """(rank, content, defect); the defect refuses a content that is
    neither 0 nor 1 mod m."""
    return symbol_rank(s), s.content, symbol_defect(s)


def shift(s: MSymbol) -> MSymbol:
    return MSymbol(tuple((0,) + tuple(x + 1 for x in row) for row in s.rows))


def shift_to_content(s: MSymbol, content: int) -> MSymbol:
    m = len(s.rows)
    if (content - s.content) % m:
        raise ValueError(f"cannot shift content {s.content} to {content}")
    out = s
    while out.content < content:
        out = shift(out)
    if out.content != content:
        raise ValueError(f"symbol content {s.content} exceeds target {content}")
    return out


def rotate_symbol(s: MSymbol) -> MSymbol:
    return MSymbol((s.rows[-1],) + s.rows[:-1])


def rotation_stabilizer(s: MSymbol) -> int:
    """s(S): the number of cyclic rotations fixing the symbol."""
    return rotation_orbit_stabilizer(s.rows)


def _content_offset(g: GroupSpec) -> int:
    """How many entries row 0 of a principal symbol has beyond the other
    rows: 1 for G(m,1,n) (content 1 mod m), 0 for G(m,m,n) (content 0)."""
    return 1 if g.kind == KIND_G1 else 0


def _beta_row(parts: tuple[int, ...], length: int) -> tuple[int, ...]:
    padded = [0] * (length - len(parts)) + sorted(parts)
    return tuple(a + j for j, a in enumerate(padded))


def symbol_of(lab: CharLabel) -> MSymbol:
    """The reduced symbol attached to a label.

    G(m,1,n): row 0 has M+1 entries and rows 1..m-1 have M entries with M
    minimal; the result has defect 0 and rank n.  G(m,m,n): all rows have
    the same minimal length M >= 1; content 0 mod m, defect 0, rank n.
    """
    g = lab.group
    if g.kind == KIND_A:
        raise ValueError("type A mode has no symbols")
    parts = lab.parts
    off = _content_offset(g)
    m_len = max([len(parts[0]) - off] + [len(p) for p in parts[1:]] + [1 - off])
    rows = [_beta_row(parts[0], m_len + off)]
    rows += [_beta_row(p, m_len) for p in parts[1:]]
    return MSymbol(tuple(rows))


def label_of_symbol(g: GroupSpec, s: MSymbol) -> tuple[tuple[int, ...], ...] | None:
    """Invert symbol_of on principal-shape symbols; None otherwise.

    A symbol is principal for G(m,1,n) when row 0 is one entry longer
    than the others, and for G(m,m,n) when all rows have equal length.
    The returned tuple is the m-partition (not rotated to canonical form).
    """
    if g.kind == KIND_A:
        return None
    lengths = [len(r) for r in s.rows]
    off = _content_offset(g)
    if not lengths or any(L != lengths[0] - off for L in lengths[1:]):
        return None
    comps = []
    for row in s.rows:
        alpha = [x - j for j, x in enumerate(row)]
        if any(a < 0 for a in alpha):
            return None
        comps.append(tuple(sorted((a for a in alpha if a), reverse=True)))
    return tuple(comps)


@dataclass(frozen=True)
class Family:
    """A block of labels sharing their symbol-entry multiset (and hence
    their a and A invariants)."""

    members: tuple[CharLabel, ...]


def _family_sort_key(fam: Family):
    from .labels import label_str

    return tuple(sorted(label_str(lab) for lab in fam.members))


@lru_cache(maxsize=None)
def families(g: GroupSpec) -> tuple[Family, ...]:
    """Partition of the labels into families.

    Every component label of a rotation-invariant symbol is its own
    singleton family.  The rest are grouped by the entry multiset after
    shifting every symbol to the largest content in play (the grouping
    does not depend on the common content chosen).  A G(m,1,n) symbol has
    a longer row 0, so no rotation fixes it and only the grouping applies.
    """
    orbit_members: dict[tuple, list[CharLabel]] = {}
    for lab in all_labels(g):
        orbit_members.setdefault(lab.parts, []).append(lab)
    orbit_syms = {
        parts: symbol_of(members[0]) for parts, members in orbit_members.items()
    }
    target = max(s.content for s in orbit_syms.values())
    out: list[Family] = []
    grouped: dict[tuple[int, ...], list[CharLabel]] = {}
    for parts, members in orbit_members.items():
        s = orbit_syms[parts]
        if rotation_stabilizer(s) == len(s.rows):
            out.extend(Family((lab,)) for lab in members)
        else:
            key = shift_to_content(s, target).entries()
            grouped.setdefault(key, []).extend(members)
    out.extend(Family(tuple(members)) for members in grouped.values())
    return tuple(sorted(out, key=_family_sort_key))


def family_of(g: GroupSpec, lab: CharLabel) -> Family:
    for fam in families(g):
        if lab in fam.members:
            return fam
    raise KeyError(f"label {lab} not found in the families of {g}")


def symbols_with_entries(m: int, entries: tuple[int, ...]) -> tuple[MSymbol, ...]:
    """All m-symbols with the given entry multiset, any row profile, whose
    defect vanishes; the number of entries must be 0 or 1 mod m.

    Used to certify family enumerations (e.g. that a family contains no
    unexpected non-principal symbol).  Entries equal in value must land in
    different rows, so rows are built by assigning each entry a row index
    with no duplicate value in a row.
    """
    entries = tuple(sorted(entries))
    i_total = len(entries)
    if i_total % m not in (0, 1 % m):
        raise ValueError(f"content {i_total} is neither 0 nor 1 mod {m}")
    found: set[tuple[tuple[int, ...], ...]] = set()

    def assign(idx: int, rows: tuple[tuple[int, ...], ...]):
        if idx == i_total:
            found.add(rows)
            return
        val = entries[idx]
        for r in range(m):
            if rows[r] and rows[r][-1] == val:
                continue
            new = tuple(
                row + (val,) if j == r else row for j, row in enumerate(rows)
            )
            assign(idx + 1, new)

    assign(0, tuple(() for _ in range(m)))
    out = []
    for rows in sorted(found):
        s = MSymbol(rows)
        if symbol_defect(s) == 0:
            out.append(s)
    return tuple(out)
