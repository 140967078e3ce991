import pytest

from spetscat.groups import Gm1n, Gmmn
from spetscat.labels import CharLabel, all_labels, label_str
from spetscat.symbols import (
    MSymbol,
    families,
    label_of_symbol,
    raw_defect,
    rotate_symbol,
    rotation_stabilizer,
    shift,
    shift_to_content,
    symbol_defect,
    symbol_of,
    symbol_rank,
    symbol_stats,
    symbol_str,
    symbols_with_entries,
)


def test_symbol_of_examples():
    triv = CharLabel(Gm1n(2, 2), ((2,), ()))
    assert symbol_of(triv).rows == ((2,), ())
    lab = CharLabel(Gm1n(2, 3), ((2,), (1,)))
    assert symbol_of(lab).rows == ((0, 3), (1,))


def test_symbol_validation():
    with pytest.raises(ValueError):
        MSymbol(((1, 1), ()))
    with pytest.raises(ValueError):
        MSymbol(((-1,),))


def test_stats_and_parity_guards():
    s = MSymbol(((2,), ()))
    assert symbol_stats(s, "content1") == (2, 1, 0)
    with pytest.raises(ValueError):
        symbol_stats(s, "content0")
    zero_rows = MSymbol(((0,), (0,), (0,)))
    assert symbol_stats(zero_rows, "content0") == (0, 3, 0)


def test_all_label_symbols_reduced_rank_n():
    for g in (Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3), Gm1n(4, 2),
              Gmmn(3, 2), Gmmn(2, 3), Gmmn(3, 3), Gmmn(4, 3)):
        kind = "content1" if g.kind == "Gm1n" else "content0"
        for lab in all_labels(g):
            s = symbol_of(lab)
            rank, content, defect = symbol_stats(s, kind)
            assert rank == g.n
            assert defect == 0
            if g.kind == "Gm1n":
                assert content % g.m == 1 % g.m
            else:
                assert content % g.m == 0


def test_shift_preserves_rank_and_defect():
    for g in (Gm1n(3, 2), Gmmn(3, 3)):
        kind = "content1" if g.kind == "Gm1n" else "content0"
        for lab in all_labels(g):
            s = symbol_of(lab)
            for _ in range(3):
                s = shift(s)
                rank, _, defect = symbol_stats(s, kind)
                assert rank == g.n and defect == 0


def test_rotation_preserves_raw_defect_mod_m():
    for lab in all_labels(Gmmn(3, 3)):
        s = symbol_of(lab)
        m = len(s.rows)
        for _ in range(m):
            s = rotate_symbol(s)
            assert raw_defect(s) % m == 0


def test_symbol_label_round_trip():
    for g in (Gm1n(2, 3), Gm1n(3, 2), Gmmn(3, 3), Gmmn(4, 3)):
        for lab in all_labels(g):
            assert label_of_symbol(g, symbol_of(lab)) == lab.parts


def test_rotation_stabilizer_values():
    s3 = symbol_of(CharLabel(Gmmn(3, 3), ((1,), (1,), (1,)), 0))
    assert rotation_stabilizer(s3) == 3
    unequal = symbol_of(CharLabel(Gm1n(2, 2), ((1,), (1,))))
    assert rotation_stabilizer(unequal) == 1


def test_families_of_b2():
    fams = families(Gm1n(2, 2))
    assert sorted(len(f.members) for f in fams) == [1, 1, 3]
    triv = CharLabel(Gm1n(2, 2), ((2,), ()))
    assert any(f.members == (triv,) for f in fams)


def test_families_partition_and_rotation_singletons():
    for g in (Gm1n(3, 2), Gmmn(3, 3), Gmmn(4, 3)):
        fams = families(g)
        seen = [lab for f in fams for lab in f.members]
        assert sorted(seen, key=str) == sorted(all_labels(g), key=str)
    fams333 = families(Gmmn(3, 3))
    singles = [
        f
        for f in fams333
        if len(f.members) == 1
        and rotation_stabilizer(symbol_of(f.members[0])) == 3
    ]
    assert len(singles) == 3


def test_family_grouping_invariant_under_common_content():
    """Grouping by entry multiset does not depend on how far the symbols
    are shifted before comparison."""
    g = Gm1n(2, 3)
    labs = all_labels(g)
    syms = {lab: symbol_of(lab) for lab in labs}
    base = max(s.content for s in syms.values())
    for extra in (0, g.m, 2 * g.m):
        target = base + extra
        grouping = {}
        for lab in labs:
            key = shift_to_content(syms[lab], target).entries()
            grouping.setdefault(key, set()).add(lab)
        expected = {frozenset(f.members) for f in families(g)}
        assert {frozenset(v) for v in grouping.values()} == expected


def test_trivial_family_certified_against_all_symbols():
    """At the trivial character's content there is exactly one symbol
    with its entry multiset, so its family is a genuine singleton even
    inside the full unipotent set."""
    for g in (Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3)):
        triv = CharLabel(g, ((g.n,),) + ((),) * (g.m - 1))
        s = symbol_of(triv)
        cands = symbols_with_entries(g.m, s.entries(), "content1")
        ranked = [c for c in cands if symbol_rank(c) == g.n]
        assert ranked == [s]


def test_nonprincipal_symbols_complete_the_b2_middle_family():
    refl = CharLabel(Gm1n(2, 2), ((1,), (1,)))
    s = symbol_of(refl)
    cands = symbols_with_entries(2, s.entries(), "content1")
    ranked = [c for c in cands if symbol_rank(c) == 2]
    principal = [c for c in ranked if label_of_symbol(Gm1n(2, 2), c) is not None]
    assert len(ranked) == 4 and len(principal) == 3


def test_symbol_text_form():
    assert symbol_str(MSymbol(((0, 3), (1,)))) == "0,3;1"
    assert symbol_str(MSymbol(((2,), ()))) == "2;"


@pytest.mark.parametrize(
    "g",
    [Gm1n(2, 2), Gm1n(2, 3), Gm1n(3, 2), Gm1n(3, 3), Gm1n(4, 2), Gm1n(2, 4), Gm1n(4, 3)],
    ids=str,
)
def test_gm1n_families_group_by_entry_multiset(g):
    """On G(m,1,n) no rotation fixes a symbol, so the families are the
    labels grouped by the entries of their symbols at the largest content,
    in label order within a family and sorted by member names."""
    labs = all_labels(g)
    target = max(symbol_of(lab).content for lab in labs)
    grouped = {}
    for lab in labs:
        key = shift_to_content(symbol_of(lab), target).entries()
        grouped.setdefault(key, []).append(lab)
    expected = sorted(
        (tuple(members) for members in grouped.values()),
        key=lambda members: sorted(str(lab) for lab in members),
    )
    assert [fam.members for fam in families(g)] == expected


# Families holding a G(m,m,n) label whose symbol stabilizer s lies
# strictly between 1 and m.  Such a symbol is not rotation-invariant, so
# it is grouped with the symbols sharing its entry multiset, the
# non-degenerate ones (s = 1) among them.
INTERMEDIATE_STABILIZER_FAMILIES = {
    Gmmn(4, 2): [["[(),(),(1),(1)]#0", "[(),(1),(),(1)]#0", "[(),(1),(),(1)]#1"]],
    Gmmn(4, 4): [
        ["[(),(),(1,1),(1,1)]#0", "[(),(1,1),(),(1,1)]#0", "[(),(1,1),(),(1,1)]#1"],
        ["[(),(),(2),(2)]#0", "[(),(2),(),(2)]#0", "[(),(2),(),(2)]#1"],
    ],
    Gmmn(6, 2): [
        [
            "[(),(),(),(),(1),(1)]#0",
            "[(),(),(),(1),(),(1)]#0",
            "[(),(),(1),(),(),(1)]#0",
            "[(),(),(1),(),(),(1)]#1",
        ]
    ],
    Gmmn(6, 3): [
        [
            "[(),(),(),(1),(1),(1)]#0",
            "[(),(),(1),(),(1),(1)]#0",
            "[(),(),(1),(1),(),(1)]#0",
            "[(),(1),(),(1),(),(1)]#0",
            "[(),(1),(),(1),(),(1)]#1",
            "[(),(1),(),(1),(),(1)]#2",
        ]
    ],
}


@pytest.mark.parametrize("g", list(INTERMEDIATE_STABILIZER_FAMILIES), ids=str)
def test_gmmn_families_of_intermediate_stabilizers(g):
    fams = [
        [label_str(lab) for lab in fam.members]
        for fam in families(g)
        if any(1 < rotation_stabilizer(symbol_of(lab)) < g.m for lab in fam.members)
    ]
    assert fams == INTERMEDIATE_STABILIZER_FAMILIES[g]
