from math import gcd

import pytest

from spetscat.groups import KIND_G1, Gm1n, Gmmn, invariants
from spetscat.labels import (
    CharLabel,
    all_labels,
    canonical_rotation,
    conjugate_partition,
    dimension,
    dual_label,
    exterior_twist_label,
    galois_twist,
    hook_count,
    label_str,
    m_partitions,
    parse_label,
    rotation_orbit_stabilizer,
)
from spetscat.tableaux import standard_tableaux


def test_label_counts():
    assert len(all_labels(Gm1n(2, 2))) == 5
    assert len(all_labels(Gm1n(3, 2))) == 9
    assert {l.parts for l in all_labels(Gm1n(2, 2))} == {
        ((2,), ()),
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    }


def test_orbit_labels_for_rotation_symmetric_tuples():
    labs = [l for l in all_labels(Gmmn(3, 3)) if l.parts == ((1,), (1,), (1,))]
    assert [l.component for l in labs] == [0, 1, 2]
    assert rotation_orbit_stabilizer(((1,), (1,), (1,))) == 3


def test_burnside_sum_of_squares():
    for g in (Gm1n(2, 2), Gm1n(3, 2), Gm1n(2, 3), Gm1n(4, 2),
              Gmmn(3, 2), Gmmn(2, 3), Gmmn(3, 3), Gmmn(4, 3)):
        assert sum(dimension(l) ** 2 for l in all_labels(g)) == invariants(g).order


def test_exterior_twist_labels():
    assert exterior_twist_label(Gm1n(2, 3), 1, 1).parts == ((2,), (1,))
    assert exterior_twist_label(Gm1n(3, 2), 0, 5).parts == ((2,), (), ())
    assert exterior_twist_label(Gm1n(3, 2), 1, 5).parts == ((1,), (), (1,))
    with pytest.raises(ValueError):
        exterior_twist_label(Gm1n(3, 2), 1, 3)  # 3 shares a factor with h = 6


def test_exterior_twist_dimension_is_binomial():
    g = Gm1n(2, 3)
    from math import comb

    for k in range(4):
        assert dimension(exterior_twist_label(g, k, 1)) == comb(3, k)


def test_galois_twist_action():
    lab = CharLabel(Gm1n(3, 2), ((1,), (1,), ()))
    assert galois_twist(lab, 5).parts == ((1,), (), (1,))
    triv = CharLabel(Gm1n(3, 2), ((2,), (), ()))
    assert galois_twist(triv, 5) == triv
    det_like = CharLabel(Gm1n(3, 2), ((1, 1), (), ()))
    assert galois_twist(det_like, 5) == det_like
    # composition is multiplicative in the twist parameter
    h = invariants(Gm1n(3, 2)).coxeter_number
    for p1 in (1, 5, 7):
        for p2 in (1, 5, 7):
            assert galois_twist(galois_twist(lab, p1), p2) == galois_twist(
                lab, p1 * p2
            )


def test_galois_twist_is_bijection():
    g = Gm1n(3, 2)
    labs = all_labels(g)
    for p in (5, 7, 11):
        images = {galois_twist(l, p) for l in labs}
        assert len(images) == len(labs)


def test_dual_label_involution_and_small_m_fixed_points():
    g = Gm1n(3, 2)
    for lab in all_labels(g):
        assert dual_label(dual_label(lab)) == lab
    for lab in all_labels(Gm1n(2, 3)):
        assert dual_label(lab) == lab


def test_dimension_equals_tableau_count():
    for g in (Gm1n(2, 3), Gm1n(3, 2)):
        for lab in all_labels(g):
            assert dimension(lab) == len(standard_tableaux(lab.parts))


def test_hook_count_and_conjugate():
    assert hook_count((3, 2)) == 5
    assert hook_count(()) == 1
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition(()) == ()


def test_label_string_round_trip():
    g = Gmmn(3, 3)
    for lab in all_labels(g):
        assert parse_label(g, label_str(lab)) == lab
    g1 = Gm1n(2, 2)
    for lab in all_labels(g1):
        assert parse_label(g1, label_str(lab)) == lab


@pytest.mark.parametrize(
    "text, message",
    [
        ("[(1,2),()]", "not all partitions"),
        ("[(3,0),()]", "not all partitions"),
        ("[(2),(1]", "cannot parse label '[(2),(1]'"),  # unterminated component
        ("[(a),()]", "cannot parse label '[(a),()]'"),  # not an integer
    ],
)
def test_parse_label_refuses_malformed(text, message):
    with pytest.raises(ValueError) as info:
        parse_label(Gm1n(2, 3), text)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "suffix, message",
    [
        ("#x", "cannot parse label '[(1),(1),(1)]#x'"),  # not an integer
        ("#", "cannot parse label '[(1),(1),(1)]#'"),  # no index
        ("#-1", "component index -1 out of range"),
    ],
)
def test_parse_label_refuses_a_bad_component_index(suffix, message):
    with pytest.raises(ValueError) as info:
        parse_label(Gmmn(3, 3), "[(1),(1),(1)]" + suffix)
    assert message in str(info.value)


def test_canonical_rotation_is_least():
    parts = ((), (2,), (1,))
    rep = canonical_rotation(parts)
    assert rep <= parts
    assert sorted(m_partitions(3, 3)) == sorted(set(m_partitions(3, 3)))


def test_gmmn_label_validation():
    g = Gmmn(3, 3)
    with pytest.raises(ValueError):
        CharLabel(g, ((2,), (1,), ()), 1)  # stabilizer is 1, component 1 invalid
    with pytest.raises(ValueError):
        CharLabel(g, ((1,), (2,), ()), 0)  # not the canonical rotation


@pytest.mark.parametrize(
    "g, parts, component, valid",
    [
        (Gm1n(2, 2), ((1,), (1,)), 1, False),  # G(m,1,n) labels have one component
        (Gm1n(3, 2), ((), (2,), ()), 0, True),  # and are not taken up to rotation
        (Gmmn(3, 2), ((), (2,), ()), 0, False),  # but G(m,m,n) labels are
        (Gmmn(3, 3), ((1,), (1,), (1,)), 2, True),
        (Gmmn(3, 3), ((1,), (1,), (1,)), 3, False),
        (Gm1n(2, 3), ((1, 2), ()), 0, False),  # parts must be partitions:
        (Gm1n(2, 3), ((3, 0), ()), 0, False),  # weakly decreasing, no zeros
        (Gmmn(3, 3), ((), (), (2, 1, 0)), 0, False),
    ],
)
def test_label_validation_by_kind(g, parts, component, valid):
    if valid:
        assert CharLabel(g, parts, component).component == component
    else:
        with pytest.raises(ValueError):
            CharLabel(g, parts, component)


ORDER_GROUPS = [
    Gm1n(2, 2), Gm1n(2, 3), Gm1n(3, 2), Gm1n(3, 3), Gm1n(4, 2),
    Gmmn(2, 3), Gmmn(3, 2), Gmmn(3, 3), Gmmn(4, 3), Gmmn(2, 4), Gmmn(4, 4),
]


@pytest.mark.parametrize("g", ORDER_GROUPS, ids=str)
def test_all_labels_order(g):
    """The order `chars --json` prints: sorted m-partitions for G(m,1,n);
    for G(m,m,n) the sorted least rotations, each with components 0..s-1."""
    if g.kind == KIND_G1:
        expected = [(parts, 0) for parts in sorted(m_partitions(g.m, g.n))]
    else:
        reps = sorted({canonical_rotation(p) for p in m_partitions(g.m, g.n)})
        expected = [
            (parts, j) for parts in reps for j in range(rotation_orbit_stabilizer(parts))
        ]
    assert [(lab.parts, lab.component) for lab in all_labels(g)] == expected
