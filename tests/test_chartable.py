import pytest

from spetscat.exactnum import cyclo, cyclo_rational
from spetscat.chartable import (
    FiniteGroup,
    character_table,
    cyclic_group_table,
    direct_product_table,
    symmetric_group_table,
)


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup(((0, 0), (1, 1)))


def test_cyclic_two():
    classes, chars = character_table(FiniteGroup(cyclic_group_table(2)))
    assert len(classes) == 2 and len(chars) == 2
    values = sorted(tuple(str(v) for v in ch) for ch in chars)
    assert values == [("1", "-1"), ("1", "1")]


def test_cyclic_three_has_primitive_root_values():
    _, chars = character_table(FiniteGroup(cyclic_group_table(3)))
    z = cyclo(3, 1)
    second_values = {str(ch[1]) for ch in chars}
    assert second_values == {"1", str(z), str(z * z)}


def test_symmetric_three():
    group = FiniteGroup(symmetric_group_table(3))
    classes, chars = character_table(group)
    # identity class first, then by class size
    assert [len(c) for c in classes] == [1, 2, 3]
    degrees = sorted(int(ch[0].as_fraction()) for ch in chars)
    assert degrees == [1, 1, 2]


def test_symmetric_four_degrees():
    classes, chars = character_table(FiniteGroup(symmetric_group_table(4)))
    ident = 0
    degrees = sorted(int(ch[ident].as_fraction()) for ch in chars)
    assert degrees == [1, 1, 2, 3, 3]


@pytest.mark.parametrize(
    "table",
    [
        cyclic_group_table(6),
        symmetric_group_table(4),
        direct_product_table(cyclic_group_table(2), symmetric_group_table(3)),
    ],
    ids=["Z6", "S4", "Z2xS3"],
)
def test_group_laws(table):
    group = FiniteGroup(table)
    e = group.identity
    assert all(group.mul(e, i) == i == group.mul(i, e) for i in range(group.order))
    for i in range(group.order):
        inv = group.inverse(i)
        assert group.mul(i, inv) == e == group.mul(inv, i), i
        assert group.inverse(inv) == i, i


@pytest.mark.parametrize(
    "table",
    [
        cyclic_group_table(2),
        cyclic_group_table(3),
        cyclic_group_table(6),
        symmetric_group_table(3),
        direct_product_table(cyclic_group_table(2), cyclic_group_table(2)),
    ],
    ids=["Z2", "Z3", "Z6", "S3", "Z2xZ2"],
)
def test_orthogonality_relations(table):
    group = FiniteGroup(table)
    classes, chars = character_table(group)
    sizes = [len(c) for c in classes]
    order = group.order
    for a in chars:
        for b in chars:
            total = cyclo_rational(0)
            for t in range(len(classes)):
                total = total + a[t] * b[t].conjugate() * sizes[t]
            assert total == (order if a is b else 0)


def test_centralizer_and_subgroup():
    group = FiniteGroup(symmetric_group_table(3))
    classes = group.conjugacy_classes()
    transposition = next(c for c in classes if len(c) == 3)[0]
    cent = group.centralizer(transposition)
    assert len(cent) == 2
    sub, index = group.subgroup(cent)
    assert sub.order == 2
    assert index[group.identity] == sub.identity
