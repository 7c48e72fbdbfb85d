import time

import pytest

from braidalg.errors import InvalidInput, UnknownFixture
from braidalg.groupx import (
    GROUP_FIXTURES,
    FiniteGroup,
    GroupXMod,
    alternating4,
    conjugation_example,
    cyclic,
    dihedral,
    group_catalog,
    klein_four,
    quaternion8,
    symmetric3,
    validate_group_braiding,
    validate_group_xmod,
)


@pytest.mark.parametrize("name", GROUP_FIXTURES)
def test_conjugation_example_fully_valid(name):
    g = group_catalog(name)
    assert g.order <= 12
    x = conjugation_example(g)
    start = time.monotonic()
    assert validate_group_xmod(x).ok
    assert validate_group_braiding(x).ok
    assert time.monotonic() - start < 1.0


def test_group_orders():
    assert cyclic(7).order == 7
    assert klein_four().order == 4
    assert dihedral(4).order == 8
    assert quaternion8().order == 8
    assert symmetric3().order == 6
    assert alternating4().order == 12


def test_commutator_convention():
    s3 = symmetric3()
    for a in range(6):
        for b in range(6):
            lhs = s3.commutator(a, b)
            rhs = s3.mul(s3.mul(s3.mul(a, b), s3.inv(a)), s3.inv(b))
            assert lhs == rhs


def test_inverse_and_identity():
    q8 = quaternion8()
    e = q8.identity
    for a in range(8):
        assert q8.mul(a, q8.inv(a)) == e
        assert q8.mul(e, a) == a


def test_abelian_detection():
    assert cyclic(6).is_abelian()
    assert klein_four().is_abelian()
    assert not symmetric3().is_abelian()
    assert not quaternion8().is_abelian()


def test_bad_tables_rejected():
    with pytest.raises(InvalidInput):
        FiniteGroup(2, ((0, 0), (0, 0)))  # no inverses for element 1
    with pytest.raises(InvalidInput):
        FiniteGroup(2, ((0, 1),))  # wrong shape
    # non-associative magma with an identity
    with pytest.raises(InvalidInput):
        FiniteGroup(
            3,
            (
                (0, 1, 2),
                (1, 2, 2),
                (2, 2, 1),
            ),
        )


def test_unknown_group_fixture():
    with pytest.raises(UnknownFixture):
        group_catalog("M11")


@pytest.mark.parametrize(
    "name", ["C\u00b2", "D\u0663"], ids=["C-superscript-2", "D-arabic-3"]
)
def test_group_catalog_sizes_take_ascii_digits_only(name):
    with pytest.raises(UnknownFixture):
        group_catalog(name)


def test_groupxmod_shape_checks():
    c2 = cyclic(2)
    with pytest.raises(InvalidInput):
        GroupXMod(c2, c2, ((0, 1),), (0, 0), None)  # action not |H| x |G|
    with pytest.raises(InvalidInput):
        GroupXMod(c2, c2, ((0, 1), (0, 1)), (0,), None)  # boundary too short


@pytest.mark.parametrize(
    "table,row,value",
    (("action", 0, 2), ("action", 2, -1), ("boundary", 0, 3), ("brace", 1, 2)),
)
def test_groupxmod_entries_must_be_element_indices(table, row, value):
    g, h = cyclic(2), cyclic(3)  # |G| = 2 and |H| = 3
    tables = {
        "action": [[0, 1], [0, 1], [0, 1]],
        "boundary": [[0, 0]],
        "brace": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    }
    tables[table][row][-1] = value

    def build():
        return GroupXMod(
            g,
            h,
            tuple(map(tuple, tables["action"])),
            tuple(tables["boundary"][0]),
            tuple(map(tuple, tables["brace"])),
        )

    with pytest.raises(InvalidInput, match=f"^{table} entries"):
        build()
    tables[table][row][-1] = 0
    build()


def test_trivial_xmod_valid():
    c3 = cyclic(3)
    trivial = tuple(tuple(range(3)) for _ in range(3))
    x = GroupXMod(c3, c3, trivial, (0, 0, 0), None)
    assert validate_group_xmod(x).ok
