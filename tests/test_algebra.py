import pytest

from braidalg.algebra import (
    ad_map,
    catalog,
    from_constants,
    is_associative,
    is_derivation,
    is_homomorphism,
    is_leibniz,
    is_lie,
    liefy,
)
from braidalg.errors import UnknownFixture
from braidalg.fields import GF, QQ
from braidalg.linear import Space, identity_map

ASSOC_NAMES = ("Ab(1)", "Ab(3)", "Mat(2)", "Mat(3)", "Upper(2)", "Upper(3)")
LIE_NAMES = ("sl2", "Heis3", "gl2")


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_catalog_associative(name):
    a = catalog(name, QQ)
    assert is_associative(a)


@pytest.mark.parametrize("name", LIE_NAMES)
def test_catalog_lie(name):
    a = catalog(name, QQ)
    assert is_lie(a)
    assert is_leibniz(a)


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_liefy_gives_lie(name):
    a = catalog(name, QQ)
    assert is_lie(liefy(a))


def test_liefy_bracket_values():
    a = catalog("Mat(2)", QQ)
    g = liefy(a)
    for i in range(a.dim):
        for j in range(a.dim):
            comm = tuple(
                QQ.sub(x, y)
                for x, y in zip(a.mult.on_basis(i, j), a.mult.on_basis(j, i))
            )
            assert g.mult.on_basis(i, j) == comm


def test_mat2_dimensions_and_unit():
    a = catalog("Mat(2)", QQ)
    assert a.dim == 4
    # e11 + e22 acts as a two-sided unit
    one = QQ.one()
    unit = (one, QQ.zero(), QQ.zero(), one)
    for i in range(4):
        bv = a.space.basis_vector(i)
        assert a.mult.apply(unit, bv) == bv
        assert a.mult.apply(bv, unit) == bv


@pytest.mark.parametrize("name", LIE_NAMES)
def test_ad_is_derivation(name):
    a = catalog(name, QQ)
    for i in range(a.dim):
        assert is_derivation(ad_map(a, a.space.basis_vector(i)), a)


def test_identity_is_homomorphism():
    a = catalog("Upper(3)", QQ)
    assert is_homomorphism(identity_map(a.space), a, a)


def test_from_constants_defaults_zero():
    sp = Space(QQ, ("a", "b"))
    alg = from_constants(sp, {("a", "a"): {"b": 1}})
    assert alg.mult.on_basis(0, 0) == sp.basis_vector(1)
    assert alg.mult.on_basis(0, 1) == sp.zero()
    assert alg.mult.on_basis(1, 1) == sp.zero()


def test_catalog_over_prime_field():
    a = catalog("Mat(2)", GF(5))
    assert is_associative(a)
    g = catalog("sl2", GF(5))
    assert is_lie(g)


def test_unknown_fixture_raises():
    with pytest.raises(UnknownFixture):
        catalog("Oct(8)", QQ)


def test_catalog_sizes_take_ascii_digits_only():
    # `\d` also matches other scripts' digits, such as Arabic-Indic three
    with pytest.raises(UnknownFixture):
        catalog("Mat(\u0663)", QQ)


def test_flavor_checks_discriminate():
    assert not is_associative(catalog("sl2", QQ))
    assert not is_lie(catalog("Mat(2)", QQ))
