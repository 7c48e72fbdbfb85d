import pytest

from braidalg.action import zero_action_assoc, zero_action_lie
from braidalg.algebra import catalog, liefy
from braidalg.errors import InvalidXMod
from braidalg.fields import QQ
from braidalg.linear import identity_map, zero_map
from braidalg.xmod import (
    XMod,
    XModMorphism,
    identity_xmod_assoc,
    identity_xmod_lie,
    require_valid_xmod_assoc,
    require_valid_xmod_lie,
    validate_xmod_assoc,
    validate_xmod_lie,
    validate_xmod_morphism,
    xmod_liefy,
)

ASSOC_NAMES = ("Mat(2)", "Mat(3)", "Upper(3)")
LIE_NAMES = ("sl2", "Heis3", "gl2")


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_identity_xmod_assoc_valid(name):
    x = identity_xmod_assoc(catalog(name, QQ))
    assert validate_xmod_assoc(x).ok


@pytest.mark.parametrize("name", LIE_NAMES)
def test_identity_xmod_lie_valid(name):
    x = identity_xmod_lie(catalog(name, QQ))
    assert validate_xmod_lie(x).ok


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_xmod_liefy_matches_identity_construction(name):
    """Lie-fication of the identity crossed module equals the identity
    crossed module of the Lie-fied algebra, tensor for tensor."""
    a = catalog(name, QQ)
    left = xmod_liefy(identity_xmod_assoc(a))
    right = identity_xmod_lie(liefy(a))
    assert left.boundary.columns == right.boundary.columns
    assert left.action.dot.tensor == right.action.dot.tensor
    assert left.m.mult.tensor == right.m.mult.tensor
    assert left.n.mult.tensor == right.n.mult.tensor


def test_zero_boundary_abelian_module_valid():
    m = catalog("Ab(2)", QQ)
    n = catalog("Mat(2)", QQ)
    x = XMod(zero_action_assoc(n, m), zero_map(m.space, n.space))
    assert validate_xmod_assoc(x).ok
    g = catalog("sl2", QQ)
    xl = XMod(zero_action_lie(g, m), zero_map(m.space, g.space))
    assert validate_xmod_lie(xl).ok


def test_require_valid_raises_on_bad_xmod():
    m = catalog("Mat(2)", QQ)  # non-commutative, zero action breaks Peiffer
    n = catalog("Ab(1)", QQ)
    x = XMod(zero_action_assoc(n, m), zero_map(m.space, n.space))
    with pytest.raises(InvalidXMod):
        require_valid_xmod_assoc(x)
    g = catalog("Heis3", QQ)
    xl = XMod(zero_action_lie(n, g), zero_map(g.space, n.space))
    with pytest.raises(InvalidXMod):
        require_valid_xmod_lie(xl)


def test_identity_morphism_validates():
    x = identity_xmod_assoc(catalog("Mat(2)", QQ))
    phi = XModMorphism(identity_map(x.m.space), identity_map(x.n.space))
    assert validate_xmod_morphism(phi, x, x).ok


def test_non_commuting_morphism_fails():
    x = identity_xmod_assoc(catalog("Mat(2)", QQ))
    phi = XModMorphism(zero_map(x.m.space, x.m.space), identity_map(x.n.space))
    rep = validate_xmod_morphism(phi, x, x)
    assert not rep.ok
