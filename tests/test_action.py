import pytest

from braidalg import action
from braidalg.action import (
    AssocAction,
    LieAction,
    adjoint_action,
    induced_lie_action,
    self_action,
    semidirect_assoc,
    semidirect_lie,
    validate_assoc_action,
    validate_lie_action,
    zero_action_assoc,
    zero_action_lie,
)
from braidalg.algebra import catalog, is_associative, is_homomorphism, is_lie, liefy
from braidalg.fields import QQ
from braidalg.linear import Lin, Space, b0, identity_map, linear_from_term, zero_map

ASSOC_NAMES = ("Mat(2)", "Upper(2)", "Upper(3)")
LIE_NAMES = ("sl2", "Heis3", "gl2")


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_self_action_valid(name):
    a = self_action(catalog(name, QQ))
    assert validate_assoc_action(a).ok


@pytest.mark.parametrize("name", LIE_NAMES)
def test_adjoint_action_valid(name):
    a = adjoint_action(catalog(name, QQ))
    assert validate_lie_action(a).ok


def test_zero_actions_valid():
    m = catalog("Ab(2)", QQ)
    n = catalog("Mat(2)", QQ)
    assert validate_assoc_action(zero_action_assoc(n, m)).ok
    assert validate_lie_action(zero_action_lie(catalog("sl2", QQ), m)).ok


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_induced_lie_action_valid(name):
    a = self_action(catalog(name, QQ))
    assert validate_lie_action(induced_lie_action(a)).ok


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_semidirect_assoc_structure(name):
    a = self_action(catalog(name, QQ))
    sd = semidirect_assoc(a)
    assert is_associative(sd.algebra)
    assert is_homomorphism(sd.incl_actor, a.actor, sd.algebra)
    assert is_homomorphism(sd.proj_actor, sd.algebra, a.actor)


def test_semidirect_space_structure():
    # the M block first, each label prefixed with its block
    m, n = (Space(QQ, tuple(f"{s}{i}" for i in range(d))) for s, d in (("x", 3), ("y", 4)))
    total, incl_m, incl_n, proj_m, proj_n = action._semidirect_space(m, n)
    assert total.labels == ("m_x0", "m_x1", "m_x2", "n_y0", "n_y1", "n_y2", "n_y3")

    def composite(proj, incl):  # proj o incl
        return linear_from_term(incl.domain, proj.codomain, Lin(proj, Lin(incl, b0)))

    assert composite(proj_m, incl_m) == identity_map(m)
    assert composite(proj_n, incl_n) == identity_map(n)
    assert composite(proj_m, incl_n) == zero_map(n, m)
    assert composite(proj_n, incl_m) == zero_map(m, n)


@pytest.mark.parametrize("name", LIE_NAMES)
def test_semidirect_lie_is_lie(name):
    a = adjoint_action(catalog(name, QQ))
    assert is_lie(semidirect_lie(a).algebra)


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_liefy_commutes_with_semidirect(name):
    """liefy(M x| N) and the semidirect product of the induced Lie
    action have identical structure tensors."""
    a = self_action(catalog(name, QQ))
    left = liefy(semidirect_assoc(a).algebra)
    right = semidirect_lie(induced_lie_action(a)).algebra
    assert left.mult.tensor == right.mult.tensor


def test_action_field_order():
    """AssocAction stores the actor first; star1 is N x M -> M."""
    m = catalog("Ab(1)", QQ)
    n = catalog("Mat(2)", QQ)
    a = zero_action_assoc(n, m)
    assert a.actor is n
    assert a.module is m
    assert a.star1.left == n.space and a.star1.right == m.space
    assert a.star2.left == m.space and a.star2.right == n.space


@pytest.mark.parametrize(
    "entry,validator,a",
    [
        (semidirect_assoc, "validate_assoc_action", self_action(catalog("Mat(2)", QQ))),
        (induced_lie_action, "validate_assoc_action", self_action(catalog("Mat(2)", QQ))),
        (semidirect_lie, "validate_lie_action", adjoint_action(catalog("sl2", QQ))),
    ],
    ids=["semidirect_assoc", "induced_lie_action", "semidirect_lie"],
)
def test_named_entries_look_up_their_validator_when_they_run(entry, validator, a, monkeypatch):
    # a wrapper bound in the module, as braidbench's tracer binds one, sees
    # the entry's validation
    seen = []
    real = getattr(action, validator)
    monkeypatch.setattr(action, validator, lambda x: seen.append(x) or real(x))
    entry(a)
    assert seen == [a]
