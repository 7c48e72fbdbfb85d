"""Value semantics of `Record`, the base class of every braidalg data type."""

from __future__ import annotations

import copy
import pickle

import pytest

from braidalg.action import AssocAction, LieAction, zero_action_assoc, zero_action_lie
from braidalg.algebra import ASSOC, LIE, catalog
from braidalg.fields import QQ, Field
from braidalg.groupx import FiniteGroup, GroupXMod, conjugation_example, cyclic
from braidalg.linear import Space, Subspace
from braidalg.record import Record
from braidalg.report import AxiomCheck, Witness

from conftest import sparse


class Pair(Record):
    first: int
    second: int = 0


class OtherPair(Record):
    first: int
    second: int = 0


class TaggedPair(Record):
    first: int
    tag = "pair"  # a class constant between the fields
    second: int = 0


def test_equal_fields_make_equal_records_with_equal_hashes():
    a, b = Space(QQ, ("x", "y")), Space(Field(0), ("x", "y"))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != Space(QQ, ("y", "x"))
    w = Witness((0, 1), (1,), (2,))
    assert w == Witness((0, 1), (1,), (2,))
    assert len({w, Witness((0, 1), (1,), (2,)), Witness((1, 0), (1,), (2,))}) == 2


def test_records_of_different_classes_are_never_equal():
    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != OtherPair(1, 2)
    assert OtherPair(1, 2) != Pair(1, 2)
    assert Pair(1, 2) != (1, 2)


def test_assignment_and_deletion_raise():
    sp = Space(QQ, ("x",))
    with pytest.raises(AttributeError):
        sp.labels = ("y",)
    with pytest.raises(AttributeError):
        del sp.labels
    with pytest.raises(AttributeError):
        sp.extra = 1
    assert sp.labels == ("x",)


def test_defaults():
    assert Field() == QQ and Field().is_rationals
    assert AxiomCheck("AAs1", True).witness is None
    assert Pair(1) == Pair(1, 0)
    x = conjugation_example(cyclic(3))
    assert GroupXMod(x.g, x.h, x.action, x.boundary).brace is None


def test_wrong_argument_counts_raise_type_error():
    with pytest.raises(TypeError):
        Space(QQ)
    with pytest.raises(TypeError):
        AxiomCheck("AAs1")
    with pytest.raises(TypeError):
        AxiomCheck("AAs1", True, None, None)


def test_a_default_must_not_precede_a_required_field():
    with pytest.raises(KeyError, match="second"):

        class Bad(Record):
            first: int = 0
            second: int


def test_post_init_checks_run():
    with pytest.raises(ValueError, match="duplicate basis labels"):
        Space(QQ, ("x", "x"))


def test_derived_slots_take_no_part_in_equality():
    g = cyclic(4)
    assert (g.identity, g.inverse) == (0, (0, 3, 2, 1))
    assert g == FiniteGroup(g.order, g.table)
    sp = Space(QQ, ("x", "y", "z"))
    used = Subspace.span(sp, [sparse((1, 2, 3))])
    assert used.pivots() == (0,)
    fresh = Subspace.span(sp, [sparse((1, 2, 3))])
    assert used == fresh and hash(used) == hash(fresh)


def test_copy_and_pickle_keep_the_value():
    sp = Space(QQ, ("x", "y"))
    for value in (Subspace.span(sp, [sparse((0, 1))]), cyclic(3), Field(5)):
        for again in (copy.copy(value), copy.deepcopy(value)):
            assert again == value
        assert pickle.loads(pickle.dumps(value)) == value
    assert pickle.loads(pickle.dumps(cyclic(3))).inverse == (0, 2, 1)


def test_repr_names_the_fields():
    assert repr(Field(5)) == "Field(characteristic=5)"
    assert repr(Pair(1)) == "Pair(first=1, second=0)"


def test_a_class_constant_is_not_a_field():
    # a class constant, such as an action's flavor, is read from the class:
    # it is no field, so no part of the repr, equality, hashing or arity
    assert TaggedPair._fields == ("first", "second")
    assert TaggedPair(1).tag == "pair"
    assert repr(TaggedPair(1)) == "TaggedPair(first=1, second=0)"
    assert TaggedPair(1) == TaggedPair(1, 0) and hash(TaggedPair(1)) == hash((1, 0))
    with pytest.raises(TypeError):
        TaggedPair(1, 0, "pair")
    n = catalog("Ab(1)", QQ)
    a, b = zero_action_assoc(n, n), zero_action_lie(n, n)
    assert (AssocAction.flavor, LieAction.flavor) == (a.flavor, b.flavor) == (ASSOC, LIE)
    assert AssocAction._fields == ("actor", "module", "star1", "star2")
    assert LieAction._fields == ("actor", "module", "dot")
    assert "flavor" not in repr(a) + repr(b)
    assert a == AssocAction(n, n, a.star1, a.star2)
    assert hash(a) == hash((n, n, a.star1, a.star2)) and hash(b) == hash((n, n, b.dot))
    with pytest.raises(TypeError):
        AssocAction(n, n, a.star1, a.star2, ASSOC)
    with pytest.raises(TypeError):
        LieAction(n, n, b.dot, LIE)
    with pytest.raises(AttributeError):
        a.flavor = LIE
