import os

import pytest

from braidalg.algebra import catalog
from braidalg.braid import (
    _bar,
    alpha_iso,
    anticoherence_laws,
    beta_iso,
    braiding_cat_assoc_laws,
    braiding_cat_lie_alt_laws,
    braiding_cat_lie_ulualan_laws,
    braiding_system,
    braiding_xmod_assoc_laws,
    braiding_xmod_lie_laws,
    bracket_braiding,
    cat_braiding_liefy,
    check_anticoherence,
    commutator_braiding,
    cx_functor,
    validate_braided_internal_functor,
    validate_braided_xmod_morphism,
    validate_braiding_cat_assoc,
    validate_braiding_cat_lie_alt,
    validate_braiding_cat_lie_ulualan,
    validate_braiding_xmod_assoc,
    validate_braiding_xmod_lie,
    with_braiding,
    xc_functor,
    xmod_braiding_liefy,
)
from braidalg.dsl import parse
from braidalg.errors import CharTwo
from braidalg.fields import GF, QQ
from braidalg.icat import LIE, require_valid_cat
from braidalg.linear import affine_solutions, vadd
from braidalg.natensor import tensor_square, tensor_xmod
from braidalg.report import merge, sweep
from braidalg.xmod import identity_xmod_assoc, identity_xmod_lie

from conftest import FIXTURES, MUTATIONS, load_script

ASSOC_NAMES = ("Mat(2)", "Mat(3)", "Upper(3)")
LIE_NAMES = ("sl2", "Heis3", "gl2")


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_commutator_braiding_passes(name):
    rep = validate_braiding_xmod_assoc(commutator_braiding(catalog(name, QQ)))
    assert rep.ok
    assert {e.tag for e in rep.entries} >= {f"BAs{i}" for i in range(1, 7)}


@pytest.mark.parametrize("name", LIE_NAMES)
def test_bracket_braiding_passes(name):
    rep = validate_braiding_xmod_lie(bracket_braiding(catalog(name, QQ)))
    assert rep.ok
    assert {e.tag for e in rep.entries} >= {f"BLie{i}" for i in range(1, 7)}


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_bar_construction_validates(name):
    cb = cx_functor(commutator_braiding(catalog(name, QQ)))
    assert validate_braiding_cat_assoc(cb).ok


@pytest.mark.parametrize(
    "kind,name",
    [("identity", n) for n in LIE_NAMES] + [("tensor", "sl2"), ("tensor", "Heis3")],
)
def test_lie_bar_is_a_categorical_lie_algebra(kind, name):
    a = catalog(name, QQ)
    x = identity_xmod_lie(a) if kind == "identity" else tensor_xmod(tensor_square(a))
    cat, _ = _bar(x)
    assert cat.flavor == LIE
    require_valid_cat(cat)


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_alpha_iso_is_braided_isomorphism(name):
    b = commutator_braiding(catalog(name, QQ))
    target = xc_functor(cx_functor(b))
    phi = alpha_iso(b)
    assert validate_braided_xmod_morphism(phi, b, target).ok


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_beta_iso_is_braided_functor(name):
    cb = cx_functor(commutator_braiding(catalog(name, QQ)))
    target = cx_functor(xc_functor(cb))
    f1, f0 = beta_iso(cb)
    assert validate_braided_internal_functor(f1, f0, cb, target).ok


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_xmod_braiding_liefy_passes(name):
    b = commutator_braiding(catalog(name, QQ))
    assert validate_braiding_xmod_lie(xmod_braiding_liefy(b)).ok


@pytest.mark.parametrize("name", ASSOC_NAMES)
def test_cat_braiding_liefy_passes_both_validators(name):
    cb = cx_functor(commutator_braiding(catalog(name, QQ)))
    lie_cb = cat_braiding_liefy(cb)
    assert validate_braiding_cat_lie_ulualan(lie_cb).ok
    assert validate_braiding_cat_lie_alt(lie_cb).ok
    assert check_anticoherence(lie_cb).ok


@pytest.mark.parametrize("field", (QQ, GF(5)))
@pytest.mark.parametrize("name", ("Mat(2)", "Upper(3)"))
def test_validators_agree_away_from_char_two(name, field):
    """On every Lie categorical braiding fixture passing LieT1-2, the
    two axiom lists give the same verdict and anticoherence holds."""
    cb = cx_functor(commutator_braiding(catalog(name, field)))
    lie_cb = cat_braiding_liefy(cb)
    ul = validate_braiding_cat_lie_ulualan(lie_cb)
    alt = validate_braiding_cat_lie_alt(lie_cb)
    t12 = all(e.ok for e in ul.entries if e.tag in ("LieT1", "LieT2"))
    assert t12
    assert ul.ok == alt.ok
    assert check_anticoherence(lie_cb).ok


def test_f2_search_finds_no_disagreement():
    # every tau on the discrete Lie algebras of dimension 1 and 2 over F2
    candidates, disagreements = load_script("f2_braiding_search").search()
    assert candidates == 5
    assert disagreements == []


# (LieT1-2, ulualan, alt) space dimensions of the solver's Lie bars, and
# the (ulualan, alt) failing tags of the points where the lists disagree
_BAR_GAPS = {
    GF(2): {
        "solv": ([4, 4, 3], {((), ("LieT3", "LieT4"))}),
        "heisdot": (
            [9, 1, 6],
            {(("LieB3",), ()), (("LieB4",), ()), (("LieB3", "LieB4"), ())},
        ),
        "heisT": ([20, 20, 20], set()),
    },
}
# away from characteristic 2 no braiding at all lies on two of them
for _field in (QQ, GF(3)):
    _BAR_GAPS[_field] = {
        "solv": ([None] * 3, set()),
        "heisdot": ([None] * 3, set()),
        "heisT": ([20, 20, 20], set()),
    }


@pytest.mark.parametrize("field", list(_BAR_GAPS), ids=str)
def test_lie_lists_on_bars_that_are_not_discrete(field):
    # the exact spaces of tau on each bar, and every disagreement found
    # between the validators at their particular points and basis steps
    compare = load_script("f2_braiding_search").compare
    bars = dict(load_script("find_isolating_mutations").lie_degenerate_bars(field))
    for name, (dims, gaps) in _BAR_GAPS[field].items():
        found, disagreements = compare(bars[name])
        assert found == dims, name
        assert {(tuple(ul), tuple(alt)) for _, ul, alt in disagreements} == gaps, name


def _space(b, laws):
    """The braidings on `b.base` passing every law of `laws`, as
    `affine_solutions` gives them."""
    system = braiding_system(b, laws).values()
    rows = [row for r, _ in system for row in r]
    const = [c for _, cs in system for c in cs]
    t = b.tau if hasattr(b, "tau") else b.brace
    return affine_solutions(t.field, rows, const, t.left.dim * t.right.dim * t.codomain.dim)


@pytest.mark.parametrize("field", (QQ, GF(5)), ids=str)
def test_cx_maps_whole_braiding_spaces(field):
    # cx maps the braidings on x one to one onto those on its bar, so the
    # two spaces are both empty or of equal dimension; cx is affine in the
    # braiding, so the particular point and each basis step cover the space
    solver = load_script("find_isolating_mutations")
    bases = list(solver.degenerate_xmods(field))
    bases += [(n, identity_xmod_assoc(catalog(n, field))) for n in ("Ab(2)", "Upper(2)")]
    dims = {}
    for name, x in bases:
        b = solver.zero_braiding(x)
        on_x = _space(b, braiding_xmod_assoc_laws)
        on_bar = _space(solver.zero_braiding(_bar(x)[0]), braiding_cat_assoc_laws)
        assert (on_x is None) == (on_bar is None), name
        if on_x is None:
            dims[name] = None
            continue
        (part, null), (_, bar_null) = on_x, on_bar
        assert len(null) == len(bar_null), name
        dims[name] = len(null)
        for v in ((0,) * len(part), *null):
            cx_functor(with_braiding(b, vadd(field, part, v)))
    assert dims == {"ker": 1, "idact": 1, "noncomm": None, "Ab(2)": 0, "Upper(2)": 0}


def test_char_two_transport_guards():
    b = commutator_braiding(catalog("Mat(2)", GF(2)))
    with pytest.raises(CharTwo):
        xmod_braiding_liefy(b)
    cb = cx_functor(b)
    with pytest.raises(CharTwo):
        cat_braiding_liefy(cb)
    with pytest.raises(CharTwo):
        check_anticoherence(cb)


def test_xc_functor_recovers_braiding_data():
    b = commutator_braiding(catalog("Mat(2)", QQ))
    back = xc_functor(cx_functor(b))
    assert validate_braiding_xmod_assoc(back).ok
    assert back.base.m.dim == b.base.m.dim
    assert back.base.n.mult.tensor == b.base.n.mult.tensor


def _braiding(path, liefied=False):
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse(fh.read())
    [(name, b)] = [(n, o) for n, k, o in doc.blocks if k == "braiding"]
    return name, cat_braiding_liefy(b) if liefied else b


# validator, law table, a passing fixture (Lie-fied first if flagged) and
# a failing mutation fixture
_TABLES = [
    (
        validate_braiding_xmod_assoc,
        braiding_xmod_assoc_laws,
        "mat2_braided",
        False,
        "bas3",
    ),
    (validate_braiding_xmod_lie, braiding_xmod_lie_laws, "sl2_braided", False, "blie3"),
    (
        validate_braiding_cat_assoc,
        braiding_cat_assoc_laws,
        "mat2_cat",
        False,
        "ast2_fail",
    ),
    (
        validate_braiding_cat_lie_ulualan,
        braiding_cat_lie_ulualan_laws,
        "mat2_cat",
        True,
        "lieb4_demo",
    ),
    (
        validate_braiding_cat_lie_alt,
        braiding_cat_lie_alt_laws,
        "mat2_cat",
        True,
        "lieb4_demo",
    ),
    (check_anticoherence, anticoherence_laws, "mat2_cat", True, "lieb4_demo"),
]


@pytest.mark.parametrize(
    "validate,laws,passing,liefied,failing",
    _TABLES,
    ids=[t[1].__name__ for t in _TABLES],
)
def test_validators_sweep_their_law_tables(validate, laws, passing, liefied, failing):
    for path, ok in (
        (os.path.join(FIXTURES, f"{passing}.alg"), True),
        (os.path.join(MUTATIONS, f"{failing}.alg"), False),
    ):
        name, b = _braiding(path, liefied and ok)
        rep = validate(b, name)
        assert rep.ok == ok, path
        assert rep == merge(name, [sweep(*law) for law in laws(b)]), path
