import itertools
import os

import pytest

from braidalg.algebra import LIE, Algebra, catalog, is_lie
from braidalg.braid import (
    CatBraiding,
    _bar,
    _cx,
    alpha_iso,
    anticoherence_laws,
    beta_iso,
    braiding_cat_assoc_laws,
    braiding_cat_lie_alt_laws,
    braiding_cat_lie_ulualan_laws,
    braiding_space,
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
    xc_functor,
    xmod_braiding_liefy,
)
from braidalg.dsl import parse
from braidalg.errors import CharTwo
from braidalg.fields import GF, QQ
from braidalg.icat import discrete_cat, require_valid_cat
from braidalg.linear import Space, bilinear_from_coordinates, evaluate, zero_bilmap
from braidalg.natensor import tensor_square, tensor_xmod
from braidalg.report import basis_tuples, merge, sweep
from braidalg.xmod import identity_xmod_assoc, identity_xmod_lie

from conftest import FIXTURES, MUTATIONS, dense_bilinear, dense_compose, densify, sparse

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


# the associative braidings of fixtures/ (field None), then commutator
# braidings of catalog algebras
_SQUARE_CASES = [(f, None) for f in ("mat2_braided", "mat3_braided", "upper3_braided")] + [
    (name, F)
    for F in (QQ, GF(3), GF(5))
    for name in ("Ab(2)", "Upper(2)", "Mat(2)", "Upper(3)", "Mat(3)")
]


@pytest.mark.parametrize("name,field", _SQUARE_CASES, ids=str)
def test_liefication_square_commutes(name, field):
    """liefy(cx(b)) = cx(liefy(b)) on the nose: the Lie-fied bar of b is, as
    a record, the bar of its Lie-fied braiding."""
    if field is None:
        b = _braiding(os.path.join(FIXTURES, f"{name}.alg"))[1]
    else:
        b = commutator_braiding(catalog(name, field))
    assert cat_braiding_liefy(cx_functor(b)) == _cx(xmod_braiding_liefy(b))[0]


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


# Over F2 the argument relating LieB3/LieB4 to LieT3/LieT4 breaks down,
# so the two Lie validators may disagree: compare them on whole spaces.
T12 = ("LieT1", "LieT2")
ULUALAN = T12 + ("LieB3", "LieB4")
ALT = T12 + ("LieT3", "LieT4")


def _lie_algebras_f2(dim):
    """All Lie algebra structures on F2^dim (including degenerate ones)."""
    sp = Space(GF(2), tuple(f"x{i}" for i in range(dim)))
    cells = dim * dim * dim
    for v in range(2**cells):
        bits = [v >> p & 1 for p in range(cells)]
        a = Algebra(sp, bilinear_from_coordinates(sp, sp, sp, sparse(bits)))
        if is_lie(a):
            yield a


def _lie_laws(b):
    """The ulualan list, then LieT3 and LieT4 of the alt list."""
    alt = braiding_cat_lie_alt_laws(b)
    return braiding_cat_lie_ulualan_laws(b) + [law for law in alt if law[0] not in T12]


def _compare(cat):
    """The dimensions of the spaces of tau on the categorical Lie algebra
    `cat` passing LieT1-2, the ulualan list and the alt list (None for an
    empty space), and the braidings of the last two on which the two
    validators disagree, with both lists of failing tags."""
    b = CatBraiding(cat, zero_bilmap(cat.c0.space, cat.c0.space, cat.c1.space))
    system = braiding_system(b, _lie_laws)
    spaces = [braiding_space(b, system, tags) for tags in (T12, ULUALAN, ALT)]
    disagreements = []
    # both representations are canonical, so equal spaces are checked once
    for space in filter(None, dict.fromkeys(spaces[1:])):
        for mut in space:
            ul = validate_braiding_cat_lie_ulualan(mut)
            alt = validate_braiding_cat_lie_alt(mut)
            if ul.ok != alt.ok:
                disagreements.append((mut, ul.failing_tags(), alt.failing_tags()))
    return [None if sp is None else len(sp) - 1 for sp in spaces], disagreements


def test_f2_search_finds_no_disagreement():
    # every tau on the discrete Lie algebras of dimension 1 and 2 over F2
    candidates, disagreements = 0, []
    for dim in (1, 2):
        for a in _lie_algebras_f2(dim):
            dims, found = _compare(discrete_cat(a, LIE))
            candidates += 0 if dims[0] is None else 2 ** dims[0]
            disagreements += found
    assert candidates == 5
    assert disagreements == []


# (LieT1-2, ulualan, alt) space dimensions of the generator's Lie bars, and
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
def test_lie_lists_on_bars_that_are_not_discrete(field, mutations_module):
    # the exact spaces of tau on each bar, and every disagreement found
    # between the validators at their particular points and basis steps
    bars = dict(mutations_module.lie_degenerate_bars(field))
    for name, (dims, gaps) in _BAR_GAPS[field].items():
        found, disagreements = _compare(bars[name])
        assert found == dims, name
        assert {(tuple(ul), tuple(alt)) for _, ul, alt in disagreements} == gaps, name


@pytest.mark.parametrize("field", (QQ, GF(5)), ids=str)
def test_cx_maps_whole_braiding_spaces(field, mutations_module):
    # cx maps the braidings on x one to one onto those on its bar, so the
    # two spaces are both empty or of equal dimension; cx is affine in the
    # braiding, so the particular point and each basis step cover the space
    gen = mutations_module
    bases = list(gen.degenerate_xmods(field))
    bases += [(n, identity_xmod_assoc(catalog(n, field))) for n in ("Ab(2)", "Upper(2)")]
    dims = {}
    for name, x in bases:
        b, bar = gen.zero_braiding(x), gen.zero_braiding(_bar(x)[0])
        on_x = braiding_space(b, braiding_system(b, braiding_xmod_assoc_laws))
        on_bar = braiding_space(bar, braiding_system(bar, braiding_cat_assoc_laws))
        assert (on_x is None) == (on_bar is None), name
        if on_x is None:
            dims[name] = None
            continue
        assert len(on_x) == len(on_bar), name
        dims[name] = len(on_x) - 1
        for b in on_x:
            cx_functor(b)
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


def _dense_e_product_laws(b):
    """AsT3, AsT4, LieB3, LieB4, AC1 and AC2 of `b` as {tag: law}, each
    product and composition taken by the dense reference."""
    c, tau = b.base, b.tau
    F, n0, n1 = c.c1.field, c.c0.dim, c.c1.dim

    def e(a):  # e(b_a)
        return densify(c.e.column(a), n1)

    def unit(a):  # b_a
        return tuple(F.one() if k == a else F.zero() for k in range(n0))

    def c0_mul(a, d):
        return densify(c.c0.mult.on_basis(a, d), n0)

    def t(a, d):
        return densify(tau.on_basis(a, d), n1)

    def mul(u, v):
        return dense_bilinear(c.c1.mult, u, v)

    def left(a, d, g):  # tau([a, d], g) on the left-hand side of AsT3/LieB3
        return dense_bilinear(tau, c0_mul(a, d), unit(g))

    def right(a, d, g):  # tau(a, [d, g]) on the left-hand side of AsT4/LieB4/AC1
        return dense_bilinear(tau, unit(a), c0_mul(d, g))

    def add(u, v):
        return tuple(map(F.add, u, v))

    return {
        "AsT3": lambda a, d, g: (
            left(a, d, g),
            dense_compose(c, mul(e(a), t(d, g)), mul(t(a, g), e(d))),
        ),
        "AsT4": lambda a, d, g: (
            right(a, d, g),
            dense_compose(c, mul(t(a, d), e(g)), mul(e(d), t(a, g))),
        ),
        "LieB3": lambda a, d, g: (
            left(a, d, g),
            add(mul(t(a, g), e(d)), mul(e(a), t(d, g))),
        ),
        "LieB4": lambda a, d, g: (
            right(a, d, g),
            add(mul(e(d), t(a, g)), mul(t(a, d), e(g))),
        ),
        "AC1": lambda a, d, g: (right(a, d, g), mul(e(a), t(d, g))),
        "AC2": lambda a, d, g: (
            dense_bilinear(tau, c0_mul(d, g), unit(a)),
            mul(t(d, g), e(a)),
        ),
    }


def _e_product_law_cases():
    """Bars over Q, F2 and F5, their Lie-fied braidings away from
    characteristic 2, and every categorical braiding of the mutation corpus."""
    cases = []
    for F in (QQ, GF(2), GF(5)):
        for name in ("Mat(2)", "Upper(2)"):
            cb = cx_functor(commutator_braiding(catalog(name, F)))
            cases.append((f"bar {name} over {F}", cb))
            if F.characteristic != 2:
                cases.append((f"Lie-fied bar {name} over {F}", cat_braiding_liefy(cb)))
    for path in sorted(os.listdir(MUTATIONS)):
        if path.endswith(".alg"):
            with open(os.path.join(MUTATIONS, path), encoding="utf-8") as fh:
                doc = parse(fh.read())
            cases += [
                (f"mutation {n}", o)
                for n, k, o in doc.blocks
                if k == "braiding" and isinstance(o, CatBraiding)
            ]
    return cases


@pytest.mark.parametrize("label,b", _e_product_law_cases())
def test_e_product_laws_match_the_dense_reference(label, b):
    # every law that multiplies by e(b_a), from each table, on every triple;
    # the tables read the flavor-free c1 product, so each runs on every case
    ref = _dense_e_product_laws(b)
    tables = [braiding_cat_assoc_laws(b), braiding_cat_lie_ulualan_laws(b)]
    if b.base.c1.field.characteristic != 2:
        tables.append(anticoherence_laws(b))
    else:
        del ref["AC1"], ref["AC2"]
    seen = set()
    dim = b.base.c1.dim  # every side lies in C1
    for tag, dims, lhs, rhs in itertools.chain(*tables):
        if tag in ref:
            seen.add(tag)
            sides = zip(basis_tuples(dims), *evaluate(dims, lhs, rhs))
            for idx, *got in sides:
                assert tuple(densify(side, dim) for side in got) == ref[tag](*idx), (tag, idx)
    assert seen == set(ref)
