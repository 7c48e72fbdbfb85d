import glob
import os
import random

import pytest

from braidalg.algebra import ASSOC, LIE, catalog, is_lie
from braidalg.braid import commutator_braiding, cx_functor
from braidalg.dsl import parse
from braidalg.errors import NotComposable
from braidalg.fields import GF, QQ
from braidalg.icat import (
    cat_liefy,
    compose,
    composable_pair_basis,
    composable_triple_basis,
    discrete_cat,
    invert_morphism,
    k_formula,
    validate_cat_algebra,
)
from conftest import (
    MUTATIONS,
    dense_apply,
    dense_bilinear,
    dense_compose,
    densify,
    random_vector,
    sparse,
)

ASSOC_NAMES = ("Mat(2)", "Upper(2)", "Upper(3)")


def cat_fixtures():
    cats = []
    for name in ASSOC_NAMES:
        cats.append((f"discrete {name}", discrete_cat(catalog(name, QQ), ASSOC)))
    for name in ("sl2", "Heis3"):
        cats.append((f"discrete {name}", discrete_cat(catalog(name, QQ), LIE)))
    for name in ("Mat(2)", "Upper(3)"):
        bar = cx_functor(commutator_braiding(catalog(name, QQ))).base
        cats.append((f"bar {name}", bar))
    return cats


@pytest.mark.parametrize("label,cat", cat_fixtures())
def test_cat_fixtures_validate(label, cat):
    assert validate_cat_algebra(cat).ok, label


@pytest.mark.parametrize("label,cat", cat_fixtures())
def test_identity_laws_on_pullback_basis(label, cat):
    F = cat.c1.field
    for x, y in composable_pair_basis(cat):
        # right identity on x, left identity on y
        assert compose(cat, x, cat.e.apply(cat.t.apply(x))) == tuple(x)
        assert compose(cat, cat.e.apply(cat.s.apply(y)), y) == tuple(y)


@pytest.mark.parametrize("label,cat", cat_fixtures())
def test_associativity_on_triple_basis(label, cat):
    for x, y, z in composable_triple_basis(cat):
        left = compose(cat, compose(cat, x, y), z)
        right = compose(cat, x, compose(cat, y, z))
        assert left == right


@pytest.mark.parametrize("label,cat", cat_fixtures())
def test_invert_morphism_postconditions(label, cat):
    for i in range(cat.c1.dim):
        f = cat.c1.space.basis_vector(i)
        g = invert_morphism(cat, f)
        assert compose(cat, f, g) == cat.e.apply(cat.s.apply(f))
        assert compose(cat, g, f) == cat.e.apply(cat.t.apply(f))
        assert cat.s.apply(g) == cat.t.apply(f)
        assert cat.t.apply(g) == cat.s.apply(f)


def test_compose_rejects_non_composable():
    bar = cx_functor(commutator_braiding(catalog("Mat(2)", QQ))).base
    # find a basis morphism with t(x) != s(x); composing with itself fails
    for i in range(bar.c1.dim):
        x = bar.c1.space.basis_vector(i)
        if bar.t.apply(x) != bar.s.apply(x):
            with pytest.raises(NotComposable):
                compose(bar, x, x)
            return
    pytest.skip("no non-composable basis pair in fixture")


def test_k_formula_matches_compose():
    bar = cx_functor(commutator_braiding(catalog("Upper(2)", QQ))).base
    for x, y in composable_pair_basis(bar):
        assert compose(bar, x, y) == k_formula(bar, x, y)


def test_cat_liefy_valid_and_lie():
    bar = cx_functor(commutator_braiding(catalog("Mat(2)", QQ))).base
    lie_bar = cat_liefy(bar)
    assert lie_bar.flavor == LIE
    assert is_lie(lie_bar.c1)
    assert validate_cat_algebra(lie_bar).ok
    # structural maps are unchanged
    assert lie_bar.s.columns == bar.s.columns
    assert lie_bar.t.columns == bar.t.columns
    assert lie_bar.e.columns == bar.e.columns


def derived_map_cases():
    """Bars and their Lie-fied cats over Q, F2 and F5, and every cat of the
    mutation corpus, valid or not."""
    cases = []
    for F in (QQ, GF(2), GF(5)):
        for name in ("Mat(2)", "Upper(3)"):
            bar = cx_functor(commutator_braiding(catalog(name, F))).base
            cases.append((f"bar {name} over {F}", bar))
            cases.append((f"Lie-fied bar {name} over {F}", cat_liefy(bar)))
    for path in sorted(glob.glob(os.path.join(MUTATIONS, "*.alg"))):
        with open(path, encoding="utf-8") as fh:
            doc = parse(fh.read())
        cases += [(f"mutation {n}", o) for n, k, o in doc.blocks if k == "cat"]
    return cases


@pytest.mark.parametrize("label,cat", derived_map_cases())
def test_derived_maps_match_the_dense_reference(label, cat):
    # k_formula reads the stored V = id - e.t, and e_mul/mul_e are
    # (a, x) -> e(b_a) x and (x, a) -> x e(b_a); seeded vectors per case
    # (vectors are drawn dense and handed to the library sparse)
    rng = random.Random(label)
    F, c1, mul, n = cat.c1.field, cat.c1, cat.c1.mult, cat.c1.dim
    for _ in range(6):
        x, y = random_vector(rng, F, n), random_vector(rng, F, n)
        u = random_vector(rng, F, cat.c0.dim)
        eu = dense_apply(cat.e, u)
        sx, sy, su = sparse(x), sparse(y), sparse(u)
        assert densify(k_formula(cat, sx, sy), n) == dense_compose(cat, x, y)
        assert densify(cat.e_mul.apply(su, sx), n) == dense_bilinear(mul, eu, x)
        assert densify(cat.mul_e.apply(sx, su), n) == dense_bilinear(mul, x, eu)
    for a in range(cat.c0.dim):
        x = random_vector(rng, F, n)
        ea = densify(cat.e.column(a), n)
        assert densify(cat.e_mul.apply_left(a, sparse(x)), n) == dense_bilinear(mul, ea, x)
        assert densify(cat.mul_e.apply_right(sparse(x), a), n) == dense_bilinear(mul, x, ea)
