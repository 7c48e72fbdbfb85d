import glob
import itertools
import os
import random
from collections import Counter

import pytest

from braidalg import icat
from braidalg.action import zero_action_assoc, zero_action_lie
from braidalg.algebra import ASSOC, LIE, Algebra, catalog, is_lie
from braidalg.braid import _bar, commutator_braiding, cx_functor
from braidalg.dsl import parse
from braidalg.errors import NotComposable
from braidalg.fields import GF, QQ
from braidalg.icat import (
    CatAlgebra,
    cat_liefy,
    compose,
    composable_basis,
    discrete_cat,
    invert_morphism,
    k_formula,
    validate_cat_algebra,
)
from braidalg.linear import (
    Bil,
    Family,
    Lin,
    b0,
    bilinear_from_rule,
    from_columns,
    vadd,
)
from braidalg.report import sweep
from braidalg.xmod import XMod, identity_xmod_assoc
from conftest import (
    FIXTURES,
    MUTATIONS,
    dense_apply,
    dense_bilinear,
    dense_compose,
    densify,
    naive_rank,
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
    for x, y in composable_basis(cat, 2):
        # right identity on x, left identity on y
        assert compose(cat, x, cat.e.apply(cat.t.apply(x))) == tuple(x)
        assert compose(cat, cat.e.apply(cat.s.apply(y)), y) == tuple(y)


@pytest.mark.parametrize("label,cat", cat_fixtures())
def test_associativity_on_triple_basis(label, cat):
    for x, y, z in composable_basis(cat, 3):
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
    for x, y in composable_basis(bar, 2):
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
    # k_formula reads the stored V = id - e.t, ker_s_part is W = id - e.s,
    # and e_mul/mul_e are (a, x) -> e(b_a) x and (x, a) -> x e(b_a); seeded
    # vectors per case (drawn dense and handed to the library sparse)
    rng = random.Random(label)
    F, c1, mul, n = cat.c1.field, cat.c1, cat.c1.mult, cat.c1.dim
    for _ in range(6):
        x, y = random_vector(rng, F, n), random_vector(rng, F, n)
        u = random_vector(rng, F, cat.c0.dim)
        eu, esx = dense_apply(cat.e, u), dense_apply(cat.e, dense_apply(cat.s, x))
        sx, sy, su = sparse(x), sparse(y), sparse(u)
        assert densify(k_formula(cat, sx, sy), n) == dense_compose(cat, x, y)
        assert densify(cat.ker_s_part.apply(sx), n) == tuple(map(F.sub, x, esx))
        assert densify(cat.e_mul.apply(su, sx), n) == dense_bilinear(mul, eu, x)
        assert densify(cat.mul_e.apply(sx, su), n) == dense_bilinear(mul, x, eu)
    for a in range(cat.c0.dim):
        x = random_vector(rng, F, n)
        ea = densify(cat.e.column(a), n)
        assert densify(cat.e_mul.apply_left(a, sparse(x)), n) == dense_bilinear(mul, ea, x)
        assert densify(cat.mul_e.apply(sparse(x), ((a, 1),)), n) == dense_bilinear(mul, x, ea)


# ---------------------------------------------------------------------------
# Cat3 and Cat4 are decided from Cat1, Cat2 and the products of ker s and
# ker t where they can be; these tests hold that decision to the sweeps
# over the composable pairs and triples, written out here


def _k(c, x, y):
    """The forced composition x - e(t(x)) + y, as a law term."""
    return x - Lin(c.e, Lin(c.t, x)) + y


def _swept_cat3_cat4(c):
    """The Cat3 and Cat4 entries as sweeps over the composable pairs and
    triples, on every input: Cat3 on pairs x pairs, Cat4's identity laws on
    the basis of C1 and its associativity on triples."""
    n1, mul = c.c1.dim, c.c1.mult
    pairs, triples = composable_basis(c, 2), composable_basis(c, 3)
    (x, y), (x2, y2) = ([Family(pos, [v[i] for v in pairs]) for i in (0, 1)] for pos in (0, 1))
    p, q, r = (Family(0, [v[i] for v in triples]) for i in range(3))
    laws = [
        ("Cat3", (len(pairs),) * 2, _k(c, Bil(mul, x, x2), Bil(mul, y, y2)),
         Bil(mul, _k(c, x, y), _k(c, x2, y2)), n1),
        ("Cat4", (n1,), _k(c, b0, Lin(c.e, Lin(c.t, b0))), b0, n1),
        ("Cat4", (n1,), _k(c, Lin(c.e, Lin(c.s, b0)), b0), b0, n1),
        ("Cat4", (len(triples),), _k(c, _k(c, p, q), r), _k(c, p, _k(c, q, r)), n1),
    ]
    return tuple(sweep(*law) for law in laws)


def _assert_cat3_cat4_as_swept(label, c):
    """The report of c, whose Cat3 and Cat4 entries are the swept ones."""
    rep = validate_cat_algebra(c)
    assert [e.tag for e in rep.entries[:5]] == ["Cat1"] * 3 + ["Cat2"] * 2, label
    assert rep.entries[5:] == _swept_cat3_cat4(c), label
    return rep


def _document_cats(*dirs):
    """(label, cat) for every cat block of the documents in `dirs`."""
    cases = []
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(d, "*.alg"))):
            with open(path, encoding="utf-8") as fh:
                doc = parse(fh.read())
            name = os.path.relpath(path, FIXTURES)
            cases += [(f"{name}:{n}", o) for n, k, o in doc.blocks if k == "cat"]
    return cases


DOCUMENT_CATS = _document_cats(FIXTURES, MUTATIONS)


@pytest.mark.parametrize("label,cat", DOCUMENT_CATS, ids=[lbl for lbl, _ in DOCUMENT_CATS])
def test_document_cats_get_the_swept_cat3_and_cat4(label, cat):
    _assert_cat3_cat4_as_swept(label, cat)


def _identity_bars():
    cases = []
    for F in (QQ, GF(2), GF(5)):
        for name in ("Ab(3)", "Upper(2)", "Mat(2)", "Upper(3)"):
            bar = _bar(identity_xmod_assoc(catalog(name, F)))[0]
            cases += [(f"bar {name} over {F}", bar), (f"Lie-fied bar {name} over {F}", cat_liefy(bar))]
    return cases


@pytest.mark.parametrize("label,cat", _identity_bars())
def test_bars_get_the_swept_cat3_and_cat4(label, cat):
    _assert_cat3_cat4_as_swept(label, cat)


def _split_bar(F, flavor):
    """The bar of Ab(2) -> Ab(1), m0 -> n0, m1 -> 0, with the zero action:
    ker s = <m0, m1> and ker t = <m1, m0 - n0> meet in <m1>, so a product
    perturbed at (m1, n0) or (n0, m1) lands in one kernel product only."""
    m, n = catalog("Ab(2)", F), catalog("Ab(1)", F)
    act = (zero_action_assoc if flavor == ASSOC else zero_action_lie)(n, m)
    return _bar(XMod(act, from_columns(m.space, n.space, [((0, 1),), ()])))[0]


def _zero_bar(F):
    """The bar of Ab(2) -> Mat(1), zero action and boundary: C1's products
    of two kernel vectors vanish however s is perturbed at m0, while
    s(m0) = n0 breaks Cat1 at s(m0 n0) = 0 != n0."""
    m, n = catalog("Ab(2)", F), catalog("Mat(1)", F)
    return _bar(XMod(zero_action_assoc(n, m), from_columns(m.space, n.space, [(), ()])))[0]


def _perturbed(c, part, entry, a):
    """c with the scalar a added at one entry of C1's product, or of the
    column of s, t or e: entry (i, j, k) of the image of (b_i, b_j), or
    (j, k) of the image of b_j."""
    F = c.c1.field

    def bump(image, k):
        return vadd(F, image, ((k, a),))

    if part == "mult":
        i, j, k = entry
        m = c.c1.mult
        mult = bilinear_from_rule(
            m.left, m.right, m.codomain,
            lambda p, q: bump(m.on_basis(p, q), k) if (p, q) == (i, j) else m.on_basis(p, q),
        )
        return CatAlgebra(Algebra(c.c1.space, mult), c.c0, c.s, c.t, c.e, c.flavor)
    j, k = entry
    f = getattr(c, part)
    cols = [bump(col, k) if q == j else col for q, col in enumerate(f.columns)]
    maps = {"s": c.s, "t": c.t, "e": c.e, part: from_columns(f.domain, f.codomain, cols)}
    return CatAlgebra(c.c1, c.c0, maps["s"], maps["t"], maps["e"], c.flavor)


def _entries(c, part):
    """Every entry of C1's product or of the columns of s, t or e."""
    if part == "mult":
        n = c.c1.dim
        return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    f = getattr(c, part)
    return [(j, k) for j in range(f.domain.dim) for k in range(f.codomain.dim)]


def _perturbations():
    """(label, cat): every one-entry perturbation by 1 of the split and zero
    bars, and eight seeded ones of each part of two larger bars, over Q, F2, F5."""
    cases = []
    for F in (QQ, GF(2), GF(5)):
        upper2 = _bar(identity_xmod_assoc(catalog("Upper(2)", F)))[0]
        bases = [
            (f"split assoc bar over {F}", _split_bar(F, ASSOC), None),
            (f"split Lie bar over {F}", _split_bar(F, LIE), None),
            (f"zero bar over {F}", _zero_bar(F), None),
            (f"bar Upper(2) over {F}", upper2, 8),
            (f"Lie-fied bar Upper(2) over {F}", cat_liefy(upper2), 8),
        ]
        for label, c, count in bases:
            rng = random.Random(label)
            for part in ("mult", "s", "t", "e"):
                entries = _entries(c, part)
                if count is not None:
                    entries = rng.sample(entries, count)
                for entry in entries:
                    a = F.one() if count is None else F.of(rng.randrange(1, F.characteristic or 5))
                    cases.append((f"{label}, {part} {entry} + {a}", _perturbed(c, part, entry, a)))
    return cases


def test_perturbed_cats_get_the_swept_cat3_and_cat4():
    # the cases reach every branch: each precondition failing, a Cat2 entry
    # failing alone, and Cat3 failing with every precondition passing
    failing = Counter()
    for label, c in _perturbations():
        rep = _assert_cat3_cat4_as_swept(label, c)
        failing[tuple(i for i, e in enumerate(rep.entries) if not e.ok)] += 1
    assert failing[(0,)] and failing[(0, 5)]  # only Cat1's s, then with Cat3
    assert any(1 in key or 2 in key for key in failing)  # t or e not a homomorphism
    assert any(sum(i in key for i in (3, 4)) == 1 for key in failing)  # one Cat2 entry
    assert failing[(5,)]  # only Cat3
    assert failing[()]


def _composable_cases():
    """Bars and their Lie-fied cats over Q, F2 and F5, and a seeded sample
    of the perturbed cats, on which composability is a condition of its own."""
    return _identity_bars() + random.Random(2017).sample(_perturbations(), 40)


@pytest.mark.parametrize("k", (2, 3))
def test_composable_basis_spans_the_composable_tuples(k):
    # against the definition: each tuple has t(x_i) = s(x_i+1), the tuples
    # are independent, and there are as many as the nullity of the block map
    # (x_1..x_k) -> (t(x_i) - s(x_i+1))_i, written out densely here
    for label, c in _composable_cases():
        F, n, m = c.c1.field, c.c1.dim, c.c0.dim
        images = []  # of each basis vector of C1^k, block i being x_i
        for i, a in itertools.product(range(k), range(n)):
            image, unit = [F.zero()] * ((k - 1) * m), densify(((a, 1),), n)
            t, s = dense_apply(c.t, unit), dense_apply(c.s, unit)
            if i < k - 1:
                image[i * m : (i + 1) * m] = t
            if i:
                image[(i - 1) * m : i * m] = map(F.neg, s)
            images.append(image)
        basis = composable_basis(c, k)
        assert len(basis) == k * n - naive_rank(F, images), label
        for tup in basis:
            assert len(tup) == k, label
            for x, y in zip(tup, tup[1:]):
                assert dense_apply(c.t, densify(x, n)) == dense_apply(c.s, densify(y, n)), label
        flat = [sum((densify(x, n) for x in tup), ()) for tup in basis]
        assert naive_rank(F, flat) == len(basis), label


def test_valid_cats_build_no_composable_basis(monkeypatch):
    built, swept = Counter(), Counter()  # composable_basis calls by k, sweeps by tag
    real = icat.composable_basis
    monkeypatch.setattr(icat, "composable_basis", lambda c, k: built.update([k]) or real(c, k))
    real_sweep = icat.sweep
    monkeypatch.setattr(icat, "sweep", lambda tag, *a: swept.update([tag]) or real_sweep(tag, *a))
    valid = 0
    for label, c in DOCUMENT_CATS:
        built.clear()
        swept.clear()
        if validate_cat_algebra(c).ok:
            valid += 1
            assert (built, swept["Cat3"], swept["Cat4"]) == (Counter(), 0, 0), label
    assert valid >= 10
    built.clear()
    swept.clear()
    cat3 = dict(DOCUMENT_CATS)["mutations/cat3.alg:cat3"]
    assert validate_cat_algebra(cat3).failing_tags() == ["Cat3"]
    assert built == Counter({2: 1})
    assert (swept["Cat3"], swept["Cat4"]) == (1, 0)
