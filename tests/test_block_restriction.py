"""The block-restriction lemma of docs/axiom_tags.md, in both directions:
bilinear data X = (action, boundary, brace) passes the crossed-module and
BAs axioms exactly when its bar construction cx(X) passes the flavor check,
the categorical-algebra axioms and AsT1-4.  Checked on the crossed-module
and braiding mutation corpus and on seeded transports of the catalog
braidings, some with one image moved, over Q, F5 and F7.  Lie data X passes
BLie1-6 exactly when cx(X) passes each Lie list, LieT1, LieT2, LieB3, LieB4
and LieT1-4; that is checked on the braidings of fixtures/ and the corpus
and on the Lie-fied unmoved transports, not proven."""

import glob
import json
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidalg.action import AssocAction
from braidalg.algebra import ASSOC, LIE, Algebra, catalog, has_flavor
from braidalg.braid import (
    XBraiding,
    _bar,
    _cx,
    commutator_braiding,
    validate_braiding_cat_assoc,
    validate_braiding_cat_lie_alt,
    validate_braiding_cat_lie_ulualan,
    validate_braiding_xmod_assoc,
    validate_braiding_xmod_lie,
    xmod_braiding_liefy,
)
from braidalg.dsl import parse
from braidalg.errors import InvalidXMod
from braidalg.fields import GF, QQ
from braidalg.icat import validate_cat_algebra
from braidalg.linear import (
    Bil,
    Lin,
    b0,
    b1,
    bilinear_from_rule,
    bilinear_from_term,
    from_columns,
    identity_map,
    linear_from_term,
    vadd,
)
from braidalg.xmod import XMod, require_valid_xmod_assoc, require_valid_xmod_lie

from conftest import FIXTURES, MUTATIONS


def _xmod_ok(x):
    require = require_valid_xmod_assoc if x.flavor == ASSOC else require_valid_xmod_lie
    try:
        require(x)
    except InvalidXMod:
        return False
    return True


def _cat_ok(c):
    return has_flavor(c.flavor, c.c1, c.c0) and validate_cat_algebra(c).ok


# per flavor, the braiding validator of X and those of cx(X)
_VALIDATORS = {
    ASSOC: (validate_braiding_xmod_assoc, (validate_braiding_cat_assoc,)),
    LIE: (
        validate_braiding_xmod_lie,
        (validate_braiding_cat_lie_ulualan, validate_braiding_cat_lie_alt),
    ),
}


def _verdicts(b):
    """(X valid, cx(X) valid) for a crossed module b; for a braiding b, with
    its axioms on both sides, X's verdict and then one of cx(X) per braiding
    list of its flavor."""
    if not isinstance(b, XBraiding):
        return _xmod_ok(b), _cat_ok(_bar(b)[0])
    cb = _cx(b)[0]
    validate, cat_lists = _VALIDATORS[b.base.flavor]
    cat_ok = _cat_ok(cb.base)
    return (_xmod_ok(b.base) and validate(b).ok, *(cat_ok and v(cb).ok for v in cat_lists))


def _corpus():
    """(file, subject) of each crossed-module and braiding mutation case,
    then of each crossed-module braiding of fixtures/."""
    with open(os.path.join(MUTATIONS, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    out = []
    for e in manifest:
        with open(os.path.join(MUTATIONS, e["file"]), encoding="utf-8") as fh:
            kind, obj = parse(fh.read()).lookup(e["subject"])
        if kind == "xmod" or isinstance(obj, XBraiding):
            out.append((e["file"], obj))
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.alg"))):
        with open(path, encoding="utf-8") as fh:
            blocks = parse(fh.read()).blocks
        out += [(os.path.basename(path), o) for _, _, o in blocks if isinstance(o, XBraiding)]
    return out


_CORPUS = _corpus()


@pytest.mark.parametrize("b", [b for _, b in _CORPUS], ids=[f for f, _ in _CORPUS])
def test_a_mutation_passes_exactly_when_its_bar_does(b):
    x_ok, *c_oks = _verdicts(b)
    assert set(c_oks) == {x_ok}


def _unimodular(rng, sp):
    """A seeded change of basis of `sp` with determinant 1, a product of four
    shears b_src -> b_src + lam b_dst, and its inverse."""
    F = sp.field

    def shear(src, dst, lam):
        cols = list(sp.basis())
        cols[src] = vadd(F, cols[src], ((dst, F.of(lam)),))
        return from_columns(sp, sp, cols)

    to = back = identity_map(sp)
    for _ in range(4):
        src, dst = rng.sample(range(sp.dim), 2)
        lam = rng.choice((-2, -1, 1, 2))
        to = linear_from_term(sp, sp, Lin(to, Lin(shear(src, dst, lam), b0)))
        back = linear_from_term(sp, sp, Lin(shear(src, dst, -lam), Lin(back, b0)))
    return to, back


def _transported(name, F, seed):
    """The commutator braiding of `name` over F, its M and N transported
    along two seeded unimodular changes of basis."""
    b = commutator_braiding(catalog(name, F))
    x, rng = b.base, random.Random(seed)
    to_m, from_m = _unimodular(rng, x.m.space)
    to_n, from_n = _unimodular(rng, x.n.space)

    def moved(f, left, right, back):
        term = Lin(back, Bil(f, Lin(left, b0), Lin(right, b1)))
        return bilinear_from_term(f.left, f.right, f.codomain, term)

    a = x.action
    action = AssocAction(
        Algebra(x.n.space, moved(x.n.mult, to_n, to_n, from_n)),
        Algebra(x.m.space, moved(x.m.mult, to_m, to_m, from_m)),
        moved(a.star1, to_n, to_m, from_m),
        moved(a.star2, to_m, to_n, from_m),
    )
    boundary = linear_from_term(
        x.m.space, x.n.space, Lin(from_n, Lin(x.boundary, Lin(to_m, b0)))
    )
    return XBraiding(XMod(action, boundary), moved(b.brace, to_n, to_n, from_m))


def _moved_image(b, part, i, j, k):
    """b with the basis vector k added to the image of (b_i, b_j) under one
    of its maps (indices taken modulo the map's dimensions)."""
    x, a = b.base, b.base.action
    maps = {
        "m": a.module.mult,
        "n": a.actor.mult,
        "star1": a.star1,
        "star2": a.star2,
        "brace": b.brace,
    }
    if part == "boundary":
        d = x.boundary
        F, cols = d.field, [d.column(c) for c in range(d.domain.dim)]
        cols[i % d.domain.dim] = vadd(F, cols[i % d.domain.dim], ((k % d.codomain.dim, F.one()),))
        boundary = from_columns(d.domain, d.codomain, cols)
    else:
        f, boundary = maps[part], x.boundary
        F, at = f.field, (i % f.left.dim, j % f.right.dim)
        unit = ((k % f.codomain.dim, F.one()),)
        maps[part] = bilinear_from_rule(
            f.left,
            f.right,
            f.codomain,
            lambda u, v: vadd(F, f.on_basis(u, v), unit) if (u, v) == at else f.on_basis(u, v),
        )
    action = AssocAction(
        Algebra(a.actor.space, maps["n"]),
        Algebra(a.module.space, maps["m"]),
        maps["star1"],
        maps["star2"],
    )
    return XBraiding(XMod(action, boundary), maps["brace"])


PARTS = ("m", "n", "star1", "star2", "boundary", "brace")


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(("Ab(2)", "Upper(2)", "Mat(2)", "Upper(3)")),
    st.sampled_from((QQ, GF(5), GF(7))),
    st.integers(0, 2**16),
    st.none() | st.tuples(st.sampled_from(PARTS), *[st.integers(0, 8)] * 3),
)
@example("Mat(2)", GF(7), 1, None)
@example("Upper(3)", QQ, 2, ("star2", 1, 3, 0))
def test_a_transported_braiding_passes_exactly_when_its_bar_does(name, F, seed, move):
    b = _transported(name, F, seed)
    if move is not None:
        b = _moved_image(b, *move)
    x_ok, *c_oks = _verdicts(b)
    assert set(c_oks) == {x_ok}
    assert x_ok or move is not None  # a transport of a valid braiding is valid
    if move is None:  # and so is its Lie-fied braiding, and that one's bar
        assert set(_verdicts(xmod_braiding_liefy(b))) == {True}
