import ast
import glob
import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg import linear
from braidalg.fields import Field, GF, QQ
from braidalg.linear import (
    Basis,
    Bil,
    Family,
    Lin,
    Space,
    Subspace,
    affine_solutions,
    bilinear_from_coordinates,
    b0,
    b1,
    b2,
    bilinear_from_rule,
    bilinear_from_term,
    evaluate,
    from_columns,
    identity_map,
    is_zero,
    kernel,
    quotient,
    rref,
    vadd,
    vneg,
    vscale,
    vsub,
    zero_bilmap,
    zero_map,
)
from braidalg.report import AxiomCheck, Witness, sweep

from conftest import ROOT, SCRIPTS, dense_apply, dense_bilinear, densify, sparse
from conftest import naive_rank, naive_rref

scalars = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def vec(dim):
    return st.tuples(*([scalars] * dim))


def vectors(count, dim):
    return st.tuples(*([vec(dim)] * count))


def space(dim, stem="x"):
    return Space(QQ, tuple(f"{stem}{i}" for i in range(dim)))


V3 = space(3)
V4 = space(4, "y")


# Vectors, columns and rows are drawn dense and handed to the library
# sparse, which is also the form of every basis it returns.


@given(vectors(3, 4))
@settings(max_examples=50)
def test_kernel_vectors_map_to_zero(cols):
    f = from_columns(V3, V4, map(sparse, cols))
    for v in kernel(f).basis:
        assert is_zero(f.apply(v))


@given(vectors(4, 2))
@settings(max_examples=50)
def test_kernel_basis_is_canonical(cols):
    k = kernel(from_columns(V4, space(2, "z"), map(sparse, cols)))
    assert k.dim >= 2
    assert k == Subspace.span(V4, k.basis)


@pytest.mark.parametrize(
    "F,image",
    (
        (QQ, ((1, 0),)),
        (GF(2), ((1, 2),)),
        (QQ, ((1, 1), (0, 1))),
        (GF(5), ((0, 1), (0, 1))),
    ),
    ids=("zero", "outside_f2", "unsorted", "repeated"),
)
def test_maps_refuse_images_not_in_canonical_form(F, image):
    # an image must be canonical, as the maps compare and sum images as tuples
    sp = Space(F, ("a", "b"))
    with pytest.raises(ValueError):
        from_columns(sp, sp, [(), image])
    with pytest.raises(ValueError):
        bilinear_from_rule(sp, sp, sp, lambda i, j: image if (i, j) == (1, 0) else ())
    # an integral Fraction over Q equals its int, so it stays accepted
    assert from_columns(V3, V3, [((0, Fraction(2)),), (), ()]).apply(((0, 1),)) == ((0, 2),)


@given(vectors(3, 4))
@settings(max_examples=50)
def test_rank_nullity(cols):
    f = from_columns(V3, V4, map(sparse, cols))
    rank = Subspace.span(V4, [f.column(j) for j in range(3)]).dim
    assert rank + kernel(f).dim == 3


@given(vectors(3, 3))
@settings(max_examples=50)
def test_rref_idempotent(rows):
    once = rref(QQ, map(sparse, rows))
    assert rref(QQ, once) == once


@given(vectors(3, 4), vec(3), vec(3), scalars, scalars)
@settings(max_examples=50)
def test_linmap_linearity(cols, u, v, a, b):
    f = from_columns(V3, V4, map(sparse, cols))
    u, v = sparse(u), sparse(v)
    combo = vadd(QQ, vscale(QQ, a, u), vscale(QQ, b, v))
    expect = vadd(QQ, vscale(QQ, a, f.apply(u)), vscale(QQ, b, f.apply(v)))
    assert f.apply(combo) == expect


@given(vec(3), vec(3), scalars)
@settings(max_examples=50)
def test_bilmap_bilinearity(u, v, c):
    b = bilinear_from_rule(
        V3, V3, V3, lambda i, j: V3.basis_vector((i + j) % 3)
    )
    u, v = sparse(u), sparse(v)
    left = b.apply(vscale(QQ, c, u), v)
    assert left == vscale(QQ, c, b.apply(u, v))
    assert b.apply(vadd(QQ, u, v), v) == vadd(QQ, b.apply(u, v), b.apply(v, v))


@given(vectors(2, 3))
@settings(max_examples=50)
def test_span_membership_and_coords(vs):
    sub = Subspace.span(V3, map(sparse, vs))
    for v in vs:
        assert sub.contains(sparse(v))
        coords = sub.coords(sparse(v))
        assert coords is not None
        rebuilt = V3.zero()
        for c, basis_vec in zip(densify(coords, sub.dim), sub.basis):
            rebuilt = vadd(QQ, rebuilt, vscale(QQ, c, basis_vec))
        assert densify(rebuilt, 3) == tuple(v)


@given(vectors(2, 3), vec(3))
@settings(max_examples=50)
def test_quotient_projection(vs, v):
    sub = Subspace.span(V3, map(sparse, vs))
    qspace, proj = quotient(V3, sub)
    assert qspace.dim == 3 - sub.dim
    # the projection kills exactly the subspace
    for basis_vec in sub.basis:
        assert is_zero(proj.apply(basis_vec))
    assert proj.apply(sparse(v)) == proj.apply(sub.reduce(sparse(v)))


def test_kernel_over_prime_field():
    F5 = GF(5)
    sp = Space(F5, ("a", "b", "c"))
    out = Space(F5, ("u",))
    f = from_columns(sp, out, map(sparse, [(1,), (2,), (3,)]))
    k = kernel(f)
    assert k.dim == 2
    for v in k.basis:
        assert is_zero(f.apply(v))


def test_from_columns_roundtrip():
    cols = [(Fraction(1), Fraction(2)), (Fraction(0), Fraction(3)), (Fraction(4), Fraction(0))]
    out = space(2, "z")
    f = from_columns(V3, out, map(sparse, cols))
    for j, col in enumerate(cols):
        assert densify(f.column(j), 2) == col
        assert densify(f.apply(V3.basis_vector(j)), 2) == col


# The oracles below compute with `Field.add` and `Field.mul` alone, so they
# share no code with the vector operations and the accumulation loop of
# linear.py.  Fields: Q, two small primes and the Mersenne prime 2**61 - 1,
# whose products do not fit in 64 bits.
FIELDS = (QQ, GF(5), GF(7), GF(2**61 - 1))


def field_scalars(F):
    if F.is_rationals:
        raw = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=7)
    else:
        raw = st.integers(0, F.characteristic - 1)
    return raw.map(F.of)


def naive_axpy(F, c, x, y):
    """c*x + y, entry by entry."""
    return tuple(F.add(F.mul(c, a), b) for a, b in zip(x, y))


def naive_sub(F, x, y):
    return naive_axpy(F, F.of(-1), y, x)


def naive_scale(F, c, x):
    return naive_axpy(F, c, x, [F.zero()] * len(x))


def assert_normal(F, v):
    """Over Q an int when integral and a Fraction otherwise; over F_p an
    int in [0, p).  `==` cannot tell these apart."""
    for c in v:
        if F.is_rationals:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), v
        else:
            assert type(c) is int and 0 <= c < F.characteristic, v
    return v


def canonical(F, v, dim):
    """The sparse vector v densified, once its form is checked: indices
    strictly increasing in range(dim), and scalars nonzero and normal."""
    indices = [k for k, _ in v]
    assert indices == sorted(set(indices)) and all(0 <= k < dim for k in indices), v
    assert all(c != 0 for _, c in v), v
    assert_normal(F, [c for _, c in v])
    return densify(v, dim)


def unit(F, dim, i):
    """The dense basis vector b_i."""
    return tuple(F.one() if k == i else F.zero() for k in range(dim))


# A bilinear map is stored as its values on basis pairs; the oracle below
# is the dense sum over all pairs, computed from the rule alone.


@st.composite
def bilinear_cases(draw, square=False):
    """Spaces of dimension <= 4 over one of FIELDS, two rules on basis
    pairs as value tables, two vectors and a scalar."""
    F = draw(st.sampled_from(FIELDS))
    scalar = field_scalars(F)
    n = draw(st.integers(0, 4))
    dims = (n, n) if square else (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    left, right, cod = (
        Space(F, tuple(f"{stem}{i}" for i in range(d)))
        for stem, d in zip("abc", (n, *dims))
    )
    row = st.tuples(*([st.tuples(*([scalar] * cod.dim))] * right.dim))
    tables = [draw(st.tuples(*([row] * left.dim))) for _ in range(2)]
    u = draw(st.tuples(*([scalar] * left.dim)))
    v = draw(st.tuples(*([scalar] * right.dim)))
    return F, left, right, cod, tables, u, v, draw(scalar)


def naive_apply(F, cod, table, u, v):
    """sum over i, j of u_i v_j table[i][j]."""
    out = [F.zero()] * cod.dim
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            for k, c in enumerate(table[i][j]):
                out[k] = F.add(out[k], F.mul(F.mul(a, b), c))
    return tuple(out)


@settings(max_examples=60, derandomize=True, database=None)
@given(bilinear_cases())
def test_bilmap_agrees_with_the_dense_oracle(case):
    F, left, right, cod, (t, t2), u, v, c = case
    K = cod.dim
    b = bilinear_from_rule(left, right, cod, lambda i, j: sparse(t[i][j]))
    other = bilinear_from_rule(left, right, cod, lambda i, j: sparse(t2[i][j]))
    sw, diff, scaled = b.swapped(), b.sub(other), b.scale(c)
    zero = zero_bilmap(left, right, cod)
    assert (sw.left, sw.right, sw.codomain) == (right, left, cod)
    for i in range(left.dim):
        for j in range(right.dim):
            assert densify(b.on_basis(i, j), K) == t[i][j]
            assert densify(sw.on_basis(j, i), K) == t[i][j]
            assert canonical(F, diff.on_basis(i, j), K) == naive_sub(F, t[i][j], t2[i][j])
            assert canonical(F, scaled.on_basis(i, j), K) == naive_scale(F, c, t[i][j])
            assert zero.on_basis(i, j) == cod.zero() == ()
    su, sv = sparse(u), sparse(v)
    for i in range(left.dim):
        got = canonical(F, b.apply_left(i, sv), K)
        assert got == naive_apply(F, cod, t, unit(F, left.dim, i), v)
    expect = naive_apply(F, cod, t, u, v)
    other_expect = naive_apply(F, cod, t2, u, v)
    assert canonical(F, b.apply(su, sv), K) == expect
    assert canonical(F, sw.apply(sv, su), K) == expect
    assert canonical(F, diff.apply(su, sv), K) == naive_sub(F, expect, other_expect)
    assert canonical(F, scaled.apply(su, sv), K) == naive_scale(F, c, expect)
    assert zero.apply(su, sv) == cod.zero()
    total = canonical(F, vadd(F, b.apply(su, sv), other.apply(su, sv)), K)
    assert total == naive_axpy(F, F.one(), expect, other_expect)
    gap = canonical(F, vsub(F, b.apply(su, sv), other.apply(su, sv)), K)
    assert gap == naive_sub(F, expect, other_expect)


# A linear map is stored as its images of basis vectors; the oracle below
# is the row-major matrix, built from those images and evaluated by hand.


@st.composite
def linear_cases(draw):
    """Spaces U, V, W of dimension <= 4 over one of FIELDS, two maps
    U -> V and one map W -> U as column tables, and vectors of U and W."""
    F = draw(st.sampled_from(FIELDS))
    scalar = field_scalars(F)
    U, V, W = (
        Space(F, tuple(f"{stem}{i}" for i in range(draw(st.integers(0, 4)))))
        for stem in "uvw"
    )

    def table(dom, cod):
        return draw(st.tuples(*([st.tuples(*([scalar] * cod.dim))] * dom.dim)))

    tables = (table(U, V), table(U, V), table(W, U))
    u = draw(st.tuples(*([scalar] * U.dim)))
    w = draw(st.tuples(*([scalar] * W.dim)))
    return F, U, V, W, tables, u, w


def naive_rows(cols, dim):
    """The row-major matrix whose j-th column is cols[j]."""
    return [[col[i] for col in cols] for i in range(dim)]


def naive_matvec(F, rows, v):
    out = []
    for row in rows:
        acc = F.zero()
        for a, b in zip(row, v):
            acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return tuple(out)


@settings(max_examples=60, derandomize=True, database=None)
@given(linear_cases())
def test_linmap_agrees_with_the_dense_oracle(case):
    F, U, V, W, (ta, tb, tc), u, w = case
    a, b = from_columns(U, V, map(sparse, ta)), from_columns(U, V, map(sparse, tb))
    c = from_columns(W, U, map(sparse, tc))
    ra, rb, rc = naive_rows(ta, V.dim), naive_rows(tb, V.dim), naive_rows(tc, U.dim)
    total = a.add(b)
    diff = a.sub(b)
    comp = a.after(c)
    ident, zero = identity_map(U), zero_map(U, V)
    assert (comp.domain, comp.codomain) == (W, V)
    n = V.dim
    for j in range(U.dim):
        ej = unit(F, U.dim, j)
        assert canonical(F, a.column(j), n) == tuple(row[j] for row in ra)
        assert canonical(F, a.column(j), n) == naive_matvec(F, ra, ej)
        expect = tuple(F.add(x[j], y[j]) for x, y in zip(ra, rb))
        assert canonical(F, total.column(j), n) == expect
        expect = tuple(F.sub(x[j], y[j]) for x, y in zip(ra, rb))
        assert canonical(F, diff.column(j), n) == expect
        assert densify(ident.column(j), U.dim) == ej
        assert zero.column(j) == V.zero() == ()
    # column j of the product is A times column j of C
    comp_cols = [naive_matvec(F, ra, tuple(row[j] for row in rc)) for j in range(W.dim)]
    assert [canonical(F, comp.column(j), n) for j in range(W.dim)] == comp_cols
    su = sparse(u)
    expect, other = naive_matvec(F, ra, u), naive_matvec(F, rb, u)
    assert canonical(F, a.apply(su), n) == expect
    assert canonical(F, total.apply(su), n) == naive_axpy(F, F.one(), expect, other)
    assert canonical(F, diff.apply(su), n) == naive_sub(F, expect, other)
    assert canonical(F, comp.apply(sparse(w)), n) == naive_matvec(F, ra, naive_matvec(F, rc, w))
    assert canonical(F, ident.apply(su), U.dim) == u
    assert zero.apply(su) == V.zero()
    se, so = sparse(expect), sparse(other)
    assert canonical(F, vadd(F, se, so), n) == naive_axpy(F, F.one(), expect, other)
    assert canonical(F, vsub(F, se, so), n) == naive_sub(F, expect, other)
    # reduce leaves a representative that differs from its argument by a
    # member of the span and is zero at every pivot
    sub = Subspace.span(V, map(sparse, tb))
    rep = canonical(F, sub.reduce(sparse(expect)), n)
    assert sub.contains(sparse(naive_sub(F, expect, rep)))
    assert all(rep[p] == 0 for p in sub.pivots())
    assert len(rref(F, a.columns)) == naive_rank(F, ra)
    assert len(rref(F, comp.columns)) == naive_rank(F, naive_rows(comp_cols, V.dim))


# The sparse form of a vector: every evaluation and vector operation returns
# the tuple of its nonzero entries ((k, c), ...), with k strictly increasing
# and each c nonzero and normal, and that vector, densified, is what the
# dense oracles of conftest compute with `Field` methods.

SPARSE_FIELDS = (QQ, GF(2), GF(5), GF(7))


def raw_scalars(F):
    """Scalars as a caller may hold them: over Q ints, normal Fractions and
    integral Fractions such as Fraction(2, 1); over F_p any residue."""
    if F.is_rationals:
        ints = st.integers(-4, 4)
        return ints | st.fractions(-4, 4, max_denominator=5) | ints.map(Fraction)
    return st.integers(0, F.characteristic - 1)


@st.composite
def sparse_cases(draw):
    """Over one of SPARSE_FIELDS, dimensions L, R, K in 0-5, a linear map
    L -> K and a bilinear map L x R -> K as dense tables, vectors u (of L),
    v (of R) and w (of K) with 0-3 nonzero entries each, and a raw scalar.
    A table may hold an image and its negative, and a vector equal entries
    on their indices, so that sums cancel."""
    F = draw(st.sampled_from(SPARSE_FIELDS))
    raw = raw_scalars(F)
    L, R, K = (draw(st.integers(0, 5)) for _ in range(3))

    def vector(dim, twins=False):
        v = [F.zero()] * dim
        for k in draw(st.lists(st.integers(0, dim - 1), max_size=3)) if dim else ():
            v[k] = F.of(draw(raw))
        if twins and dim >= 2:
            v[1] = v[0]
        return tuple(v)

    def images(count, twins):
        out = [vector(K) for _ in range(count)]
        if twins and count >= 2:
            out[1] = tuple(map(F.neg, out[0]))
        return out

    twins = draw(st.booleans())
    lin = images(L, twins)
    table = [images(R, twins) for _ in range(L)]
    u, v, w = vector(L, twins), vector(R, twins), vector(K)
    return F, (L, R, K), lin, table, u, v, w, draw(raw)


@settings(max_examples=200, derandomize=True, database=None)
@given(sparse_cases())
def test_sparse_outputs_are_canonical_and_match_the_dense_oracles(case):
    F, (L, R, K), lin, table, u, v, w, c = case
    left, right, cod = (
        Space(F, tuple(f"{stem}{i}" for i in range(d))) for stem, d in zip("abc", (L, R, K))
    )
    f = from_columns(left, cod, map(sparse, lin))
    b = bilinear_from_rule(left, right, cod, lambda i, j: sparse(table[i][j]))
    su, sv, sw = sparse(u), sparse(v), sparse(w)
    assert canonical(F, f.apply(su), K) == dense_apply(f, u)
    assert canonical(F, b.apply(su, sv), K) == dense_bilinear(b, u, v)
    for i in range(L):
        got = canonical(F, b.apply_left(i, sv), K)
        assert got == dense_bilinear(b, unit(F, L, i), v)
    x = f.apply(su)
    dx = densify(x, K)
    assert canonical(F, vadd(F, x, sw), K) == tuple(map(F.add, dx, w))
    assert canonical(F, vsub(F, x, sw), K) == tuple(map(F.sub, dx, w))
    assert canonical(F, vneg(F, sw), K) == tuple(map(F.neg, w))
    assert canonical(F, vscale(F, c, sw), K) == tuple(F.mul(F.of(c), a) for a in w)
    assert canonical(F, vscale(F, c, x), K) == tuple(F.mul(F.of(c), a) for a in dx)
    # u + (-u) and u - u leave no entry
    assert vadd(F, sw, vneg(F, sw)) == vsub(F, sw, sw) == vsub(F, x, x) == ()
    # a map stores its images as given, so every image it stores, and every
    # image of a map built from it, is canonical
    g = f.after(from_columns(left, left, [su] * L))
    assert [canonical(F, g.column(j), K) for j in range(L)] == [dense_apply(f, u)] * L
    for h in (f, f.add(g), f.sub(g)):
        for j in range(L):
            canonical(F, h.column(j), K)
    swapped, scaled = b.swapped(), b.scale(c)
    diff = b.sub(scaled)
    for i, j in itertools.product(range(L), range(R)):
        image = canonical(F, b.on_basis(i, j), K)
        assert image == tuple(table[i][j])
        assert canonical(F, swapped.on_basis(j, i), K) == image
        assert canonical(F, scaled.on_basis(i, j), K) == tuple(F.mul(F.of(c), a) for a in image)
        canonical(F, diff.on_basis(i, j), K)


# The affine solve against its definition: over F_2 and F_3 every x is
# tried; over Q the solution is substituted back and the rank counted.


@st.composite
def affine_cases(draw, fields):
    """m <= 4 equations in n <= 4 unknowns over one of `fields`, as
    (rows, const): with random constants, with a planted solution, or with
    a row repeated under another constant."""
    F = draw(st.sampled_from(fields))
    scalar = field_scalars(F)
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = [draw(st.tuples(*([scalar] * n))) for _ in range(m)]
    kind = draw(st.sampled_from(("random", "planted", "clash")))
    const = [draw(scalar) for _ in range(m)]
    if kind == "planted":
        x = draw(st.tuples(*([scalar] * n)))
        const = [F.neg(a) for a in naive_matvec(F, rows, x)]
    if kind == "clash" and rows:
        rows.append(rows[0])
        const.append(F.add(const[0], F.one()))
    return F, n, rows, const


def naive_pivots(F, rows, n):
    """The columns j with rank(columns < j+1) > rank(columns < j)."""
    ranks = [naive_rank(F, [r[:j] for r in rows]) for j in range(n + 1)]
    return [j for j in range(n) if ranks[j + 1] > ranks[j]]


def check_solution_shape(F, rows, n, sol):
    """The free unknowns of the particular solution are 0, and the null
    basis is canonical; returns both densified."""
    part, null = sol
    part = canonical(F, part, n)
    pivots = naive_pivots(F, rows, n)
    assert all(part[j] == 0 for j in range(n) if j not in pivots)
    assert tuple(null) == Subspace.span(Space(F, tuple(range(n))), null).basis
    return part, [densify(v, n) for v in null]


@settings(max_examples=80, derandomize=True, database=None)
@given(affine_cases((GF(2), GF(3))))
def test_affine_solutions_against_every_point(case):
    F, n, rows, const = case
    elems = range(F.characteristic)
    solutions = {
        x
        for x in itertools.product(elems, repeat=n)
        if all(F.add(c, naive_matvec(F, [r], x)[0]) == 0 for r, c in zip(rows, const))
    }
    sol = affine_solutions(F, [sparse((*r, c)) for r, c in zip(rows, const)], n)
    if sol is None:
        assert solutions == set()
        return
    part, null = check_solution_shape(F, rows, n, sol)
    span = set()
    for coeffs in itertools.product(elems, repeat=len(null)):
        x = part
        for a, v in zip(coeffs, null):
            x = naive_axpy(F, a, v, x)
        span.add(x)
    assert len(span) == F.characteristic ** len(null)
    assert span == solutions


@settings(max_examples=60, derandomize=True, database=None)
@given(affine_cases((QQ,)))
def test_affine_solutions_over_q(case):
    F, n, rows, const = case
    augmented = [(*r, c) for r, c in zip(rows, const)]
    sol = affine_solutions(F, list(map(sparse, augmented)), n)
    rank = naive_rank(F, rows)
    if sol is None:
        assert naive_rank(F, augmented) > rank
        return
    part, null = check_solution_shape(F, rows, n, sol)
    assert naive_axpy(F, F.one(), naive_matvec(F, rows, part), const) == (0,) * len(rows)
    for v in null:
        assert naive_matvec(F, rows, v) == (0,) * len(rows)
    assert rank + len(null) == n


def test_affine_solutions_edge_cases():
    for F in (QQ, GF(2)):
        # no unknowns: solvable exactly when every constant is 0
        assert affine_solutions(F, [sparse((0,)), sparse((0,))], 0) == ((), ())
        assert affine_solutions(F, [sparse((0,)), sparse((1,))], 0) is None
        # no equations: every point, from 0 along the standard basis
        part, null = affine_solutions(F, [], 3)
        assert densify(part, 3) == (0, 0, 0)
        assert [densify(v, 3) for v in null] == [unit(F, 3, i) for i in range(3)]
        # x + y = 0 and x + y = 1
        assert affine_solutions(F, [sparse((1, 1, 0)), sparse((1, 1, 1))], 2) is None
    # over F_p the constant is negated mod p: x = -1 is 2 in F_3
    assert affine_solutions(GF(3), [sparse((1, 1))], 1) == (sparse((2,)), ())


# rref over Q against a plain Gauss-Jordan elimination in Field methods, on
# ints and Fractions, normal or not, with repeated, proportional and zero
# rows and pivots of either sign other than 1.

BIG = 10**30


@st.composite
def rational_rows(draw):
    """0-8 rows of 1-9 entries: small ints, ints up to 10**30, Fractions
    with denominators up to 10**6, integral Fractions such as Fraction(0, 1);
    some rows repeat, scale or zero an earlier one."""
    n = draw(st.integers(1, 9))
    big = st.integers(-BIG, BIG)
    entry = st.one_of(
        st.integers(-6, 6),
        st.just(Fraction(0, 1)),
        big,
        st.builds(Fraction, big, st.integers(1, 10**6)),
        big.map(Fraction),
    )
    rows = draw(st.lists(st.tuples(*[entry] * n), max_size=8))
    factor = st.integers(-6, 6).filter(bool) | st.builds(
        Fraction, st.integers(1, BIG), st.integers(-(10**6), -1)
    )
    for kind in draw(st.lists(st.sampled_from("=*0"), max_size=8 - len(rows))):
        if kind == "0" or not rows:
            rows.append((draw(st.sampled_from((0, Fraction(0, 1)))),) * n)
            continue
        row = draw(st.sampled_from(rows))
        rows.append(row if kind == "=" else tuple(draw(factor) * a for a in row))
    return draw(st.permutations(rows))


@settings(max_examples=200, derandomize=True, database=None)
@given(rational_rows())
def test_rref_over_q_agrees_with_gauss_jordan(rows):
    n = len(rows[0]) if rows else 0
    assert [canonical(QQ, r, n) for r in rref(QQ, map(sparse, rows))] == naive_rref(QQ, rows)


def test_rref_over_q_never_inverts(monkeypatch):
    # pivots 2, -3 and 6, and a fourth row in their span
    rows = [(2, 1, 1, 0, 5), (0, -3, 1, 1, 0), (0, 0, 6, 1, 1), (2, -2, 8, 2, 6)]
    expect = naive_rref(QQ, rows)
    assert len(expect) == 3 and any(type(a) is Fraction for r in expect for a in r)

    def refuse(self, a):
        raise AssertionError("rref over Q inverted a pivot")

    monkeypatch.setattr(Field, "inv", refuse)
    assert [densify(r, 5) for r in rref(QQ, map(sparse, rows))] == expect


# rref on rows drawn sparse, over Q and small primes, with scalars as a
# caller may hold them, checked by a certificate and against Gauss-Jordan.

ELIMINATION_FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))


@st.composite
def sparse_rows(draw):
    """A field, a width n <= 12 and up to 10 sparse rows of it: over Q
    small ints, Fractions and integral Fractions, over F_p residues; some
    rows repeat or scale an earlier one."""
    F = draw(st.sampled_from(ELIMINATION_FIELDS))
    n = draw(st.integers(1, 12))
    if F.is_rationals:
        entry = (
            st.integers(-6, 6)
            | st.fractions(-6, 6, max_denominator=9)
            | st.integers(-6, 6).map(Fraction)
        ).filter(bool)
    else:
        entry = st.integers(1, F.characteristic - 1)
    row = st.dictionaries(st.integers(0, n - 1), entry, max_size=4)
    rows = [tuple(sorted(r.items())) for r in draw(st.lists(row, max_size=10))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        r, c = draw(st.sampled_from(rows)), draw(entry)
        rows.append(tuple((k, F.mul(F.of(c), F.of(a))) for k, a in r))
    return F, n, draw(st.permutations(rows))


@settings(max_examples=150, derandomize=True, database=None)
@given(sparse_rows())
def test_rref_of_sparse_rows_is_certified(case):
    F, n, rows = case
    dense_rows = [tuple(map(F.of, densify(r, n))) for r in rows]
    out = rref(F, rows)
    pivots = [r[0][0] for r in out]
    assert pivots == sorted(set(pivots))
    # each output row leads with 1 at its pivot and is 0 at every other
    for r in out:
        canonical(F, r, n)
        assert r[0][1] == 1
        assert not {k for k, _ in r[1:]} & set(pivots)
    # every input row reduces to zero against the output, in Field methods
    for v in dense_rows:
        for r in out:
            v = naive_axpy(F, F.neg(v[r[0][0]]), densify(r, n), v)
        assert not any(v)
    # so the output spans what the rows span, and the rank says no more
    assert len(out) == naive_rank(F, dense_rows)
    assert [densify(r, n) for r in out] == naive_rref(F, dense_rows)


@st.composite
def quotient_cases(draw):
    F = draw(st.sampled_from((QQ, GF(2), GF(5))))
    n = draw(st.integers(0, 6))
    vs = draw(st.lists(st.tuples(*[field_scalars(F)] * n), max_size=5))
    return Space(F, tuple(f"x{i}" for i in range(n))), vs


@settings(max_examples=100, derandomize=True, database=None)
@given(quotient_cases())
def test_quotient_projection_reads_the_echelon_rows(case):
    # column j of the projection is the free part of the reduced b_j
    ambient, vs = case
    sub = Subspace.span(ambient, map(sparse, vs))
    free = [j for j in range(ambient.dim) if j not in sub.pivots()]
    _, proj = quotient(ambient, sub)
    for j in range(ambient.dim):
        reduced = densify(sub.reduce(ambient.basis_vector(j)), ambient.dim)
        expect = tuple(reduced[c] for c in free)
        got = canonical(ambient.field, proj.column(j), len(free))
        assert got == expect
        assert list(map(type, got)) == list(map(type, expect))


def test_bilinear_from_coordinates_reads_the_flat_order():
    for L, R, K in itertools.product(range(3), repeat=3):
        left, right, cod = space(L, "a"), space(R, "b"), space(K, "c")
        x = list(range(L * R * K))
        b = bilinear_from_coordinates(left, right, cod, sparse(x))
        assert (b.left, b.right, b.codomain) == (left, right, cod)
        for i, j, k in itertools.product(range(L), range(R), range(K)):
            assert densify(b.on_basis(i, j), K)[k] == x[(k * L + i) * R + j]


def test_linmap_shape_is_checked_against_both_spaces():
    with pytest.raises(ValueError):
        from_columns(V3, Space(QQ, ()), [])
    with pytest.raises(ValueError):
        from_columns(V3, V4, [V4.zero()] * 2)
    # an image with an index past the codomain's dimension, of a linear map
    # and of a bilinear map
    with pytest.raises(ValueError):
        from_columns(V4, V3, [V4.basis_vector(3)] * 4)
    with pytest.raises(ValueError):
        bilinear_from_rule(V3, V4, V3, lambda i, j: V4.basis_vector(3))


def test_map_arithmetic_checks_the_spaces():
    U, V, W = space(2, "u"), space(2, "v"), space(3, "w")
    a = from_columns(U, V, [V.zero()] * 2)
    # other codomain, other codomain dimension, other domain
    for b in (zero_map(U, space(2, "w")), zero_map(U, W), zero_map(space(2), V)):
        for op in (a.add, a.sub):
            with pytest.raises(ValueError):
                op(b)
    f = zero_bilmap(U, V, W)
    for g in (zero_bilmap(U, V, V), zero_bilmap(V, V, W), zero_bilmap(U, U, W)):
        with pytest.raises(ValueError):
            f.sub(g)
    assert a.add(a) == a.sub(a) == a and f.sub(f) == f


def test_no_law_builds_a_basis_vector():
    # a law is two terms, and a term reads stored images by index (a
    # `linear.Basis` argument): no lambda or nested function outside
    # linear.py names basis_vector, itself or through a name bound to it
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "braidalg", "*.py")))
    paths = [p for p in paths if os.path.basename(p) != "linear.py"]
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        aliases = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "basis_vector"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        outer = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        laws = {
            node
            for fn in outer
            for node in ast.walk(fn)
            if node is not fn and isinstance(node, (ast.Lambda, ast.FunctionDef))
        }
        for law in laws:
            for node in ast.walk(law):
                if (
                    isinstance(node, ast.Attribute) and node.attr == "basis_vector"
                ) or (isinstance(node, ast.Name) and node.id in aliases):
                    found.append((os.path.basename(path), node.lineno))
    assert found == []


def test_only_linear_py_knows_how_maps_are_stored():
    # every other module builds maps with from_columns / bilinear_from_rule
    # and reads them through column / on_basis / apply
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "braidalg", "*.py")))
    paths = [p for p in paths if os.path.basename(p) != "linear.py"]
    paths += sorted(glob.glob(os.path.join(SCRIPTS, "*.py")))
    assert len(paths) > 10
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in (
                "columns",
                "tensor",
                "matrix",
            ):
                found.append((path, node.lineno, "." + node.attr))
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ("LinMap", "BilMap"):
                    found.append((path, node.lineno, name + "(...)"))
    assert found == []


def test_the_term_kinds_are_the_linear_ones():
    # every term node is linear in its inputs, a precondition of evaluating
    # a law with an unknown map in it: linear.py defines no Term kind but
    # these, and no other module defines one
    kinds = {"Basis", "Family", "Lin", "Bil", "_Sum", "_Neg"}
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))
    paths += sorted(glob.glob(os.path.join(SCRIPTS, "**", "*.py"), recursive=True))
    assert len(paths) > 10
    found = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        terms = {"Term"} | (kinds if os.path.basename(path) != "linear.py" else set())
        grown = True
        while grown:  # subclasses of Term, of a kind, or of a subclass found
            grown = False
            for c in classes:
                bases = {getattr(b, "id", None) or getattr(b, "attr", None) for b in c.bases}
                if c.name not in found.get(path, set()) and bases & terms:
                    found.setdefault(path, set()).add(c.name)
                    terms.add(c.name)
                    grown = True
    linear_py = os.path.join(ROOT, "src", "braidalg", "linear.py")
    assert found.pop(linear_py) == kinds
    assert found == {}


def test_only_the_boundaries_know_the_dense_form():
    # rows, bases and coordinates are sparse everywhere; a dense tuple is
    # made only for a failing law's witness (report.py), and the DSL reads
    # its vectors sparse
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "braidalg", "*.py")))
    boundaries = ("linear.py", "report.py")
    paths = [p for p in paths if os.path.basename(p) not in boundaries]
    paths += sorted(glob.glob(os.path.join(SCRIPTS, "*.py")))
    assert len(paths) > 10
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            name = (
                node.id
                if isinstance(node, ast.Name)
                else node.attr
                if isinstance(node, ast.Attribute)
                else node.name
                if isinstance(node, ast.alias)
                else None
            )
            if name in ("dense", "_nonzero"):
                found.append((os.path.basename(path), node.lineno, name))
    assert found == []


def test_every_evaluation_runs_the_one_loop(monkeypatch):
    # LinMap.apply, BilMap.apply and the one-index read accumulate in
    # linear._combine, once per call
    calls = []
    real = linear._combine

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linear, "_combine", counted)
    cols = [(1, 0, 2, 0), (0, 0, 0, 0), (Fraction(1, 2), 3, 0, 1)]
    f = from_columns(V3, V4, map(sparse, cols))
    b = bilinear_from_rule(V3, V3, V4, lambda i, j: f.column((i + j) % 3))
    u, v = sparse((1, Fraction(1, 2), 0)), sparse((2, 0, -1))
    evaluations = {
        "LinMap.apply": lambda: f.apply(u),
        "BilMap.apply": lambda: b.apply(u, v),
        "BilMap.apply_left": lambda: b.apply_left(1, v),
    }
    for name, evaluate in evaluations.items():
        calls.clear()
        evaluate()
        assert len(calls) == 1, name


# Law terms against a per-tuple oracle.  Each drawn term comes with a
# function that computes its value on one basis tuple from explicit basis
# vectors with LinMap.apply, BilMap.apply, vadd, vsub and vneg: no stored
# image is read by index, no value is shared between tuples.

TERM_FIELDS = (QQ, GF(5))


@st.composite
def term_cases(draw):
    """dims of length 1-3 with entries 0-3, a value space, and a term of
    depth <= 3 in it with its oracle; maps are drawn all zero at times."""
    F = draw(st.sampled_from(TERM_FIELDS))
    scalar = field_scalars(F)
    dims = draw(st.lists(st.sampled_from((0, 1, 2, 2, 3, 3)), min_size=1, max_size=3))
    at = [Space(F, tuple(f"p{k}_{i}" for i in range(d))) for k, d in enumerate(dims)]
    pool = at * 2 + [Space(F, tuple(f"v{k}_{i}" for i in range(k))) for k in range(4)]

    def vector(space):
        return sparse(draw(st.tuples(*([scalar] * space.dim))))

    def images(count, space):
        if draw(st.integers(0, 5)) == 0:  # an all-zero map
            return [()] * count
        return [vector(space) for _ in range(count)]

    def term(space, depth):
        kinds = ["family"] + ["basis"] * (2 if space in at else 0)
        kinds += ["lin", "bil", "bil", "bil", "sum", "diff", "neg"] * (depth > 0)
        kind = draw(st.sampled_from(kinds))
        if kind == "basis":
            p = at.index(space)
            return Basis(p), lambda idx: ((idx[p], 1),)
        if kind == "family":
            p = draw(st.integers(0, len(dims) - 1))
            vs = [vector(space) for _ in range(dims[p])]
            return Family(p, vs), lambda idx: vs[idx[p]]
        if kind in ("lin", "bil") or draw(st.booleans()):
            mapped = draw(st.sampled_from(("lin", "bil"))) if kind not in ("lin", "bil") else kind
            if mapped == "lin":
                dom = draw(st.sampled_from(pool))
                f = from_columns(dom, space, images(dom.dim, space))
                (t, o) = term(dom, depth - 1)
                a = Lin(f, t), lambda idx: f.apply(o(idx))
            else:
                left, right = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
                table = images(left.dim * right.dim, space)
                bm = bilinear_from_rule(left, right, space, lambda i, j: table[i * right.dim + j])
                (t, o), (t2, o2) = term(left, depth - 1), term(right, depth - 1)
                a = Bil(bm, t, t2), lambda idx: bm.apply(o(idx), o2(idx))
        else:
            a = term(space, depth - 1)
            if a[0].space is None:  # vector arithmetic needs a map for its field
                f = from_columns(space, space, images(space.dim, space))
                a = Lin(f, a[0]), lambda idx, o=a[1]: f.apply(o(idx))
        if kind in ("lin", "bil"):
            return a
        (ta, oa) = a
        if kind == "neg":
            return -ta, lambda idx: vneg(F, oa(idx))
        tb, ob = term(space, depth - 1)
        if kind == "sum":
            return ta + tb, lambda idx: vadd(F, oa(idx), ob(idx))
        return ta - tb, lambda idx: vsub(F, oa(idx), ob(idx))

    space = draw(st.sampled_from(pool))
    return F, tuple(dims), space, term(space, draw(st.sampled_from((0, 1, 2, 2, 3, 3))))


def oracle_values(dims, oracle):
    return [oracle(idx) for idx in itertools.product(*map(range, dims))]


@settings(max_examples=300, derandomize=True, database=None)
@given(term_cases())
def test_terms_evaluate_as_the_per_tuple_oracle(case):
    # and, over two positions, bilinear_from_term builds the map whose
    # image of (b_i, b_j) is the term's value at (i, j)
    F, dims, space, (t, oracle) = case
    [got] = evaluate(dims, t)
    assert [canonical(F, v, space.dim) for v in got] == [
        densify(v, space.dim) for v in oracle_values(dims, oracle)
    ]
    if len(dims) == 2:
        left, right = (Space(F, tuple(f"p{k}_{i}" for i in range(d))) for k, d in enumerate(dims))
        bm = bilinear_from_term(left, right, space, t)
        for i, j in itertools.product(*map(range, dims)):
            image = canonical(F, bm.on_basis(i, j), space.dim)
            assert canonical(F, bm.apply(((i, 1),), ((j, 1),)), space.dim) == image
            assert image == densify(oracle((i, j)), space.dim)


def test_terms_on_interleaved_and_ignored_positions():
    # Bil(B, Bil(C, b0, b2), b1) reads its positions out of order, a side
    # may ignore a position, dims may hold 0, and a map may be all zero; a
    # term over two positions is also built into a map by bilinear_from_term,
    # which reads each position as the basis of one space, so C is A
    for F in TERM_FIELDS:
        A, B3 = (Space(F, tuple(f"{s}{i}" for i in range(d))) for s, d in zip("ab", (2, 3)))
        C, spaces = A, {0: Space(F, ()), 2: A, 3: B3}
        inner = bilinear_from_rule(
            A, C, B3, lambda i, j: ((i + j, 1 + i), (2, 3)) if i + j < 2 else ()
        )
        outer = bilinear_from_rule(
            B3, B3, A, lambda i, j: ((0, i + 1), (1, j + 2)) if (i + j) % 3 else ((1, 4),)
        )
        g = bilinear_from_rule(A, B3, A, lambda i, j: ((i, j + 1),))
        zero = zero_bilmap(A, B3, B3)
        f = from_columns(A, B3, [((0, 2),), ((1, 1), (2, 4))])
        h = from_columns(Space(F, ()), B3, [])
        cases = [
            ((2, 3, 2), Bil(outer, Bil(inner, b0, b2), b1)),
            ((2, 3, 2), Bil(outer, b1, Bil(inner, b0, b2)) - Bil(outer, Bil(inner, b0, b2), b1)),
            ((2, 3, 2), Bil(inner, b0, b2)),  # ignores position 1
            ((2, 3, 2), Lin(f, b2) + Bil(zero, b0, b1)),
            ((3, 2), Bil(zero, b1, b0)),
            ((2, 0), Bil(inner, b0, Family(1, []))),
            ((0,), Lin(h, b0)),
            ((2, 2), Bil(inner, b0, b0) + Bil(inner, b1, b1)),  # one position twice
            ((2, 2), Bil(inner, b1, b0) - Bil(inner, b0, b1)),  # swapped
            ((2, 2), -Bil(g, b0, Bil(inner, b0, b1))),  # interleaved
            ((2, 2), Bil(outer, Lin(f, b0), Lin(f, b1))),  # every pair of two sides
        ]
        unit = lambda i: ((i, 1),)  # noqa: E731
        oracles = [
            lambda i, j, k: outer.apply(inner.apply(unit(i), unit(k)), unit(j)),
            lambda i, j, k: vsub(
                F,
                outer.apply(unit(j), inner.apply(unit(i), unit(k))),
                outer.apply(inner.apply(unit(i), unit(k)), unit(j)),
            ),
            lambda i, j, k: inner.apply(unit(i), unit(k)),
            lambda i, j, k: vadd(F, f.apply(unit(k)), zero.apply(unit(i), unit(j))),
            lambda i, j: (),
            lambda i, j: (),
            lambda i: (),
            lambda i, j: vadd(F, inner.apply(unit(i), unit(i)), inner.apply(unit(j), unit(j))),
            lambda i, j: vsub(F, inner.apply(unit(j), unit(i)), inner.apply(unit(i), unit(j))),
            lambda i, j: vneg(F, g.apply(unit(i), inner.apply(unit(i), unit(j)))),
            lambda i, j: outer.apply(f.apply(unit(i)), f.apply(unit(j))),
        ]
        for (dims, t), oracle in zip(cases, oracles):
            dim = t.space.dim
            [got] = evaluate(dims, t)
            want = [densify(v, dim) for v in oracle_values(dims, lambda idx: oracle(*idx))]
            assert [canonical(F, v, dim) for v in got] == want, t
            if len(dims) == 2:  # the map, read on each pair by BilMap.apply
                bm = bilinear_from_term(*(spaces[d] for d in dims), t.space, t)
                pairs = itertools.product(*map(range, dims))
                assert [canonical(F, bm.apply(unit(i), unit(j)), dim) for i, j in pairs] == want


def flat_index(F, dims):
    """A term whose value on the tuple idx is b_k, k the place of idx in
    lexicographic order, built from a Family leaf and Bil nodes, and its space."""
    flat = Space(F, tuple(range(dims[0])))
    t = Family(0, flat.basis())
    for p, width in enumerate(dims[1:], 1):
        at_p = Space(F, tuple(range(width)))
        wider = Space(F, tuple(range(flat.dim * width)))
        pair = bilinear_from_rule(flat, at_p, wider, lambda a, i, w=width: ((a * w + i, 1),))
        t, flat = Bil(pair, t, Basis(p)), wider
    return t, flat


def first_mismatch(tag, dims, lhs, rhs, dim):
    """The report of a per-tuple sweep of the oracles lhs = rhs, which
    stops at the first tuple where they differ."""
    for idx in itertools.product(*map(range, dims)):
        u, v = lhs(idx), rhs(idx)
        if u != v:
            return AxiomCheck(tag, False, Witness(idx, densify(u, dim), densify(v, dim)))
    return AxiomCheck(tag, True)


@settings(max_examples=100, derandomize=True, database=None)
@given(term_cases(), st.data())
def test_terms_of_a_perturbed_law_fail_where_a_per_tuple_sweep_does(case, data):
    # the law t = t + bump, bump nonzero from the first, a middle or the
    # last tuple on, at that tuple and at those of the three after it; and
    # t = t, which passes
    F, dims, space, (t, oracle) = case
    n = len(oracle_values(dims, oracle))
    if t.space is None:
        f = from_columns(space, space, space.basis())
        t, oracle = Lin(f, t), (lambda idx, o=oracle: f.apply(o(idx)))
    assert sweep("T", dims, t, t) == AxiomCheck("T", True)
    if n == 0 or space.dim == 0:
        return
    tuples = list(itertools.product(*map(range, dims)))
    marks = sorted({0, n // 2, n - 1})
    for k in marks:
        bump = ((data.draw(st.integers(0, space.dim - 1)), F.of(data.draw(st.integers(1, 4)))),)
        bumped = {tuples[j] for j in marks if j >= k}

        def moved(idx):
            return vadd(F, oracle(idx), bump if idx in bumped else ())

        index, flat = flat_index(F, dims)
        cols = [bump if j in marks and j >= k else () for j in range(n)]
        perturbed = t + Lin(from_columns(flat, space, cols), index)
        for lhs, rhs, ol, orr in ((t, perturbed, oracle, moved), (perturbed, t, moved, oracle)):
            got = sweep("T", dims, lhs, rhs)
            assert got == first_mismatch("T", dims, ol, orr, space.dim)
            assert got.witness.basis_tuple == tuples[k]


def test_terms_refuse_what_does_not_fit():
    F = QQ
    A, B3 = space(2, "a"), space(3, "b")
    f, g = from_columns(A, B3, [(), ()]), from_columns(B3, A, [(), (), ()])
    with pytest.raises(ValueError):
        Lin(g, Lin(g, b0))  # g's codomain is not its domain
    with pytest.raises(ValueError):
        Bil(zero_bilmap(A, A, B3), Lin(f, b0), b1)
    with pytest.raises(ValueError):
        Lin(f, b0) + Lin(g, b0)  # a sum of vectors of two spaces
    with pytest.raises(ValueError):
        Family(0, [(), ()]) + b0  # no map gives the field
    with pytest.raises(ValueError):
        evaluate((3,), Lin(f, b0))  # position 0 has 3 indices, f's domain 2
    with pytest.raises(ValueError):
        evaluate((2,), Bil(zero_bilmap(A, A, B3), b0, b1))  # no position 1
    # a basis position read by a map whose domain is not the space that
    # bilinear_from_term indexes by that position, though of its dimension
    X, m = space(2, "c"), zero_bilmap(A, A, A)
    h = from_columns(A, A, [(), ()])
    for t in (Bil(m, Lin(h, b0), b1), Bil(m, b1, Lin(h, b0)), Lin(h, b0) + Bil(m, b1, b1)):
        with pytest.raises(ValueError):
            bilinear_from_term(X, X, A, t)
        bilinear_from_term(A, A, A, t)  # the maps' own spaces


def _four_spaces():
    """Maps f: A -> C, g: B -> C and h: A -> D, on distinct 2-dimensional spaces."""
    A, B, C, D = (space(2, stem) for stem in "abcd")
    pairs = (A, C), (B, C), (A, D)
    return [from_columns(dom, cod, [((0, 1),), ((1, 1),)]) for dom, cod in pairs]


@pytest.mark.parametrize(
    "case",
    [
        "position read in two spaces",
        "sides in two spaces",
        "bare sum operand in another space",
        "bare law side in another space",
    ],
)
def test_a_position_and_a_law_each_lie_in_one_space(case):
    # each case would give values or a report if a position were checked
    # against a map's dimension only, or a law's witness space were given
    f, g, h = _four_spaces()
    with pytest.raises(ValueError):
        if case == "position read in two spaces":  # b0 indexes A for f and B for g
            evaluate((2,), Lin(f, b0) + Lin(g, b0))
        elif case == "sides in two spaces":  # C and D
            sweep("T", (2,), Lin(f, b0), Lin(h, b0))
        elif case == "bare sum operand in another space":  # b0 indexes A, read in C
            evaluate((2,), Lin(f, b0) + b0)
        else:
            sweep("T", (2,), Lin(f, b0), b0)


def test_a_law_takes_its_witness_space_from_its_sides():
    f, g, h = _four_spaces()
    ident = identity_map(f.codomain)
    # either side may give the space, where a bare side is read
    assert sweep("T", (2,), Lin(ident, b0), b0) == AxiomCheck("T", True)
    assert sweep("T", (2,), b0, Lin(ident, b0)) == AxiomCheck("T", True)
    # the witness is dense in the space of the sides
    lhs, rhs = Lin(ident, Lin(f, b0)), Lin(from_columns(f.domain, f.codomain, [(), ()]), b0)
    want = AxiomCheck("T", False, Witness((0,), (1, 0), (0, 0)))
    assert sweep("T", (2,), lhs, rhs) == want
    with pytest.raises(ValueError):  # no map on either side to give a space
        sweep("T", (2,), b0, Family(0, [(), ()]))
