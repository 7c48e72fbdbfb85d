import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidalg.algebra import (
    Algebra,
    catalog,
    from_constants,
    is_associative,
    is_homomorphism,
    is_leibniz,
    is_lie,
    liefy,
)
from braidalg.errors import UnknownFixture
from braidalg.fields import GF, QQ
from braidalg.linear import Space, bilinear_from_rule, identity_map

from conftest import densify, sheared, sparse

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
            ij, ji = densify(a.mult.on_basis(i, j), 4), densify(a.mult.on_basis(j, i), 4)
            comm = tuple(QQ.sub(x, y) for x, y in zip(ij, ji))
            assert densify(g.mult.on_basis(i, j), 4) == comm


def test_mat2_dimensions_and_unit():
    a = catalog("Mat(2)", QQ)
    assert a.dim == 4
    # e11 + e22 acts as a two-sided unit
    one = QQ.one()
    unit = sparse((one, QQ.zero(), QQ.zero(), one))
    for i in range(4):
        bv = a.space.basis_vector(i)
        assert a.mult.apply(unit, bv) == bv
        assert a.mult.apply(bv, unit) == bv


def test_identity_is_homomorphism():
    a = catalog("Upper(3)", QQ)
    assert is_homomorphism(identity_map(a.space), a, a)
    # a map off the algebras' spaces is refused, whichever side it misses
    b = catalog("Ab(6)", QQ)
    for f, src, tgt in ((identity_map(a.space), a, b), (identity_map(a.space), b, a)):
        with pytest.raises(ValueError):
            is_homomorphism(f, src, tgt)


def test_from_constants_defaults_zero():
    sp = Space(QQ, ("a", "b"))
    alg = from_constants(sp, {("a", "a"): {"b": 1}})
    assert alg.mult.on_basis(0, 0) == sp.basis_vector(1)
    assert alg.mult.on_basis(0, 1) == sp.zero()
    assert alg.mult.on_basis(1, 1) == sp.zero()


def test_from_constants_refuses_a_label_outside_the_space():
    sp = Space(QQ, ("x", "y"))
    for products in (
        {("x", "y"): {"z": 1}},
        {("x", "z"): {"y": 1}},
        {("z", "x"): {}},
    ):
        with pytest.raises(ValueError, match=r"labels \['z'\] are not in the space"):
            from_constants(sp, products)


def test_from_constants_keeps_the_nonzero_entries_in_index_order():
    sp = Space(GF(5), ("a", "b", "c"))
    alg = from_constants(sp, {("b", "a"): {"c": 7, "a": "1/2", "b": 5}})
    assert alg.mult.on_basis(1, 0) == ((0, 3), (2, 2))
    assert alg.mult.on_basis(0, 1) == ()


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


# `is_lie` checks alternation on i <= j and, only when it holds, Jacobi on
# i < j < k.  The reference below checks both laws on every index pair and
# triple, with `Field` methods alone.


def dense_is_lie(F, t):
    """[b_i,b_j] = t[i][j]: alternation on all n^2 pairs, Jacobi on all n^3
    triples."""
    n = len(t)
    zero = F.zero()
    for i, j in itertools.product(range(n), repeat=2):
        s = t[i][i] if i == j else [F.add(a, b) for a, b in zip(t[i][j], t[j][i])]
        if any(c != zero for c in s):
            return False

    def nested(i, j, k):  # [b_i, [b_j, b_k]]
        out = [zero] * n
        for l, a in enumerate(t[j][k]):
            for q, c in enumerate(t[i][l]):
                out[q] = F.add(out[q], F.mul(a, c))
        return out

    for i, j, k in itertools.product(range(n), repeat=3):
        terms = zip(nested(i, j, k), nested(j, k, i), nested(k, i, j))
        if any(F.add(F.add(x, y), z) != zero for x, y, z in terms):
            return False
    return True


LIE_FIELDS = (QQ, GF(2), GF(3), GF(5))


def lie_scalars(F):
    if F.is_rationals:
        return (st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)).map(F.of)
    return st.integers(0, F.characteristic - 1)


@st.composite
def brackets(draw):
    """A bracket of dimension <= 5 as (field, table): a Lie bracket (b_0
    acting by a derivation on an abelian ideal, or two-step nilpotent, in a
    sheared basis), an alternating one, one antisymmetric off the diagonal
    with any diagonal (in characteristic 2: antisymmetric, not
    alternating), or an arbitrary one."""
    F = draw(st.sampled_from(LIE_FIELDS))
    n = draw(st.integers(0, 5))
    scalar = lie_scalars(F)
    kind = draw(st.sampled_from(("lie", "alternating", "antisymmetric", "arbitrary")))
    zero = (F.zero(),) * n
    t = [[zero] * n for _ in range(n)]

    def vec(lead=0):  # a vector whose first `lead` coordinates are zero
        return zero[:lead] + tuple(draw(scalar) for _ in range(n - lead))

    def put(i, j, v):  # [b_i,b_j] = v = -[b_j,b_i]
        t[i][j], t[j][i] = v, tuple(F.neg(c) for c in v)

    if kind == "arbitrary":
        t = [[vec() for _ in range(n)] for _ in range(n)]
    elif kind == "lie" and n and draw(st.booleans()):
        for i in range(1, n):
            put(0, i, vec(1))
    elif kind == "lie":
        gens = draw(st.integers(0, n))  # b_gens, ... span the centre
        for i, j in itertools.combinations(range(gens), 2):
            put(i, j, vec(gens))
    else:
        for i, j in itertools.combinations(range(n), 2):
            put(i, j, vec())
        if kind == "antisymmetric":
            for i in range(n):
                t[i][i] = vec()
    if kind == "lie" and n >= 2:
        src, dst = draw(st.permutations(range(n)))[:2]
        sp = Space(F, tuple(f"b{i}" for i in range(n)))
        a = sheared(
            Algebra(sp, bilinear_from_rule(sp, sp, sp, lambda i, j: sparse(t[i][j]))),
            src,
            dst,
            draw(scalar),
        )
        t = [[densify(a.mult.on_basis(i, j), n) for j in range(n)] for i in range(n)]
    return F, t


@settings(max_examples=200, derandomize=True, database=None)
@given(brackets())
@example((GF(2), [[(1,)]]))  # [b,b] = b: antisymmetric in characteristic 2
@example((QQ, [[(0, 0), (1, 0)], [(0, 0), (0, 0)]]))  # [b_0,b_1] = b_0 only
def test_is_lie_agrees_with_the_dense_reference(case):
    F, t = case
    n = len(t)
    sp = Space(F, tuple(f"b{i}" for i in range(n)))
    a = Algebra(sp, bilinear_from_rule(sp, sp, sp, lambda i, j: sparse(t[i][j])))
    assert is_lie(a) == dense_is_lie(F, t)
