import itertools

import pytest

from braidalg.algebra import Algebra, catalog, is_lie
from braidalg.braid import validate_braiding_xmod_lie
from braidalg import natensor
from braidalg.cli import main
from braidalg.errors import InternalInvariantViolation, InvalidInput, NotLie
from braidalg.fields import GF, QQ
from braidalg.linear import Space, Subspace, bilinear_from_rule
from braidalg.natensor import (
    TensorSquare,
    _bracket_map,
    antisymmetry_consequence,
    tensor_braiding,
    tensor_square,
    tensor_xmod,
)
from braidalg.xmod import validate_xmod_lie

from conftest import densify, load_script, sheared, sparse


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_abelian_tensor_square_dimension(n):
    ts = tensor_square(catalog(f"Ab({n})", QQ))
    assert ts.carrier.dim == n * n
    # zero bracket on the carrier
    z = ts.carrier.space.zero()
    for i in range(ts.carrier.dim):
        for j in range(ts.carrier.dim):
            assert ts.carrier.mult.on_basis(i, j) == z


def test_sl2_tensor_square_dimension():
    assert tensor_square(catalog("sl2", QQ)).carrier.dim == 3


def test_heis3_tensor_square_dimension():
    assert tensor_square(catalog("Heis3", QQ)).carrier.dim == 6


@pytest.mark.parametrize(
    "name,make",
    (("sl2", "sl2"), ("Heis3", "heis3")),
)
def test_dimensions_match_brute_force_oracle(name, make):
    """The package quotient dimension equals dim(M)^2 minus the rank of
    the relation span computed by the independent oracle script."""
    oracle = load_script("tensor_rank_oracle")
    c = getattr(oracle, make)()
    n = len(c)
    rank = oracle.relation_rank(c)
    ts = tensor_square(catalog(name, QQ))
    assert ts.carrier.dim == n * n - rank


def test_boundary_of_e_tensor_f_is_h():
    a = catalog("sl2", QQ)  # basis h, e, f
    ts = tensor_square(a)
    x = tensor_xmod(ts)
    e_tensor_f = ts.pure.on_basis(1, 2)
    assert x.boundary.apply(e_tensor_f) == a.space.basis_vector(0)


def assert_tensor_braiding_valid(ts):
    assert is_lie(ts.carrier)
    assert validate_xmod_lie(tensor_xmod(ts)).ok
    b = tensor_braiding(ts)
    rep = validate_braiding_xmod_lie(b)
    assert rep.ok
    assert {e.tag for e in rep.entries} >= {f"BLie{i}" for i in range(1, 7)}
    assert antisymmetry_consequence(ts).ok


@pytest.mark.parametrize("name", ("sl2", "Heis3", "gl2", "Ab(3)"))
def test_tensor_xmod_and_braiding_validate(name):
    assert_tensor_braiding_valid(tensor_square(catalog(name, QQ)))


def test_gl2_over_f2_tensor_square():
    # the two families alone leave [t,t] = mu(t)(x)mu(t) nonzero here
    ts = tensor_square(catalog("gl2", GF(2)))
    assert ts.carrier.dim == 4
    assert_tensor_braiding_valid(ts)


GL2_F2 = """field Fp 2
algebra A basis e11, e12, e21, e22 {
  e11*e12 = e12;  e11*e21 = e21;  e12*e11 = e12;  e12*e21 = e11 + e22;
  e12*e22 = e12;  e21*e11 = e21;  e21*e12 = e11 + e22;  e21*e22 = e21;
  e22*e12 = e12;  e22*e21 = e21;
}
"""


@pytest.mark.parametrize("kind", ("natensor", "tensor-xmod"))
def test_construct_on_gl2_over_f2_succeeds(kind, tmp_path, capsys):
    path = tmp_path / "gl2.alg"
    path.write_text(GL2_F2)
    assert main(["construct", kind, str(path), "--subject", "A"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "algebra A_T_M basis e21_e12, e22_e12, e22_e21, e22_e22 {" in out


def test_gl4_tensor_square_is_gl4():
    """sl(n) is perfect with H_2 = 0 in characteristic 0, so
    sl(n) (x) sl(n) = sl(n); with gl(n) = sl(n) + k, gl(4) (x) gl(4) has
    dimension 16 and its boundary has image [M,M] = sl(4)."""
    m = catalog("gl(4)", QQ)
    ts = tensor_square(m)
    assert ts.carrier.dim == 16
    boundary = tensor_xmod(ts).boundary
    image = Subspace.span(m.space, [boundary.column(p) for p in range(16)])
    derived = Subspace.span(m.space, [m.mult.on_basis(i, j) for i in range(16) for j in range(16)])
    assert image == derived
    assert image.dim == 15


def full_relation_span(m, amb):
    """Both families on all n^3 basis triples, plus t(x)t for every t in
    [M,M]: c(x)c and c(x)d + d(x)c over a basis of [M,M], whose span is
    that of all t(x)t in every characteristic."""
    F, n = m.field, m.dim

    def e(i):
        return tuple(F.one() if k == i else F.zero() for k in range(n))

    def b(i, j):
        return densify(m.mult.on_basis(i, j), n)

    def outer(u, v):
        return tuple(F.mul(x, y) for x in u for y in v)

    def comb(p, q, r):  # p - q + r
        return tuple(F.add(F.sub(x, y), z) for x, y, z in zip(p, q, r))

    rows = []
    for i, j, k in itertools.product(range(n), repeat=3):
        rows.append(comb(outer(b(i, j), e(k)), outer(e(i), b(j, k)), outer(e(j), b(i, k))))
        rows.append(comb(outer(e(i), b(j, k)), outer(b(k, i), e(j)), outer(b(j, i), e(k))))
    families = Subspace.span(amb, map(sparse, rows))
    derived = Subspace.span(m.space, [sparse(b(i, j)) for i in range(n) for j in range(n)]).basis
    derived = [densify(c, n) for c in derived]
    for p, c in enumerate(derived):
        rows.append(outer(c, c))
        for d in derived[p + 1 :]:
            rows.append(tuple(map(F.add, outer(c, d), outer(d, c))))
    return families, Subspace.span(amb, map(sparse, rows))


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(5)), ids=str)
@pytest.mark.parametrize("name", ("sl2", "Heis3", "gl(2)", "gl(3)", "sheared gl(2)"))
def test_reduced_relations_span_the_full_families(name, field):
    """tensor_square builds family 1 on i < j, family 2 on j < k and
    c(x)c on a basis c of [M,M] only; the span is the full one, and the
    bracket map mu(b_i (x) b_j) = [b_i, b_j] vanishes on it (by Jacobi and
    alternation), which is what tensor_square asserts."""
    if name.startswith("sheared"):
        m = sheared(catalog(name.split()[1], field), 1, 0, field.one())
    else:
        m = catalog(name, field)
    ts = tensor_square(m)
    families, full = full_relation_span(m, ts.relations.ambient)
    assert ts.relations == full
    if field.characteristic != 2:  # then the t(x)t rows already lie in R
        assert families == full
    n = m.dim
    zero = (field.zero(),) * n
    for r in ts.relations.basis:
        mu = zero
        for p, c in enumerate(densify(r, n * n)):
            bracket = densify(m.mult.on_basis(*divmod(p, n)), n)
            mu = tuple(field.add(x, field.mul(c, y)) for x, y in zip(mu, bracket))
        assert mu == zero


def test_basis_invariance_of_dimension():
    """Relabeling plus a change of basis leaves dim T unchanged."""
    a = catalog("Heis3", QQ)
    sp = Space(QQ, ("p", "q", "r"))
    one = QQ.one()

    # new basis p = x, q = x + y, r = z: [p, q] = [x, y] = z = r
    def rule(i, j):
        if (i, j) == (0, 1):
            return sparse((QQ.zero(), QQ.zero(), one))
        if (i, j) == (1, 0):
            return sparse((QQ.zero(), QQ.zero(), QQ.neg(one)))
        return sp.zero()

    b = Algebra(sp, bilinear_from_rule(sp, sp, sp, rule))
    assert is_lie(b)
    assert tensor_square(b).carrier.dim == tensor_square(a).carrier.dim


def test_tensor_square_rejects_non_lie():
    with pytest.raises(NotLie):
        tensor_square(catalog("Mat(2)", QQ))


def test_tensor_square_postcondition_is_an_internal_invariant(monkeypatch):
    # the input check passes; a carrier that is not Lie is a broken theorem
    verdicts = iter((True, False))
    monkeypatch.setattr(natensor, "is_lie", lambda a: next(verdicts))
    with pytest.raises(InternalInvariantViolation):
        tensor_square(catalog("sl2", QQ))


def test_tensor_square_descent_is_an_internal_invariant(monkeypatch):
    # mu vanishes on the relations by Jacobi and alternation; were it not
    # to, the theorem that the bracket descends would be broken
    monkeypatch.setattr(natensor, "is_zero", lambda v: False)
    with pytest.raises(InternalInvariantViolation) as exc:
        tensor_square(catalog("sl2", QQ))
    assert str(exc.value) == "bracket map does not vanish on the relation span"


@pytest.mark.parametrize("F", (QQ, GF(2)), ids=str)
@pytest.mark.parametrize("name", ("sl2", "Heis3", "gl(2)"))
def test_tensor_square_keeps_its_boundary(name, F):
    # the boundary mu o lift that the induced bracket reads is the one the
    # tensor crossed module takes: d(m1 (x) m2) = [m1, m2]
    m = catalog(name, F)
    ts = tensor_square(m)
    assert ts.boundary == _bracket_map(m, ts.relations.ambient).after(ts.lift)
    assert tensor_xmod(ts).boundary is ts.boundary
    for i, j in itertools.product(range(m.dim), repeat=2):
        assert ts.boundary.apply(ts.pure.on_basis(i, j)) == m.mult.on_basis(i, j)


def test_tensor_xmod_descent_is_an_internal_invariant():
    ts = tensor_square(catalog("sl2", QQ))
    amb = ts.relations.ambient
    # h (x) e is no relation: e acts on it as [e, h] (x) e = -2 e (x) e,
    # which its span does not contain
    relations = Subspace.span(amb, [amb.basis_vector(1)])
    bad = TensorSquare(ts.base, ts.carrier, ts.pure, relations, ts.proj, ts.lift, ts.boundary)
    with pytest.raises(InternalInvariantViolation):
        tensor_xmod(bad)


# (a, a_a) and (a_a, a) would both be labelled a_a_a in M (x) M
COLLIDING = "label 'a_a_a' of M (x) M names two basis pairs"


def test_tensor_square_refuses_colliding_labels():
    space = Space(QQ, ("a", "a_a"))
    zero = bilinear_from_rule(space, space, space, lambda i, j: space.zero())
    with pytest.raises(InvalidInput) as exc:
        tensor_square(Algebra(space, zero))
    assert str(exc.value) == COLLIDING


@pytest.mark.parametrize("kind", ("natensor", "tensor-xmod"))
def test_construct_on_colliding_labels_exits_two(kind, tmp_path, capsys):
    path = tmp_path / "a.alg"
    path.write_text("field Q\nalgebra A basis a, a_a antisymmetric { }\n")
    assert main(["construct", kind, str(path), "--subject", "A"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {COLLIDING}\n"
