import pytest

from braidalg.algebra import Algebra, catalog, is_lie
from braidalg.braid import validate_braiding_xmod_lie
from braidalg import natensor
from braidalg.cli import main
from braidalg.errors import InternalInvariantViolation, InvalidInput, NotLie
from braidalg.fields import QQ
from braidalg.linear import Space, Subspace, bilinear_from_rule
from braidalg.natensor import (
    TensorSquare,
    antisymmetry_consequence,
    tensor_braiding,
    tensor_square,
    tensor_xmod,
)
from braidalg.xmod import validate_xmod_lie

from conftest import load_script


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


@pytest.mark.parametrize("name", ("sl2", "Heis3", "gl2", "Ab(3)"))
def test_tensor_xmod_and_braiding_validate(name):
    ts = tensor_square(catalog(name, QQ))
    assert is_lie(ts.carrier)
    assert validate_xmod_lie(tensor_xmod(ts)).ok
    b = tensor_braiding(ts)
    rep = validate_braiding_xmod_lie(b)
    assert rep.ok
    assert {e.tag for e in rep.entries} >= {f"BLie{i}" for i in range(1, 7)}
    assert antisymmetry_consequence(ts).ok


def test_basis_invariance_of_dimension():
    """Relabeling plus a change of basis leaves dim T unchanged."""
    a = catalog("Heis3", QQ)
    sp = Space(QQ, ("p", "q", "r"))
    one = QQ.one()

    # new basis p = x, q = x + y, r = z: [p, q] = [x, y] = z = r
    def rule(i, j):
        if (i, j) == (0, 1):
            return (QQ.zero(), QQ.zero(), one)
        if (i, j) == (1, 0):
            return (QQ.zero(), QQ.zero(), QQ.neg(one))
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


def test_tensor_xmod_descent_is_an_internal_invariant():
    ts = tensor_square(catalog("sl2", QQ))
    amb = ts.relations.ambient
    # h (x) e is no relation: its boundary [h, e] = 2e does not vanish
    relations = Subspace.span(amb, [amb.basis_vector(1)])
    bad = TensorSquare(ts.base, ts.carrier, ts.pure, relations, ts.proj, ts.lift)
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
