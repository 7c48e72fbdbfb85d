"""The scalar normal form: over Q an integral value is an int, any other a
Fraction; F_p is unchanged; printed output does not see the difference."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidalg import cli
from braidalg.fields import GF, QQ
from braidalg.linear import Space, Subspace

from conftest import MUTATIONS, densify, sparse

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def normal(c):
    """Is `c` a rational in normal form?"""
    if type(c) is int:
        return True
    return type(c) is Fraction and c.denominator != 1


@pytest.mark.parametrize(
    "got, want",
    [
        (QQ.zero(), 0),
        (QQ.one(), 1),
        (QQ.of(3), 3),
        (QQ.of(Fraction(6, 3)), 2),
        (QQ.of("4/2"), 2),
        (QQ.of("-7"), -7),
        (QQ.of("1/2"), Fraction(1, 2)),
        (QQ.add(Fraction(1, 2), Fraction(1, 2)), 1),
        (QQ.add(Fraction(1, 2), 1), Fraction(3, 2)),
        (QQ.sub(Fraction(5, 2), Fraction(1, 2)), 2),
        (QQ.sub(3, 5), -2),
        (QQ.mul(Fraction(1, 2), 2), 1),
        (QQ.mul(Fraction(1, 2), 3), Fraction(3, 2)),
        (QQ.neg(Fraction(4, 1)), -4),
        (QQ.neg(Fraction(1, 3)), Fraction(-1, 3)),
        (QQ.inv(2), Fraction(1, 2)),
        (QQ.inv(-1), -1),
        (QQ.inv(Fraction(1, 3)), 3),
        (QQ.div(6, 3), 2),
        (QQ.div(3, 6), Fraction(1, 2)),
        (QQ.div(Fraction(3, 2), Fraction(3, 4)), 2),
    ],
)
def test_rational_results_are_int_exactly_when_integral(got, want):
    assert got == want
    assert type(got) is (int if Fraction(want).denominator == 1 else Fraction)


@given(rationals, rationals)
def test_rational_ops_keep_the_normal_form(a, b):
    a, b = QQ.of(a), QQ.of(b)
    results = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)]
    if b != 0:
        results += [QQ.inv(b), QQ.div(a, b)]
    assert all(normal(c) for c in results)
    assert results[:4] == [a + b, a - b, a * b, -a]


@given(st.sampled_from((2, 5, 7)), st.data())
def test_prime_field_ops_are_unchanged(p, data):
    F = GF(p)
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    assert (F.zero(), F.one()) == (0, 1)
    assert F.add(a, b) == (a + b) % p
    assert F.sub(a, b) == (a - b) % p
    assert F.mul(a, b) == a * b % p
    assert F.neg(a) == -a % p
    assert F.of(a + 3 * p) == a
    if b:
        assert F.inv(b) * b % p == 1
        assert F.div(a, b) == a * pow(b, -1, p) % p
        assert F.of(f"{a}/{b}") == F.div(a, b)
        assert F.of(Fraction(a, b)) == F.div(a, b)
    results = [F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a), F.of(a)]
    assert all(type(c) is int and 0 <= c < p for c in results)


def test_span_of_int_and_fraction_rows_is_one_subspace():
    sp = Space(QQ, ("x", "y", "z"))
    rows = [(2, 4, 0), (1, 3, 1), (3, 7, 1)]
    as_ints = Subspace.span(sp, map(sparse, rows))
    as_fractions = Subspace.span(sp, [sparse(tuple(map(Fraction, r))) for r in rows])
    assert as_ints == as_fractions
    assert hash(as_ints) == hash(as_fractions)
    assert tuple(densify(r, 3) for r in as_ints.basis) == ((1, 0, -2), (0, 1, 1))
    assert all(normal(c) for row in as_fractions.basis for _, c in row)


def test_pivots_are_computed_once_per_subspace():
    sp = Space(QQ, ("x", "y", "z"))
    sub = Subspace.span(sp, map(sparse, [(1, 2, 3), (0, 1, 1)]))
    pivots = sub.pivots()
    for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 3, 4)]:
        sub.reduce(sparse(v))
        sub.contains(sparse(v))
        sub.coords(sparse(v))
    # the tuple derived with the subspace, not one made per call
    assert sub.pivots() is sub.pivots() is pivots
    assert pivots == (0, 1)
    assert Subspace.span(sp, [sparse((0, 0, 1))]).pivots() == (2,)


def _validate_lines(path, capsys):
    assert cli.main(["validate", str(path)]) == 1
    return capsys.readouterr().out.splitlines()


def test_rational_text_witness_keeps_the_fraction_spelling(capsys):
    lines = _validate_lines(f"{MUTATIONS}/aas1.alg", capsys)
    assert lines[0] == (
        "aas1: AAs1: fail at (0, 0, 0) lhs=[Fraction(0, 1), Fraction(1, 1)] "
        "rhs=[Fraction(0, 1), Fraction(0, 1)]"
    )


def test_non_integral_text_witness(tmp_path, capsys):
    with open(f"{MUTATIONS}/aas1.alg", encoding="utf-8") as fh:
        text = fh.read().replace("m1*m1 = m2;", "m1*m1 = 1/2 m2;")
    path = tmp_path / "half.alg"
    path.write_text(text, encoding="utf-8")
    assert _validate_lines(path, capsys)[0] == (
        "aas1: AAs1: fail at (0, 0, 0) lhs=[Fraction(0, 1), Fraction(1, 2)] "
        "rhs=[Fraction(0, 1), Fraction(0, 1)]"
    )


def test_prime_field_text_witness_prints_ints(tmp_path, capsys):
    with open(f"{MUTATIONS}/aas1.alg", encoding="utf-8") as fh:
        text = fh.read().replace("field Q", "field Fp 5", 1)
    path = tmp_path / "aas1_f5.alg"
    path.write_text(text, encoding="utf-8")
    assert _validate_lines(path, capsys)[0] == (
        "aas1: AAs1: fail at (0, 0, 0) lhs=[0, 1] rhs=[0, 0]"
    )


def test_group_text_witness_prints_group_elements(capsys):
    # group elements are ints whatever the document's field
    lines = _validate_lines(f"{MUTATIONS}/gract.alg", capsys)
    assert "gract: GrAct: fail at (1, 1, 1) lhs=[1] rhs=[0]" in lines
