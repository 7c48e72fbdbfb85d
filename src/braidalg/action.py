"""Associative actions (AAs1-6), Lie actions (ALie1-2), semidirect products."""

from __future__ import annotations

from .algebra import Algebra, _liefy, is_associative, is_lie
from .errors import InvalidAction
from .linear import (
    BilMap,
    LinMap,
    Space,
    bilinear_from_rule,
    direct_sum,
    vadd,
    vsub,
    zero_bilmap,
)
from .record import Record
from .report import ValidationReport, merge, sweep


class AssocAction(Record):
    """Associative action of `actor` (N) on `module` (M): * = (*1, *2)."""

    actor: Algebra
    module: Algebra
    star1: BilMap  # N x M -> M
    star2: BilMap  # M x N -> M

    def __post_init__(self):
        n, m = self.actor.space, self.module.space
        if (self.star1.left, self.star1.right, self.star1.codomain) != (n, m, m):
            raise ValueError("star1 must map N x M -> M")
        if (self.star2.left, self.star2.right, self.star2.codomain) != (m, n, m):
            raise ValueError("star2 must map M x N -> M")


class LieAction(Record):
    """Lie left-action of `actor` (N) on `module` (M)."""

    actor: Algebra
    module: Algebra
    dot: BilMap  # N x M -> M

    def __post_init__(self):
        n, m = self.actor.space, self.module.space
        if (self.dot.left, self.dot.right, self.dot.codomain) != (n, m, m):
            raise ValueError("dot must map N x M -> M")


def self_action(a: Algebra) -> AssocAction:
    """The pair (*, *): an associative algebra acting on itself."""
    return AssocAction(a, a, a.mult, a.mult)


def adjoint_action(a: Algebra) -> LieAction:
    """Ad(x)(y) = [x, y]: a Lie algebra acting on itself."""
    return LieAction(a, a, a.mult)


def zero_action_assoc(actor: Algebra, module: Algebra) -> AssocAction:
    n, m = actor.space, module.space
    return AssocAction(actor, module, zero_bilmap(n, m, m), zero_bilmap(m, n, m))


def zero_action_lie(actor: Algebra, module: Algebra) -> LieAction:
    n, m = actor.space, module.space
    return LieAction(actor, module, zero_bilmap(n, m, m))


def validate_assoc_action(a: AssocAction, subject: str = "action") -> ValidationReport:
    """Axioms AAs1..AAs6 on basis triples, with witnesses."""
    N, M = a.actor, a.module
    s1, s2 = a.star1, a.star2

    laws = [  # (tag, dims, law), each law's sides in M
        (
            "AAs1",
            (N.dim, M.dim, M.dim),
            lambda n, m, m2: (
                s1.apply_left(n, M.mult.on_basis(m, m2)),
                M.mult.apply_right(s1.on_basis(n, m), m2),
            ),
        ),
        (
            "AAs2",
            (N.dim, M.dim, N.dim),
            lambda n, m, n2: (
                s1.apply_left(n, s2.on_basis(m, n2)),
                s2.apply_right(s1.on_basis(n, m), n2),
            ),
        ),
        (
            "AAs3",
            (N.dim, N.dim, M.dim),
            lambda n, n2, m: (
                s1.apply_left(n, s1.on_basis(n2, m)),
                s1.apply_right(N.mult.on_basis(n, n2), m),
            ),
        ),
        (
            "AAs4",
            (M.dim, N.dim, N.dim),
            lambda m, n, n2: (
                s2.apply_left(m, N.mult.on_basis(n, n2)),
                s2.apply_right(s2.on_basis(m, n), n2),
            ),
        ),
        (
            "AAs5",
            (M.dim, N.dim, M.dim),
            lambda m, n, m2: (
                M.mult.apply_left(m, s1.on_basis(n, m2)),
                M.mult.apply_right(s2.on_basis(m, n), m2),
            ),
        ),
        (
            "AAs6",
            (M.dim, M.dim, N.dim),
            lambda m, m2, n: (
                M.mult.apply_left(m, s2.on_basis(m2, n)),
                s2.apply_right(M.mult.on_basis(m, m2), n),
            ),
        ),
    ]
    return merge(subject, [sweep(*law, M.dim) for law in laws])


def validate_lie_action(a: LieAction, subject: str = "action") -> ValidationReport:
    """Axioms ALie1 and ALie2 on basis triples."""
    N, M = a.actor, a.module
    F = M.field
    dot = a.dot

    laws = [  # (tag, dims, law), each law's sides in M
        (
            "ALie1",
            (N.dim, N.dim, M.dim),
            lambda n, n2, m: (
                dot.apply_right(N.mult.on_basis(n, n2), m),
                vsub(
                    F,
                    dot.apply_left(n, dot.on_basis(n2, m)),
                    dot.apply_left(n2, dot.on_basis(n, m)),
                ),
            ),
        ),
        (
            "ALie2",
            (N.dim, M.dim, M.dim),
            lambda n, m, m2: (
                dot.apply_left(n, M.mult.on_basis(m, m2)),
                vadd(
                    F,
                    M.mult.apply_right(dot.on_basis(n, m), m2),
                    M.mult.apply_left(m, dot.on_basis(n, m2)),
                ),
            ),
        ),
    ]
    return merge(subject, [sweep(*law, M.dim) for law in laws])


def _assoc_m_part(a: AssocAction, F, u_m, u_n, v_m, v_n):
    """mm' + n *1 m' + m *2 n'"""
    mm = vadd(F, a.module.product(u_m, v_m), a.star1.apply(u_n, v_m))
    return vadd(F, mm, a.star2.apply(u_m, v_n))


def _lie_m_part(a: LieAction, F, u_m, u_n, v_m, v_n):
    """[m,m'] + n.m' - n'.m"""
    mm = vadd(F, a.module.product(u_m, v_m), a.dot.apply(u_n, v_m))
    return vsub(F, mm, a.dot.apply(v_n, u_m))


# per flavor: its action axioms, the property both algebras need, and the
# module part of the semidirect product
_FLAVORS = {
    AssocAction: (validate_assoc_action, is_associative, _assoc_m_part),
    LieAction: (validate_lie_action, is_lie, _lie_m_part),
}


def _require_valid_action(a: AssocAction | LieAction, flavor: type, message: str):
    """Refuse `a` with InvalidAction unless it is a `flavor` action that
    satisfies that flavor's axioms, with its report, between algebras of
    that flavor."""
    if type(a) is not flavor:
        raise InvalidAction(f"{message}: got {type(a).__name__}")
    validate, holds, _ = _FLAVORS[flavor]
    rep = validate(a)
    rep.require(InvalidAction, message)
    if not (holds(a.actor) and holds(a.module)):
        raise InvalidAction(message, rep)


def induced_lie_action(a: AssocAction) -> LieAction:
    """[n, m]_* = n *1 m - m *2 n, a Lie action of N^L on M^L."""
    _require_valid_action(
        a, AssocAction, "induced_lie_action requires a valid associative action"
    )
    return _induced_lie_action(a)


def _induced_lie_action(a: AssocAction) -> LieAction:
    """induced_lie_action on an action the caller has validated."""
    dot = a.star1.sub(a.star2.swapped())
    return LieAction(_liefy(a.actor), _liefy(a.module), dot)


class Semidirect(Record):
    """Semidirect product algebra with its structural maps (M block first)."""

    algebra: Algebra
    incl_module: LinMap  # M -> M x| N
    incl_actor: LinMap  # N -> M x| N
    proj_module: LinMap  # linear projection onto the M block
    proj_actor: LinMap  # algebra homomorphism onto N


def _semidirect_space(m: Space, n: Space):
    return direct_sum(m, n, left_prefix="m_", right_prefix="n_")


def _semidirect(a: AssocAction | LieAction) -> Semidirect:
    """The semidirect product of an action the caller has validated."""
    M, N = a.module, a.actor
    total, incl_m, incl_n, proj_m, proj_n = _semidirect_space(M.space, N.space)
    F = total.field
    m_part = _FLAVORS[type(a)][2]

    def rule(i, j):
        u_m, u_n = proj_m.column(i), proj_n.column(i)
        v_m, v_n = proj_m.column(j), proj_n.column(j)
        return vadd(
            F,
            incl_m.apply(m_part(a, F, u_m, u_n, v_m, v_n)),
            incl_n.apply(N.product(u_n, v_n)),
        )

    alg = Algebra(total, bilinear_from_rule(total, total, total, rule))
    return Semidirect(alg, incl_m, incl_n, proj_m, proj_n)


def semidirect_assoc(a: AssocAction) -> Semidirect:
    """(m,n)(m',n') = (mm' + n *1 m' + m *2 n', nn')."""
    _require_valid_action(a, AssocAction, "semidirect product requires a valid action")
    return _semidirect(a)


def semidirect_lie(a: LieAction) -> Semidirect:
    """[(m,n),(m',n')] = ([m,m'] + n.m' - n'.m, [n,n'])."""
    _require_valid_action(
        a, LieAction, "semidirect product requires a valid Lie action"
    )
    return _semidirect(a)
