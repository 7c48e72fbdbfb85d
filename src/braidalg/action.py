"""Associative actions (AAs1-6), Lie actions (ALie1-2), semidirect products."""

from __future__ import annotations

from .algebra import ASSOC, LIE, Algebra, has_flavor, liefy
from .errors import InvalidAction, SignatureMismatch
from .linear import (
    Bil,
    BilMap,
    LinMap,
    Space,
    b0,
    b1,
    b2,
    bilinear_from_rule,
    bilinear_from_term,
    concat,
    from_columns,
    zero_bilmap,
)
from .record import Record
from .report import ValidationReport, merge, sweep


class AssocAction(Record):
    """Associative action of `actor` (N) on `module` (M): * = (*1, *2)."""

    flavor = ASSOC  # a class constant, not a field
    actor: Algebra
    module: Algebra
    star1: BilMap  # N x M -> M
    star2: BilMap  # M x N -> M

    def __post_init__(self):
        n, m = self.actor.space, self.module.space
        if (self.star1.left, self.star1.right, self.star1.codomain) != (n, m, m):
            raise SignatureMismatch("star1", "star1 must map N x M -> M")
        if (self.star2.left, self.star2.right, self.star2.codomain) != (m, n, m):
            raise SignatureMismatch("star2", "star2 must map M x N -> M")


class LieAction(Record):
    """Lie left-action of `actor` (N) on `module` (M)."""

    flavor = LIE
    actor: Algebra
    module: Algebra
    dot: BilMap  # N x M -> M

    def __post_init__(self):
        n, m = self.actor.space, self.module.space
        if (self.dot.left, self.dot.right, self.dot.codomain) != (n, m, m):
            raise SignatureMismatch("dot", "dot must map N x M -> M")


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
    s1, s2, nm, mm = a.star1, a.star2, N.mult, M.mult
    n, m = N.dim, M.dim
    laws = [  # (tag, dims, lhs, rhs), each law's sides in M
        ("AAs1", (n, m, m), Bil(s1, b0, Bil(mm, b1, b2)), Bil(mm, Bil(s1, b0, b1), b2)),
        ("AAs2", (n, m, n), Bil(s1, b0, Bil(s2, b1, b2)), Bil(s2, Bil(s1, b0, b1), b2)),
        ("AAs3", (n, n, m), Bil(s1, b0, Bil(s1, b1, b2)), Bil(s1, Bil(nm, b0, b1), b2)),
        ("AAs4", (m, n, n), Bil(s2, b0, Bil(nm, b1, b2)), Bil(s2, Bil(s2, b0, b1), b2)),
        ("AAs5", (m, n, m), Bil(mm, b0, Bil(s1, b1, b2)), Bil(mm, Bil(s2, b0, b1), b2)),
        ("AAs6", (m, m, n), Bil(mm, b0, Bil(s2, b1, b2)), Bil(s2, Bil(mm, b0, b1), b2)),
    ]
    return merge(subject, [sweep(*law) for law in laws])


def validate_lie_action(a: LieAction, subject: str = "action") -> ValidationReport:
    """Axioms ALie1 and ALie2 on basis triples."""
    N, M = a.actor, a.module
    dot, nm, mm = a.dot, N.mult, M.mult
    n, m = N.dim, M.dim
    alie1 = Bil(dot, b0, Bil(dot, b1, b2)) - Bil(dot, b1, Bil(dot, b0, b2))
    alie2 = Bil(mm, Bil(dot, b0, b1), b2) + Bil(mm, b1, Bil(dot, b0, b2))
    laws = [  # (tag, dims, lhs, rhs), each law's sides in M
        ("ALie1", (n, n, m), Bil(dot, Bil(nm, b0, b1), b2), alie1),
        ("ALie2", (n, m, m), Bil(dot, b0, Bil(mm, b1, b2)), alie2),
    ]
    return merge(subject, [sweep(*law) for law in laws])


def _assoc_blocks(a: AssocAction):
    """The products of the semidirect product into M: (m, n) -> m *2 n and
    (n, m) -> n *1 m."""
    return a.star2, a.star1


def _lie_blocks(a: LieAction):
    """The brackets of the semidirect product into M: (m, n) -> -n.m and
    (n, m) -> n.m."""
    n, m = a.actor.space, a.module.space
    return bilinear_from_term(m, n, m, -Bil(a.dot, b1, b0)), a.dot


# per flavor: the two action blocks of the semidirect product, and the
# message it refuses an invalid action with
_FLAVORS = {ASSOC: _assoc_blocks, LIE: _lie_blocks}
SEMIDIRECT_REFUSAL = {
    ASSOC: "semidirect product requires a valid action",
    LIE: "semidirect product requires a valid Lie action",
}


_WORDS = {ASSOC: "associative", LIE: "Lie"}  # each flavor as messages spell it


def require_action_flavor(a: AssocAction | LieAction):
    """Refuse `a` with InvalidAction unless its algebras have its flavor."""
    if not has_flavor(a.flavor, a.actor, a.module):
        raise InvalidAction(f"action algebras must be {_WORDS[a.flavor]}")


def _require_valid_action(a: AssocAction | LieAction, flavor: str, validate, message: str):
    """Refuse `a` with InvalidAction unless it is a `flavor` action that
    passes `validate`, that flavor's axioms, with its report, between
    algebras of that flavor."""
    if a.flavor != flavor:
        raise InvalidAction(f"{message}: got {type(a).__name__}")
    rep = validate(a)
    rep.require(InvalidAction, message)
    if not has_flavor(flavor, a.actor, a.module):
        raise InvalidAction(message, rep)


def induced_lie_action(a: AssocAction) -> LieAction:
    """[n, m]_* = n *1 m - m *2 n, a Lie action of N^L on M^L."""
    message = "induced_lie_action requires a valid associative action"
    _require_valid_action(a, ASSOC, validate_assoc_action, message)
    return _induced_lie_action(a)


def _induced_lie_action(a: AssocAction) -> LieAction:
    """induced_lie_action on an action the caller has validated."""
    n, m = a.actor.space, a.module.space
    dot = bilinear_from_term(n, m, m, Bil(a.star1, b0, b1) - Bil(a.star2, b1, b0))
    return LieAction(liefy(a.actor), liefy(a.module), dot)


class Semidirect(Record):
    """Semidirect product algebra with its structural maps (M block first)."""

    algebra: Algebra
    incl_module: LinMap  # M -> M x| N
    incl_actor: LinMap  # N -> M x| N
    proj_module: LinMap  # linear projection onto the M block
    proj_actor: LinMap  # algebra homomorphism onto N


def _semidirect_space(m: Space, n: Space):
    """The space of M x| N, M block first, with its inclusions and
    projections: (space, incl_m, incl_n, proj_m, proj_n)."""
    total = Space(m.field, tuple("m_" + s for s in m.labels) + tuple("n_" + s for s in n.labels))
    unit = total.basis()
    incl_m = from_columns(m, total, unit[: m.dim])
    incl_n = from_columns(n, total, unit[m.dim :])
    proj_m = from_columns(total, m, m.basis() + [()] * n.dim)
    proj_n = from_columns(total, n, [()] * m.dim + n.basis())
    return total, incl_m, incl_n, proj_m, proj_n


def _semidirect(a: AssocAction | LieAction) -> Semidirect:
    """The semidirect product of an action the caller has validated."""
    M, N = a.module, a.actor
    total, incl_m, incl_n, proj_m, proj_n = _semidirect_space(M.space, N.space)
    mn, nm = _FLAVORS[a.flavor](a)
    m, n = M.dim, N.dim

    def rule(i, j):  # the images into N move past the M block
        if i < m:
            return M.mult.on_basis(i, j) if j < m else mn.on_basis(i, j - m)
        i -= m
        return nm.on_basis(i, j) if j < m else concat([((), m), (N.mult.on_basis(i, j - m), n)])

    alg = Algebra(total, bilinear_from_rule(total, total, total, rule))
    return Semidirect(alg, incl_m, incl_n, proj_m, proj_n)


def semidirect_assoc(a: AssocAction) -> Semidirect:
    """(m,n)(m',n') = (mm' + n *1 m' + m *2 n', nn')."""
    _require_valid_action(a, ASSOC, validate_assoc_action, SEMIDIRECT_REFUSAL[ASSOC])
    return _semidirect(a)


def semidirect_lie(a: LieAction) -> Semidirect:
    """[(m,n),(m',n')] = ([m,m'] + n.m' - n'.m, [n,n'])."""
    _require_valid_action(a, LIE, validate_lie_action, SEMIDIRECT_REFUSAL[LIE])
    return _semidirect(a)
