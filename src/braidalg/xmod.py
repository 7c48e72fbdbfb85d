"""Crossed modules of associative and Lie algebras.

Validators emit one report entry per displayed equality; XAs1/XAs2 each
cover two equalities, so those tags appear twice in a report.
"""

from __future__ import annotations

from .action import (
    AssocAction,
    LieAction,
    _induced_lie_action,
    adjoint_action,
    self_action,
    validate_assoc_action,
    validate_lie_action,
)
from .algebra import (
    Algebra,
    hom_law,
    intertwining_law,
    is_associative,
    is_homomorphism,
    is_lie,
)
from .errors import InvalidXMod, NotAssociative, NotLie
from .linear import Bil, Lin, LinMap, b0, b1, identity_map
from .record import Record
from .report import ValidationReport, merge, sweep


class _XMod(Record):
    """What both flavors share: an action of N on M and boundary: M -> N."""

    def __post_init__(self):
        if self.boundary.domain != self.m.space or self.boundary.codomain != self.n.space:
            raise ValueError("boundary must map M -> N")

    @property
    def m(self) -> Algebra:
        return self.action.module

    @property
    def n(self) -> Algebra:
        return self.action.actor


class XModAssoc(_XMod):
    """(M, N, * = (*1, *2), boundary) with boundary: M -> N."""

    action: AssocAction
    boundary: LinMap


class XModLie(_XMod):
    """(M, N, dot, boundary) with boundary: M -> N."""

    action: LieAction
    boundary: LinMap


class XModMorphism(Record):
    f1: LinMap  # M -> M'
    f2: LinMap  # N -> N'


def validate_xmod_assoc(x: XModAssoc, subject: str = "xmod") -> ValidationReport:
    """XAs1 (both equalities) and XAs2 (both equalities) on basis pairs."""
    M, N = x.m, x.n
    s1, s2, d, nm, mm = x.action.star1, x.action.star2, x.boundary, N.mult, M.mult
    n, m = N.dim, M.dim
    laws = [
        ("XAs1", (n, m), Lin(d, Bil(s1, b0, b1)), Bil(nm, b0, Lin(d, b1)), n),
        ("XAs1", (m, n), Lin(d, Bil(s2, b0, b1)), Bil(nm, Lin(d, b0), b1), n),
        ("XAs2", (m, m), Bil(s1, Lin(d, b0), b1), Bil(mm, b0, b1), m),
        ("XAs2", (m, m), Bil(s2, b0, Lin(d, b1)), Bil(mm, b0, b1), m),
    ]
    return merge(subject, [sweep(*law) for law in laws])


def validate_xmod_lie(x: XModLie, subject: str = "xmod") -> ValidationReport:
    """XLie1 and XLie2 on basis pairs."""
    M, N = x.m, x.n
    dot, d = x.action.dot, x.boundary
    n, m = N.dim, M.dim
    laws = [
        ("XLie1", (n, m), Lin(d, Bil(dot, b0, b1)), Bil(N.mult, b0, Lin(d, b1)), n),
        ("XLie2", (m, m), Bil(dot, Lin(d, b0), b1), Bil(M.mult, b0, b1), m),
    ]
    return merge(subject, [sweep(*law) for law in laws])


def require_valid_xmod_assoc(x: XModAssoc):
    """Structural preconditions plus XAs axioms; raises InvalidXMod."""
    if not (is_associative(x.m) and is_associative(x.n)):
        raise InvalidXMod("crossed module algebras must be associative")
    if not is_homomorphism(x.boundary, x.m, x.n):
        raise InvalidXMod("boundary is not an algebra homomorphism")
    validate_assoc_action(x.action).require(InvalidXMod, "invalid associative action")
    validate_xmod_assoc(x).require(InvalidXMod, "crossed module axioms fail")


def require_valid_xmod_lie(x: XModLie):
    if not (is_lie(x.m) and is_lie(x.n)):
        raise InvalidXMod("crossed module algebras must be Lie")
    if not is_homomorphism(x.boundary, x.m, x.n):
        raise InvalidXMod("boundary is not an algebra homomorphism")
    validate_lie_action(x.action).require(InvalidXMod, "invalid Lie action")
    validate_xmod_lie(x).require(InvalidXMod, "crossed module axioms fail")


def xmod_liefy(x: XModAssoc) -> XModLie:
    """(M^L, N^L, [-,-]_*, same boundary)."""
    require_valid_xmod_assoc(x)
    return XModLie(_induced_lie_action(x.action), x.boundary)


def identity_xmod_assoc(a: Algebra) -> XModAssoc:
    """(M, M, (*, *), Id_M)."""
    if not is_associative(a):
        raise NotAssociative("identity crossed module needs an associative algebra")
    return XModAssoc(self_action(a), identity_map(a.space))


def identity_xmod_lie(a: Algebra) -> XModLie:
    """(M, M, [-,-], Id_M)."""
    if not is_lie(a):
        raise NotLie("identity crossed module needs a Lie algebra")
    return XModLie(adjoint_action(a), identity_map(a.space))


def validate_xmod_morphism(
    phi: XModMorphism,
    source: XModAssoc | XModLie,
    target: XModAssoc | XModLie,
    subject: str = "morphism",
) -> ValidationReport:
    """Equivariance and boundary-square conditions for (f1, f2).

    Works for both flavors; accepts raw maps so the natural-isomorphism
    checks can use it as an oracle. Tags: XAssH1/XAssH2 or XLieH1/XLieH2,
    preceded by Hom entries for f1 and f2 being algebra homomorphisms.
    """
    assoc = isinstance(source, XModAssoc)
    if assoc != isinstance(target, XModAssoc):
        raise ValueError("source and target flavors differ")
    f1, f2 = phi.f1, phi.f2
    sm, sn, tm, tn = source.m, source.n, target.m, target.n
    sa, ta = source.action, target.action
    laws = [hom_law("Hom", f1, sm, tm), hom_law("Hom", f2, sn, tn)]
    if assoc:
        laws.append(intertwining_law("XAssH1", f1, sa.star1, ta.star1, f2, f1))
        laws.append(intertwining_law("XAssH1", f1, sa.star2, ta.star2, f1, f2))
    else:
        laws.append(intertwining_law("XLieH1", f1, sa.dot, ta.dot, f2, f1))
    square = Lin(target.boundary, Lin(f1, b0)), Lin(f2, Lin(source.boundary, b0))
    laws.append(("XAssH2" if assoc else "XLieH2", (sm.dim,), *square, tn.dim))
    return merge(subject, [sweep(*law) for law in laws])
