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
    hom_sweep,
    intertwining_sweep,
    is_associative,
    is_homomorphism,
    is_lie,
)
from .errors import InvalidXMod, NotAssociative, NotLie
from .linear import LinMap, identity_map
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
    s1, s2 = x.action.star1, x.action.star2
    d = x.boundary
    nmul = N.mult

    checks = [
        sweep(
            "XAs1",
            (N.dim, M.dim),
            lambda n, m: (d.apply(s1.on_basis(n, m)), nmul.apply_left(n, d.column(m))),
            N.dim,
        ),
        sweep(
            "XAs1",
            (M.dim, N.dim),
            lambda m, n: (d.apply(s2.on_basis(m, n)), nmul.apply_right(d.column(m), n)),
            N.dim,
        ),
        sweep(
            "XAs2",
            (M.dim, M.dim),
            lambda m, m2: (s1.apply_right(d.column(m), m2), M.mult.on_basis(m, m2)),
            M.dim,
        ),
        sweep(
            "XAs2",
            (M.dim, M.dim),
            lambda m, m2: (s2.apply_left(m, d.column(m2)), M.mult.on_basis(m, m2)),
            M.dim,
        ),
    ]
    return merge(subject, checks)


def validate_xmod_lie(x: XModLie, subject: str = "xmod") -> ValidationReport:
    """XLie1 and XLie2 on basis pairs."""
    M, N = x.m, x.n
    dot = x.action.dot
    d = x.boundary
    nmul = N.mult

    checks = [
        sweep(
            "XLie1",
            (N.dim, M.dim),
            lambda n, m: (d.apply(dot.on_basis(n, m)), nmul.apply_left(n, d.column(m))),
            N.dim,
        ),
        sweep(
            "XLie2",
            (M.dim, M.dim),
            lambda m, m2: (dot.apply_right(d.column(m), m2), M.mult.on_basis(m, m2)),
            M.dim,
        ),
    ]
    return merge(subject, checks)


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
    entries = [hom_sweep("Hom", f1, sm, tm), hom_sweep("Hom", f2, sn, tn)]
    if assoc:
        entries.append(intertwining_sweep("XAssH1", f1, sa.star1, ta.star1, f2, f1))
        entries.append(intertwining_sweep("XAssH1", f1, sa.star2, ta.star2, f1, f2))
    else:
        entries.append(intertwining_sweep("XLieH1", f1, sa.dot, ta.dot, f2, f1))
    entries.append(
        sweep(
            "XAssH2" if assoc else "XLieH2",
            (sm.dim,),
            lambda m: (
                target.boundary.apply(f1.column(m)),
                f2.apply(source.boundary.column(m)),
            ),
            tn.dim,
        )
    )
    return merge(subject, entries)
