"""Crossed modules of associative and Lie algebras.

Validators emit one report entry per displayed equality; XAs1/XAs2 each
cover two equalities, so those tags appear twice in a report.
"""

from __future__ import annotations

from .action import (
    _WORDS,
    AssocAction,
    LieAction,
    _induced_lie_action,
    adjoint_action,
    self_action,
    validate_assoc_action,
    validate_lie_action,
)
from .algebra import (
    ASSOC,
    LIE,
    Algebra,
    has_flavor,
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


class XMod(Record):
    """(M, N, action, boundary): an associative action * = (*1, *2) or a Lie
    action of N on M, and boundary: M -> N.  Its flavor is its action's."""

    action: AssocAction | LieAction
    boundary: LinMap

    def __post_init__(self):
        if self.boundary.domain != self.m.space or self.boundary.codomain != self.n.space:
            raise ValueError("boundary must map M -> N")

    @property
    def m(self) -> Algebra:
        return self.action.module

    @property
    def n(self) -> Algebra:
        return self.action.actor

    @property
    def flavor(self) -> str:
        return self.action.flavor


class XModMorphism(Record):
    f1: LinMap  # M -> M'
    f2: LinMap  # N -> N'


def validate_xmod_assoc(x: XMod, subject: str = "xmod") -> ValidationReport:
    """XAs1 (both equalities) and XAs2 (both equalities) on basis pairs."""
    M, N = x.m, x.n
    s1, s2, d, nm, mm = x.action.star1, x.action.star2, x.boundary, N.mult, M.mult
    n, m = N.dim, M.dim
    laws = [
        ("XAs1", (n, m), Lin(d, Bil(s1, b0, b1)), Bil(nm, b0, Lin(d, b1))),
        ("XAs1", (m, n), Lin(d, Bil(s2, b0, b1)), Bil(nm, Lin(d, b0), b1)),
        ("XAs2", (m, m), Bil(s1, Lin(d, b0), b1), Bil(mm, b0, b1)),
        ("XAs2", (m, m), Bil(s2, b0, Lin(d, b1)), Bil(mm, b0, b1)),
    ]
    return merge(subject, [sweep(*law) for law in laws])


def validate_xmod_lie(x: XMod, subject: str = "xmod") -> ValidationReport:
    """XLie1 and XLie2 on basis pairs."""
    M, N = x.m, x.n
    dot, d = x.action.dot, x.boundary
    n, m = N.dim, M.dim
    laws = [
        ("XLie1", (n, m), Lin(d, Bil(dot, b0, b1)), Bil(N.mult, b0, Lin(d, b1))),
        ("XLie2", (m, m), Bil(dot, Lin(d, b0), b1), Bil(M.mult, b0, b1)),
    ]
    return merge(subject, [sweep(*law) for law in laws])


def require_xmod_flavor(x: XMod, flavor: str):
    """Refuse `x` with InvalidXMod unless it and its algebras have `flavor`."""
    if x.flavor != flavor or not has_flavor(flavor, x.m, x.n):
        raise InvalidXMod(f"crossed module algebras must be {_WORDS[flavor]}")


def _require_valid_xmod(x: XMod, flavor: str, validate_action, validate_xmod):
    """Refuse `x` with InvalidXMod unless it is a valid crossed module of
    `flavor`; one of the other flavor is refused before its maps are read."""
    require_xmod_flavor(x, flavor)
    if not is_homomorphism(x.boundary, x.m, x.n):
        raise InvalidXMod("boundary is not an algebra homomorphism")
    validate_action(x.action).require(InvalidXMod, f"invalid {_WORDS[flavor]} action")
    validate_xmod(x).require(InvalidXMod, "crossed module axioms fail")


def require_valid_xmod_assoc(x: XMod):
    """Structural preconditions plus XAs axioms; raises InvalidXMod."""
    _require_valid_xmod(x, ASSOC, validate_assoc_action, validate_xmod_assoc)


def require_valid_xmod_lie(x: XMod):
    """Structural preconditions plus XLie axioms; raises InvalidXMod."""
    _require_valid_xmod(x, LIE, validate_lie_action, validate_xmod_lie)


def xmod_liefy(x: XMod) -> XMod:
    """(M^L, N^L, [-,-]_*, same boundary)."""
    require_valid_xmod_assoc(x)
    return XMod(_induced_lie_action(x.action), x.boundary)


def identity_xmod_assoc(a: Algebra) -> XMod:
    """(M, M, (*, *), Id_M)."""
    if not is_associative(a):
        raise NotAssociative("identity crossed module needs an associative algebra")
    return XMod(self_action(a), identity_map(a.space))


def identity_xmod_lie(a: Algebra) -> XMod:
    """(M, M, [-,-], Id_M)."""
    if not is_lie(a):
        raise NotLie("identity crossed module needs a Lie algebra")
    return XMod(adjoint_action(a), identity_map(a.space))


def validate_xmod_morphism(
    phi: XModMorphism, source: XMod, target: XMod, subject: str = "morphism"
) -> ValidationReport:
    """Equivariance and boundary-square conditions for (f1, f2).

    Works for both flavors; accepts raw maps so the natural-isomorphism
    checks can use it as an oracle. Tags: XAssH1/XAssH2 or XLieH1/XLieH2,
    preceded by Hom entries for f1 and f2 being algebra homomorphisms.
    """
    if source.flavor != target.flavor:
        raise ValueError("source and target flavors differ")
    assoc = source.flavor == ASSOC
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
    laws.append(("XAssH2" if assoc else "XLieH2", (sm.dim,), *square))
    return merge(subject, [sweep(*law) for law in laws])
