"""Internal categories in associative/Lie algebras.

The composition is never stored: for these ambient categories it is
forced to k((x, y)) = x - e(t(x)) + y, so we derive it everywhere and
treat the lemma itself as a tested property.  Each CatAlgebra derives
once V = id - e.t, with k((x, y)) = V(x) + y, and W = id - e.s onto
ker s; the composable k-tuples are the kernel of one block map
(`composable_basis`).
"""

from __future__ import annotations

from .algebra import ASSOC, LIE, Algebra, has_flavor, hom_law, liefy
from .errors import InternalInvariantViolation, InvalidCatAlgebra, NotComposable
from .errors import SignatureMismatch
from .linear import (
    Bil,
    Family,
    Lin,
    LinMap,
    Space,
    Term,
    b0,
    b1,
    concat,
    evaluate,
    from_columns,
    identity_map,
    kernel,
    linear_from_term,
    split,
    vadd,
    vneg,
    vsub,
)
from .record import Record
from .report import AxiomCheck, ValidationReport, merge, sweep


class CatAlgebra(Record):
    c1: Algebra
    c0: Algebra
    s: LinMap  # C1 -> C0
    t: LinMap  # C1 -> C0
    e: LinMap  # C0 -> C1
    flavor: str
    # derived once: V = id - e.t and W = id - e.s
    __slots__ = ("vertical", "ker_s_part")

    def __post_init__(self):
        if self.flavor not in (ASSOC, LIE):
            raise ValueError(f"flavor must be assoc or lie, got {self.flavor!r}")
        c1, c0 = self.c1.space, self.c0.space
        for part, dom, cod in (("s", c1, c0), ("t", c1, c0), ("e", c0, c1)):
            f = getattr(self, part)
            if f.domain != dom or f.codomain != cod:
                raise SignatureMismatch(part, "structural map does not match C1/C0")
        for name, f in (("vertical", self.t), ("ker_s_part", self.s)):  # id - e.f
            object.__setattr__(self, name, linear_from_term(c1, c1, b0 - Lin(self.e, Lin(f, b0))))


def discrete_cat(a: Algebra, flavor: str) -> CatAlgebra:
    i = identity_map(a.space)
    return CatAlgebra(a, a, i, i, i, flavor)


def k_term(c: CatAlgebra, x: Term, y: Term) -> Term:
    """The composition of two law terms, V(x) + y."""
    return Lin(c.vertical, x) + y


def compose(c: CatAlgebra, x, y):
    """Composition of x then y, x - e(t(x)) + y = V(x) + y; requires
    t(x) = s(y) exactly."""
    if c.t.apply(x) != c.s.apply(y):
        raise NotComposable("t(x) != s(y)")
    return vadd(c.c1.field, c.vertical.apply(x), y)


def invert_morphism(c: CatAlgebra, f):
    """Internal inverse e(s(f)) - f + e(t(f)); postconditions asserted."""
    F, es, et = c.c1.field, c.e.apply(c.s.apply(f)), c.e.apply(c.t.apply(f))
    g = vadd(F, vsub(F, es, f), et)
    if compose(c, f, g) != es or compose(c, g, f) != et:
        message = "internal inverse postconditions failed; CatAlgebra is not valid"
        raise InternalInvariantViolation(message)
    return g


def composable_basis(c: CatAlgebra, k: int):
    """Basis of the composable k-tuples {(x_1..x_k) : t(x_i) = s(x_i+1)}, the
    kernel of (x_1..x_k) -> (t(x_i) - s(x_i+1))_i, as vector k-tuples."""
    n, m, F = c.c1.dim, c.c0.dim, c.c1.field

    def column(j):  # x_i = b_a gives -s(b_a) in block i - 1 and t(b_a) in block i
        i, a = divmod(j, n)
        parts = {i - 1: vneg(F, c.s.column(a)), i: c.t.column(a)}
        return concat([(parts.get(b, ()), m) for b in range(k - 1)])

    domain, codomain = (Space(F, tuple(range(d))) for d in (k * n, (k - 1) * m))
    diff = from_columns(domain, codomain, map(column, range(k * n)))
    return [split(v, (n,) * k) for v in kernel(diff).basis]


def _parts(basis, width: int, pos: int):
    """The `width` components of the vector tuples of `basis`, each a family
    at position `pos`."""
    return [Family(pos, [v[i] for v in basis]) for i in range(width)]


def validate_cat_algebra(c: CatAlgebra, subject: str = "cat") -> ValidationReport:
    """Structural checks Cat1..Cat4 with witnesses.

    Cat1: s, t, e are algebra homomorphisms.  Cat2: s.e = id, t.e = id.
    Cat3: the forced composition is an algebra homomorphism on the
    pullback.  Cat4: identity and associativity laws of composition.

    If t and e are homomorphisms, then on composable pairs
    k(xx', yy') - k(x, y)k(x', y') = -V(x)W(y') - W(y)V(x'), W = id - e.s,
    so Cat3 holds if W(C1)V(C1) = V(C1)W(C1) = 0; when s.e = t.e = id,
    W(C1) = ker s and V(C1) = ker t, and then only if.  And t.e = id makes
    V idempotent with V.e = 0, which is all of Cat4.  Cat3 and Cat4 are
    swept over the composable pairs and triples only when these fail, to
    decide them or find the first witness.
    """
    n1, n0 = c.c1.dim, c.c0.dim
    laws = [
        hom_law("Cat1", c.s, c.c1, c.c0),
        hom_law("Cat1", c.t, c.c1, c.c0),
        hom_law("Cat1", c.e, c.c0, c.c1),
        ("Cat2", (n0,), Lin(c.s, Lin(c.e, b0)), b0),
        ("Cat2", (n0,), Lin(c.t, Lin(c.e, b0)), b0),
    ]
    checks = [sweep(*law) for law in laws]
    if checks[1].ok and checks[2].ok and not _kernels_multiply(c):
        checks.append(AxiomCheck("Cat3", True))
    else:
        pairs = composable_basis(c, 2)
        (x, y), (x2, y2), mul = _parts(pairs, 2, 0), _parts(pairs, 2, 1), c.c1.mult
        lhs = k_term(c, Bil(mul, x, x2), Bil(mul, y, y2))
        rhs = Bil(mul, k_term(c, x, y), k_term(c, x2, y2))
        checks.append(sweep("Cat3", (len(pairs), len(pairs)), lhs, rhs))
    if checks[4].ok:
        return merge(subject, checks, [AxiomCheck("Cat4", True)] * 3)
    triples = composable_basis(c, 3)
    p, q, r = _parts(triples, 3, 0)
    laws = [
        ("Cat4", (n1,), k_term(c, b0, Lin(c.e, Lin(c.t, b0))), b0),
        ("Cat4", (n1,), k_term(c, Lin(c.e, Lin(c.s, b0)), b0), b0),
        ("Cat4", (len(triples),), k_term(c, k_term(c, p, q), r), k_term(c, p, k_term(c, q, r))),
    ]
    return merge(subject, checks, [sweep(*law) for law in laws])


def _kernels_multiply(c: CatAlgebra) -> bool:
    """Whether W(C1)V(C1) or V(C1)W(C1) is nonzero, for V = id - e.t and
    W = id - e.s: ker s . ker t or ker t . ker s when s.e = t.e = id."""
    n, mul, v, w = c.c1.dim, c.c1.mult, c.vertical, c.ker_s_part
    terms = Bil(mul, Lin(w, b0), Lin(v, b1)), Bil(mul, Lin(v, b0), Lin(w, b1))
    return any(any(side) for side in evaluate((n, n), *terms))


def require_cat_flavor(c: CatAlgebra):
    """Refuse `c` with InvalidCatAlgebra unless C1 and C0 have its flavor."""
    if not has_flavor(c.flavor, c.c1, c.c0):
        raise InvalidCatAlgebra(f"C1 and C0 must be {c.flavor} algebras")


def require_valid_cat(c: CatAlgebra):
    require_cat_flavor(c)
    validate_cat_algebra(c).require(InvalidCatAlgebra, "categorical algebra axioms fail")


def require_assoc_cat(c: CatAlgebra):
    """Refuse `c` with InvalidCatAlgebra unless its flavor is ASSOC, as
    cat_liefy and the braidings it transports need."""
    if c.flavor != ASSOC:
        raise InvalidCatAlgebra("cat_liefy requires an associative categorical algebra")


def cat_liefy(c: CatAlgebra) -> CatAlgebra:
    """(C1^L, C0^L, s, t, e), a categorical Lie algebra."""
    require_assoc_cat(c)
    require_valid_cat(c)
    return CatAlgebra(liefy(c.c1), liefy(c.c0), c.s, c.t, c.e, LIE)
