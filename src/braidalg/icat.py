"""Internal categories in associative/Lie algebras.

The composition is never stored: for these ambient categories it is
forced to k((x, y)) = x - e(t(x)) + y, so we derive it everywhere and
treat the lemma itself as a tested property.  Of it, only the vertical
projection V = id - e.t is stored, and k((x, y)) = V(x) + y.  Each
CatAlgebra also derives once the products e(b_a)x and x e(b_a) by a basis
vector b_a of C0, which the braiding laws read.
"""

from __future__ import annotations

from .algebra import Algebra, _liefy, hom_sweep, is_associative, is_lie
from .errors import (
    InternalInvariantViolation,
    InvalidCatAlgebra,
    NotComposable,
)
from .linear import (
    LinMap,
    Space,
    bilinear_from_rule,
    concat,
    from_columns,
    identity_map,
    kernel,
    pullback_space,
    split,
    vadd,
    vneg,
    vsub,
)
from .record import Record
from .report import ValidationReport, merge, sweep

ASSOC = "assoc"
LIE = "lie"


class CatAlgebra(Record):
    c1: Algebra
    c0: Algebra
    s: LinMap  # C1 -> C0
    t: LinMap  # C1 -> C0
    e: LinMap  # C0 -> C1
    flavor: str
    # derived once: V = id - e.t, and e(b_a)x and x e(b_a) by the index a
    __slots__ = ("vertical", "e_mul", "mul_e")

    def __post_init__(self):
        if self.flavor not in (ASSOC, LIE):
            raise ValueError(f"flavor must be assoc or lie, got {self.flavor!r}")
        for f, dom, cod in ((self.s, self.c1, self.c0), (self.t, self.c1, self.c0), (self.e, self.c0, self.c1)):
            if f.domain != dom.space or f.codomain != cod.space:
                raise ValueError("structural map does not match C1/C0")
        c1, c0, m, e = self.c1.space, self.c0.space, self.c1.mult, self.e.column
        object.__setattr__(self, "vertical", identity_map(c1).sub(self.e.after(self.t)))
        e_mul = bilinear_from_rule(c0, c1, c1, lambda a, j: m.apply_right(e(a), j))
        object.__setattr__(self, "e_mul", e_mul)
        mul_e = bilinear_from_rule(c1, c0, c1, lambda j, a: m.apply_left(j, e(a)))
        object.__setattr__(self, "mul_e", mul_e)


def discrete_cat(a: Algebra, flavor: str) -> CatAlgebra:
    i = identity_map(a.space)
    return CatAlgebra(a, a, i, i, i, flavor)


def k_formula(c: CatAlgebra, x, y):
    """x - e(t(x)) + y = V(x) + y, with no composability check (validator
    use only)."""
    return vadd(c.c1.field, c.vertical.apply(x), y)


def compose(c: CatAlgebra, x, y):
    """Composition of x then y; requires t(x) = s(y) exactly."""
    if c.t.apply(x) != c.s.apply(y):
        raise NotComposable("t(x) != s(y)")
    return k_formula(c, x, y)


def invert_morphism(c: CatAlgebra, f):
    """Internal inverse e(s(f)) - f + e(t(f)); postconditions asserted."""
    F = c.c1.field
    g = vadd(F, vsub(F, c.e.apply(c.s.apply(f)), f), c.e.apply(c.t.apply(f)))
    if compose(c, f, g) != c.e.apply(c.s.apply(f)) or compose(c, g, f) != c.e.apply(
        c.t.apply(f)
    ):
        raise InternalInvariantViolation(
            "internal inverse postconditions failed; CatAlgebra is not valid"
        )
    return g


def composable_pair_basis(c: CatAlgebra):
    """Basis of the pullback C1 x_C0 C1, as (x, y) vector pairs."""
    n = c.c1.dim
    return [split(v, (n, n)) for v in pullback_space(c.t, c.s).basis]


def composable_triple_basis(c: CatAlgebra):
    """Basis of {(x,y,z) : t(x)=s(y), t(y)=s(z)} as vector triples."""
    n, m = c.c1.dim, c.c0.dim
    labels = tuple(f"p{i}_{lbl}" for i in (1, 2, 3) for lbl in c.c1.space.labels)
    triple = Space(c.c1.field, labels)
    out = Space(c.c1.field, tuple(f"q{i}_{lbl}" for i in (1, 2) for lbl in c.c0.space.labels))
    F, cols = c.c1.field, []
    for j in range(3 * n):
        block, idx = divmod(j, n)
        tv, sv = c.t.column(idx), vneg(F, c.s.column(idx))
        first, second = ((tv, ()), (sv, tv), ((), sv))[block]
        cols.append(concat([(first, m), (second, m)]))
    diff = from_columns(triple, out, cols)
    return [split(v, (n, n, n)) for v in kernel(diff).basis]


def validate_cat_algebra(c: CatAlgebra, subject: str = "cat") -> ValidationReport:
    """Structural checks Cat1..Cat4 with witnesses.

    Cat1: s, t, e are algebra homomorphisms.  Cat2: s.e = id, t.e = id.
    Cat3: the forced composition is an algebra homomorphism on the
    pullback.  Cat4: identity and associativity laws of composition.
    """
    entries = [
        hom_sweep("Cat1", c.s, c.c1, c.c0),
        hom_sweep("Cat1", c.t, c.c1, c.c0),
        hom_sweep("Cat1", c.e, c.c0, c.c1),
    ]
    ident = identity_map(c.c0.space)
    for se in (c.s.after(c.e), c.t.after(c.e)):
        entries.append(
            sweep(
                "Cat2", (c.c0.dim,), lambda i, se=se: (se.column(i), ident.column(i)), c.c0.dim
            )
        )

    pairs = composable_pair_basis(c)
    kvals = [k_formula(c, x, y) for x, y in pairs]
    mul = c.c1.product

    def k_hom(i, j):
        (x, y), (x2, y2) = pairs[i], pairs[j]
        return k_formula(c, mul(x, x2), mul(y, y2)), mul(kvals[i], kvals[j])

    entries.append(sweep("Cat3", (len(pairs), len(pairs)), k_hom, c.c1.dim))

    unit = identity_map(c.c1.space).column  # b_i, built once
    entries.append(
        sweep(
            "Cat4",
            (c.c1.dim,),
            lambda i: (k_formula(c, unit(i), c.e.apply(c.t.column(i))), unit(i)),
            c.c1.dim,
        )
    )
    entries.append(
        sweep(
            "Cat4",
            (c.c1.dim,),
            lambda i: (k_formula(c, c.e.apply(c.s.column(i)), unit(i)), unit(i)),
            c.c1.dim,
        )
    )
    triples = composable_triple_basis(c)
    entries.append(
        sweep(
            "Cat4",
            (len(triples),),
            lambda i: (
                k_formula(c, k_formula(c, triples[i][0], triples[i][1]), triples[i][2]),
                k_formula(c, triples[i][0], k_formula(c, triples[i][1], triples[i][2])),
            ),
            c.c1.dim,
        )
    )
    return merge(subject, entries)


def require_valid_cat(c: CatAlgebra):
    flavor_ok = is_associative if c.flavor == ASSOC else is_lie
    if not (flavor_ok(c.c1) and flavor_ok(c.c0)):
        raise InvalidCatAlgebra(f"C1 and C0 must be {c.flavor} algebras")
    validate_cat_algebra(c).require(
        InvalidCatAlgebra, "categorical algebra axioms fail"
    )


def cat_liefy(c: CatAlgebra) -> CatAlgebra:
    """(C1^L, C0^L, s, t, e), a categorical Lie algebra."""
    if c.flavor != ASSOC:
        raise InvalidCatAlgebra("cat_liefy requires an associative categorical algebra")
    require_valid_cat(c)
    return CatAlgebra(_liefy(c.c1), _liefy(c.c0), c.s, c.t, c.e, LIE)
