"""Braidings on crossed modules and categorical algebras, and the
bar/kernel equivalence functors with their natural isomorphisms.

The BAs/BLie validators sweep the displayed axiom families; the
categorical validators evaluate every composition with the forced
formula k((x, y)) = x - e(t(x)) + y, exactly as the source proofs do.
Each braiding validator sweeps a law table, `braiding_*_laws(b)` or
`anticoherence_laws(b)`: the (tag, dims, lhs, rhs) entries
`report.sweep` takes, in report order, each side a `linear` term, both
in one space.  Other code that needs an axiom reads the table: with the
base fixed, every law is affine in the braiding, and `braiding_system`
reads each table, evaluated on every basis tuple, as linear equations in
the braiding's coordinates, which `braiding_space` solves.
"""

from __future__ import annotations

from .action import AssocAction, _semidirect
from .algebra import ASSOC, Algebra, commutator, hom_law, intertwining_law
from .errors import CharTwo, InternalInvariantViolation, InvalidInput, InvalidXMod
from .errors import SignatureMismatch
from .icat import (
    CatAlgebra,
    cat_liefy,
    k_term,
    require_assoc_cat,
    require_valid_cat,
)
from .linear import (
    Bil,
    BilMap,
    Lin,
    LinMap,
    Space,
    affine_solutions,
    b0,
    b1,
    b2,
    bilinear_from_coordinates,
    bilinear_from_rule,
    bilinear_from_term,
    concat,
    evaluate,
    from_columns,
    identity_map,
    kernel,
    law_space,
    linear_from_term,
    vadd,
    vsub,
)
from .record import Record
from .report import ValidationReport, merge, sweep
from .xmod import (
    XMod,
    XModMorphism,
    identity_xmod_assoc,
    identity_xmod_lie,
    require_valid_xmod_assoc,
    validate_xmod_morphism,
    xmod_liefy,
)


class XBraiding(Record):
    """Crossed module plus a braiding (Peiffer lifting) N x N -> M."""

    base: XMod
    brace: BilMap

    def __post_init__(self):
        n, m = self.base.n.space, self.base.m.space
        if (self.brace.left, self.brace.right, self.brace.codomain) != (n, n, m):
            raise SignatureMismatch("brace", "brace must map N x N -> M")


class CatBraiding(Record):
    """Categorical algebra plus a braiding tau: C0 x C0 -> C1."""

    base: CatAlgebra
    tau: BilMap

    def __post_init__(self):
        c0, c1 = self.base.c0.space, self.base.c1.space
        if (self.tau.left, self.tau.right, self.tau.codomain) != (c0, c0, c1):
            raise SignatureMismatch("tau", "tau must map C0 x C0 -> C1")


def braiding_xmod_assoc_laws(b: XBraiding):
    """BAs1..BAs6 on basis pairs/triples, as (tag, dims, lhs, rhs) entries."""
    x = b.base
    M, N = x.m, x.n
    s1, s2, d, br, nm, mm = x.action.star1, x.action.star2, x.boundary, b.brace, N.mult, M.mult
    n, m = N.dim, M.dim
    return [
        ("BAs1", (n, n), Lin(d, Bil(br, b0, b1)), Bil(nm, b0, b1) - Bil(nm, b1, b0)),
        ("BAs2", (m, m), Bil(br, Lin(d, b0), Lin(d, b1)), Bil(mm, b0, b1) - Bil(mm, b1, b0)),
        # [b_n, b_m]_* = b_n *1 b_m - b_m *2 b_n
        ("BAs3", (m, n), Bil(br, Lin(d, b0), b1), -(Bil(s1, b1, b0) - Bil(s2, b0, b1))),
        ("BAs4", (n, m), Bil(br, b0, Lin(d, b1)), Bil(s1, b0, b1) - Bil(s2, b1, b0)),
        (
            "BAs5",
            (n, n, n),
            Bil(br, b0, Bil(nm, b1, b2)),
            Bil(s1, b1, Bil(br, b0, b2)) + Bil(s2, Bil(br, b0, b1), b2),
        ),
        (
            "BAs6",
            (n, n, n),
            Bil(br, Bil(nm, b0, b1), b2),
            Bil(s1, b0, Bil(br, b1, b2)) + Bil(s2, Bil(br, b0, b2), b1),
        ),
    ]


def validate_braiding_xmod_assoc(
    b: XBraiding, subject: str = "braiding"
) -> ValidationReport:
    """BAs1..BAs6 on basis pairs/triples."""
    return merge(subject, [sweep(*law) for law in braiding_xmod_assoc_laws(b)])


def braiding_xmod_lie_laws(b: XBraiding):
    """BLie1..BLie6 on basis pairs/triples, as (tag, dims, lhs, rhs) entries."""
    x = b.base
    M, N = x.m, x.n
    dot, d, br, nm = x.action.dot, x.boundary, b.brace, N.mult
    n, m = N.dim, M.dim
    return [
        ("BLie1", (n, n), Lin(d, Bil(br, b0, b1)), Bil(nm, b0, b1)),
        ("BLie2", (m, m), Bil(br, Lin(d, b0), Lin(d, b1)), Bil(M.mult, b0, b1)),
        ("BLie3", (m, n), Bil(br, Lin(d, b0), b1), -Bil(dot, b1, b0)),
        ("BLie4", (n, m), Bil(br, b0, Lin(d, b1)), Bil(dot, b0, b1)),
        (
            "BLie5",
            (n, n, n),
            Bil(br, b0, Bil(nm, b1, b2)),
            Bil(br, Bil(nm, b0, b1), b2) - Bil(br, Bil(nm, b0, b2), b1),
        ),
        (
            "BLie6",
            (n, n, n),
            Bil(br, Bil(nm, b0, b1), b2),
            Bil(br, b0, Bil(nm, b1, b2)) - Bil(br, b1, Bil(nm, b0, b2)),
        ),
    ]


def validate_braiding_xmod_lie(
    b: XBraiding, subject: str = "braiding"
) -> ValidationReport:
    """BLie1..BLie6 on basis pairs/triples."""
    return merge(subject, [sweep(*law) for law in braiding_xmod_lie_laws(b)])


def _cat_t12(b: CatBraiding, t1: str, t2: str):
    """The source/target and composition laws shared by both flavors."""
    c, tau = b.base, b.tau
    s, t, m = c.s, c.t, c.c1.mult
    n0, n1 = c.c0.dim, c.c1.dim
    return [
        (t1, (n0, n0), Lin(s, Bil(tau, b0, b1)), Bil(c.c0.mult, b0, b1)),
        (t1, (n0, n0), Lin(t, Bil(tau, b0, b1)), Bil(c.c0.mult, b1, b0)),
        (
            t2,
            (n1, n1),
            k_term(c, Bil(m, b0, b1), Bil(tau, Lin(t, b0), Lin(t, b1))),
            k_term(c, Bil(tau, Lin(s, b0), Lin(s, b1)), Bil(m, b1, b0)),
        ),
    ]


def braiding_cat_assoc_laws(b: CatBraiding):
    """AsT1..AsT4 as (tag, dims, lhs, rhs) entries; AsT2-4 evaluate
    compositions via the forced formula."""
    c, tau, e = b.base, b.tau, b.base.e
    dims, m, m1 = (c.c0.dim,) * 3, c.c0.mult, c.c1.mult
    return _cat_t12(b, "AsT1", "AsT2") + [
        (
            "AsT3",
            dims,
            Bil(tau, Bil(m, b0, b1), b2),
            k_term(c, Bil(m1, Lin(e, b0), Bil(tau, b1, b2)), Bil(m1, Bil(tau, b0, b2), Lin(e, b1))),
        ),
        (
            "AsT4",
            dims,
            Bil(tau, b0, Bil(m, b1, b2)),
            k_term(c, Bil(m1, Bil(tau, b0, b1), Lin(e, b2)), Bil(m1, Lin(e, b1), Bil(tau, b0, b2))),
        ),
    ]


def validate_braiding_cat_assoc(
    b: CatBraiding, subject: str = "braiding"
) -> ValidationReport:
    """AsT1..AsT4; AsT2-4 evaluate compositions via the forced formula."""
    return merge(subject, [sweep(*law) for law in braiding_cat_assoc_laws(b)])


def braiding_cat_lie_ulualan_laws(b: CatBraiding):
    """LieT1, LieT2, LieB3, LieB4 as (tag, dims, lhs, rhs) entries."""
    c, tau, e = b.base, b.tau, b.base.e
    dims, m, m1 = (c.c0.dim,) * 3, c.c0.mult, c.c1.mult
    return _cat_t12(b, "LieT1", "LieT2") + [
        (
            "LieB3",
            dims,
            Bil(tau, Bil(m, b0, b1), b2),
            Bil(m1, Bil(tau, b0, b2), Lin(e, b1)) + Bil(m1, Lin(e, b0), Bil(tau, b1, b2)),
        ),
        (
            "LieB4",
            dims,
            Bil(tau, b0, Bil(m, b1, b2)),
            Bil(m1, Lin(e, b1), Bil(tau, b0, b2)) + Bil(m1, Bil(tau, b0, b1), Lin(e, b2)),
        ),
    ]


def validate_braiding_cat_lie_ulualan(
    b: CatBraiding, subject: str = "braiding"
) -> ValidationReport:
    """LieT1, LieT2 plus the bracket-coherence axioms LieB3, LieB4."""
    return merge(subject, [sweep(*law) for law in braiding_cat_lie_ulualan_laws(b)])


def braiding_cat_lie_alt_laws(b: CatBraiding):
    """LieT1..LieT4 as (tag, dims, lhs, rhs) entries."""
    c0, tau = b.base.c0, b.tau
    dims, m = (c0.dim,) * 3, c0.mult
    return _cat_t12(b, "LieT1", "LieT2") + [
        (
            "LieT3",
            dims,
            Bil(tau, Bil(m, b0, b1), b2),
            Bil(tau, b0, Bil(m, b1, b2)) - Bil(tau, b1, Bil(m, b0, b2)),
        ),
        (
            "LieT4",
            dims,
            Bil(tau, b0, Bil(m, b1, b2)),
            Bil(tau, Bil(m, b0, b1), b2) - Bil(tau, Bil(m, b0, b2), b1),
        ),
    ]


def validate_braiding_cat_lie_alt(
    b: CatBraiding, subject: str = "braiding"
) -> ValidationReport:
    """LieT1, LieT2 plus the tau-only coherence axioms LieT3, LieT4."""
    return merge(subject, [sweep(*law) for law in braiding_cat_lie_alt_laws(b)])


def anticoherence_laws(b: CatBraiding):
    """tau_{a,[b,c]} = [e(a), tau_{b,c}], the mirror identity, and their
    antisymmetry consequence, as (tag, dims, lhs, rhs) entries; only
    meaningful away from characteristic 2."""
    c, tau, e = b.base, b.tau, b.base.e
    if c.c1.field.characteristic == 2:
        raise CharTwo("anticoherence requires characteristic != 2")
    dims, m, m1 = (c.c0.dim,) * 3, c.c0.mult, c.c1.mult
    left, right = Bil(tau, b0, Bil(m, b1, b2)), Bil(tau, Bil(m, b1, b2), b0)
    return [
        ("AC1", dims, left, Bil(m1, Lin(e, b0), Bil(tau, b1, b2))),
        ("AC2", dims, right, Bil(m1, Bil(tau, b1, b2), Lin(e, b0))),
        ("AC3", dims, left, -right),
    ]


def check_anticoherence(b: CatBraiding, subject: str = "braiding") -> ValidationReport:
    """AC1..AC3; raises CharTwo in characteristic 2."""
    return merge(subject, [sweep(*law) for law in anticoherence_laws(b)])


# ---------------------------------------------------------------------------
# braiding spaces: with the base fixed, each law is affine in the braiding


def _braiding_map(b: XBraiding | CatBraiding) -> BilMap:
    """The braiding of `b`: tau on a categorical algebra, the brace on a
    crossed module."""
    return b.tau if isinstance(b, CatBraiding) else b.brace


def with_braiding(b: XBraiding | CatBraiding, x):
    """The base of `b` with the braiding whose coordinates are the sparse
    vector `x`, in the order of `bilinear_from_coordinates`."""
    t = _braiding_map(b)
    return type(b)(b.base, bilinear_from_coordinates(t.left, t.right, t.codomain, x))


def braiding_system(b: XBraiding | CatBraiding, laws):
    """{tag: rows}: the residuals lhs - rhs of the laws of `laws(b)` with
    that tag, in `sweep` order and laid end to end, are rows . (x, 1) at
    the braiding on `b.base` whose coordinates are x.  Each row is sparse,
    with the constant at column len(x); a coordinate where every residual
    is 0 has no row."""
    t = _braiding_map(b)
    F, n = t.field, t.left.dim * t.right.dim * t.codomain.dim

    def residuals(x):  # {tag: [(lhs - rhs, dim) per basis tuple]}
        out = {}
        for tag, dims, lhs, rhs in laws(with_braiding(b, x)):
            dim = law_space(lhs, rhs).dim
            left, right = evaluate(dims, lhs, rhs)
            res = out.setdefault(tag, [])
            res.extend((vsub(F, u, v) if u != v else (), dim) for u, v in zip(left, right))
        return out

    const = residuals(())
    # {tag: {coordinate: its row's entries}}: (u, unit residual - const) for
    # each unknown x_u, then (n, const)
    rows = {tag: {} for tag in const}
    for u in range(n):
        unit = residuals(((u, F.one()),))
        for tag, parts in const.items():
            pairs = zip(unit[tag], parts)
            diff = ((vsub(F, v, c) if v != c else (), d) for (v, d), (c, _) in pairs)
            for k, a in concat(diff):
                rows[tag].setdefault(k, []).append((u, a))
    for tag, parts in const.items():
        for k, a in concat(parts):
            rows[tag].setdefault(k, []).append((n, a))
    return {tag: list(map(tuple, rows[tag].values())) for tag in rows}


def braiding_space(b: XBraiding | CatBraiding, system, tags=None):
    """The braidings on `b.base` passing the equations of `system`, a
    `braiding_system` of `b`, with a tag in `tags` (every tag if None):
    the one at `affine_solutions`' particular solution, then one step from
    it along each vector of its basis.  None if no braiding passes them.
    Every law is affine in the braiding, so these points cover the space."""
    t = _braiding_map(b)
    rows = [row for tag in (system if tags is None else tags) for row in system[tag]]
    sol = affine_solutions(t.field, rows, t.left.dim * t.right.dim * t.codomain.dim)
    if sol is None:
        return None
    part, null = sol
    points = (part, *(vadd(t.field, part, v) for v in null))
    return tuple(with_braiding(b, x) for x in points)


# ---------------------------------------------------------------------------
# the bar construction C_X and the kernel construction X_C


def _bar(x: XMod):
    """The categorical algebra (M x| N, N, s, t, e) of a crossed module the
    caller has validated, with s = proj_N, t = proj_N + d proj_M, e = incl_N,
    and the semidirect product it is built on."""
    sd = _semidirect(x.action)
    t_term = Lin(sd.proj_actor, b0) + Lin(x.boundary, Lin(sd.proj_module, b0))
    t = linear_from_term(sd.algebra.space, x.n.space, t_term)
    return CatAlgebra(sd.algebra, x.n, sd.proj_actor, t, sd.incl_actor, x.flavor), sd


def cx_functor(b: XBraiding) -> CatBraiding:
    """Bar construction: (M x| N, N, s, t, e) with tau_{n,n'} = (-{n,n'}, nn')."""
    _check_cx_input(b)
    return _assert_cx(_cx(b)[0])


def _check_cx_input(b: XBraiding):
    if b.base.flavor != ASSOC:
        raise InvalidInput("cx_functor takes a braided associative crossed module")
    require_valid_xmod_assoc(b.base)
    validate_braiding_xmod_assoc(b).require(InvalidInput, "braiding axioms fail")


def _cx(b: XBraiding):
    """cx_functor on a braiding of either flavor the caller has validated,
    with the semidirect product it is built on; the output is not checked.
    tau_{n,n'} = (c{n, n'}, n n'): c = -1 on an associative, -2 on a Lie
    crossed module, where BLie1 then gives t(tau_{n,n'}) = [n', n]."""
    N = b.base.n
    cat, sd = _bar(b.base)
    brace = Bil(b.brace, b0, b1)
    if b.base.flavor != ASSOC:
        brace = brace + brace
    pair = Lin(sd.incl_actor, Bil(N.mult, b0, b1)) - Lin(sd.incl_module, brace)
    tau = bilinear_from_term(N.space, N.space, sd.algebra.space, pair)
    return CatBraiding(cat, tau), sd


def _assert_cx(out: CatBraiding) -> CatBraiding:
    """The theorem of cx_functor on its output `out`: the braiding axioms hold."""
    validate_braiding_cat_assoc(out).assert_ok("bar construction failed to validate")
    return out


def kernel_part(c: CatAlgebra):
    """ker(s) packaged as a space: (subspace, kernel space, inclusion)."""
    ks = kernel(c.s)
    kspace = Space(c.c1.field, tuple(f"k{i}" for i in range(ks.dim)))
    incl = from_columns(kspace, c.c1.space, ks.basis)
    return ks, kspace, incl


def _kernel_coords(ks, v, message):
    """The coordinates of v in ks, a `kernel_part`'s subspace, else raise `message`."""
    coords = ks.coords(v)
    if coords is None:
        raise InternalInvariantViolation(message)
    return coords


def xc_functor(b: CatBraiding) -> XBraiding:
    """Kernel construction: (ker(s), C0, (e*, *e), t|ker) with
    {a, b} = e(ab) - tau_{a,b}."""
    _check_xc_input(b)
    return _assert_xc(_xc(b, kernel_part(b.base)))


def _check_xc_input(b: CatBraiding):
    if b.base.flavor != ASSOC:
        raise InvalidInput("xc_functor takes a braided associative categorical algebra")
    require_valid_cat(b.base)
    validate_braiding_cat_assoc(b).require(
        InvalidInput, "categorical braiding axioms fail"
    )


def _xc(b: CatBraiding, kpart) -> XBraiding:
    """xc_functor on a braiding the caller has validated, given the
    `kernel_part` of its base; the output is not checked."""
    c = b.base
    c0 = c.c0.space
    ks, kspace, incl = kpart
    escaped = "value escaped ker(s)"

    def in_ker(left, right, term):  # the C1-valued term, read in ker(s) coordinates
        full = bilinear_from_term(left, right, c.c1.space, term)
        return bilinear_from_rule(
            left, right, kspace, lambda i, j: _kernel_coords(ks, full.on_basis(i, j), escaped)
        )

    m = c.c1.mult
    kalg = Algebra(kspace, in_ker(kspace, kspace, Bil(m, Lin(incl, b0), Lin(incl, b1))))
    star1 = in_ker(c0, kspace, Bil(m, Lin(c.e, b0), Lin(incl, b1)))
    star2 = in_ker(kspace, c0, Bil(m, Lin(incl, b0), Lin(c.e, b1)))
    boundary = linear_from_term(kspace, c0, Lin(c.t, Lin(incl, b0)))
    base = XMod(AssocAction(c.c0, kalg, star1, star2), boundary)
    brace = in_ker(c0, c0, Lin(c.e, Bil(c.c0.mult, b0, b1)) - Bil(b.tau, b0, b1))
    return XBraiding(base, brace)


def _assert_xc(out: XBraiding) -> XBraiding:
    """The theorem of xc_functor on its output `out`: a valid braided crossed module."""
    message = "kernel construction failed to validate"
    try:
        require_valid_xmod_assoc(out.base)
    except InvalidXMod as exc:
        raise InternalInvariantViolation(f"{message}: {exc}") from exc
    validate_braiding_xmod_assoc(out).assert_ok(message)
    return out


# ---------------------------------------------------------------------------
# morphism-level validation


def validate_braided_xmod_morphism(
    phi: XModMorphism,
    source: XBraiding,
    target: XBraiding,
    subject: str = "morphism",
) -> ValidationReport:
    """Crossed-module morphism conditions plus f1({n,n'}) = {f2 n, f2 n'}'."""
    rep = validate_xmod_morphism(phi, source.base, target.base, subject)
    brh = intertwining_law("BrH", phi.f1, source.brace, target.brace, phi.f2, phi.f2)
    return merge(subject, rep, [sweep(*brh)])


def validate_braided_internal_functor(
    f1: LinMap,
    f0: LinMap,
    source: CatBraiding,
    target: CatBraiding,
    subject: str = "functor",
) -> ValidationReport:
    """(F1, F0) is an internal functor preserving the braiding.

    IFH: F1, F0 algebra homomorphisms.  IFC: commutation with s, t, e.
    IFB: F1(tau_{a,b}) = tau'_{F0 a, F0 b}.
    """
    sc, tc = source.base, target.base
    laws = [
        hom_law("IFH", f1, sc.c1, tc.c1),
        hom_law("IFH", f0, sc.c0, tc.c0),
        ("IFC", (sc.c1.dim,), Lin(tc.s, Lin(f1, b0)), Lin(f0, Lin(sc.s, b0))),
        ("IFC", (sc.c1.dim,), Lin(tc.t, Lin(f1, b0)), Lin(f0, Lin(sc.t, b0))),
        ("IFC", (sc.c0.dim,), Lin(f1, Lin(sc.e, b0)), Lin(tc.e, Lin(f0, b0))),
        intertwining_law("IFB", f1, source.tau, target.tau, f0, f0),
    ]
    return merge(subject, [sweep(*law) for law in laws])


def _certify_iso(name: str, rep: ValidationReport, f: LinMap, g: LinMap):
    """Assert the report `rep` of the isomorphism `name`, (f, id), and that g
    inverts f (Inv1, Inv2; never reported): its target is then the transport
    of its source along f, so it satisfies every axiom the source does."""
    n, m = f.domain.dim, f.codomain.dim
    laws = [("Inv1", (n,), Lin(g, Lin(f, b0)), b0), ("Inv2", (m,), Lin(f, Lin(g, b0)), b0)]
    message = f"{name} failed to validate as a braided isomorphism"
    merge(rep.subject, rep, [sweep(*law) for law in laws]).assert_ok(message)


def alpha_iso(b: XBraiding) -> XModMorphism:
    """alpha: b -> xc(cx(b)), with alpha_M(m) = (m, 0) in kernel coordinates."""
    return _alpha(b)[0]


def _alpha(b: XBraiding):
    """alpha_iso plus the morphism report that proves it an isomorphism."""
    # cx_functor's checks; cx(b) is then valid by the block-restriction
    # lemma (docs/axiom_tags.md), so it is not swept again; xc(cx) is
    # certified by alpha, whose inverse is the module projection
    _check_cx_input(b)
    cx, sd = _cx(b)
    kpart = kernel_part(cx.base)
    ks, kspace, incl = kpart
    x = b.base
    escaped = "(m, 0) escaped ker(s) in bar construction"
    cols = (_kernel_coords(ks, sd.incl_module.column(i), escaped) for i in range(x.m.dim))
    f1 = from_columns(x.m.space, kspace, cols)
    phi = XModMorphism(f1, identity_map(x.n.space))
    rep = validate_braided_xmod_morphism(phi, b, _xc(cx, kpart))
    inverse = linear_from_term(kspace, x.m.space, Lin(sd.proj_module, Lin(incl, b0)))
    _certify_iso("alpha", rep, f1, inverse)
    return phi, rep


def beta_iso(b: CatBraiding):
    """beta: b -> cx(xc(b)), beta_C1(x) = (x - e(s(x)), s(x)).

    Returns the internal functor pair (F1, F0).
    """
    return _beta(b)[0]


def _beta(b: CatBraiding):
    """beta_iso plus the functor report that proves it an isomorphism."""
    c = b.base
    c1 = c.c1.space
    # xc_functor's checks; cx(xc) is certified by beta, whose inverse is
    # (y, a) -> y + e(a), so it is a transport of b, and xc(b) is valid by
    # the converse of the block-restriction lemma, unswept
    _check_xc_input(b)
    kpart = kernel_part(c)
    ks, kspace, incl = kpart
    target, sd = _cx(_xc(b, kpart))
    escaped = "x - e(s(x)) escaped ker(s)"
    cols = (_kernel_coords(ks, c.ker_s_part.column(i), escaped) for i in range(c1.dim))
    in_ker = from_columns(c1, kspace, cols)
    total = sd.algebra.space
    f1_term = Lin(sd.incl_module, Lin(in_ker, b0)) + Lin(sd.incl_actor, Lin(c.s, b0))
    f1 = linear_from_term(c1, total, f1_term)
    f0 = identity_map(c.c0.space)
    rep = validate_braided_internal_functor(f1, f0, b, target)
    inverse = Lin(incl, Lin(sd.proj_module, b0)) + Lin(c.e, Lin(sd.proj_actor, b0))
    _certify_iso("beta", rep, f1, linear_from_term(total, c1, inverse))
    return (f1, f0), rep


# ---------------------------------------------------------------------------
# Lie-fication transports


def cat_braiding_liefy(b: CatBraiding) -> CatBraiding:
    """tau^Lie_{a,b} = tau_{a,b} - tau_{b,a} on the Lie-fied base."""
    require_assoc_cat(b.base)
    if b.base.c1.field.characteristic == 2:
        raise CharTwo("braiding Lie-fication requires characteristic != 2")
    validate_braiding_cat_assoc(b).require(InvalidInput, "input braiding axioms fail")
    base = cat_liefy(b.base)
    out = CatBraiding(base, commutator(b.tau))
    validate_braiding_cat_lie_ulualan(out).assert_ok(
        "Lie-fied categorical braiding failed"
    )
    return out


def xmod_braiding_liefy(b: XBraiding) -> XBraiding:
    """{n, n'}_L = ({n, n'} - {n', n}) / 2 on the Lie-fied crossed module."""
    if b.base.flavor != ASSOC:
        raise InvalidInput("xmod_braiding_liefy takes an associative braided xmod")
    F = b.base.m.field
    if F.characteristic == 2:
        raise CharTwo("braiding Lie-fication requires characteristic != 2")
    validate_braiding_xmod_assoc(b).require(InvalidInput, "input braiding axioms fail")
    base = xmod_liefy(b.base)
    n, m, h = b.base.n.space, b.base.m.space, F.inv(F.of(2))
    half = from_columns(m, m, [((i, h),) for i in range(m.dim)])  # 1/2 id
    difference = Bil(b.brace, b0, b1) - Bil(b.brace, b1, b0)
    out = XBraiding(base, bilinear_from_term(n, n, m, Lin(half, difference)))
    validate_braiding_xmod_lie(out).assert_ok("Lie-fied braiding failed")
    return out


def commutator_braiding(a: Algebra) -> XBraiding:
    """The commutator as a braiding on the identity crossed module."""
    return XBraiding(identity_xmod_assoc(a), commutator(a.mult))


def bracket_braiding(a: Algebra) -> XBraiding:
    """The Lie bracket as a braiding on the identity crossed module."""
    return XBraiding(identity_xmod_lie(a), a.mult)
