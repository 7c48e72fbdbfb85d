"""Braidings on crossed modules and categorical algebras, and the
bar/kernel equivalence functors with their natural isomorphisms.

The BAs/BLie validators sweep the displayed axiom families; the
categorical validators evaluate every composition with the forced
formula k((x, y)) = x - e(t(x)) + y, exactly as the source proofs do.
Each braiding validator sweeps a law table, `braiding_*_laws(b)` or
`anticoherence_laws(b)`: the (tag, dims, law, dim) entries `report.sweep`
takes, in report order, dim that of the space the law's sides lie in.
Other code that needs an axiom reads the table: with the base fixed,
every law is affine in the braiding, and `braiding_system` reads each
table as linear equations in the braiding's coordinates, which
`braiding_space` solves.
"""

from __future__ import annotations

from .action import AssocAction, _semidirect
from .algebra import Algebra, hom_sweep, intertwining_sweep
from .errors import CharTwo, InternalInvariantViolation, InvalidInput, InvalidXMod
from .icat import ASSOC, LIE, CatAlgebra, k_formula, require_valid_cat
from .linear import (
    BilMap,
    LinMap,
    Space,
    affine_solutions,
    bilinear_from_coordinates,
    bilinear_from_rule,
    concat,
    from_columns,
    identity_map,
    kernel,
    vadd,
    vneg,
    vsub,
)
from .record import Record
from .report import ValidationReport, basis_tuples, merge, sweep
from .xmod import (
    XModAssoc,
    XModLie,
    XModMorphism,
    identity_xmod_assoc,
    identity_xmod_lie,
    require_valid_xmod_assoc,
    validate_xmod_morphism,
    xmod_liefy,
)


class XBraiding(Record):
    """Crossed module plus a braiding (Peiffer lifting) N x N -> M."""

    base: XModAssoc | XModLie
    brace: BilMap

    def __post_init__(self):
        n, m = self.base.n.space, self.base.m.space
        if (self.brace.left, self.brace.right, self.brace.codomain) != (n, n, m):
            raise ValueError("brace must map N x N -> M")


class CatBraiding(Record):
    """Categorical algebra plus a braiding tau: C0 x C0 -> C1."""

    base: CatAlgebra
    tau: BilMap

    def __post_init__(self):
        c0, c1 = self.base.c0.space, self.base.c1.space
        if (self.tau.left, self.tau.right, self.tau.codomain) != (c0, c0, c1):
            raise ValueError("tau must map C0 x C0 -> C1")


def _commutator(a: Algebra) -> BilMap:
    return a.mult.sub(a.mult.swapped())


def braiding_xmod_assoc_laws(b: XBraiding):
    """BAs1..BAs6 on basis pairs/triples, as (tag, dims, law, dim) entries."""
    x = b.base
    M, N = x.m, x.n
    F = M.field
    s1, s2, d, br = x.action.star1, x.action.star2, x.boundary, b.brace
    ncomm = _commutator(N)
    mcomm = _commutator(M)

    def lie_star(n, m):
        # [b_n, b_m]_* = b_n *1 b_m - b_m *2 b_n
        return vsub(F, s1.on_basis(n, m), s2.on_basis(m, n))

    return [
        (
            "BAs1",
            (N.dim, N.dim),
            lambda n, n2: (d.apply(br.on_basis(n, n2)), ncomm.on_basis(n, n2)),
            N.dim,
        ),
        (
            "BAs2",
            (M.dim, M.dim),
            lambda m, m2: (
                br.apply(d.column(m), d.column(m2)),
                mcomm.on_basis(m, m2),
            ),
            M.dim,
        ),
        (
            "BAs3",
            (M.dim, N.dim),
            lambda m, n: (
                br.apply_right(d.column(m), n),
                vneg(F, lie_star(n, m)),
            ),
            M.dim,
        ),
        (
            "BAs4",
            (N.dim, M.dim),
            lambda n, m: (br.apply_left(n, d.column(m)), lie_star(n, m)),
            M.dim,
        ),
        (
            "BAs5",
            (N.dim, N.dim, N.dim),
            lambda n, n2, n3: (
                br.apply_left(n, N.mult.on_basis(n2, n3)),
                vadd(
                    F,
                    s1.apply_left(n2, br.on_basis(n, n3)),
                    s2.apply_right(br.on_basis(n, n2), n3),
                ),
            ),
            M.dim,
        ),
        (
            "BAs6",
            (N.dim, N.dim, N.dim),
            lambda n, n2, n3: (
                br.apply_right(N.mult.on_basis(n, n2), n3),
                vadd(
                    F,
                    s1.apply_left(n, br.on_basis(n2, n3)),
                    s2.apply_right(br.on_basis(n, n3), n2),
                ),
            ),
            M.dim,
        ),
    ]


def validate_braiding_xmod_assoc(
    b: XBraiding, subject: str = "braiding"
) -> ValidationReport:
    """BAs1..BAs6 on basis pairs/triples."""
    return merge(subject, [sweep(*law) for law in braiding_xmod_assoc_laws(b)])


def braiding_xmod_lie_laws(b: XBraiding):
    """BLie1..BLie6 on basis pairs/triples, as (tag, dims, law, dim) entries."""
    x = b.base
    M, N = x.m, x.n
    F = M.field
    dot, d, br = x.action.dot, x.boundary, b.brace

    return [
        (
            "BLie1",
            (N.dim, N.dim),
            lambda n, n2: (d.apply(br.on_basis(n, n2)), N.mult.on_basis(n, n2)),
            N.dim,
        ),
        (
            "BLie2",
            (M.dim, M.dim),
            lambda m, m2: (
                br.apply(d.column(m), d.column(m2)),
                M.mult.on_basis(m, m2),
            ),
            M.dim,
        ),
        (
            "BLie3",
            (M.dim, N.dim),
            lambda m, n: (
                br.apply_right(d.column(m), n),
                vneg(F, dot.on_basis(n, m)),
            ),
            M.dim,
        ),
        (
            "BLie4",
            (N.dim, M.dim),
            lambda n, m: (br.apply_left(n, d.column(m)), dot.on_basis(n, m)),
            M.dim,
        ),
        (
            "BLie5",
            (N.dim, N.dim, N.dim),
            lambda n, n2, n3: (
                br.apply_left(n, N.mult.on_basis(n2, n3)),
                vsub(
                    F,
                    br.apply_right(N.mult.on_basis(n, n2), n3),
                    br.apply_right(N.mult.on_basis(n, n3), n2),
                ),
            ),
            M.dim,
        ),
        (
            "BLie6",
            (N.dim, N.dim, N.dim),
            lambda n, n2, n3: (
                br.apply_right(N.mult.on_basis(n, n2), n3),
                vsub(
                    F,
                    br.apply_left(n, N.mult.on_basis(n2, n3)),
                    br.apply_left(n2, N.mult.on_basis(n, n3)),
                ),
            ),
            M.dim,
        ),
    ]


def validate_braiding_xmod_lie(
    b: XBraiding, subject: str = "braiding"
) -> ValidationReport:
    """BLie1..BLie6 on basis pairs/triples."""
    return merge(subject, [sweep(*law) for law in braiding_xmod_lie_laws(b)])


def _cat_parts(b: CatBraiding):
    c = b.base
    return c, c.c1, c.c0, b.tau


def _cat_t12(b: CatBraiding, t1: str, t2: str):
    """The source/target and composition laws shared by both flavors."""
    c, c1, c0, tau = _cat_parts(b)
    return [
        (
            t1,
            (c0.dim, c0.dim),
            lambda a, d: (c.s.apply(tau.on_basis(a, d)), c0.mult.on_basis(a, d)),
            c0.dim,
        ),
        (
            t1,
            (c0.dim, c0.dim),
            lambda a, d: (c.t.apply(tau.on_basis(a, d)), c0.mult.on_basis(d, a)),
            c0.dim,
        ),
        (
            t2,
            (c1.dim, c1.dim),
            lambda x, y: (
                k_formula(
                    c,
                    c1.mult.on_basis(x, y),
                    tau.apply(c.t.column(x), c.t.column(y)),
                ),
                k_formula(
                    c,
                    tau.apply(c.s.column(x), c.s.column(y)),
                    c1.mult.on_basis(y, x),
                ),
            ),
            c1.dim,
        ),
    ]


def braiding_cat_assoc_laws(b: CatBraiding):
    """AsT1..AsT4 as (tag, dims, law, dim) entries; AsT2-4 evaluate compositions
    via the forced formula."""
    c, c1, c0, tau = _cat_parts(b)

    return _cat_t12(b, "AsT1", "AsT2") + [
        (
            "AsT3",
            (c0.dim, c0.dim, c0.dim),
            lambda a, d, g: (
                tau.apply_right(c0.mult.on_basis(a, d), g),
                k_formula(
                    c,
                    c.e_mul.apply_left(a, tau.on_basis(d, g)),
                    c.mul_e.apply_right(tau.on_basis(a, g), d),
                ),
            ),
            c1.dim,
        ),
        (
            "AsT4",
            (c0.dim, c0.dim, c0.dim),
            lambda a, d, g: (
                tau.apply_left(a, c0.mult.on_basis(d, g)),
                k_formula(
                    c,
                    c.mul_e.apply_right(tau.on_basis(a, d), g),
                    c.e_mul.apply_left(d, tau.on_basis(a, g)),
                ),
            ),
            c1.dim,
        ),
    ]


def validate_braiding_cat_assoc(
    b: CatBraiding, subject: str = "braiding"
) -> ValidationReport:
    """AsT1..AsT4; AsT2-4 evaluate compositions via the forced formula."""
    return merge(subject, [sweep(*law) for law in braiding_cat_assoc_laws(b)])


def braiding_cat_lie_ulualan_laws(b: CatBraiding):
    """LieT1, LieT2, LieB3, LieB4 as (tag, dims, law, dim) entries."""
    c, c1, c0, tau = _cat_parts(b)
    F = c1.field

    return _cat_t12(b, "LieT1", "LieT2") + [
        (
            "LieB3",
            (c0.dim, c0.dim, c0.dim),
            lambda a, d, g: (
                tau.apply_right(c0.mult.on_basis(a, d), g),
                vadd(
                    F,
                    c.mul_e.apply_right(tau.on_basis(a, g), d),
                    c.e_mul.apply_left(a, tau.on_basis(d, g)),
                ),
            ),
            c1.dim,
        ),
        (
            "LieB4",
            (c0.dim, c0.dim, c0.dim),
            lambda a, d, g: (
                tau.apply_left(a, c0.mult.on_basis(d, g)),
                vadd(
                    F,
                    c.e_mul.apply_left(d, tau.on_basis(a, g)),
                    c.mul_e.apply_right(tau.on_basis(a, d), g),
                ),
            ),
            c1.dim,
        ),
    ]


def validate_braiding_cat_lie_ulualan(
    b: CatBraiding, subject: str = "braiding"
) -> ValidationReport:
    """LieT1, LieT2 plus the bracket-coherence axioms LieB3, LieB4."""
    return merge(subject, [sweep(*law) for law in braiding_cat_lie_ulualan_laws(b)])


def braiding_cat_lie_alt_laws(b: CatBraiding):
    """LieT1..LieT4 as (tag, dims, law, dim) entries."""
    c, c1, c0, tau = _cat_parts(b)
    F = c1.field

    return _cat_t12(b, "LieT1", "LieT2") + [
        (
            "LieT3",
            (c0.dim, c0.dim, c0.dim),
            lambda a, d, g: (
                tau.apply_right(c0.mult.on_basis(a, d), g),
                vsub(
                    F,
                    tau.apply_left(a, c0.mult.on_basis(d, g)),
                    tau.apply_left(d, c0.mult.on_basis(a, g)),
                ),
            ),
            c1.dim,
        ),
        (
            "LieT4",
            (c0.dim, c0.dim, c0.dim),
            lambda a, d, g: (
                tau.apply_left(a, c0.mult.on_basis(d, g)),
                vsub(
                    F,
                    tau.apply_right(c0.mult.on_basis(a, d), g),
                    tau.apply_right(c0.mult.on_basis(a, g), d),
                ),
            ),
            c1.dim,
        ),
    ]


def validate_braiding_cat_lie_alt(
    b: CatBraiding, subject: str = "braiding"
) -> ValidationReport:
    """LieT1, LieT2 plus the tau-only coherence axioms LieT3, LieT4."""
    return merge(subject, [sweep(*law) for law in braiding_cat_lie_alt_laws(b)])


def anticoherence_laws(b: CatBraiding):
    """tau_{a,[b,c]} = [e(a), tau_{b,c}], the mirror identity, and their
    antisymmetry consequence, as (tag, dims, law, dim) entries; only meaningful
    away from characteristic 2."""
    c, c1, c0, tau = _cat_parts(b)
    if c1.field.characteristic == 2:
        raise CharTwo("anticoherence requires characteristic != 2")
    F = c1.field

    return [
        (
            "AC1",
            (c0.dim, c0.dim, c0.dim),
            lambda a, d, g: (
                tau.apply_left(a, c0.mult.on_basis(d, g)),
                c.e_mul.apply_left(a, tau.on_basis(d, g)),
            ),
            c1.dim,
        ),
        (
            "AC2",
            (c0.dim, c0.dim, c0.dim),
            lambda a, d, g: (
                tau.apply_right(c0.mult.on_basis(d, g), a),
                c.mul_e.apply_right(tau.on_basis(d, g), a),
            ),
            c1.dim,
        ),
        (
            "AC3",
            (c0.dim, c0.dim, c0.dim),
            lambda a, d, g: (
                tau.apply_left(a, c0.mult.on_basis(d, g)),
                vneg(F, tau.apply_right(c0.mult.on_basis(d, g), a)),
            ),
            c1.dim,
        ),
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
        for tag, dims, law, dim in laws(with_braiding(b, x)):
            res = out.setdefault(tag, [])
            res.extend((vsub(F, *law(*idx)), dim) for idx in basis_tuples(dims))
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


def _bar(x: XModAssoc | XModLie):
    """The categorical algebra (M x| N, N, s, t, e) of a crossed module the
    caller has validated, with s = proj_N, t = proj_N + d proj_M, e = incl_N,
    and the semidirect product it is built on."""
    sd = _semidirect(x.action)
    flavor = ASSOC if isinstance(x, XModAssoc) else LIE
    t = sd.proj_actor.add(x.boundary.after(sd.proj_module))
    return CatAlgebra(sd.algebra, x.n, sd.proj_actor, t, sd.incl_actor, flavor), sd


def cx_functor(b: XBraiding) -> CatBraiding:
    """Bar construction: (M x| N, N, s, t, e) with tau_{n,n'} = (-{n,n'}, nn')."""
    _check_cx_input(b)
    return _cx(b)[0]


def _check_cx_input(b: XBraiding):
    if not isinstance(b.base, XModAssoc):
        raise InvalidInput("cx_functor takes a braided associative crossed module")
    require_valid_xmod_assoc(b.base)
    validate_braiding_xmod_assoc(b).require(InvalidInput, "braiding axioms fail")


def _cx(b: XBraiding):
    """cx_functor on a braiding the caller has validated, with the
    semidirect product it is built on; asserts the output."""
    N = b.base.n
    cat, sd = _bar(b.base)
    F = N.field

    def rule(i, j):
        return vadd(
            F,
            sd.incl_module.apply(vneg(F, b.brace.on_basis(i, j))),
            sd.incl_actor.apply(N.mult.on_basis(i, j)),
        )

    tau = bilinear_from_rule(N.space, N.space, sd.algebra.space, rule)
    out = CatBraiding(cat, tau)
    validate_braiding_cat_assoc(out).assert_ok("bar construction failed to validate")
    return out, sd


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
    return _xc(b, kernel_part(b.base))


def _check_xc_input(b: CatBraiding):
    if b.base.flavor != ASSOC:
        raise InvalidInput("xc_functor takes a braided associative categorical algebra")
    require_valid_cat(b.base)
    validate_braiding_cat_assoc(b).require(
        InvalidInput, "categorical braiding axioms fail"
    )


def _xc(b: CatBraiding, kpart) -> XBraiding:
    """xc_functor on a braiding the caller has validated, given the
    `kernel_part` of its base; asserts the output."""
    c, c1, c0, tau = _cat_parts(b)
    F = c1.field
    ks, kspace, incl = kpart

    escaped = "value escaped ker(s)"

    def product_in_ker(left, x, right, y):  # (i, j) -> x(i) y(j), inside ker(s)
        return bilinear_from_rule(
            left, right, kspace, lambda i, j: _kernel_coords(ks, c1.product(x(i), y(j)), escaped)
        )

    k, e = incl.column, c.e.column
    kalg = Algebra(kspace, product_in_ker(kspace, k, kspace, k))
    star1 = product_in_ker(c0.space, e, kspace, k)
    star2 = product_in_ker(kspace, k, c0.space, e)
    boundary = c.t.after(incl)
    action = AssocAction(c0, kalg, star1, star2)
    base = XModAssoc(action, boundary)

    def brace_rule(a, d):
        v = vsub(F, c.e.apply(c0.mult.on_basis(a, d)), tau.on_basis(a, d))
        return _kernel_coords(ks, v, escaped)

    brace = bilinear_from_rule(c0.space, c0.space, kspace, brace_rule)
    out = XBraiding(base, brace)
    try:
        require_valid_xmod_assoc(base)
    except InvalidXMod as exc:
        raise InternalInvariantViolation(
            f"kernel construction failed to validate: {exc}"
        ) from exc
    validate_braiding_xmod_assoc(out).assert_ok(
        "kernel construction failed to validate"
    )
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
    brh = intertwining_sweep("BrH", phi.f1, source.brace, target.brace, phi.f2, phi.f2)
    return merge(subject, rep, [brh])


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
    entries = [hom_sweep("IFH", f1, sc.c1, tc.c1), hom_sweep("IFH", f0, sc.c0, tc.c0)]
    for left, right in (
        (tc.s.after(f1), f0.after(sc.s)),
        (tc.t.after(f1), f0.after(sc.t)),
        (f1.after(sc.e), tc.e.after(f0)),
    ):
        entries.append(
            sweep(
                "IFC",
                (left.domain.dim,),
                lambda i, L=left, R=right: (L.column(i), R.column(i)),
                left.codomain.dim,
            )
        )
    entries.append(intertwining_sweep("IFB", f1, source.tau, target.tau, f0, f0))
    return merge(subject, entries)


def alpha_iso(b: XBraiding) -> XModMorphism:
    """alpha: b -> xc(cx(b)), with alpha_M(m) = (m, 0) in kernel coordinates."""
    return _alpha(b)[0]


def _alpha(b: XBraiding):
    """alpha_iso plus the morphism report that proves it an isomorphism."""
    # cx_functor's checks, then its core, which asserted the braiding
    # axioms on cx; the cat axioms are the rest of what xc_functor checks
    _check_cx_input(b)
    cx, sd = _cx(b)
    require_valid_cat(cx.base)
    kpart = kernel_part(cx.base)
    ks, kspace, _ = kpart
    x = b.base
    m_dim = x.m.dim
    escaped = "(m, 0) escaped ker(s) in bar construction"
    cols = (_kernel_coords(ks, sd.incl_module.column(i), escaped) for i in range(m_dim))
    f1 = from_columns(x.m.space, kspace, cols)
    phi = XModMorphism(f1, identity_map(x.n.space))
    target = _xc(cx, kpart)
    rep = validate_braided_xmod_morphism(phi, b, target)
    if not rep.ok or f1.rank() != m_dim or kspace.dim != m_dim:
        raise InternalInvariantViolation(
            f"alpha failed to validate as a braided isomorphism: {rep.failing_tags()}"
        )
    return phi, rep


def beta_iso(b: CatBraiding):
    """beta: b -> cx(xc(b)), beta_C1(x) = (x - e(s(x)), s(x)).

    Returns the internal functor pair (F1, F0).
    """
    return _beta(b)[0]


def _beta(b: CatBraiding):
    """beta_iso plus the functor report that proves it an isomorphism."""
    c, c1, c0, tau = _cat_parts(b)
    # xc_functor's checks, then its core on the kernel computed here; the
    # core asserted exactly what cx_functor would check
    _check_xc_input(b)
    kpart = kernel_part(c)
    ks, kspace, _ = kpart
    target, sd = _cx(_xc(b, kpart))
    vertical = identity_map(c1.space).sub(c.e.after(c.s))  # x - e(s(x))
    escaped = "x - e(s(x)) escaped ker(s)"
    cols = (_kernel_coords(ks, vertical.column(i), escaped) for i in range(c1.dim))
    in_ker = from_columns(c1.space, kspace, cols)
    f1 = sd.incl_module.after(in_ker).add(sd.incl_actor.after(c.s))
    f0 = identity_map(c0.space)
    rep = validate_braided_internal_functor(f1, f0, b, target)
    if not rep.ok or f1.rank() != c1.dim or target.base.c1.dim != c1.dim:
        raise InternalInvariantViolation(
            f"beta failed to validate as a braided isomorphism: {rep.failing_tags()}"
        )
    return (f1, f0), rep


# ---------------------------------------------------------------------------
# Lie-fication transports


def cat_braiding_liefy(b: CatBraiding) -> CatBraiding:
    """tau^Lie_{a,b} = tau_{a,b} - tau_{b,a} on the Lie-fied base."""
    from .icat import cat_liefy

    if b.base.c1.field.characteristic == 2:
        raise CharTwo("braiding Lie-fication requires characteristic != 2")
    validate_braiding_cat_assoc(b).require(InvalidInput, "input braiding axioms fail")
    base = cat_liefy(b.base)
    out = CatBraiding(base, b.tau.sub(b.tau.swapped()))
    validate_braiding_cat_lie_ulualan(out).assert_ok(
        "Lie-fied categorical braiding failed"
    )
    return out


def xmod_braiding_liefy(b: XBraiding) -> XBraiding:
    """{n, n'}_L = ({n, n'} - {n', n}) / 2 on the Lie-fied crossed module."""
    if not isinstance(b.base, XModAssoc):
        raise InvalidInput("xmod_braiding_liefy takes an associative braided xmod")
    F = b.base.m.field
    if F.characteristic == 2:
        raise CharTwo("braiding Lie-fication requires characteristic != 2")
    validate_braiding_xmod_assoc(b).require(InvalidInput, "input braiding axioms fail")
    base = xmod_liefy(b.base)
    half = F.inv(F.of(2))
    brace = b.brace.sub(b.brace.swapped()).scale(half)
    out = XBraiding(base, brace)
    validate_braiding_xmod_lie(out).assert_ok("Lie-fied braiding failed")
    return out


def commutator_braiding(a: Algebra) -> XBraiding:
    """The commutator as a braiding on the identity crossed module."""
    return XBraiding(identity_xmod_assoc(a), _commutator(a))


def bracket_braiding(a: Algebra) -> XBraiding:
    """The Lie bracket as a braiding on the identity crossed module."""
    return XBraiding(identity_xmod_lie(a), a.mult)
