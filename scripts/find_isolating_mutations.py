#!/usr/bin/env python3
"""Derive braidings that violate exactly one braiding axiom.

Every braiding axiom is affine in the brace/tau tensor once the
underlying crossed module or categorical algebra is fixed.  For a
target tag this solves the linear system "all other axioms hold" and
looks for a solution violating the target; the solutions are written
to fixtures/mutations/ as DSL files.

Run from the repository root:  python3 scripts/find_isolating_mutations.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from braidalg.action import (
    AssocAction,
    LieAction,
    _semidirect_space,
    semidirect_assoc,
    semidirect_lie,
    zero_action_assoc,
)
from braidalg.algebra import catalog, from_constants
from braidalg.braid import (
    CatBraiding,
    XBraiding,
    commutator_braiding,
    cx_functor,
    validate_braiding_cat_assoc,
    validate_braiding_cat_lie_alt,
    validate_braiding_cat_lie_ulualan,
    validate_braiding_xmod_lie,
)
from braidalg.dsl import print_catbraiding_doc, print_xbraiding_doc
from braidalg.fields import QQ
from braidalg.icat import ASSOC, LIE, CatAlgebra, cat_liefy, k_formula
from braidalg.linear import (
    LinMap,
    Space,
    bilinear_from_rule,
    from_columns,
    kernel,
    rref,
    vadd,
    vsub,
    zero_bilmap,
    zero_map,
)
from braidalg.natensor import tensor_braiding, tensor_square
from braidalg.xmod import XModAssoc, XModLie

F = QQ


# ---------------------------------------------------------------------------
# residuals: one (lhs - rhs) vector per sweep index, as a function of the
# brace/tau bilinear map


def cat_residuals(tag, b):
    c = b.base
    c1, c0, tau = c.c1, c.c0, b.tau
    b0 = c0.space.basis_vector
    b1 = c1.space.basis_vector
    out = []
    if tag == "T1s":
        for a in range(c0.dim):
            for d in range(c0.dim):
                out.append(vsub(F, c.s.apply(tau.on_basis(a, d)), c0.mult.on_basis(a, d)))
    elif tag == "T1t":
        for a in range(c0.dim):
            for d in range(c0.dim):
                out.append(vsub(F, c.t.apply(tau.on_basis(a, d)), c0.mult.on_basis(d, a)))
    elif tag == "T2":
        for x in range(c1.dim):
            for y in range(c1.dim):
                lhs = k_formula(
                    c,
                    c1.mult.on_basis(x, y),
                    tau.apply(c.t.apply(b1(x)), c.t.apply(b1(y))),
                )
                rhs = k_formula(
                    c,
                    tau.apply(c.s.apply(b1(x)), c.s.apply(b1(y))),
                    c1.mult.on_basis(y, x),
                )
                out.append(vsub(F, lhs, rhs))
    elif tag in ("AsT3", "AsT4"):
        for a in range(c0.dim):
            for d in range(c0.dim):
                for g in range(c0.dim):
                    if tag == "AsT3":
                        lhs = tau.apply(c0.mult.on_basis(a, d), b0(g))
                        rhs = k_formula(
                            c,
                            c1.product(c.e.column(a), tau.on_basis(d, g)),
                            c1.product(tau.on_basis(a, g), c.e.column(d)),
                        )
                    else:
                        lhs = tau.apply(b0(a), c0.mult.on_basis(d, g))
                        rhs = k_formula(
                            c,
                            c1.product(tau.on_basis(a, d), c.e.column(g)),
                            c1.product(c.e.column(d), tau.on_basis(a, g)),
                        )
                    out.append(vsub(F, lhs, rhs))
    elif tag in ("LieB3", "LieB4", "LieT3", "LieT4"):
        for a in range(c0.dim):
            for d in range(c0.dim):
                for g in range(c0.dim):
                    if tag == "LieB3":
                        lhs = tau.apply(c0.mult.on_basis(a, d), b0(g))
                        rhs = vadd(
                            F,
                            c1.product(tau.on_basis(a, g), c.e.column(d)),
                            c1.product(c.e.column(a), tau.on_basis(d, g)),
                        )
                    elif tag == "LieB4":
                        lhs = tau.apply(b0(a), c0.mult.on_basis(d, g))
                        rhs = vadd(
                            F,
                            c1.product(c.e.column(d), tau.on_basis(a, g)),
                            c1.product(tau.on_basis(a, d), c.e.column(g)),
                        )
                    elif tag == "LieT3":
                        lhs = tau.apply(c0.mult.on_basis(a, d), b0(g))
                        rhs = vsub(
                            F,
                            tau.apply(b0(a), c0.mult.on_basis(d, g)),
                            tau.apply(b0(d), c0.mult.on_basis(a, g)),
                        )
                    else:
                        lhs = tau.apply(b0(a), c0.mult.on_basis(d, g))
                        rhs = vsub(
                            F,
                            tau.apply(c0.mult.on_basis(a, d), b0(g)),
                            tau.apply(c0.mult.on_basis(a, g), b0(d)),
                        )
                    out.append(vsub(F, lhs, rhs))
    else:
        raise ValueError(tag)
    return out


def xlie_residuals(tag, b):
    x = b.base
    M, N = x.m, x.n
    dot, d, br = x.action.dot, x.boundary, b.brace
    bn = N.space.basis_vector
    out = []
    if tag == "BLie1":
        for n in range(N.dim):
            for n2 in range(N.dim):
                out.append(
                    vsub(F, d.apply(br.on_basis(n, n2)), N.mult.on_basis(n, n2))
                )
    elif tag == "BLie2":
        for m in range(M.dim):
            for m2 in range(M.dim):
                out.append(
                    vsub(
                        F,
                        br.apply(d.column(m), d.column(m2)),
                        M.mult.on_basis(m, m2),
                    )
                )
    elif tag == "BLie3":
        for m in range(M.dim):
            for n in range(N.dim):
                out.append(
                    vadd(
                        F,
                        br.apply(d.column(m), bn(n)),
                        dot.apply(bn(n), M.space.basis_vector(m)),
                    )
                )
    elif tag == "BLie4":
        for n in range(N.dim):
            for m in range(M.dim):
                out.append(
                    vsub(F, br.apply(bn(n), d.column(m)), dot.on_basis(n, m))
                )
    elif tag in ("BLie5", "BLie6"):
        for n in range(N.dim):
            for n2 in range(N.dim):
                for n3 in range(N.dim):
                    if tag == "BLie5":
                        lhs = br.apply(bn(n), N.mult.on_basis(n2, n3))
                        rhs = vsub(
                            F,
                            br.apply(N.mult.on_basis(n, n2), bn(n3)),
                            br.apply(N.mult.on_basis(n, n3), bn(n2)),
                        )
                    else:
                        lhs = br.apply(N.mult.on_basis(n, n2), bn(n3))
                        rhs = vsub(
                            F,
                            br.apply(bn(n), N.mult.on_basis(n2, n3)),
                            br.apply(bn(n2), N.mult.on_basis(n, n3)),
                        )
                    out.append(vsub(F, lhs, rhs))
    else:
        raise ValueError(tag)
    return out


# ---------------------------------------------------------------------------
# affine machinery


def flatten(vectors):
    return [c for v in vectors for c in v]


def bilinear_from_vec(left, right, cod, vec):
    """The bilinear map whose k-coordinate on (b_i, b_j) is the unknown
    vec[(k * left.dim + i) * right.dim + j]."""
    L, R = left.dim, right.dim
    return bilinear_from_rule(
        left,
        right,
        cod,
        lambda i, j: tuple(vec[(k * L + i) * R + j] for k in range(cod.dim)),
    )


def affine_parts(dim_unknown, make_obj, residual):
    zero_vec = [F.zero()] * dim_unknown
    const = flatten(residual(make_obj(zero_vec)))
    cols = []
    for u in range(dim_unknown):
        v = list(zero_vec)
        v[u] = F.one()
        r = flatten(residual(make_obj(v)))
        cols.append([F.sub(a, b) for a, b in zip(r, const)])
    rows = [
        tuple(cols[u][r] for u in range(dim_unknown)) for r in range(len(const))
    ]
    return rows, const


def solve_affine(rows, const, dim_unknown):
    """Solutions of rows . x = -const: (particular, nullspace basis) or None.

    The particular solution sets every free variable to zero; since rref
    eliminates pivot columns from all other rows, each pivot variable then
    equals the reduced right-hand side directly.
    """
    aug = [tuple(r) + (F.neg(c),) for r, c in zip(rows, const)]
    red = rref(F, aug)
    part = [F.zero()] * dim_unknown
    for row in red:
        piv = next((j for j, a in enumerate(row[:-1]) if a != F.zero()), None)
        if piv is None:
            if row[-1] != F.zero():
                return None
            continue
        part[piv] = row[-1]
    dom = Space(F, tuple(f"u{i}" for i in range(dim_unknown)))
    if rows:
        cod = Space(F, tuple(f"r{i}" for i in range(len(rows))))
        f = LinMap(dom, cod, tuple(tuple(r) for r in rows))
        null = list(kernel(f).basis)
    else:
        null = list(dom.basis())
    return part, null


_PARTS_CACHE = {}


def cached_parts(key, tag, dim_unknown, make_obj, residual):
    if (key, tag) not in _PARTS_CACHE:
        _PARTS_CACHE[(key, tag)] = affine_parts(
            dim_unknown, make_obj, lambda o, t=tag: residual(t, o)
        )
    return _PARTS_CACHE[(key, tag)]


def isolate(key, dim_unknown, make_obj, tags, target, residual):
    rows, const = [], []
    zero = F.zero()
    for tag in tags:
        if tag == target:
            continue
        r, c = cached_parts(key, tag, dim_unknown, make_obj, residual)
        for row, cst in zip(r, c):
            if cst != zero or any(a != zero for a in row):
                rows.append(row)
                const.append(cst)
    sol = solve_affine(rows, const, dim_unknown)
    if sol is None:
        return None
    part, null = sol
    t_rows, t_const = cached_parts(key, target, dim_unknown, make_obj, residual)

    def target_res(vec):
        return [
            F.add(sum((F.mul(r[u], vec[u]) for u in range(dim_unknown)), F.zero()), c)
            for r, c in zip(t_rows, t_const)
        ]

    if any(v != F.zero() for v in target_res(part)):
        return part
    for n in null:
        cand = [F.add(a, b) for a, b in zip(part, n)]
        if any(v != F.zero() for v in target_res(cand)):
            return cand
    return None


# ---------------------------------------------------------------------------
# drivers


def _zero_brace(x):
    return XBraiding(x, zero_bilmap(x.n.space, x.n.space, x.m.space))


def degenerate_xmods():
    """Valid associative crossed modules with room in the brace/tau tensor."""
    one = F.one()
    # boundary with kernel and cokernel, everything else zero
    m = from_constants(Space(F, ("m1", "m2")), {})
    n = from_constants(Space(F, ("u", "v")), {})
    d = from_columns(m.space, n.space, [n.space.basis_vector(0), n.space.zero()])
    yield "ker", XModAssoc(zero_action_assoc(n, m), d)
    # one-sided identity actor, nontrivial action, zero boundary
    m1 = from_constants(Space(F, ("m",)), {})
    nu = from_constants(
        Space(F, ("u", "v")),
        {("u", "u"): {"u": one}, ("u", "v"): {"v": one}, ("v", "u"): {"v": one}},
    )
    star1 = bilinear_from_rule(
        nu.space, m1.space, m1.space,
        lambda i, j: m1.space.basis_vector(j) if i == 0 else m1.space.zero(),
    )
    star2 = bilinear_from_rule(
        m1.space, nu.space, m1.space,
        lambda i, j: m1.space.basis_vector(i) if j == 0 else m1.space.zero(),
    )
    yield "idact", XModAssoc(
        AssocAction(nu, m1, star1, star2), zero_map(m1.space, nu.space)
    )
    # noncommutative actor, zero action and boundary
    nl = from_constants(
        Space(F, ("u", "v")), {("u", "u"): {"u": one}, ("u", "v"): {"v": one}}
    )
    yield "noncomm", XModAssoc(zero_action_assoc(nl, m1), zero_map(m1.space, nl.space))


def _bar_cat(x):
    """Bar construction on the underlying crossed module, no braiding needed."""
    sd = semidirect_assoc(x.action)
    s_bar = sd.proj_actor
    t_bar = sd.proj_actor.add(x.boundary.after(sd.proj_module))
    cat = CatAlgebra(sd.algebra, x.n, s_bar, t_bar, sd.incl_actor, ASSOC)
    return CatBraiding(
        cat, zero_bilmap(x.n.space, x.n.space, sd.algebra.space)
    )


def cat_assoc_candidates():
    for name, x in degenerate_xmods():
        yield name + "cx", _bar_cat(x)
    yield "upper2cx", cx_functor(commutator_braiding(catalog("Upper(2)", QQ)))
    yield "mat2cx", cx_functor(commutator_braiding(catalog("Mat(2)", QQ)))


def lie_degenerate_xmods():
    one = F.one()
    m1 = from_constants(Space(F, ("m",)), {})
    # solvable 2-dim actor [u,v] = v, dot(u, m) = m, zero boundary
    nsolv = from_constants(
        Space(F, ("u", "v")),
        {("u", "v"): {"v": one}, ("v", "u"): {"v": F.neg(one)}},
    )
    dot = bilinear_from_rule(
        nsolv.space, m1.space, m1.space,
        lambda i, j: m1.space.basis_vector(j) if i == 0 else m1.space.zero(),
    )
    yield "solv", XModLie(LieAction(nsolv, m1, dot), zero_map(m1.space, nsolv.space))
    # Heisenberg actor, dot(x, m) = m, zero boundary
    nh = catalog("Heis3", F)
    doth = bilinear_from_rule(
        nh.space, m1.space, m1.space,
        lambda i, j: m1.space.basis_vector(j) if i == 0 else m1.space.zero(),
    )
    yield "heisdot", XModLie(LieAction(nh, m1, doth), zero_map(m1.space, nh.space))
    # tensor-square crossed module of Heis3 (kernel and cokernel both nonzero)
    yield "heisT", tensor_braiding(tensor_square(catalog("Heis3", F))).base


def _lie_bar_cat(x):
    alg = semidirect_lie(x.action)
    total, incl_m, incl_n, proj_m, proj_n = _semidirect_space(x.m.space, x.n.space)
    s_bar = proj_n
    t_bar = proj_n.add(x.boundary.after(proj_m))
    cat = CatAlgebra(alg, x.n, s_bar, t_bar, incl_n, LIE)
    return CatBraiding(cat, zero_bilmap(x.n.space, x.n.space, total))


def cat_lie_candidates():
    for name, x in lie_degenerate_xmods():
        yield name + "bar", _lie_bar_cat(x)
    for name, b in cat_assoc_candidates():
        base = cat_liefy(b.base)
        yield name + "lie", CatBraiding(
            base, zero_bilmap(base.c0.space, base.c0.space, base.c1.space)
        )


def xmod_lie_candidates():
    from braidalg.braid import bracket_braiding

    yield "sl2T", tensor_braiding(tensor_square(catalog("sl2", QQ)))
    yield "heis3T", tensor_braiding(tensor_square(catalog("Heis3", QQ)))
    yield "gl2id", bracket_braiding(catalog("gl2", QQ))


def emit(outdir, fname, text):
    with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
        fh.write(text)
    print("wrote", fname)


def main():
    outdir = os.path.join(os.path.dirname(__file__), "..", "fixtures", "mutations")
    os.makedirs(outdir, exist_ok=True)

    assoc_tags = ("T1s", "T1t", "T2", "AsT3", "AsT4")
    for target, label in (("T2", "AsT2"), ("AsT3", "AsT3"), ("AsT4", "AsT4")):
        found = False
        for name, base in cat_assoc_candidates():
            c = base.base
            dim = c.c1.dim * c.c0.dim * c.c0.dim

            def make(vec, c=c):
                return CatBraiding(
                    c, bilinear_from_vec(c.c0.space, c.c0.space, c.c1.space, vec)
                )

            vec = isolate(name, dim, make, assoc_tags, target, cat_residuals)
            if vec is not None:
                mut = make(vec)
                rep = validate_braiding_cat_assoc(mut)
                print(label, "on", name, "fails:", sorted(set(rep.failing_tags())))
                emit(outdir, f"{label.lower()}_fail.alg", print_catbraiding_doc(mut, f"mut_{label.lower()}"))
                found = True
                break
        if not found:
            print(label, ": no isolating braiding found")

    ul_tags = ("T1s", "T1t", "T2", "LieB3", "LieB4")
    alt_tags = ("T1s", "T1t", "T2", "LieT3", "LieT4")
    for target, label, tags, val in (
        ("T2", "LieT2", ul_tags, validate_braiding_cat_lie_ulualan),
        ("LieB3", "LieB3", ul_tags, validate_braiding_cat_lie_ulualan),
        ("LieB4", "LieB4", ul_tags, validate_braiding_cat_lie_ulualan),
        ("LieT3", "LieT3", alt_tags, validate_braiding_cat_lie_alt),
        ("LieT4", "LieT4", alt_tags, validate_braiding_cat_lie_alt),
    ):
        found = False
        for name, base in cat_lie_candidates():
            c = base.base
            dim = c.c1.dim * c.c0.dim * c.c0.dim

            def make(vec, c=c):
                return CatBraiding(
                    c, bilinear_from_vec(c.c0.space, c.c0.space, c.c1.space, vec)
                )

            vec = isolate(name, dim, make, tags, target, cat_residuals)
            if vec is not None:
                mut = make(vec)
                rep = val(mut)
                print(label, "on", name, "fails:", sorted(set(rep.failing_tags())))
                emit(outdir, f"{label.lower()}_fail.alg", print_catbraiding_doc(mut, f"mut_{label.lower()}"))
                found = True
                break
        if not found:
            print(label, ": no isolating braiding found")

    blie_tags = ("BLie1", "BLie2", "BLie3", "BLie4", "BLie5", "BLie6")
    for target in ("BLie5", "BLie6"):
        found = False
        for name, base in xmod_lie_candidates():
            x = base.base
            dim = x.m.dim * x.n.dim * x.n.dim

            def make(vec, x=x):
                return XBraiding(
                    x, bilinear_from_vec(x.n.space, x.n.space, x.m.space, vec)
                )

            vec = isolate(name, dim, make, blie_tags, target, xlie_residuals)
            if vec is not None:
                mut = make(vec)
                rep = validate_braiding_xmod_lie(mut)
                print(target, "on", name, "fails:", sorted(set(rep.failing_tags())))
                emit(outdir, f"{target.lower()}_fail.alg", print_xbraiding_doc(mut, f"mut_{target.lower()}"))
                found = True
                break
        if not found:
            print(target, ": no isolating braiding found")


if __name__ == "__main__":
    main()
