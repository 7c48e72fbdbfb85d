"""Non-abelian tensor square of a Lie algebra under its adjoint action.

T = (M (x) M) / R, where R is spanned by the two relation families

    [m1,m2](x)m3 = m1(x)[m2,m3] - m2(x)[m1,m3]
    m1(x)[m2,m3] = [m3,m1](x)m2 - [m2,m1](x)m3

over all basis triples.  The bracket [u(x)v, w(x)x] = [u,v](x)[w,x]
descends to T; that descent is asserted, not assumed.  On a Lie input
the descent and the Lie property of T are theorems, so their checks
raise InternalInvariantViolation.
"""

from __future__ import annotations

from .algebra import Algebra, is_lie
from .braid import XBraiding
from .errors import InternalInvariantViolation, InvalidInput, NotLie
from .linear import (
    BilMap,
    LinMap,
    Space,
    Subspace,
    bilinear_from_rule,
    from_columns,
    is_zero,
    quotient,
    vadd,
    vscale,
)
from .record import Record
from .report import ValidationReport, merge, sweep
from .xmod import XModLie
from .action import LieAction


class TensorSquare(Record):
    base: Algebra  # Lie algebra M
    carrier: Algebra  # the quotient T
    pure: BilMap  # M x M -> T, (m, m') -> class of m (x) m'
    relations: Subspace  # relation span inside the plain tensor space
    proj: LinMap  # plain tensor space -> T
    lift: LinMap  # T -> plain tensor space, a section of proj


def _plain_tensor_space(m: Space) -> Space:
    labels = tuple(f"{a}_{b}" for a in m.labels for b in m.labels)
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise InvalidInput(f"label {label!r} of M (x) M names two basis pairs")
    return Space(m.field, labels)


def _place(field, acc, positions, u, op):
    """acc[p] = op(acc[p], u[a]) for the a-th of `positions`, nonzero u[a].

    With one factor a basis vector, u(x)b_k sits at range(k, n*n, n) and
    b_i(x)u at range(i*n, i*n + n), so no outer product is formed.
    """
    for p, a in zip(positions, u):
        if a != 0:
            acc[p] = op(acc[p], a)


def _bracket_map(m: Algebra, amb: Space) -> LinMap:
    """mu: M (x) M -> M, m1 (x) m2 -> [m1,m2]."""
    return from_columns(
        amb, m.space, [m.mult.on_basis(*divmod(p, m.dim)) for p in range(amb.dim)]
    )


def tensor_square(m: Algebra) -> TensorSquare:
    """Quotient of M (x) M by both relation families, with the induced bracket."""
    if not is_lie(m):
        raise NotLie("tensor_square requires a Lie algebra")
    F = m.field
    amb = _plain_tensor_space(m.space)
    n = m.dim
    left = [range(k, n * n, n) for k in range(n)]  # u(x)b_k
    right = [range(i * n, i * n + n) for i in range(n)]  # b_i(x)u

    rels = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                bij, bjk = m.mult.on_basis(i, j), m.mult.on_basis(j, k)
                bik, bki = m.mult.on_basis(i, k), m.mult.on_basis(k, i)
                bji = m.mult.on_basis(j, i)
                r = list(amb.zero())
                _place(F, r, left[k], bij, F.add)
                _place(F, r, right[i], bjk, F.sub)
                _place(F, r, right[j], bik, F.add)
                rels.append(tuple(r))
                r = list(amb.zero())
                _place(F, r, right[i], bjk, F.add)
                _place(F, r, left[j], bki, F.sub)
                _place(F, r, left[k], bji, F.add)
                rels.append(tuple(r))
    relations = Subspace.span(amb, rels)
    tspace, proj = quotient(amb, relations)

    pure = bilinear_from_rule(
        m.space, m.space, tspace, lambda i, j: proj.column(i * n + j)
    )

    # [u(x)v, w(x)x] = [u,v](x)[w,x], so the bracket of r with e_q is
    # mu(r)(x)mu(e_q), and 0 when mu(r) = 0; u(x)v lies in R exactly
    # when its class pure(u, v) is 0
    mu = _bracket_map(m, amb)
    for r in relations.basis:
        mr = mu.apply(r)
        if is_zero(mr):
            continue
        for q in range(amb.dim):
            if not is_zero(pure.apply(mr, mu.column(q))):
                raise InternalInvariantViolation(
                    "bracket does not respect the relation span (left argument)"
                )
            if not is_zero(pure.apply(mu.column(q), mr)):
                raise InternalInvariantViolation(
                    "bracket does not respect the relation span (right argument)"
                )

    # section of proj: quotient basis r lifts to the free ambient coordinate
    pivots = set(relations.pivots())
    free = [j for j in range(amb.dim) if j not in pivots]
    lift = from_columns(tspace, amb, [amb.basis_vector(c) for c in free])

    mu_lift = mu.after(lift)
    t_bracket = bilinear_from_rule(
        tspace,
        tspace,
        tspace,
        lambda i, j: pure.apply(mu_lift.column(i), mu_lift.column(j)),
    )
    carrier = Algebra(tspace, t_bracket)
    if not is_lie(carrier):
        raise InternalInvariantViolation(
            "induced bracket on the tensor square is not Lie"
        )
    return TensorSquare(m, carrier, pure, relations, proj, lift)


def tensor_xmod(ts: TensorSquare) -> XModLie:
    """(T, M, m.(m1 (x) m2) = [m,m1] (x) m2 + m1 (x) [m,m2], d(m1 (x) m2) = [m1,m2])."""
    m = ts.base
    F = m.field
    n = m.dim
    amb = ts.relations.ambient

    amb_boundary = _bracket_map(m, amb)

    def act(a, v):
        """b_a . v on M (x) M: v_p [b_a,b_i] (x) b_j + v_p b_i (x) [b_a,b_j]
        for each nonzero v_p, p = i*n + j."""
        out = list(amb.zero())
        for p, c in enumerate(v):
            if c != 0:
                i, j = divmod(p, n)
                bai, baj = m.mult.on_basis(a, i), m.mult.on_basis(a, j)
                _place(F, out, range(j, n * n, n), vscale(F, c, bai), F.add)
                _place(F, out, range(i * n, i * n + n), vscale(F, c, baj), F.add)
        return tuple(out)

    for r in ts.relations.basis:
        if any(c != 0 for c in amb_boundary.apply(r)):
            raise InternalInvariantViolation(
                "boundary does not vanish on the relation span"
            )
        for a in range(n):
            if not ts.relations.contains(act(a, r)):
                raise InternalInvariantViolation(
                    "action does not preserve the relation span"
                )

    tspace, proj, lift = ts.carrier.space, ts.proj, ts.lift
    boundary = amb_boundary.after(lift)
    dot = bilinear_from_rule(
        m.space, tspace, tspace, lambda a, i: proj.apply(act(a, lift.column(i)))
    )
    return XModLie(LieAction(m, ts.carrier, dot), boundary)


def tensor_braiding(ts: TensorSquare) -> XBraiding:
    """{m1, m2} = m1 (x) m2 on the tensor crossed module."""
    return XBraiding(tensor_xmod(ts), ts.pure)


def antisymmetry_consequence(ts: TensorSquare, subject: str = "tensor") -> ValidationReport:
    """pi(m1 (x) [m2,m3]) + pi([m2,m3] (x) m1) = 0 on all basis triples (tag TAnti)."""
    m = ts.base
    F = m.field
    n = m.dim
    zero = ts.carrier.space.zero()
    check = sweep(
        "TAnti",
        (n, n, n),
        lambda i, j, k: (
            vadd(
                F,
                ts.pure.apply_left(i, m.mult.on_basis(j, k)),
                ts.pure.apply_right(m.mult.on_basis(j, k), i),
            ),
            zero,
        ),
    )
    return merge(subject, [check])
