"""Non-abelian tensor square of a Lie algebra under its adjoint action.

T = (M (x) M) / R, where R is spanned by the two relation families

    rel1(i,j,k) = [b_i,b_j](x)b_k - b_i(x)[b_j,b_k] + b_j(x)[b_i,b_k]
    rel2(i,j,k) = b_i(x)[b_j,b_k] - [b_k,b_i](x)b_j + [b_j,b_i](x)b_k

and by c(x)c for each c in a basis of [M,M].  Each family is built on
half its index triples, which loses nothing for an alternating bracket:
rel1(j,i,k) = -rel1(i,j,k) and rel1(i,i,k) = 0, so family 1 runs on
i < j; rel2(i,k,j) = -rel2(i,j,k) and rel2(i,j,j) = 0, so family 2 runs
on j < k.  The c(x)c rows are the Lie presentation's [t,t] = 0: the
bracket below sends t(x)t to mu(t)(x)mu(t), and c(x)c' + c'(x)c for c, c'
in [M,M] lies in R by TAnti (see `antisymmetry_consequence`), so the
basis rows give every mu(t)(x)mu(t).  When 2 is invertible TAnti gives
2 c(x)c in R and the rows change nothing; in characteristic 2 the two
families alone can leave [t,t] nonzero (gl(2) over F2).

The bracket [u(x)v, w(x)x] = [u,v](x)[w,x] factors through
mu(u(x)v) = [u,v], so it descends to T once mu vanishes on R; that is
asserted, not assumed, and it gives the descent of the boundary mu too.
On a Lie input mu(R) = 0 (by Jacobi and alternation) and the Lie property
of T are theorems, in every characteristic, so their checks raise
InternalInvariantViolation.
"""

from __future__ import annotations

import itertools

from .algebra import Algebra, is_lie
from .braid import XBraiding
from .errors import InternalInvariantViolation, InvalidInput, NotLie
from .linear import (
    Bil,
    BilMap,
    Family,
    Lin,
    LinMap,
    Space,
    Subspace,
    b0,
    b1,
    b2,
    bilinear_from_rule,
    bilinear_from_term,
    evaluate,
    from_columns,
    is_zero,
    quotient,
    rref,
    vadd,
    vsub,
    zero_map,
)
from .record import Record
from .report import ValidationReport, merge, sweep
from .xmod import XMod
from .action import LieAction


class TensorSquare(Record):
    base: Algebra  # Lie algebra M
    carrier: Algebra  # the quotient T
    pure: BilMap  # M x M -> T, (m, m') -> class of m (x) m'
    relations: Subspace  # relation span inside the plain tensor space
    proj: LinMap  # plain tensor space -> T
    lift: LinMap  # T -> plain tensor space, a section of proj
    boundary: LinMap  # T -> M, t -> mu(lift(t)), the descended bracket map


def _plain_tensor_space(m: Space) -> Space:
    labels = tuple(f"{a}_{b}" for a in m.labels for b in m.labels)
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise InvalidInput(f"label {label!r} of M (x) M names two basis pairs")
    return Space(m.field, labels)


def _positions(n):
    """Where u(x)b_k and b_i(x)u put the entries of u in M (x) M, for
    dim M = n: left[k] = range(k, n*n, n) and right[i] = range(i*n, i*n + n)."""
    return [range(k, n * n, n) for k in range(n)], [range(i * n, i * n + n) for i in range(n)]


def _placed(u, positions):
    """u(x)b_k or b_i(x)u, as u placed at `_positions`' left[k] or right[i]:
    with one factor a basis vector, no outer product is formed."""
    return tuple((positions[a], c) for a, c in u)


def _bracket_map(m: Algebra, amb: Space) -> LinMap:
    """mu: M (x) M -> M, m1 (x) m2 -> [m1,m2]."""
    return from_columns(
        amb, m.space, [m.mult.on_basis(*divmod(p, m.dim)) for p in range(amb.dim)]
    )


def tensor_square(m: Algebra) -> TensorSquare:
    """Quotient of M (x) M by both relation families and the c (x) c rows,
    with the induced bracket."""
    if not is_lie(m):
        raise NotLie("tensor_square requires a Lie algebra")
    F = m.field
    amb = _plain_tensor_space(m.space)
    n = m.dim
    b, (left, right) = m.mult.on_basis, _positions(n)
    mu = _bracket_map(m, amb)
    derived = rref(F, [mu.column(p) for p in range(amb.dim)])  # a basis of [M,M]

    rels = []
    for i, j in itertools.combinations(range(n), 2):  # family 1 on i < j
        for k in range(n):
            r = vsub(F, _placed(b(i, j), left[k]), _placed(b(j, k), right[i]))
            rels.append(vadd(F, r, _placed(b(i, k), right[j])))
    for j, k in itertools.combinations(range(n), 2):  # family 2 on j < k
        for i in range(n):
            r = vsub(F, _placed(b(j, k), right[i]), _placed(b(k, i), left[j]))
            rels.append(vadd(F, r, _placed(b(j, i), left[k])))
    rels.extend(tuple((a * n + d, F.mul(x, y)) for a, x in c for d, y in c) for c in derived)
    relations = Subspace.span(amb, rels)
    # [u(x)v, w(x)x] = mu(u(x)v) (x) mu(w(x)x), so the bracket descends to T
    if not all(is_zero(mu.apply(r)) for r in relations.basis):
        raise InternalInvariantViolation(
            "bracket map does not vanish on the relation span"
        )
    tspace, proj = quotient(amb, relations)

    pure = bilinear_from_rule(
        m.space, m.space, tspace, lambda i, j: proj.column(i * n + j)
    )

    # section of proj: quotient basis r lifts to the free ambient coordinate
    pivots = set(relations.pivots())
    free = [j for j in range(amb.dim) if j not in pivots]
    lift = from_columns(tspace, amb, [amb.basis_vector(c) for c in free])

    boundary = mu.after(lift)
    t_bracket = Bil(pure, Lin(boundary, b0), Lin(boundary, b1))
    carrier = Algebra(tspace, bilinear_from_term(tspace, tspace, tspace, t_bracket))
    if not is_lie(carrier):
        raise InternalInvariantViolation(
            "induced bracket on the tensor square is not Lie"
        )
    return TensorSquare(m, carrier, pure, relations, proj, lift, boundary)


def tensor_xmod(ts: TensorSquare) -> XMod:
    """(T, M, m.(m1 (x) m2) = [m,m1] (x) m2 + m1 (x) [m,m2], d(m1 (x) m2) = [m1,m2]).

    `ts` must come from tensor_square, which asserts that mu vanishes on its
    relations: d is well defined on T only then, and it is not checked here."""
    m, rels = ts.base, ts.relations
    F, n, amb, tspace = m.field, m.dim, rels.ambient, ts.carrier.space
    b, (left, right) = m.mult.on_basis, _positions(n)

    def image(a, p):
        """b_a . (b_i (x) b_j) = [b_a,b_i] (x) b_j + b_i (x) [b_a,b_j], p = i*n + j."""
        i, j = divmod(p, n)
        return vadd(F, _placed(b(a, i), left[j]), _placed(b(a, j), right[i]))

    act = bilinear_from_rule(m.space, amb, amb, image)

    # tensor_square asserted mu(R) = 0, so the boundary descends to T; the
    # action descends if it preserves R
    [moved] = evaluate((n, rels.dim), Bil(act, b0, Family(1, rels.basis)))
    if not all(map(rels.contains, moved)):
        raise InternalInvariantViolation("action does not preserve the relation span")

    dot = Lin(ts.proj, Bil(act, b0, Lin(ts.lift, b1)))
    action = LieAction(m, ts.carrier, bilinear_from_term(m.space, tspace, tspace, dot))
    return XMod(action, ts.boundary)


def tensor_braiding(ts: TensorSquare) -> XBraiding:
    """{m1, m2} = m1 (x) m2 on the tensor crossed module."""
    return XBraiding(tensor_xmod(ts), ts.pure)


def antisymmetry_consequence(ts: TensorSquare, subject: str = "tensor") -> ValidationReport:
    """pi(m1 (x) [m2,m3]) + pi([m2,m3] (x) m1) = 0 on all basis triples (tag TAnti)."""
    m, n, pure = ts.base, ts.base.dim, ts.pure
    bracket = Bil(m.mult, b1, b2)
    lhs = Bil(pure, b0, bracket) + Bil(pure, bracket, b0)
    zero = Lin(zero_map(m.space, ts.carrier.space), b0)
    return merge(subject, [sweep("TAnti", (n, n, n), lhs, zero, ts.carrier.dim)])
