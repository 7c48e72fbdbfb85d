"""Exact linear algebra: spaces, linear and bilinear maps, subspaces, and
the terms axiom laws are written in.

A vector is sparse: the tuple `((k, c), ...)` of its nonzero entries, k
strictly increasing and each c in the normal form of `fields.py`, so equal
vectors are equal tuples.  A linear map stores the image of each basis
vector, a bilinear map that of each basis pair, each image sparse as it
was given; no other module reads those layouts.  Every evaluation --
`LinMap.apply`, `BilMap.apply`, the one-index read `BilMap.apply_left`
and the law terms -- adds up the stored images in one loop, `_combine`,
which scans no zero.  A law term (`Basis`, `Family`, `Lin`, `Bil`, and
`+`, `-` of terms) is one side of a law; `evaluate` computes it on every
basis index tuple at once, each subterm over only the positions it
depends on, a basis argument or an input that is one basis vector read
as the stored images by index, and no zero input sent to `_combine`.  A
bilinear map derived from other maps is built from a term over two positions,
`bilinear_from_term`; `bilinear_from_rule` builds one given by data.  The
rows of `rref`, `Subspace`, `kernel`, `affine_solutions` and `quotient`
are sparse vectors too; `concat` and `split` lay blocks of a direct sum
end to end and back.  A dense tuple is made at one boundary only, by
`dense(v, dim)`: the witness of a failing law in `report.sweep`.
Subspaces are kept in reduced row echelon form, so equal subspaces are
equal records.  `rref` inserts each row into a reduced basis, touching
only the pivots where the row is nonzero; over Q it eliminates on
primitive integer rows and divides each pivot row by its pivot once, at
the end.  Scalar arithmetic is inline, one branch per field, in the
normal form of `fields.py`, with no `Field` call per entry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .fields import Field, normal
from .record import Record


class Space(Record):
    """Finite-dimensional vector space with a labelled basis."""

    field: Field
    labels: tuple
    __slots__ = ("dim",)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate basis labels: {self.labels}")
        object.__setattr__(self, "dim", len(self.labels))

    def zero(self):
        return ()

    def basis_vector(self, i: int):
        return ((i, 1),)

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]


def _inside(v, dim: int):
    """The sparse vector v; ValueError if an index lies outside range(dim)."""
    if v and not (v[0][0] >= 0 and v[-1][0] < dim):
        raise ValueError(f"vector {v} does not lie in dimension {dim}")
    return v


def _canonical(v, dim: int, p: int):
    """v; ValueError unless its indices rise in range(dim) and its scalars are nonzero (1..p-1)."""
    last = -1
    for k, c in v:
        if not (last < k < dim and (0 < c < p if p else c)):
            raise ValueError(f"vector {v} is not canonical in dimension {dim}")
        last = k
    return v


def dense(v, dim: int):
    """The sparse vector v as a tuple of all `dim` coordinates."""
    out = [0] * dim
    for k, c in _inside(v, dim):
        out[k] = c
    return tuple(out)


# Scalar results are put in the normal form of `fields.py` inline, as
# `Field.add`/`mul` do, without a `Field` call per entry.


def vadd(field: Field, u, v):
    return _combine(field, ((0, 1), (1, 1)), (u, v))


def vsub(field: Field, u, v):
    return _combine(field, ((0, 1), (1, -1)), (u, v))


def vneg(field: Field, u):
    return vscale(field, -1, u)


def vscale(field: Field, c, u):
    if p := field.characteristic:
        c %= p
        return tuple((k, c * a % p) for k, a in u) if c else ()
    if not c:
        return ()
    return tuple((k, d if (d := c * a).__class__ is int else normal(d)) for k, a in u)


def is_zero(u) -> bool:
    return not u


def _combine(field: Field, v, images):
    """The sum of m * images[j] over the entries (j, m) of v, images sparse.

    One nonzero term gives its image itself when m = 1, else the image
    scaled by m, with no zero test: over Q, and over F_p with p prime, a
    product of two nonzero scalars is nonzero.  Several terms are summed in
    a dict, which is filtered and sorted once."""
    first = acc = None
    for j, m in v:
        image = images[j]
        if not image:
            continue
        if acc is None:
            if first is None:
                first = m, image
                continue
            m0, image0 = first
            acc = dict(image0) if m0 == 1 else {k: m0 * c for k, c in image0}
        get = acc.get
        for k, c in image:
            acc[k] = get(k, 0) + m * c
    if acc is None:
        if first is None:
            return ()
        m, image = first
        return image if m == 1 else vscale(field, m, image)
    if p := field.characteristic:
        return tuple((k, r) for k, c in sorted(acc.items()) if (r := c % p))
    return tuple(
        (k, c if c.__class__ is int else normal(c)) for k, c in sorted(acc.items()) if c
    )


class LinMap(Record):
    """Linear map; columns[j] is the image of basis vector b_j, canonical."""

    domain: Space
    codomain: Space
    columns: tuple  # [domain.dim], each a sparse codomain vector
    __slots__ = ("field",)  # the domain's field

    def __post_init__(self):
        if self.domain.field != self.codomain.field:
            raise ValueError("domain and codomain fields differ")
        if len(self.columns) != self.domain.dim:
            raise ValueError("columns do not match the spaces")
        m, p = self.codomain.dim, self.domain.field.characteristic
        for col in self.columns:
            _canonical(col, m, p)
        object.__setattr__(self, "field", self.domain.field)

    def apply(self, v):
        return _combine(self.field, v, self.columns)

    def column(self, j: int):
        return self.columns[j]

    def after(self, other: "LinMap") -> "LinMap":
        """self o other."""
        if other.codomain != self.domain:
            raise ValueError("maps not composable")
        return from_columns(other.domain, self.codomain, map(self.apply, other.columns))

    def _zip_columns(self, op, other: "LinMap") -> "LinMap":
        if (other.domain, other.codomain) != (self.domain, self.codomain):
            raise ValueError("maps between different spaces")
        cols = (op(self.field, a, b) for a, b in zip(self.columns, other.columns))
        return from_columns(self.domain, self.codomain, cols)

    def add(self, other: "LinMap") -> "LinMap":
        return self._zip_columns(vadd, other)

    def sub(self, other: "LinMap") -> "LinMap":
        return self._zip_columns(vsub, other)


def from_columns(domain: Space, codomain: Space, cols) -> LinMap:
    """The linear map sending b_j to the sparse vector cols[j]."""
    return LinMap(domain, codomain, tuple(cols))


def identity_map(sp: Space) -> LinMap:
    return from_columns(sp, sp, sp.basis())


def zero_map(domain: Space, codomain: Space) -> LinMap:
    return from_columns(domain, codomain, [()] * domain.dim)


class BilMap(Record):
    """Bilinear map; tensor[i][j], canonical, is the image of the pair (b_i, b_j)."""

    left: Space
    right: Space
    codomain: Space
    tensor: tuple  # [left.dim][right.dim], each a sparse codomain vector
    # derived: the field, and the image of (b_i, b_j) in _cols[j][i] and
    # _pairs[i * right.dim + j]
    __slots__ = ("field", "_cols", "_pairs")

    def __post_init__(self):
        if not (self.left.field == self.right.field == self.codomain.field):
            raise ValueError("bilinear map spaces over different fields")
        rows, R, K = self.tensor, self.right.dim, self.codomain.dim
        if len(rows) != self.left.dim or any(len(row) != R for row in rows):
            raise ValueError("tensor shape does not match spaces")
        pairs, p = sum(rows, ()), self.left.field.characteristic
        for v in pairs:
            _canonical(v, K, p)
        object.__setattr__(self, "field", self.left.field)
        object.__setattr__(self, "_cols", tuple(zip(*rows)) if rows else ((),) * R)
        object.__setattr__(self, "_pairs", pairs)

    def on_basis(self, i: int, j: int):
        return self.tensor[i][j]

    def apply_left(self, i: int, v):
        """apply(b_i, v), read from the stored images of (b_i, b_j)."""
        return _combine(self.field, v, self.tensor[i])

    def apply(self, u, v):
        R = self.right.dim
        pairs = ((i * R + j, a * b) for i, a in u for j, b in v)
        return _combine(self.field, pairs, self._pairs)

    def swapped(self) -> "BilMap":
        """(u, v) -> apply(v, u)."""
        return BilMap(self.right, self.left, self.codomain, self._cols)

    def sub(self, other: "BilMap") -> "BilMap":
        shape = (self.left, self.right, self.codomain)
        if (other.left, other.right, other.codomain) != shape:
            raise ValueError("maps between different spaces")
        F, rows = self.field, zip(self.tensor, other.tensor)
        images = ((vsub(F, a, b) for a, b in zip(ra, rb)) for ra, rb in rows)
        return _from_images(*shape, images)

    def scale(self, c) -> "BilMap":
        F = self.field
        images = ((vscale(F, c, v) for v in row) for row in self.tensor)
        return _from_images(self.left, self.right, self.codomain, images)


def _from_images(left: Space, right: Space, codomain: Space, images) -> BilMap:
    """The BilMap whose image of (b_i, b_j) is the sparse vector images[i][j]."""
    return BilMap(left, right, codomain, tuple(map(tuple, images)))


def bilinear_from_rule(left: Space, right: Space, codomain: Space, rule) -> BilMap:
    """Build a BilMap from a rule on basis index pairs returning sparse vectors."""
    R = range(right.dim)
    images = tuple([tuple([rule(i, j) for j in R]) for i in range(left.dim)])
    return BilMap(left, right, codomain, images)


def bilinear_from_coordinates(left: Space, right: Space, codomain: Space, x) -> BilMap:
    """The bilinear map whose k-coordinate on (b_i, b_j) is the entry of the
    sparse vector x at (k*L + i)*R + j, with L = left.dim and R = right.dim."""
    L, R = left.dim, right.dim
    pairs = [[] for _ in range(L * R)]  # the image of (b_i, b_j) at i*R + j
    for u, c in x:
        k, ij = divmod(u, L * R)
        pairs[ij].append((k, c))
    return bilinear_from_rule(left, right, codomain, lambda i, j: tuple(pairs[i * R + j]))


def zero_bilmap(left: Space, right: Space, codomain: Space) -> BilMap:
    return _from_images(left, right, codomain, [[()] * right.dim] * left.dim)


def _primitive(v: dict) -> dict:
    """The rational row v, {column: entry}, scaled to coprime integers."""
    if any(a.__class__ is not int for a in v.values()):
        d = lcm(*[a.denominator for a in v.values()])
        v = {k: a.numerator * (d // a.denominator) for k, a in v.items()}
    g = gcd(*v.values())
    return v if g < 2 else {k: a // g for k, a in v.items()}


def _clear(v: dict, q, w: dict, p):
    """The row v cleared at column q against the row w, whose pivot is q:
    over F_p (where w[q] = 1) v - c w, and over Q, for b = w[q], v - c b w
    if b = +-1, else the primitive integer row b v - c w over gcd(b, c);
    c = v[q].  In place but in the last case."""
    c, b = v[q], w[q]
    scaled = not p and b * b != 1
    if scaled:
        g = gcd(b, c)
        v = {k: b // g * a for k, a in v.items()}
        c //= g
    elif not p:
        c *= b
    get = v.get
    for k, a in w.items():
        d = get(k, 0) - c * a
        if p:
            d %= p
        if d:
            v[k] = d
        else:
            del v[k]
    return _primitive(v) if scaled else v


def rref(field: Field, rows):
    """Reduced row echelon form of sparse rows, zero rows dropped, sorted by
    pivot: canonical for a span.

    Each row is inserted into a reduced basis {pivot column: row}: it is
    cleared, in one pass, at the pivots where it is nonzero (a basis row is
    zero at every other pivot), and its own pivot is then cleared from the
    basis rows nonzero there.  Over F_p each pivot is scaled to 1.  Over Q
    the rows are primitive integer rows, and each is divided by its pivot
    once, at the end."""
    p = field.characteristic
    basis = {}
    for row in rows:
        if p:
            v = {k: r for k, c in row if (r := c % p)}
        else:
            v = _primitive({k: c for k, c in row if c})
        for q in [k for k in v if k in basis]:
            v = _clear(v, q, basis[q], p)
        if not v:
            continue
        q = min(v)
        if not p:
            v = _primitive(v)
        elif v[q] != 1:
            inv = field.inv(v[q])
            v = {k: a * inv % p for k, a in v.items()}
        for k, w in basis.items():
            if q in w:
                basis[k] = _clear(w, q, v, p)
        basis[q] = v
    out = []
    for q in sorted(basis):
        row, b = sorted(basis[q].items()), basis[q][q]
        if b != 1:  # over Q, divided by its pivot, in normal form
            row = [(k, a // b if a % b == 0 else Fraction(a, b)) for k, a in row]
        out.append(tuple(row))
    return out


class Subspace(Record):
    """Subspace of an ambient space, basis sparse in reduced row echelon form."""

    ambient: Space
    basis: tuple
    __slots__ = ("_at", "_pivots")  # {pivot: its row's index}, and the pivots

    @classmethod
    def span(cls, ambient: Space, vectors) -> "Subspace":
        return cls(ambient, tuple(rref(ambient.field, vectors)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __post_init__(self):
        object.__setattr__(self, "_at", {row[0][0]: i for i, row in enumerate(self.basis)})
        object.__setattr__(self, "_pivots", tuple(self._at))

    def pivots(self):
        return self._pivots

    def reduce(self, v):
        """Canonical representative of v modulo this subspace: v minus its
        entry at each pivot times that pivot's row."""
        at = self._at
        terms = [(at[k] + 1, -c) for k, c in v if k in at]
        return _combine(self.ambient.field, [(0, 1), *terms], (v, *self.basis)) if terms else v

    def contains(self, v) -> bool:
        return not self.reduce(v)

    def coords(self, v):
        """Coefficients of v in this basis, sparse; None if v is not in the span."""
        if not self.contains(v):
            return None
        at = self._at
        return tuple((at[k], c) for k, c in v if k in at)


def kernel(f: LinMap) -> Subspace:
    """Canonical basis of {v : f(v) = 0}."""
    m = f.codomain.dim
    echelon = rref(f.field, [col + ((m + j, 1),) for j, col in enumerate(f.columns)])
    # rows of `echelon` are (image | preimage); those with zero image part
    # come last, and their preimage parts are already in reduced echelon form
    rows = (tuple((k - m, c) for k, c in row) for row in echelon if row[0][0] >= m)
    return Subspace(f.domain, tuple(rows))


def affine_solutions(field: Field, rows, n: int):
    """The solutions x of rows . (x, 1) = 0 in n unknowns, each row sparse
    with its constant at column n: the one whose free unknowns are 0 and
    the canonical basis of the homogeneous solutions, each sparse, or None
    if there is no solution."""
    red = rref(field, rows)
    if red and red[-1][0][0] == n:  # 0 = 1
        return None
    # x_q for the pivot q of a row is minus its entries at the constant and
    # at the free unknowns, whose values span the solutions
    part, at, neg = [], {}, field.neg
    for row in red:
        for j, a in row[1:]:
            (part if j == n else at.setdefault(j, [])).append((row[0][0], neg(a)))
    pivots = {row[0][0] for row in red}
    null = [(*at.get(j, ()), (j, field.one())) for j in range(n) if j not in pivots]
    return tuple(part), tuple(rref(field, null))


def quotient(ambient: Space, sub: Subspace):
    """Quotient space and its projection.

    The quotient basis is indexed by the non-pivot coordinates of `sub`;
    the projection sends a vector to the non-pivot coordinates of its
    canonical representative.
    """
    if sub.ambient != ambient:
        raise ValueError("subspace does not live in the ambient space")
    rows = dict(zip(sub.pivots(), sub.basis))
    free = {j: i for i, j in enumerate(j for j in range(ambient.dim) if j not in rows)}
    qspace = Space(ambient.field, tuple(ambient.labels[j] for j in free))
    # column j is the unit vector of a free j, and for the pivot j of a row
    # minus that row's entries after its pivot, which all lie on free columns
    cols = (
        vneg(ambient.field, tuple((free[k], c) for k, c in rows[j][1:]))
        if j in rows
        else ((free[j], 1),)
        for j in range(ambient.dim)
    )
    proj = from_columns(ambient, qspace, cols)
    return qspace, proj


# ---------------------------------------------------------------------------
# law terms: each side of an axiom law, evaluated on every basis tuple at once


class Term:
    """One side of a law: a vector for each basis index tuple of a sweep.

    `at` lists the tuple positions the term depends on, increasing, and the
    term is evaluated over those positions only, once per evaluation
    however often it occurs; `space` is the codomain of its outer map
    (None for a leaf).  `a + b`, `a - b` and `-a` are terms too."""

    __slots__ = ("at", "space")

    def __add__(self, other):
        return _Sum(self, other, 1)

    def __sub__(self, other):
        return _Sum(self, other, -1)

    def __neg__(self):
        return _Neg(self)


def _union(a: Term, b: Term):
    """The positions a or b depends on, increasing."""
    return a.at if a.at == b.at else tuple(sorted({*a.at, *b.at}))


def _fits(t: Term, space: Space) -> Term:
    """The term t, to be read in `space`; ValueError if it lies in another."""
    if t.space is not None and t.space != space:
        raise ValueError("a term does not lie in the domain of the map applied to it")
    return t


class Basis(Term):
    """b_i, for the index i at position `pos`."""

    __slots__ = ("pos",)

    def __init__(self, pos: int):
        self.pos, self.at, self.space = pos, (pos,), None

    def _values(self, ev):
        return [((i, 1),) for i in range(ev.dims[self.pos])]


b0, b1, b2 = Basis(0), Basis(1), Basis(2)


class Family(Term):
    """vectors[i], for the index i at position `pos`."""

    __slots__ = ("vectors",)

    def __init__(self, pos: int, vectors):
        self.vectors = tuple(vectors)
        self.at, self.space = (pos,), None

    def _values(self, ev):
        ev.check(self.at[0], len(self.vectors))
        return list(self.vectors)


class Lin(Term):
    """The linear map f applied to a term."""

    __slots__ = ("f", "arg")

    def __init__(self, f: LinMap, arg: Term):
        self.f, self.arg = f, _fits(arg, f.domain)
        self.at, self.space = arg.at, f.codomain

    def _values(self, ev):
        f, arg = self.f, self.arg
        if isinstance(arg, Basis):
            ev.check(arg.pos, f.domain.dim, f.domain)
            return list(f.columns)
        F, cols = f.field, f.columns
        return [
            (cols[v[0][0]] if len(v) == 1 and v[0][1] == 1 else _combine(F, v, cols)) if v else ()
            for v in ev.values(arg)
        ]


class Bil(Term):
    """The bilinear map b applied to two terms; a basis argument, or a pair
    of inputs that are basis vectors, reads the stored images by index."""

    __slots__ = ("b", "left", "right")

    def __init__(self, b: BilMap, left: Term, right: Term):
        self.b, self.left, self.right = b, _fits(left, b.left), _fits(right, b.right)
        self.at, self.space = _union(left, right), b.codomain

    def _values(self, ev):
        b, u, v = self.b, self.left, self.right
        F = b.field
        if isinstance(u, Basis):
            ev.check(u.pos, b.left.dim, b.left)
            if isinstance(v, Basis):
                ev.check(v.pos, b.right.dim, b.right)
                if u.pos < v.pos:  # every stored image, in tuple order
                    return list(b._pairs)
                if u.pos > v.pos:
                    return [w for col in b._cols for w in col]
            basis, other, images = u, v, b.tensor  # images[i]: b(b_i, -)
        elif isinstance(v, Basis):
            ev.check(v.pos, b.right.dim, b.right)
            basis, other, images = v, u, b._cols  # images[j]: b(-, b_j)
        else:
            R, pairs, at = b.right.dim, b._pairs, self.at
            if u.at + v.at == at:  # u's positions, then v's: every pair of values
                grid = product(ev.values(u), ev.values(v))
            else:
                grid = zip(ev.spread(u, at), ev.spread(v, at))
            return [
                (
                    pairs[s[0][0] * R + t[0][0]]
                    if len(s) == len(t) == 1 and s[0][1] == t[0][1] == 1
                    else _combine(F, [(i * R + j, x * y) for i, x in s for j, y in t], pairs)
                )
                if s and t
                else ()
                for s, t in grid
            ]
        p, ws = basis.pos, ev.values(other)
        if not other.at or p < other.at[0]:
            grid = product(images, ws)
        elif p > other.at[-1]:
            grid = zip(images * len(ws), [w for w in ws for _ in images])
        else:
            at = self.at
            grid = zip(map(images.__getitem__, ev.indices(basis, at)), ev.spread(other, at))
        return [
            (image[w[0][0]] if len(w) == 1 and w[0][1] == 1 else _combine(F, w, image)) if w else ()
            for image, w in grid
        ]


class _Sum(Term):
    """a + sign * b, sign = +-1."""

    __slots__ = ("a", "b", "sign")

    def __init__(self, a: Term, b: Term, sign: int):
        self.space = a.space or b.space
        if self.space is None:
            raise ValueError("a sum of terms needs a map to give its space")
        self.a, self.b, self.sign = _fits(a, self.space), _fits(b, self.space), sign
        self.at = _union(a, b)

    def _values(self, ev):
        F, at = self.space.field, self.at
        pairs = zip(ev.spread(self.a, at), ev.spread(self.b, at))
        if self.sign == 1:
            return [(vadd(F, u, v) if u else v) if v else u for u, v in pairs]
        return [(vsub(F, u, v) if u else vneg(F, v)) if v else u for u, v in pairs]


class _Neg(Term):
    """-a."""

    __slots__ = ("a",)

    def __init__(self, a: Term):
        if a.space is None:
            raise ValueError("a negated term needs a map to give its space")
        self.a, self.at, self.space = a, a.at, a.space

    def _values(self, ev):
        F = self.space.field
        return [vneg(F, v) if v else () for v in ev.values(self.a)]


class _Evaluation:
    """Term values over the basis tuples of `dims`, each subterm's once;
    with `spaces`, the space whose basis each position indexes."""

    def __init__(self, dims, spaces=None):
        self.dims, self.spaces, self.memo = tuple(dims), spaces, {}

    def check(self, pos: int, dim: int, space=None):  # space: a map's domain
        if self.dims[pos] != dim:
            raise ValueError(f"position {pos} has {self.dims[pos]} indices, the map {dim}")
        if space is not None and self.spaces is not None and self.spaces[pos] != space:
            raise ValueError(f"position {pos} indexes a space other than the map's domain")

    def run(self, terms):
        """The values of each term on every tuple of all positions."""
        full = tuple(range(len(self.dims)))
        for t in terms:
            if t.at and t.at[-1] >= len(full):
                raise ValueError(f"a term reads position {t.at[-1]} of {len(full)}")
        return [self.spread(t, full) for t in terms]

    def values(self, t: Term):
        """t's values over the tuples of its positions `t.at`."""
        v = self.memo.get(id(t))
        if v is None:
            v = self.memo[id(t)] = t._values(self)
        return v

    def spread(self, t: Term, at):
        """t's values over the tuples of the positions `at`, a superset of `t.at`."""
        v = self.values(t)
        return v if t.at == at else self._widen(v, t.at, at)

    def indices(self, t: Basis, at):
        """The index of the basis term t on each tuple over the positions `at`."""
        return self._widen(list(range(self.dims[t.pos])), t.at, at)

    def _widen(self, v, sub, at):
        """v, a list over the tuples of the positions `sub`, read on each
        tuple over the positions `at`, a superset of `sub`, in order."""
        dims, k = self.dims, at.index(sub[0]) if sub else 0
        if at[k : k + len(sub)] == sub:  # a run of `at`: repeat each, then tile
            after = prod(dims[p] for p in at[k + len(sub) :])
            if after != 1:
                v = [x for x in v for _ in range(after)]
            return v * prod(dims[p] for p in at[:k])
        stride, strides = 1, {}
        for p in reversed(sub):
            strides[p] = stride
            stride *= dims[p]
        idx = [0]
        for p in at:
            s, r = strides.get(p, 0), range(dims[p])
            idx = [j + i * s for j in idx for i in r]
        return [v[j] for j in idx]


def evaluate(dims, *terms):
    """The values of each term on every basis index tuple of `dims`, in
    lexicographic order, each a list of sparse vectors; a subterm object
    that occurs twice, in one term or in two, is computed once, over only
    the positions it depends on."""
    return _Evaluation(dims).run(terms)


def bilinear_from_term(left: Space, right: Space, codomain: Space, term: Term) -> BilMap:
    """The BilMap whose image of (b_i, b_j) is the value at (i, j) of `term`,
    a term in `codomain` whose positions 0 and 1 index `left` and `right`."""
    [values] = _Evaluation((left.dim, right.dim), (left, right)).run([_fits(term, codomain)])
    R = right.dim
    rows = (values[i * R : i * R + R] for i in range(left.dim))
    return _from_images(left, right, codomain, rows)


def concat(parts):
    """The sparse vector of a direct sum whose blocks are the sparse vectors
    of `parts`, given as (vector, dim) pairs."""
    out, offset = [], 0
    for v, dim in parts:
        out += ((offset + k, c) for k, c in _inside(v, dim))
        offset += dim
    return tuple(out)


def split(v, dims):
    """The blocks of the sparse vector v of a direct sum of spaces of
    dimensions `dims`, each a sparse vector of its own space."""
    out, offset = [], 0
    for dim in dims:
        out.append(tuple((k - offset, c) for k, c in v if offset <= k < offset + dim))
        offset += dim
    return tuple(out)
