"""Exact linear algebra: spaces, linear and bilinear maps, subspaces.

A vector is sparse: the tuple `((k, c), ...)` of its nonzero entries, k
strictly increasing and each c in the normal form of `fields.py`, so equal
vectors are equal tuples.  A linear map stores the image of each basis
vector, a bilinear map that of each basis pair, each image sparse as it
was given; no other module reads those layouts.  Every evaluation --
`LinMap.apply`, `BilMap.apply` and the one-index reads
`BilMap.apply_left`/`apply_right` -- adds up the stored images in one loop,
`_combine`, which scans no zero.  Dense tuples remain at three boundaries,
each crossed through `dense(v, dim)` or `_nonzero(v)`: the rows of `rref`,
`Subspace`, `kernel`, `affine_solutions` and `quotient`, the witness of a
failing law in `report.sweep`, and the DSL text.  Subspaces are
kept in reduced row echelon form, so equal subspaces are equal records.
Over Q, `rref` eliminates on primitive integer rows and divides each pivot
row by its pivot once, at the end.  Scalar arithmetic is inline, one branch
per field, in the normal form of `fields.py`, with no `Field` call per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

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

    def index(self, label: str) -> int:
        return self.labels.index(label)

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


def dense(v, dim: int):
    """The sparse vector v as a tuple of all `dim` coordinates."""
    out = [0] * dim
    for k, c in _inside(v, dim):
        out[k] = c
    return tuple(out)


def _nonzero(v):
    """The dense vector v as a sparse one, its nonzero entries ((k, v[k]), ...)."""
    return tuple(filter(itemgetter(1), enumerate(v)))


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
    """Linear map; columns[j] is the image of basis vector b_j."""

    domain: Space
    codomain: Space
    columns: tuple  # [domain.dim], each a sparse codomain vector
    __slots__ = ("field",)  # the domain's field

    def __post_init__(self):
        if self.domain.field != self.codomain.field:
            raise ValueError("domain and codomain fields differ")
        if len(self.columns) != self.domain.dim:
            raise ValueError("columns do not match the spaces")
        m = self.codomain.dim
        for col in self.columns:
            _inside(col, m)
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

    def rank(self) -> int:
        m = self.codomain.dim
        return len(rref(self.field, [dense(col, m) for col in self.columns]))


def from_columns(domain: Space, codomain: Space, cols) -> LinMap:
    """The linear map sending b_j to the sparse vector cols[j]."""
    return LinMap(domain, codomain, tuple(cols))


def identity_map(sp: Space) -> LinMap:
    return from_columns(sp, sp, sp.basis())


def zero_map(domain: Space, codomain: Space) -> LinMap:
    return from_columns(domain, codomain, [()] * domain.dim)


class BilMap(Record):
    """Bilinear map; tensor[i][j] is the image of the basis pair (b_i, b_j)."""

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
        for row in rows:
            for v in row:
                _inside(v, K)
        object.__setattr__(self, "field", self.left.field)
        object.__setattr__(self, "_cols", tuple(tuple(row[j] for row in rows) for j in range(R)))
        object.__setattr__(self, "_pairs", sum(rows, ()))

    def on_basis(self, i: int, j: int):
        return self.tensor[i][j]

    def apply_left(self, i: int, v):
        """apply(b_i, v), read from the stored images of (b_i, b_j)."""
        return _combine(self.field, v, self.tensor[i])

    def apply_right(self, u, j: int):
        """apply(u, b_j), read from the stored images of (b_i, b_j)."""
        return _combine(self.field, u, self._cols[j])

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
    images = ((rule(i, j) for j in range(right.dim)) for i in range(left.dim))
    return _from_images(left, right, codomain, images)


def bilinear_from_coordinates(left: Space, right: Space, codomain: Space, x) -> BilMap:
    """The bilinear map whose k-coordinate on (b_i, b_j) is x[(k*L + i)*R + j],
    with L = left.dim and R = right.dim."""
    L, R, K = left.dim, right.dim, codomain.dim
    return bilinear_from_rule(
        left, right, codomain, lambda i, j: _nonzero([x[(k * L + i) * R + j] for k in range(K)])
    )


def zero_bilmap(left: Space, right: Space, codomain: Space) -> BilMap:
    return _from_images(left, right, codomain, [[()] * right.dim] * left.dim)


def _eliminate(field: Field, v: list, c, row):
    """v -= c * row in place, row given by its nonzero entries."""
    if p := field.characteristic:
        for k, b in row:
            v[k] = (v[k] - c * b) % p
        return
    for k, b in row:
        d = c * b
        d = v[k] - (d if d.__class__ is int else normal(d))
        v[k] = d if d.__class__ is int else normal(d)


def _primitive(v):
    """The rational row v scaled to coprime integers; 0 stays 0."""
    if set(map(type, v)) != {int}:
        d = lcm(*[a.denominator for a in v])
        v = [a.numerator * (d // a.denominator) for a in v]
    g = gcd(*v)
    return v if g < 2 else [a // g for a in v]


def _cancel(v, col, pivot_row):
    """The primitive integer row p*v - c*pivot_row over gcd(p, c), which is 0
    at col, for p = pivot_row[col] and c = v[col]."""
    v = _primitive(v)
    p, c = pivot_row[col], v[col]
    g = gcd(p, c)
    p, c = p // g, c // g
    return _primitive([p * a - c * b for a, b in zip(v, pivot_row)])


def _divided(v, col):
    """The integer row v divided by its pivot v[col], in normal form."""
    p = v[col]
    if p == 1:
        return tuple(v)
    return tuple(a // p if a % p == 0 else Fraction(a, p) for a in v)


def rref(field: Field, rows):
    """Reduced row echelon form; zero rows dropped. Canonical for a span.

    Over Q each pivot row is made primitive, a row is cleared against a
    pivot other than +-1 in integers, and each pivot row is divided by its
    pivot once, at the end."""
    work = [list(r) for r in rows if any(r)]
    char = field.characteristic
    pivots = []
    for col in range(len(work[0]) if work else 0):
        row = len(pivots)
        for pivot_row in range(row, len(work)):
            if work[pivot_row][col]:
                break
        else:
            continue
        v = work[pivot_row]
        inv = char and field.inv(v[col])
        v = [inv * a % char for a in v] if char else _primitive(v)
        work[pivot_row] = work[row]
        work[row] = v
        p, nz = v[col], _nonzero(v)
        for r, w in enumerate(work):
            if r != row and (c := w[col]):
                if p == 1 or p == -1:
                    _eliminate(field, w, c * p, nz)
                else:
                    work[r] = _cancel(w, col, v)
        pivots.append(col)
    # rows are already sorted by pivot column, and the rows below them are 0
    if not char:
        return list(map(_divided, work, pivots))
    return [tuple(r) for r in work[: len(pivots)]]


def _pivot_columns(basis):
    pivots = []
    for row in basis:
        for j, a in enumerate(row):
            if a != 0:
                pivots.append(j)
                break
    return tuple(pivots)


class Subspace(Record):
    """Subspace of an ambient space, basis in reduced row echelon form."""

    ambient: Space
    basis: tuple
    __slots__ = ("_pivots", "_rows")  # each basis row's pivot and nonzero entries

    @classmethod
    def span(cls, ambient: Space, vectors) -> "Subspace":
        return cls(ambient, tuple(rref(ambient.field, list(vectors))))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __post_init__(self):
        object.__setattr__(self, "_pivots", _pivot_columns(self.basis))
        object.__setattr__(self, "_rows", tuple(map(_nonzero, self.basis)))

    def pivots(self):
        return self._pivots

    def reduce(self, v):
        """Canonical representative of v modulo this subspace."""
        F = self.ambient.field
        v = list(v)
        for row, p in zip(self._rows, self._pivots):
            if c := v[p]:
                _eliminate(F, v, c, row)
        return tuple(v)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def coords(self, v):
        """Coefficients of v in this basis; None if v is not in the span."""
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots())


def kernel(f: LinMap) -> Subspace:
    """Canonical basis of {v : f(v) = 0}."""
    F, n, m = f.field, f.domain.dim, f.codomain.dim
    echelon = rref(F, [dense(col + ((m + j, 1),), m + n) for j, col in enumerate(f.columns)])
    # rows of `echelon` are (image | preimage); those with zero image part
    # come last, and their preimage parts are already in reduced echelon form
    return Subspace(f.domain, tuple(row[m:] for row in echelon if not any(row[:m])))


def affine_solutions(field: Field, rows, const, n: int):
    """The solutions x of rows . x + const = 0 in n unknowns: the one whose
    free unknowns are 0 and `kernel`'s canonical basis of the homogeneous
    solutions, or None if there is no solution."""
    red = rref(field, [(*row, field.neg(c)) for row, c in zip(rows, const)])
    pivots = _pivot_columns(red)
    if n in pivots:
        return None
    part = [field.zero()] * n
    for p, row in zip(pivots, red):
        part[p] = row[n]
    # the reduced rows have the solutions of `rows`; one column per unknown
    dom = Space(field, tuple(f"x{j}" for j in range(n)))
    cod = Space(field, tuple(f"r{i}" for i in range(len(red))))
    f = from_columns(dom, cod, (_nonzero([row[j] for row in red]) for j in range(n)))
    return tuple(part), kernel(f).basis


def quotient(ambient: Space, sub: Subspace):
    """Quotient space and its projection.

    The quotient basis is indexed by the non-pivot coordinates of `sub`;
    the projection sends a vector to the non-pivot coordinates of its
    canonical representative.
    """
    if sub.ambient != ambient:
        raise ValueError("subspace does not live in the ambient space")
    rows = dict(zip(sub.pivots(), sub.basis))
    free = [j for j in range(ambient.dim) if j not in rows]
    qspace = Space(ambient.field, tuple(ambient.labels[j] for j in free))
    # column j is the unit vector of a free j, and for the pivot j of a row
    # minus that row restricted to the free columns
    unit = iter(qspace.basis())
    cols = (
        vneg(ambient.field, _nonzero([rows[j][c] for c in free])) if j in rows else next(unit)
        for j in range(ambient.dim)
    )
    proj = from_columns(ambient, qspace, cols)
    return qspace, proj


def direct_sum(a: Space, b: Space, left_prefix: str = "l_", right_prefix: str = "r_"):
    """Direct sum space plus the four structural maps.

    Returns (space, incl_a, incl_b, proj_a, proj_b).
    """
    if a.field != b.field:
        raise ValueError("direct sum of spaces over different fields")
    labels = tuple(left_prefix + s for s in a.labels) + tuple(
        right_prefix + s for s in b.labels
    )
    total = Space(a.field, labels)
    unit = total.basis()
    incl_a = from_columns(a, total, unit[: a.dim])
    incl_b = from_columns(b, total, unit[a.dim :])
    proj_a = from_columns(total, a, a.basis() + [()] * b.dim)
    proj_b = from_columns(total, b, [()] * a.dim + b.basis())
    return total, incl_a, incl_b, proj_a, proj_b


def pullback_space(t: LinMap, s: LinMap) -> Subspace:
    """{(x, y) : t(x) = s(y)} inside domain(t) (+) domain(s)."""
    if t.codomain != s.codomain:
        raise ValueError("pullback requires a common codomain")
    total, _, _, proj_a, proj_b = direct_sum(t.domain, s.domain)
    diff = t.after(proj_a).sub(s.after(proj_b))
    return kernel(diff)
