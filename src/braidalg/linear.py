"""Exact linear algebra: spaces, linear and bilinear maps, subspaces.

Vectors are tuples of field scalars.  A linear map stores the image of
each basis vector, a bilinear map the image of each basis pair; no other
module reads those layouts.  Each map also derives, once, the nonzero
entries `((k, c), ...)` of every stored image, and every evaluation --
`LinMap.apply`, `BilMap.apply` and the one-index reads
`BilMap.apply_left`/`apply_right` -- adds up those sparse images in one
loop, `_combine`, so no caller builds a basis vector and no evaluation
scans a zero.  Subspaces are kept in reduced row echelon form so that
equal subspaces have equal representations; `rref` and `Subspace.reduce`
subtract multiples of a row's nonzero entries in place.  Over Q, `rref`
eliminates on primitive integer rows, with no common factor left in a row,
and divides each pivot row by its pivot once, at the end.  The kernel does
its scalar arithmetic inline, one branch per field, in the normal form
of `fields.py`, with no `Field` method call per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
        return (self.field.zero(),) * self.dim

    def basis_vector(self, i: int):
        z, one = self.field.zero(), self.field.one()
        return tuple(one if j == i else z for j in range(self.dim))

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]


# Scalar results are put in the normal form of `fields.py` inline, as
# `Field.add`/`mul` do, without a `Field` call per entry.


def vadd(field: Field, u, v):
    if p := field.characteristic:
        return tuple((a + b) % p for a, b in zip(u, v))
    return tuple(c if (c := a + b).__class__ is int else normal(c) for a, b in zip(u, v))


def vsub(field: Field, u, v):
    if p := field.characteristic:
        return tuple((a - b) % p for a, b in zip(u, v))
    return tuple(c if (c := a - b).__class__ is int else normal(c) for a, b in zip(u, v))


def vneg(field: Field, u):
    return vscale(field, -1, u)


def vscale(field: Field, c, u):
    if p := field.characteristic:
        return tuple(c * a % p for a in u)
    return tuple(d if (d := c * a).__class__ is int else normal(d) for a in u)


def is_zero(u) -> bool:
    return not any(u)


def _nonzero(v):
    """The nonzero entries of v as ((k, v[k]), ...)."""
    return tuple((k, c) for k, c in enumerate(v) if c)


def _combine(field: Field, dim: int, terms):
    """The sum of m * image over the (m, image) terms with m != 0, each
    image given by its nonzero entries."""
    out = [0] * dim
    if p := field.characteristic:
        for m, image in terms:
            if m:
                for k, c in image:
                    out[k] = (out[k] + m * c) % p
        return tuple(out)
    for m, image in terms:
        if m:
            for k, c in image:
                v = out[k] + m * c
                out[k] = v if v.__class__ is int else normal(v)
    return tuple(out)


class LinMap(Record):
    """Linear map; columns[j] is the image of basis vector b_j."""

    domain: Space
    codomain: Space
    columns: tuple  # [domain.dim], each a codomain vector
    __slots__ = ("_images",)  # [domain.dim], the nonzero entries of each column

    def __post_init__(self):
        if self.domain.field != self.codomain.field:
            raise ValueError("domain and codomain fields differ")
        if len(self.columns) != self.domain.dim or any(
            len(col) != self.codomain.dim for col in self.columns
        ):
            raise ValueError("columns do not match the spaces")
        object.__setattr__(self, "_images", tuple(map(_nonzero, self.columns)))

    @property
    def field(self) -> Field:
        return self.domain.field

    def apply(self, v):
        return _combine(self.field, self.codomain.dim, zip(v, self._images))

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
        return len(rref(self.field, self.columns))


def from_columns(domain: Space, codomain: Space, cols) -> LinMap:
    return LinMap(domain, codomain, tuple(tuple(col) for col in cols))


def identity_map(sp: Space) -> LinMap:
    return from_columns(sp, sp, sp.basis())


def zero_map(domain: Space, codomain: Space) -> LinMap:
    return LinMap(domain, codomain, (codomain.zero(),) * domain.dim)


class BilMap(Record):
    """Bilinear map; tensor[i][j] is the image of the basis pair (b_i, b_j)."""

    left: Space
    right: Space
    codomain: Space
    tensor: tuple  # [left.dim][right.dim], each a codomain vector
    # the nonzero entries of each image: _rows[i][j] and _cols[j][i] for (b_i, b_j)
    __slots__ = ("_rows", "_cols")

    def __post_init__(self):
        if not (self.left.field == self.right.field == self.codomain.field):
            raise ValueError("bilinear map spaces over different fields")
        if (
            len(self.tensor) != self.left.dim
            or any(len(row) != self.right.dim for row in self.tensor)
            or any(len(v) != self.codomain.dim for row in self.tensor for v in row)
        ):
            raise ValueError("tensor shape does not match spaces")
        rows = tuple(tuple(map(_nonzero, row)) for row in self.tensor)
        cols = tuple(tuple(row[j] for row in rows) for j in range(self.right.dim))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_cols", cols)

    @property
    def field(self) -> Field:
        return self.left.field

    def on_basis(self, i: int, j: int):
        return self.tensor[i][j]

    def apply_left(self, i: int, v):
        """apply(b_i, v), read from the stored images of (b_i, b_j)."""
        return _combine(self.field, self.codomain.dim, zip(v, self._rows[i]))

    def apply_right(self, u, j: int):
        """apply(u, b_j), read from the stored images of (b_i, b_j)."""
        return _combine(self.field, self.codomain.dim, zip(u, self._cols[j]))

    def apply(self, u, v):
        vs = _nonzero(v)
        pairs = ((a * b, row[j]) for a, row in zip(u, self._rows) if a for j, b in vs)
        return _combine(self.field, self.codomain.dim, pairs)

    def swapped(self) -> "BilMap":
        """(u, v) -> apply(v, u)."""
        tensor = tuple(
            tuple(row[i] for row in self.tensor) for i in range(self.right.dim)
        )
        return BilMap(self.right, self.left, self.codomain, tensor)

    def sub(self, other: "BilMap") -> "BilMap":
        shape = (self.left, self.right, self.codomain)
        if (other.left, other.right, other.codomain) != shape:
            raise ValueError("maps between different spaces")
        F = self.field
        tensor = tuple(
            tuple(vsub(F, a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.tensor, other.tensor)
        )
        return BilMap(self.left, self.right, self.codomain, tensor)

    def scale(self, c) -> "BilMap":
        F = self.field
        tensor = tuple(tuple(vscale(F, c, v) for v in row) for row in self.tensor)
        return BilMap(self.left, self.right, self.codomain, tensor)


def bilinear_from_rule(left: Space, right: Space, codomain: Space, rule) -> BilMap:
    """Build a BilMap from a rule on basis index pairs returning vectors."""
    tensor = tuple(
        tuple(tuple(rule(i, j)) for j in range(right.dim)) for i in range(left.dim)
    )
    return BilMap(left, right, codomain, tensor)


def bilinear_from_coordinates(left: Space, right: Space, codomain: Space, x) -> BilMap:
    """The bilinear map whose k-coordinate on (b_i, b_j) is x[(k*L + i)*R + j],
    with L = left.dim and R = right.dim."""
    L, R, K = left.dim, right.dim, codomain.dim
    return bilinear_from_rule(
        left, right, codomain, lambda i, j: tuple(x[(k * L + i) * R + j] for k in range(K))
    )


def zero_bilmap(left: Space, right: Space, codomain: Space) -> BilMap:
    z = codomain.zero()
    tensor = tuple(tuple(z for _ in range(right.dim)) for _ in range(left.dim))
    return BilMap(left, right, codomain, tensor)


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
    work = [list(r) for r in rows if not is_zero(r)]
    q = not field.characteristic
    pivots = []
    for col in range(len(work[0]) if work else 0):
        row = len(pivots)
        for pivot_row in range(row, len(work)):
            if work[pivot_row][col]:
                break
        else:
            continue
        v = work[pivot_row]
        v = _primitive(v) if q else list(vscale(field, field.inv(v[col]), v))
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
    if q:
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
        return is_zero(self.reduce(v))

    def coords(self, v):
        """Coefficients of v in this basis; None if v is not in the span."""
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots())


def in_subspace(v, sub: Subspace) -> bool:
    if len(v) != sub.ambient.dim:
        raise ValueError("vector does not live in the ambient space")
    return sub.contains(v)


def kernel(f: LinMap) -> Subspace:
    """Canonical basis of {v : f(v) = 0}."""
    F = f.field
    n = f.domain.dim
    echelon = rref(F, [f.column(j) + f.domain.basis_vector(j) for j in range(n)])
    # rows of `echelon` are (image | preimage); those with zero image part
    # come last, and their preimage parts are already in reduced echelon form
    m = f.codomain.dim
    return Subspace(f.domain, tuple(row[m:] for row in echelon if is_zero(row[:m])))


def affine_solutions(field: Field, rows, const, n: int):
    """The solutions x of rows . x + const = 0 in n unknowns: the one whose
    free unknowns are 0 and `kernel`'s canonical basis of the homogeneous
    solutions, or None if there is no solution."""
    red = rref(field, [(*row, c) for row, c in zip(rows, vneg(field, const))])
    pivots = _pivot_columns(red)
    if n in pivots:
        return None
    part = [field.zero()] * n
    for p, row in zip(pivots, red):
        part[p] = row[n]
    # the reduced rows have the solutions of `rows`; one column per unknown
    dom = Space(field, tuple(f"x{j}" for j in range(n)))
    cod = Space(field, tuple(f"r{i}" for i in range(len(red))))
    f = from_columns(dom, cod, ([row[j] for row in red] for j in range(n)))
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
        vneg(ambient.field, (rows[j][c] for c in free)) if j in rows else next(unit)
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
    unit = identity_map(total).columns
    incl_a = from_columns(a, total, unit[: a.dim])
    incl_b = from_columns(b, total, unit[a.dim :])
    proj_a = from_columns(total, a, identity_map(a).columns + (a.zero(),) * b.dim)
    proj_b = from_columns(total, b, (b.zero(),) * a.dim + identity_map(b).columns)
    return total, incl_a, incl_b, proj_a, proj_b


def pullback_space(t: LinMap, s: LinMap) -> Subspace:
    """{(x, y) : t(x) = s(y)} inside domain(t) (+) domain(s)."""
    if t.codomain != s.codomain:
        raise ValueError("pullback requires a common codomain")
    total, _, _, proj_a, proj_b = direct_sum(t.domain, s.domain)
    diff = t.after(proj_a).sub(s.after(proj_b))
    return kernel(diff)
