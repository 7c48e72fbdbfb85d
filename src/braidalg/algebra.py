"""Structure-constant algebras, flavor predicates and the fixture catalog.

An Algebra is a space plus a multiplication tensor; nothing about the
flavor (associative / Lie / Leibniz) is ever assumed, only checked.
`has_flavor` checks algebras against a structure's flavor, ASSOC or LIE.
"""

from __future__ import annotations

import functools
import itertools
import re

from .errors import NotAssociative, UnknownFixture
from .fields import Field
from .linear import (
    Bil,
    BilMap,
    Lin,
    LinMap,
    Space,
    b0,
    b1,
    b2,
    bilinear_from_rule,
    is_zero,
    vadd,
)
from .record import Record
from .report import sweep

# the two flavors of every structure, as the DSL spells them
ASSOC = "assoc"
LIE = "lie"

__all__ = [
    "ASSOC",
    "LIE",
    "Algebra",
    "has_flavor",
    "is_associative",
    "is_lie",
    "is_leibniz",
    "liefy",
    "is_homomorphism",
    "hom_law",
    "intertwining_law",
    "catalog",
]


class Algebra(Record):
    space: Space
    mult: BilMap
    # derived on first use: the answers of is_associative and is_lie
    __slots__ = ("_is_associative", "_is_lie")

    def __post_init__(self):
        if not (self.mult.left == self.mult.right == self.mult.codomain == self.space):
            raise ValueError("multiplication tensor does not match the space")

    @property
    def field(self) -> Field:
        return self.space.field

    @property
    def dim(self) -> int:
        return self.space.dim


def from_constants(space: Space, products) -> Algebra:
    """Algebra from a {(label_i, label_j): {label_k: scalar}} table.

    Unlisted products are zero; a label outside the space raises ValueError.
    """
    F, index = space.field, {label: i for i, label in enumerate(space.labels)}
    if unknown := {x for key, table in products.items() for x in (*key, *table)} - index.keys():
        raise ValueError(f"labels {sorted(unknown)} are not in the space {space.labels}")
    images = {}
    for (x, y), table in products.items():
        image = sorted((index[label], F.of(c)) for label, c in table.items())
        images[index[x], index[y]] = tuple((k, c) for k, c in image if c)
    return Algebra(
        space, bilinear_from_rule(space, space, space, lambda i, j: images.get((i, j), ()))
    )


def _kept(check):
    """`check(a)`, made once per algebra and kept in its slot `_<check name>`."""
    slot = "_" + check.__name__

    @functools.wraps(check)
    def kept(a: Algebra) -> bool:
        if not hasattr(a, slot):
            object.__setattr__(a, slot, check(a))
        return getattr(a, slot)

    return kept


@_kept
def is_associative(a: Algebra) -> bool:
    """(b_i b_j) b_k = b_i (b_j b_k) on all basis triples."""
    m, n = a.mult, a.dim
    return sweep("Assoc", (n, n, n), Bil(m, Bil(m, b0, b1), b2), Bil(m, b0, Bil(m, b1, b2)), n).ok


@_kept
def is_lie(a: Algebra) -> bool:
    """Alternation ([x,x] = 0 for all x) plus Jacobi.

    Alternation is checked by polarization on i <= j: [b_i,b_i] = 0 and
    [b_i,b_j] + [b_j,b_i] = 0, which is [x,x] = 0 in every characteristic
    (antisymmetry alone is weaker in characteristic 2).  Only an
    alternating bracket reaches Jacobi.  Its Jacobiator
    J(x,y,z) = [x,[y,z]] + [y,[z,x]] + [z,[x,y]] is then trilinear and
    alternating, so J = 0 once J(b_i,b_j,b_k) = 0 for all i < j < k.
    """
    F = a.field
    m = a.mult
    n = a.dim
    for i in range(n):
        if not is_zero(m.on_basis(i, i)):
            return False
        for j in range(i + 1, n):
            if not is_zero(vadd(F, m.on_basis(i, j), m.on_basis(j, i))):
                return False

    def nested(i, j, k):  # [b_i, [b_j, b_k]]
        return m.apply_left(i, m.on_basis(j, k))

    return all(
        is_zero(vadd(F, vadd(F, nested(i, j, k), nested(j, k, i)), nested(k, i, j)))
        for i, j, k in itertools.combinations(range(n), 3)
    )


def has_flavor(flavor: str, *algebras: Algebra) -> bool:
    """Whether each of `algebras` is associative (flavor ASSOC) or Lie (LIE)."""
    check = is_associative if flavor == ASSOC else is_lie
    return all(check(a) for a in algebras)


def is_leibniz(a: Algebra) -> bool:
    """[x,[y,z]] = [[x,y],z] - [[x,z],y] on all basis triples."""
    m, n = a.mult, a.dim
    rhs = Bil(m, Bil(m, b0, b1), b2) - Bil(m, Bil(m, b0, b2), b1)
    return sweep("Leibniz", (n, n, n), Bil(m, b0, Bil(m, b1, b2)), rhs, n).ok


def liefy(a: Algebra) -> Algebra:
    """Commutator algebra A^L with [x,y] = xy - yx."""
    if not is_associative(a):
        raise NotAssociative("liefy requires an associative algebra")
    return Algebra(a.space, a.mult.sub(a.mult.swapped()))


def intertwining_law(tag: str, f: LinMap, src: BilMap, tgt: BilMap, g: LinMap, h: LinMap):
    """The law f(src(b_i, b_j)) = tgt(g(b_i), h(b_j)) on basis pairs, as a
    (tag, dims, lhs, rhs, dim) entry of a law table."""
    dims = (src.left.dim, src.right.dim)
    return tag, dims, Lin(f, Bil(src, b0, b1)), Bil(tgt, Lin(g, b0), Lin(h, b1)), f.codomain.dim


def hom_law(tag: str, f: LinMap, a: Algebra, b: Algebra):
    """The homomorphism law f(b_i b_j) = f(b_i) f(b_j) for f: a -> b."""
    return intertwining_law(tag, f, a.mult, b.mult, f, f)


def is_homomorphism(f: LinMap, a: Algebra, b: Algebra) -> bool:
    if f.domain != a.space or f.codomain != b.space:
        raise ValueError("map does not match the algebras")
    return sweep(*hom_law("Hom", f, a, b)).ok


_NAME_RE = re.compile(r"^(Ab|Mat|Upper|gl)\(?([0-9]+)\)?$")


def catalog(name: str, field: Field) -> Algebra:
    """Named fixtures: Ab(n), Mat(n), Upper(n), gl(n), sl2, Heis3."""
    name = name.strip()
    if name == "sl2":
        sp = Space(field, ("h", "e", "f"))
        two = field.of(2)
        return from_constants(
            sp,
            {
                ("h", "e"): {"e": two},
                ("e", "h"): {"e": field.neg(two)},
                ("h", "f"): {"f": field.neg(two)},
                ("f", "h"): {"f": two},
                ("e", "f"): {"h": field.one()},
                ("f", "e"): {"h": field.neg(field.one())},
            },
        )
    if name == "Heis3":
        sp = Space(field, ("x", "y", "z"))
        return from_constants(
            sp,
            {
                ("x", "y"): {"z": field.one()},
                ("y", "x"): {"z": field.neg(field.one())},
            },
        )
    m = _NAME_RE.match(name)
    if not m:
        raise UnknownFixture(f"unknown fixture name: {name!r}")
    kind, n = m.group(1), int(m.group(2))
    if n < 1:
        raise UnknownFixture(f"fixture size must be positive: {name!r}")
    if kind == "Ab":
        sp = Space(field, tuple(f"a{i}" for i in range(1, n + 1)))
        return from_constants(sp, {})
    if kind == "gl":
        return liefy(catalog(f"Mat({n})", field))
    if kind == "Mat":
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    else:  # Upper
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    labels = tuple(f"e{i}{j}" for i, j in pairs)
    sp = Space(field, labels)
    products = {}
    for (i, j) in pairs:
        for (k, l) in pairs:
            if j == k:
                products[(f"e{i}{j}", f"e{k}{l}")] = {f"e{i}{l}": field.one()}
    return from_constants(sp, products)
