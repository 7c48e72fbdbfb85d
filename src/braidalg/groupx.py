"""Finite groups as multiplication tables, crossed modules, braidings.

Everything here is exhaustively decidable: groups are stored as index
tables and validated at construction, and the crossed-module axioms
XGr1-2 plus the braiding axioms BGr1-6 are swept over all element
tuples.  Commutators follow the [g, g'] = g g' g^-1 g'^-1 convention.
Each law is two `linear` terms over the group algebras k[G], k[H] over Q,
every group operation extended linearly, b_u -> b_f(u); a witness side,
one basis vector b_u, is read back as its element index u.
"""

from __future__ import annotations

import itertools
import re

from .errors import InvalidInput, UnknownFixture
from .fields import QQ
from .linear import Bil, Lin, Space, b0, b1, b2, bilinear_from_rule, from_columns
from .record import Record
from .report import AxiomCheck, ValidationReport, Witness, merge, sweep


class FiniteGroup(Record):
    order: int
    table: tuple  # table[i][j] = index of g_i g_j
    __slots__ = ("identity", "inverse")  # derived from the table

    def __post_init__(self):
        n = self.order
        if n <= 0 or len(self.table) != n or any(len(r) != n for r in self.table):
            raise InvalidInput("multiplication table must be order x order")
        if any(not (0 <= v < n) for r in self.table for v in r):
            raise InvalidInput("table entries must be element indices")
        ident = next(
            (
                i
                for i in range(n)
                if all(self.table[i][j] == j and self.table[j][i] == j for j in range(n))
            ),
            None,
        )
        if ident is None:
            raise InvalidInput("table has no identity element")
        inv = []
        for i in range(n):
            j = next((j for j in range(n) if self.table[i][j] == ident), None)
            if j is None or self.table[j][i] != ident:
                raise InvalidInput(f"element {i} has no two-sided inverse")
            inv.append(j)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise InvalidInput("table is not associative")
        object.__setattr__(self, "identity", ident)
        object.__setattr__(self, "inverse", tuple(inv))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, h: int, g: int) -> int:
        """h g h^-1."""
        return self.mul(self.mul(h, g), self.inv(h))

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return self.mul(self.conj(a, b), self.inv(b))

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(self.order)
        )


def _table_from(elems, op):
    index = {e: i for i, e in enumerate(elems)}
    return tuple(tuple(index[op(a, b)] for b in elems) for a in elems)


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup(n, tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def dihedral(n: int) -> FiniteGroup:
    """Order 2n; element (i, j) is r^i s^j with s r = r^-1 s."""
    elems = [(i, j) for j in range(2) for i in range(n)]

    def op(a, b):
        (i, j), (k, l) = a, b
        return ((i + (k if j == 0 else -k)) % n, (j + l) % 2)

    return FiniteGroup(2 * n, _table_from(elems, op))


def klein_four() -> FiniteGroup:
    elems = [(a, b) for a in range(2) for b in range(2)]
    return FiniteGroup(
        4, _table_from(elems, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2))
    )


def quaternion8() -> FiniteGroup:
    """{+-1, +-i, +-j, +-k} as pairs (sign, axis) with axes e,i,j,k."""
    mul_axis = {
        ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
        ("i", "e"): (1, "i"), ("i", "i"): (-1, "e"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "e"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "e"), ("j", "k"): (1, "i"),
        ("k", "e"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "e"),
    }
    elems = [(s, a) for a in "eijk" for s in (1, -1)]

    def op(x, y):
        s, a = mul_axis[(x[1], y[1])]
        return (x[0] * y[0] * s, a)

    return FiniteGroup(8, _table_from(elems, op))


def _compose(p, q):
    """The permutation i -> p[q[i]]."""
    return tuple(p[i] for i in q)


def alternating4() -> FiniteGroup:
    perms = [p for p in itertools.permutations(range(4)) if _parity(p) == 0]
    return FiniteGroup(12, _table_from(perms, _compose))


def symmetric3() -> FiniteGroup:
    return FiniteGroup(6, _table_from(list(itertools.permutations(range(3))), _compose))


def _parity(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


def group_catalog(name: str) -> FiniteGroup:
    """C1..C12, V4, S3, D3..D6, Q8, A4."""
    m = re.fullmatch(r"([CD])([0-9]+)", name)
    if m:
        n = int(m.group(2))
        if m.group(1) == "C" and 1 <= n <= 12:
            return cyclic(n)
        if m.group(1) == "D" and 3 <= n <= 6:
            return dihedral(n)
    if name == "V4":
        return klein_four()
    if name == "S3":
        return symmetric3()
    if name == "Q8":
        return quaternion8()
    if name == "A4":
        return alternating4()
    raise UnknownFixture(f"no group fixture named {name!r}")


GROUP_FIXTURES = tuple(
    [f"C{n}" for n in range(1, 13)] + ["V4", "S3", "D3", "D4", "D5", "D6", "Q8", "A4"]
)


class GroupXMod(Record):
    g: FiniteGroup
    h: FiniteGroup
    action: tuple  # action[h][g] -> g index
    boundary: tuple  # boundary[g] -> h index
    brace: tuple | None = None  # brace[h][h'] -> g index

    def __post_init__(self):
        if len(self.action) != self.h.order or any(
            len(r) != self.g.order for r in self.action
        ):
            raise InvalidInput("action table must be |H| x |G|")
        if len(self.boundary) != self.g.order:
            raise InvalidInput("boundary must list |G| images")
        if self.brace is not None and (
            len(self.brace) != self.h.order
            or any(len(r) != self.h.order for r in self.brace)
        ):
            raise InvalidInput("brace table must be |H| x |H|")
        G, H = self.g.order, self.h.order
        for name, rows, group, order in (
            ("action", self.action, "G", G),
            ("boundary", (self.boundary,), "H", H),
            ("brace", self.brace or (), "G", G),
        ):
            if any(not (0 <= v < order) for row in rows for v in row):
                raise InvalidInput(f"{name} entries must be element indices of {group}")

    def act(self, h: int, g: int) -> int:
        return self.action[h][g]


def _linear(domain: Space, codomain: Space, images):
    """The linear map b_u -> b_images[u]."""
    return from_columns(domain, codomain, [((v, 1),) for v in images])


def _bilinear(left: Space, right: Space, codomain: Space, f):
    """The bilinear map (b_u, b_v) -> b_f(u, v)."""
    return bilinear_from_rule(left, right, codomain, lambda u, v: ((f(u, v), 1),))


def _sweep(tag: str, dims, lhs, rhs, dim):
    """`sweep`, each witness side, one basis vector b_u, read back as (u,)."""
    check = sweep(tag, dims, lhs, rhs, dim)
    if check.ok:
        return check
    w = check.witness
    return AxiomCheck(tag, False, Witness(w.basis_tuple, (w.lhs.index(1),), (w.rhs.index(1),)))


def validate_group_xmod(x: GroupXMod, subject: str = "groupxmod") -> ValidationReport:
    """Action-by-automorphisms, boundary homomorphism, XGr1, XGr2."""
    G, H, g, h = x.g, x.h, x.g.order, x.h.order
    kG, kH = Space(QQ, tuple(range(g))), Space(QQ, tuple(range(h)))
    gm, hm = _bilinear(kG, kG, kG, G.mul), _bilinear(kH, kH, kH, H.mul)
    act, d = _bilinear(kH, kG, kG, x.act), _linear(kG, kH, x.boundary)
    hconj, gconj = _bilinear(kH, kH, kH, H.conj), _bilinear(kG, kG, kG, G.conj)
    laws = [
        (
            "GrAct",
            (h, g, g),
            Bil(act, b0, Bil(gm, b1, b2)),
            Bil(gm, Bil(act, b0, b1), Bil(act, b0, b2)),
            g,
        ),
        ("GrAct", (h, h, g), Bil(act, Bil(hm, b0, b1), b2), Bil(act, b0, Bil(act, b1, b2)), g),
        ("GrAct", (g,), Lin(_linear(kG, kG, x.action[H.identity]), b0), b0, g),
        ("GrHom", (g, g), Lin(d, Bil(gm, b0, b1)), Bil(hm, Lin(d, b0), Lin(d, b1)), h),
        ("XGr1", (h, g), Lin(d, Bil(act, b0, b1)), Bil(hconj, b0, Lin(d, b1)), h),
        ("XGr2", (g, g), Bil(act, Lin(d, b0), b1), Bil(gconj, b0, b1), g),
    ]
    return merge(subject, [_sweep(*law) for law in laws])


def validate_group_braiding(x: GroupXMod, subject: str = "groupxmod") -> ValidationReport:
    """BGr1..BGr6, exhaustive over element tuples."""
    if x.brace is None:
        raise InvalidInput("braiding validation needs a brace table")
    G, H, g, h, br = x.g, x.h, x.g.order, x.h.order, x.brace
    kG, kH = Space(QQ, tuple(range(g))), Space(QQ, tuple(range(h)))
    gm, hm = _bilinear(kG, kG, kG, G.mul), _bilinear(kH, kH, kH, H.mul)
    act, d = _bilinear(kH, kG, kG, x.act), _linear(kG, kH, x.boundary)
    brace, inv = _bilinear(kH, kH, kG, lambda a, b: br[a][b]), _linear(kG, kG, G.inverse)
    hcomm, gcomm = _bilinear(kH, kH, kH, H.commutator), _bilinear(kG, kG, kG, G.commutator)
    laws = [
        ("BGr1", (h, h), Lin(d, Bil(brace, b0, b1)), Bil(hcomm, b0, b1), h),
        ("BGr2", (g, g), Bil(brace, Lin(d, b0), Lin(d, b1)), Bil(gcomm, b0, b1), g),
        ("BGr3", (g, h), Bil(brace, Lin(d, b0), b1), Bil(gm, b0, Bil(act, b1, Lin(inv, b0))), g),
        ("BGr4", (h, g), Bil(brace, b0, Lin(d, b1)), Bil(gm, Bil(act, b0, b1), Lin(inv, b1)), g),
        (
            "BGr5",
            (h, h, h),
            Bil(brace, b0, Bil(hm, b1, b2)),
            Bil(gm, Bil(brace, b0, b1), Bil(act, b1, Bil(brace, b0, b2))),
            g,
        ),
        (
            "BGr6",
            (h, h, h),
            Bil(brace, Bil(hm, b0, b1), b2),
            Bil(gm, Bil(act, b0, Bil(brace, b1, b2)), Bil(brace, b0, b2)),
            g,
        ),
    ]
    return merge(subject, [_sweep(*law) for law in laws])


def conjugation_example(g: FiniteGroup) -> GroupXMod:
    """(G, G, Conj, Id) with the commutator brace."""
    n = g.order
    action = tuple(tuple(g.conj(h, a) for a in range(n)) for h in range(n))
    brace = tuple(tuple(g.commutator(a, b) for b in range(n)) for a in range(n))
    return GroupXMod(g, g, action, tuple(range(n)), brace)
