"""Seeded input generator, independent of the code under test.

Everything here is computed from first principles with Python ints and
Fractions: catalog algebras, unimodular changes of basis, braided crossed
modules, their bar constructions, Lie-fications, group crossed modules
and the DSL text for all of them.  Nothing is imported
from braidalg, so two commits given the same seed receive byte-identical
inputs.

Known answers follow from theorems, not from running the checker:
identity crossed modules with the commutator (or bracket) brace are
braided, the bar construction of a braided crossed module is a braided
categorical algebra, the alpha/beta maps are braided isomorphisms, and
Lie-fication and transport of structure preserve every axiom.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

HUGE_PRIME = 1000000000000000003


# ---------------------------------------------------------------------------
# sparse structure constants: {(i, j): {k: c}} and matrices as row lists


@dataclass
class Alg:
    labels: tuple
    mult: dict  # (i, j) -> {k: c}

    @property
    def dim(self):
        return len(self.labels)


def _add(acc, k, c):
    v = acc.get(k, 0) + c
    if v:
        acc[k] = v
    else:
        acc.pop(k, None)


def catalog(name: str) -> Alg:
    """Ab(n), Mat(n), Upper(n), gl(n), sl2, Heis3 with the usual labels."""
    if name == "sl2":
        h, e, f = 0, 1, 2
        mult = {
            (h, e): {e: 2}, (e, h): {e: -2},
            (h, f): {f: -2}, (f, h): {f: 2},
            (e, f): {h: 1}, (f, e): {h: -1},
        }
        return Alg(("h", "e", "f"), mult)
    if name == "Heis3":
        return Alg(("x", "y", "z"), {(0, 1): {2: 1}, (1, 0): {2: -1}})
    kind, n = name.rstrip(")").split("(")
    n = int(n)
    if kind == "Ab":
        return Alg(tuple(f"a{i}" for i in range(1, n + 1)), {})
    if kind == "gl":
        return liefy(catalog(f"Mat({n})"))
    if kind == "Mat":
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    elif kind == "Upper":
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    else:
        raise ValueError(f"unknown catalog algebra {name!r}")
    index = {p: a for a, p in enumerate(pairs)}
    mult = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                mult[(a, b)] = {index[(i, l)]: 1}
    return Alg(tuple(f"e{i}{j}" for i, j in pairs), mult)


def commutator(mult: dict) -> dict:
    """(i, j) -> mult(i, j) - mult(j, i)."""
    out = {}
    for (i, j), v in mult.items():
        for k, c in v.items():
            _add(out.setdefault((i, j), {}), k, c)
            _add(out.setdefault((j, i), {}), k, -c)
    return {key: v for key, v in out.items() if v}


def liefy(a: Alg) -> Alg:
    return Alg(a.labels, commutator(a.mult))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def inverse(p):
    """Exact inverse by Gauss-Jordan over Fractions."""
    n = len(p)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(p)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col]
        rows[col] = [x / inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def unimodular(rng: random.Random, n: int, role: str = "M"):
    """A seeded integral change of basis P = U . S and its inverse.

    U is unit upper triangular with one +-1 above the diagonal in each row,
    fixed per (dimension, role); S is a seeded signed permutation.  The
    transported structure constants then have the same number of nonzeros
    for every seed (about 15-65% instead of 2-20%), so the seed moves the
    basis order and the signs but not the amount of work.
    """
    fixed = random.Random(f"transport/{n}/{role}")
    u = identity(n)
    for i in range(n - 1):
        u[i][fixed.randrange(i + 1, n)] = fixed.choice((1, -1))
    uinv = [[int(x) for x in row] for row in inverse(u)]
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    s = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    sinv = [[s[j][i] for j in range(n)] for i in range(n)]  # S is orthogonal
    return matmul(u, s), matmul(sinv, uinv)


def _col(p, a):
    return {i: p[i][a] for i in range(len(p)) if p[i][a]}


def transport_bil(mult, pl, pr, pout_inv):
    """B'(f_a, g_b) = Pout^-1 B(Pl f_a, Pr g_b) on basis indices."""
    out = {}
    for a in range(len(pl[0])):
        ca = _col(pl, a)
        for b in range(len(pr[0])):
            cb = _col(pr, b)
            acc = {}
            for i, x in ca.items():
                for j, y in cb.items():
                    for k, c in mult.get((i, j), {}).items():
                        for cc in range(len(pout_inv)):
                            z = pout_inv[cc][k]
                            if z:
                                _add(acc, cc, x * y * c * z)
            if acc:
                out[(a, b)] = acc
    return out


def transport_lin(cols, pin, pout_inv):
    """L' = Pout^-1 L Pin with L given by columns {j: {k: c}}."""
    out = {}
    for a in range(len(pin[0])):
        acc = {}
        for j, x in _col(pin, a).items():
            for k, c in cols.get(j, {}).items():
                for cc in range(len(pout_inv)):
                    z = pout_inv[cc][k]
                    if z:
                        _add(acc, cc, x * c * z)
        if acc:
            out[a] = acc
    return out


def nonzero_ratio(mult, dim):
    return sum(len(v) for v in mult.values()) / dim ** 3 if dim else 0.0


# ---------------------------------------------------------------------------
# braided crossed modules (M module, N actor) and their bar constructions


@dataclass
class XBraid:
    m: Alg
    n: Alg
    star1: dict  # N x M -> M
    star2: dict  # M x N -> M
    d: dict  # M -> N, columns
    brace: dict  # N x N -> M


def _transported_pair(a: Alg, rng):
    """`a` as M and as N of an identity crossed module, each in its own
    seeded basis, with the changes of basis (P, P^-1) and (Q, Q^-1)."""
    n = a.dim
    p, pinv = unimodular(rng, n, "M")
    q, qinv = unimodular(rng, n, "N")
    m = Alg(tuple(f"u{i}" for i in range(1, n + 1)), transport_bil(a.mult, p, p, pinv))
    nn = Alg(tuple(f"v{i}" for i in range(1, n + 1)), transport_bil(a.mult, q, q, qinv))
    return m, nn, (p, pinv), (q, qinv)


def _identity_map(n):
    return {i: {i: 1} for i in range(n)}


def identity_braiding(a: Alg, rng=None) -> XBraid:
    """(A, A, (*, *), id) with the commutator brace, optionally transported
    by independent unimodular changes of basis of M and of N."""
    star, d, brace = a.mult, _identity_map(a.dim), commutator(a.mult)
    if rng is None:
        return XBraid(a, a, star, star, d, brace)
    m, nn, (p, pinv), (q, qinv) = _transported_pair(a, rng)
    return XBraid(
        m,
        nn,
        transport_bil(star, q, p, pinv),
        transport_bil(star, p, q, pinv),
        transport_lin(d, p, qinv),
        transport_bil(brace, q, q, pinv),
    )


@dataclass
class CBraid:
    c1: Alg
    c0: Alg
    s: dict
    t: dict
    e: dict
    tau: dict
    flavor: str


def bar_construction(x: XBraid) -> CBraid:
    """(M x| N, N, s, t, e) with tau(n, n') = (-{n, n'}, n n')."""
    mdim = x.m.dim
    labels = tuple("m_" + s for s in x.m.labels) + tuple("n_" + s for s in x.n.labels)
    mult = {}

    def put(i, j, vec, shift):
        if vec:
            acc = mult.setdefault((i, j), {})
            for k, c in vec.items():
                _add(acc, k + shift, c)

    for i in range(mdim):
        for j in range(mdim):
            put(i, j, x.m.mult.get((i, j)), 0)
        for j in range(x.n.dim):
            put(i, mdim + j, x.star2.get((i, j)), 0)
            put(mdim + j, i, x.star1.get((j, i)), 0)
    for i in range(x.n.dim):
        for j in range(x.n.dim):
            put(mdim + i, mdim + j, x.n.mult.get((i, j)), mdim)
    mult = {key: v for key, v in mult.items() if v}
    s = {mdim + j: {j: 1} for j in range(x.n.dim)}
    t = {}
    for i in range(mdim):
        if x.d.get(i):
            t[i] = dict(x.d[i])
    for j in range(x.n.dim):
        t[mdim + j] = {j: 1}
    e = {j: {mdim + j: 1} for j in range(x.n.dim)}
    tau = {}
    for i in range(x.n.dim):
        for j in range(x.n.dim):
            acc = {}
            for k, c in x.brace.get((i, j), {}).items():
                _add(acc, k, -c)
            for k, c in x.n.mult.get((i, j), {}).items():
                _add(acc, mdim + k, c)
            if acc:
                tau[(i, j)] = acc
    return CBraid(Alg(labels, mult), x.n, s, t, e, tau, "assoc")


def lie_cat(c: CBraid) -> CBraid:
    """Lie-fied base with tau^L(a, b) = tau(a, b) - tau(b, a)."""
    return CBraid(
        liefy(c.c1), liefy(c.c0), c.s, c.t, c.e, commutator(c.tau), "lie"
    )


@dataclass
class LieXBraid:
    m: Alg
    n: Alg
    dot: dict  # N x M -> M
    d: dict
    brace: dict


def lie_xbraid(x: XBraid) -> LieXBraid:
    """Lie-fication: dot(n, m) = n *1 m - m *2 n, brace ({n,n'} - {n',n}) / 2."""
    dot = {}
    for (i, j), v in x.star1.items():
        for k, c in v.items():
            _add(dot.setdefault((i, j), {}), k, c)
    for (j, i), v in x.star2.items():
        for k, c in v.items():
            _add(dot.setdefault((i, j), {}), k, -c)
    half = {key: {k: Fraction(c, 2) for k, c in v.items()}
            for key, v in commutator(x.brace).items()}
    return LieXBraid(
        liefy(x.m), liefy(x.n), {k: v for k, v in dot.items() if v}, x.d, half
    )


def bracket_braiding(a: Alg, rng=None) -> LieXBraid:
    """Identity Lie crossed module on a Lie algebra with brace = bracket."""
    d = _identity_map(a.dim)
    if rng is None:
        return LieXBraid(a, a, a.mult, d, a.mult)
    m, nn, (p, pinv), (q, qinv) = _transported_pair(a, rng)
    return LieXBraid(
        m,
        nn,
        transport_bil(a.mult, q, p, pinv),
        transport_lin(d, p, qinv),
        transport_bil(a.mult, q, q, pinv),
    )


# ---------------------------------------------------------------------------
# DSL text


class Doc:
    def __init__(self, p: int):
        self.p = p
        self.lines = ["field Q" if p == 0 else f"field Fp {p}"]

    def scalar(self, c):
        c = Fraction(c)
        if self.p:
            return c.numerator * pow(c.denominator, -1, self.p) % self.p
        return c

    def expr(self, vec, labels):
        parts = []
        for k in sorted(vec):
            c = self.scalar(vec[k])
            if c == 0:
                continue
            mag, neg = (-c, True) if c < 0 else (c, False)
            term = labels[k] if mag == 1 else f"{mag} {labels[k]}"
            if parts:
                parts.append(f"- {term}" if neg else f"+ {term}")
            else:
                parts.append(f"-{term}" if neg else term)
        return " ".join(parts)

    def algebra(self, name, a: Alg):
        self.lines.append(f"algebra {name} basis {', '.join(a.labels)} {{")
        for (i, j) in sorted(a.mult):
            text = self.expr(a.mult[(i, j)], a.labels)
            if text:
                self.lines.append(f"  {a.labels[i]}*{a.labels[j]} = {text};")
        self.lines.append("}")

    def bilinear(self, name, b, ln, left, rn, right, cn, cod):
        self.lines.append(f"bilinear {name} : {ln}, {rn} -> {cn} {{")
        for (i, j) in sorted(b):
            text = self.expr(b[(i, j)], cod.labels)
            if text:
                self.lines.append(f"  ({left.labels[i]}, {right.labels[j]}) = {text};")
        self.lines.append("}")

    def map(self, name, cols, dn, dom, cn, cod):
        self.lines.append(f"map {name} : {dn} -> {cn} {{")
        for i in sorted(cols):
            text = self.expr(cols[i], cod.labels)
            if text:
                self.lines.append(f"  {dom.labels[i]} |-> {text};")
        self.lines.append("}")

    def block(self, kind, name, entries, header=""):
        self.lines.append(f"{kind} {name}{header} {{")
        self.lines.extend(f"  {k} = {v};" for k, v in entries)
        self.lines.append("}")

    def text(self):
        return "\n".join(self.lines) + "\n"


def _algebras(doc, name, m, n):
    """Declare M and N (once when they are the same algebra)."""
    if m is n:
        doc.algebra(f"{name}_M", m)
        return f"{name}_M", f"{name}_M"
    doc.algebra(f"{name}_M", m)
    doc.algebra(f"{name}_N", n)
    return f"{name}_M", f"{name}_N"


def xbraid_doc(name, x: XBraid, p: int) -> str:
    doc = Doc(p)
    mn, nn = _algebras(doc, name, x.m, x.n)
    doc.bilinear(f"{name}_s1", x.star1, nn, x.n, mn, x.m, mn, x.m)
    doc.bilinear(f"{name}_s2", x.star2, mn, x.m, nn, x.n, mn, x.m)
    doc.block("action", f"{name}_act", [("star1", f"{name}_s1"), ("star2", f"{name}_s2")],
              f" : {nn} on {mn}")
    doc.map(f"{name}_d", x.d, mn, x.m, nn, x.n)
    doc.block("xmod", f"{name}_xm", [("action", f"{name}_act"), ("boundary", f"{name}_d")])
    doc.bilinear(f"{name}_brace", x.brace, nn, x.n, nn, x.n, mn, x.m)
    doc.block("braiding", name, [("xmod", f"{name}_xm"), ("brace", f"{name}_brace")])
    return doc.text()


def lie_xbraid_doc(name, x: LieXBraid, p: int) -> str:
    doc = Doc(p)
    mn, nn = _algebras(doc, name, x.m, x.n)
    doc.bilinear(f"{name}_dot", x.dot, nn, x.n, mn, x.m, mn, x.m)
    doc.block("action", f"{name}_act", [("dot", f"{name}_dot")], f" : {nn} on {mn}")
    doc.map(f"{name}_d", x.d, mn, x.m, nn, x.n)
    doc.block("xmod", f"{name}_xm", [("action", f"{name}_act"), ("boundary", f"{name}_d")])
    doc.bilinear(f"{name}_brace", x.brace, nn, x.n, nn, x.n, mn, x.m)
    doc.block("braiding", name, [("xmod", f"{name}_xm"), ("brace", f"{name}_brace")])
    return doc.text()


def cbraid_doc(name, c: CBraid, p: int) -> str:
    doc = Doc(p)
    doc.algebra(f"{name}_C1", c.c1)
    doc.algebra(f"{name}_C0", c.c0)
    for m in ("s", "t"):
        doc.map(f"{name}_{m}", getattr(c, m), f"{name}_C1", c.c1, f"{name}_C0", c.c0)
    doc.map(f"{name}_e", c.e, f"{name}_C0", c.c0, f"{name}_C1", c.c1)
    doc.block("cat", f"{name}_cat", [
        ("flavor", c.flavor), ("c1", f"{name}_C1"), ("c0", f"{name}_C0"),
        ("s", f"{name}_s"), ("t", f"{name}_t"), ("e", f"{name}_e"),
    ])
    doc.bilinear(f"{name}_tau", c.tau, f"{name}_C0", c.c0, f"{name}_C0", c.c0,
                 f"{name}_C1", c.c1)
    doc.block("braiding", name, [("cat", f"{name}_cat"), ("tau", f"{name}_tau")])
    return doc.text()


def algebra_doc(name, a: Alg) -> str:
    doc = Doc(0)
    doc.algebra(name, a)
    return doc.text()


# ---------------------------------------------------------------------------
# finite groups: GROUP_FIXTURES of the checker, rebuilt here by Cayley table

GROUPS = tuple(
    [f"C{n}" for n in range(1, 13)] + ["V4", "S3", "D3", "D4", "D5", "D6", "Q8", "A4"]
)


def _table(elems, op):
    index = {e: i for i, e in enumerate(elems)}
    return [[index[op(a, b)] for b in elems] for a in elems]


def group_table(name):
    if name[0] == "C":
        n = int(name[1:])
        return [[(i + j) % n for j in range(n)] for i in range(n)]
    if name[0] == "D":
        n = int(name[1:])

        def op(a, b):
            return ((a[0] + (b[0] if a[1] == 0 else -b[0])) % n, (a[1] + b[1]) % 2)

        return _table([(i, j) for j in range(2) for i in range(n)], op)
    if name == "V4":
        return _table([(a, b) for a in range(2) for b in range(2)],
                      lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2))
    if name == "Q8":
        # unit quaternions as integer 4-vectors under the Hamilton product
        def op(x, y):
            a1, b1, c1, d1 = x
            a2, b2, c2, d2 = y
            return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                    a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                    a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                    a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

        units = [tuple(s * int(i == k) for i in range(4)) for k in range(4) for s in (1, -1)]
        return _table(units, op)
    k = 3 if name == "S3" else 4
    perms = list(itertools.permutations(range(k)))
    if name == "A4":
        perms = [p for p in perms
                 if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    return _table(perms, lambda p, q: tuple(p[q[i]] for i in range(k)))


def relabel(table, perm):
    """Group table with element i renamed perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def conjugation_doc(name, table, boundary=None) -> str:
    """(G, G, conjugation, id) with the commutator brace a b a^-1 b^-1."""
    n = len(table)
    ident = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    inv = [next(j for j in range(n) if table[i][j] == ident) for i in range(n)]
    action = [[table[table[h][g]][inv[h]] for g in range(n)] for h in range(n)]
    brace = [[table[table[table[a][b]][inv[a]]][inv[b]] for b in range(n)] for a in range(n)]
    if boundary is None:
        boundary = list(range(n))

    def rows(t):
        return ",\n    ".join(" ".join(map(str, r)) for r in t)

    return (
        f"field Q\ngroup {name}_G {{\n  table =\n    {rows(table)};\n}}\n"
        f"groupxmod {name} {{\n  g = {name}_G;\n  h = {name}_G;\n"
        f"  action =\n    {rows(action)};\n"
        f"  boundary = {' '.join(map(str, boundary))};\n"
        f"  brace =\n    {rows(brace)};\n}}\n"
    )


def input_digest(items) -> str:
    """sha256 over (name, text) pairs, the identity of a generated input set."""
    h = hashlib.sha256()
    for name, text in items:
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()
