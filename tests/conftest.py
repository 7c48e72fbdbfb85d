import importlib.util
import os
import sys
from fractions import Fraction

import pytest

from braidalg.algebra import Algebra
from braidalg.linear import bilinear_from_rule

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")
MUTATIONS = os.path.join(FIXTURES, "mutations")
DOCS = os.path.join(ROOT, "docs")
SCRIPTS = os.path.join(ROOT, "scripts")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def mutations_dir():
    return MUTATIONS


@pytest.fixture(scope="session")
def glossary_text():
    with open(os.path.join(DOCS, "axiom_tags.md"), "r", encoding="utf-8") as fh:
        return fh.read()


def load_script(name):
    """Import a scripts/ module by file path."""
    path = os.path.join(SCRIPTS, name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="session")
def mutations_module():
    return load_script("make_mutations")


# The library evaluates sparse vectors, the tuples of their nonzero entries
# ((k, c), ...); the tests below build and compare dense ones, converting at
# each call with these two helpers.


def sparse(v):
    """The dense vector v as the tuple of its nonzero entries."""
    return tuple((k, c) for k, c in enumerate(v) if c != 0)


def densify(v, dim):
    """The sparse vector v as a tuple of all `dim` coordinates."""
    out = [0] * dim
    for k, c in v:
        out[k] = c
    return tuple(out)


def sheared(a, src, dst, lam):
    """The algebra `a` in the basis b_x (x != src), b_src + lam * b_dst,
    keeping its labels: the same algebra, transported."""
    F, sp = a.field, a.space

    def old(i):  # the i-th new basis vector in the old basis
        v = [F.zero()] * sp.dim
        v[i] = F.one()
        if i == src:
            v[dst] = F.add(v[dst], lam)
        return sparse(v)

    def new(w):  # old coordinates -> new coordinates
        v = list(densify(w, sp.dim))
        v[dst] = F.sub(v[dst], F.mul(lam, v[src]))
        return sparse(v)

    return Algebra(
        sp, bilinear_from_rule(sp, sp, sp, lambda i, j: new(a.mult.apply(old(i), old(j))))
    )


# A dense reference for the maps a categorical algebra derives, summed entry
# by entry with `Field` methods from the structural maps' columns and the
# multiplication's basis products; it reads no law code.  It takes and
# returns dense vectors.


def dense_apply(f, x):
    """f(x) = sum of x_j f(b_j)."""
    F, dim = f.field, f.codomain.dim
    out = [F.zero()] * dim
    for j, xj in enumerate(x):
        for k, c in enumerate(densify(f.column(j), dim)):
            out[k] = F.add(out[k], F.mul(xj, c))
    return tuple(out)


def dense_bilinear(m, u, v):
    """m(u, v) = sum of u_i v_j m(b_i, b_j); for an algebra's `mult`, the
    product u v."""
    F, dim = m.field, m.codomain.dim
    out = [F.zero()] * dim
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            for k, c in enumerate(densify(m.on_basis(i, j), dim)):
                out[k] = F.add(out[k], F.mul(F.mul(ui, vj), c))
    return tuple(out)


def dense_compose(c, x, y):
    """The forced composition x - e(t(x)) + y."""
    F = c.c1.field
    et = dense_apply(c.e, dense_apply(c.t, x))
    return tuple(F.add(F.sub(a, b), d) for a, b, d in zip(x, et, y))


def random_vector(rng, F, n):
    """n seeded coordinates: small fractions over Q, any residue over F_p."""
    if F.is_rationals:
        return tuple(F.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(n))
    return tuple(F.of(rng.randrange(F.characteristic)) for _ in range(n))


def naive_rref(F, rows):
    """Gauss-Jordan with Field methods only; zero rows dropped."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = F.inv(rows[rank][c])
        rows[rank] = [F.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and (f := rows[r][c]) != 0:
                rows[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return [tuple(r) for r in rows[:rank]]


def naive_rank(F, rows):
    return len(naive_rref(F, rows))
