import importlib.util
import os
import sys

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


def sheared(a, src, dst, lam):
    """The algebra `a` in the basis b_x (x != src), b_src + lam * b_dst,
    keeping its labels: the same algebra, transported."""
    F, sp = a.field, a.space

    def old(i):  # the i-th new basis vector in the old basis
        v = list(sp.basis_vector(i))
        if i == src:
            v[dst] = F.add(v[dst], lam)
        return tuple(v)

    def new(w):  # old coordinates -> new coordinates
        v = list(w)
        v[dst] = F.sub(v[dst], F.mul(lam, w[src]))
        return tuple(v)

    return Algebra(
        sp, bilinear_from_rule(sp, sp, sp, lambda i, j: new(a.mult.apply(old(i), old(j))))
    )
