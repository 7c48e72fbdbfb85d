#!/usr/bin/env python3
"""Derive braidings that violate exactly one braiding axiom.

Every braiding axiom is affine in the brace/tau tensor once the
underlying crossed module or categorical algebra is fixed.  The laws are
the validators' own law tables (`braiding_*_laws` in braidalg.braid).
For a target tag this solves the linear system "every other law of the
table holds" and looks for a solution violating the target; the
solutions are written to fixtures/mutations/ as DSL files, named by
`fixture_names`.  scripts/make_mutations.py takes its bases and helpers
from here.

Run from the repository root:  python3 scripts/find_isolating_mutations.py
"""

import functools
import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from braidalg.action import AssocAction, LieAction, zero_action_assoc, zero_action_lie
from braidalg.algebra import catalog, from_constants
from braidalg.braid import (
    CatBraiding,
    XBraiding,
    _bar,
    braiding_cat_assoc_laws,
    braiding_cat_lie_alt_laws,
    braiding_cat_lie_ulualan_laws,
    braiding_system,
    braiding_xmod_lie_laws,
    bracket_braiding,
    commutator_braiding,
    cx_functor,
    with_braiding,
)
from braidalg.dsl import print_catbraiding_doc, print_xbraiding_doc
from braidalg.fields import QQ
from braidalg.icat import CatAlgebra, cat_liefy
from braidalg.linear import (
    Space,
    affine_solutions,
    bilinear_from_rule,
    from_columns,
    vadd,
    zero_bilmap,
    zero_map,
)
from braidalg.natensor import tensor_braiding, tensor_square
from braidalg.report import sweep
from braidalg.xmod import XModAssoc, XModLie

F = QQ


def isolate(cache, name, b, laws, target):
    """A braiding on `b.base` that satisfies every law of `laws` except
    those tagged `target`, and fails `target`; None if there is none.

    `cache` keeps the `braiding_system` of each (name, tag): a tag names
    the same law in every table that holds it.
    """
    tags = dict.fromkeys(tag for tag, _, _ in laws(b))
    new = [tag for tag in tags if (name, tag) not in cache]
    if new:
        system = braiding_system(b, lambda o: [law for law in laws(o) if law[0] in new])
        cache.update(((name, tag), eqs) for tag, eqs in system.items())
    others = [cache[name, tag] for tag in tags if tag != target]
    rows = [row for r, _ in others for row in r]
    const = [c for _, cs in others for c in cs]
    t = b.tau if isinstance(b, CatBraiding) else b.brace
    sol = affine_solutions(F, rows, const, t.left.dim * t.right.dim * t.codomain.dim)
    if sol is None:
        return None
    part, null = sol
    # the particular solution, then one step along each basis vector
    for x in itertools.chain([part], (vadd(F, part, v) for v in null)):
        mut = with_braiding(b, x)
        if not all(sweep(*law).ok for law in laws(mut) if law[0] == target):
            return mut
    return None


# ---------------------------------------------------------------------------
# bases, which scripts/make_mutations.py builds its cases on too


def alg(labels, prods=None, field=F):
    return from_constants(Space(field, tuple(labels)), prods or {})


def bil(left, right, cod, entries):
    """BilMap from {(i, j): {k: scalar}} on basis indices."""

    def rule(i, j):
        v = [cod.field.zero()] * cod.dim
        for k, c in entries.get((i, j), {}).items():
            v[k] = cod.field.of(c)
        return tuple(v)

    return bilinear_from_rule(left, right, cod, rule)


def zero_xmod(actor, module, lie=False):
    """The crossed module of `actor` on `module` with zero action and boundary."""
    d = zero_map(module.space, actor.space)
    if lie:
        return XModLie(zero_action_lie(actor, module), d)
    return XModAssoc(zero_action_assoc(actor, module), d)


def zero_braiding(base):
    """`base`, a crossed module or a categorical algebra, with the zero
    braiding N x N -> M or C0 x C0 -> C1."""
    if isinstance(base, CatAlgebra):
        c0, c1 = base.c0.space, base.c1.space
        return CatBraiding(base, zero_bilmap(c0, c0, c1))
    return XBraiding(base, zero_bilmap(base.n.space, base.n.space, base.m.space))


# Both corpus scripts use the braided tensor crossed module of Heis3 and
# its bar construction; each is built once per run and field.
@functools.cache
def heis3_tensor(field):
    return tensor_braiding(tensor_square(catalog("Heis3", field)))


@functools.cache
def heis3_tensor_bar(field):
    """`braid._bar` of the Heis3 tensor crossed module: (cat, semidirect)."""
    return _bar(heis3_tensor(field).base)


def degenerate_xmods(field=F):
    """Valid associative crossed modules with room in the brace/tau tensor."""
    m, uv = alg(("m",), field=field), alg(("u", "v"), field=field)
    # boundary with kernel and cokernel, everything else zero
    m2 = alg(("m1", "m2"), field=field)
    d = from_columns(m2.space, uv.space, [uv.space.basis_vector(0), uv.space.zero()])
    yield "ker", XModAssoc(zero_action_assoc(uv, m2), d)
    # one-sided identity actor, nontrivial action, zero boundary
    nu = alg(
        ("u", "v"),
        {("u", "u"): {"u": 1}, ("u", "v"): {"v": 1}, ("v", "u"): {"v": 1}},
        field=field,
    )
    star1 = bil(nu.space, m.space, m.space, {(0, 0): {0: 1}})
    star2 = bil(m.space, nu.space, m.space, {(0, 0): {0: 1}})
    yield "idact", XModAssoc(
        AssocAction(nu, m, star1, star2), zero_map(m.space, nu.space)
    )
    # noncommutative actor, zero action and boundary
    nl = alg(("u", "v"), {("u", "u"): {"u": 1}, ("u", "v"): {"v": 1}}, field=field)
    yield "noncomm", zero_xmod(nl, m)


def cat_assoc_candidates():
    for name, x in degenerate_xmods():
        yield name + "cx", zero_braiding(_bar(x)[0])
    yield "upper2cx", cx_functor(commutator_braiding(catalog("Upper(2)", QQ)))
    yield "mat2cx", cx_functor(commutator_braiding(catalog("Mat(2)", QQ)))


@functools.cache
def lie_degenerate_bars(field):
    """Bar constructions of valid Lie crossed modules with room in tau, as
    (name, categorical algebra) pairs."""
    m = alg(("m",), field=field)
    # solvable 2-dim actor [u,v] = v, and Heis3; both act by dot(b_0, m) = m,
    # with zero boundary
    nsolv = alg(("u", "v"), {("u", "v"): {"v": 1}, ("v", "u"): {"v": -1}}, field=field)
    bars = []
    for name, n in (("solv", nsolv), ("heisdot", catalog("Heis3", field))):
        dot = bil(n.space, m.space, m.space, {(0, 0): {0: 1}})
        x = XModLie(LieAction(n, m, dot), zero_map(m.space, n.space))
        bars.append((name, _bar(x)[0]))
    # tensor-square crossed module of Heis3 (kernel and cokernel both nonzero)
    return (*bars, ("heisT", heis3_tensor_bar(field)[0]))


def cat_lie_candidates(assoc):
    """Lie bar constructions, then the Lie-fied bases of `assoc`, the
    associative candidates."""
    for name, c in lie_degenerate_bars(F):
        yield name + "bar", zero_braiding(c)
    for name, b in assoc:
        yield name + "lie", zero_braiding(cat_liefy(b.base))


def xmod_lie_candidates():
    yield "sl2T", tensor_braiding(tensor_square(catalog("sl2", QQ)))
    yield "heis3T", heis3_tensor(F)
    yield "gl2id", bracket_braiding(catalog("gl2", QQ))


# ---------------------------------------------------------------------------
# drivers


def families():
    """Each law table with its candidates and the tags targeted; each
    candidate list is built once, and both Lie categorical tables share one."""
    assoc = list(cat_assoc_candidates())
    lie = list(cat_lie_candidates(assoc))
    return (
        (braiding_cat_assoc_laws, assoc, ("AsT2", "AsT3", "AsT4")),
        (braiding_cat_lie_ulualan_laws, lie, ("LieT2", "LieB3", "LieB4")),
        (braiding_cat_lie_alt_laws, lie, ("LieT3", "LieT4")),
        (braiding_xmod_lie_laws, list(xmod_lie_candidates()), ("BLie5", "BLie6")),
    )


def fixture_names(tag):
    """The file and the subject name of the isolating braiding for `tag`."""
    return f"{tag.lower()}_fail.alg", f"mut_{tag.lower()}"


def search():
    """For each target tag, the first candidate with an isolating braiding
    as (candidate name, failing tags, DSL document), or None."""
    cache, found = {}, {}
    for laws, candidates, targets in families():
        for target in targets:
            found[target] = None
            for name, b in candidates:
                mut = isolate(cache, name, b, laws, target)
                if mut is not None:
                    checks = [sweep(*law) for law in laws(mut)]
                    failing = sorted({c.tag for c in checks if not c.ok})
                    printer = (
                        print_catbraiding_doc
                        if isinstance(mut, CatBraiding)
                        else print_xbraiding_doc
                    )
                    doc = printer(mut, fixture_names(target)[1])
                    found[target] = (name, failing, doc)
                    break
    return found


def main():
    outdir = os.path.join(os.path.dirname(__file__), "..", "fixtures", "mutations")
    os.makedirs(outdir, exist_ok=True)
    for target, hit in search().items():
        if hit is None:
            print(target, ": no isolating braiding found")
            continue
        name, failing, doc = hit
        print(target, "on", name, "fails:", failing)
        fname = fixture_names(target)[0]
        with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
            fh.write(doc)
        print("wrote", fname)


if __name__ == "__main__":
    main()
