#!/usr/bin/env python3
"""Regenerate fixtures/mutations/ and its manifest.

Each case perturbs one ingredient of an otherwise well-formed structure
so that validation fails on a controlled set of axiom tags.  Wherever a
tag admits a counterexample violating it alone, the case isolates that
tag exactly.  Some tags are consequences of the remaining axioms of
their validator, so no input can fail them in isolation; those cases
carry a note and document a minimal failing set containing the tag
instead.

Cases expressible in the DSL are validated through the CLI's dispatch
from block kind to validator and written to fixtures/mutations/ together
with manifest.json.  The rest (morphism and internal functor mutations,
the tensor antisymmetry check, and validators the CLI does not dispatch
to) carry their own report and are only checked by the test suite.

The four solver-derived files ast2_fail.alg, ast3_fail.alg,
ast4_fail.alg and liet2_fail.alg come from
scripts/find_isolating_mutations.py; they are listed in the manifest
but not rewritten here.
"""

import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from braidalg.action import AssocAction, LieAction
from braidalg.algebra import Algebra, catalog, from_constants
from braidalg.braid import (
    CatBraiding,
    XBraiding,
    _bar,
    check_anticoherence,
    validate_braided_internal_functor,
    validate_braided_xmod_morphism,
    validate_braiding_cat_lie_alt,
)
from braidalg.cli import _validate_block
from braidalg.dsl import _print_object, parse, print_document
from braidalg.fields import QQ
from braidalg.groupx import GroupXMod, cyclic, klein_four, symmetric3
from braidalg.icat import ASSOC, LIE, CatAlgebra, discrete_cat
from braidalg.linear import (
    Space,
    Subspace,
    bilinear_from_rule,
    from_columns,
    identity_map,
    kernel,
    vadd,
    vscale,
    zero_bilmap,
    zero_map,
)
from braidalg.natensor import (
    TensorSquare,
    antisymmetry_consequence,
    tensor_braiding,
    tensor_square,
)
from braidalg.xmod import XModAssoc, XModLie, XModMorphism

F = QQ
ONE = F.one()
ZERO = F.zero()


def sp(*labels):
    return Space(F, tuple(labels))


def alg(labels, prods=None):
    return from_constants(sp(*labels), prods or {})


def bil(left, right, cod, entries):
    """BilMap from {(i, j): {k: scalar}} on basis indices."""

    def rule(i, j):
        v = [ZERO] * cod.dim
        for k, c in entries.get((i, j), {}).items():
            v[k] = F.of(c)
        return tuple(v)

    return bilinear_from_rule(left, right, cod, rule)


def _perturbed(bm, kv, slot):
    """bm with kv added to its value on the basis pair `slot`."""

    def rule(i, j):
        v = bm.on_basis(i, j)
        return vadd(F, v, kv) if (i, j) == slot else v

    return bilinear_from_rule(bm.left, bm.right, bm.codomain, rule)


def cols(dom, cod, images):
    return from_columns(dom, cod, list(images))


@dataclass(frozen=True)
class Case:
    name: str  # fixture stem and DSL subject name
    target: str  # the tag the case is about
    expected: tuple  # exact failing tags of the subject report
    report: Callable  # () -> ValidationReport for the subject
    doc: Optional[Callable] = None  # () -> DSL text, subject named `name`
    note: str = ""  # set when the target cannot fail alone


def dsl_case(name, target, expected, kind, obj, note=""):
    """A case on the block `name` of kind `kind`: the CLI's dispatch
    validates it and the DSL prints it."""
    return Case(
        name,
        target,
        expected,
        lambda: _validate_block(name, kind, obj),
        lambda: _print_object(F, kind, obj, name),
        note,
    )


# ---------------------------------------------------------------------------
# associative action cases


def case_aas1():
    M = alg(("m1", "m2"), {("m1", "m1"): {"m2": 1}})
    N = alg(("n",), {("n", "n"): {"n": 1}})
    a = AssocAction(
        N,
        M,
        bil(N.space, M.space, M.space, {(0, 1): {1: 1}}),
        zero_bilmap(M.space, N.space, M.space),
    )
    return dsl_case("aas1", "AAs1", ("AAs1",), "action", a)


def case_aas2():
    M = alg(("m1", "m2", "m3"))
    N = alg(("n",))
    a = AssocAction(
        N,
        M,
        bil(N.space, M.space, M.space, {(0, 0): {1: 1}}),
        bil(M.space, N.space, M.space, {(1, 0): {2: 1}}),
    )
    return dsl_case("aas2", "AAs2", ("AAs2",), "action", a)


def case_aas3():
    M = alg(("m",))
    N = alg(("n",))
    a = AssocAction(
        N,
        M,
        bil(N.space, M.space, M.space, {(0, 0): {0: 1}}),
        zero_bilmap(M.space, N.space, M.space),
    )
    return dsl_case("aas3", "AAs3", ("AAs3",), "action", a)


def case_aas4():
    M = alg(("m",))
    N = alg(("n",))
    a = AssocAction(
        N,
        M,
        zero_bilmap(N.space, M.space, M.space),
        bil(M.space, N.space, M.space, {(0, 0): {0: 1}}),
    )
    return dsl_case("aas4", "AAs4", ("AAs4",), "action", a)


def case_aas5():
    M = alg(("m1", "m2", "m3"), {("m1", "m2"): {"m3": 1}})
    N = alg(("n",), {("n", "n"): {"n": 1}})
    a = AssocAction(
        N,
        M,
        bil(N.space, M.space, M.space, {(0, 1): {1: 1}}),
        zero_bilmap(M.space, N.space, M.space),
    )
    return dsl_case("aas5", "AAs5", ("AAs5",), "action", a)


def case_aas6():
    M = alg(("m1", "m2", "m3"), {("m1", "m2"): {"m3": 1}})
    N = alg(("n",), {("n", "n"): {"n": 1}})
    a = AssocAction(
        N,
        M,
        zero_bilmap(N.space, M.space, M.space),
        bil(M.space, N.space, M.space, {(1, 0): {1: 1}}),
    )
    return dsl_case("aas6", "AAs6", ("AAs6",), "action", a)


def case_alie1():
    M = alg(("m1", "m2", "m3"))
    N = alg(("u", "v"))
    a = LieAction(
        N, M, bil(N.space, M.space, M.space, {(0, 0): {1: 1}, (1, 1): {2: 1}})
    )
    return dsl_case("alie1", "ALie1", ("ALie1",), "action", a)


def case_alie2():
    M = catalog("Heis3", F)
    N = alg(("n",))
    a = LieAction(N, M, bil(N.space, M.space, M.space, {(0, 2): {2: 1}}))
    return dsl_case("alie2", "ALie2", ("ALie2",), "action", a)


# ---------------------------------------------------------------------------
# crossed module cases


def case_xas1():
    M = alg(("m",))
    N = alg(("n",), {("n", "n"): {"n": 1}})
    x = XModAssoc(
        AssocAction(
            N,
            M,
            zero_bilmap(N.space, M.space, M.space),
            zero_bilmap(M.space, N.space, M.space),
        ),
        cols(M.space, N.space, [N.space.basis_vector(0)]),
    )
    return dsl_case("xas1", "XAs1", ("XAs1",), "xmod", x)


def case_xas2():
    M = alg(("m1", "m2"), {("m1", "m1"): {"m2": 1}})
    N = alg(("n",))
    x = XModAssoc(
        AssocAction(
            N,
            M,
            zero_bilmap(N.space, M.space, M.space),
            zero_bilmap(M.space, N.space, M.space),
        ),
        zero_map(M.space, N.space),
    )
    return dsl_case("xas2", "XAs2", ("XAs2",), "xmod", x)


def case_xlie1():
    M = alg(("m",))
    N = catalog("Heis3", F)
    x = XModLie(
        LieAction(N, M, zero_bilmap(N.space, M.space, M.space)),
        cols(M.space, N.space, [N.space.basis_vector(1)]),
    )
    return dsl_case("xlie1", "XLie1", ("XLie1",), "xmod", x)


def case_xlie2():
    M = catalog("Heis3", F)
    N = alg(("n",))
    x = XModLie(
        LieAction(N, M, zero_bilmap(N.space, M.space, M.space)),
        zero_map(M.space, N.space),
    )
    return dsl_case("xlie2", "XLie2", ("XLie2",), "xmod", x)


# ---------------------------------------------------------------------------
# braided crossed module cases (associative)


def _zero_assoc_xmod(M, N):
    return XModAssoc(
        AssocAction(
            N,
            M,
            zero_bilmap(N.space, M.space, M.space),
            zero_bilmap(M.space, N.space, M.space),
        ),
        zero_map(M.space, N.space),
    )


def case_bas1():
    M = alg(("m",))
    N = alg(("u", "v"), {("u", "u"): {"u": 1}, ("u", "v"): {"v": 1}})
    b = XBraiding(_zero_assoc_xmod(M, N), zero_bilmap(N.space, N.space, M.space))
    return dsl_case("bas1", "BAs1", ("BAs1",), "braiding", b)


def _bas34_base():
    M = alg(("m1", "m2"))
    N = alg(("u", "v"))
    x = XModAssoc(
        AssocAction(
            N,
            M,
            zero_bilmap(N.space, M.space, M.space),
            zero_bilmap(M.space, N.space, M.space),
        ),
        cols(M.space, N.space, [N.space.basis_vector(0), N.space.zero()]),
    )
    return x


def case_bas3():
    x = _bas34_base()
    b = XBraiding(x, bil(x.n.space, x.n.space, x.m.space, {(0, 1): {1: 1}}))
    return dsl_case("bas3", "BAs3", ("BAs3",), "braiding", b)


def case_bas4():
    x = _bas34_base()
    b = XBraiding(x, bil(x.n.space, x.n.space, x.m.space, {(1, 0): {1: 1}}))
    return dsl_case("bas4", "BAs4", ("BAs4",), "braiding", b)


def _bas56_base():
    M = alg(("m",))
    N = alg(
        ("u", "v"),
        {("u", "u"): {"u": 1}, ("u", "v"): {"v": 1}, ("v", "u"): {"v": 1}},
    )
    x = XModAssoc(
        AssocAction(
            N,
            M,
            bil(N.space, M.space, M.space, {(0, 0): {0: 1}}),
            bil(M.space, N.space, M.space, {(0, 0): {0: 1}}),
        ),
        zero_map(M.space, N.space),
    )
    return x


def case_bas5():
    x = _bas56_base()
    b = XBraiding(x, bil(x.n.space, x.n.space, x.m.space, {(1, 0): {0: 1}}))
    return dsl_case("bas5", "BAs5", ("BAs5",), "braiding", b)


def case_bas6():
    x = _bas56_base()
    b = XBraiding(x, bil(x.n.space, x.n.space, x.m.space, {(0, 1): {0: 1}}))
    return dsl_case("bas6", "BAs6", ("BAs6",), "braiding", b)


def case_bas2_demo():
    # BAs2 follows from BAs3 (and from BAs4) plus the Peiffer identity,
    # so its minimal failing sets contain BAs3 and BAs4.  Here N has a
    # one-dimensional product span, M = N + a central line k with d the
    # projection, and the brace picks up a k component on a slot no
    # product reaches; only BAs2/BAs3/BAs4 see it.
    N = alg(("u", "v", "w"), {("u", "v"): {"w": 1}})
    M = alg(("mu", "mv", "mw", "k"), {("mu", "mv"): {"mw": 1}})
    d = cols(
        M.space,
        N.space,
        [
            N.space.basis_vector(0),
            N.space.basis_vector(1),
            N.space.basis_vector(2),
            N.space.zero(),
        ],
    )
    emb = cols(
        N.space,
        M.space,
        [M.space.basis_vector(0), M.space.basis_vector(1), M.space.basis_vector(2)],
    )
    star1 = bilinear_from_rule(
        N.space,
        M.space,
        M.space,
        lambda i, j: emb.apply(N.mult.apply(N.space.basis_vector(i), d.column(j))),
    )
    star2 = bilinear_from_rule(
        M.space,
        N.space,
        M.space,
        lambda i, j: emb.apply(N.mult.apply(d.column(i), N.space.basis_vector(j))),
    )
    x = XModAssoc(AssocAction(N, M, star1, star2), d)

    def brace_rule(i, j):
        v = list(
            emb.apply(
                tuple(
                    F.sub(a, b)
                    for a, b in zip(N.mult.on_basis(i, j), N.mult.on_basis(j, i))
                )
            )
        )
        if i == 0 and j == 0:
            v[3] = ONE
        return tuple(v)

    b = XBraiding(x, bilinear_from_rule(N.space, N.space, M.space, brace_rule))
    return dsl_case(
        "bas2_demo",
        "BAs2",
        ("BAs2", "BAs3", "BAs4"),
        "braiding",
        b,
        note="BAs2 follows from BAs3 + XAs2 and from BAs4 + XAs2; "
        "{BAs2, BAs3, BAs4} is a minimal failing set.",
    )


# ---------------------------------------------------------------------------
# braided crossed module cases (Lie)


def _zero_lie_xmod(M, N):
    return XModLie(
        LieAction(N, M, zero_bilmap(N.space, M.space, M.space)),
        zero_map(M.space, N.space),
    )


def case_blie1():
    M = alg(("m",))
    N = catalog("Heis3", F)
    b = XBraiding(_zero_lie_xmod(M, N), zero_bilmap(N.space, N.space, M.space))
    return dsl_case("blie1", "BLie1", ("BLie1",), "braiding", b)


def _blie34_base():
    M = alg(("m1", "m2"))
    N = alg(("u", "v"))
    return XModLie(
        LieAction(N, M, zero_bilmap(N.space, M.space, M.space)),
        cols(M.space, N.space, [N.space.basis_vector(0), N.space.zero()]),
    )


def case_blie3():
    x = _blie34_base()
    b = XBraiding(x, bil(x.n.space, x.n.space, x.m.space, {(0, 1): {1: 1}}))
    return dsl_case("blie3", "BLie3", ("BLie3",), "braiding", b)


def case_blie4():
    x = _blie34_base()
    b = XBraiding(x, bil(x.n.space, x.n.space, x.m.space, {(1, 0): {1: 1}}))
    return dsl_case("blie4", "BLie4", ("BLie4",), "braiding", b)


def case_blie2_demo():
    # Lie analogue of bas2_demo: N = Heis3 has bracket span {z}, M adds
    # a central line k, the brace gains a k component on (x, x).
    N = catalog("Heis3", F)
    M = alg(
        ("mx", "my", "mz", "k"),
        {("mx", "my"): {"mz": 1}, ("my", "mx"): {"mz": -1}},
    )
    d = cols(
        M.space,
        N.space,
        [
            N.space.basis_vector(0),
            N.space.basis_vector(1),
            N.space.basis_vector(2),
            N.space.zero(),
        ],
    )
    emb = cols(
        N.space,
        M.space,
        [M.space.basis_vector(0), M.space.basis_vector(1), M.space.basis_vector(2)],
    )
    dot = bilinear_from_rule(
        N.space,
        M.space,
        M.space,
        lambda i, j: emb.apply(N.mult.apply(N.space.basis_vector(i), d.column(j))),
    )
    x = XModLie(LieAction(N, M, dot), d)

    def brace_rule(i, j):
        v = list(emb.apply(N.mult.on_basis(i, j)))
        if i == 0 and j == 0:
            v[3] = ONE
        return tuple(v)

    b = XBraiding(x, bilinear_from_rule(N.space, N.space, M.space, brace_rule))
    return dsl_case(
        "blie2_demo",
        "BLie2",
        ("BLie2", "BLie3", "BLie4"),
        "braiding",
        b,
        note="BLie2 follows from BLie3 + XLie2 and from BLie4 + XLie2; "
        "{BLie2, BLie3, BLie4} is a minimal failing set.",
    )


def case_blie56_demo():
    # BLie5 and BLie6 are consequences of BLie1-BLie4 over a field, so
    # they can only fail together with BLie3 or BLie4.  Perturbing the
    # tensor-square braiding of Heis3 by a kernel vector of the
    # boundary on the (x, z) slot fails exactly {BLie4, BLie5, BLie6}.
    b = tensor_braiding(tensor_square(catalog("Heis3", F)))
    kv = kernel(b.base.boundary).basis[0]
    mut = XBraiding(b.base, _perturbed(b.brace, kv, (0, 2)))
    return dsl_case(
        "blie56_demo",
        "BLie5",
        ("BLie4", "BLie5", "BLie6"),
        "braiding",
        mut,
        note="BLie5 and BLie6 follow from BLie1-BLie4 over a field; "
        "{BLie4, BLie5, BLie6} is a minimal failing set.",
    )


# ---------------------------------------------------------------------------
# internal category cases


def case_cat1():
    C1 = alg(("i", "u"), {("i", "i"): {"i": 1}})
    C0 = alg(("w",), {("w", "w"): {"w": 1}})
    t = cols(C1.space, C0.space, [C0.space.basis_vector(0), C0.space.zero()])
    s = cols(
        C1.space, C0.space, [C0.space.basis_vector(0), C0.space.basis_vector(0)]
    )
    e = cols(C0.space, C1.space, [C1.space.basis_vector(0)])
    c = CatAlgebra(C1, C0, s, t, e, ASSOC)
    return dsl_case("cat1", "Cat1", ("Cat1",), "cat", c)


def case_cat2():
    C1 = alg(("u", "v"))
    C0 = alg(("w",))
    s = cols(C1.space, C0.space, [C0.space.zero(), C0.space.basis_vector(0)])
    t = cols(C1.space, C0.space, [C0.space.basis_vector(0), C0.space.zero()])
    e = cols(C0.space, C1.space, [C1.space.basis_vector(0)])
    c = CatAlgebra(C1, C0, s, t, e, ASSOC)
    return dsl_case("cat2", "Cat2", ("Cat2",), "cat", c)


def case_cat3():
    C1 = alg(("u", "v", "i"), {("u", "u"): {"v": 1}, ("i", "i"): {"i": 1}})
    C0 = alg(("w",), {("w", "w"): {"w": 1}})
    st = cols(
        C1.space,
        C0.space,
        [C0.space.zero(), C0.space.zero(), C0.space.basis_vector(0)],
    )
    e = cols(C0.space, C1.space, [C1.space.basis_vector(2)])
    c = CatAlgebra(C1, C0, st, st, e, ASSOC)
    return dsl_case("cat3", "Cat3", ("Cat3",), "cat", c)


def case_cat4_demo():
    # With s e = t e = id, the identity laws and associativity of the
    # forced composition hold as formulas, so Cat4 can only fail when
    # Cat2 already does.
    C1 = alg(("u", "v"))
    C0 = alg(("w",))
    st = cols(C1.space, C0.space, [C0.space.basis_vector(0), C0.space.zero()])
    e = cols(C0.space, C1.space, [C1.space.basis_vector(1)])
    c = CatAlgebra(C1, C0, st, st, e, ASSOC)
    return dsl_case(
        "cat4_demo",
        "Cat4",
        ("Cat2", "Cat4"),
        "cat",
        c,
        note="Cat4 follows from Cat2 and the forced composition; "
        "{Cat2, Cat4} is a minimal failing set.",
    )


# ---------------------------------------------------------------------------
# braided categorical algebra cases


def case_ast1():
    a = catalog("Mat(2)", F)
    c = discrete_cat(a, ASSOC)
    tau = bilinear_from_rule(
        a.space, a.space, a.space, lambda i, j: a.mult.on_basis(j, i)
    )
    b = CatBraiding(c, tau)
    return dsl_case("ast1", "AsT1", ("AsT1",), "braiding", b)


def case_liet1():
    a = catalog("sl2", F)
    c = discrete_cat(a, LIE)
    tau = bilinear_from_rule(
        a.space, a.space, a.space, lambda i, j: a.mult.on_basis(j, i)
    )
    b = CatBraiding(c, tau)
    return dsl_case("liet1", "LieT1", ("LieT1",), "braiding", b)


def _heis_tensor_bar():
    """Bar construction on the braided tensor crossed module of Heis3.

    The categorical braiding is tau_{a,b} = (-2{a,b}, [a,b]): the N
    component gives s(tau) = [a,b] and the boundary of the M component
    shifts t(tau) to [b,a].
    """
    b = tensor_braiding(tensor_square(catalog("Heis3", F)))
    x = b.base
    cat, sd = _bar(x)
    total = sd.algebra.space
    minus_two = F.neg(F.add(ONE, ONE))

    def rule(i, j):
        return vadd(
            F,
            sd.incl_module.apply(vscale(F, minus_two, b.brace.on_basis(i, j))),
            sd.incl_actor.apply(x.n.mult.on_basis(i, j)),
        )

    tau = bilinear_from_rule(x.n.space, x.n.space, total, rule)
    stacked = from_columns(
        total,
        Space(F, tuple(f"w{i}" for i in range(2 * x.n.dim))),
        [cat.s.column(j) + cat.t.column(j) for j in range(total.dim)],
    )
    kv = kernel(stacked).basis[0]
    return cat, tau, kv


def _perturb_tau(cat, tau, kv, slot):
    return CatBraiding(cat, _perturbed(tau, kv, slot))


def case_lieb4_demo():
    cat, tau, kv = _heis_tensor_bar()
    b = _perturb_tau(cat, tau, kv, (0, 2))
    return dsl_case(
        "lieb4_demo",
        "LieB4",
        ("LieB4", "LieT2"),
        "braiding",
        b,
        note="LieB4 follows from LieT1 + LieT2 over a field; "
        "{LieB4, LieT2} is a minimal failing set.",
    )


def case_lieb3_demo():
    cat, tau, kv = _heis_tensor_bar()
    b = _perturb_tau(cat, tau, kv, (2, 2))
    return dsl_case(
        "lieb3_demo",
        "LieB3",
        ("LieB3", "LieB4", "LieT2"),
        "braiding",
        b,
        note="LieB3 follows from LieT1 + LieT2 over a field; this "
        "perturbation fails {LieB3, LieB4, LieT2}.",
    )


def case_liet34_demo():
    cat, tau, kv = _heis_tensor_bar()
    b = _perturb_tau(cat, tau, kv, (0, 2))
    return Case(
        "liet34_demo",
        "LieT3",
        ("LieT2", "LieT3", "LieT4"),
        lambda: validate_braiding_cat_lie_alt(b, "liet34_demo"),
        None,  # the CLI dispatches Lie categorical braidings elsewhere
        note="LieT3 and LieT4 follow from LieT1 + LieT2 over a field; "
        "{LieT2, LieT3, LieT4} is a minimal failing set.",
    )


# ---------------------------------------------------------------------------
# anticoherence cases (in-code: the CLI does not run this check)


def _heis_discrete_tau(entries):
    a = catalog("Heis3", F)
    c = discrete_cat(a, LIE)
    return CatBraiding(c, bil(a.space, a.space, a.space, entries))


def case_ac12_demo():
    b = _heis_discrete_tau({(0, 0): {0: 1}})
    return Case(
        "ac12_demo",
        "AC1",
        ("AC1", "AC2"),
        lambda: check_anticoherence(b, "ac12_demo"),
        None,
        note="Any two of AC1/AC2/AC3 imply the third, so the minimal "
        "failing sets are the pairs.",
    )


def case_ac13_demo():
    b = _heis_discrete_tau({(0, 2): {2: 1}})
    return Case(
        "ac13_demo",
        "AC3",
        ("AC1", "AC3"),
        lambda: check_anticoherence(b, "ac13_demo"),
        None,
        note="Any two of AC1/AC2/AC3 imply the third, so the minimal "
        "failing sets are the pairs.",
    )


def case_ac23_demo():
    b = _heis_discrete_tau({(2, 0): {2: 1}})
    return Case(
        "ac23_demo",
        "AC2",
        ("AC2", "AC3"),
        lambda: check_anticoherence(b, "ac23_demo"),
        None,
        note="Any two of AC1/AC2/AC3 imply the third, so the minimal "
        "failing sets are the pairs.",
    )


# ---------------------------------------------------------------------------
# morphism cases (in-code: the DSL has no morphism blocks)


def case_hom():
    M = alg(("m",))
    N = alg(("u", "v"), {("u", "u"): {"u": 1}})
    x = _zero_assoc_xmod(M, N)
    b = XBraiding(x, zero_bilmap(N.space, N.space, M.space))
    f2 = cols(N.space, N.space, [N.space.basis_vector(1), N.space.zero()])
    phi = XModMorphism(identity_map(M.space), f2)
    return Case(
        "hom",
        "Hom",
        ("Hom",),
        lambda: validate_braided_xmod_morphism(phi, b, b, "hom"),
    )


def case_xassh1():
    M = alg(("m",))
    N = alg(("n",), {("n", "n"): {"n": 1}})
    src = XBraiding(
        _zero_assoc_xmod(M, N), zero_bilmap(N.space, N.space, M.space)
    )
    tgt_x = XModAssoc(
        AssocAction(
            N,
            M,
            bil(N.space, M.space, M.space, {(0, 0): {0: 1}}),
            bil(M.space, N.space, M.space, {(0, 0): {0: 1}}),
        ),
        zero_map(M.space, N.space),
    )
    tgt = XBraiding(tgt_x, zero_bilmap(N.space, N.space, M.space))
    phi = XModMorphism(identity_map(M.space), identity_map(N.space))
    return Case(
        "xassh1",
        "XAssH1",
        ("XAssH1",),
        lambda: validate_braided_xmod_morphism(phi, src, tgt, "xassh1"),
    )


def case_xassh2():
    M = alg(("m",))
    N = alg(("n",))
    src = XBraiding(
        _zero_assoc_xmod(M, N), zero_bilmap(N.space, N.space, M.space)
    )
    tgt_x = XModAssoc(
        AssocAction(
            N,
            M,
            zero_bilmap(N.space, M.space, M.space),
            zero_bilmap(M.space, N.space, M.space),
        ),
        cols(M.space, N.space, [N.space.basis_vector(0)]),
    )
    tgt = XBraiding(tgt_x, zero_bilmap(N.space, N.space, M.space))
    phi = XModMorphism(identity_map(M.space), identity_map(N.space))
    return Case(
        "xassh2",
        "XAssH2",
        ("XAssH2",),
        lambda: validate_braided_xmod_morphism(phi, src, tgt, "xassh2"),
    )


def case_brh():
    M = alg(("m",))
    N = alg(("n",))
    x = _zero_assoc_xmod(M, N)
    src = XBraiding(x, zero_bilmap(N.space, N.space, M.space))
    tgt = XBraiding(x, bil(N.space, N.space, M.space, {(0, 0): {0: 1}}))
    phi = XModMorphism(identity_map(M.space), identity_map(N.space))
    return Case(
        "brh",
        "BrH",
        ("BrH",),
        lambda: validate_braided_xmod_morphism(phi, src, tgt, "brh"),
    )


def case_xlieh1():
    M = alg(("m",))
    N = alg(("n",))
    src = XBraiding(_zero_lie_xmod(M, N), zero_bilmap(N.space, N.space, M.space))
    tgt_x = XModLie(
        LieAction(N, M, bil(N.space, M.space, M.space, {(0, 0): {0: 1}})),
        zero_map(M.space, N.space),
    )
    tgt = XBraiding(tgt_x, zero_bilmap(N.space, N.space, M.space))
    phi = XModMorphism(identity_map(M.space), identity_map(N.space))
    return Case(
        "xlieh1",
        "XLieH1",
        ("XLieH1",),
        lambda: validate_braided_xmod_morphism(phi, src, tgt, "xlieh1"),
    )


def case_xlieh2():
    M = alg(("m",))
    N = alg(("n",))
    src = XBraiding(_zero_lie_xmod(M, N), zero_bilmap(N.space, N.space, M.space))
    tgt_x = XModLie(
        LieAction(N, M, zero_bilmap(N.space, M.space, M.space)),
        cols(M.space, N.space, [N.space.basis_vector(0)]),
    )
    tgt = XBraiding(tgt_x, zero_bilmap(N.space, N.space, M.space))
    phi = XModMorphism(identity_map(M.space), identity_map(N.space))
    return Case(
        "xlieh2",
        "XLieH2",
        ("XLieH2",),
        lambda: validate_braided_xmod_morphism(phi, src, tgt, "xlieh2"),
    )


# ---------------------------------------------------------------------------
# internal functor cases (in-code: the DSL has no functor blocks)


def case_ifh():
    a = catalog("Mat(2)", F)
    c = discrete_cat(a, ASSOC)
    b = CatBraiding(c, zero_bilmap(a.space, a.space, a.space))
    transpose = cols(
        a.space,
        a.space,
        [
            a.space.basis_vector(0),
            a.space.basis_vector(2),
            a.space.basis_vector(1),
            a.space.basis_vector(3),
        ],
    )
    return Case(
        "ifh",
        "IFH",
        ("IFH",),
        lambda: validate_braided_internal_functor(transpose, transpose, b, b, "ifh"),
    )


def case_ifc():
    a = alg(("u", "v"))
    c = discrete_cat(a, ASSOC)
    b = CatBraiding(c, zero_bilmap(a.space, a.space, a.space))
    f1 = identity_map(a.space)
    f0 = zero_map(a.space, a.space)
    return Case(
        "ifc",
        "IFC",
        ("IFC",),
        lambda: validate_braided_internal_functor(f1, f0, b, b, "ifc"),
    )


def case_ifb():
    a = alg(("u", "v"))
    c = discrete_cat(a, ASSOC)
    src = CatBraiding(c, zero_bilmap(a.space, a.space, a.space))
    tgt = CatBraiding(c, bil(a.space, a.space, a.space, {(0, 0): {1: 1}}))
    ident = identity_map(a.space)
    return Case(
        "ifb",
        "IFB",
        ("IFB",),
        lambda: validate_braided_internal_functor(ident, ident, src, tgt, "ifb"),
    )


# ---------------------------------------------------------------------------
# tensor square case (in-code: constructed objects only)


def case_tanti():
    a = catalog("sl2", F)
    amb = Space(F, tuple(f"{x}_{y}" for x in a.space.labels for y in a.space.labels))
    carrier = Algebra(amb, zero_bilmap(amb, amb, amb))
    pure = bilinear_from_rule(
        a.space,
        a.space,
        amb,
        lambda i, j: tuple(
            ONE if (x, y) == (i, j) else ZERO
            for x in range(a.dim)
            for y in range(a.dim)
        ),
    )
    ident = identity_map(amb)
    ts = TensorSquare(a, carrier, pure, Subspace.span(amb, []), ident, ident)
    return Case(
        "tanti",
        "TAnti",
        ("TAnti",),
        lambda: antisymmetry_consequence(ts, "tanti"),
    )


# ---------------------------------------------------------------------------
# group cases


def case_gract():
    C2 = cyclic(2)
    x = GroupXMod(C2, C2, ((0, 1), (0, 0)), (0, 0), None)
    return dsl_case("gract", "GrAct", ("GrAct",), "groupxmod", x)


def case_grhom():
    C2 = cyclic(2)
    x = GroupXMod(C2, C2, ((0, 1), (0, 1)), (1, 0), None)
    return dsl_case("grhom", "GrHom", ("GrHom",), "groupxmod", x)


def case_xgr1():
    C2 = cyclic(2)
    S3 = symmetric3()
    trivial = tuple(tuple(range(2)) for _ in range(6))
    transposition = next(
        i for i in range(6) if S3.mul(i, i) == S3.identity and i != S3.identity
    )
    x = GroupXMod(C2, S3, trivial, (S3.identity, transposition), None)
    return dsl_case("xgr1", "XGr1", ("XGr1",), "groupxmod", x)


def case_xgr2():
    C2 = cyclic(2)
    S3 = symmetric3()
    trivial = tuple(tuple(range(6)) for _ in range(2))

    def order(i):
        n, p = 1, i
        while p != S3.identity:
            p = S3.mul(p, i)
            n += 1
        return n

    parity = tuple(0 if order(i) in (1, 3) else 1 for i in range(6))
    x = GroupXMod(S3, C2, trivial, parity, None)
    return dsl_case("xgr2", "XGr2", ("XGr2",), "groupxmod", x)


def case_bgr1():
    C2 = cyclic(2)
    C4 = cyclic(4)
    trivial = tuple(tuple(range(2)) for _ in range(4))
    brace = tuple(tuple((h * h2) % 2 for h2 in range(4)) for h in range(4))
    x = GroupXMod(C2, C4, trivial, (0, 2), brace)
    return dsl_case("bgr1", "BGr1", ("BGr1",), "groupxmod", x)


def case_bgr2_demo():
    # BGr2 follows from BGr3 (and BGr4) + XGr2, so its minimal failing
    # sets contain both.  G = V4, H = C2 abelian, d the first
    # component, brace landing in ker d.
    V4 = klein_four()
    C2 = cyclic(2)
    trivial = tuple(tuple(range(4)) for _ in range(2))
    brace = ((0, 0), (0, 1))
    x = GroupXMod(V4, C2, trivial, (0, 0, 1, 1), brace)
    return dsl_case(
        "bgr2_demo",
        "BGr2",
        ("BGr2", "BGr3", "BGr4"),
        "groupxmod",
        x,
        note="BGr2 follows from BGr3 + XGr2 and from BGr4 + XGr2; "
        "{BGr2, BGr3, BGr4} is a minimal failing set.",
    )


def _v4_xor_xmod(brace):
    V4 = klein_four()
    trivial = tuple(tuple(range(4)) for _ in range(4))
    boundary = tuple(g & 1 for g in range(4))
    return GroupXMod(V4, V4, trivial, boundary, brace)


def case_bgr3():
    brace = tuple(
        tuple(2 if (h & 1) and (h2 & 2) else 0 for h2 in range(4)) for h in range(4)
    )
    x = _v4_xor_xmod(brace)
    return dsl_case("bgr3", "BGr3", ("BGr3",), "groupxmod", x)


def case_bgr4():
    brace = tuple(
        tuple(2 if (h & 2) and (h2 & 1) else 0 for h2 in range(4)) for h in range(4)
    )
    x = _v4_xor_xmod(brace)
    return dsl_case("bgr4", "BGr4", ("BGr4",), "groupxmod", x)


def case_bgr5():
    C2 = cyclic(2)
    V4 = klein_four()
    trivial = tuple(tuple(range(2)) for _ in range(4))
    brace = [[0] * 4 for _ in range(4)]
    brace[2][1] = 1
    brace[3][1] = 1
    x = GroupXMod(C2, V4, trivial, (0, 0), tuple(tuple(r) for r in brace))
    return dsl_case("bgr5", "BGr5", ("BGr5",), "groupxmod", x)


def case_bgr6():
    C2 = cyclic(2)
    V4 = klein_four()
    trivial = tuple(tuple(range(2)) for _ in range(4))
    brace = [[0] * 4 for _ in range(4)]
    brace[1][2] = 1
    brace[1][3] = 1
    x = GroupXMod(C2, V4, trivial, (0, 0), tuple(tuple(r) for r in brace))
    return dsl_case("bgr6", "BGr6", ("BGr6",), "groupxmod", x)


# ---------------------------------------------------------------------------
# registry


CASE_BUILDERS = (
    case_aas1,
    case_aas2,
    case_aas3,
    case_aas4,
    case_aas5,
    case_aas6,
    case_alie1,
    case_alie2,
    case_xas1,
    case_xas2,
    case_xlie1,
    case_xlie2,
    case_bas1,
    case_bas3,
    case_bas4,
    case_bas5,
    case_bas6,
    case_bas2_demo,
    case_blie1,
    case_blie3,
    case_blie4,
    case_blie2_demo,
    case_blie56_demo,
    case_cat1,
    case_cat2,
    case_cat3,
    case_cat4_demo,
    case_ast1,
    case_liet1,
    case_lieb3_demo,
    case_lieb4_demo,
    case_liet34_demo,
    case_ac12_demo,
    case_ac13_demo,
    case_ac23_demo,
    case_hom,
    case_xassh1,
    case_xassh2,
    case_brh,
    case_xlieh1,
    case_xlieh2,
    case_ifh,
    case_ifc,
    case_ifb,
    case_tanti,
    case_gract,
    case_grhom,
    case_xgr1,
    case_xgr2,
    case_bgr1,
    case_bgr2_demo,
    case_bgr3,
    case_bgr4,
    case_bgr5,
    case_bgr6,
)


# solver-derived fixtures regenerated by scripts/find_isolating_mutations.py
SOLVER_FIXTURES = (
    {
        "file": "ast2_fail.alg",
        "subject": "mut_ast2",
        "target": "AsT2",
        "expected_failing_tags": ["AsT2"],
    },
    {
        "file": "ast3_fail.alg",
        "subject": "mut_ast3",
        "target": "AsT3",
        "expected_failing_tags": ["AsT3"],
    },
    {
        "file": "ast4_fail.alg",
        "subject": "mut_ast4",
        "target": "AsT4",
        "expected_failing_tags": ["AsT4"],
    },
    {
        "file": "liet2_fail.alg",
        "subject": "mut_liet2",
        "target": "LieT2",
        "expected_failing_tags": ["LieT2"],
    },
)


def all_cases():
    return [build() for build in CASE_BUILDERS]


def main():
    outdir = os.path.join(os.path.dirname(__file__), "..", "fixtures", "mutations")
    os.makedirs(outdir, exist_ok=True)
    manifest = []
    bad = 0
    for case in all_cases():
        got = tuple(sorted(set(case.report().failing_tags())))
        status = "ok" if got == case.expected else "MISMATCH"
        if status != "ok":
            bad += 1
        print(f"{case.name:14s} expected {list(case.expected)} got {list(got)} {status}")
        if case.doc is None:
            continue
        fname = f"{case.name}.alg"
        text = print_document(parse(case.doc()))
        with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
        entry = {
            "file": fname,
            "subject": case.name,
            "target": case.target,
            "expected_failing_tags": list(case.expected),
        }
        if case.note:
            entry["note"] = case.note
        manifest.append(entry)
    for entry in SOLVER_FIXTURES:
        if not os.path.exists(os.path.join(outdir, entry["file"])):
            raise SystemExit(
                f"{entry['file']} is missing; run scripts/find_isolating_mutations.py"
            )
        manifest.append(dict(entry))
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(manifest)} manifest entries")
    if bad:
        raise SystemExit(f"{bad} case(s) mismatched")


if __name__ == "__main__":
    main()
