#!/usr/bin/env python3
"""Regenerate fixtures/mutations/ and its manifest.

Each case perturbs one ingredient of an otherwise well-formed structure
so that validation fails on a controlled set of axiom tags.  Wherever a
tag admits a counterexample violating it alone, the case isolates that
tag exactly.  Some tags are consequences of the remaining axioms of
their validator, so no input can fail them in isolation; those cases
carry a note and document a minimal failing set containing the tag
instead.

Cases expressible in the DSL are validated by the validator of their
block kind in `dsl.BLOCK_KINDS` and written to fixtures/mutations/
together with manifest.json (`manifest()` returns its entries).  The
rest (morphism and internal functor mutations, anticoherence, the tensor
antisymmetry check, and validators no block kind uses) carry their own
report and are only checked by the test suite.

The last cases are derived, not written by hand.  Every braiding axiom
is affine in the brace or tau once the base is fixed, so for a target
tag `search` solves "every other law of the validator's law table
holds" (`braid.braiding_space`) on a list of candidate bases and keeps
the first braiding that fails the target.  Its hits are written as
{tag}_fail.alg with the subject mut_{tag}.

Run from the repository root:  python3 scripts/make_mutations.py
"""

import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from braidalg.action import AssocAction, LieAction, zero_action_assoc, zero_action_lie
from braidalg.algebra import Algebra, catalog, from_constants
from braidalg.braid import (
    CatBraiding,
    XBraiding,
    _bar,
    braiding_cat_assoc_laws,
    braiding_cat_lie_alt_laws,
    braiding_cat_lie_ulualan_laws,
    braiding_space,
    braiding_system,
    braiding_xmod_lie_laws,
    bracket_braiding,
    check_anticoherence,
    commutator_braiding,
    cx_functor,
    validate_braided_internal_functor,
    validate_braided_xmod_morphism,
    validate_braiding_cat_lie_alt,
)
from braidalg.dsl import BLOCK_KINDS, _print_object
from braidalg.fields import QQ
from braidalg.groupx import GroupXMod, cyclic, klein_four, symmetric3
from braidalg.icat import ASSOC, LIE, CatAlgebra, cat_liefy, discrete_cat
from braidalg.linear import (
    Space,
    Subspace,
    bilinear_from_rule,
    concat,
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
from braidalg.report import sweep
from braidalg.xmod import XModAssoc, XModLie, XModMorphism

F = QQ


# ---------------------------------------------------------------------------
# bases, shared by the hand-written cases and the solver


def alg(labels, prods=None, field=F):
    return from_constants(Space(field, tuple(labels)), prods or {})


def bil(left, right, cod, entries):
    """BilMap from {(i, j): {k: scalar}} on basis indices."""

    def rule(i, j):
        image = sorted((k, cod.field.of(c)) for k, c in entries.get((i, j), {}).items())
        return tuple((k, c) for k, c in image if c)

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


# The braided tensor crossed module of Heis3 and its bar construction are
# built once per run and field.
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


@functools.cache
def lie_degenerate_bars(field):
    """Bar constructions of valid Lie crossed modules, as (name,
    categorical algebra) pairs, on which the suite compares the two Lie
    braiding lists.  Only the last carries a braiding over Q."""
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


# ---------------------------------------------------------------------------
# cases


def _perturbed(bm, kv, slot):
    """bm with kv added to its value on the basis pair `slot`."""

    def rule(i, j):
        v = bm.on_basis(i, j)
        return vadd(F, v, kv) if (i, j) == slot else v

    return bilinear_from_rule(bm.left, bm.right, bm.codomain, rule)


def _braced(x, entries):
    """The crossed module `x` with the brace `bil` builds from `entries`."""
    return XBraiding(x, bil(x.n.space, x.n.space, x.m.space, entries))


@dataclass(frozen=True)
class Case:
    name: str  # DSL subject name, and fixture stem unless `stem` is set
    target: str  # the tag the case is about
    expected: tuple  # exact failing tags of the subject report
    report: Callable  # () -> ValidationReport for the subject
    doc: Optional[Callable] = None  # () -> DSL text, subject named `name`
    note: str = ""  # set when the target cannot fail alone
    stem: str = ""

    @property
    def file(self):
        return f"{self.stem or self.name}.alg"


def dsl_case(target, kind, obj, name="", expected=(), note="", stem=""):
    """A case on the block `name` of kind `kind`: the validator of its kind
    in `dsl.BLOCK_KINDS` reports on it and the DSL prints it.  By default the block is named
    after the target in lower case and fails the target alone."""
    name = name or target.lower()
    return Case(
        name,
        target,
        expected or (target,),
        lambda: BLOCK_KINDS[kind].validate(obj, name),
        lambda: _print_object(F, kind, obj, name),
        note,
        stem,
    )


def code_case(target, validate, *args, name="", expected=(), note=""):
    """A case with no DSL document: `validate(*args, name)` reports on it.
    The defaults are those of `dsl_case`."""
    name = name or target.lower()
    return Case(
        name, target, expected or (target,), lambda: validate(*args, name), None, note
    )


# ---------------------------------------------------------------------------
# action and crossed module cases


def action_and_xmod_cases():
    m, n = alg(("m",)), alg(("n",))
    unit = alg(("n",), {("n", "n"): {"n": 1}})
    square = alg(("m1", "m2"), {("m1", "m1"): {"m2": 1}})
    m3 = alg(("m1", "m2", "m3"))
    m3prod = alg(("m1", "m2", "m3"), {("m1", "m2"): {"m3": 1}})
    heis = catalog("Heis3", F)

    def assoc(tag, m, n, star1, star2):
        """The action of `n` on `m` with the stars `bil` builds from the
        entries `star1` and `star2`."""
        a = AssocAction(
            n,
            m,
            bil(n.space, m.space, m.space, star1),
            bil(m.space, n.space, m.space, star2),
        )
        return dsl_case(tag, "action", a)

    yield assoc("AAs1", square, unit, {(0, 1): {1: 1}}, {})
    yield assoc("AAs2", m3, n, {(0, 0): {1: 1}}, {(1, 0): {2: 1}})
    yield assoc("AAs3", m, n, {(0, 0): {0: 1}}, {})
    yield assoc("AAs4", m, n, {}, {(0, 0): {0: 1}})
    yield assoc("AAs5", m3prod, unit, {(0, 1): {1: 1}}, {})
    yield assoc("AAs6", m3prod, unit, {}, {(1, 0): {1: 1}})
    uv = alg(("u", "v"))
    dot = bil(uv.space, m3.space, m3.space, {(0, 0): {1: 1}, (1, 1): {2: 1}})
    yield dsl_case("ALie1", "action", LieAction(uv, m3, dot))
    dot = bil(n.space, heis.space, heis.space, {(0, 2): {2: 1}})
    yield dsl_case("ALie2", "action", LieAction(n, heis, dot))

    d = from_columns(m.space, unit.space, [unit.space.basis_vector(0)])
    yield dsl_case("XAs1", "xmod", XModAssoc(zero_action_assoc(unit, m), d))
    yield dsl_case("XAs2", "xmod", zero_xmod(n, square))
    d = from_columns(m.space, heis.space, [heis.space.basis_vector(1)])
    yield dsl_case("XLie1", "xmod", XModLie(zero_action_lie(heis, m), d))
    yield dsl_case("XLie2", "xmod", zero_xmod(n, heis, lie=True))


# ---------------------------------------------------------------------------
# braided crossed module cases


def _central_extension(n, lie):
    """A braiding on M = N + k, a central line k added to the 3-dimensional
    `n`, with d the projection and N acting through d.  The brace is the
    commutator of `n` (its bracket if `lie`) plus a k component on (b_0,
    b_0), a slot no product reaches: only the BAs2-4 or BLie2-4 laws see
    it."""
    sp = Space(F, tuple("m" + label for label in n.space.labels) + ("k",))
    d = from_columns(sp, n.space, n.space.basis() + [n.space.zero()])
    emb = from_columns(n.space, sp, sp.basis()[:3])
    nb, dc = n.space.basis_vector, d.column

    def into_m(left, u, right, v):
        """The bilinear map left x right -> M, (i, j) -> emb(u(i) v(j))."""

        def rule(i, j):
            return emb.apply(n.mult.apply(u(i), v(j)))

        return bilinear_from_rule(left, right, sp, rule)

    m = Algebra(sp, into_m(sp, dc, sp, dc))
    if lie:
        x = XModLie(LieAction(n, m, into_m(n.space, nb, sp, dc)), d)
        bracket = n.mult
    else:
        star1, star2 = into_m(n.space, nb, sp, dc), into_m(sp, dc, n.space, nb)
        x = XModAssoc(AssocAction(n, m, star1, star2), d)
        bracket = n.mult.sub(n.mult.swapped())
    brace = bilinear_from_rule(
        n.space, n.space, sp, lambda i, j: emb.apply(bracket.on_basis(i, j))
    )
    return XBraiding(x, _perturbed(brace, sp.basis_vector(3), (0, 0)))


def xmod_braiding_cases(bases):
    """`bases`: the degenerate associative crossed modules by name."""
    ker, idact = bases["ker"], bases["idact"]
    yield dsl_case("BAs1", "braiding", zero_braiding(bases["noncomm"]))
    yield dsl_case("BAs3", "braiding", _braced(ker, {(0, 1): {1: 1}}))
    yield dsl_case("BAs4", "braiding", _braced(ker, {(1, 0): {1: 1}}))
    yield dsl_case("BAs5", "braiding", _braced(idact, {(1, 0): {0: 1}}))
    yield dsl_case("BAs6", "braiding", _braced(idact, {(0, 1): {0: 1}}))
    # BAs2 follows from BAs3 (and from BAs4) plus the Peiffer identity,
    # so its minimal failing sets contain BAs3 and BAs4.
    yield dsl_case(
        "BAs2",
        "braiding",
        _central_extension(alg(("u", "v", "w"), {("u", "v"): {"w": 1}}), False),
        name="bas2_demo",
        expected=("BAs2", "BAs3", "BAs4"),
        note="BAs2 follows from BAs3 + XAs2 and from BAs4 + XAs2; "
        "{BAs2, BAs3, BAs4} is a minimal failing set.",
    )

    heis = catalog("Heis3", F)
    x = zero_xmod(heis, alg(("m",)), lie=True)
    yield dsl_case("BLie1", "braiding", zero_braiding(x))
    lie_ker = XModLie(zero_action_lie(ker.n, ker.m), ker.boundary)
    yield dsl_case("BLie3", "braiding", _braced(lie_ker, {(0, 1): {1: 1}}))
    yield dsl_case("BLie4", "braiding", _braced(lie_ker, {(1, 0): {1: 1}}))
    yield dsl_case(
        "BLie2",
        "braiding",
        _central_extension(heis, True),
        name="blie2_demo",
        expected=("BLie2", "BLie3", "BLie4"),
        note="BLie2 follows from BLie3 + XLie2 and from BLie4 + XLie2; "
        "{BLie2, BLie3, BLie4} is a minimal failing set.",
    )
    # BLie5 and BLie6 are consequences of BLie1-BLie4 over a field, so
    # they can only fail together with BLie3 or BLie4.  Perturbing the
    # tensor-square braiding of Heis3 by a kernel vector of the
    # boundary on the (x, z) slot fails exactly {BLie4, BLie5, BLie6}.
    b = heis3_tensor(F)
    kv = kernel(b.base.boundary).basis[0]
    yield dsl_case(
        "BLie5",
        "braiding",
        XBraiding(b.base, _perturbed(b.brace, kv, (0, 2))),
        name="blie56_demo",
        expected=("BLie4", "BLie5", "BLie6"),
        note="BLie5 and BLie6 follow from BLie1-BLie4 over a field; "
        "{BLie4, BLie5, BLie6} is a minimal failing set.",
    )


# ---------------------------------------------------------------------------
# internal category cases


def cat_cases():
    def cat(c1, c0, s, t, e):
        """The associative categorical algebra with s, t, e given by
        their columns."""
        return CatAlgebra(
            c1,
            c0,
            from_columns(c1.space, c0.space, s),
            from_columns(c1.space, c0.space, t),
            from_columns(c0.space, c1.space, e),
            ASSOC,
        )

    w1 = alg(("w",), {("w", "w"): {"w": 1}})
    w0, uv = alg(("w",)), alg(("u", "v"))
    w, o = w1.space.basis_vector(0), w1.space.zero()
    c1 = alg(("i", "u"), {("i", "i"): {"i": 1}})
    yield dsl_case("Cat1", "cat", cat(c1, w1, [w, w], [w, o], c1.space.basis()[:1]))
    yield dsl_case("Cat2", "cat", cat(uv, w0, [o, w], [w, o], uv.space.basis()[:1]))
    c1 = alg(("u", "v", "i"), {("u", "u"): {"v": 1}, ("i", "i"): {"i": 1}})
    st = [o, o, w]
    yield dsl_case("Cat3", "cat", cat(c1, w1, st, st, c1.space.basis()[2:]))
    # With s e = t e = id, the identity laws and associativity of the
    # forced composition hold as formulas, so Cat4 can only fail when
    # Cat2 already does.
    yield dsl_case(
        "Cat4",
        "cat",
        cat(uv, w0, [w, o], [w, o], uv.space.basis()[1:]),
        name="cat4_demo",
        expected=("Cat2", "Cat4"),
        note="Cat4 follows from Cat2 and the forced composition; "
        "{Cat2, Cat4} is a minimal failing set.",
    )


# ---------------------------------------------------------------------------
# braided categorical algebra and anticoherence cases


def cat_braiding_cases():
    for tag, a, flavor in (
        ("AsT1", catalog("Mat(2)", F), ASSOC),
        ("LieT1", catalog("sl2", F), LIE),
    ):
        b = CatBraiding(discrete_cat(a, flavor), a.mult.swapped())
        yield dsl_case(tag, "braiding", b)

    # The bar construction on the braided tensor crossed module of Heis3
    # with tau_{a,b} = (-2{a,b}, [a,b]): the N component gives
    # s(tau) = [a,b] and the boundary of the M component shifts t(tau)
    # to [b,a].  tau is perturbed by kv, a vector of ker s and of ker t.
    b = heis3_tensor(F)
    x = b.base
    cat, sd = heis3_tensor_bar(F)
    total = sd.algebra.space

    def rule(i, j):
        return vadd(
            F,
            sd.incl_module.apply(vscale(F, F.of(-2), b.brace.on_basis(i, j))),
            sd.incl_actor.apply(x.n.mult.on_basis(i, j)),
        )

    tau = bilinear_from_rule(x.n.space, x.n.space, total, rule)
    n = x.n.dim
    cols = (concat([(cat.s.column(j), n), (cat.t.column(j), n)]) for j in range(total.dim))
    stacked = from_columns(total, Space(F, tuple(f"w{i}" for i in range(2 * n))), cols)
    kv = kernel(stacked).basis[0]
    xz = CatBraiding(cat, _perturbed(tau, kv, (0, 2)))
    yield dsl_case(
        "LieB3",
        "braiding",
        CatBraiding(cat, _perturbed(tau, kv, (2, 2))),
        name="lieb3_demo",
        expected=("LieB3", "LieB4", "LieT2"),
        note="LieB3 follows from LieT1 + LieT2 over a field; this "
        "perturbation fails {LieB3, LieB4, LieT2}.",
    )
    yield dsl_case(
        "LieB4",
        "braiding",
        xz,
        name="lieb4_demo",
        expected=("LieB4", "LieT2"),
        note="LieB4 follows from LieT1 + LieT2 over a field; "
        "{LieB4, LieT2} is a minimal failing set.",
    )
    # the CLI dispatches Lie categorical braidings to the other validator
    yield code_case(
        "LieT3",
        validate_braiding_cat_lie_alt,
        xz,
        name="liet34_demo",
        expected=("LieT2", "LieT3", "LieT4"),
        note="LieT3 and LieT4 follow from LieT1 + LieT2 over a field; "
        "{LieT2, LieT3, LieT4} is a minimal failing set.",
    )

    # anticoherence (in-code: the CLI does not run this check)
    heis = catalog("Heis3", F)
    c = discrete_cat(heis, LIE)
    for name, target, expected, entries in (
        ("ac12_demo", "AC1", ("AC1", "AC2"), {(0, 0): {0: 1}}),
        ("ac13_demo", "AC3", ("AC1", "AC3"), {(0, 2): {2: 1}}),
        ("ac23_demo", "AC2", ("AC2", "AC3"), {(2, 0): {2: 1}}),
    ):
        tau = bil(heis.space, heis.space, heis.space, entries)
        yield code_case(
            target,
            check_anticoherence,
            CatBraiding(c, tau),
            name=name,
            expected=expected,
            note="Any two of AC1/AC2/AC3 imply the third, so the minimal "
            "failing sets are the pairs.",
        )


# ---------------------------------------------------------------------------
# morphism, internal functor and tensor square cases (in-code: the DSL
# has no morphism or functor blocks, and the tensor square is constructed)


def morphism_cases():
    m, n, uv = alg(("m",)), alg(("n",)), alg(("u", "v"))
    unit = alg(("n",), {("n", "n"): {"n": 1}})
    ident = XModMorphism(identity_map(m.space), identity_map(n.space))
    uu = alg(("u", "v"), {("u", "u"): {"u": 1}})
    b = zero_braiding(zero_xmod(uu, m))
    f2 = from_columns(uu.space, uu.space, [uu.space.basis_vector(1), uu.space.zero()])
    # n acting on m as the identity, from either side
    left = bil(n.space, m.space, m.space, {(0, 0): {0: 1}})
    right = bil(m.space, n.space, m.space, {(0, 0): {0: 1}})
    zero_d = zero_map(m.space, n.space)
    d = from_columns(m.space, n.space, n.space.basis())
    zero_n, zero_n_lie = zero_xmod(n, m), zero_xmod(n, m, lie=True)
    for tag, phi, src, tgt in (
        ("Hom", XModMorphism(identity_map(m.space), f2), b, b),
        (
            "XAssH1",
            ident,
            zero_braiding(zero_xmod(unit, m)),
            zero_braiding(XModAssoc(AssocAction(unit, m, left, right), zero_d)),
        ),
        (
            "XAssH2",
            ident,
            zero_braiding(zero_n),
            zero_braiding(XModAssoc(zero_action_assoc(n, m), d)),
        ),
        ("BrH", ident, zero_braiding(zero_n), _braced(zero_n, {(0, 0): {0: 1}})),
        (
            "XLieH1",
            ident,
            zero_braiding(zero_n_lie),
            zero_braiding(XModLie(LieAction(n, m, left), zero_d)),
        ),
        (
            "XLieH2",
            ident,
            zero_braiding(zero_n_lie),
            zero_braiding(XModLie(zero_action_lie(n, m), d)),
        ),
    ):
        yield code_case(tag, validate_braided_xmod_morphism, phi, src, tgt)

    mat2 = catalog("Mat(2)", F)
    b = zero_braiding(discrete_cat(mat2, ASSOC))
    e = mat2.space.basis()
    transpose = from_columns(mat2.space, mat2.space, [e[0], e[2], e[1], e[3]])
    b_uv = zero_braiding(discrete_cat(uv, ASSOC))
    tau = bil(uv.space, uv.space, uv.space, {(0, 0): {1: 1}})
    id_uv = identity_map(uv.space)
    for tag, f1, f0, src, tgt in (
        ("IFH", transpose, transpose, b, b),
        ("IFC", id_uv, zero_map(uv.space, uv.space), b_uv, b_uv),
        ("IFB", id_uv, id_uv, b_uv, CatBraiding(b_uv.base, tau)),
    ):
        yield code_case(tag, validate_braided_internal_functor, f1, f0, src, tgt)

    a = catalog("sl2", F)
    carrier = alg(f"{x}_{y}" for x in a.space.labels for y in a.space.labels)
    amb = carrier.space
    pure = bilinear_from_rule(
        a.space, a.space, amb, lambda i, j: amb.basis_vector(i * a.dim + j)
    )
    id_amb = identity_map(amb)
    ts = TensorSquare(a, carrier, pure, Subspace.span(amb, []), id_amb, id_amb)
    yield code_case("TAnti", antisymmetry_consequence, ts)


# ---------------------------------------------------------------------------
# group cases


def group_cases():
    C2, C4, S3, V4 = cyclic(2), cyclic(4), symmetric3(), klein_four()

    def trivial(g, h):
        """The trivial action of `g` on `h`."""
        return tuple(tuple(range(h.order)) for _ in range(g.order))

    x = GroupXMod(C2, C2, ((0, 1), (0, 0)), (0, 0), None)
    yield dsl_case("GrAct", "groupxmod", x)
    x = GroupXMod(C2, C2, ((0, 1), (0, 1)), (1, 0), None)
    yield dsl_case("GrHom", "groupxmod", x)
    transposition = next(
        i for i in range(6) if S3.mul(i, i) == S3.identity and i != S3.identity
    )
    x = GroupXMod(C2, S3, trivial(S3, C2), (S3.identity, transposition), None)
    yield dsl_case("XGr1", "groupxmod", x)

    def order(i):
        n, p = 1, i
        while p != S3.identity:
            p = S3.mul(p, i)
            n += 1
        return n

    parity = tuple(0 if order(i) in (1, 3) else 1 for i in range(6))
    x = GroupXMod(S3, C2, trivial(C2, S3), parity, None)
    yield dsl_case("XGr2", "groupxmod", x)
    brace = tuple(tuple((h * h2) % 2 for h2 in range(4)) for h in range(4))
    x = GroupXMod(C2, C4, trivial(C4, C2), (0, 2), brace)
    yield dsl_case("BGr1", "groupxmod", x)
    # BGr2 follows from BGr3 (and BGr4) + XGr2, so its minimal failing
    # sets contain both.  G = V4, H = C2 abelian, d the first
    # component, brace landing in ker d.
    yield dsl_case(
        "BGr2",
        "groupxmod",
        GroupXMod(V4, C2, trivial(C2, V4), (0, 0, 1, 1), ((0, 0), (0, 1))),
        name="bgr2_demo",
        expected=("BGr2", "BGr3", "BGr4"),
        note="BGr2 follows from BGr3 + XGr2 and from BGr4 + XGr2; "
        "{BGr2, BGr3, BGr4} is a minimal failing set.",
    )
    # V4 on itself, d keeping the first bit, and a brace of 2 on the pairs
    # with bit p on the left and bit q on the right
    for tag, p, q in (("BGr3", 1, 2), ("BGr4", 2, 1)):
        brace = tuple(
            tuple(2 if (h & p) and (h2 & q) else 0 for h2 in range(4)) for h in range(4)
        )
        boundary = tuple(g & 1 for g in range(4))
        x = GroupXMod(V4, V4, trivial(V4, V4), boundary, brace)
        yield dsl_case(tag, "groupxmod", x)
    # V4 on C2 with trivial boundary, a brace of 1 on two pairs
    for tag, pairs in (("BGr5", ((2, 1), (3, 1))), ("BGr6", ((1, 2), (1, 3)))):
        brace = tuple(tuple(int((h, h2) in pairs) for h2 in range(4)) for h in range(4))
        x = GroupXMod(C2, V4, trivial(V4, C2), (0, 0), brace)
        yield dsl_case(tag, "groupxmod", x)


# ---------------------------------------------------------------------------
# isolating braidings, derived from the validators' law tables


def isolate(cache, name, b, laws, target):
    """A braiding on `b.base` that satisfies every law of `laws` except
    those tagged `target`, and fails `target`; None if there is none.

    `cache` keeps the `braiding_system` of each candidate `name`, one tag
    at a time: a tag names the same law in every table that holds it.
    """
    tags = dict.fromkeys(law[0] for law in laws(b))
    system = cache.setdefault(name, {})
    new = [tag for tag in tags if tag not in system]
    if new:
        system.update(
            braiding_system(b, lambda o: [law for law in laws(o) if law[0] in new])
        )
    for mut in braiding_space(b, system, [tag for tag in tags if tag != target]) or ():
        if not all(sweep(*law).ok for law in laws(mut) if law[0] == target):
            return mut
    return None


def cat_assoc_candidates():
    for name, x in degenerate_xmods():
        yield name + "cx", zero_braiding(_bar(x)[0])
    yield "upper2cx", cx_functor(commutator_braiding(catalog("Upper(2)", F)))
    yield "mat2cx", cx_functor(commutator_braiding(catalog("Mat(2)", F)))


def cat_lie_candidates(assoc):
    """The Heis3 tensor bar, then the Lie-fied bases of `assoc`, the
    associative candidates.  The other bars of `lie_degenerate_bars` have
    zero boundary, so s = t, and LieT1 leaves them no tau over Q."""
    yield "heisTbar", zero_braiding(heis3_tensor_bar(F)[0])
    for name, b in assoc:
        yield name + "lie", zero_braiding(cat_liefy(b.base))


def xmod_lie_candidates():
    yield "sl2T", tensor_braiding(tensor_square(catalog("sl2", F)))
    yield "heis3T", heis3_tensor(F)
    yield "gl2id", bracket_braiding(catalog("gl2", F))


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


@functools.cache
def search():
    """For each target tag, the first candidate with an isolating braiding
    as (candidate name, braiding), or None; computed once per process."""
    cache, found = {}, {}
    for laws, candidates, targets in families():
        for target in targets:
            found[target] = None
            for name, b in candidates:
                mut = isolate(cache, name, b, laws, target)
                if mut is not None:
                    found[target] = (name, mut)
                    break
    return found


def solver_cases():
    for target, hit in search().items():
        if hit is not None:
            tag = target.lower()
            yield dsl_case(
                target, "braiding", hit[1], name=f"mut_{tag}", stem=f"{tag}_fail"
            )


# ---------------------------------------------------------------------------
# registry


def all_cases():
    bases = dict(degenerate_xmods())
    return [
        *action_and_xmod_cases(),
        *xmod_braiding_cases(bases),
        *cat_cases(),
        *cat_braiding_cases(),
        *morphism_cases(),
        *group_cases(),
        *solver_cases(),
    ]


def manifest():
    """The manifest entries: one per case with a DSL document, in case order."""
    entries = []
    for case in all_cases():
        if case.doc is None:
            continue
        entry = {
            "file": case.file,
            "subject": case.name,
            "target": case.target,
            "expected_failing_tags": list(case.expected),
        }
        if case.note:
            entry["note"] = case.note
        entries.append(entry)
    return entries


def main():
    outdir = os.path.join(os.path.dirname(__file__), "..", "fixtures", "mutations")
    os.makedirs(outdir, exist_ok=True)
    bad = 0
    for case in all_cases():
        got = tuple(sorted(set(case.report().failing_tags())))
        status = "ok" if got == case.expected else "MISMATCH"
        if status != "ok":
            bad += 1
        print(f"{case.name:14s} expected {list(case.expected)} got {list(got)} {status}")
        if case.doc is not None:
            with open(os.path.join(outdir, case.file), "w", encoding="utf-8") as fh:
                fh.write(case.doc())
    entries = manifest()
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(entries)} manifest entries")
    if bad:
        raise SystemExit(f"{bad} case(s) mismatched")


if __name__ == "__main__":
    main()
