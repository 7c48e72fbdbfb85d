"""Each checked entry's gates: what it refuses, with which exception, message
and report, and the message of each theorem check it asserts."""

import ast
import glob
import os

import pytest

from braidalg import braid
from braidalg.action import (
    AssocAction,
    LieAction,
    adjoint_action,
    induced_lie_action,
    self_action,
    semidirect_assoc,
    semidirect_lie,
    validate_assoc_action,
    validate_lie_action,
    zero_action_assoc,
    zero_action_lie,
)
from braidalg.algebra import ASSOC, LIE, Algebra, catalog
from braidalg.braid import (
    CatBraiding,
    XBraiding,
    alpha_iso,
    beta_iso,
    bracket_braiding,
    cat_braiding_liefy,
    commutator_braiding,
    cx_functor,
    validate_braiding_cat_assoc,
    validate_braiding_xmod_assoc,
    xc_functor,
    xmod_braiding_liefy,
)
from braidalg.cli import main
from braidalg.dsl import parse, print_catbraiding_doc, print_xbraiding_doc
from braidalg.errors import (
    InternalInvariantViolation,
    InvalidAction,
    InvalidCatAlgebra,
    InvalidInput,
    InvalidXMod,
    NotAssociative,
    NotLie,
    SignatureMismatch,
    UnknownFixture,
)
from braidalg.fields import QQ
from braidalg.groupx import (
    GroupXMod,
    conjugation_example,
    group_catalog,
    validate_group_braiding,
)
from braidalg.icat import CatAlgebra, discrete_cat, require_valid_cat, validate_cat_algebra
from braidalg.linear import (
    Bil,
    Lin,
    Space,
    Subspace,
    b0,
    b1,
    bilinear_from_rule,
    bilinear_from_term,
    from_columns,
    identity_map,
    linear_from_term,
    vadd,
    zero_bilmap,
    zero_map,
)
from braidalg.report import AxiomCheck, Witness, merge
from braidalg.xmod import (
    XMod,
    XModMorphism,
    identity_xmod_assoc,
    identity_xmod_lie,
    require_valid_xmod_assoc,
    require_valid_xmod_lie,
    validate_xmod_assoc,
    validate_xmod_lie,
    validate_xmod_morphism,
    xmod_liefy,
)

from conftest import MUTATIONS, ROOT, SCRIPTS

MAT2 = catalog("Mat(2)", QQ)
SL2 = catalog("sl2", QQ)
AB1 = catalog("Ab(1)", QQ)
AB2 = catalog("Ab(2)", QQ)
HEIS3 = catalog("Heis3", QQ)


def _zero_brace(x):
    return XBraiding(x, zero_bilmap(x.n.space, x.n.space, x.m.space))


def _twice_identity(a):
    # x -> 2x is not multiplicative on Mat(2) or sl2
    ident = Lin(identity_map(a.space), b0)
    return linear_from_term(a.space, a.space, ident + ident)


def _mutated_cat():
    with open(os.path.join(MUTATIONS, "cat1.alg"), encoding="utf-8") as fh:
        return parse(fh.read()).lookup("cat1")[1]


# an action whose products all vanish passes every axiom, so these are
# refused for their actor alone, and the refusal carries a passing report
ASSOC_OVER_SL2 = zero_action_assoc(SL2, AB1)
LIE_OVER_MAT2 = zero_action_lie(MAT2, AB1)
# n *1 m = nm, m *2 n = 0 breaks AAs5: m(n *1 m') = mnm' but (m *2 n)m' = 0
HALF_SELF_ACTION = AssocAction(MAT2, MAT2, MAT2.mult, zero_bilmap(*[MAT2.space] * 3))
# n . m = 2[n, m] breaks ALie1
_SL2_BRACKET = Bil(SL2.mult, b0, b1)
DOUBLE_ADJOINT = LieAction(
    SL2, SL2, bilinear_from_term(*[SL2.space] * 3, _SL2_BRACKET + _SL2_BRACKET)
)
ZERO_MAT2 = zero_map(MAT2.space, MAT2.space)
ZERO_SL2 = zero_map(SL2.space, SL2.space)
BAD_XMOD_ASSOC = XMod(zero_action_assoc(AB1, MAT2), zero_map(MAT2.space, AB1.space))
BAD_XMOD_LIE = XMod(zero_action_lie(AB1, HEIS3), zero_map(HEIS3.space, AB1.space))
ZERO_BRACE = _zero_brace(XMod(self_action(MAT2), identity_map(MAT2.space)))
ZERO_TAU = CatBraiding(
    discrete_cat(MAT2, ASSOC), zero_bilmap(MAT2.space, MAT2.space, MAT2.space)
)
CONJ_S3 = conjugation_example(group_catalog("S3"))
# Ab(2) is both associative and Lie, so only its action's flavor refuses
# these crossed modules in an entry of the other flavor
LIE_XMOD_AB2 = XMod(zero_action_lie(AB2, AB2), zero_map(AB2.space, AB2.space))
ASSOC_XMOD_AB2 = XMod(zero_action_assoc(AB2, AB2), zero_map(AB2.space, AB2.space))

# (id, call, exception, message, the report it carries or None; an
# exception that is no ValidationFailed carries none)
REFUSALS = [
    (
        "xmod_assoc:flavor",
        lambda: require_valid_xmod_assoc(
            XMod(zero_action_assoc(SL2, AB1), zero_map(AB1.space, SL2.space))
        ),
        InvalidXMod,
        "crossed module algebras must be associative",
        lambda: None,
    ),
    (
        "xmod_assoc:boundary",
        lambda: require_valid_xmod_assoc(
            XMod(self_action(MAT2), _twice_identity(MAT2))
        ),
        InvalidXMod,
        "boundary is not an algebra homomorphism",
        lambda: None,
    ),
    (
        "xmod_assoc:action",
        lambda: require_valid_xmod_assoc(XMod(HALF_SELF_ACTION, ZERO_MAT2)),
        InvalidXMod,
        "invalid associative action",
        lambda: validate_assoc_action(HALF_SELF_ACTION),
    ),
    (
        "xmod_assoc:axioms",
        lambda: require_valid_xmod_assoc(BAD_XMOD_ASSOC),
        InvalidXMod,
        "crossed module axioms fail",
        lambda: validate_xmod_assoc(BAD_XMOD_ASSOC),
    ),
    (
        "xmod_assoc:lie_action",
        lambda: require_valid_xmod_assoc(LIE_XMOD_AB2),
        InvalidXMod,
        "crossed module algebras must be associative",
        lambda: None,
    ),
    (
        "xmod_liefy:lie_action",
        lambda: xmod_liefy(LIE_XMOD_AB2),
        InvalidXMod,
        "crossed module algebras must be associative",
        lambda: None,
    ),
    (
        "xmod_lie:flavor",
        lambda: require_valid_xmod_lie(
            XMod(zero_action_lie(MAT2, SL2), zero_map(SL2.space, MAT2.space))
        ),
        InvalidXMod,
        "crossed module algebras must be Lie",
        lambda: None,
    ),
    (
        "xmod_lie:boundary",
        lambda: require_valid_xmod_lie(
            XMod(LieAction(SL2, SL2, SL2.mult), _twice_identity(SL2))
        ),
        InvalidXMod,
        "boundary is not an algebra homomorphism",
        lambda: None,
    ),
    (
        "xmod_lie:action",
        lambda: require_valid_xmod_lie(XMod(DOUBLE_ADJOINT, ZERO_SL2)),
        InvalidXMod,
        "invalid Lie action",
        lambda: validate_lie_action(DOUBLE_ADJOINT),
    ),
    (
        "xmod_lie:axioms",
        lambda: require_valid_xmod_lie(BAD_XMOD_LIE),
        InvalidXMod,
        "crossed module axioms fail",
        lambda: validate_xmod_lie(BAD_XMOD_LIE),
    ),
    (
        "xmod_lie:assoc_action",
        lambda: require_valid_xmod_lie(ASSOC_XMOD_AB2),
        InvalidXMod,
        "crossed module algebras must be Lie",
        lambda: None,
    ),
    (
        "cat:assoc_flavor",
        lambda: require_valid_cat(discrete_cat(SL2, ASSOC)),
        InvalidCatAlgebra,
        "C1 and C0 must be assoc algebras",
        lambda: None,
    ),
    (
        "cat:lie_flavor",
        lambda: require_valid_cat(discrete_cat(MAT2, LIE)),
        InvalidCatAlgebra,
        "C1 and C0 must be lie algebras",
        lambda: None,
    ),
    (
        "cat:axioms",
        lambda: require_valid_cat(_mutated_cat()),
        InvalidCatAlgebra,
        "categorical algebra axioms fail",
        lambda: validate_cat_algebra(_mutated_cat()),
    ),
    (
        "cx:flavor",
        lambda: cx_functor(bracket_braiding(SL2)),
        InvalidInput,
        "cx_functor takes a braided associative crossed module",
        lambda: None,
    ),
    (
        "cx:lie_action",
        lambda: cx_functor(_zero_brace(LIE_XMOD_AB2)),
        InvalidInput,
        "cx_functor takes a braided associative crossed module",
        lambda: None,
    ),
    (
        "cx:braiding",
        lambda: cx_functor(ZERO_BRACE),
        InvalidInput,
        "braiding axioms fail",
        lambda: validate_braiding_xmod_assoc(ZERO_BRACE),
    ),
    (
        "xc:flavor",
        lambda: xc_functor(CatBraiding(discrete_cat(SL2, LIE), SL2.mult)),
        InvalidInput,
        "xc_functor takes a braided associative categorical algebra",
        lambda: None,
    ),
    (
        "xc:braiding",
        lambda: xc_functor(ZERO_TAU),
        InvalidInput,
        "categorical braiding axioms fail",
        lambda: validate_braiding_cat_assoc(ZERO_TAU),
    ),
    (
        "catliefy:braiding",
        lambda: cat_braiding_liefy(ZERO_TAU),
        InvalidInput,
        "input braiding axioms fail",
        lambda: validate_braiding_cat_assoc(ZERO_TAU),
    ),
    (
        "xliefy:braiding",
        lambda: xmod_braiding_liefy(ZERO_BRACE),
        InvalidInput,
        "input braiding axioms fail",
        lambda: validate_braiding_xmod_assoc(ZERO_BRACE),
    ),
    (
        "induced_lie_action:axioms",
        lambda: induced_lie_action(HALF_SELF_ACTION),
        InvalidAction,
        "induced_lie_action requires a valid associative action",
        lambda: validate_assoc_action(HALF_SELF_ACTION),
    ),
    (
        "induced_lie_action:flavor",
        lambda: induced_lie_action(ASSOC_OVER_SL2),
        InvalidAction,
        "induced_lie_action requires a valid associative action",
        lambda: validate_assoc_action(ASSOC_OVER_SL2),
    ),
    (
        "semidirect_assoc:axioms",
        lambda: semidirect_assoc(HALF_SELF_ACTION),
        InvalidAction,
        "semidirect product requires a valid action",
        lambda: validate_assoc_action(HALF_SELF_ACTION),
    ),
    (
        "semidirect_assoc:flavor",
        lambda: semidirect_assoc(ASSOC_OVER_SL2),
        InvalidAction,
        "semidirect product requires a valid action",
        lambda: validate_assoc_action(ASSOC_OVER_SL2),
    ),
    (
        "semidirect_lie:axioms",
        lambda: semidirect_lie(DOUBLE_ADJOINT),
        InvalidAction,
        "semidirect product requires a valid Lie action",
        lambda: validate_lie_action(DOUBLE_ADJOINT),
    ),
    (
        "semidirect_lie:flavor",
        lambda: semidirect_lie(LIE_OVER_MAT2),
        InvalidAction,
        "semidirect product requires a valid Lie action",
        lambda: validate_lie_action(LIE_OVER_MAT2),
    ),
    (
        "groupxmod:brace_shape",
        lambda: GroupXMod(
            CONJ_S3.g,
            CONJ_S3.h,
            CONJ_S3.action,
            CONJ_S3.boundary,
            tuple(row[:-1] for row in CONJ_S3.brace),
        ),
        InvalidInput,
        "brace table must be |H| x |H|",
        lambda: None,
    ),
    (
        "group_braiding:no_brace",
        lambda: validate_group_braiding(
            GroupXMod(CONJ_S3.g, CONJ_S3.h, CONJ_S3.action, CONJ_S3.boundary)
        ),
        InvalidInput,
        "braiding validation needs a brace table",
        lambda: None,
    ),
    (
        "catalog:size",
        lambda: catalog("Mat(0)", QQ),
        UnknownFixture,
        "fixture size must be positive: 'Mat(0)'",
        lambda: None,
    ),
    (
        "identity_xmod_assoc:flavor",
        lambda: identity_xmod_assoc(SL2),
        NotAssociative,
        "identity crossed module needs an associative algebra",
        lambda: None,
    ),
    (
        "identity_xmod_lie:flavor",
        lambda: identity_xmod_lie(MAT2),
        NotLie,
        "identity crossed module needs a Lie algebra",
        lambda: None,
    ),
    (
        "xmod_morphism:flavors",
        lambda: validate_xmod_morphism(
            XModMorphism(identity_map(SL2.space), identity_map(SL2.space)),
            identity_xmod_assoc(MAT2),
            identity_xmod_lie(SL2),
        ),
        ValueError,
        "source and target flavors differ",
        lambda: None,
    ),
]


@pytest.mark.parametrize(
    "call,error,message,report",
    [case[1:] for case in REFUSALS],
    ids=[case[0] for case in REFUSALS],
)
def test_each_gate_refuses_with_its_message_and_report(call, error, message, report):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert getattr(exc.value, "report", None) == report()


FAILING = merge(
    "braiding",
    [AxiomCheck("T1", True), AxiomCheck("T2", False, Witness((0,), (1,), (0,)))],
)


def _fail(*args, **kwargs):
    return FAILING


def _invalid_xmod(x):
    raise InvalidXMod("crossed module axioms fail")


# (id, braid attribute replaced, its replacement, call, message)
THEOREMS = [
    (
        "cx",
        "validate_braiding_cat_assoc",
        _fail,
        lambda b, cb: cx_functor(b),
        "bar construction failed to validate: ['T2']",
    ),
    (
        "xc:xmod",
        "require_valid_xmod_assoc",
        _invalid_xmod,
        lambda b, cb: xc_functor(cb),
        "kernel construction failed to validate: crossed module axioms fail",
    ),
    (
        "xc:braiding",
        "validate_braiding_xmod_assoc",
        _fail,
        lambda b, cb: xc_functor(cb),
        "kernel construction failed to validate: ['T2']",
    ),
    (
        "catliefy",
        "validate_braiding_cat_lie_ulualan",
        _fail,
        lambda b, cb: cat_braiding_liefy(cb),
        "Lie-fied categorical braiding failed: ['T2']",
    ),
    (
        "xliefy",
        "validate_braiding_xmod_lie",
        _fail,
        lambda b, cb: xmod_braiding_liefy(b),
        "Lie-fied braiding failed: ['T2']",
    ),
]


@pytest.fixture(scope="module")
def mat2_braidings():
    b = commutator_braiding(MAT2)
    return b, cx_functor(b)


@pytest.mark.parametrize(
    "attr,fake,call,message",
    [case[1:] for case in THEOREMS],
    ids=[case[0] for case in THEOREMS],
)
def test_each_theorem_check_names_the_failing_tags(
    attr, fake, call, message, mat2_braidings, monkeypatch
):
    monkeypatch.setattr(braid, attr, fake)
    with pytest.raises(InternalInvariantViolation) as exc:
        call(*mat2_braidings)
    assert str(exc.value) == message


def _altered(m, i, j, k=0):
    """The bilinear map m with b_k added to its image of the basis pair (i, j)."""
    F = m.field

    def rule(a, c):
        image = m.on_basis(a, c)
        return vadd(F, image, ((k, F.one()),)) if (a, c) == (i, j) else image

    return bilinear_from_rule(m.left, m.right, m.codomain, rule)


# Planted faults, each in the result of one construction core of braid.py.
# The bar's C1 = M x| N lays out the M block first: with m = dim M, b_0 and
# b_1 are (m_0, 0) and (m_1, 0), b_m and b_{m+1} are (0, n_0) and (0, n_1).


def _bar_product(left, right):
    """_bar with b_0 added to the C1 product of the first basis vector of the
    block `left` and the second of the block `right` ("M" or "N")."""

    def alter(built):
        c, sd = built
        m = sd.proj_module.codomain.dim
        i, j = {"M": 0, "N": m}[left], {"M": 1, "N": m + 1}[right]
        c1 = Algebra(c.c1.space, _altered(c.c1.mult, i, j))
        return CatAlgebra(c1, c.c0, c.s, c.t, c.e, c.flavor), sd

    return alter


def _bar_t(block):
    """_bar with n_0 added to t of the first basis vector of the block:
    t(m_0, 0) = d(m_0) for "M", t(0, n_0) = n_0 for "N"."""

    def alter(built):
        c, sd = built
        t, F = c.t, c.t.field
        k = 0 if block == "M" else sd.proj_module.codomain.dim
        cols = [t.column(j) for j in range(t.domain.dim)]
        cols[k] = vadd(F, cols[k], ((0, F.one()),))
        t = from_columns(t.domain, t.codomain, cols)
        return CatAlgebra(c.c1, c.c0, c.s, t, c.e, c.flavor), sd

    return alter


def _cx_tau(block):
    """_cx with tau(n_0, n_1) = (-{n_0, n_1}, n_0 n_1) moved in one component:
    (m_0, 0) added for "M", (0, n_0) for "N"."""

    def alter(built):
        out, sd = built
        k = 0 if block == "M" else sd.proj_module.codomain.dim
        return CatBraiding(out.base, _altered(out.tau, 0, 1, k)), sd

    return alter


def _xc_map(part):
    """_xc with b_0 added to the image of (b_0, b_1) under one of its maps:
    the kernel product, star1, star2 or the brace."""

    def alter(out):
        x, a = out.base, out.base.action
        maps = {"product": a.module.mult, "star1": a.star1, "star2": a.star2, "brace": out.brace}
        maps[part] = _altered(maps[part], 0, 1)
        module = Algebra(a.module.space, maps["product"])
        action = AssocAction(a.actor, module, maps["star1"], maps["star2"])
        return XBraiding(XMod(action, x.boundary), maps["brace"])

    return alter


CX, XC, ROUND_X, ROUND_C = "construct cx", "construct xc", "roundtrip x", "roundtrip c"

# (id, core, how its result is altered, the commands that exit 2 with an
# InternalInvariantViolation).  construct cx and construct xc sweep their
# output; a roundtrip certifies its last construction by the isomorphism
# and sweeps its first one not at all, so alpha misses the faults that no
# map of xc(cx(b)) reads (the N x N block of C1, t on the N block)
FAULTS = [
    ("bar:MxM", "_bar", _bar_product("M", "M"), {CX, ROUND_X, ROUND_C}),
    ("bar:MxN", "_bar", _bar_product("M", "N"), {CX, ROUND_X, ROUND_C}),
    ("bar:NxM", "_bar", _bar_product("N", "M"), {CX, ROUND_X, ROUND_C}),
    ("bar:NxN", "_bar", _bar_product("N", "N"), {CX, ROUND_C}),
    ("bar:t_M", "_bar", _bar_t("M"), {CX, ROUND_X, ROUND_C}),
    ("bar:t_N", "_bar", _bar_t("N"), {CX, ROUND_C}),
    ("cx:tau_M", "_cx", _cx_tau("M"), {CX, ROUND_X, ROUND_C}),
    ("cx:tau_N", "_cx", _cx_tau("N"), {CX, ROUND_X, ROUND_C}),
    ("xc:product", "_xc", _xc_map("product"), {XC, ROUND_X, ROUND_C}),
    ("xc:star1", "_xc", _xc_map("star1"), {XC, ROUND_X, ROUND_C}),
    ("xc:star2", "_xc", _xc_map("star2"), {XC, ROUND_X, ROUND_C}),
    ("xc:brace", "_xc", _xc_map("brace"), {XC, ROUND_X, ROUND_C}),
]
_FAULT = {fault: (core, alter) for fault, core, alter, _ in FAULTS}


def _plant(monkeypatch, fault):
    core, alter = _FAULT[fault]
    real = getattr(braid, core)
    monkeypatch.setattr(braid, core, lambda *args: alter(real(*args)))


@pytest.fixture
def commands(mat2_braidings, tmp_path):
    """The four commands that run cx or xc, on the x-form b and the c-form cx(b)."""
    b, cb = mat2_braidings
    x, c = tmp_path / "x.alg", tmp_path / "c.alg"
    x.write_text(print_xbraiding_doc(b, "b"), encoding="utf-8")
    c.write_text(print_catbraiding_doc(cb, "c"), encoding="utf-8")
    return {
        CX: ["construct", "cx", str(x), "--subject", "b"],
        XC: ["construct", "xc", str(c), "--subject", "c"],
        ROUND_X: ["roundtrip", str(x)],
        ROUND_C: ["roundtrip", str(c)],
    }


@pytest.mark.parametrize(
    "fault,catchers", [(f[0], f[3]) for f in FAULTS], ids=[f[0] for f in FAULTS]
)
def test_each_planted_fault_is_caught_by_its_commands(
    fault, catchers, commands, monkeypatch, capsys
):
    # a catching command exits 2 with the message of an InternalInvariantViolation
    # it raised; every other command exits 0, with nothing on stderr
    raised = []

    def recording(self, *args):
        raised.append(self)
        Exception.__init__(self, *args)

    monkeypatch.setattr(InternalInvariantViolation, "__init__", recording)
    _plant(monkeypatch, fault)
    caught = set()
    for name, argv in commands.items():
        raised.clear()
        rc = main(argv)
        err = capsys.readouterr().err
        if rc == 2 and raised and err == f"error: {raised[-1]}\n":
            caught.add(name)
        else:
            assert (rc, err) == (0, "")
    assert catchers and caught == catchers


# (id, iso, the fault in its last construction, the failing tag): alpha's
# last construction is xc(cx(b)), beta's cx(xc(C))
LAST_CONSTRUCTIONS = [
    ("alpha:brace", "alpha", "xc:brace", "BrH"),
    ("alpha:star", "alpha", "xc:star1", "XAssH1"),
    ("beta:tau", "beta", "cx:tau_M", "IFB"),
    ("beta:star", "beta", "bar:NxM", "IFH"),
]


def _assert_iso_refused(iso, mat2_braidings, tmp_path, capsys, expected):
    """alpha_iso/beta_iso, and `roundtrip` with exit 2, raise the isomorphism
    message naming the failing tags for which `expected(tags)` holds."""
    b, cb = mat2_braidings
    prefix = f"{iso} failed to validate as a braided isomorphism: "
    with pytest.raises(InternalInvariantViolation) as exc:
        alpha_iso(b) if iso == "alpha" else beta_iso(cb)
    message = str(exc.value)
    assert message.startswith(prefix)
    assert expected(ast.literal_eval(message[len(prefix) :]))
    doc = print_xbraiding_doc(b, "b") if iso == "alpha" else print_catbraiding_doc(cb, "c")
    path = tmp_path / "doc.alg"
    path.write_text(doc, encoding="utf-8")
    capsys.readouterr()
    assert main(["roundtrip", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "iso,fault,tag",
    [case[1:] for case in LAST_CONSTRUCTIONS],
    ids=[case[0] for case in LAST_CONSTRUCTIONS],
)
def test_a_broken_last_construction_fails_the_isomorphism(
    iso, fault, tag, mat2_braidings, monkeypatch, tmp_path, capsys
):
    # the last construction is not swept: its output is certified by the
    # isomorphism from the input, whose report names the altered image
    _plant(monkeypatch, fault)
    _assert_iso_refused(iso, mat2_braidings, tmp_path, capsys, lambda tags: tags == [tag])


@pytest.mark.parametrize("iso", ("alpha", "beta"))
def test_a_collapsed_kernel_coordinate_fails_the_inverse_certificate(
    iso, mat2_braidings, monkeypatch, tmp_path, capsys
):
    # the first nonzero vector that f1 reads in kernel coordinates gets
    # coordinates 0 at every call, so f1 is not injective and has no inverse
    real = braid._kernel_coords
    escaped = {"alpha": "(m, 0) escaped", "beta": "x - e(s(x)) escaped"}[iso]
    collapsed = {}

    def coords(ks, v, message):
        if message.startswith(escaped) and v and v == collapsed.setdefault("v", v):
            return ()
        return real(ks, v, message)

    monkeypatch.setattr(braid, "_kernel_coords", coords)
    _assert_iso_refused(
        iso, mat2_braidings, tmp_path, capsys, lambda tags: {"Inv1", "Inv2"} <= set(tags)
    )


def _functions_refusing_on_ok(tree):
    """Names of the functions with an `if` whose test holds `not <x>.ok`."""
    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.If)
        for test in ast.walk(node.test)
        if isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and isinstance(test.operand, ast.Attribute)
        and test.operand.attr == "ok"
    }


def _source_trees():
    """{file name: parsed module} for every module of src/braidalg."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "braidalg", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    return trees


def test_reports_raise_themselves_and_one_semidirect_core():
    # a gate is `report.require(...)` or `report.assert_ok(...)`, alpha and
    # beta included; and the two flavors of semidirect product share one
    # core in action.py
    trees = _source_trees()
    hand_written = {
        (name, fn)
        for name, tree in trees.items()
        if name != "report.py"
        for fn in _functions_refusing_on_ok(tree)
    }
    assert hand_written == set()
    cores = [
        node.name
        for node in trees["action.py"].body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_semidirect")
        and node.name != "_semidirect_space"
    ]
    assert cores == ["_semidirect"]


@pytest.mark.parametrize(
    "entry,action,message",
    [
        (
            semidirect_assoc,
            adjoint_action(SL2),
            "semidirect product requires a valid action: got LieAction",
        ),
        (
            induced_lie_action,
            adjoint_action(SL2),
            "induced_lie_action requires a valid associative action: got LieAction",
        ),
        (
            semidirect_lie,
            self_action(MAT2),
            "semidirect product requires a valid Lie action: got AssocAction",
        ),
    ],
    ids=["semidirect_assoc", "induced_lie_action", "semidirect_lie"],
)
def test_flavor_named_entries_refuse_the_other_flavor(entry, action, message):
    # each action is valid in its own flavor; the entry refuses it by its
    # flavor before any validator reads its maps, so nothing is built
    with pytest.raises(InvalidAction) as err:
        entry(action)
    assert str(err.value) == message
    assert err.value.report is None


def _rules_applying_maps(scope, defs):
    """(line, attribute) for each rule passed to bilinear_from_rule in
    `scope`, a lambda or a function `scope` or an enclosing scope defines
    (`defs`), that calls .apply, .apply_left or .product."""
    defs = {**defs, **{n.name: n for n in scope.body if isinstance(n, ast.FunctionDef)}}
    found, stack = [], list(scope.body)
    while stack:  # the nodes of `scope` outside the functions it defines
        node = stack.pop()
        if isinstance(node, ast.FunctionDef):
            found += _rules_applying_maps(node, defs)
            continue
        stack.extend(ast.iter_child_nodes(node))
        f = getattr(node, "func", None)
        if getattr(f, "id", getattr(f, "attr", None)) == "bilinear_from_rule":
            rules = (
                a if isinstance(a, ast.Lambda) else defs.get(getattr(a, "id", None))
                for a in node.args[3:]
            )
            found += [
                (node.lineno, call.func.attr)
                for rule in rules
                if rule is not None
                for call in ast.walk(rule)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("apply", "apply_left", "product")
            ]
    return found


def test_derived_bilinear_maps_are_built_from_terms():
    # a bilinear map derived from other maps is a law term evaluated once
    # (linear.bilinear_from_term); a rule of bilinear_from_rule reads data
    # and applies no map
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "braidalg", "*.py")))
    paths += sorted(glob.glob(os.path.join(SCRIPTS, "*.py")))
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [(os.path.basename(path), *hit) for hit in _rules_applying_maps(tree, {})]
    assert found == []


def test_no_isinstance_picks_a_flavor():
    # an action or crossed module carries its flavor, ASSOC or LIE, in
    # `.flavor`; no class test repeats that choice
    flavored = {"AssocAction", "LieAction", "XMod"}
    found = [
        (name, node.lineno)
        for name, tree in _source_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        for part in ast.walk(node.args[1])
        if getattr(part, "id", getattr(part, "attr", None)) in flavored
    ]
    assert found == []


def test_a_product_escaping_ker_s_is_an_internal_error(
    mat2_braidings, monkeypatch, tmp_path, capsys
):
    # with one basis vector of ker(s) dropped, a product of kernel vectors
    # leaves the subspace _xc computes in; it is refused, not rounded
    real = braid.kernel_part

    def narrowed(c):
        ks = real(c)[0]
        sub = Subspace.span(ks.ambient, ks.basis[:-1])
        kspace = Space(c.c1.field, tuple(f"k{i}" for i in range(sub.dim)))
        return sub, kspace, from_columns(kspace, c.c1.space, sub.basis)

    monkeypatch.setattr(braid, "kernel_part", narrowed)
    _, cb = mat2_braidings
    with pytest.raises(InternalInvariantViolation) as exc:
        xc_functor(cb)
    assert str(exc.value) == "value escaped ker(s)"
    path = tmp_path / "doc.alg"
    path.write_text(print_catbraiding_doc(cb, "c"), encoding="utf-8")
    capsys.readouterr()
    assert main(["construct", "xc", str(path), "--subject", "c"]) == 2
    assert capsys.readouterr() == ("", "error: value escaped ker(s)\n")


def test_xc_reads_its_terms_in_the_kernel_space_it_is_given(mat2_braidings):
    # _xc's maps are terms over the kernel space it is given, read through
    # the inclusion; a space of the same dimension with other labels is not
    # the inclusion's domain, and the evaluator refuses it by space
    _, cb = mat2_braidings
    ks, kspace, incl = braid.kernel_part(cb.base)
    other = Space(kspace.field, tuple(f"j{i}" for i in range(kspace.dim)))
    with pytest.raises(ValueError) as exc:
        braid._xc(cb, (ks, other, incl))
    assert str(exc.value) == "position 0 is read in a space it does not index"


# N = Mat(2) acting on M = Ab(1): each part below has the other space
# where its record wants N or M
_N, _M = MAT2.space, AB1.space
_XMOD = XMod(zero_action_assoc(MAT2, AB1), zero_map(_M, _N))
_I, _WRONG_MAP = identity_map(_N), zero_map(_N, _M)
SIGNATURE_REFUSALS = [
    ("star1", lambda: AssocAction(MAT2, AB1, *[zero_bilmap(_M, _N, _M)] * 2),
     "star1 must map N x M -> M"),
    ("star2", lambda: AssocAction(MAT2, AB1, *[zero_bilmap(_N, _M, _M)] * 2),
     "star2 must map M x N -> M"),
    ("dot", lambda: LieAction(MAT2, AB1, zero_bilmap(_M, _N, _M)), "dot must map N x M -> M"),
    ("boundary", lambda: XMod(_XMOD.action, zero_map(_N, _M)), "boundary must map M -> N"),
    ("brace", lambda: XBraiding(_XMOD, zero_bilmap(_N, _N, _N)), "brace must map N x N -> M"),
    ("tau", lambda: CatBraiding(discrete_cat(MAT2, ASSOC), zero_bilmap(_N, _N, _M)),
     "tau must map C0 x C0 -> C1"),
    ("s", lambda: CatAlgebra(MAT2, MAT2, _WRONG_MAP, _I, _I, ASSOC),
     "structural map does not match C1/C0"),
    ("t", lambda: CatAlgebra(MAT2, MAT2, _I, _WRONG_MAP, _I, ASSOC),
     "structural map does not match C1/C0"),
    ("e", lambda: CatAlgebra(MAT2, MAT2, _I, _I, zero_map(_M, _N), ASSOC),
     "structural map does not match C1/C0"),
]


@pytest.mark.parametrize(
    "part,call,message", SIGNATURE_REFUSALS, ids=[case[0] for case in SIGNATURE_REFUSALS]
)
def test_each_record_refuses_a_part_of_the_wrong_signature(part, call, message):
    # the record is the one check of its parts; the DSL places the refusal
    # by the part it names
    with pytest.raises(SignatureMismatch) as exc:
        call()
    assert (exc.value.part, str(exc.value)) == (part, message)
    assert isinstance(exc.value, ValueError)


def test_the_parser_states_no_signature():
    # a part's signature is compared in its record alone: `dsl._Parser`
    # reads no map's spaces, and raises DimensionMismatch in `build` only,
    # where it places the record's SignatureMismatch
    tree = _source_trees()["dsl.py"]
    parser = next(n for n in tree.body if getattr(n, "name", None) == "_Parser")
    read = {n.attr for n in ast.walk(parser) if isinstance(n, ast.Attribute)}
    assert not read & {"left", "right", "domain", "codomain"}
    raised = [
        fn.name
        for fn in parser.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise)
        for name in ast.walk(node)
        if getattr(name, "id", None) == "DimensionMismatch"
    ]
    assert raised == ["build"]
