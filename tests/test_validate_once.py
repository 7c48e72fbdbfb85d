"""Checked entry points: bad input is still refused, outputs are unchanged,
no check runs twice on the same object within one call, and within one
alpha or beta call each structure check runs once, whatever its argument."""

import json
import os
import sys
from collections import Counter

import pytest

from braidalg import action, algebra, braid, icat, report, xmod
from braidalg.algebra import ASSOC, catalog, liefy
from braidalg.braid import (
    CatBraiding,
    XBraiding,
    alpha_iso,
    beta_iso,
    commutator_braiding,
    cx_functor,
    validate_braided_internal_functor,
    validate_braided_xmod_morphism,
    xc_functor,
)
from braidalg.cli import main
from braidalg.dsl import parse, print_catbraiding_doc, print_xbraiding_doc
from braidalg.errors import InvalidCatAlgebra, InvalidXMod, NotAssociative
from braidalg.fields import QQ
from braidalg.linear import identity_map, zero_bilmap
from braidalg.xmod import XMod, xmod_liefy

from conftest import FIXTURES, MUTATIONS


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _manifest():
    with open(os.path.join(MUTATIONS, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _refusals():
    """(file, argv, error line) for each construction that takes a mutated
    braiding, cat or action subject, with the message of the check that
    refuses it."""
    out = []
    for e in _manifest():
        path = os.path.join(MUTATIONS, e["file"])
        kind, obj = _read(path).lookup(e["subject"])
        subj = ["--subject", e["subject"]]
        if kind not in ("braiding", "cat", "action"):
            continue
        if kind == "action":
            lie = "" if obj.flavor == ASSOC else " Lie"
            msg = f"semidirect product requires a valid{lie} action"
            out.append((e["file"], ["construct", "semidirect", path] + subj, msg))
        elif kind == "cat":
            msg = "categorical algebra axioms fail"
            out.append((e["file"], ["construct", "catliefy", path] + subj, msg))
        elif isinstance(obj, XBraiding):
            if obj.base.flavor == ASSOC:
                cx_msg = "braiding axioms fail"
                xl_msg = "input braiding axioms fail"
            else:
                cx_msg = "cx_functor takes a braided associative crossed module"
                xl_msg = "xmod_braiding_liefy takes an associative braided xmod"
            out.append((e["file"], ["construct", "cx", path] + subj, cx_msg))
            out.append((e["file"], ["construct", "xliefy", path] + subj, xl_msg))
            out.append((e["file"], ["roundtrip", path] + subj, cx_msg))
        else:
            if obj.base.flavor == ASSOC:
                xc_msg = "categorical braiding axioms fail"
                cl_msg = "input braiding axioms fail"
            else:
                xc_msg = "xc_functor takes a braided associative categorical algebra"
                cl_msg = "cat_liefy requires an associative categorical algebra"
            out.append((e["file"], ["construct", "xc", path] + subj, xc_msg))
            out.append((e["file"], ["construct", "catliefy", path] + subj, cl_msg))
            out.append((e["file"], ["roundtrip", path] + subj, xc_msg))
    return out


_REFUSALS = _refusals()


@pytest.mark.parametrize(
    "argv,message",
    [(argv, msg) for _, argv, msg in _REFUSALS],
    ids=[f"{f}:{argv[0]}:{argv[1]}" for f, argv, _ in _REFUSALS],
)
def test_checked_entries_refuse_mutations(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_zero_brace_on_a_mutated_xmod_is_refused():
    x = _read(os.path.join(MUTATIONS, "xas1.alg")).lookup("xas1")[1]
    b = XBraiding(x, zero_bilmap(x.n.space, x.n.space, x.m.space))
    with pytest.raises(InvalidXMod):
        cx_functor(b)
    with pytest.raises(InvalidXMod):
        alpha_iso(b)


def test_zero_tau_on_a_mutated_cat_is_refused():
    c = _read(os.path.join(MUTATIONS, "cat1.alg")).lookup("cat1")[1]
    b = CatBraiding(c, zero_bilmap(c.c0.space, c.c0.space, c.c1.space))
    with pytest.raises(InvalidCatAlgebra):
        xc_functor(b)
    with pytest.raises(InvalidCatAlgebra):
        beta_iso(b)


def test_liefy_refuses_a_non_associative_algebra():
    with pytest.raises(NotAssociative):
        liefy(catalog("sl2", QQ))


def _reference_roundtrip(doc):
    """The reports `roundtrip` printed when it rebuilt the target and swept
    the morphism itself."""
    reports = []
    for name, kind, b in doc.blocks:
        if kind != "braiding":
            continue
        if isinstance(b, XBraiding):
            target = xc_functor(cx_functor(b))
            reports.append(
                validate_braided_xmod_morphism(alpha_iso(b), b, target, f"{name}:alpha")
            )
        else:
            target = cx_functor(xc_functor(b))
            f1, f0 = beta_iso(b)
            reports.append(
                validate_braided_internal_functor(f1, f0, b, target, f"{name}:beta")
            )
    return reports


# mat3_braided.alg is left out: its reference path alone takes seconds
_ROUNDTRIP_FIXTURES = sorted(
    f for f in os.listdir(FIXTURES) if f.endswith(".alg") and f != "mat3_braided.alg"
)
_EXIT_TWO = {"gl2_braided.alg", "heis3_braided.alg", "s3_group.alg", "sl2_braided.alg"}


@pytest.mark.parametrize("name", _ROUNDTRIP_FIXTURES)
def test_roundtrip_json_matches_the_reference_path(name, capsys):
    path = os.path.join(FIXTURES, name)
    rc = main(["roundtrip", path, "--format", "json"])
    out = capsys.readouterr().out
    if name in _EXIT_TWO:
        assert rc == 2
        return
    reports = _reference_roundtrip(_read(path))
    items = [item for rep in reports for item in rep.to_json_obj()]
    assert out == json.dumps(items, indent=2) + "\n"
    assert rc == (0 if all(rep.ok for rep in reports) else 1)


_WATCHED = (
    (action, "validate_assoc_action"),
    (braid, "validate_braiding_cat_assoc"),
    (braid, "validate_braiding_xmod_assoc"),
    (icat, "require_valid_cat"),
    (icat, "validate_cat_algebra"),
    (xmod, "validate_xmod_morphism"),
    (braid, "validate_braided_xmod_morphism"),
    (braid, "validate_braided_internal_functor"),
    (algebra, "is_associative"),
)


def _key(args):
    parts = tuple(a for a in args if not isinstance(a, str))
    try:
        hash(parts)
        return parts
    except TypeError:
        return tuple(id(a) for a in parts)


@pytest.fixture
def calls(monkeypatch):
    """Count calls of each watched check per distinct argument, through
    every braidalg module binding of it."""
    counts = Counter()
    mods = [m for n, m in sys.modules.items() if n.startswith("braidalg.")]
    for home, name in _WATCHED:
        orig = getattr(home, name)

        def wrapper(*args, _orig=orig, _name=name, **kw):
            counts[(_name, _key(args))] += 1
            return _orig(*args, **kw)

        for m in mods:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    monkeypatch.setattr(m, attr, wrapper)
    return counts


def _runs(counts):
    """Calls of each check, whatever its argument."""
    runs = Counter()
    for (name, _), n in counts.items():
        runs[name] += n
    return runs


def _repeats(counts):
    """Checks that ran twice on one argument.  is_associative is left out:
    the isos re-check C0 = N, which their input and output share."""
    return {
        key[0]: n for key, n in counts.items() if n > 1 and key[0] != "is_associative"
    }


@pytest.fixture(scope="module")
def mat2():
    b = commutator_braiding(catalog("Mat(2)", QQ))
    return b, cx_functor(b)


# the checks one alpha or beta call runs, each on its input: neither sweeps
# its first construction (cx(b) for alpha, xc(C) for beta), which the
# block-restriction lemma certifies from the checked input, nor its last,
# which the isomorphism certifies.  alpha checks a crossed module and its
# braiding, beta a categorical algebra (require_valid_cat, which calls
# validate_cat_algebra) and its braiding
_ONCE = {
    "alpha": {
        "validate_assoc_action": 1,
        "validate_braiding_xmod_assoc": 1,
        "validate_braiding_cat_assoc": 0,
        "validate_cat_algebra": 0,
        "require_valid_cat": 0,
    },
    "beta": {
        "validate_assoc_action": 0,
        "validate_braiding_xmod_assoc": 0,
        "validate_braiding_cat_assoc": 1,
        "validate_cat_algebra": 1,
        "require_valid_cat": 1,
    },
}


@pytest.mark.parametrize(
    "entry", ("alpha_iso", "beta_iso", "roundtrip:alpha", "roundtrip:beta")
)
def test_each_check_runs_once_per_argument(entry, mat2, calls, tmp_path):
    b, cb = mat2
    iso = "alpha" if "alpha" in entry else "beta"
    if entry == "alpha_iso":
        alpha_iso(b)
    elif entry == "beta_iso":
        beta_iso(cb)
    else:
        path = tmp_path / "doc.alg"
        doc = print_xbraiding_doc(b, "b") if iso == "alpha" else print_catbraiding_doc(cb, "c")
        path.write_text(doc, encoding="utf-8")
        assert main(["roundtrip", str(path)]) == 0
    assert not _repeats(calls)
    runs = _runs(calls)
    assert {name: runs[name] for name in _ONCE[iso]} == _ONCE[iso]
    morphism = (
        "validate_braided_xmod_morphism" if iso == "alpha" else "validate_braided_internal_functor"
    )
    assert runs[morphism] == 1


def test_alpha_sweeps_no_law_over_the_bar(mat2, monkeypatch):
    # on Mat(2), M and N have dimension 4 and C1 = M x| N dimension 8: alpha
    # sweeps its input, the morphism and the inverse laws, each over M, N
    # or ker s, and no law over the index family of C1
    b, _ = mat2
    c1 = 2 * b.base.m.dim
    dims = []
    real = report.sweep

    def counted(tag, family, *sides):
        dims.append((tag, family))
        return real(tag, family, *sides)

    for m in [m for n, m in sys.modules.items() if n.startswith("braidalg.")]:
        if getattr(m, "sweep", None) is real:
            monkeypatch.setattr(m, "sweep", counted)
    alpha_iso(b)
    assert dims
    assert [(tag, family) for tag, family in dims if c1 in family] == []


def test_liefication_checks_associativity_once_per_algebra(calls, monkeypatch):
    # an algebra keeps its answer, so a second call on it (M = N here) sweeps
    # nothing; the inputs are built unchecked, so that no answer is kept yet
    sweeps = Counter()
    real = algebra.sweep

    def counted(tag, *args):
        sweeps[tag] += 1
        return real(tag, *args)

    monkeypatch.setattr(algebra, "sweep", counted)
    a, b = catalog("Mat(2)", QQ), catalog("Mat(2)", QQ)
    x = XMod(action.self_action(a), identity_map(a.space))
    cat = braid._bar(XMod(action.self_action(b), identity_map(b.space)))[0]
    for run, algebras in (
        (lambda: xmod_liefy(x), (x.m,)),
        (lambda: icat.cat_liefy(cat), (cat.c1, cat.c0)),
    ):
        calls.clear()
        sweeps.clear()
        run()
        checked = {key[1] for key in calls if key[0] == "is_associative"}
        assert checked == {(a,) for a in algebras}
        assert sweeps["Assoc"] == len(algebras)
