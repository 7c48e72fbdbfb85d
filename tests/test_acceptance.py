"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``criterion N: pass|fail`` line, bypassing pytest's capture so the
lines always appear in the run log.
"""

import contextlib
import glob
import json
import os
import time

import pytest

from braidalg.action import (
    induced_lie_action,
    self_action,
    semidirect_assoc,
    semidirect_lie,
    zero_action_assoc,
)
from braidalg.algebra import ASSOC, LIE, catalog, liefy
from braidalg.braid import (
    alpha_iso,
    beta_iso,
    bracket_braiding,
    cat_braiding_liefy,
    check_anticoherence,
    commutator_braiding,
    cx_functor,
    validate_braided_internal_functor,
    validate_braided_xmod_morphism,
    validate_braiding_cat_lie_alt,
    validate_braiding_cat_lie_ulualan,
    validate_braiding_xmod_assoc,
    validate_braiding_xmod_lie,
    xc_functor,
    xmod_braiding_liefy,
)
from braidalg.cli import main
from braidalg.dsl import BLOCK_KINDS, VALIDATABLE, parse, print_document
from braidalg.errors import CharTwo
from braidalg.fields import GF, QQ
from braidalg.groupx import (
    GROUP_FIXTURES,
    conjugation_example,
    group_catalog,
    validate_group_braiding,
    validate_group_xmod,
)
from braidalg.icat import (
    compose,
    composable_basis,
    discrete_cat,
    invert_morphism,
    validate_cat_algebra,
)
from braidalg.natensor import tensor_braiding, tensor_square
from braidalg.xmod import identity_xmod_assoc, identity_xmod_lie, xmod_liefy

from conftest import FIXTURES, MUTATIONS, load_script


@contextlib.contextmanager
def criterion(n, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {n}: fail")
        raise
    with capsys.disabled():
        print(f"criterion {n}: pass")


BAS_TAGS = {f"BAs{i}" for i in range(1, 7)}
BLIE_TAGS = {f"BLie{i}" for i in range(1, 7)}


def test_criterion_1_commutator_braidings(capsys):
    with criterion(1, capsys):
        for name in ("Mat(2)", "Mat(3)", "Upper(3)"):
            t0 = time.perf_counter()
            rep = validate_braiding_xmod_assoc(
                commutator_braiding(catalog(name, QQ)), name
            )
            elapsed = time.perf_counter() - t0
            tags = {e.tag for e in rep.entries}
            assert BAS_TAGS <= tags
            assert rep.ok, (name, rep.failing_tags())
            assert elapsed < 1.0, (name, elapsed)


def test_criterion_2_bracket_braidings(capsys):
    with criterion(2, capsys):
        for name in ("sl2", "Heis3", "gl2"):
            rep = validate_braiding_xmod_lie(
                bracket_braiding(catalog(name, QQ)), name
            )
            tags = {e.tag for e in rep.entries}
            assert BLIE_TAGS <= tags
            assert rep.ok, (name, rep.failing_tags())


def _assoc_braiding_fixtures():
    for name in ("Mat(2)", "Mat(3)", "Upper(3)"):
        yield name, commutator_braiding(catalog(name, QQ))


def test_criterion_3_alpha_beta_isomorphisms(capsys):
    with criterion(3, capsys):
        for name, b in _assoc_braiding_fixtures():
            target = xc_functor(cx_functor(b))
            phi = alpha_iso(b)
            rep = validate_braided_xmod_morphism(phi, b, target, f"{name}:alpha")
            assert rep.ok, (name, rep.failing_tags())
            # exact equality of the round trip: same braided structure
            assert target.base.boundary.columns == b.base.boundary.columns
            assert target.brace.tensor == b.brace.tensor

            cb = cx_functor(b)
            ctarget = cx_functor(xc_functor(cb))
            f1, f0 = beta_iso(cb)
            rep = validate_braided_internal_functor(
                f1, f0, cb, ctarget, f"{name}:beta"
            )
            assert rep.ok, (name, rep.failing_tags())
            assert ctarget.tau.tensor == cb.tau.tensor


def test_criterion_4_liefication_commutes(capsys):
    with criterion(4, capsys):
        actions = [
            self_action(catalog("Mat(2)", QQ)),
            self_action(catalog("Upper(3)", QQ)),
            zero_action_assoc(catalog("Mat(2)", QQ), catalog("Ab(2)", QQ)),
        ]
        for a in actions:
            left = liefy(semidirect_assoc(a).algebra)
            right = semidirect_lie(induced_lie_action(a)).algebra
            assert left.mult.tensor == right.mult.tensor
            assert left.space.labels == right.space.labels
        for name in ("Mat(2)", "Mat(3)", "Upper(3)"):
            A = catalog(name, QQ)
            x = xmod_liefy(identity_xmod_assoc(A))
            y = identity_xmod_lie(liefy(A))
            assert x.boundary.columns == y.boundary.columns
            assert x.action.dot.tensor == y.action.dot.tensor
            assert x.m.mult.tensor == y.m.mult.tensor
            assert x.n.mult.tensor == y.n.mult.tensor


def test_criterion_5_transport_and_validator_agreement(capsys):
    with criterion(5, capsys):
        for f in (QQ, GF(5)):
            subjects = [
                cat_braiding_liefy(
                    cx_functor(commutator_braiding(catalog("Mat(2)", f)))
                ),
                cat_braiding_liefy(
                    cx_functor(commutator_braiding(catalog("Upper(3)", f)))
                ),
            ]
            for cb in subjects:
                ul = validate_braiding_cat_lie_ulualan(cb, "s")
                assert not {"LieT1", "LieT2"} & set(ul.failing_tags())
                assert check_anticoherence(cb, "s").ok
                alt = validate_braiding_cat_lie_alt(cb, "s")
                assert ul.ok == alt.ok
                assert ul.ok
        for make in (
            lambda: xmod_braiding_liefy(commutator_braiding(catalog("Mat(2)", GF(2)))),
            lambda: cat_braiding_liefy(
                cx_functor(commutator_braiding(catalog("Mat(2)", GF(2))))
            ),
        ):
            with pytest.raises(CharTwo):
                make()


def _cat_fixtures():
    yield "disc Mat(2)", discrete_cat(catalog("Mat(2)", QQ), ASSOC)
    yield "disc Upper(3)", discrete_cat(catalog("Upper(3)", QQ), ASSOC)
    yield "disc sl2", discrete_cat(catalog("sl2", QQ), LIE)
    yield "disc Heis3", discrete_cat(catalog("Heis3", QQ), LIE)
    yield "bar Mat(2)", cx_functor(commutator_braiding(catalog("Mat(2)", QQ))).base
    yield "bar Upper(3)", cx_functor(commutator_braiding(catalog("Upper(3)", QQ))).base
    yield "bar Mat(2) lie", cat_braiding_liefy(
        cx_functor(commutator_braiding(catalog("Mat(2)", QQ)))
    ).base


def test_criterion_6_internal_category_laws(capsys):
    with criterion(6, capsys):
        for name, c in _cat_fixtures():
            assert validate_cat_algebra(c, name).ok
            F = c.c1.field
            for x, y in composable_basis(c, 2):
                left = compose(c, c.e.apply(c.s.apply(x)), x)
                assert left == tuple(x), name
                right = compose(c, x, c.e.apply(c.t.apply(x)))
                assert right == tuple(x), name
            for x, y, z in composable_basis(c, 3):
                a = compose(c, compose(c, x, y), z)
                b = compose(c, x, compose(c, y, z))
                assert a == b, name
            for i in range(c.c1.dim):
                f = c.c1.space.basis_vector(i)
                g = invert_morphism(c, f)  # postconditions asserted inside
                assert compose(c, f, g) == c.e.apply(c.s.apply(f))


def test_criterion_7_tensor_square(capsys):
    with criterion(7, capsys):
        oracle = load_script("tensor_rank_oracle")
        t0 = time.perf_counter()
        for n in (1, 2, 3, 4):
            ts = tensor_square(catalog(f"Ab({n})", QQ))
            assert ts.carrier.space.dim == n * n
            zero = ts.carrier.space.zero()
            assert all(
                ts.carrier.mult.on_basis(i, j) == zero
                for i in range(n * n)
                for j in range(n * n)
            )
        for name, make in (("sl2", oracle.sl2), ("Heis3", oracle.heis3)):
            ts = tensor_square(catalog(name, QQ))
            c = make()
            expect = len(c) ** 2 - oracle.relation_rank(c)
            assert ts.carrier.space.dim == expect, name
            rep = validate_braiding_xmod_lie(tensor_braiding(ts), name)
            assert BLIE_TAGS <= {e.tag for e in rep.entries}
            assert rep.ok, (name, rep.failing_tags())
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, elapsed


def test_criterion_8_group_conjugation_examples(capsys):
    with criterion(8, capsys):
        for name in GROUP_FIXTURES:
            g = group_catalog(name)
            assert g.order <= 12
            t0 = time.perf_counter()
            gx = conjugation_example(g)
            rep = validate_group_xmod(gx, name)
            brep = validate_group_braiding(gx, name)
            elapsed = time.perf_counter() - t0
            assert {"XGr1", "XGr2"} <= {e.tag for e in rep.entries}
            assert {f"BGr{i}" for i in range(1, 7)} <= {e.tag for e in brep.entries}
            assert rep.ok and brep.ok, (name, rep.failing_tags(), brep.failing_tags())
            assert elapsed < 1.0, (name, elapsed)


def test_criterion_9_mutation_sensitivity(capsys, mutations_module):
    with criterion(9, capsys):
        cases = mutations_module.all_cases()
        targets = set()
        for case in cases:
            rep = case.report()
            got = tuple(sorted(set(rep.failing_tags())))
            assert got == case.expected, case.name
            if not case.note:
                assert case.expected == (case.target,), case.name
            for entry in rep.entries:
                if not entry.ok:
                    w = entry.witness
                    assert w is not None and tuple(w.lhs) != tuple(w.rhs)
            targets.add(case.target)
        with open(os.path.join(MUTATIONS, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        for entry in manifest:
            with open(os.path.join(MUTATIONS, entry["file"]), encoding="utf-8") as fh:
                doc = parse(fh.read())
            kind, obj = doc.lookup(entry["subject"])
            rep = BLOCK_KINDS[kind].validate(obj, entry["subject"])
            assert sorted(set(rep.failing_tags())) == entry["expected_failing_tags"]
            for name, k, o in doc.blocks:
                if name != entry["subject"] and k in VALIDATABLE:
                    assert BLOCK_KINDS[k].validate(o, name).ok, (entry["file"], name)
            targets.add(entry["target"])
        assert len(targets) >= 50


def test_criterion_10_frontend_determinism(capsys):
    with criterion(10, capsys):
        files = sorted(glob.glob(os.path.join(FIXTURES, "*.alg")))
        files += sorted(glob.glob(os.path.join(MUTATIONS, "*.alg")))
        assert files
        for path in files:
            with open(path, encoding="utf-8") as fh:
                src = fh.read()
            once = print_document(parse(src))
            assert print_document(parse(once)) == once, path

        path = os.path.join(FIXTURES, "gl2_braided.alg")
        assert main(["report", path]) == 0
        first = capsys.readouterr().out
        assert main(["report", path]) == 0
        second = capsys.readouterr().out
        assert first == second

        import braidalg.cli as cli

        doc = cli.__doc__
        assert "0" in doc and "1" in doc and "2" in doc
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["validate", os.path.join(MUTATIONS, "bas3.alg")]) == 1
        capsys.readouterr()
        assert main(["validate", os.path.join(FIXTURES, "missing.alg")]) == 2
        capsys.readouterr()
