import glob
import itertools
import os
import random
import time

import pytest

from braidalg.dsl import parse
from braidalg.errors import InvalidInput, UnknownFixture
from braidalg.groupx import (
    GROUP_FIXTURES,
    FiniteGroup,
    GroupXMod,
    alternating4,
    conjugation_example,
    cyclic,
    dihedral,
    group_catalog,
    klein_four,
    quaternion8,
    symmetric3,
    validate_group_braiding,
    validate_group_xmod,
)
from conftest import FIXTURES


@pytest.mark.parametrize("name", GROUP_FIXTURES)
def test_conjugation_example_fully_valid(name):
    g = group_catalog(name)
    assert g.order <= 12
    x = conjugation_example(g)
    start = time.monotonic()
    assert validate_group_xmod(x).ok
    assert validate_group_braiding(x).ok
    assert time.monotonic() - start < 1.0


def test_group_orders():
    assert cyclic(7).order == 7
    assert klein_four().order == 4
    assert dihedral(4).order == 8
    assert quaternion8().order == 8
    assert symmetric3().order == 6
    assert alternating4().order == 12


def test_commutator_convention():
    s3 = symmetric3()
    for a in range(6):
        for b in range(6):
            lhs = s3.commutator(a, b)
            rhs = s3.mul(s3.mul(s3.mul(a, b), s3.inv(a)), s3.inv(b))
            assert lhs == rhs


def test_inverse_and_identity():
    q8 = quaternion8()
    e = q8.identity
    for a in range(8):
        assert q8.mul(a, q8.inv(a)) == e
        assert q8.mul(e, a) == a


def test_abelian_detection():
    assert cyclic(6).is_abelian()
    assert klein_four().is_abelian()
    assert not symmetric3().is_abelian()
    assert not quaternion8().is_abelian()


def test_bad_tables_rejected():
    with pytest.raises(InvalidInput):
        FiniteGroup(2, ((0, 0), (0, 0)))  # no inverses for element 1
    with pytest.raises(InvalidInput):
        FiniteGroup(2, ((0, 1),))  # wrong shape
    # non-associative magma with an identity
    with pytest.raises(InvalidInput):
        FiniteGroup(
            3,
            (
                (0, 1, 2),
                (1, 2, 2),
                (2, 2, 1),
            ),
        )


def test_unknown_group_fixture():
    with pytest.raises(UnknownFixture):
        group_catalog("M11")


@pytest.mark.parametrize(
    "name", ["C\u00b2", "D\u0663"], ids=["C-superscript-2", "D-arabic-3"]
)
def test_group_catalog_sizes_take_ascii_digits_only(name):
    with pytest.raises(UnknownFixture):
        group_catalog(name)


def test_groupxmod_shape_checks():
    c2 = cyclic(2)
    with pytest.raises(InvalidInput):
        GroupXMod(c2, c2, ((0, 1),), (0, 0), None)  # action not |H| x |G|
    with pytest.raises(InvalidInput):
        GroupXMod(c2, c2, ((0, 1), (0, 1)), (0,), None)  # boundary too short


@pytest.mark.parametrize(
    "table,row,value",
    (("action", 0, 2), ("action", 2, -1), ("boundary", 0, 3), ("brace", 1, 2)),
)
def test_groupxmod_entries_must_be_element_indices(table, row, value):
    g, h = cyclic(2), cyclic(3)  # |G| = 2 and |H| = 3
    tables = {
        "action": [[0, 1], [0, 1], [0, 1]],
        "boundary": [[0, 0]],
        "brace": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    }
    tables[table][row][-1] = value

    def build():
        return GroupXMod(
            g,
            h,
            tuple(map(tuple, tables["action"])),
            tuple(tables["boundary"][0]),
            tuple(map(tuple, tables["brace"])),
        )

    with pytest.raises(InvalidInput, match=f"^{table} entries"):
        build()
    tables[table][row][-1] = 0
    build()


def test_trivial_xmod_valid():
    c3 = cyclic(3)
    trivial = tuple(tuple(range(3)) for _ in range(3))
    x = GroupXMod(c3, c3, trivial, (0, 0, 0), None)
    assert validate_group_xmod(x).ok


# The group laws against a per-tuple oracle that reads the raw tables: a
# law's verdict, first failing tuple and element sides, per entry.


def oracle_laws(x):
    """[(tag, dims, lhs, rhs)] of the crossed-module laws and, with a brace,
    the braiding laws, each side a function of an element tuple."""
    G, H, act, d, br = x.g.table, x.h.table, x.action, x.boundary, x.brace
    g, h = len(G), len(H)
    e = next(i for i in range(h) if all(H[i][j] == j for j in range(h)))
    ge = next(i for i in range(g) if all(G[i][j] == j for j in range(g)))
    ginv = [next(j for j in range(g) if G[i][j] == ge) for i in range(g)]
    hinv = [next(j for j in range(h) if H[i][j] == e) for i in range(h)]
    laws = [
        (
            "GrAct",
            (h, g, g),
            lambda a, u, v: act[a][G[u][v]],
            lambda a, u, v: G[act[a][u]][act[a][v]],
        ),
        ("GrAct", (h, h, g), lambda a, b, u: act[H[a][b]][u], lambda a, b, u: act[a][act[b][u]]),
        ("GrAct", (g,), lambda u: act[e][u], lambda u: u),
        ("GrHom", (g, g), lambda u, v: d[G[u][v]], lambda u, v: H[d[u]][d[v]]),
        ("XGr1", (h, g), lambda a, u: d[act[a][u]], lambda a, u: H[H[a][d[u]]][hinv[a]]),
        ("XGr2", (g, g), lambda u, v: act[d[u]][v], lambda u, v: G[G[u][v]][ginv[u]]),
    ]
    if br is None:
        return laws
    return laws + [
        ("BGr1", (h, h), lambda a, b: d[br[a][b]], lambda a, b: H[H[H[a][b]][hinv[a]]][hinv[b]]),
        ("BGr2", (g, g), lambda u, v: br[d[u]][d[v]], lambda u, v: G[G[G[u][v]][ginv[u]]][ginv[v]]),
        ("BGr3", (g, h), lambda u, a: br[d[u]][a], lambda u, a: G[u][act[a][ginv[u]]]),
        ("BGr4", (h, g), lambda a, u: br[a][d[u]], lambda a, u: G[act[a][u]][ginv[u]]),
        (
            "BGr5",
            (h, h, h),
            lambda a, b, c: br[a][H[b][c]],
            lambda a, b, c: G[br[a][b]][act[b][br[a][c]]],
        ),
        (
            "BGr6",
            (h, h, h),
            lambda a, b, c: br[H[a][b]][c],
            lambda a, b, c: G[act[a][br[b][c]]][br[a][c]],
        ),
    ]


def oracle_entries(x):
    """(tag, ok, first failing tuple, (lhs,), (rhs,)) per law, tuple by tuple."""
    out = []
    for tag, dims, lhs, rhs in oracle_laws(x):
        tuples = itertools.product(*map(range, dims))
        bad = next((t for t in tuples if lhs(*t) != rhs(*t)), None)
        out.append((tag, True) if bad is None else (tag, False, bad, (lhs(*bad),), (rhs(*bad),)))
    return out


def report_entries(x):
    """The validators' reports in the form of oracle_entries."""
    reports = [validate_group_xmod(x)] + ([validate_group_braiding(x)] if x.brace else [])
    out = []
    for e in (e for r in reports for e in r.entries):
        w = e.witness
        out.append((e.tag, True) if e.ok else (e.tag, False, w.basis_tuple, w.lhs, w.rhs))
    return out


def group_laws_spike_set():
    """The groupxmod blocks of the fixtures, the conjugation crossed module
    of every catalog group, and 60 seeded one-entry perturbations of the
    action, boundary and brace tables of those."""
    found = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "**", "*.alg"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            blocks = parse(fh.read()).blocks
        found += [obj for _, kind, obj in blocks if kind == "groupxmod"]
    assert len(found) == 11
    bases = found + [conjugation_example(group_catalog(n)) for n in GROUP_FIXTURES]
    rng, mutants = random.Random(31), []
    while len(mutants) < 60:
        x = rng.choice(bases)
        names = ["action", "boundary"] + ["brace"] * (x.brace is not None)
        name = rng.choice(names)
        rows = [list(r) for r in ((x.boundary,) if name == "boundary" else getattr(x, name))]
        r = rng.randrange(len(rows))
        c = rng.randrange(len(rows[r]))
        order = x.h.order if name == "boundary" else x.g.order
        if order == 1:
            continue
        rows[r][c] = (rows[r][c] + rng.randrange(1, order)) % order
        tables = {"action": x.action, "boundary": x.boundary, "brace": x.brace}
        tables[name] = tuple(rows[0]) if name == "boundary" else tuple(map(tuple, rows))
        mutants.append(GroupXMod(x.g, x.h, tables["action"], tables["boundary"], tables["brace"]))
    return bases + mutants


def test_group_laws_agree_with_a_per_tuple_oracle():
    xs = group_laws_spike_set()
    failing = 0
    for x in xs:
        want = oracle_entries(x)
        assert report_entries(x) == want, x
        failing += any(not e[1] for e in want)
    assert (len(xs), failing) == (91, 69)
