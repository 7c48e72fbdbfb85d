import argparse
import glob
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg.action import self_action, validate_assoc_action
from braidalg.algebra import ASSOC, catalog, from_constants
from braidalg.braid import CatBraiding
from braidalg import cli
from braidalg.cli import main
from braidalg.dsl import (
    BLOCK_KINDS,
    VALIDATABLE,
    _line_col,
    _offsets,
    _tokenize,
    parse,
    print_action_doc,
    print_cat_doc,
    print_catbraiding_doc,
    print_document,
    print_group_doc,
    print_groupxmod_doc,
)
from braidalg.errors import (
    DslError,
    DslSyntaxError,
    FieldMismatch,
    UnknownReference,
)
from braidalg.fields import GF, QQ, _is_prime
from braidalg.groupx import conjugation_example, cyclic
from braidalg.icat import discrete_cat
from braidalg.linear import Space, zero_bilmap

from conftest import FIXTURES, MUTATIONS, ROOT, densify, load_script


def all_fixture_files():
    files = sorted(glob.glob(os.path.join(FIXTURES, "*.alg")))
    files += sorted(glob.glob(os.path.join(MUTATIONS, "*.alg")))
    return files


@pytest.mark.parametrize("path", all_fixture_files(), ids=os.path.basename)
def test_parse_print_idempotent(path):
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    once = print_document(parse(source))
    twice = print_document(parse(once))
    assert once == twice


# A and B share a basis but not a product: a block naming its algebra by
# the space alone would reprint `act` and `c` over A only.
SHARED_BASIS = """field Q
algebra A basis x { x*x = x; }
algebra B basis x { }
bilinear s1 : A, B -> B { (x, x) = x; }
bilinear s2 : B, A -> B { }
action act : A on B { star1 = s1; star2 = s2; }
map i : B -> A { x |-> x; }
cat c { flavor = assoc; c1 = A; c0 = B; s = i; t = i; e = i; }
"""


def test_reprint_keeps_the_algebras_a_block_names():
    doc = parse(SHARED_BASIS)
    again = parse(print_document(doc))
    for name in ("act", "c"):
        assert again.lookup(name) == doc.lookup(name)
    report = validate_assoc_action(doc.lookup("act")[1])
    assert report.ok
    assert validate_assoc_action(again.lookup("act")[1]) == report


def _idempotent():
    return from_constants(Space(QQ, ("x",)), {("x", "x"): {"x": 1}})


def test_print_action_doc_of_a_self_action():
    # star1 is star2, so it is printed once and named twice
    assert print_action_doc(self_action(_idempotent()), "a") == (
        "field Q\n"
        "algebra a_M basis x {\n  x*x = x;\n}\n"
        "bilinear a_star1 : a_M, a_M -> a_M {\n  (x, x) = x;\n}\n"
        "action a : a_M on a_M {\n  star1 = a_star1;\n  star2 = a_star1;\n}\n"
    )


def test_print_group_doc():
    assert print_group_doc(cyclic(2), "G") == (
        "group G {\n  table =\n    0 1,\n    1 0;\n}\n"
    )


def test_print_groupxmod_doc_prints_an_equal_group_once():
    assert print_groupxmod_doc(conjugation_example(cyclic(2)), "X") == (
        "field Q\n"
        "group X_G {\n  table =\n    0 1,\n    1 0;\n}\n"
        "groupxmod X {\n  g = X_G;\n  h = X_G;\n"
        "  action =\n    0 1,\n    0 1;\n  boundary = 0 1;\n"
        "  brace =\n    0 0,\n    0 0;\n}\n"
    )


def test_print_cat_doc_of_a_discrete_cat():
    # s is t is e, so one map block serves all three
    assert print_cat_doc(discrete_cat(_idempotent(), ASSOC), "c") == (
        "field Q\n"
        "algebra c_C1 basis x {\n  x*x = x;\n}\n"
        "map c_s : c_C1 -> c_C1 {\n  x |-> x;\n}\n"
        "cat c {\n  flavor = assoc;\n  c1 = c_C1;\n  c0 = c_C1;\n"
        "  s = c_s;\n  t = c_s;\n  e = c_s;\n}\n"
    )


@pytest.mark.parametrize(
    "path", all_fixture_files(), ids=lambda p: os.path.relpath(p, FIXTURES)
)
def test_committed_fixtures_are_canonical(path):
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    assert print_document(parse(source)) == source


# i and j are equal maps, m1 and m2 equal bilinears
TWIN_PARTS = """field Q
algebra A basis x { x*x = x; }
map i : A -> A { x |-> x; }
map j : A -> A { x |-> x; }
bilinear m1 : A, A -> A { (x, x) = x; }
bilinear m2 : A, A -> A { (x, x) = x; }
action act : A on A { star1 = m1; star2 = m2; }
cat c { flavor = assoc; c1 = A; c0 = A; s = i; t = j; e = j; }
"""


def test_reprint_prints_an_equal_map_or_bilinear_once():
    doc = parse(TWIN_PARTS)
    text = print_document(doc)
    assert text == (
        "field Q\n"
        "algebra A basis x {\n  x*x = x;\n}\n"
        "map i : A -> A {\n  x |-> x;\n}\n"
        "bilinear m1 : A, A -> A {\n  (x, x) = x;\n}\n"
        "action act : A on A {\n  star1 = m1;\n  star2 = m1;\n}\n"
        "cat c {\n  flavor = assoc;\n  c1 = A;\n  c0 = A;\n"
        "  s = i;\n  t = i;\n  e = i;\n}\n"
    )
    again = parse(text)
    for name in ("act", "c"):
        assert again.lookup(name) == doc.lookup(name)


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """[(command, run outputs)] of every command of scripts/output_digests.py
    (construct ones read from cli.CONSTRUCT_TAKES), over every fixture and
    mutation file, run from the repository root as the script runs them."""
    digests = load_script("output_digests")
    outdir = str(tmp_path_factory.mktemp("digests"))
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return [
            (cmd, digests.run(cmd, outdir))
            for path in digests.input_files()
            for cmd in digests.commands(path)
        ]
    finally:
        os.chdir(cwd)


def test_cli_outputs_match_the_committed_digests(cli_outputs):
    # tests/output_digests.txt is the script's output; a change that moves
    # an output on purpose regenerates it and names the moved lines
    digests = load_script("output_digests")
    lines = [f"{digests.digest(out)}  {' '.join(cmd)}" for cmd, out in cli_outputs]
    with open(os.path.join(ROOT, "tests", "output_digests.txt"), encoding="utf-8") as fh:
        assert lines == fh.read().splitlines()


def test_every_construct_output_is_its_own_reprint(cli_outputs):
    built, not_canonical = 0, []
    for cmd, (code, _, _, written) in cli_outputs:
        if cmd[0] != "construct" or code != "0":
            continue
        out = written.decode("utf-8")
        built += 1
        if print_document(parse(out)) != out:
            not_canonical.append(f"{cmd[1]} {cmd[2]} --subject {cmd[4]}")
    assert built > 200
    assert not_canonical == []


@pytest.mark.parametrize("field", (QQ, GF(5)), ids=str)
def test_construct_xc_prints_a_zero_kernel_it_can_read(field, tmp_path):
    # C = (A, A, id, id, id) with tau = 0 has ker s = 0, so xc(C) acts on a
    # module of dimension 0, printed with an empty basis list
    a = catalog("Ab(2)", field)
    c = CatBraiding(discrete_cat(a, ASSOC), zero_bilmap(a.space, a.space, a.space))
    src, out = tmp_path / "d.alg", tmp_path / "d_xc.alg"
    src.write_text(print_catbraiding_doc(c, "d"), encoding="utf-8")
    assert main(["construct", "xc", str(src), "--subject", "d", "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "algebra d_xc_M basis {\n" in text
    assert print_document(parse(text)) == text
    assert main(["validate", str(out)]) == 0
    assert main(["roundtrip", str(out)]) == 0
    cx = ["construct", "cx", str(out), "--subject", "d_xc", "-o", str(tmp_path / "cx.alg")]
    assert main(cx) == 0


def test_make_fixtures_writes_the_committed_fixtures():
    docs = load_script("make_fixtures").documents()
    committed = sorted(glob.glob(os.path.join(FIXTURES, "*.alg")))
    assert sorted(docs) == [os.path.basename(p) for p in committed]
    for fname, text in docs.items():
        with open(os.path.join(FIXTURES, fname), "rb") as fh:
            assert fh.read() == text.encode("utf-8"), fname


def test_benchmark_golden_digests_cover_the_corpus():
    # the benchmark looks up a golden report digest per committed file, so
    # a fixture added or renamed without a digest breaks its runs
    with open(os.path.join(ROOT, "braidbench", "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    paths = {os.path.relpath(p, ROOT).replace(os.sep, "/") for p in all_fixture_files()}
    assert paths == set(golden)


def test_validate_valid_fixture_exits_zero(capsys):
    assert main(["validate", os.path.join(FIXTURES, "mat2_braided.alg")]) == 0
    out = capsys.readouterr().out
    assert "BAs1: pass" in out


def test_validate_mutation_exits_one(capsys):
    path = os.path.join(MUTATIONS, "bas3.alg")
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "BAs3: fail" in out


def test_validate_missing_file_exits_two(capsys):
    assert main(["validate", os.path.join(FIXTURES, "no_such.alg")]) == 2


def test_syntax_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field Q algebra A basis x { x*x = ; }")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data,at", ((b"\xff\xfe", 0), (b"field Q\n\x80\n", 8)), ids=("bom", "stray")
)
def test_non_utf8_file_exits_two(data, at, tmp_path, capsys):
    bad = tmp_path / "bin.alg"
    bad.write_bytes(data)
    assert main(["report", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: 'utf-8' codec can't decode byte 0x{data[at]:x} in position {at}:"
        " invalid start byte\n"
    )


def test_json_reports_are_byte_identical(capsys):
    path = os.path.join(FIXTURES, "gl2_braided.alg")
    assert main(["report", path]) == 0
    first = capsys.readouterr().out
    assert main(["report", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    items = json.loads(first)
    assert all(i["status"] == "pass" for i in items)
    assert all("witness" not in i for i in items)


def test_the_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    # the first call builds the tree (the parser and its four subcommands),
    # later calls reuse it, and no option of one call reaches the next
    built, parsed = [], []
    init, parse_args = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def recorded_parse(self, *args, **kwargs):
        ns = parse_args(self, *args, **kwargs)
        parsed.append(vars(ns))
        return ns

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded_parse)
    cli.build_parser.cache_clear()
    path = os.path.join(FIXTURES, "mat2_braided.alg")
    assert main(["validate", path]) == 0
    fresh = capsys.readouterr().out
    assert len(built) == 5
    assert main(["validate", path, "--subject", "mat2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == fresh
    assert [(p["subject"], p["format"]) for p in parsed] == [
        (None, "text"),
        ("mat2", "json"),
        (None, "text"),
    ]
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].endswith("error: the following arguments are required: file\n")
    assert len(built) == 5


def test_failing_report_carries_witness(capsys):
    path = os.path.join(MUTATIONS, "blie3.alg")
    assert main(["report", path, "--subject", "blie3"]) == 1
    items = json.loads(capsys.readouterr().out)
    fails = [i for i in items if i["status"] == "fail"]
    assert fails and all("witness" in i for i in fails)
    for i in fails:
        assert i["witness"]["lhs"] != i["witness"]["rhs"]


def test_roundtrip_command(capsys):
    assert main(["roundtrip", os.path.join(FIXTURES, "mat2_braided.alg")]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out


def test_construct_emits_reparseable_output(tmp_path, capsys):
    out = tmp_path / "cx.alg"
    rc = main(
        [
            "construct",
            "cx",
            os.path.join(FIXTURES, "mat2_braided.alg"),
            "--subject",
            "mat2",
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    doc = parse(out.read_text())
    assert main(["validate", str(out)]) == 0


def test_construct_xliefy_char_two_guard(capsys):
    rc = main(
        [
            "construct",
            "xliefy",
            os.path.join(FIXTURES, "mat2_f2_braided.alg"),
            "--subject",
            "mat2_f2",
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


ARTICLE = {"algebra": "an", "braiding": "a"}


@pytest.mark.parametrize(
    "kind,path,subject,got,want",
    [
        ("liefy", "mat2_braided.alg", "mat2", "braiding", "algebra"),
        ("catliefy", "mat2_cat.alg", "mat2_cat_C0", "algebra", "braiding"),
    ],
)
def test_construct_names_the_block_kind_it_needs(
    kind, path, subject, got, want, capsys
):
    argv = ["construct", kind, os.path.join(FIXTURES, path), "--subject", subject]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {kind} needs {ARTICLE[want]} {want} subject, "
        f"but {subject!r} is {ARTICLE[got]} {got}\n"
    )


def test_a_large_sparse_algebra_parses_in_little_memory():
    # a map stores only the nonzero entries of its images: 120 labels and
    # one product, where a dense tensor would hold 120**3 stored zeros
    labels = ", ".join(f"x{i}" for i in range(120))
    source = f"field Q\nalgebra A basis {labels} {{\n  x0*x1 = x2;\n}}\n"
    tracemalloc.start()
    try:
        parse(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_unknown_reference_position():
    src = "field Q\nalgebra A basis x {\n  x*x = y;\n}\n"
    with pytest.raises((UnknownReference, DslSyntaxError)) as exc:
        parse(src)
    assert getattr(exc.value, "line", 3) == 3


def test_duplicate_product_rejected():
    src = "field Q\nalgebra A basis x {\n  x*x = x;\n  x*x = 2 x;\n}\n"
    with pytest.raises(DslError):
        parse(src)


def test_map_image_listed_twice_exits_two(tmp_path, capsys):
    with open(os.path.join(FIXTURES, "upper3_cat.alg"), encoding="utf-8") as fh:
        src = fh.read()
    first = "  n_e12 |-> e12;\n"
    assert src.count(first) == 2
    src = src.replace(first, first + "  n_e12 |-> e11;\n", 1)
    line = src[: src.index(first) + len(first)].count("\n") + 1
    bad = tmp_path / "bad.alg"
    bad.write_text(src, encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {line}:3: image of n_e12 listed twice"]


def _entries(src):
    doc = parse(src)
    return [
        (name, e.tag, e.ok)
        for name, kind, obj in doc.blocks
        if kind in VALIDATABLE
        for e in BLOCK_KINDS[kind].validate(obj, name).entries
    ]


def test_a_pass_over_q_is_a_pass_over_fp():
    """An integral structure that satisfies an axiom over Q satisfies it
    mod every prime, so no entry passing over Q may fail over F5 or F7."""
    sources = []
    for path in all_fixture_files():
        with open(path, "r", encoding="utf-8") as fh:
            src = fh.read()
        if src.startswith("field Q\n") and "/" not in src:
            sources.append((os.path.basename(path), src))
    assert len(sources) >= 50
    for name, src in sources:
        over_q = _entries(src)
        for p in (5, 7):
            over_p = _entries(src.replace("field Q\n", f"field Fp {p}\n", 1))
            assert [e[:2] for e in over_p] == [e[:2] for e in over_q], name
            for q_entry, p_entry in zip(over_q, over_p):
                assert p_entry[2] or not q_entry[2], (name, p, q_entry[:2])


def test_a_zero_term_adds_nothing():
    # a bare `0` is the zero vector, and so is a term with the scalar 0
    head = "field Q\nalgebra A basis x, y {\n"
    zeros = parse(
        head + "  x*x = 0;\n  x*y = 0 x + y;\n}\nmap f : A -> A {\n  x |-> 0;\n  y |-> y;\n}\n"
    )
    plain = parse(head + "  x*y = y;\n}\nmap f : A -> A {\n  y |-> y;\n}\n")
    assert zeros == plain
    assert print_document(zeros) == print_document(plain)


def test_antisymmetric_completion():
    src = (
        "field Q\n"
        "algebra L basis x, y, z antisymmetric {\n"
        "  x*y = z;\n"
        "}\n"
    )
    doc = parse(src)
    _, alg = doc.lookup("L")
    assert densify(alg.mult.on_basis(1, 0), 3) == tuple(
        alg.field.neg(c) for c in densify(alg.mult.on_basis(0, 1), 3)
    )


def test_explicit_k_must_match_forced_formula(tmp_path):
    base = os.path.join(MUTATIONS, "ast1.alg")
    with open(base, "r", encoding="utf-8") as fh:
        src = fh.read()
    # append a bogus explicit k referencing existing maps
    m = re.search(r"  e = (\w+);\n", src)
    assert m is not None
    ref = m.group(1)
    src = src.replace(m.group(0), m.group(0) + f"  k = {ref}, {ref};\n", 1)
    with pytest.raises(DslError):
        parse(src)


def test_explicit_k_equal_to_the_forced_formula_is_accepted(tmp_path):
    # k = (V, id) on C1, V = id - e.t: m_x |-> m_x - n_x and n_x |-> 0
    with open(os.path.join(FIXTURES, "mat2_cat.alg"), encoding="utf-8") as fh:
        plain = fh.read()
    labels = [f"e{i}{j}" for i in (1, 2) for j in (1, 2)]
    kp = "".join(f"  m_{x} |-> m_{x} - n_{x};\n" for x in labels)
    kq = "".join(f"  {b}_{x} |-> {b}_{x};\n" for b in "mn" for x in labels)
    maps = "".join(
        f"map {name} : mat2_cat_C1 -> mat2_cat_C1 {{\n{rows}}}\n"
        for name, rows in (("kp", kp), ("kq", kq))
    )
    src = plain.replace("cat mat2_cat_cat {", maps + "cat mat2_cat_cat {", 1)
    src = src.replace("  e = mat2_cat_e;\n", "  e = mat2_cat_e;\n  k = kp, kq;\n", 1)
    assert src.count("k = kp, kq;") == 1
    assert parse(src).lookup("mat2_cat_cat") == parse(plain).lookup("mat2_cat_cat")
    path = tmp_path / "k.alg"
    path.write_text(src, encoding="utf-8")
    assert main(["validate", str(path)]) == 0


def test_validate_unknown_subject_exits_two(capsys):
    path = os.path.join(FIXTURES, "mat2_braided.alg")
    assert main(["validate", path, "--subject", "nonexistent"]) == 2


@pytest.mark.parametrize(
    "old,new",
    (
        ("boundary = 0 1 2 3 4 5;", "boundary = 0 1 2 3 4 9;"),
        ("    0 1 5 4 3 2,", "    0 1 5 4 3 6,"),
        ("    0 0 3 3 4 4,", "    0 0 3 3 4 6,"),
    ),
    ids=("boundary", "action", "brace"),
)
def test_out_of_range_group_entry_exits_two(old, new, tmp_path, capsys):
    with open(os.path.join(FIXTURES, "s3_group.alg"), encoding="utf-8") as fh:
        src = fh.read()
    assert src.count(old) == 1
    bad = tmp_path / "bad.alg"
    bad.write_text(src.replace(old, new), encoding="utf-8")
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "new,code",
    (
        ("0" * 5001 + " 1", 0),
        ("0 " + "0" * 5000 + "1", 0),
        ("1" + "0" * 5000 + " 1", 2),
    ),
    ids=("zeros", "padded-one", "5001-digits"),
)
def test_group_integer_past_the_int_digit_limit(new, code, tmp_path, capsys):
    # int() refuses more than 4300 digits; leading zeros do not count
    with open(os.path.join(FIXTURES, "s3_group.alg"), encoding="utf-8") as fh:
        src = fh.read()
    old = "boundary = 0 1 2 3 4 5;"
    bad = tmp_path / "bad.alg"
    bad.write_text(src.replace(old, f"boundary = {new} 2 3 4 5;"), encoding="utf-8")
    assert main(["report", str(bad)]) == code
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        assert err == []
        assert parse(bad.read_text(encoding="utf-8")).blocks == parse(src).blocks
    else:
        with pytest.raises(DslSyntaxError) as exc:
            parse(bad.read_text(encoding="utf-8"))
        line = src[: src.index(old)].count("\n") + 1
        assert (exc.value.line, exc.value.col) == (line, 14)
        assert err == [f"error: {exc.value}"]
        assert str(exc.value).endswith("integer of 5001 digits is too large")


@pytest.mark.parametrize(
    "src,old,new",
    (
        ("s3_group.alg", "boundary = 0 1", "boundary = ² 0 1"),
        ("s3_group.alg", "3 4 5;", "3 4 ٥;"),
        ("field Q\nalgebra A basis x {\n  x*x = 1 x;\n}\n", "1 x", "² x"),
        ("field Q\nalgebra A basis x {\n  x*x = 1 x;\n}\n", "1 x", "٣ x"),
    ),
    ids=("group-superscript", "group-arabic-indic", "scalar-superscript",
         "scalar-arabic-indic"),
)
def test_non_ascii_digit_is_an_unexpected_character(src, old, new, tmp_path, capsys):
    # str.isdigit() is true for these characters; only ASCII 0-9 make numbers
    if src.endswith(".alg"):
        with open(os.path.join(FIXTURES, src), encoding="utf-8") as fh:
            src = fh.read()
    assert src.count(old) == 1
    text = src.replace(old, new)
    ch = next(c for c in new if not c.isascii())
    at = text.index(ch)
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    bad = tmp_path / "bad.alg"
    bad.write_text(text, encoding="utf-8")
    assert main(["report", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {line}:{col}: unexpected character {ch!r}"]


@pytest.mark.parametrize("field", ("Q", "Fp 5"))
def test_scalar_past_the_int_digit_limit(field, tmp_path, capsys):
    # int() refuses more than 4300 digits; leading zeros do not count, on
    # either side of the slash
    def doc(scalar):
        return f"field {field}\nalgebra A basis x {{\n  x*x = {scalar} x;\n}}\n"

    padded = parse(doc("1/" + "0" * 5000 + "3"))
    x_times_x = padded.lookup("A")[1].mult.on_basis(0, 0)
    assert densify(x_times_x, 1) == (padded.field.of("1/3"),)
    for scalar in ("7" * 5000, "1/" + "7" * 5000):
        with pytest.raises(DslSyntaxError) as exc:
            parse(doc(scalar))
        assert str(exc.value) == "3:9: scalar of 5000 digits is too large"
        bad = tmp_path / "bad.alg"
        bad.write_text(doc(scalar), encoding="utf-8")
        assert main(["report", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {exc.value}"]


def test_is_prime_matches_trial_division():
    for n in range(3000):
        assert _is_prime(n) == (n > 1 and all(n % d for d in range(2, n))), n
    # a strong pseudoprime to every prime base up to 23
    assert not _is_prime(3825123056546413051)


def test_large_prime_characteristic_parses_quickly():
    t0 = time.perf_counter()
    doc = parse("field Fp 1000000000000000003\n")
    assert time.perf_counter() - t0 < 0.2
    assert doc.field.characteristic == 1000000000000000003


@pytest.mark.parametrize("n", (561, 2047, 3215031751))
def test_pseudoprime_characteristics_rejected(n):
    with pytest.raises(FieldMismatch, match="is not prime"):
        parse(f"field Fp {n}\n")


@pytest.mark.parametrize("digits", ("0", "000"))
def test_characteristic_zero_is_refused(digits):
    # Field(0) is the rationals; `Fp 0` must not silently mean Q
    with pytest.raises(FieldMismatch) as exc:
        parse(f"field Fp {digits}\n")
    assert str(exc.value) == f"1:10: characteristic {digits} is not prime"


def test_characteristic_beyond_the_exact_range_is_refused():
    with pytest.raises(FieldMismatch, match="is too large") as exc:
        parse("field Fp 9999999999999999999999999\n")
    assert (exc.value.line, exc.value.col) == (1, 10)


def test_characteristic_past_the_int_digit_limit_is_too_large():
    # more digits than int() converts; must not read as "is not prime"
    with pytest.raises(FieldMismatch, match="is too large") as exc:
        parse("field Fp " + "9" * 5000 + "\n")
    assert (exc.value.line, exc.value.col) == (1, 10)


def test_characteristic_length_check_keeps_the_message():
    digits = "9" * 25
    with pytest.raises(FieldMismatch) as exc:
        parse(f"field Fp {digits}\n")
    assert str(exc.value) == (
        f"1:10: characteristic {digits} is too large: primality is decided "
        "only below 3.3e24"
    )
    with pytest.raises(FieldMismatch) as long_exc:
        parse("field Fp 000" + digits + "\n")
    assert str(long_exc.value) == str(exc.value)


def test_cli_import_loads_every_module_and_no_dataclasses():
    # A fresh interpreter without `site`, so that nothing else loads first.
    # `dataclasses` loads `inspect` and compiles methods for every class.
    # Every module must still load: braidbench/tracer.py binds them all
    # right after `import braidalg.cli` (see the next test), which rules
    # out per-command imports.
    src = os.path.join(ROOT, "src")
    code = "import sys, braidalg.cli; print(*sorted(sys.modules))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(run.stdout.split())
    assert not loaded & {"dataclasses", "inspect"}
    package = os.path.join(src, "braidalg")
    modules = {"braidalg"} | {
        "braidalg." + name[:-3] for name in os.listdir(package) if name.endswith(".py")
    }
    assert modules <= loaded


def test_the_benchmark_tracer_installs_after_the_cli_import():
    # braidbench/tracer.py binds about 60 names of the package right after
    # `import braidalg.cli`: a module not loaded yet fails it with a
    # KeyError and a renamed name with an AttributeError, either of which
    # breaks every `--trace 1` run.  Installing reads braidbench/ and
    # edits nothing there.
    code = (
        "import sys, braidalg.cli; "
        f"sys.path.insert(0, {os.path.join(ROOT, 'braidbench')!r}); "
        "from tracer import Tracer; Tracer().install()"
    )
    subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        check=True,
    )


def test_tracer_sees_the_cli_dispatch():
    # braidbench/tracer.py rebinds module attributes only: a validator the
    # CLI reached through a stored function object would go uncounted.
    runs = [
        ["report", os.path.join(FIXTURES, name)]
        for name in ("mat2_cat.alg", "s3_group.alg", "sl2_braided.alg")
    ]
    mat2 = os.path.join(FIXTURES, "mat2_braided.alg")
    runs.append(["construct", "cx", mat2, "--subject", "mat2"])
    code = "\n".join(
        (
            "import contextlib, io, json, sys",
            "import braidalg.cli",
            f"sys.path.insert(0, {os.path.join(ROOT, 'braidbench')!r})",
            "from tracer import Tracer",
            "tracer = Tracer()",
            "tracer.install()",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    codes = [braidalg.cli.main(argv) for argv in json.loads(sys.argv[1])]",
            "print(json.dumps([codes, tracer.calls]))",
        )
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    codes, calls = json.loads(run.stdout)
    assert codes == [0, 0, 0, 0]
    for metric in (
        "icat.validate",
        "braid.validate",
        "groupx.validate",
        "action.validate",
        "xmod.validate",
        "braid.cx",
        "dsl.print",
    ):
        assert calls.get(metric, 0) > 0, metric


ONE_ALGEBRA = "field Q\nalgebra A basis x {\n}\n"


@pytest.mark.parametrize(
    "subject,message",
    (
        (
            ["--subject", "A"],
            "'A' is an algebra, expected one of "
            "('action', 'xmod', 'braiding', 'cat', 'groupxmod')",
        ),
        ([], "document has no action/xmod/braiding/cat/groupxmod blocks"),
    ),
    ids=("subject", "document"),
)
def test_validate_names_the_validatable_kinds(subject, message, tmp_path, capsys):
    path = tmp_path / "a.alg"
    path.write_text(ONE_ALGEBRA, encoding="utf-8")
    assert main(["validate", str(path)] + subject) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_unknown_declaration_lists_every_keyword():
    with pytest.raises(DslSyntaxError) as exc:
        parse(ONE_ALGEBRA + "algebr B basis y {\n}\n")
    assert (exc.value.line, exc.value.col) == (4, 1)
    assert str(exc.value) == "4:1: expected a declaration, found 'algebr'"
    assert exc.value.expected == (
        "algebra",
        "map",
        "bilinear",
        "action",
        "xmod",
        "braiding",
        "cat",
        "group",
        "groupxmod",
    )


@pytest.mark.parametrize(
    "body,message",
    (
        ("algebra B basis y, z {\n  y*z = y;\n  y*z = z;\n}\n", "6:3: product y*z"),
        ("map f : A -> A {\n  x |-> x;\n   x |-> 0;\n}\n", "6:4: image of x"),
        (
            "bilinear b : A, A -> A {\n  (x, x) = x;\n  (x, x) = 0;\n}\n",
            "6:4: pair (x, x)",
        ),
    ),
    ids=("product", "image", "pair"),
)
def test_row_listed_twice_keeps_its_position(body, message):
    with pytest.raises(DslSyntaxError) as exc:
        parse(ONE_ALGEBRA + body)
    assert str(exc.value) == f"{message} listed twice"


# an algebra A, a 2-dim algebra B, a bilinear b and a map d, on lines 1-9
PRELUDE = (
    "field Q\nalgebra A basis x {\n}\nalgebra B basis y, z {\n}\n"
    "bilinear b : A, A -> A {\n}\nmap d : A -> A {\n}\n"
)
LIE_ACTION = "action act : A on A {\n  dot = b;\n}\n"
# the discrete assoc cat C on A, on lines 10-17 after PRELUDE
DISCRETE_CAT = "cat C {\n  flavor = assoc;\n  c1 = A;\n  c0 = A;\n  s = d;\n  t = d;\n  e = d;\n}\n"
# a bilinear c and a map f that fit no part over A alone, on lines 10-11
WRONG_C = "bilinear c : B, A -> A {\n}\n"
WRONG_F = "map f : B -> A {\n}\n"


@pytest.mark.parametrize(
    "source,message",
    (
        ("field Fp 5\nalgebra A basis x {\n  x*x = 1/5 x;\n}\n",
         "3:9: scalar '1/5' has no value in F5"),
        ("field Q\nalgebra A basis x {\n  x*x = 2;\n}\n",
         "3:10: scalar term needs a basis label"),
        ("field Q\nalgebra A basis x {\n  x*x y;\n}\n", "3:7: expected '=', found 'y'"),
        (PRELUDE + "map e : d -> A {\n}\n", "10:9: 'd' is a map, expected algebra"),
        (PRELUDE + "xmod X {\n  action = A;\n}\n",
         "11:12: 'A' is an algebra, expected action"),
        (PRELUDE + LIE_ACTION + "braiding Br {\n  xmod = act;\n}\n",
         "14:10: 'act' is an action, expected xmod"),
        (PRELUDE + "algebra A basis w {\n}\n", "10:9: duplicate name 'A'"),
        (PRELUDE + "xmod X {\n  foo = d;\n}\n", "11:3: unknown entry 'foo'"),
        (PRELUDE + "xmod X {\n}\n", "10:6: missing entry 'action'"),
        (PRELUDE + "xmod X {\n  boundary = d;\n  boundary = d;\n}\n",
         "12:3: duplicate entry 'boundary'"),
        ("field R\n", "1:7: unknown field 'R'"),
        ("field Q\nalgebra A basis x, x {\n}\n", "2:9: duplicate basis labels"),
        (PRELUDE + "action act : A on A {\n  dot = b;\n  star1 = b;\n}\n",
         "10:8: an action has either dot or star1/star2, not both"),
        (PRELUDE + "bilinear c : B, A -> A {\n}\naction act : A on A {\n  dot = c;\n}\n",
         "13:9: bilinear 'c' has the wrong signature"),
        (PRELUDE + "map f : B -> A {\n}\n" + LIE_ACTION
         + "xmod X {\n  action = act;\n  boundary = f;\n}\n",
         "17:14: boundary must map the module to the actor"),
        (PRELUDE + LIE_ACTION + "xmod X {\n  action = act;\n  boundary = d;\n}\n"
         + "braiding Br {\n  xmod = X;\n  tau = b;\n}\n",
         "17:10: a braiding is over an xmod or a cat, not both"),
        (PRELUDE + "braiding Br {\n  brace = b;\n  tau = b;\n}\n",
         "10:10: a braiding is over an xmod or a cat, not both"),
        (PRELUDE + DISCRETE_CAT + "braiding Br {\n  cat = C;\n  tau = b;\n  brace = b;\n}\n",
         "18:10: a braiding is over an xmod or a cat, not both"),
        (PRELUDE + "braiding Br {\n  brace = b;\n}\n", "10:10: missing entry 'xmod'"),
        (PRELUDE + "cat C {\n  flavor = both;\n}\n", "11:12: flavor must be assoc or lie"),
        (PRELUDE + "map f : B -> A {\n}\ncat C {\n  flavor = assoc;\n  c1 = A;\n"
         "  c0 = A;\n  s = f;\n  t = d;\n  e = d;\n}\n",
         "16:7: map 'f' has the wrong signature"),
        (PRELUDE + WRONG_C + "action act : A on A {\n  star1 = c;\n  star2 = b;\n}\n",
         "13:11: bilinear 'c' has the wrong signature"),
        (PRELUDE + WRONG_C + "action act : A on A {\n  star1 = b;\n  star2 = c;\n}\n",
         "14:11: bilinear 'c' has the wrong signature"),
        (PRELUDE + WRONG_C + LIE_ACTION + "xmod X {\n  action = act;\n  boundary = d;\n}\n"
         + "braiding Br {\n  xmod = X;\n  brace = c;\n}\n",
         "21:11: bilinear 'c' has the wrong signature"),
        (PRELUDE + WRONG_C + DISCRETE_CAT + "braiding Br {\n  cat = C;\n  tau = c;\n}\n",
         "22:9: bilinear 'c' has the wrong signature"),
        (PRELUDE + WRONG_F + DISCRETE_CAT.replace("t = d", "t = f"),
         "17:7: map 'f' has the wrong signature"),
        (PRELUDE + WRONG_F + DISCRETE_CAT.replace("e = d", "e = f"),
         "18:7: map 'f' has the wrong signature"),
        # a group or groupxmod its record refuses is placed at the block name
        ("field Q\ngroup G {\n  table = 0 1, 1 5;\n}\n",
         "2:7: table entries must be element indices"),
        ("field Q\ngroup G {\n  table = 0;\n}\ngroupxmod X {\n  g = G;\n  h = G;\n"
         "  action = 0;\n  boundary = 1;\n}\n",
         "5:11: boundary entries must be element indices of H"),
    ),
    ids=("scalar", "label", "separator", "kind", "an_algebra", "an_action", "name", "entry",
         "missing", "repeated", "field", "labels", "dot_and_star", "signature", "boundary",
         "xmod_and_cat", "brace_and_tau", "cat_and_brace", "brace_alone", "flavor", "map",
         "star1", "star2", "brace", "tau", "cat_t", "cat_e", "group", "groupxmod"),
)
def test_each_dsl_refusal_exits_two_at_its_position(source, message, tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(source, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


# N is neither associative nor Lie: (xx)x = x but x(xx) = 0, and xx != 0;
# m is its product and i its identity
NOT_FLAVORED = (
    "field Q\nalgebra N basis x, y {\n  x*x = y;\n  y*x = x;\n}\n"
    "bilinear m : N, N -> N {\n  (x, x) = y;\n  (y, x) = x;\n}\n"
    "map i : N -> N {\n  x |-> x;\n  y |-> y;\n}\n"
)
XMOD_REFUSAL = {
    "assoc": "crossed module algebras must be associative",
    "lie": "crossed module algebras must be Lie",
}
CAT_REFUSAL = {"assoc": "C1 and C0 must be assoc algebras", "lie": "C1 and C0 must be lie algebras"}


@pytest.mark.parametrize("flavor", ("assoc", "lie"))
@pytest.mark.parametrize(
    "subject,refusal",
    (
        ("act", {"assoc": "action algebras must be associative",
                 "lie": "action algebras must be Lie"}),
        ("X", XMOD_REFUSAL),
        ("BX", XMOD_REFUSAL),
        ("C", CAT_REFUSAL),
        ("BC", CAT_REFUSAL),
    ),
    ids=("action", "xmod", "xmod_braiding", "cat", "cat_braiding"),
)
def test_validate_refuses_algebras_without_the_flavor(subject, refusal, flavor, tmp_path, capsys):
    # the constructions refuse these structures by their flavor check, so
    # validate does too, with the same message, before any sweep
    action = "dot = m;" if flavor == "lie" else "star1 = m;\n  star2 = m;"
    source = NOT_FLAVORED + (
        f"action act : N on N {{\n  {action}\n}}\n"
        "xmod X {\n  action = act;\n  boundary = i;\n}\n"
        "braiding BX {\n  xmod = X;\n  brace = m;\n}\n"
        f"cat C {{\n  flavor = {flavor};\n  c1 = N;\n  c0 = N;\n"
        "  s = i;\n  t = i;\n  e = i;\n}\n"
        "braiding BC {\n  cat = C;\n  tau = m;\n}\n"
    )
    path = tmp_path / "unflavored.alg"
    path.write_text(source, encoding="utf-8")
    for command in ("validate", "report"):
        assert main([command, str(path), "--subject", subject]) == 2
        assert capsys.readouterr() == ("", f"error: {refusal[flavor]}\n")


def test_comments_run_from_hash_to_the_end_of_the_line():
    with open(os.path.join(FIXTURES, "heis3_braided.alg"), encoding="utf-8") as fh:
        plain = fh.read()
    commented = "".join(
        f"# line {n}\n{line}# trailing, with ; and {{\n"
        for n, line in enumerate(plain.splitlines())
    )
    assert parse(commented) == parse(plain)


# ---------------------------------------------------------------------------
# the lexer against a character loop, the lexer's contract written out


def naive_tokens(source):
    """(kind, value, line, col) of each token of `source`, one character at
    a time; raises DslSyntaxError at the first character that starts none."""
    toks = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":  # the column stays at the `#`
            while i < n and source[i] != "\n":
                i += 1
            continue
        start = i
        if ch in "0123456789":
            while i < n and source[i] in "0123456789":
                i += 1
            if i + 1 < n and source[i] == "/" and source[i + 1] in "0123456789":
                i += 1
                while i < n and source[i] in "0123456789":
                    i += 1
            kind = "number"
        elif ch.isalpha() or ch == "_":
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            kind = "ident"
        else:
            punct = ("|->", "->", "{", "}", "(", ")", ",", ";", ":", "*", "=", "+", "-")
            p = next((p for p in punct if source.startswith(p, i)), None)
            if p is None:
                raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
            i += len(p)
            kind = "punct"
        toks.append((kind, source[start:i], line, col))
        col += i - start
    toks.append(("eof", "", line, col))
    return toks


def lexed(source):
    """The tokens of the lexer under test, in the form of `naive_tokens`."""
    toks, kinds = _tokenize(source)
    offsets = _offsets(source)
    return [(kinds[t], t, *_line_col(source, offsets[k])) for k, t in enumerate(toks)]


def lex_outcome(lex, source):
    try:
        return lex(source)
    except DslSyntaxError as exc:
        return f"error {exc}"


def _head(path, size=400):
    with open(path, encoding="utf-8") as fh:
        return fh.read(size)


FIXTURE_HEADS = [_head(path) for path in all_fixture_files()]
LEXER_ALPHABET = "ab_1209/|->{}(),;:*=+- \t\r\n#²½٣éΩ\x0b\f@$?"
LEXER_EDGES = (
    "",
    "field Q #",
    "field Q\n# last line, no newline",
    "field Q\nx # comment\n",
    "field Q\nalgebra A basis x # c",
    "1/",
    "1/x",
    "1/2/3",
    "007/0",
    "|-",
    "|->->-",
    "->-|->--|-->",
    "a-->b|-->c",
    "field Q\r\nalgebra A basis x {\r\n  x*x = x;\r\n}\r\n",
    "field Q\nalgebra } @",
    "field Q\nalgebra A basis x {\n  x*x = ;\n}\n\x0b",
    "\f",
    "²x",
    "x²½٣ ½",
    "٣",
    "_é1 Ω_",
    "a\tb\r\rc",
)


@pytest.mark.parametrize("source", LEXER_EDGES)
def test_lexer_edge_cases_match_the_character_loop(source):
    assert lex_outcome(lexed, source) == lex_outcome(naive_tokens, source)


def test_lexer_matches_the_character_loop_on_every_committed_document():
    paths = sorted(glob.glob(os.path.join(ROOT, "**", "*.alg"), recursive=True))
    assert len(paths) >= 56
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        assert lexed(source) == naive_tokens(source), path


@settings(max_examples=1500, derandomize=True, database=None)
@given(
    st.one_of(
        st.text(alphabet=LEXER_ALPHABET, max_size=40),
        st.builds(
            lambda doc, at, insert: doc[:at] + insert + doc[at:],
            st.sampled_from(FIXTURE_HEADS),
            st.integers(0, 400),
            st.text(alphabet=LEXER_ALPHABET, min_size=1, max_size=4),
        ),
    )
)
def test_lexer_matches_the_character_loop_on_fuzzed_text(source):
    assert lex_outcome(lexed, source) == lex_outcome(naive_tokens, source)


def test_a_bad_character_after_a_syntax_error_is_reported_first():
    # the whole document is lexed before any of it is parsed
    with pytest.raises(DslSyntaxError) as exc:
        parse("field Q\nalgebra } basis\n  @")
    assert str(exc.value) == "3:3: unexpected character '@'"


@pytest.mark.parametrize(
    "tail,message",
    (
        ("", "3:9: expected a term, found 'eof'"),
        ("x", "3:10: expected ';', found 'eof'"),
        ("x # no newline", "3:11: expected ';', found 'eof'"),
        ("x + ", "3:13: expected a term, found 'eof'"),
        ("x;\n", "4:1: expected 'ident', found 'eof'"),
    ),
)
def test_a_document_cut_short_is_refused_at_the_end(tail, message):
    # the end of a document after a comment on its last line is placed at
    # the comment's `#`
    with pytest.raises(DslSyntaxError) as exc:
        parse("field Q\nalgebra A basis x {\n  x*x = " + tail)
    assert str(exc.value) == message
