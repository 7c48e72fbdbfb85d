"""Reduction mod p as an exact oracle.

The documents over Q in the corpus spell every structure constant as a
small integer, so rewriting a document's `field Q` line to `field Fp p`
reduces it mod p.  Every axiom is a polynomial identity in the constants:
a law that passes over Q passes mod p, and one that fails keeps its first
Q witness tuple unless p divides the difference there, which no p below
does on this corpus.  So exit codes, verdicts and witness tuples must
agree.  A construction that succeeds on both sides must print its Q
output, reduced, and `roundtrip` on a braided fixture must give the Q
verdicts.  The Q run is the oracle of the Fp run; a disagreement
is a finding about the program, not a reason to change the oracle.
"""

import contextlib
import glob
import io
import json
import os

import pytest

from braidalg.cli import CONSTRUCT_TAKES, main
from braidalg.dsl import parse, print_document

from conftest import FIXTURES, MUTATIONS

REPORT_PRIMES = (3, 7, 1_000_003, 2**31 - 1)
CONSTRUCT_PRIMES = (7, 1_000_003)


def _q_documents(*dirs):
    """{path: text} of the documents over Q in `dirs`."""
    out = {}
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(d, "*.alg"))):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.startswith("field Q\n"):
                out[path] = text
    return out


def _reduce(text, p):
    """`text`, a document over Q, with its field line rewritten to Fp p."""
    assert text.startswith("field Q\n")
    return f"field Fp {p}\n" + text[len("field Q\n") :]


def _run(argv, text, tmp_path):
    """Exit code and stdout of `braidalg` on `argv` with the document `text`
    as its file, run in this process."""
    path = tmp_path / "doc.alg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*argv, str(path)])
    return rc, out.getvalue()


REPORT_DOCS = _q_documents(FIXTURES, MUTATIONS)


def test_every_q_document_is_reduced():
    assert len(REPORT_DOCS) == 54


def _verdicts(stdout):
    """(subject, axiom_tag, status, witness basis_tuple) of every report entry."""
    return [
        (e["subject"], e["axiom_tag"], e["status"],
         e["witness"]["basis_tuple"] if "witness" in e else None)
        for e in json.loads(stdout)
    ]


@pytest.mark.parametrize("p", REPORT_PRIMES)
@pytest.mark.parametrize(
    "path", sorted(REPORT_DOCS), ids=[os.path.relpath(p, FIXTURES) for p in sorted(REPORT_DOCS)]
)
def test_reports_agree_mod_p(path, p, tmp_path):
    text = REPORT_DOCS[path]
    rc_q, out_q = _run(["report"], text, tmp_path)
    rc_p, out_p = _run(["report"], _reduce(text, p), tmp_path)
    assert rc_p == rc_q
    if rc_q != 2:
        assert _verdicts(out_p) == _verdicts(out_q)


def _construct_cases():
    """(file name, block, construction kind) for every block of a fixture
    over Q and every construction that takes its kind."""
    cases = []
    for path, text in _q_documents(FIXTURES).items():
        for name, kind, _ in parse(text).blocks:
            cases.extend(
                (os.path.basename(path), name, c)
                for c, takes in CONSTRUCT_TAKES.items()
                if kind in takes
            )
    return cases


CONSTRUCT_CASES = _construct_cases()


@pytest.mark.parametrize("p", CONSTRUCT_PRIMES)
@pytest.mark.parametrize(
    "name,subject,kind", CONSTRUCT_CASES, ids=[":".join(case) for case in CONSTRUCT_CASES]
)
def test_constructions_commute_with_reduction_mod_p(name, subject, kind, p, tmp_path):
    text = REPORT_DOCS[os.path.join(FIXTURES, name)]
    argv = ["construct", kind, "--subject", subject]
    rc_q, out_q = _run(argv, text, tmp_path)
    rc_p, out_p = _run(argv, _reduce(text, p), tmp_path)
    assert rc_p == rc_q
    if rc_q == 0:
        assert out_p == print_document(parse(_reduce(out_q, p)))


BRAIDED_DOCS = {
    path: text
    for path, text in _q_documents(FIXTURES).items()
    if any(kind == "braiding" for _, kind, _ in parse(text).blocks)
}


def test_every_braided_q_fixture_is_reduced():
    assert len(BRAIDED_DOCS) == 8


@pytest.mark.parametrize("p", CONSTRUCT_PRIMES)
@pytest.mark.parametrize(
    "path", sorted(BRAIDED_DOCS), ids=[os.path.basename(p) for p in sorted(BRAIDED_DOCS)]
)
def test_roundtrips_agree_mod_p(path, p, tmp_path):
    # alpha asserts its bar and beta checks its input categorical algebra,
    # so this also holds the F_p branch of the Cat3/Cat4 decision to Q's
    text = BRAIDED_DOCS[path]
    argv = ["roundtrip", "--format", "json"]
    rc_q, out_q = _run(argv, text, tmp_path)
    rc_p, out_p = _run(argv, _reduce(text, p), tmp_path)
    assert rc_p == rc_q
    if rc_q != 2:
        assert _verdicts(out_p) == _verdicts(out_q)
