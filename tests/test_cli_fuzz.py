"""A bounded fuzz of the CLI exit-code contract.

Each example applies one to three mutations to a small committed fixture
or mutation file and runs `validate`, `report`, `roundtrip` or
`construct KIND FILE --subject B -o OUT` on it in-process, with KIND any
construction and B a block of the mutated document when it parses.  A
mutation replaces, deletes or inserts a byte (invalid UTF-8 included),
or replaces or inserts a whole multi-byte UTF-8 character, which no
single-byte mutation can form, or replaces a numeric token with one of
0, 1, -1, 2 and 1/2, or writes one of them in front of a bare term
(`= m2;` becomes `= 1/2 m2;`); the last two mostly keep the document
parseable, so that the run reaches a validator.  Whatever the bytes,
the run must end in a documented exit code: 0, 1 with a non-empty
report, or 2 with exactly one `error:` line.
The examples are derandomized, so the suite runs the same ones each time.
"""

import contextlib
import glob
import io
import os
import random
import re
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg.cli import CONSTRUCT_TAKES, main
from braidalg.dsl import parse
from braidalg.errors import BraidAlgError

from conftest import FIXTURES, MUTATIONS


def _small_sources(limit=1500):
    paths = glob.glob(os.path.join(FIXTURES, "*.alg"))
    paths += glob.glob(os.path.join(MUTATIONS, "*.alg"))
    sources = []
    for path in sorted(paths):
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < limit:
            sources.append(data)
    return sources


SOURCES = _small_sources()
# bytes that often keep a document parseable, so that mutations also
# reach the validators, next to arbitrary ones
DSL_BYTES = b"0123456789 \n-,;=xyzeh"
# what a mutation places: one of those bytes, or a whole character of two
# bytes or more (digits that str.isdigit() takes but the DSL does not, and
# a letter)
PIECES = [bytes([b]) for b in DSL_BYTES] + [c.encode("utf-8") for c in "²٣é"]
# a numeric token of the DSL, with a sign written against it, and what
# a token-level mutation puts in its place
NUMBER = re.compile(rb"(?<![A-Za-z0-9_/])-?[0-9]+(?:/[0-9]+)?")
SCALARS = (b"0", b"1", b"-1", b"2", b"1/2")
# what comes before a bare term, a label with no scalar: the `=` of a
# product or pair, the `|->` of a map, or a sign
BARE_TERM = re.compile(rb"(?:\) = |\*\w+ = |\|-> |[+-] ?)(?=[A-Za-z_])")
# a groupxmod block, and an element index: a group table, action,
# boundary or brace entry
GROUPXMOD = re.compile(rb"groupxmod\b[^{]*\{[^}]*\}")
INDEX = re.compile(rb"\b[0-9]+\b")


def renumber(data, k, scalar):
    """Replace the k-th numeric token (k modulo their count) by `scalar`."""
    found = list(NUMBER.finditer(data))
    if not found:
        return data
    m = found[k % len(found)]
    return data[: m.start()] + scalar + data[m.end() :]


def rescale(data, k, scalar):
    """Write `scalar` in front of the k-th bare term (k modulo their count)."""
    found = list(BARE_TERM.finditer(data))
    if not found:
        return data
    i = found[k % len(found)].end()
    return data[:i] + scalar + b" " + data[i:]


def reindex(data, k, j):
    """Replace the k-th index inside a groupxmod block by the j-th of the
    distinct indices the document uses (k and j modulo their counts)."""
    found = [
        m
        for block in GROUPXMOD.finditer(data)
        for m in INDEX.finditer(data, block.start(), block.end())
    ]
    if not found:
        return data
    used = sorted({m.group() for m in INDEX.finditer(data)}, key=int)
    m = found[k % len(found)]
    return data[: m.start()] + used[j % len(used)] + data[m.end() :]


@st.composite
def mutated_sources(draw):
    data = draw(st.sampled_from(SOURCES))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("replace", "delete", "insert", "number", "scale")))
        if op in ("number", "scale"):
            k = draw(st.integers(0, len(data)))
            mutate = renumber if op == "number" else rescale
            data = mutate(data, k, draw(st.sampled_from(SCALARS)))
            continue
        i = draw(st.integers(0, len(data) - (op != "insert")))
        piece = draw(st.sampled_from(PIECES) | st.binary(min_size=1, max_size=1))
        if op == "replace":
            data = data[:i] + piece + data[i + 1 :]
        elif op == "delete":
            data = data[:i] + data[i + 1 :]
        else:
            data = data[:i] + piece + data[i:]
    return data


def _block_names(data):
    """The block names of `data` if it parses, else a name to look up."""
    try:
        return [name for name, _, _ in parse(data.decode("utf-8")).blocks] or ["A"]
    except (BraidAlgError, UnicodeDecodeError):
        return ["A"]


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.alg"


def run_main(argv):
    """main(argv)'s exit code, once it is checked against the contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 1:
        assert out.getvalue().strip()
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    return rc


def test_there_are_small_sources_to_mutate():
    assert len(SOURCES) >= 40


@settings(max_examples=400, deadline=timedelta(seconds=3), derandomize=True, database=None)
@given(
    data=mutated_sources(),
    command=st.sampled_from(("validate", "report", "roundtrip", "construct")),
    more=st.data(),
)
def test_every_input_ends_in_a_documented_exit_code(scratch_file, data, command, more):
    scratch_file.write_bytes(data)
    argv = [command, str(scratch_file)]
    if command == "construct":
        kind = more.draw(st.sampled_from(tuple(CONSTRUCT_TAKES)))
        subject = more.draw(st.sampled_from(_block_names(data)))
        output = str(scratch_file.with_suffix(".out"))
        argv = [command, kind, str(scratch_file), "--subject", subject, "-o", output]
    run_main(argv)


def test_renumbered_documents_reach_the_validators(scratch_file):
    # one to three numeric tokens replaced in each committed source that
    # has one, and one to three scalars written in front of bare terms in
    # each source that has none; a fixed seed runs the same documents
    # each time
    rng = random.Random(1711)
    numbered = [data for data in SOURCES if NUMBER.search(data)]
    bare = [data for data in SOURCES if not NUMBER.search(data)]
    assert len(numbered) >= 10 and len(bare) >= 30
    codes = {renumber: [], rescale: []}  # exit codes by mutation
    non_group = []  # exit codes of the documents with no groupxmod
    for sources, mutate, runs in ((numbered, renumber, 160), (bare, rescale, 100)):
        for _ in range(runs):
            data = rng.choice(sources)
            for _ in range(rng.randint(1, 3)):
                data = mutate(data, rng.randrange(len(data)), rng.choice(SCALARS))
            scratch_file.write_bytes(data)
            rc = run_main(["report", str(scratch_file)])
            codes[mutate].append(rc)
            if b"groupxmod" not in data:
                non_group.append(rc)

    # exit 0 or 1: the document parsed and a validator ran
    def reached(rcs):
        return sum(rc != 2 for rc in rcs) >= len(rcs) / 4

    assert reached(codes[renumber])
    assert reached(codes[renumber] + codes[rescale])
    assert reached(non_group)


def test_reindexed_group_documents_reach_the_validators(scratch_file):
    # one to three indices inside the groupxmod block of each committed
    # group document replaced by indices the document already uses; a
    # fixed seed runs the same documents each time
    rng = random.Random(1989)
    grouped = [data for data in SOURCES if GROUPXMOD.search(data)]
    assert len(grouped) >= 10
    codes = []
    for _ in range(100):
        data = rng.choice(grouped)
        for _ in range(rng.randint(1, 3)):
            data = reindex(data, rng.randrange(len(data)), rng.randrange(len(data)))
        scratch_file.write_bytes(data)
        codes.append(run_main(["report", str(scratch_file)]))
    # exit 0 or 1: the document parsed and a validator ran
    assert sum(rc != 2 for rc in codes) >= len(codes) / 2
