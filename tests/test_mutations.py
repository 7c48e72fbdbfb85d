"""Mutation sensitivity: every axiom tag has a counterexample.

For each tag in the glossary there is a mutated fixture whose report
fails exactly that tag while every other validated block in the same
document passes.  Tags that are consequences of the other axioms of
their validator cannot fail alone; their cases carry a note and pin a
documented minimal failing set instead.
"""

import json
import os
import re

import pytest

from braidalg.dsl import BLOCK_KINDS, VALIDATABLE, parse, print_document

from conftest import MUTATIONS


def _cases(mutations_module):
    return mutations_module.all_cases()


def _manifest():
    with open(os.path.join(MUTATIONS, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_fails_exactly_the_expected_tags(mutations_module):
    for case in _cases(mutations_module):
        rep = case.report()
        got = tuple(sorted(set(rep.failing_tags())))
        assert got == case.expected, f"{case.name}: {got} != {case.expected}"


def test_isolating_cases_fail_a_single_tag(mutations_module):
    singles = [c for c in _cases(mutations_module) if not c.note]
    assert len(singles) >= 40
    for case in singles:
        assert case.expected == (case.target,), case.name


def test_failing_entries_carry_reverifiable_witnesses(mutations_module):
    for case in _cases(mutations_module):
        rep = case.report()
        for entry in rep.entries:
            if entry.ok:
                assert entry.witness is None
            else:
                w = entry.witness
                assert w is not None, f"{case.name}:{entry.tag} lacks a witness"
                assert tuple(w.lhs) != tuple(w.rhs)


def test_manifest_matches_fixture_files(mutations_module):
    manifest = _manifest()
    files = {e["file"] for e in manifest}
    on_disk = {f for f in os.listdir(MUTATIONS) if f.endswith(".alg")}
    assert files == on_disk


def test_manifest_is_what_the_generator_writes(mutations_module):
    # targets, expected tags, notes and entry order, not only file names
    assert mutations_module.manifest() == _manifest()


def test_case_documents_reprint_as_the_committed_files(mutations_module):
    cases = [c for c in _cases(mutations_module) if c.doc is not None]
    assert len(cases) >= 40
    for case in cases:
        path = os.path.join(MUTATIONS, case.file)
        with open(path, "r", encoding="utf-8") as fh:
            assert print_document(parse(case.doc())) == fh.read(), case.name


@pytest.mark.parametrize("entry", _manifest(), ids=lambda e: e["file"])
def test_fixture_validates_to_expected_tags(entry):
    with open(os.path.join(MUTATIONS, entry["file"]), "r", encoding="utf-8") as fh:
        doc = parse(fh.read())
    found = doc.lookup(entry["subject"])
    assert found is not None, f"{entry['file']} has no block {entry['subject']}"
    kind, obj = found
    rep = BLOCK_KINDS[kind].validate(obj, entry["subject"])
    assert sorted(set(rep.failing_tags())) == entry["expected_failing_tags"]
    # every other validated block in the document is a passing prior
    for name, k, o in doc.blocks:
        if name != entry["subject"] and k in VALIDATABLE:
            prior = BLOCK_KINDS[k].validate(o, name)
            assert prior.ok, f"{entry['file']}: prior {name} fails {prior.failing_tags()}"


def test_solver_finds_the_committed_isolating_braidings(mutations_module):
    # the files and their failing tags are checked with every other case
    found = mutations_module.search()
    hits = {
        "AsT2": "kercx",
        "AsT3": "idactcx",
        "AsT4": "idactcx",
        "LieT2": "kercxlie",
    }
    misses = ("LieB3", "LieB4", "LieT3", "LieT4", "BLie5", "BLie6")
    assert set(found) == set(hits) | set(misses)
    for tag in misses:
        assert found[tag] is None, tag
    for tag, candidate in hits.items():
        assert found[tag][0] == candidate, tag


def _glossary_tags(glossary_text):
    tags = set()
    for m in re.finditer(r"^\| ([A-Za-z0-9]+) \|", glossary_text, re.M):
        if m.group(1) != "tag":
            tags.add(m.group(1))
    return tags


def test_every_glossary_tag_has_a_mutation(mutations_module, glossary_text):
    tags = _glossary_tags(glossary_text)
    assert len(tags) >= 50
    covered = set()
    for case in _cases(mutations_module):
        covered.add(case.target)
        if case.note:
            covered.update(case.expected)
    missing = tags - covered
    assert not missing, f"tags without mutation coverage: {sorted(missing)}"


def test_every_emitted_tag_is_documented(mutations_module, glossary_text):
    tags = _glossary_tags(glossary_text)
    for case in _cases(mutations_module):
        rep = case.report()
        for entry in rep.entries:
            assert entry.tag in tags, f"{case.name} emits undocumented {entry.tag}"
