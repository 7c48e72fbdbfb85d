#!/usr/bin/env python3
"""Regenerate the committed DSL fixtures in fixtures/.

Every fixture is the canonical printer's text of a constructed object,
which is also its own reprint, so the committed files double as
parse/print idempotence tests.  `documents()` returns the texts by file
name; `main()` writes them.

Run from the repository root:  python3 scripts/make_fixtures.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from braidalg.algebra import catalog
from braidalg.braid import bracket_braiding, commutator_braiding, cx_functor
from braidalg.dsl import Document, print_catbraiding_doc, print_document, print_xbraiding_doc
from braidalg.fields import GF, QQ
from braidalg.groupx import conjugation_example, group_catalog


def documents():
    """{file name: DSL text} of every fixture."""
    docs = {}
    for label, cat_name in (
        ("mat2", "Mat(2)"),
        ("mat3", "Mat(3)"),
        ("upper3", "Upper(3)"),
    ):
        b = commutator_braiding(catalog(cat_name, QQ))
        docs[f"{label}_braided.alg"] = print_xbraiding_doc(b, label)

    for label, cat_name in (("sl2", "sl2"), ("heis3", "Heis3"), ("gl2", "gl2")):
        b = bracket_braiding(catalog(cat_name, QQ))
        docs[f"{label}_braided.alg"] = print_xbraiding_doc(b, label)

    # bar constructions: braided categorical algebras over Q and F5
    for label, f in (("mat2_cat", QQ), ("mat2_f5_cat", GF(5))):
        cb = cx_functor(commutator_braiding(catalog("Mat(2)", f)))
        docs[f"{label}.alg"] = print_catbraiding_doc(cb, label)
    cb = cx_functor(commutator_braiding(catalog("Upper(3)", QQ)))
    docs["upper3_cat.alg"] = print_catbraiding_doc(cb, "upper3_cat")

    # characteristic-two guard input
    b = commutator_braiding(catalog("Mat(2)", GF(2)))
    docs["mat2_f2_braided.alg"] = print_xbraiding_doc(b, "mat2_f2")

    # group fixtures: S3 conjugation crossed module with commutator brace
    g = group_catalog("S3")
    blocks = (("S3", "group", g), ("S3_conj", "groupxmod", conjugation_example(g)))
    docs["s3_group.alg"] = print_document(Document(QQ, blocks))
    return docs


def main():
    outdir = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    os.makedirs(outdir, exist_ok=True)
    for fname, text in documents().items():
        with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote", fname)


if __name__ == "__main__":
    main()
