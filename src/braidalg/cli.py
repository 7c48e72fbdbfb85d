"""Command line interface.

Exit codes: 0 all requested validations pass, 1 an axiom failed (a
report with witnesses is still emitted), 2 structural or input error.
`validate` reads its block kinds and validators from `dsl.BLOCK_KINDS`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .action import semidirect_assoc, semidirect_lie
from .algebra import ASSOC, liefy
from .braid import (
    CatBraiding,
    XBraiding,
    _alpha,
    _beta,
    cat_braiding_liefy,
    cx_functor,
    xc_functor,
    xmod_braiding_liefy,
)
from .dsl import (
    BLOCK_KINDS,
    VALIDATABLE,
    Document,
    a_kind,
    parse,
    print_algebra_doc,
    print_cat_doc,
    print_catbraiding_doc,
    print_xbraiding_doc,
    print_xmod_doc,
)
from .errors import BraidAlgError
from .icat import cat_liefy
from .natensor import tensor_braiding, tensor_square, tensor_xmod
from .report import merge


def _select(doc: Document, subject, kinds):
    if subject is not None:
        found = doc.lookup(subject)
        if found is None:
            raise BraidAlgError(f"no block named {subject!r}")
        kind, obj = found
        if kind not in kinds:
            raise BraidAlgError(f"{subject!r} is {a_kind(kind)}, expected one of {kinds}")
        return [(subject, kind, obj)]
    picked = [(n, k, o) for n, k, o in doc.blocks if k in kinds]
    if not picked:
        raise BraidAlgError(f"document has no {'/'.join(kinds)} blocks")
    return picked


def _emit(reports, fmt, field) -> int:
    """Print (report, block kind) pairs; return the exit code.  Text witnesses
    over Q spell scalars as Fractions; group elements are ints in any field."""
    if fmt == "json":
        items = []
        for rep, _ in reports:
            items.extend(rep.to_json_obj())
        sys.stdout.write(json.dumps(items, indent=2) + "\n")
    else:
        for rep, kind in reports:
            rationals = field.is_rationals and kind != "groupxmod"
            sys.stdout.write(rep.to_text(rationals) + "\n")
    return 0 if all(r.ok for r, _ in reports) else 1


def _read(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def cmd_validate(args) -> int:
    doc = _read(args.file)
    blocks = _select(doc, args.subject, VALIDATABLE)
    reports = [(BLOCK_KINDS[k].validate(o, n), k) for n, k, o in blocks]
    return _emit(reports, args.format, doc.field)


def cmd_roundtrip(args) -> int:
    doc = _read(args.file)
    blocks = _select(doc, args.subject, ("braiding",))
    reports = []
    for name, _, obj in blocks:
        if isinstance(obj, XBraiding):
            _, rep = _alpha(obj)
            reports.append((merge(f"{name}:alpha", rep), "braiding"))
        else:
            _, rep = _beta(obj)
            reports.append((merge(f"{name}:beta", rep), "braiding"))
    return _emit(reports, args.format, doc.field)


# construction kind -> the block kinds it takes; a mismatch asks for the last
CONSTRUCT_TAKES = {
    "liefy": ("algebra",),
    "semidirect": ("action",),
    "cx": ("braiding",),
    "xc": ("braiding",),
    "natensor": ("algebra",),
    "tensor-xmod": ("algebra",),
    "catliefy": ("cat", "braiding"),
    "xliefy": ("braiding",),
}


def _construct(kind, name, block_kind, obj) -> str:
    want = CONSTRUCT_TAKES[kind]  # argparse has checked the kind
    if block_kind not in want:
        raise BraidAlgError(
            f"{kind} needs {a_kind(want[-1])} subject, but {name!r} is {a_kind(block_kind)}"
        )
    if kind == "liefy":
        return print_algebra_doc(liefy(obj), f"{name}_lie")
    if kind == "semidirect":
        semidirect = semidirect_assoc if obj.flavor == ASSOC else semidirect_lie
        return print_algebra_doc(semidirect(obj).algebra, f"{name}_sd")
    if kind == "cx":
        if not isinstance(obj, XBraiding):
            raise BraidAlgError("cx takes a braided crossed module subject")
        return print_catbraiding_doc(cx_functor(obj), f"{name}_cx")
    if kind == "xc":
        if not isinstance(obj, CatBraiding):
            raise BraidAlgError("xc takes a braided categorical subject")
        return print_xbraiding_doc(xc_functor(obj), f"{name}_xc")
    if kind == "natensor":
        return print_xbraiding_doc(tensor_braiding(tensor_square(obj)), f"{name}_T")
    if kind == "tensor-xmod":
        return print_xmod_doc(tensor_xmod(tensor_square(obj)), f"{name}_T")
    if kind == "catliefy":
        if block_kind == "cat":
            return print_cat_doc(cat_liefy(obj), f"{name}_lie")
        if not isinstance(obj, CatBraiding):
            raise BraidAlgError("catliefy takes a cat or braided categorical subject")
        return print_catbraiding_doc(cat_braiding_liefy(obj), f"{name}_lie")
    # xliefy, the last kind
    if not isinstance(obj, XBraiding):
        raise BraidAlgError("xliefy takes a braided crossed module subject")
    return print_xbraiding_doc(xmod_braiding_liefy(obj), f"{name}_lie")


def cmd_construct(args) -> int:
    doc = _read(args.file)
    [(_, kind, obj)] = _select(doc, args.subject, tuple(BLOCK_KINDS))
    text = _construct(args.kind, args.subject, kind, obj)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache  # built on the first `main` call; a parse keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="braidalg",
        description="Validate and transform braided crossed modules and "
        "internal categories described in the braidalg DSL.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="text"):
        p.add_argument("file", help="DSL source file")
        p.add_argument("--subject", help="restrict to one named block")
        p.add_argument(
            "--format", choices=("json", "text"), default=fmt_default
        )

    p = sub.add_parser("validate", help="run axiom validators")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="like validate, JSON by default")
    common(p, fmt_default="json")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("roundtrip", help="alpha/beta natural isomorphism checks")
    common(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("construct", help="apply a construction, emit DSL")
    p.add_argument("kind", choices=CONSTRUCT_TAKES)
    p.add_argument("file", help="DSL source file")
    p.add_argument("--subject", required=True)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_construct)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BraidAlgError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
