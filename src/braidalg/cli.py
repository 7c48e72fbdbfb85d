"""Command line interface.

Exit codes: 0 all requested validations pass, 1 an axiom failed (a
report with witnesses is still emitted), 2 structural or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .action import AssocAction, semidirect_assoc, semidirect_lie
from .algebra import liefy
from .braid import (
    CatBraiding,
    XBraiding,
    _alpha,
    _beta,
    cat_braiding_liefy,
    cx_functor,
    validate_braiding_cat_assoc,
    validate_braiding_cat_lie_ulualan,
    validate_braiding_xmod_assoc,
    validate_braiding_xmod_lie,
    xc_functor,
    xmod_braiding_liefy,
)
from .dsl import (
    Document,
    parse,
    print_algebra_doc,
    print_cat_doc,
    print_catbraiding_doc,
    print_xbraiding_doc,
    print_xmod_doc,
)
from .errors import BraidAlgError
from .icat import ASSOC, cat_liefy, validate_cat_algebra
from .groupx import validate_group_braiding, validate_group_xmod
from .natensor import tensor_braiding, tensor_square, tensor_xmod
from .report import ValidationReport, merge
from .xmod import XModAssoc, validate_xmod_assoc, validate_xmod_lie


VALIDATABLE = ("action", "xmod", "braiding", "cat", "groupxmod")


def _validate_block(name, kind, obj) -> ValidationReport:
    if kind == "action":
        from .action import validate_assoc_action, validate_lie_action

        if isinstance(obj, AssocAction):
            return validate_assoc_action(obj, name)
        return validate_lie_action(obj, name)
    if kind == "xmod":
        if isinstance(obj, XModAssoc):
            return validate_xmod_assoc(obj, name)
        return validate_xmod_lie(obj, name)
    if kind == "braiding":
        if isinstance(obj, XBraiding):
            if isinstance(obj.base, XModAssoc):
                return validate_braiding_xmod_assoc(obj, name)
            return validate_braiding_xmod_lie(obj, name)
        if obj.base.flavor == ASSOC:
            return validate_braiding_cat_assoc(obj, name)
        return validate_braiding_cat_lie_ulualan(obj, name)
    if kind == "cat":
        return validate_cat_algebra(obj, name)
    if kind == "groupxmod":
        rep = validate_group_xmod(obj, name)
        if obj.brace is not None:
            rep = merge(name, rep, validate_group_braiding(obj, name))
        return rep
    raise ValueError(f"{name!r} ({kind}) is not a validatable subject")


def _select(doc: Document, subject, kinds):
    if subject is not None:
        found = doc.lookup(subject)
        if found is None:
            raise BraidAlgError(f"no block named {subject!r}")
        kind, obj = found
        if kind not in kinds:
            raise BraidAlgError(f"{subject!r} is a {kind}, expected one of {kinds}")
        return [(subject, kind, obj)]
    picked = [(n, k, o) for n, k, o in doc.blocks if k in kinds]
    if not picked:
        raise BraidAlgError(f"document has no {'/'.join(kinds)} blocks")
    return picked


def _emit(reports, fmt, field):
    """Print (report, block kind) pairs.  Text witnesses over Q spell
    scalars as Fractions; group elements (`groupxmod`) are ints in any field."""
    if fmt == "json":
        items = []
        for rep, _ in reports:
            items.extend(rep.to_json_obj())
        sys.stdout.write(json.dumps(items, indent=2) + "\n")
    else:
        for rep, kind in reports:
            rationals = field.is_rationals and kind != "groupxmod"
            sys.stdout.write(rep.to_text(rationals) + "\n")


def _read(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def cmd_validate(args) -> int:
    doc = _read(args.file)
    blocks = _select(doc, args.subject, VALIDATABLE)
    reports = [(_validate_block(n, k, o), k) for n, k, o in blocks]
    _emit(reports, args.format, doc.field)
    return 0 if all(r.ok for r, _ in reports) else 1


def cmd_report(args) -> int:
    return cmd_validate(args)


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
    _emit(reports, args.format, doc.field)
    return 0 if all(r.ok for r, _ in reports) else 1


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
    want = CONSTRUCT_TAKES.get(kind)
    if want is None:
        raise BraidAlgError(f"unknown construction {kind!r}")
    if block_kind not in want:
        raise BraidAlgError(
            f"{kind} needs a {want[-1]} subject, but {name!r} is a {block_kind}"
        )
    if kind == "liefy":
        return print_algebra_doc(liefy(obj), f"{name}_lie")
    if kind == "semidirect":
        semidirect = semidirect_assoc if isinstance(obj, AssocAction) else semidirect_lie
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
    found = doc.lookup(args.subject)
    if found is None:
        raise BraidAlgError(f"no block named {args.subject!r}")
    kind, obj = found
    text = _construct(args.kind, args.subject, kind, obj)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


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
    p.set_defaults(func=cmd_report)

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
