"""Textual front end: a small declaration language and its canonical printer.

A document is an ordered sequence of named blocks over a single ground
field.  Unlisted structure constants are zero; nothing is symmetrized
unless an algebra opts in with the `antisymmetric` attribute.

    field Q
    algebra sl2 basis h, e, f antisymmetric {
      h*e = 2 e;  h*f = -2 f;  e*f = h;
    }
    map d : sl2 -> sl2 { h |-> h; e |-> e; f |-> f; }
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .action import AssocAction, LieAction
from .algebra import Algebra
from .braid import CatBraiding, XBraiding
from .errors import (
    DimensionMismatch,
    DslError,
    DslSyntaxError,
    FieldMismatch,
    UnknownReference,
)
from .fields import MAX_CHARACTERISTIC, CharacteristicTooLarge, Field
from .groupx import FiniteGroup, GroupXMod
from .icat import ASSOC, LIE, CatAlgebra
from .linear import BilMap, LinMap, Space, bilinear_from_rule, from_columns, identity_map
from .xmod import XModAssoc, XModLie


@dataclass(frozen=True)
class Document:
    field: Field
    blocks: tuple  # ordered (name, kind, obj) triples

    def lookup(self, name):
        for n, kind, obj in self.blocks:
            if n == name:
                return kind, obj
        return None


# ---------------------------------------------------------------------------
# lexer

_PUNCT = ("|->", "->", "{", "}", "(", ")", ",", ";", ":", "*", "=", "+", "-")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "number", "punct", "eof"
    value: str
    line: int
    col: int


def _tokenize(source: str):
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
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == "/" and i + 1 < n and source[i + 1].isdigit():
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            toks.append(Token("number", source[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            toks.append(Token("ident", source[start:i], line, col))
            col += i - start
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser / elaborator

_BLOCK_KEYWORDS = (
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


class _Parser:
    def __init__(self, source: str):
        self.toks = _tokenize(source)
        self.pos = 0
        self.field: Optional[Field] = None
        self.blocks = []
        self.by_name = {}

    # token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, value=None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            raise DslSyntaxError(
                f"expected {want!r}, found {t.value or t.kind!r}",
                t.line,
                t.col,
                expected=(str(want),),
            )
        return self.next()

    def expect_keyword(self, word) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.value != word:
            raise DslSyntaxError(
                f"expected {word!r}, found {t.value or t.kind!r}",
                t.line,
                t.col,
                expected=(word,),
            )
        return self.next()

    # scalars and vectors --------------------------------------------------

    def scalar(self, tok: Token):
        try:
            return self.field.of(tok.value)
        except (ZeroDivisionError, ValueError):
            raise FieldMismatch(
                f"scalar {tok.value!r} has no value in {self.field}", tok.line, tok.col
            )

    def expr(self, space: Space):
        """Linear combination of basis labels; a bare `0` is the zero vector."""
        F = self.field
        vec = list(space.zero())
        first = True
        while True:
            sign = F.one()
            t = self.peek()
            if t.kind == "punct" and t.value in ("+", "-"):
                if t.value == "-":
                    sign = F.neg(sign)
                self.next()
            elif not first:
                break
            first = False
            t = self.peek()
            if t.kind == "number":
                coeff = F.mul(sign, self.scalar(self.next()))
                t = self.peek()
                if t.kind == "ident":
                    self.next()
                    vec[self._label(space, t)] = F.add(
                        vec[self._label(space, t)], coeff
                    )
                elif coeff != F.zero():
                    raise DslSyntaxError(
                        "scalar term needs a basis label", t.line, t.col
                    )
            elif t.kind == "ident":
                self.next()
                vec[self._label(space, t)] = F.add(vec[self._label(space, t)], sign)
            else:
                raise DslSyntaxError(
                    f"expected a term, found {t.value or t.kind!r}", t.line, t.col
                )
        return tuple(vec)

    def _label(self, space: Space, tok: Token) -> int:
        if tok.value not in space.labels:
            raise UnknownReference(
                f"unknown basis label {tok.value!r}", tok.line, tok.col
            )
        return space.index(tok.value)

    def int_list(self):
        out = []
        while self.peek().kind == "number":
            t = self.next()
            if "/" in t.value:
                raise DslSyntaxError("expected an integer", t.line, t.col)
            out.append(int(t.value))
        if not out:
            t = self.peek()
            raise DslSyntaxError("expected at least one integer", t.line, t.col)
        return out

    def int_rows(self):
        rows = [self.int_list()]
        while self.peek().kind == "punct" and self.peek().value == ",":
            self.next()
            rows.append(self.int_list())
        return rows

    # references -----------------------------------------------------------

    def ref(self, *kinds):
        t = self.expect("ident")
        if t.value not in self.by_name:
            raise UnknownReference(f"unknown name {t.value!r}", t.line, t.col)
        kind, obj = self.by_name[t.value]
        if kinds and kind not in kinds:
            raise UnknownReference(
                f"{t.value!r} is a {kind}, expected {' or '.join(kinds)}",
                t.line,
                t.col,
            )
        return t, kind, obj

    def register(self, tok: Token, kind: str, obj):
        if tok.value in self.by_name:
            raise DslSyntaxError(f"duplicate name {tok.value!r}", tok.line, tok.col)
        self.by_name[tok.value] = (kind, obj)
        self.blocks.append((tok.value, kind, obj))

    # key = value blocks ----------------------------------------------------

    def block_entries(self, spec):
        """Parse `{ key = ...; }` where spec maps keys to parse thunks."""
        self.expect("punct", "{")
        seen = {}
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            key = self.expect("ident")
            if key.value not in spec:
                raise DslSyntaxError(
                    f"unknown entry {key.value!r}",
                    key.line,
                    key.col,
                    expected=tuple(sorted(spec)),
                )
            if key.value in seen:
                raise DslSyntaxError(
                    f"duplicate entry {key.value!r}", key.line, key.col
                )
            self.expect("punct", "=")
            seen[key.value] = spec[key.value]()
            self.expect("punct", ";")
        self.expect("punct", "}")
        return seen

    def need(self, seen, key, tok):
        if key not in seen:
            raise DslSyntaxError(f"missing entry {key!r}", tok.line, tok.col)
        return seen[key]

    # declarations ----------------------------------------------------------

    def parse_document(self) -> Document:
        t = self.peek()
        if t.kind != "ident" or t.value != "field":
            raise DslSyntaxError(
                "document must start with a field declaration",
                t.line,
                t.col,
                expected=("field",),
            )
        self.next()
        t = self.expect("ident")
        if t.value == "Q":
            self.field = Field(0)
        elif t.value == "Fp":
            p = self.expect("number")
            if "/" in p.value:
                raise DslSyntaxError("characteristic must be an integer", p.line, p.col)
            try:
                # int() refuses more than 4300 digits: compare lengths first
                digits = p.value.lstrip("0")
                if len(digits) > len(str(MAX_CHARACTERISTIC)):
                    raise CharacteristicTooLarge(digits)
                self.field = Field(int(p.value))
            except CharacteristicTooLarge as exc:
                raise FieldMismatch(str(exc), p.line, p.col)
            except ValueError:
                raise FieldMismatch(
                    f"characteristic {p.value} is not prime", p.line, p.col
                )
        else:
            raise DslSyntaxError(
                f"unknown field {t.value!r}", t.line, t.col, expected=("Q", "Fp")
            )
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "ident" or t.value not in _BLOCK_KEYWORDS:
                raise DslSyntaxError(
                    f"expected a declaration, found {t.value or t.kind!r}",
                    t.line,
                    t.col,
                    expected=_BLOCK_KEYWORDS,
                )
            getattr(self, "parse_" + t.value)()
        return Document(self.field, tuple(self.blocks))

    def parse_algebra(self):
        self.expect_keyword("algebra")
        name = self.expect("ident")
        self.expect_keyword("basis")
        labels = [self.expect("ident").value]
        while self.peek().kind == "punct" and self.peek().value == ",":
            self.next()
            labels.append(self.expect("ident").value)
        if len(set(labels)) != len(labels):
            raise DslSyntaxError("duplicate basis labels", name.line, name.col)
        antisym = False
        if self.peek().kind == "ident" and self.peek().value == "antisymmetric":
            self.next()
            antisym = True
        space = Space(self.field, tuple(labels))
        F = self.field
        prods = {}
        self.expect("punct", "{")
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            a = self.expect("ident")
            self.expect("punct", "*")
            b = self.expect("ident")
            i, j = self._label(space, a), self._label(space, b)
            if (i, j) in prods:
                raise DslSyntaxError(
                    f"product {a.value}*{b.value} listed twice", a.line, a.col
                )
            self.expect("punct", "=")
            prods[(i, j)] = self.expr(space)
            self.expect("punct", ";")
        self.expect("punct", "}")
        if antisym:
            for (i, j), v in list(prods.items()):
                if (j, i) not in prods and i != j:
                    prods[(j, i)] = tuple(F.neg(c) for c in v)
        zero = space.zero()
        mult = bilinear_from_rule(
            space, space, space, lambda i, j: prods.get((i, j), zero)
        )
        self.register(name, "algebra", Algebra(space, mult))

    def parse_map(self):
        self.expect_keyword("map")
        name = self.expect("ident")
        self.expect("punct", ":")
        _, _, dom = self.ref("algebra")
        self.expect("punct", "->")
        _, _, cod = self.ref("algebra")
        cols = {i: cod.space.zero() for i in range(dom.dim)}
        self.expect("punct", "{")
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            a = self.expect("ident")
            i = self._label(dom.space, a)
            self.expect("punct", "|->")
            cols[i] = self.expr(cod.space)
            self.expect("punct", ";")
        self.expect("punct", "}")
        self.register(
            name,
            "map",
            from_columns(dom.space, cod.space, [cols[i] for i in range(dom.dim)]),
        )

    def parse_bilinear(self):
        self.expect_keyword("bilinear")
        name = self.expect("ident")
        self.expect("punct", ":")
        _, _, left = self.ref("algebra")
        self.expect("punct", ",")
        _, _, right = self.ref("algebra")
        self.expect("punct", "->")
        _, _, cod = self.ref("algebra")
        vals = {}
        self.expect("punct", "{")
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            self.expect("punct", "(")
            a = self.expect("ident")
            self.expect("punct", ",")
            b = self.expect("ident")
            self.expect("punct", ")")
            i, j = self._label(left.space, a), self._label(right.space, b)
            if (i, j) in vals:
                raise DslSyntaxError(
                    f"pair ({a.value}, {b.value}) listed twice", a.line, a.col
                )
            self.expect("punct", "=")
            vals[(i, j)] = self.expr(cod.space)
            self.expect("punct", ";")
        self.expect("punct", "}")
        zero = cod.space.zero()
        bil = bilinear_from_rule(
            left.space, right.space, cod.space, lambda i, j: vals.get((i, j), zero)
        )
        self.register(name, "bilinear", bil)

    def parse_action(self):
        self.expect_keyword("action")
        name = self.expect("ident")
        self.expect("punct", ":")
        _, _, actor = self.ref("algebra")
        self.expect_keyword("on")
        _, _, module = self.ref("algebra")
        seen = self.block_entries(
            {
                "star1": lambda: self.ref("bilinear"),
                "star2": lambda: self.ref("bilinear"),
                "dot": lambda: self.ref("bilinear"),
            }
        )
        if "dot" in seen:
            if "star1" in seen or "star2" in seen:
                raise DslSyntaxError(
                    "an action has either dot or star1/star2, not both",
                    name.line,
                    name.col,
                )
            tok, _, dot = seen["dot"]
            self._check_shape(tok, dot, actor.space, module.space, module.space)
            obj = LieAction(actor, module, dot)
        else:
            t1 = self.need(seen, "star1", name)
            t2 = self.need(seen, "star2", name)
            self._check_shape(t1[0], t1[2], actor.space, module.space, module.space)
            self._check_shape(t2[0], t2[2], module.space, actor.space, module.space)
            obj = AssocAction(actor, module, t1[2], t2[2])
        self.register(name, "action", obj)

    def _check_shape(self, tok, bil: BilMap, left, right, cod):
        if (bil.left, bil.right, bil.codomain) != (left, right, cod):
            raise DimensionMismatch(
                f"bilinear {tok.value!r} has the wrong signature", tok.line, tok.col
            )

    def parse_xmod(self):
        self.expect_keyword("xmod")
        name = self.expect("ident")
        seen = self.block_entries(
            {
                "action": lambda: self.ref("action"),
                "boundary": lambda: self.ref("map"),
            }
        )
        _, _, action = self.need(seen, "action", name)
        btok, _, boundary = self.need(seen, "boundary", name)
        if (
            boundary.domain != action.module.space
            or boundary.codomain != action.actor.space
        ):
            raise DimensionMismatch(
                "boundary must map the module to the actor", btok.line, btok.col
            )
        cls = LieAction if isinstance(action, LieAction) else AssocAction
        obj = (
            XModLie(action, boundary)
            if cls is LieAction
            else XModAssoc(action, boundary)
        )
        self.register(name, "xmod", obj)

    def parse_braiding(self):
        self.expect_keyword("braiding")
        name = self.expect("ident")
        seen = self.block_entries(
            {
                "xmod": lambda: self.ref("xmod"),
                "brace": lambda: self.ref("bilinear"),
                "cat": lambda: self.ref("cat"),
                "tau": lambda: self.ref("bilinear"),
            }
        )
        if "xmod" in seen:
            if "cat" in seen or "tau" in seen:
                raise DslSyntaxError(
                    "a braiding is over an xmod or a cat, not both", name.line, name.col
                )
            _, _, x = seen["xmod"]
            btok, _, brace = self.need(seen, "brace", name)
            self._check_shape(btok, brace, x.n.space, x.n.space, x.m.space)
            obj = XBraiding(x, brace)
        else:
            _, _, c = self.need(seen, "cat", name)
            ttok, _, tau = self.need(seen, "tau", name)
            self._check_shape(ttok, tau, c.c0.space, c.c0.space, c.c1.space)
            obj = CatBraiding(c, tau)
        self.register(name, "braiding", obj)

    def parse_cat(self):
        self.expect_keyword("cat")
        name = self.expect("ident")

        def flavor_value():
            t = self.expect("ident")
            if t.value not in (ASSOC, LIE):
                raise DslSyntaxError(
                    "flavor must be assoc or lie", t.line, t.col, expected=(ASSOC, LIE)
                )
            return t, "flavor", t.value

        def map_pair():
            first = self.ref("map")
            self.expect("punct", ",")
            second = self.ref("map")
            return first, second

        seen = self.block_entries(
            {
                "flavor": flavor_value,
                "c1": lambda: self.ref("algebra"),
                "c0": lambda: self.ref("algebra"),
                "s": lambda: self.ref("map"),
                "t": lambda: self.ref("map"),
                "e": lambda: self.ref("map"),
                "k": map_pair,
            }
        )
        flavor = self.need(seen, "flavor", name)[2]
        _, _, c1 = self.need(seen, "c1", name)
        _, _, c0 = self.need(seen, "c0", name)
        stok, _, s = self.need(seen, "s", name)
        ttok, _, t = self.need(seen, "t", name)
        etok, _, e = self.need(seen, "e", name)
        for tok, f, dom, cod in (
            (stok, s, c1, c0),
            (ttok, t, c1, c0),
            (etok, e, c0, c1),
        ):
            if f.domain != dom.space or f.codomain != cod.space:
                raise DimensionMismatch(
                    f"map {tok.value!r} has the wrong signature", tok.line, tok.col
                )
        obj = CatAlgebra(c1, c0, s, t, e, flavor)
        if "k" in seen:
            (ptok, _, pmap), (qtok, _, qmap) = seen["k"]
            ident = identity_map(c1.space)
            forced_p = ident.sub(e.after(t))
            if pmap != forced_p or qmap != ident:
                raise DslError(
                    "explicit k must equal the forced composition x - e(t(x)) + y",
                    ptok.line,
                    ptok.col,
                )
        self.register(name, "cat", obj)

    def parse_group(self):
        self.expect_keyword("group")
        name = self.expect("ident")
        seen = self.block_entries({"table": self.int_rows})
        rows = self.need(seen, "table", name)
        self.register(
            name, "group", FiniteGroup(len(rows), tuple(tuple(r) for r in rows))
        )

    def parse_groupxmod(self):
        self.expect_keyword("groupxmod")
        name = self.expect("ident")
        seen = self.block_entries(
            {
                "g": lambda: self.ref("group"),
                "h": lambda: self.ref("group"),
                "action": self.int_rows,
                "boundary": self.int_list,
                "brace": self.int_rows,
            }
        )
        _, _, g = self.need(seen, "g", name)
        _, _, h = self.need(seen, "h", name)
        action = tuple(tuple(r) for r in self.need(seen, "action", name))
        boundary = tuple(self.need(seen, "boundary", name))
        brace = seen.get("brace")
        if brace is not None:
            brace = tuple(tuple(r) for r in brace)
        self.register(name, "groupxmod", GroupXMod(g, h, action, boundary, brace))


def parse(source: str) -> Document:
    return _Parser(source).parse_document()


# ---------------------------------------------------------------------------
# canonical printer

def _scalar_str(F: Field, c) -> str:
    return F.to_str(c)


def _expr_str(F: Field, space: Space, vec) -> str:
    pieces = []
    for i, c in enumerate(vec):
        if c == F.zero():
            continue
        label = space.labels[i]
        negative = F.is_rationals and c < 0
        mag = F.neg(c) if negative else c
        term = label if mag == F.one() else f"{_scalar_str(F, mag)} {label}"
        if not pieces:
            pieces.append(f"-{term}" if negative else term)
        else:
            pieces.append(f"- {term}" if negative else f"+ {term}")
    if not pieces:
        return "0"
    return " ".join(pieces)


def _print_algebra(name, a: Algebra, out):
    out.append(f"algebra {name} basis {', '.join(a.space.labels)} {{")
    F = a.field
    for i in range(a.dim):
        for j in range(a.dim):
            v = a.mult.on_basis(i, j)
            if any(c != F.zero() for c in v):
                out.append(
                    f"  {a.space.labels[i]}*{a.space.labels[j]} = "
                    f"{_expr_str(F, a.space, v)};"
                )
    out.append("}")


def _print_map(name, f: LinMap, dom_name, cod_name, dom: Space, cod: Space, out):
    out.append(f"map {name} : {dom_name} -> {cod_name} {{")
    F = dom.field
    for i in range(dom.dim):
        v = f.column(i)
        if any(c != F.zero() for c in v):
            out.append(f"  {dom.labels[i]} |-> {_expr_str(F, cod, v)};")
    out.append("}")


def _print_bilinear(name, b: BilMap, lname, rname, cname, out):
    out.append(f"bilinear {name} : {lname}, {rname} -> {cname} {{")
    F = b.codomain.field
    for i in range(b.left.dim):
        for j in range(b.right.dim):
            v = b.on_basis(i, j)
            if any(c != F.zero() for c in v):
                out.append(
                    f"  ({b.left.labels[i]}, {b.right.labels[j]}) = "
                    f"{_expr_str(F, b.codomain, v)};"
                )
    out.append("}")


class _DocBuilder:
    """Assembles a printable document from package objects.

    Spaces are deduplicated: two blocks sharing a Space reference the
    same printed algebra, so re-parsing reproduces identical objects.
    """

    def __init__(self, field: Field):
        self.field = field
        self.lines = ["field Q" if field.is_rationals else f"field Fp {field.characteristic}"]
        self.algebra_names = {}
        self.counter = 0

    def fresh(self, stem):
        self.counter += 1
        return f"{stem}{self.counter}"

    def algebra(self, a: Algebra, name) -> str:
        for printed, nm in self.algebra_names.items():
            if printed == a:
                return nm
        self.algebra_names[a] = name
        _print_algebra(name, a, self.lines)
        return name

    def find_algebra(self, sp: Space):
        for a, nm in self.algebra_names.items():
            if a.space == sp:
                return nm
        raise KeyError("no printed algebra for that space")

    def map(self, f: LinMap, name) -> str:
        dom = self.find_algebra(f.domain)
        cod = self.find_algebra(f.codomain)
        _print_map(name, f, dom, cod, f.domain, f.codomain, self.lines)
        return name

    def bilinear(self, b: BilMap, name) -> str:
        _print_bilinear(
            name,
            b,
            self.find_algebra(b.left),
            self.find_algebra(b.right),
            self.find_algebra(b.codomain),
            self.lines,
        )
        return name

    def block(self, head, fields):
        """`head {`, one `key = value;` line per field, `}`."""
        self.lines.append(f"{head} {{")
        self.lines.extend(f"  {key} = {value};" for key, value in fields)
        self.lines.append("}")

    def action(self, act, stem, name, nname, mname):
        """The action's bilinear maps, then the action block naming them."""
        keys = ("star1", "star2") if isinstance(act, AssocAction) else ("dot",)
        fields = [(k, self.bilinear(getattr(act, k), f"{stem}_{k}")) for k in keys]
        self.block(f"action {name} : {nname} on {mname}", fields)

    def cat(self, c: CatAlgebra, stem, name):
        """C1, C0 (printed once if equal), s, t, e and the cat block."""
        c1 = self.algebra(c.c1, f"{stem}_C1")
        c0 = self.algebra(c.c0, f"{stem}_C0")
        maps = [(k, self.map(getattr(c, k), f"{stem}_{k}")) for k in "ste"]
        self.block(f"cat {name}", [("flavor", c.flavor), ("c1", c1), ("c0", c0)] + maps)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def print_algebra_doc(a: Algebra, name="A") -> str:
    b = _DocBuilder(a.field)
    b.algebra(a, name)
    return b.text()


def _print_xmod(b: _DocBuilder, x, stem, name):
    """M, N (printed once if equal), the action, the boundary, the xmod block."""
    mname = b.algebra(x.m, f"{stem}_M")
    nname = b.algebra(x.n, f"{stem}_N")
    b.action(x.action, stem, f"{stem}_act", nname, mname)
    d = b.map(x.boundary, f"{stem}_d")
    b.block(f"xmod {name}", [("action", f"{stem}_act"), ("boundary", d)])


def print_xbraiding_doc(x: XBraiding, name="B") -> str:
    """Full self-contained document for a braided crossed module."""
    b = _DocBuilder(x.base.m.field)
    _print_xmod(b, x.base, name, f"{name}_xm")
    br = b.bilinear(x.brace, f"{name}_brace")
    b.block(f"braiding {name}", [("xmod", f"{name}_xm"), ("brace", br)])
    return b.text()


def print_action_doc(a, name="A") -> str:
    """Self-contained document for an associative or Lie action."""
    b = _DocBuilder(a.module.field)
    mname = b.algebra(a.module, f"{name}_M")
    b.action(a, name, name, b.algebra(a.actor, f"{name}_N"), mname)
    return b.text()


def print_groupxmod_doc(x, name="X") -> str:
    """Self-contained document for a group crossed module."""
    lines = ["field Q"]
    gname = f"{name}_G"
    lines.append(print_group_doc(x.g, gname).rstrip())
    if x.h == x.g:
        hname = gname
    else:
        hname = f"{name}_H"
        lines.append(print_group_doc(x.h, hname).rstrip())
    rows = ",\n    ".join(" ".join(str(v) for v in row) for row in x.action)
    lines.append(f"groupxmod {name} {{")
    lines.append(f"  g = {gname};")
    lines.append(f"  h = {hname};")
    lines.append(f"  action =\n    {rows};")
    lines.append(f"  boundary = {' '.join(str(v) for v in x.boundary)};")
    if x.brace is not None:
        rows = ",\n    ".join(" ".join(str(v) for v in row) for row in x.brace)
        lines.append(f"  brace =\n    {rows};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_xmod_doc(x, name="X") -> str:
    b = _DocBuilder(x.m.field)
    _print_xmod(b, x, name, name)
    return b.text()


def print_catbraiding_doc(c: CatBraiding, name="C") -> str:
    b = _DocBuilder(c.base.c1.field)
    b.cat(c.base, name, f"{name}_cat")
    tau = b.bilinear(c.tau, f"{name}_tau")
    b.block(f"braiding {name}", [("cat", f"{name}_cat"), ("tau", tau)])
    return b.text()


def print_cat_doc(c: CatAlgebra, name="C") -> str:
    b = _DocBuilder(c.c1.field)
    b.cat(c, name, name)
    return b.text()


def print_group_doc(g: FiniteGroup, name="G") -> str:
    rows = ",\n    ".join(" ".join(str(v) for v in row) for row in g.table)
    return f"group {name} {{\n  table =\n    {rows};\n}}\n"


def print_document(doc: Document) -> str:
    """Canonical text for a parsed document (field line plus each block)."""
    b = _DocBuilder(doc.field)
    printed_algebras = {}
    for name, kind, obj in doc.blocks:
        if kind == "algebra":
            b.algebra(obj, name)
            printed_algebras[name] = obj
        elif kind == "map":
            b.map(obj, name)
        elif kind == "bilinear":
            b.bilinear(obj, name)
        elif kind == "action":
            nname = b.find_algebra(obj.actor.space)
            mname = b.find_algebra(obj.module.space)
            keys = ("star1", "star2") if isinstance(obj, AssocAction) else ("dot",)
            fields = [(k, _find_ref(doc, getattr(obj, k), "bilinear")) for k in keys]
            b.block(f"action {name} : {nname} on {mname}", fields)
        elif kind == "xmod":
            action = _find_ref(doc, obj.action, "action")
            boundary = _find_ref(doc, obj.boundary, "map")
            b.block(f"xmod {name}", [("action", action), ("boundary", boundary)])
        elif kind == "braiding":
            if isinstance(obj, XBraiding):
                fields = [("xmod", _find_ref(doc, obj.base, "xmod")),
                          ("brace", _find_ref(doc, obj.brace, "bilinear"))]
            else:
                fields = [("cat", _find_ref(doc, obj.base, "cat")),
                          ("tau", _find_ref(doc, obj.tau, "bilinear"))]
            b.block(f"braiding {name}", fields)
        elif kind == "cat":
            c1, c0 = b.find_algebra(obj.c1.space), b.find_algebra(obj.c0.space)
            maps = [(k, _find_ref(doc, getattr(obj, k), "map")) for k in "ste"]
            fields = [("flavor", obj.flavor), ("c1", c1), ("c0", c0)] + maps
            b.block(f"cat {name}", fields)
        elif kind == "group":
            rows = ",\n    ".join(" ".join(str(v) for v in row) for row in obj.table)
            b.lines.append(f"group {name} {{")
            b.lines.append(f"  table =\n    {rows};")
            b.lines.append("}")
        elif kind == "groupxmod":
            b.lines.append(f"groupxmod {name} {{")
            b.lines.append(f"  g = {_find_ref(doc, obj.g, 'group')};")
            b.lines.append(f"  h = {_find_ref(doc, obj.h, 'group')};")
            rows = ",\n    ".join(" ".join(str(v) for v in row) for row in obj.action)
            b.lines.append(f"  action =\n    {rows};")
            b.lines.append(f"  boundary = {' '.join(str(v) for v in obj.boundary)};")
            if obj.brace is not None:
                rows = ",\n    ".join(
                    " ".join(str(v) for v in row) for row in obj.brace
                )
                b.lines.append(f"  brace =\n    {rows};")
            b.lines.append("}")
    return b.text()


def _find_ref(doc: Document, obj, kind: str) -> str:
    for name, k, o in doc.blocks:
        if k == kind and o == obj:
            return name
    raise KeyError(f"document has no {kind} block for {obj!r}")
