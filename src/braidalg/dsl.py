"""Textual front end: a small declaration language and its canonical printer.

A document is an ordered sequence of named blocks over a single ground
field.  Unlisted structure constants are zero; nothing is symmetrized
unless an algebra opts in with the `antisymmetric` attribute.

    field Q
    algebra sl2 basis h, e, f antisymmetric {
      h*e = 2 e;  h*f = -2 f;  e*f = h;
    }
    map d : sl2 -> sl2 { h |-> h; e |-> e; f |-> f; }

`BLOCK_KINDS` is the one table of block kinds: each keyword gives its
parser, its printer and, for a kind the CLI validates, its validator.
"""

from __future__ import annotations

import re

from .action import AssocAction, LieAction, require_action_flavor
from .action import validate_assoc_action, validate_lie_action
from .algebra import ASSOC, LIE, Algebra
from .braid import (
    CatBraiding,
    XBraiding,
    validate_braiding_cat_assoc,
    validate_braiding_cat_lie_ulualan,
    validate_braiding_xmod_assoc,
    validate_braiding_xmod_lie,
)
from .errors import (
    DimensionMismatch,
    DslError,
    DslSyntaxError,
    FieldMismatch,
    UnknownReference,
)
from .fields import MAX_CHARACTERISTIC, QQ, CharacteristicTooLarge, Field
from .groupx import FiniteGroup, GroupXMod, validate_group_braiding, validate_group_xmod
from .icat import CatAlgebra, require_cat_flavor, validate_cat_algebra
from .linear import BilMap, LinMap, Space, _combine, bilinear_from_rule
from .linear import from_columns, identity_map, vneg
from .record import Record
from .report import merge
from .xmod import XMod, require_xmod_flavor, validate_xmod_assoc, validate_xmod_lie


class Document(Record):
    field: Field
    blocks: tuple  # ordered (name, kind, obj) triples

    def lookup(self, name):
        for n, kind, obj in self.blocks:
            if n == name:
                return kind, obj
        return None


def a_kind(kind: str) -> str:
    """A block kind with its article, as refusals name it: "an algebra", "a map"."""
    return ("an " if kind[0] in "aeiou" else "a ") + kind


# ---------------------------------------------------------------------------
# lexer.  A token is its text.  `_TOKEN` skips blanks (space, tab, CR, LF)
# and `#` comments, then takes one token: a number (ASCII digits, optionally
# `/` and digits), a run of word characters, a punctuator, any other single
# character, or "" at the end (eof).  A word run that starts with a letter
# or `_` is an identifier; any other token that is no punctuator is an
# unexpected character.  Only errors need positions: `_offsets` lexes the
# source again to find them.

_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    # one-character punctuators first: half the tokens are one, and no
    # other token starts with one of their characters
    r"([{}(),;:*=+]|[0-9]+(?:/[0-9]+)?|\w+|\|->|->|-|.|\Z)",
    re.DOTALL,
)
_PUNCT = frozenset(("|->", "->", "{", "}", "(", ")", ",", ";", ":", "*", "=", "+", "-"))


def _tokenize(source: str):
    """The tokens of `source`, eof ("") last, and {token: kind}, where a
    kind is "number", "ident", "punct" or "eof"."""
    toks = _TOKEN.findall(source)
    if len(toks) > 1 and not toks[-2]:  # a skip ran to the end: eof twice
        toks.pop()
    distinct = set(toks)
    kinds = {}
    for t in distinct:
        if not t:
            kinds[t] = "eof"
        elif "0" <= t[0] <= "9":
            kinds[t] = "number"
        elif t[0].isalpha() or t[0] == "_":
            kinds[t] = "ident"
        elif t in _PUNCT:
            kinds[t] = "punct"
    if len(kinds) < len(distinct):
        k = next(k for k, t in enumerate(toks) if t not in kinds)
        at = _line_col(source, _offsets(source)[k])
        raise DslSyntaxError(f"unexpected character {toks[k][0]!r}", *at)
    return toks, kinds


def _offsets(source: str):
    """Where each token of `source` starts."""
    return [m.start(1) for m in _TOKEN.finditer(source)]


def _line_col(source: str, off: int):
    """The line and column of the token at `off`.  Eof after a comment on
    the last line has the column of its `#`."""
    start = source.rfind("\n", 0, off) + 1
    if off == len(source) and "#" in source[start:]:
        off = source.index("#", start)
    return source.count("\n", 0, off) + 1, off - start + 1


# ---------------------------------------------------------------------------
# parser / elaborator

# the least digit limit int() can be set to; a group element or either part
# of a scalar is far shorter
_MAX_INT_DIGITS = 640


def _from_pairs(left, right, cod: Space, vals):
    """The bilinear map with values `vals` on basis pairs, zero elsewhere."""
    zero = cod.zero()
    return bilinear_from_rule(left, right, cod, lambda i, j: vals.get((i, j), zero))


def _index(space: Space):
    return {label: i for i, label in enumerate(space.labels)}


class _Parser:
    """Parses one document.  A token is named by its index in `toks`."""

    def __init__(self, source: str):
        self.source = source
        self.toks, self.kinds = _tokenize(source)
        self.pos = 0
        self.field: Field | None = None
        self.by_name = {}  # name -> (kind, object), in document order
        self.scalars = {}  # number token -> its value in the field

    # token plumbing ------------------------------------------------------

    def at(self, k):
        """The line and column of token k."""
        return _line_col(self.source, _offsets(self.source)[k])

    def peek(self) -> str:
        return self.toks[self.pos]

    def take(self, kind) -> int:
        """Step past the next token, which must be of `kind`; its index."""
        k = self.pos
        if self.kinds[self.toks[k]] != kind:
            self.unexpected(kind, k)
        self.pos = k + 1
        return k

    def expect(self, value):
        """Step past the next token, which must be `value`."""
        if self.toks[self.pos] != value:
            self.unexpected(value, self.pos)
        self.pos += 1

    def unexpected(self, want, k):
        raise DslSyntaxError(
            f"expected {want!r}, found {self.toks[k] or 'eof'!r}",
            *self.at(k),
            expected=(want,),
        )

    # scalars and vectors --------------------------------------------------

    def scalar(self, k):
        tok = self.toks[k]
        if tok in self.scalars:
            return self.scalars[tok]
        # the rule of int_list, for the numerator and the denominator
        parts = [p.lstrip("0") or "0" for p in tok.split("/")]
        for digits in parts:
            if len(digits) > _MAX_INT_DIGITS:
                raise DslSyntaxError(
                    f"scalar of {len(digits)} digits is too large", *self.at(k)
                )
        try:
            value = self.scalars[tok] = self.field.of("/".join(parts))
        except (ZeroDivisionError, ValueError):
            raise FieldMismatch(
                f"scalar {tok!r} has no value in {self.field}", *self.at(k)
            )
        return value

    def expr(self, index, basis):
        """Linear combination of basis labels, as a sparse vector: `index`
        maps a label to its index, `basis` holds the basis vectors.  A bare
        `0` is the zero vector."""
        toks, kinds, k, terms = self.toks, self.kinds, self.pos, []
        t = toks[k]
        if t != "-" and t != "+":  # an unsigned first term
            t, k = "+", k - 1
        while t == "+" or t == "-":
            c = 1 if t == "+" else -1
            k += 1
            t = toks[k]
            if kinds[t] == "number":
                c *= self.scalar(k)
                k += 1
                t = toks[k]
                if kinds[t] != "ident":
                    if c != 0:
                        raise DslSyntaxError("scalar term needs a basis label", *self.at(k))
                    continue
            elif kinds[t] != "ident":
                raise DslSyntaxError(f"expected a term, found {t or 'eof'!r}", *self.at(k))
            terms.append((self.label(index, k), c))
            k += 1
            t = toks[k]
        self.pos = k
        return _combine(self.field, terms, basis)

    def label(self, index, k) -> int:
        i = index.get(self.toks[k])
        if i is None:
            raise UnknownReference(f"unknown basis label {self.toks[k]!r}", *self.at(k))
        return i

    def int_list(self):
        out = []
        while self.kinds[self.peek()] == "number":
            k = self.take("number")
            if "/" in self.toks[k]:
                raise DslSyntaxError("expected an integer", *self.at(k))
            # int() may refuse more digits: compare lengths first
            digits = self.toks[k].lstrip("0")
            if len(digits) > _MAX_INT_DIGITS:
                raise DslSyntaxError(
                    f"integer of {len(digits)} digits is too large", *self.at(k)
                )
            out.append(int(digits or "0"))
        if not out:
            raise DslSyntaxError("expected at least one integer", *self.at(self.pos))
        return tuple(out)

    def int_rows(self):
        rows = [self.int_list()]
        while self.peek() == ",":
            self.pos += 1
            rows.append(self.int_list())
        return tuple(rows)

    # references -----------------------------------------------------------

    def ref(self, kind):
        k = self.take("ident")
        name = self.toks[k]
        if name not in self.by_name:
            raise UnknownReference(f"unknown name {name!r}", *self.at(k))
        got, obj = self.by_name[name]
        if got != kind:
            raise UnknownReference(
                f"{name!r} is {a_kind(got)}, expected {kind}", *self.at(k)
            )
        return k, obj

    def register(self, k, kind: str, obj):
        if self.toks[k] in self.by_name:
            raise DslSyntaxError(f"duplicate name {self.toks[k]!r}", *self.at(k))
        self.by_name[self.toks[k]] = (kind, obj)

    # key = value blocks ----------------------------------------------------

    def block_entries(self, spec):
        """Parse `{ key = ...; }` where spec maps keys to parse thunks."""
        self.expect("{")
        seen = {}
        while self.peek() != "}":
            k = self.take("ident")
            key = self.toks[k]
            if key not in spec:
                raise DslSyntaxError(
                    f"unknown entry {key!r}", *self.at(k), expected=tuple(sorted(spec))
                )
            if key in seen:
                raise DslSyntaxError(f"duplicate entry {key!r}", *self.at(k))
            self.expect("=")
            seen[key] = spec[key]()
            self.expect(";")
        self.pos += 1
        return seen

    def need(self, seen, key, k):
        if key not in seen:
            raise DslSyntaxError(f"missing entry {key!r}", *self.at(k))
        return seen[key]

    # declarations ----------------------------------------------------------

    def parse_document(self) -> Document:
        if self.peek() != "field":
            raise DslSyntaxError(
                "document must start with a field declaration",
                *self.at(self.pos),
                expected=("field",),
            )
        self.pos += 1
        k = self.take("ident")
        if self.toks[k] == "Q":
            self.field = Field(0)
        elif self.toks[k] == "Fp":
            k = self.take("number")
            p = self.toks[k]
            if "/" in p:
                raise DslSyntaxError("characteristic must be an integer", *self.at(k))
            try:
                # int() refuses more than 4300 digits: compare lengths first
                digits = p.lstrip("0")
                if len(digits) > len(str(MAX_CHARACTERISTIC)):
                    raise CharacteristicTooLarge(digits)
                if not digits:  # Field(0) would be the rationals
                    raise ValueError(p)
                self.field = Field(int(digits))
            except CharacteristicTooLarge as exc:
                raise FieldMismatch(str(exc), *self.at(k))
            except ValueError:
                raise FieldMismatch(f"characteristic {p} is not prime", *self.at(k))
        else:
            raise DslSyntaxError(
                f"unknown field {self.toks[k]!r}", *self.at(k), expected=("Q", "Fp")
            )
        while self.peek():
            kind = self.peek()
            if kind not in BLOCK_KINDS:
                raise DslSyntaxError(
                    f"expected a declaration, found {kind!r}",
                    *self.at(self.pos),
                    expected=tuple(BLOCK_KINDS),
                )
            self.pos += 1
            name = self.take("ident")
            self.register(name, kind, BLOCK_KINDS[kind].parse(self, name))
        blocks = tuple((n, k, o) for n, (k, o) in self.by_name.items())
        return Document(self.field, blocks)

    def rows(self, head, what, spaces, sep, cod: Space):
        """Parse `{ head sep vector; }` into {key: vector}.  `head` lists the
        tokens of a left side, "ident" standing for a basis label of the
        next space of `spaces`; the key is the tuple of those labels'
        indices, and `what`, filled with the labels, names a repeated one."""
        toks, kinds, rows = self.toks, self.kinds, {}
        index, basis = _index(cod), cod.basis()
        spaces = iter(spaces)
        slots = [(n, _index(next(spaces))) for n, w in enumerate(head) if w == "ident"]
        self.expect("{")
        k = self.pos
        while toks[k] != "}":
            start = k
            for want in head:  # an identifier may be spelled "ident"
                if toks[k] != want and (want != "ident" or kinds[toks[k]] != "ident"):
                    self.unexpected(want, k)
                k += 1
            key = tuple([self.label(ix, start + n) for n, ix in slots])
            if key in rows:
                names = (toks[start + n] for n, _ in slots)
                at = self.at(start + slots[0][0])
                raise DslSyntaxError(f"{what.format(*names)} listed twice", *at)
            if toks[k] != sep:
                self.unexpected(sep, k)
            self.pos = k + 1
            rows[key] = self.expr(index, basis)
            k = self.pos
            if toks[k] != ";":
                self.unexpected(";", k)
            k += 1
        self.pos = k + 1
        return rows

    def parse_algebra(self, name):
        self.expect("basis")
        labels = [self.toks[self.take("ident")]]
        while self.peek() == ",":
            self.pos += 1
            labels.append(self.toks[self.take("ident")])
        if len(set(labels)) != len(labels):
            raise DslSyntaxError("duplicate basis labels", *self.at(name))
        antisym = self.peek() == "antisymmetric"
        if antisym:
            self.pos += 1
        space = Space(self.field, tuple(labels))
        F = self.field
        head = ("ident", "*", "ident")
        prods = self.rows(head, "product {}*{}", (space, space), "=", space)
        if antisym:
            for (i, j), v in list(prods.items()):
                if (j, i) not in prods and i != j:
                    prods[(j, i)] = vneg(F, v)
        return Algebra(space, _from_pairs(space, space, space, prods))

    def parse_map(self, name):
        self.expect(":")
        _, dom = self.ref("algebra")
        self.expect("->")
        _, cod = self.ref("algebra")
        cols = self.rows(("ident",), "image of {}", (dom.space,), "|->", cod.space)
        zero = cod.space.zero()
        columns = [cols.get((i,), zero) for i in range(dom.dim)]
        return from_columns(dom.space, cod.space, columns)

    def parse_bilinear(self, name):
        self.expect(":")
        _, left = self.ref("algebra")
        self.expect(",")
        _, right = self.ref("algebra")
        self.expect("->")
        _, cod = self.ref("algebra")
        head = ("(", "ident", ",", "ident", ")")
        vals = self.rows(head, "pair ({}, {})", (left.space, right.space), "=", cod.space)
        return _from_pairs(left.space, right.space, cod.space, vals)

    def parse_action(self, name):
        self.expect(":")
        _, actor = self.ref("algebra")
        self.expect("on")
        _, module = self.ref("algebra")
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
                    "an action has either dot or star1/star2, not both", *self.at(name)
                )
            tok, dot = seen["dot"]
            self._check_shape(tok, dot, actor.space, module.space, module.space)
            return LieAction(actor, module, dot)
        t1 = self.need(seen, "star1", name)
        t2 = self.need(seen, "star2", name)
        self._check_shape(t1[0], t1[1], actor.space, module.space, module.space)
        self._check_shape(t2[0], t2[1], module.space, actor.space, module.space)
        return AssocAction(actor, module, t1[1], t2[1])

    def _check_shape(self, tok, bil: BilMap, left, right, cod):
        if (bil.left, bil.right, bil.codomain) != (left, right, cod):
            raise DimensionMismatch(
                f"bilinear {self.toks[tok]!r} has the wrong signature", *self.at(tok)
            )

    def parse_xmod(self, name):
        seen = self.block_entries(
            {
                "action": lambda: self.ref("action"),
                "boundary": lambda: self.ref("map"),
            }
        )
        _, action = self.need(seen, "action", name)
        btok, boundary = self.need(seen, "boundary", name)
        if (
            boundary.domain != action.module.space
            or boundary.codomain != action.actor.space
        ):
            raise DimensionMismatch(
                "boundary must map the module to the actor", *self.at(btok)
            )
        return XMod(action, boundary)

    def parse_braiding(self, name):
        seen = self.block_entries(
            {
                "xmod": lambda: self.ref("xmod"),
                "brace": lambda: self.ref("bilinear"),
                "cat": lambda: self.ref("cat"),
                "tau": lambda: self.ref("bilinear"),
            }
        )
        if {"xmod", "brace"} & seen.keys():
            if {"cat", "tau"} & seen.keys():
                raise DslSyntaxError(
                    "a braiding is over an xmod or a cat, not both", *self.at(name)
                )
            _, x = self.need(seen, "xmod", name)
            btok, brace = self.need(seen, "brace", name)
            self._check_shape(btok, brace, x.n.space, x.n.space, x.m.space)
            return XBraiding(x, brace)
        _, c = self.need(seen, "cat", name)
        ttok, tau = self.need(seen, "tau", name)
        self._check_shape(ttok, tau, c.c0.space, c.c0.space, c.c1.space)
        return CatBraiding(c, tau)

    def parse_cat(self, name):
        def flavor_value():
            k = self.take("ident")
            if self.toks[k] not in (ASSOC, LIE):
                raise DslSyntaxError(
                    "flavor must be assoc or lie", *self.at(k), expected=(ASSOC, LIE)
                )
            return k, self.toks[k]

        def map_pair():
            first = self.ref("map")
            self.expect(",")
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
        flavor = self.need(seen, "flavor", name)[1]
        _, c1 = self.need(seen, "c1", name)
        _, c0 = self.need(seen, "c0", name)
        stok, s = self.need(seen, "s", name)
        ttok, t = self.need(seen, "t", name)
        etok, e = self.need(seen, "e", name)
        for tok, f, dom, cod in (
            (stok, s, c1, c0),
            (ttok, t, c1, c0),
            (etok, e, c0, c1),
        ):
            if f.domain != dom.space or f.codomain != cod.space:
                raise DimensionMismatch(
                    f"map {self.toks[tok]!r} has the wrong signature", *self.at(tok)
                )
        obj = CatAlgebra(c1, c0, s, t, e, flavor)
        if "k" in seen:
            (ptok, pmap), (_, qmap) = seen["k"]
            if pmap != obj.vertical or qmap != identity_map(c1.space):
                raise DslError(
                    "explicit k must equal the forced composition x - e(t(x)) + y",
                    *self.at(ptok),
                )
        return obj

    def parse_group(self, name):
        seen = self.block_entries({"table": self.int_rows})
        rows = self.need(seen, "table", name)
        return FiniteGroup(len(rows), rows)

    def parse_groupxmod(self, name):
        seen = self.block_entries(
            {
                "g": lambda: self.ref("group"),
                "h": lambda: self.ref("group"),
                "action": self.int_rows,
                "boundary": self.int_list,
                "brace": self.int_rows,
            }
        )
        _, g = self.need(seen, "g", name)
        _, h = self.need(seen, "h", name)
        action = self.need(seen, "action", name)
        boundary = self.need(seen, "boundary", name)
        return GroupXMod(g, h, action, boundary, seen.get("brace"))


def parse(source: str) -> Document:
    return _Parser(source).parse_document()


# ---------------------------------------------------------------------------
# canonical printer


def _expr_str(F: Field, space: Space, vec) -> str:
    """A nonzero sparse `vec` as a combination of basis labels."""
    pieces = []
    for i, c in vec:
        label = space.labels[i]
        negative = F.is_rationals and c < 0
        mag = F.neg(c) if negative else c
        term = label if mag == F.one() else f"{F.to_str(mag)} {label}"
        if not pieces:
            pieces.append(f"-{term}" if negative else term)
        else:
            pieces.append(f"- {term}" if negative else f"+ {term}")
    return " ".join(pieces)


def _pairs(b: BilMap, head: str):
    """(head, value) for every pair of basis labels, head filled with both."""
    return (
        (head.format(x, y), b.on_basis(i, j))
        for i, x in enumerate(b.left.labels)
        for j, y in enumerate(b.right.labels)
    )


class _Printer:
    """The text of one document, one `print_<kind>` formatter per block kind.

    Parsed documents and constructed objects print by one naming rule: a
    part is named by the first printed block of its kind with an equal
    value, and a part not printed yet is printed first as `{stem}_{suffix}`.
    """

    def __init__(self, field: Field | None, stem=None):
        self.lines = []
        if field is not None:
            self.lines.append(
                "field Q" if field.is_rationals else f"field Fp {field.characteristic}"
            )
        self.stem = stem
        self.printed = []  # (kind, obj, name) of each block printed so far

    def printed_as(self, kind, obj):
        """The name of the first printed `kind` block equal to `obj`, or None."""
        return next((n for k, o, n in self.printed if k == kind and o == obj), None)

    def block(self, kind, name, obj) -> str:
        """Print `obj` as block `name` and return the name it is printed under.

        A value of a kind with no validator (algebra, map, bilinear, group)
        equal to one printed already is not printed again: the earlier
        name is returned.
        """
        if BLOCK_KINDS[kind].validate is None:
            earlier = self.printed_as(kind, obj)
            if earlier is not None:
                return earlier
        self.printed.append((kind, obj, name))
        BLOCK_KINDS[kind].print(self, name, obj)
        return name

    def ref(self, kind, obj, suffix) -> str:
        """The name a block gives its part `obj`: the first printed block
        of that kind equal to `obj`, else a new block `{stem}_{suffix}`."""
        return self.printed_as(kind, obj) or self.block(
            kind, f"{self.stem}_{suffix}", obj
        )

    def space(self, sp: Space) -> str:
        """Maps and bilinears carry only spaces: any algebra on `sp` names it."""
        for k, o, n in self.printed:
            if k == "algebra" and o.space == sp:
                return n
        raise KeyError("no printed algebra for that space")

    def rows(self, head, cod: Space, items):
        """`head {`, one `lhs expr;` line per nonzero (lhs, vector), `}`."""
        F = cod.field
        self.lines.append(f"{head} {{")
        self.lines.extend(f"  {lhs} {_expr_str(F, cod, v)};" for lhs, v in items if v)
        self.lines.append("}")

    def entries(self, head, fields):
        """`head {`, one `key = value;` line per field, `}`.

        A value that is not a string is a table of ints, one row a line.
        """
        self.lines.append(f"{head} {{")
        for key, value in fields:
            if isinstance(value, str):
                self.lines.append(f"  {key} = {value};")
            else:
                rows = ",\n    ".join(" ".join(map(str, row)) for row in value)
                self.lines.append(f"  {key} =\n    {rows};")
        self.lines.append("}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    # one formatter per block kind ------------------------------------------

    def print_algebra(self, name, a: Algebra):
        head = f"algebra {name} basis {', '.join(a.space.labels)}"
        self.rows(head, a.space, _pairs(a.mult, "{}*{} ="))

    def print_map(self, name, f: LinMap):
        head = f"map {name} : {self.space(f.domain)} -> {self.space(f.codomain)}"
        cols = ((f"{x} |->", f.column(i)) for i, x in enumerate(f.domain.labels))
        self.rows(head, f.codomain, cols)

    def print_bilinear(self, name, b: BilMap):
        left, right = self.space(b.left), self.space(b.right)
        head = f"bilinear {name} : {left}, {right} -> {self.space(b.codomain)}"
        self.rows(head, b.codomain, _pairs(b, "({}, {}) ="))

    def print_action(self, name, act):
        module = self.ref("algebra", act.module, "M")
        actor = self.ref("algebra", act.actor, "N")
        keys = ("star1", "star2") if act.flavor == ASSOC else ("dot",)
        fields = [(k, self.ref("bilinear", getattr(act, k), k)) for k in keys]
        self.entries(f"action {name} : {actor} on {module}", fields)

    def print_xmod(self, name, x):
        action = self.ref("action", x.action, "act")
        boundary = self.ref("map", x.boundary, "d")
        self.entries(f"xmod {name}", [("action", action), ("boundary", boundary)])

    def print_braiding(self, name, b):
        if isinstance(b, XBraiding):
            fields = [("xmod", self.ref("xmod", b.base, "xm")),
                      ("brace", self.ref("bilinear", b.brace, "brace"))]
        else:
            fields = [("cat", self.ref("cat", b.base, "cat")),
                      ("tau", self.ref("bilinear", b.tau, "tau"))]
        self.entries(f"braiding {name}", fields)

    def print_cat(self, name, c: CatAlgebra):
        c1 = self.ref("algebra", c.c1, "C1")
        c0 = self.ref("algebra", c.c0, "C0")
        maps = [(k, self.ref("map", getattr(c, k), k)) for k in "ste"]
        fields = [("flavor", c.flavor), ("c1", c1), ("c0", c0)] + maps
        self.entries(f"cat {name}", fields)

    def print_group(self, name, g: FiniteGroup):
        self.entries(f"group {name}", [("table", g.table)])

    def print_groupxmod(self, name, x: GroupXMod):
        fields = [
            ("g", self.ref("group", x.g, "G")),
            ("h", self.ref("group", x.h, "H")),
            ("action", x.action),
            ("boundary", " ".join(map(str, x.boundary))),
        ]
        if x.brace is not None:
            fields.append(("brace", x.brace))
        self.entries(f"groupxmod {name}", fields)


# ---------------------------------------------------------------------------
# block kinds.  A validator looks up its library function when it runs, so
# that tracing, which replaces this module's bindings, sees every call; it
# first refuses algebras without the flavor, as the constructions do.


def _validate_action(a, name):
    require_action_flavor(a)
    return (validate_assoc_action if a.flavor == ASSOC else validate_lie_action)(a, name)


def _validate_xmod(x, name):
    require_xmod_flavor(x, x.flavor)
    return (validate_xmod_assoc if x.flavor == ASSOC else validate_xmod_lie)(x, name)


def _validate_braiding(b, name):
    assoc = b.base.flavor == ASSOC
    if isinstance(b, XBraiding):
        require_xmod_flavor(b.base, b.base.flavor)
        return (validate_braiding_xmod_assoc if assoc else validate_braiding_xmod_lie)(b, name)
    require_cat_flavor(b.base)
    return (validate_braiding_cat_assoc if assoc else validate_braiding_cat_lie_ulualan)(b, name)


def _validate_cat(c, name):
    require_cat_flavor(c)
    return validate_cat_algebra(c, name)


def _validate_groupxmod(x, name):
    rep = validate_group_xmod(x, name)
    if x.brace is not None:
        rep = merge(name, rep, validate_group_braiding(x, name))
    return rep


class BlockKind(Record):
    parse: object  # (parser, name token) -> the block's object
    print: object  # (printer, name, object) appends the block's lines
    validate: object = None  # (object, name) -> ValidationReport


# keyword -> block kind, in the order a declaration error lists them
BLOCK_KINDS = {
    "algebra": BlockKind(_Parser.parse_algebra, _Printer.print_algebra),
    "map": BlockKind(_Parser.parse_map, _Printer.print_map),
    "bilinear": BlockKind(_Parser.parse_bilinear, _Printer.print_bilinear),
    "action": BlockKind(_Parser.parse_action, _Printer.print_action, _validate_action),
    "xmod": BlockKind(_Parser.parse_xmod, _Printer.print_xmod, _validate_xmod),
    "braiding": BlockKind(
        _Parser.parse_braiding, _Printer.print_braiding, _validate_braiding
    ),
    "cat": BlockKind(_Parser.parse_cat, _Printer.print_cat, _validate_cat),
    "group": BlockKind(_Parser.parse_group, _Printer.print_group),
    "groupxmod": BlockKind(
        _Parser.parse_groupxmod, _Printer.print_groupxmod, _validate_groupxmod
    ),
}
VALIDATABLE = tuple(k for k, b in BLOCK_KINDS.items() if b.validate is not None)


def _print_object(field, kind, obj, name) -> str:
    """Self-contained document: the parts of `obj`, then `obj` as block `name`."""
    p = _Printer(field, stem=name)
    p.block(kind, name, obj)
    return p.text()


def print_algebra_doc(a: Algebra, name="A") -> str:
    return _print_object(a.field, "algebra", a, name)


def print_action_doc(a, name="A") -> str:
    """Self-contained document for an associative or Lie action."""
    return _print_object(a.module.field, "action", a, name)


def print_xmod_doc(x, name="X") -> str:
    return _print_object(x.m.field, "xmod", x, name)


def print_xbraiding_doc(x: XBraiding, name="B") -> str:
    """Full self-contained document for a braided crossed module."""
    return _print_object(x.base.m.field, "braiding", x, name)


def print_cat_doc(c: CatAlgebra, name="C") -> str:
    return _print_object(c.c1.field, "cat", c, name)


def print_catbraiding_doc(c: CatBraiding, name="C") -> str:
    return _print_object(c.base.c1.field, "braiding", c, name)


def print_group_doc(g: FiniteGroup, name="G") -> str:
    """The group block alone, with no field line."""
    return _print_object(None, "group", g, name)


def print_groupxmod_doc(x, name="X") -> str:
    """Self-contained document for a group crossed module."""
    return _print_object(QQ, "groupxmod", x, name)


def print_document(doc: Document) -> str:
    """Canonical text for a parsed document (field line plus each block)."""
    p = _Printer(doc.field)
    for name, kind, obj in doc.blocks:
        p.block(kind, name, obj)
    return p.text()
