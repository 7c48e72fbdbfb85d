"""Per-axiom validation reports with counterexample witnesses."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InternalInvariantViolation
from .linear import dense, evaluate, law_space
from .record import Record


class Witness(Record):
    basis_tuple: tuple
    lhs: tuple
    rhs: tuple


class AxiomCheck(Record):
    tag: str
    ok: bool
    witness: Witness | None = None


class ValidationReport(Record):
    subject: str
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failing_tags(self):
        return [e.tag for e in self.entries if not e.ok]

    def require(self, error, message):
        """Refuse an input: raise `error(message, self)` unless all passed."""
        if not self.ok:
            raise error(message, self)

    def assert_ok(self, message):
        """Assert a theorem: raise InternalInvariantViolation naming the
        failing tags unless all passed."""
        if not self.ok:
            raise InternalInvariantViolation(f"{message}: {self.failing_tags()}")

    def to_json_obj(self):
        out = []
        for e in self.entries:
            item = {
                "subject": self.subject,
                "axiom_tag": e.tag,
                "status": "pass" if e.ok else "fail",
            }
            if e.witness is not None:
                item["witness"] = {
                    "basis_tuple": list(e.witness.basis_tuple),
                    "lhs": [str(a) for a in e.witness.lhs],
                    "rhs": [str(a) for a in e.witness.rhs],
                }
            out.append(item)
        return out

    def to_text(self, rationals=False):
        """One line per entry.  With `rationals`, witness entries are spelled
        as Fractions, whether a scalar is stored as an int or not."""
        spell = (lambda a: repr(Fraction(a))) if rationals else repr
        lines = []
        for e in self.entries:
            if e.ok:
                lines.append(f"{self.subject}: {e.tag}: pass")
            else:
                w = e.witness
                lhs, rhs = (", ".join(map(spell, side)) for side in (w.lhs, w.rhs))
                lines.append(
                    f"{self.subject}: {e.tag}: fail at {w.basis_tuple} "
                    f"lhs=[{lhs}] rhs=[{rhs}]"
                )
        return "\n".join(lines)


def basis_tuples(dims):
    """Every basis index tuple of `dims`, in lexicographic order."""
    return itertools.product(*(range(d) for d in dims))


def sweep(tag: str, dims, lhs, rhs) -> AxiomCheck:
    """Check the law lhs = rhs, two `linear.Term`s, over all `basis_tuples(dims)`.

    Each side is evaluated once on every tuple and the two lists are
    compared at once; the first tuple where they differ is the witness, its
    sides dense in the one space they lie in (ValueError if there is none)."""
    dim = law_space(lhs, rhs).dim
    left, right = evaluate(dims, lhs, rhs)
    if left == right:
        return AxiomCheck(tag, True)
    k = next(k for k, (u, v) in enumerate(zip(left, right)) if u != v)
    idx = next(itertools.islice(basis_tuples(dims), k, None))
    return AxiomCheck(tag, False, Witness(idx, dense(left[k], dim), dense(right[k], dim)))


def merge(subject: str, *parts) -> ValidationReport:
    entries = []
    for p in parts:
        if isinstance(p, ValidationReport):
            entries.extend(p.entries)
        else:
            entries.extend(p)
    return ValidationReport(subject, tuple(entries))
