#!/usr/bin/env python3
"""Search for a characteristic-2 gap between the two Lie braiding lists.

Over F2 the antisymmetrization argument relating the LieB3/LieB4 axioms
to the LieT3/LieT4 axioms breaks down, so the two validators could in
principle disagree.  This script enumerates every tau on small discrete
categorical Lie algebras over F2, keeps the candidates passing LieT1-2,
and compares verdicts.  `search` returns the counts, which the test
suite asserts; run as a script, it prints them.
"""

import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from braidalg.algebra import Algebra, is_lie
from braidalg.braid import (
    CatBraiding,
    validate_braiding_cat_lie_alt,
    validate_braiding_cat_lie_ulualan,
)
from braidalg.dsl import print_catbraiding_doc
from braidalg.fields import GF
from braidalg.icat import LIE, discrete_cat
from braidalg.linear import Space, bilinear_from_rule


def _from_bits(sp, cod, bits):
    """The bilinear map sp x sp -> cod whose k-coordinate on (b_i, b_j)
    is bits[(k * sp.dim + i) * sp.dim + j]."""
    n = sp.dim
    return bilinear_from_rule(
        sp,
        sp,
        cod,
        lambda i, j: tuple(bits[(k * n + i) * n + j] for k in range(cod.dim)),
    )


def lie_algebras_f2(dim):
    """All Lie algebra structures on F2^dim (including degenerate ones)."""
    sp = Space(GF(2), tuple(f"x{i}" for i in range(dim)))
    cells = dim * dim * dim
    for v in range(2 ** cells):
        a = Algebra(sp, _from_bits(sp, sp, [v >> p & 1 for p in range(cells)]))
        if is_lie(a):
            yield a


def taus(c0, c1):
    cells = c1.dim * c0.dim * c0.dim
    for bits in itertools.product((0, 1), repeat=cells):
        yield _from_bits(c0.space, c1.space, bits)


def search():
    """(number of candidates passing LieT1-2, the braidings among them on
    which the two validators disagree, with both lists of failing tags)."""
    candidates = 0
    disagreements = []
    for dim in (1, 2):
        for a in lie_algebras_f2(dim):
            cat = discrete_cat(a, LIE)
            for tau in taus(cat.c0, cat.c1):
                b = CatBraiding(cat, tau)
                ul = validate_braiding_cat_lie_ulualan(b)
                t12_ok = all(
                    e.ok for e in ul.entries if e.tag in ("LieT1", "LieT2")
                )
                if not t12_ok:
                    continue
                candidates += 1
                alt = validate_braiding_cat_lie_alt(b)
                if ul.ok != alt.ok:
                    disagreements.append((b, ul.failing_tags(), alt.failing_tags()))
    return candidates, disagreements


def main():
    candidates, disagreements = search()
    for b, ul, alt in disagreements[:5]:
        print(print_catbraiding_doc(b, "disagreement"))
        print("  ulualan", ul, "alt", alt)
    print(f"candidates passing LieT1-2: {candidates}")
    print(f"verdict disagreements: {len(disagreements)}")


if __name__ == "__main__":
    main()
