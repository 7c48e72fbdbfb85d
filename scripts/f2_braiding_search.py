#!/usr/bin/env python3
"""Search for a characteristic-2 gap between the two Lie braiding lists.

Over F2 the antisymmetrization argument relating the LieB3/LieB4 axioms
to the LieT3/LieT4 axioms breaks down, so the two validators could in
principle disagree.  `compare` computes, exactly, the affine spaces of
tau passing LieT1-2, the ulualan list and the alt list, and checks both
validators at each list's particular point and each step from it along a
basis vector: if one space is not inside the other, one of those points
lies outside it.  `search` runs it on the discrete categorical Lie
algebras of dimension 1 and 2 over F2 and returns the counts, which the
test suite asserts; run as a script, it prints them.
"""

import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from braidalg.algebra import Algebra, is_lie
from braidalg.braid import (
    CatBraiding,
    braiding_cat_lie_alt_laws,
    braiding_cat_lie_ulualan_laws,
    braiding_system,
    validate_braiding_cat_lie_alt,
    validate_braiding_cat_lie_ulualan,
    with_braiding,
)
from braidalg.dsl import print_catbraiding_doc
from braidalg.fields import GF
from braidalg.icat import LIE, discrete_cat
from braidalg.linear import Space, affine_solutions, bilinear_from_coordinates
from braidalg.linear import vadd, zero_bilmap

T12 = ("LieT1", "LieT2")
ULUALAN = T12 + ("LieB3", "LieB4")
ALT = T12 + ("LieT3", "LieT4")


def lie_algebras_f2(dim):
    """All Lie algebra structures on F2^dim (including degenerate ones)."""
    sp = Space(GF(2), tuple(f"x{i}" for i in range(dim)))
    cells = dim * dim * dim
    for v in range(2 ** cells):
        bits = [v >> p & 1 for p in range(cells)]
        a = Algebra(sp, bilinear_from_coordinates(sp, sp, sp, bits))
        if is_lie(a):
            yield a


def lie_laws(b):
    """The ulualan list, then LieT3 and LieT4 of the alt list."""
    alt = braiding_cat_lie_alt_laws(b)
    return braiding_cat_lie_ulualan_laws(b) + [law for law in alt if law[0] not in T12]


def compare(cat):
    """The dimensions of the spaces of tau on the categorical Lie algebra
    `cat` passing LieT1-2, the ulualan list and the alt list (None for an
    empty space), and the braidings found on which the two validators
    disagree, with both lists of failing tags."""
    F = cat.c1.field
    b = CatBraiding(cat, zero_bilmap(cat.c0.space, cat.c0.space, cat.c1.space))
    system = braiding_system(b, lie_laws)
    n = cat.c0.dim * cat.c0.dim * cat.c1.dim

    def space(tags):
        rows = [row for tag in tags for row in system[tag][0]]
        const = [c for tag in tags for c in system[tag][1]]
        return affine_solutions(F, rows, const, n)

    spaces = [space(tags) for tags in (T12, ULUALAN, ALT)]
    disagreements = []
    # both representations are canonical, so equal spaces are checked once
    for part, null in filter(None, dict.fromkeys(spaces[1:])):
        for x in itertools.chain([part], (vadd(F, part, v) for v in null)):
            mut = with_braiding(b, x)
            ul = validate_braiding_cat_lie_ulualan(mut)
            alt = validate_braiding_cat_lie_alt(mut)
            if ul.ok != alt.ok:
                disagreements.append((mut, ul.failing_tags(), alt.failing_tags()))
    return [None if sol is None else len(sol[1]) for sol in spaces], disagreements


def search():
    """(number of tau passing LieT1-2 on the discrete Lie algebras of
    dimension 1 and 2 over F2, the braidings found on which the two
    validators disagree, with both lists of failing tags)."""
    candidates, disagreements = 0, []
    for dim in (1, 2):
        for a in lie_algebras_f2(dim):
            dims, found = compare(discrete_cat(a, LIE))
            candidates += 0 if dims[0] is None else 2 ** dims[0]
            disagreements += found
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
