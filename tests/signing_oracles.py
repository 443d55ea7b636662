"""The signing search that Camion's construction replaced.

`flowlattice.gram.tu_signing` builds the one candidate signing of a
{0,1} matrix that can be totally unimodular (Camion 1965) and checks it
once; `is_g_feasible` reaches its certificate only through it.  These
are the earlier routines, which enumerate all 2^k sign patterns of the
skeleton's free entries, each behind a 2x2 prefilter; the tests compare
the two for exact equality.
"""

import itertools

from flowlattice.errors import FlowLatticeError
from flowlattice.gram import (
    Feasibility,
    _classify_table,
    _match_column_signs,
    _signing_skeleton,
    _skeleton,
)
from flowlattice.intmat import IntegerMatrix, is_totally_unimodular


def _signings(x: IntegerMatrix):
    """All sign patterns modulo row/column negation, lexicographic order."""
    _, free = _signing_skeleton(x)
    base = [list(r) for r in x.entries]
    for signs in itertools.product((1, -1), repeat=len(free)):
        cand = [row[:] for row in base]
        for (i, j), s in zip(free, signs):
            cand[i][j] = s
        yield IntegerMatrix.from_rows(cand)


def _quick_2x2_ok(u: IntegerMatrix) -> bool:
    e = u.entries
    for i, k in itertools.combinations(range(u.rows), 2):
        for j, l in itertools.combinations(range(u.cols), 2):
            if abs(e[i][j] * e[k][l] - e[i][l] * e[k][j]) > 1:
                return False
    return True


def tu_signing(x: IntegerMatrix) -> IntegerMatrix | None:
    """A totally unimodular matrix with entrywise absolute value x, if any."""
    if min(x.rows, x.cols) == 0:
        return x
    for cand in _signings(x):
        if _quick_2x2_ok(cand) and is_totally_unimodular(cand):
            return cand
    return None


def is_g_feasible(a) -> Feasibility:
    """Search for a TU certificate whose column Gram matrix equals a.

    Pipeline: classification gate, skeleton construction, then signing
    enumeration modulo row/column negation with a Gram-compatibility
    filter before the exact TU check.
    """
    cls, g = _classify_table(a)
    if not cls.g_nonnegative:
        return Feasibility(False, None, cls, cls.refusal())
    x = _skeleton(cls, g)
    for cand in _signings(x):
        g0 = cand.transpose() * cand
        signs = _match_column_signs(g0, a)
        if signs is None:
            continue
        if not (_quick_2x2_ok(cand) and is_totally_unimodular(cand)):
            continue
        cert = IntegerMatrix.from_rows(
            [[v * signs[j] for j, v in enumerate(row)] for row in cand.entries]
        )
        if cert.transpose() * cert != a.mat:
            raise FlowLatticeError("signed certificate does not Gram back to the input")
        return Feasibility(True, cert, cls)
    return Feasibility(False, None, cls, "NO-MATCHING-SIGNING")
