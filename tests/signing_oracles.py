"""The signing searches that Camion's construction and the certificate
read off the Gram matrix replaced.

`flowlattice.gram.tu_signing` builds the one candidate signing of a
{0,1} matrix that can be totally unimodular (Camion 1965) and checks it
once; it serves the `signing` verb.  `is_g_feasible` builds no signing:
every sign of its certificate is read off the Gram matrix, and that one
matrix is checked once.  These are the earlier routines, which
enumerate all 2^k sign patterns of the skeleton's free entries, each
behind a 2x2 prefilter, and for feasibility keep a pattern only when
column signs match its column Gram matrix to the input
(`_match_column_signs`); the tests compare them with the library for
exact equality.
"""

import itertools

from flowlattice.errors import FlowLatticeError
from flowlattice.gram import Feasibility, GramMatrix, _classify_table, _signing_skeleton, build_x
from flowlattice.intmat import IntegerMatrix, is_totally_unimodular, sharp


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


def _match_column_signs(g: IntegerMatrix, a: GramMatrix) -> list[int] | None:
    """Diagonal signs f with f_i f_j g_ij = a_ij, or None.

    Components of the nonzero off-diagonal graph get their least vertex
    fixed to +1, making the result canonical.
    """
    if sharp(g) != sharp(a.mat):
        return None
    s = a.order
    signs = [0] * s
    for root in range(s):
        if signs[root]:
            continue
        signs[root] = 1
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(s):
                if j == i or a.entry(i, j) == 0:
                    continue
                want = 1 if a.entry(i, j) * g.entries[i][j] > 0 else -1
                need = signs[i] * want
                if signs[j] == 0:
                    signs[j] = need
                    stack.append(j)
                elif signs[j] != need:
                    return None
    return signs


def is_g_feasible(a) -> Feasibility:
    """Search for a TU certificate whose column Gram matrix equals a.

    Pipeline: classification gate, skeleton construction, then signing
    enumeration modulo row/column negation with a Gram-compatibility
    filter before the exact TU check.
    """
    cls, _ = _classify_table(a)
    if not cls.g_nonnegative:
        return Feasibility(False, None, cls, cls.refusal())
    x = build_x(a)
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
