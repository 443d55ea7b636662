"""Flow-lattice routines that the ellipsoid walk and the periodic loop replaced.

`flowlattice.flows.enumerate_coefficients` now walks the Gram ellipsoid
depth first over an exact LDL^T (Fincke-Pohst), `is_simple_metric`
walks only the half-ball of possible witnesses, and
`consistent_decompose` emits a whole repeating block of runs at once;
the LDL^T of the walk comes from one Bareiss pass.  These are the
earlier routines, kept verbatim: that LDL^T by 1 + s eliminations, the
inverse-diagonal box, the box scan, the metric simplicity test over that scan, the
recursive conforming-flow search, `decompose_by_chains`, the loop over
bitmask supports that runs one chain per part, and `decompose_by_runs`,
the loop that runs one chain per run of equal parts, and
`decompose_by_blocks`, the loop that jumps over a repeating block of
runs but clears its run history at every repeat, so that a block nested
in a longer period hides that period.  `decompose_by_runs`
keeps the backward walk from rest_{k-1} = c_k alpha as an independent
derivation of the run length T; the library reads T off the |values|
its forward steps stored.  The recursive
search is the slow oracle for small flows (its circuit flows are built
once per call); `decompose_by_chains` and `decompose_by_runs` are fast
enough to check flows of workload size and larger.  The tests compare
them with the library for exact equality, order and errors included.
"""

import itertools
from math import isqrt, lcm

from flowlattice.errors import (
    DefinitenessError,
    DimensionError,
    FlowLatticeError,
    FormatError,
    MembershipError,
)
from flowlattice.flows import FlowLattice, FlowVector, SimpleMetricResult, _circuit_flow
from flowlattice.gram import GramMatrix
from flowlattice.intmat import _gauss_jordan
from flowlattice.matroid import RegularMatroid, circuits


def _find_conforming(m: RegularMatroid, circs, beta: FlowVector, flow_of: dict) -> FlowVector:
    """A simple flow with support inside and signs agreeing with beta.

    flow_of memoizes `_circuit_flow` by circuit.
    """
    supp = set(beta.support)
    circuit = next(c for c in circs if set(c) <= supp)
    if circuit not in flow_of:
        flow_of[circuit] = _circuit_flow(m, circuit)
    alpha = flow_of[circuit]
    e = min(alpha.support, key=lambda i: (abs(beta.coords[i]), i))
    if alpha.coords[e] * beta.coords[e] < 0:
        alpha = -alpha
    c = abs(beta.coords[e])
    rest = beta - alpha.scaled(c)
    if rest.is_zero:
        return alpha
    return _find_conforming(m, circs, rest, flow_of)


def consistent_decompose(lat: FlowLattice, beta: FlowVector) -> list[FlowVector]:
    """Express a flow as a sum of simple flows, support- and sign-consistently.

    Deterministic: at each step the conforming flow is derived from the
    lexicographically least circuit inside the current support.
    """
    if lat.source is None:
        raise MembershipError("decomposition needs a lattice with a source matroid")
    m = lat.source
    if len(beta.coords) != m.size:
        raise DimensionError("flow length differs from ground size")
    for i, row in enumerate(m.rep.entries):
        lhs = sum(a * b for a, b in zip(row, beta.coords))
        if lhs != 0:
            raise MembershipError(
                f"not a flow: row {i} gives {lhs} != 0",
                equation=(i, row),
            )
    circs = circuits(m)
    flow_of: dict = {}
    parts: list[FlowVector] = []
    current = beta
    while not current.is_zero:
        alpha = _find_conforming(m, circs, current, flow_of)
        parts.append(alpha)
        current = current - alpha
    return parts


def decompose_by_chains(lat: FlowLattice, beta: FlowVector) -> list[FlowVector]:
    """Express a flow as a sum of simple flows, support- and sign-consistently.

    Deterministic: each part comes from a chain of steps on the rest of
    the flow.  A step takes the first circuit, in (size, lex) order, whose
    bitmask lies inside the support of the current vector, signs its flow
    alpha to agree with the vector at the element e of least |value|
    (least index on ties), and subtracts |value at e| * alpha.  The chain
    ends at the alpha that leaves zero; that alpha is the part, and the
    next part starts from the flow minus the parts so far.  The support
    shrinks at every step, so a chain has at most as many steps as the
    ground set has elements.  Within one call, supports already met map
    to their first circuit; each circuit's pair (alpha, -alpha) is built
    once per matroid and shared by every part that uses it.
    """
    if lat.source is None:
        raise MembershipError("decomposition needs a lattice with a source matroid")
    m = lat.source
    if len(beta.coords) != m.size:
        raise DimensionError("flow length differs from ground size")
    for i, row in enumerate(m.rep.entries):
        lhs = sum(a * b for a, b in zip(row, beta.coords))
        if lhs != 0:
            raise MembershipError(
                f"not a flow: row {i} gives {lhs} != 0",
                equation=(i, row),
            )
    circs = circuits(m)
    pairs = m._signed_pairs
    masks = [sum(1 << e for e in c) for c in circs]
    first: dict[int, int] = {}
    parts: list[FlowVector] = []
    current = beta.coords
    while any(current):
        rest = current
        while True:
            supp = sum(1 << e for e, x in enumerate(rest) if x)
            k = first.get(supp)
            if k is None:
                k = first[supp] = next(j for j, cm in enumerate(masks) if not cm & ~supp)
            pair = pairs[k]
            e = min(circs[k], key=lambda j: (abs(rest[j]), j))
            alpha = pair[pair[0].coords[e] * rest[e] < 0]
            c = abs(rest[e])
            rest = tuple(x - c * a for x, a in zip(rest, alpha.coords))
            if not any(rest):
                break
        parts.append(alpha)
        current = tuple(x - a for x, a in zip(current, alpha.coords))
    return parts


def decompose_by_runs(lat: FlowLattice, beta: FlowVector) -> list[FlowVector]:
    """Express a flow as a sum of simple flows, support- and sign-consistently.

    Deterministic: each part comes from a chain of steps on the rest of
    the flow.  A step takes the first circuit, in (size, lex) order, whose
    bitmask lies inside the support of the current vector, signs its flow
    alpha to agree with the vector at the element e of least |value|
    (least index on ties), and subtracts |value at e| * alpha.  The chain
    ends at the alpha that leaves zero; that alpha is the part, and the
    next part starts from the flow minus the parts so far.  The support
    shrinks at every step, so a chain has at most as many steps as the
    ground set has elements.  Within one call, supports already met map
    to their first circuit; each circuit's pair (alpha, -alpha) is built
    once per matroid and shared by every part that uses it.

    One chain serves a whole run of equal parts.  Write its steps as
    (C_i, e_i, c_i), rest_0 = v and rest_i = rest_{i-1} - c_i alpha_i,
    so that rest_{k-1} = c_k alpha.  The run length T is the least of
    c_k and of |rest_{i-1}[j]| - c_i + [j > e_i] over i < k and j in
    C_i & C_k.  For 0 <= t < T the chain from v - t alpha makes the
    same choices, each rest shifted by -t alpha, and ends at alpha: a
    step changes only values on its circuit, never flips a sign (c_i is
    the least |value| there) and zeroes e_i, so e_i is not in C_k and
    every rest agrees with alpha in sign on C_k; the shift lowers those
    |values| by t and keeps the others.  The bound keeps each e_i least
    under (|value|, index), and with it C_i, alpha_i and c_i, and keeps
    the values on C_k nonzero, and with them every support (a value on
    C_k that no earlier step touches is c_k); the last support is C_k,
    whose only circuit is C_k itself.  At t = T the chain first differs
    by zeroing an element of C_k, or ends a step early at alpha_{k-1},
    so the next chain starts a new run: there is one chain per run.
    """
    if lat.source is None:
        raise MembershipError("decomposition needs a lattice with a source matroid")
    m = lat.source
    if len(beta.coords) != m.size:
        raise DimensionError("flow length differs from ground size")
    for i, row in enumerate(m.rep.entries):
        lhs = sum(a * b for a, b in zip(row, beta.coords))
        if lhs != 0:
            raise MembershipError(
                f"not a flow: row {i} gives {lhs} != 0",
                equation=(i, row),
            )
    circs = circuits(m)
    pairs = m._signed_pairs
    masks = [sum(1 << e for e in c) for c in circs]
    first: dict[int, int] = {}
    parts: list[FlowVector] = []
    current = list(beta.coords)
    supp = sum(1 << e for e, x in enumerate(current) if x)
    while supp:
        rest, left, steps = current[:], supp, []
        while left:
            k = first.get(left)
            if k is None:
                k = next((j for j, cm in enumerate(masks) if not cm & ~left), None)
                if k is None:
                    raise FlowLatticeError("broken invariant: no circuit inside a flow's support")
                first[left] = k
            circ, pair = circs[k], pairs[k]
            sizes = [abs(rest[j]) for j in circ]
            c = min(sizes)
            e = circ[sizes.index(c)]
            alpha = pair[pair[0].coords[e] * rest[e] < 0]
            a = alpha.coords
            steps.append((circ, e, c, a))
            for j in circ:
                rest[j] -= c * a[j]
                if not rest[j]:
                    left &= ~(1 << j)
            if rest[e]:
                raise FlowLatticeError("broken invariant: a chain step left its element nonzero")
        # the run length T: walk back from rest_{k-1} = c_k alpha, keeping
        # mag[j] = |rest_{i-1}[j]| on C_k
        circ, _, run, a = steps.pop()
        mag = dict.fromkeys(circ, run)
        for ci, e, c, ai in reversed(steps):
            for j in ci:
                if j in mag:
                    mag[j] += c * ai[j] * a[j]
                    bound = mag[j] - c + (j > e)
                    if bound < run:
                        run = bound
        if run < 1:
            raise FlowLatticeError(f"broken invariant: run length {run} < 1")
        parts += [alpha] * run
        for j in circ:
            current[j] -= run * a[j]
            if not current[j]:
                supp &= ~(1 << j)
    return parts


def decompose_by_blocks(lat: FlowLattice, beta: FlowVector) -> list[FlowVector]:
    """Express a flow as a sum of simple flows, support- and sign-consistently.

    Deterministic: each part comes from a chain of steps on the rest of
    the flow.  A step takes the first circuit, in (size, lex) order, whose
    bitmask lies inside the support of the current vector, signs its flow
    alpha to agree with the vector at the element e of least |value|
    (least index on ties), and subtracts |value at e| * alpha.  The chain
    ends at the alpha that leaves zero; that alpha is the part, and the
    next part starts from the flow minus the parts so far.  The support
    shrinks at every step, so a chain has at most as many steps as the
    ground set has elements.  Within one call, supports already met map
    to their first circuit; each circuit's pair (alpha, -alpha) is built
    once per matroid and shared by every part that uses it.

    One chain serves a whole run of equal parts.  Write its steps as
    (C_i, e_i, c_i), rest_0 = v and rest_i = rest_{i-1} - c_i alpha_i,
    so that rest_{k-1} = c_k alpha.  The run length T is the least of
    c_k and of |rest_{i-1}[j]| - c_i + [j > e_i] over i < k and j in
    C_i & C_k.  For 0 <= t < T the chain from v - t alpha makes the
    same choices, each rest shifted by -t alpha, and ends at alpha: a
    step changes only values on its circuit, never flips a sign (c_i is
    the least |value| there) and zeroes e_i, so e_i is not in C_k and
    every rest agrees with alpha in sign on C_k; the shift lowers those
    |values| by t and keeps the others.  The bound keeps each e_i least
    under (|value|, index), and with it C_i, alpha_i and c_i, and keeps
    the values on C_k nonzero, and with them every support (a value on
    C_k that no earlier step touches is c_k); the last support is C_k,
    whose only circuit is C_k itself.  At t = T the chain first differs
    by zeroing an element of C_k, or ends a step early at alpha_{k-1},
    so the next chain starts a new run: there is one chain per run.

    One pass over a block of runs serves every repetition of it.  A
    run's signature is the start's positive-sign mask, (support, e_i)
    at each step, and T; its slacks, which stay >= 0, are
    c_i - 1 at each step, |rest_{i-1}[j]| - c_i - [j < e_i] for j in C_i,
    and b - T for each candidate b of T.  When the last p signatures
    repeat the p before them, the block has run from v_0 (s = 0) and from
    v_1 = v_0 - d (s = 1).  Fix its decisions (circuit, e_i, sign and T):
    then from v_s = v_0 - s d every value is affine in s, as c_i is the
    signed value at e_i and no sign flips.  A slack that is >= 0 on
    [0, S] keeps each sign, each argmin and each nonzero value (every
    element of a support is zeroed later, so it sits in a later step's
    circuit, where its slack gives |value| >= c >= 1); a value that is
    zero at s = 0 and s = 1 is zero for every s, so every support is
    kept; and T, a minimum of affine candidates, is concave, equal at
    s = 0 and s = 1 and >= T on [0, S], hence constant there.  So the
    block repeats exactly for s = 0, ..., S, where S is the least
    floor(sigma_0 / (sigma_0 - sigma_1)) over the slacks that fall from
    sigma_0 to sigma_1, and the flow goes on from v_0 - (S + 1) d.  Every
    part agrees in sign with the flow, so d != 0 lowers the mass, and a
    block whose slacks never fall cannot repeat forever.
    """
    if lat.source is None:
        raise MembershipError("decomposition needs a lattice with a source matroid")
    m = lat.source
    if len(beta.coords) != m.size:
        raise DimensionError("flow length differs from ground size")
    for i, row in enumerate(m.rep.entries):
        lhs = sum(a * b for a, b in zip(row, beta.coords))
        if lhs != 0:
            raise MembershipError(
                f"not a flow: row {i} gives {lhs} != 0",
                equation=(i, row),
            )
    circs = circuits(m)
    pairs = m._signed_pairs
    masks = m._sorted_circuit_masks
    first: dict[int, int] = {}

    def chain(current, supp):
        """The part, its run length T, the run's signature and its slacks."""
        rest, left, steps, picks, slacks = current[:], supp, [], [], []
        while left:
            k = first.get(left)
            if k is None:
                k = next((j for j, cm in enumerate(masks) if not cm & ~left), None)
                if k is None:
                    raise FlowLatticeError("broken invariant: no circuit inside a flow's support")
                first[left] = k
            circ, pair = circs[k], pairs[k]
            sizes = [abs(rest[j]) for j in circ]
            c = min(sizes)
            e = circ[sizes.index(c)]
            alpha = pair[pair[0].coords[e] * rest[e] < 0]
            a = alpha.coords
            steps.append((circ, e, c, sizes))
            picks.append((left, e))
            slacks.append(c - 1)
            slacks += [size - c - (j < e) for j, size in zip(circ, sizes)]
            for j in circ:
                rest[j] -= c * a[j]
                if not rest[j]:
                    left &= ~(1 << j)
            if rest[e]:
                raise FlowLatticeError("broken invariant: a chain step left its element nonzero")
        # T is read off the |rest_{i-1}[j]| that each step stored as its sizes
        run, last_mask = steps.pop()[2], masks[k]
        candidates = [run] + [size - c + (j > e) for ci, e, c, sizes in steps
                              for j, size in zip(ci, sizes) if last_mask >> j & 1]
        run = min(candidates)
        if run < 1:
            raise FlowLatticeError(f"broken invariant: run length {run} < 1")
        slacks += [b - run for b in candidates]
        positive = sum(1 << j for j, x in enumerate(current) if x > 0)
        return alpha, run, (positive, tuple(picks), run), slacks

    parts: list[FlowVector] = []
    current = list(beta.coords)
    supp = sum(1 << e for e, x in enumerate(current) if x)
    last: dict[tuple, int] = {}     # signature -> index of its last run in history
    history: list[tuple] = []       # (signature, slacks, start, parts before) per run
    while supp:
        alpha, run, sig, slacks = chain(current, supp)
        r = len(history)
        history.append((sig, slacks, current[:], len(parts)))
        parts += [alpha] * run
        a = alpha.coords
        for j, x in enumerate(a):
            if x:
                current[j] -= run * x
                if not current[j]:
                    supp &= ~(1 << j)
        i = last.get(sig)
        last[sig] = r
        if i is None or 2 * i + 1 < r or any(
                history[i - q][0] != history[r - q][0] for q in range(1, r - i)):
            continue
        # runs i+1-p..i and i+1..r (p = r - i) are one block at s = 0 and s = 1
        lo, hi = history[2 * i + 1 - r:i + 1], history[i + 1:]
        falls = [x // (x - y) for h0, h1 in zip(lo, hi) for x, y in zip(h0[1], h1[1]) if y < x]
        if not falls:
            raise FlowLatticeError("broken invariant: a repeating block lowers no slack")
        s = min(falls)
        parts += parts[hi[0][3]:] * (s - 1)
        current = [x0 - (s + 1) * (x0 - x1) for x0, x1 in zip(lo[0][2], hi[0][2])]
        supp = sum(1 << e for e, x in enumerate(current) if x)
        last.clear()
        history.clear()
    return parts


def ldl(gram: GramMatrix) -> tuple:
    """The exact LDL^T of the reversed matrix, (u, p, w, N), by 1 + s
    eliminations: one for the rank and Sylvester's criterion, then row k
    of H's forward Bareiss form as row k of an elimination limited to
    the first k columns, one per row.  A singular matrix raises
    FormatError and a nonsingular one that is not positive definite
    raises DefinitenessError at its least leading minor <= 0.
    """
    s = gram.order
    g = gram.mat.entries
    _, cols, order, pivots, _ = _gauss_jordan(g)
    if len(cols) < s:
        raise FormatError("Gram matrix is singular")
    for k in range(s):
        minor = pivots[k] if k < len(cols) and cols[k] == k and order[k] == k else 0
        if minor <= 0:
            raise DefinitenessError(k + 1, minor)
    h = [row[::-1] for row in g[::-1]]
    u = [_gauss_jordan(h, k)[0][k] for k in range(s)]
    p = [u[k][k] for k in range(s)]
    den = [a * b for a, b in zip(p, [1] + p)]
    n = lcm(*den)
    return u, p, [n // d for d in den], n


def _coeff_box(gram: GramMatrix, bound: int) -> list[int]:
    """Per-coordinate enumeration limits from the inverse Gram diagonal.

    |y_i| <= isqrt(floor((G^-1)_ii * bound)); Gauss-Jordan on [G | I]
    ends at [d I | d G^-1], which gives the floor as
    (d (G^-1)_ii * bound) // d.
    """
    n = gram.order
    rows, cols, _, pivots, _ = _gauss_jordan(
        [row + tuple(int(i == j) for j in range(n))
         for i, row in enumerate(gram.mat.entries)], n)
    if len(cols) < n:
        raise FormatError("Gram matrix is singular")
    d = pivots[-1] if pivots else 1
    return [isqrt(rows[i][n + i] * bound // d) for i in range(n)]


def enumerate_coefficients(gram: GramMatrix, bound: int):
    """All integer coefficient tuples y with y^T.G.y <= bound, lex order."""
    limits = _coeff_box(gram, bound)
    g = gram.mat.entries
    s = gram.order
    for y in itertools.product(*[range(-l, l + 1) for l in limits]):
        q = sum(g[i][j] * y[i] * y[j] for i in range(s) for j in range(s))
        if q <= bound:
            yield y, q


def is_simple_metric(lat: FlowLattice, alpha) -> SimpleMetricResult:
    """Metric simplicity: every two-part split has negative inner product.

    Enumerates candidate summands inside the Gram ellipsoid of the given
    element's norm; any split with nonnegative inner product is a
    witness (the first in lexicographic coefficient order is returned).
    """
    if isinstance(alpha, FlowVector):
        x = lat.coefficients(alpha)
    else:
        x = tuple(int(v) for v in alpha)
        if len(x) != lat.lattice_rank:
            raise DimensionError("coefficient length differs from lattice rank")
    if not any(x):
        raise FormatError("simple elements are nonzero")
    g = lat.gram.mat.entries
    s = lat.lattice_rank
    bound = sum(g[i][j] * x[i] * x[j] for i in range(s) for j in range(s))
    for y, qy in enumerate_coefficients(lat.gram, bound):
        if not any(y) or y == x:
            continue
        z = tuple(a - b for a, b in zip(x, y))
        inner = sum(g[i][j] * y[i] * z[j] for i in range(s) for j in range(s))
        if inner >= 0:
            return SimpleMetricResult(
                False, (lat.vector(y), lat.vector(z)), inner
            )
    return SimpleMetricResult(True)
