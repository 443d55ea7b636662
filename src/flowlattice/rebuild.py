"""Reconstruction of the co-loop-free minor from a Gram matrix, and the
isometry decisions for flow, cut, and mixed lattice pairs.

Reconstruction runs no elimination of its own: the g-positive basis
and the rebuilt standard form are both read off `matroid.coordinatize`
of the certificate's transpose.  The report holds the rebuilt form once,
as the representation of its matroid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FlowLatticeError, NotABaseError
from .gram import Feasibility, GramMatrix, is_g_feasible
from .intmat import IntegerMatrix
from .matroid import (
    IsomorphismResult,
    RegularMatroid,
    StandardForm,
    _labels,
    contract_coloops,
    coordinatize,
    dual,
    is_isomorphic,
)


def _g_positive_basis(certificate: IntegerMatrix, ground) -> tuple[IntegerMatrix, StandardForm]:
    """q = U B^-1, and the standard form [I_s L] of U^T, labelled `ground`,
    that it is read off.  The least base of U^T is the lexicographically
    least invertible s-by-s row block B of U, and the form there is
    (B^T)^-1 U^T with B's rows first: q is its columns in ground order,
    and holds I_s in B's rows."""
    try:
        sf = coordinatize(RegularMatroid(ground, certificate.transpose()))
    except NotABaseError as exc:
        if not exc.subset:      # U^T has no base at all
            raise FlowLatticeError("certificate has deficient column rank") from exc
        # det B = +-2 or more: q would span a different lattice
        raise FlowLatticeError("transformed basis failed the positivity gate") from exc
    return sf.ground_columns(sf.matrix), sf


def to_g_positive_basis(certificate: IntegerMatrix) -> tuple[IntegerMatrix, GramMatrix]:
    """Change of basis turning a TU certificate into one containing I_s.

    q = U B^-1, where B is the lexicographically least invertible s-by-s
    row block of U.  B has unit determinant, so q spans the same lattice,
    is TU, and holds I_s in B's rows, which makes its Gram matrix
    g-positive.  Returns q and that Gram matrix.
    """
    q, _ = _g_positive_basis(certificate, _labels(certificate.rows))
    return q, GramMatrix(q.transpose() * q)


@dataclass(frozen=True)
class ReconstructionReport:
    gram: GramMatrix
    certificate: IntegerMatrix          # TU, columns Gram back to the input
    g_positive_basis: IntegerMatrix     # certificate times a unimodular block inverse
    matroid: RegularMatroid             # the co-loop-free minor; rep is [I_r L], no zero rows in L


@dataclass(frozen=True)
class ReconstructionOutcome:
    feasible: bool
    report: ReconstructionReport | None = None
    feasibility: Feasibility | None = None

    def __bool__(self) -> bool:
        return self.feasible

    @property
    def reason(self) -> str | None:
        return None if self.feasibility is None else self.feasibility.reason


def reconstruct_matroid(a: GramMatrix) -> ReconstructionOutcome:
    """Rebuild the co-loop-free minor whose flow lattice has Gram matrix a
    in the given basis.

    The verdict is about this basis, not the lattice: NOT-G-FEASIBLE says
    that a is not U^T U for a TU U, and another basis of the same lattice
    may still be refused or rebuilt.  Feasibility check, then one standard
    form [I_s L] of the certificate's transpose: it gives the basis q
    containing an identity block, and its flow rows [-L^T I_r], blocks
    swapped, are the rebuilt standard form [I_r -L^T].
    """
    feas = is_g_feasible(a)
    if not feas:
        return ReconstructionOutcome(False, None, feas)
    u = feas.certificate
    ground = _labels(u.rows)
    q, sf = _g_positive_basis(u, ground)
    s = sf.matrix.rows
    flows = sf.flow_rows.entries
    if any(not any(row[:s]) for row in flows):
        raise FlowLatticeError("reconstructed block has a zero row")
    rep = IntegerMatrix(tuple(row[s:] + row[:s] for row in flows), empty_cols=len(ground))
    report = ReconstructionReport(
        gram=a,
        certificate=u,
        g_positive_basis=q,
        matroid=RegularMatroid(ground, rep),
    )
    return ReconstructionOutcome(True, report, feas)


@dataclass(frozen=True)
class IsometryDecision:
    isometric: bool
    witness: IsomorphismResult
    left_core: RegularMatroid
    right_core: RegularMatroid

    def __bool__(self) -> bool:
        return self.isometric


def flow_lattices_isometric(m: RegularMatroid, n: RegularMatroid) -> IsometryDecision:
    """Flow lattices are isometric iff the co-loop-free minors are isomorphic."""
    mc = contract_coloops(m)
    nc = contract_coloops(n)
    iso = is_isomorphic(mc, nc)
    return IsometryDecision(bool(iso), iso, mc, nc)


def cut_lattices_isometric(m: RegularMatroid, n: RegularMatroid) -> IsometryDecision:
    """Cut lattices compare through duality: loops become co-loops."""
    return flow_lattices_isometric(dual(m), dual(n))


def mixed_isometric(m: RegularMatroid, n: RegularMatroid) -> IsometryDecision:
    """Flow lattice of the first against the cut lattice of the second."""
    return flow_lattices_isometric(m, dual(n))


__all__ = [
    "IsometryDecision",
    "ReconstructionOutcome",
    "ReconstructionReport",
    "cut_lattices_isometric",
    "flow_lattices_isometric",
    "mixed_isometric",
    "reconstruct_matroid",
    "to_g_positive_basis",
]
