"""Reconstruction of the co-loop-free minor from a Gram matrix, and the
isometry decisions for flow, cut, and mixed lattice pairs."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FlowLatticeError
from .gram import Feasibility, GramMatrix, is_g_feasible
from .intmat import IntegerMatrix, _gauss_jordan
from .matroid import (
    IsomorphismResult,
    RegularMatroid,
    contract_coloops,
    dual,
    is_isomorphic,
)


def _g_positive_basis(certificate: IntegerMatrix) -> tuple[IntegerMatrix, list[int]]:
    """q = U B^-1 and the rows of U forming B, which hold I_s in q, in order.

    B is the lexicographically least invertible s-by-s row block of U:
    Gauss-Jordan on U^T takes B's rows as its pivot columns and ends at
    d (U B^-1)^T, d = det B up to sign.
    """
    rows, cols, _, pivots = _gauss_jordan(certificate.transpose().entries)
    if len(cols) < certificate.cols:
        raise FlowLatticeError("certificate has deficient column rank")
    d = pivots[-1] if pivots else 1
    q = IntegerMatrix.from_columns([[x // d for x in row] for row in rows],
                                   nrows=certificate.rows)
    # |d| > 1: B is not unimodular and q would span a different lattice
    if abs(d) != 1 or tuple(q.entries[c] for c in cols) != IntegerMatrix.identity(q.cols).entries:
        raise FlowLatticeError("transformed basis failed the positivity gate")
    return q, cols


def to_g_positive_basis(certificate: IntegerMatrix) -> tuple[IntegerMatrix, GramMatrix]:
    """Change of basis turning a TU certificate into one containing I_s.

    q = U B^-1, where B is the lexicographically least invertible s-by-s
    row block of U.  B has unit determinant, so q spans the same lattice,
    is TU, and holds I_s in B's rows, which makes its Gram matrix
    g-positive.  Returns q and that Gram matrix.
    """
    q, _ = _g_positive_basis(certificate)
    return q, GramMatrix(q.transpose() * q)


@dataclass(frozen=True)
class ReconstructionReport:
    gram: GramMatrix
    certificate: IntegerMatrix          # TU, columns Gram back to the input
    g_positive_basis: IntegerMatrix     # certificate times a unimodular block inverse
    standard_form: IntegerMatrix        # [I_r L], no zero rows in L
    matroid: RegularMatroid             # the co-loop-free minor


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
    """Rebuild the co-loop-free minor whose flow lattice has Gram matrix a.

    Feasibility check, change to a basis containing an identity block,
    then reading the standard form off the stacked block shape.
    """
    feas = is_g_feasible(a)
    if not feas:
        return ReconstructionOutcome(False, None, feas)
    u = feas.certificate
    q, ident_rows = _g_positive_basis(u)
    other_rows = [i for i in range(q.rows) if i not in set(ident_rows)]
    l_block = -q.select_rows(other_rows)
    rep = IntegerMatrix.identity(l_block.rows).hstack(l_block)
    ground = tuple(f"e{i + 1}" for i in range(rep.cols))
    matroid = RegularMatroid.from_rep(ground, rep, validate=False)
    if any(not any(row) for row in l_block.entries):
        raise FlowLatticeError("reconstructed block has a zero row")
    report = ReconstructionReport(
        gram=a,
        certificate=u,
        g_positive_basis=q,
        standard_form=rep,
        matroid=matroid,
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
