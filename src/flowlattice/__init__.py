"""Exact lattices of integer flows and cuts of regular matroids."""

from .errors import (
    BoundExceededError,
    DefinitenessError,
    DimensionError,
    FlowLatticeError,
    FormatError,
    MembershipError,
    NotABaseError,
)
from .flows import (
    FlowLattice,
    FlowVector,
    consistent_decompose,
    cut_basis,
    fundamental_basis,
    gram_of,
    is_simple_metric,
    simple_flows,
)
from .gram import (
    Classification,
    GramMatrix,
    SupportFamily,
    TripleSign,
    build_x,
    classify,
    delta,
    f_value,
    g_table,
    g_value,
    is_g_feasible,
    phi_gamma,
    triple_sign,
    tu_signing,
)
from .intmat import (
    IntegerMatrix,
    bounds,
    determinant,
    integer_kernel_basis,
    is_totally_unimodular,
    is_weakly_unimodular,
    parse_matrix,
    rank,
    sharp,
)
from .matroid import (
    RegularMatroid,
    bases,
    circuits,
    contract_coloops,
    coordinatize,
    delete_loops,
    dual,
    first_base,
    from_graph,
    is_isomorphic,
    loops_and_coloops,
    parse_graph,
    parse_matroid,
)
from .rebuild import (
    cut_lattices_isometric,
    flow_lattices_isometric,
    mixed_isometric,
    reconstruct_matroid,
    to_g_positive_basis,
)

__version__ = "0.1.0"
