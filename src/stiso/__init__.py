"""Spanning-tree isomorphism toolkit.

Decides whether a graph contains a spanning tree isomorphic to a target
tree, in undirected and directed (arborescence) flavors, parameterized by
the redundant-set size ``k = m - (n - 1)``.  Ships the two solvers, a
brute-force oracle, kernelization with anchor-chain tracking, canonical tree
codes, a seeded instance generator, and a CLI (``stiso``).
"""

from .directed import (
    certify_directed,
    is_spanning_arborescence,
    solve_directed,
    target_tree_from_digraph,
)
from .generate import GenInstance, GenSpec, gen_instance, gen_tree
from .graphs import (
    DiGraph,
    GraphFormatError,
    SolveStats,
    UGraph,
    Verdict,
    parse_graph,
    reachable_all,
)
from .kernel import (
    AnchorChain,
    ChainCandidates,
    Kernel,
    KernelError,
    chain_candidates,
    make_contractible,
)
from .oracle import (
    InvalidNeighborReport,
    OracleScaleError,
    invalid_neighbors,
    oracle_directed,
    oracle_undirected,
)
from .treecode import (
    NotArborescenceError,
    NotATreeError,
    TargetTree,
    arborescence_root,
    rooted_code,
    rooted_iso_mapping,
    tree_centers,
    unrooted_code,
)
from .undirected import certify_undirected, solve_undirected

# the directed solver's name for the one stats record, which callers still import
DirectedStats = SolveStats

__all__ = [
    "AnchorChain",
    "ChainCandidates",
    "DiGraph",
    "DirectedStats",
    "GenInstance",
    "GenSpec",
    "GraphFormatError",
    "InvalidNeighborReport",
    "Kernel",
    "KernelError",
    "NotATreeError",
    "NotArborescenceError",
    "OracleScaleError",
    "SolveStats",
    "TargetTree",
    "UGraph",
    "Verdict",
    "arborescence_root",
    "certify_directed",
    "certify_undirected",
    "chain_candidates",
    "gen_instance",
    "gen_tree",
    "invalid_neighbors",
    "is_spanning_arborescence",
    "make_contractible",
    "oracle_directed",
    "oracle_undirected",
    "parse_graph",
    "reachable_all",
    "rooted_code",
    "rooted_iso_mapping",
    "solve_directed",
    "solve_undirected",
    "target_tree_from_digraph",
    "tree_centers",
    "unrooted_code",
]
