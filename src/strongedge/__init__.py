"""Strong edge-coloring toolkit for multigraphs of maximum degree four."""

from .graph import (
    C4,
    C5,
    CONFIGURATION_KINDS,
    Configuration,
    EdgeCut,
    Graph,
    K23,
    K24,
    K33,
    MULTI_EDGE,
    TRIANGLE,
    find_configuration,
    find_edge_cut_at_most,
    format_edge_list,
    gen_blowup_c5,
    gen_incidence_pg,
    gen_random_regular,
    girth,
    graph_from_json,
    graph_to_json,
    parse_edge_list,
)
from .coloring import (
    ExactResult,
    PartialColoring,
    bounds,
    coloring_from_json,
    coloring_to_json,
    edge_neighborhood,
    exact_strong_index,
    greedy_color,
    verify_strong_coloring,
)
from .reduction import (
    BranchLabels,
    ExactFinishBudgetError,
    FallbackTriggered,
    ReductionTrace,
    SequencePlan,
    VertexPartition,
    build_partition,
    build_precolor_and_sequence,
    extend_sequence,
    rename_colors,
    solve21,
)

__version__ = "0.1.0"
