"""Distance-based graph layout by stress minimization.

Two optimizers over the same objective: annealed per-pair stochastic
descent and localized majorization, plus classical-MDS / PivotMDS
initializers and a seeded benchmark harness.
"""

from .bench import (
    DeviationReport,
    DeviationRow,
    ExperimentConfig,
    StressTrace,
    export_csv,
    hybrid_layout,
    relative_deviation,
    run_grid,
    run_hybrid,
)
from .graphs import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    GraphFormatError,
    all_pairs_shortest_paths,
    bfs_hops,
    complete_graph,
    connected_components,
    cycle_graph,
    generate,
    grid_graph,
    largest_connected_component,
    neighbour_rows,
    parse_edge_list,
    parse_matrix_market,
    path_graph,
)
from .initializers import (
    PowerIterationError,
    classical_mds,
    pivot_mds,
    random_init,
)
from .sgd import SgdConfig, run_sgd
from .smacof import SmacofConfig, run_smacof, smacof_iteration
from .stress import as_layout, stress
from .svg import render_svg

__version__ = "0.1.0"
