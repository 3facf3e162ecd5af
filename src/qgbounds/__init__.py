"""Spectral lower bounds for Laplacians on metric graphs.

The package computes rigorous lower bounds for standard-Laplacian
eigenvalues of compact metric graphs by transferring discrete spectral data
of a vicinity graph built from an edge-aligned cover, plus exact oracles to
check every bound numerically.
"""

from .bounds import (
    BoundReport,
    CompareTable,
    classical_bounds,
    compare_report,
    four_pumpkin_bounds,
    pumpkin_chain_bounds,
    star_bound,
    star_gap_bound,
    transfer_bound,
)
from .covers import (
    Cover,
    build_cover,
    cover_from_json,
    cover_to_json,
    validate_cover,
)
from .errors import QGraphError
from .metric_graph import (
    Edge,
    MetricGraph,
    generate,
    graph_from_json,
    graph_to_json,
    validate,
)
from .oracle import spectrum
from .repro import run_all as run_repro
from .repro import run_case as run_repro_case

__all__ = [
    "BoundReport",
    "CompareTable",
    "Cover",
    "Edge",
    "MetricGraph",
    "QGraphError",
    "build_cover",
    "classical_bounds",
    "compare_report",
    "cover_from_json",
    "cover_to_json",
    "four_pumpkin_bounds",
    "generate",
    "graph_from_json",
    "graph_to_json",
    "pumpkin_chain_bounds",
    "run_repro",
    "run_repro_case",
    "spectrum",
    "star_bound",
    "star_gap_bound",
    "transfer_bound",
    "validate",
    "validate_cover",
]

__version__ = "0.1.0"
