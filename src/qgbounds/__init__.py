"""Spectral lower bounds for Laplacians on metric graphs.

The package computes rigorous lower bounds for standard-Laplacian
eigenvalues of compact metric graphs by transferring discrete spectral data
of a vicinity graph built from an edge-aligned cover, plus exact oracles to
check every bound numerically.

Each public name is imported from its submodule on first use (PEP 562), so
a process that needs only the oracle (``import qgbounds.oracle``) does not
load the bounds, covers and repro modules.
"""

import importlib

# public name -> (submodule, its name there)
_SOURCES = {
    "BoundReport": ("bounds", "BoundReport"),
    "CompareTable": ("bounds", "CompareTable"),
    "classical_bounds": ("bounds", "classical_bounds"),
    "compare_report": ("bounds", "compare_report"),
    "four_pumpkin_bounds": ("bounds", "four_pumpkin_bounds"),
    "pumpkin_chain_bounds": ("bounds", "pumpkin_chain_bounds"),
    "star_bound": ("bounds", "star_bound"),
    "star_gap_bound": ("bounds", "star_gap_bound"),
    "transfer_bound": ("bounds", "transfer_bound"),
    "Cover": ("covers", "Cover"),
    "build_cover": ("covers", "build_cover"),
    "cover_from_json": ("covers", "cover_from_json"),
    "cover_to_json": ("covers", "cover_to_json"),
    "validate_cover": ("covers", "validate_cover"),
    "QGraphError": ("errors", "QGraphError"),
    "Edge": ("metric_graph", "Edge"),
    "MetricGraph": ("metric_graph", "MetricGraph"),
    "generate": ("metric_graph", "generate"),
    "graph_from_json": ("metric_graph", "graph_from_json"),
    "graph_to_json": ("metric_graph", "graph_to_json"),
    "validate": ("metric_graph", "validate"),
    "spectrum": ("oracle", "spectrum"),
}

__all__ = sorted(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module, attr = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), attr)


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))
