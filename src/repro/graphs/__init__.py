"""Graph substrate: CSR storage, generators, dataset surrogates, I/O."""

from .builder import from_edges
from .csr import CSRGraph, GraphValidationError
from .generators import (
    complete,
    erdos_renyi,
    grid_road_network,
    kronecker,
    paper_fig1_graph,
    paper_fig4_graph,
    path,
    preferential_attachment,
    small_world,
    star,
)
from .io import load_npz, read_dimacs_gr, read_edge_list, save_npz, write_dimacs_gr, write_edge_list
from .properties import (
    GraphStats,
    connected_components,
    degree_histogram,
    degree_skewness,
    estimate_diameter,
    graph_stats,
    largest_component_vertices,
)
from .surrogates import DATASETS, SurrogateSpec, dataset_names, load
from .weights import (
    exponential_weights,
    reweight,
    uniform_int_weights,
    uniform_unit_weights,
)

__all__ = [
    "CSRGraph",
    "GraphValidationError",
    "from_edges",
    "kronecker",
    "grid_road_network",
    "preferential_attachment",
    "erdos_renyi",
    "small_world",
    "star",
    "path",
    "complete",
    "paper_fig1_graph",
    "paper_fig4_graph",
    "read_edge_list",
    "write_edge_list",
    "read_dimacs_gr",
    "write_dimacs_gr",
    "save_npz",
    "load_npz",
    "GraphStats",
    "graph_stats",
    "degree_histogram",
    "degree_skewness",
    "estimate_diameter",
    "connected_components",
    "largest_component_vertices",
    "DATASETS",
    "SurrogateSpec",
    "dataset_names",
    "load",
    "uniform_int_weights",
    "uniform_unit_weights",
    "exponential_weights",
    "reweight",
]
