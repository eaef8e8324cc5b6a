"""Persistent cohomology of filtered simplicial complexes.

Computes persistence diagrams over any prime field Z_p by maintaining a
cohomology basis through annotation vectors stored in a compressed
annotation matrix, with optional deferred creator insertion and
equal-value block reordering. A classic boundary-reduction oracle is
included for cross-validation.
"""
from .annotations import (
    ZERO,
    AnnotationVector,
    CompressedAnnotationMatrix,
    negate_annotation,
    sum_annotations,
)
from .builders import PointCloud, build_rips, close_complex, pairwise_distances
from .diagram import PersistenceDiagram, PersistencePair, diagram_equal
from .engine import (
    Created,
    EngineOptions,
    InsertionOutcome,
    Killed,
    PersistenceEngine,
    compute_persistence,
)
from .field import OpCountingField, PrimeField, is_prime
from .io import (
    format_diagram,
    read_diagram,
    read_filtration,
    read_points,
    write_diagram,
    write_filtration,
)
from .oracle import betti_numbers, betti_profile
from .oracle import reduce as oracle_reduce
from .reorder import IsoSlab, reorder_slab, reordered_filtration, slab_partition
from .simplex_tree import Simplex, SimplexTree
from .stats import RunStats, StatsCollector, format_stats
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AnnotationVector",
    "CompressedAnnotationMatrix",
    "Created",
    "EngineOptions",
    "InsertionOutcome",
    "IsoSlab",
    "Killed",
    "OpCountingField",
    "PersistenceDiagram",
    "PersistenceEngine",
    "PersistencePair",
    "PointCloud",
    "PrimeField",
    "RunStats",
    "Simplex",
    "SimplexTree",
    "StatsCollector",
    "ZERO",
    "betti_numbers",
    "betti_profile",
    "build_rips",
    "close_complex",
    "compute_persistence",
    "diagram_equal",
    "errors",
    "format_diagram",
    "format_stats",
    "is_prime",
    "negate_annotation",
    "oracle_reduce",
    "pairwise_distances",
    "read_diagram",
    "read_filtration",
    "read_points",
    "reorder_slab",
    "reordered_filtration",
    "slab_partition",
    "sum_annotations",
    "write_diagram",
    "write_filtration",
]
