"""Persistent cohomology of filtered simplicial complexes.

Computes persistence diagrams over any prime field Z_p by maintaining a
cohomology basis through annotation vectors stored in a compressed
annotation matrix, with optional deferred creator insertion and
equal-value block reordering. A classic boundary-reduction oracle is
included for cross-validation.

``__all__`` is the public surface that README.md documents; names used
only inside the package, by the benchmark or by tests stay importable from
their own modules.
"""
from .annotations import CompressedAnnotationMatrix
from .builders import build_rips, pairwise_distances
from .diagram import PersistenceDiagram, PersistencePair, diagram_equal
from .engine import EngineOptions, PersistenceEngine, compute_persistence
from .field import PrimeField, is_prime
from .io import format_diagram, read_filtration, read_points
from .oracle import betti_profile
from .oracle import reduce as oracle_reduce
from .reorder import reordered_filtration
from .simplex_tree import Simplex, SimplexTree
from .stats import RunStats, format_stats
from . import errors

__version__ = "0.1.0"

__all__ = [
    "CompressedAnnotationMatrix",
    "EngineOptions",
    "PersistenceDiagram",
    "PersistenceEngine",
    "PersistencePair",
    "PrimeField",
    "RunStats",
    "Simplex",
    "SimplexTree",
    "betti_profile",
    "build_rips",
    "compute_persistence",
    "diagram_equal",
    "errors",
    "format_diagram",
    "format_stats",
    "is_prime",
    "oracle_reduce",
    "pairwise_distances",
    "read_filtration",
    "read_points",
    "reordered_filtration",
]
