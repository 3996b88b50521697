"""Top-k table union search over column-embedding vector sets."""

from .errors import DataError, InvariantError, TuSearchError, UsageError
from .matching import MatchingResult, brute_force_unionability, unionability
from .mwmto import BoundPair, bounds_for_mwmto, mwmto_exact, partition_sims
from .pipeline import SearchEngine, SearchParams, SearchResult, build_engine
from .pruning import base_prune, enhanced_prune, exhaustive_rank
from .quantizer import Codebook, assign_all, build_indexes, train_kmeans
from .repository import (
    QueryTable,
    VectorSetRepository,
    generate_synthetic,
    ingest_repository,
    load_query_table,
    write_repository,
)

__version__ = "0.1.0"

__all__ = [
    "BoundPair",
    "Codebook",
    "DataError",
    "InvariantError",
    "MatchingResult",
    "QueryTable",
    "SearchEngine",
    "SearchParams",
    "SearchResult",
    "TuSearchError",
    "UsageError",
    "VectorSetRepository",
    "assign_all",
    "base_prune",
    "bounds_for_mwmto",
    "brute_force_unionability",
    "build_engine",
    "build_indexes",
    "enhanced_prune",
    "exhaustive_rank",
    "generate_synthetic",
    "ingest_repository",
    "load_query_table",
    "mwmto_exact",
    "partition_sims",
    "train_kmeans",
    "unionability",
    "write_repository",
]
