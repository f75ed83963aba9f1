"""Reference implementations the production builders are tested against.

Each oracle is the plain-Python formulation that a faster engine in
``src/repro`` replaced. The differential suites and the engine
benchmarks compare the production code with these, entry for entry.
"""

from tests.oracles.clustering import legacy_clustering
from tests.oracles.embeddings import (
    _set_embeddings_reference,
    oracle_set_embeddings,
)
from tests.oracles.pairwise import oracle_pairwise
from tests.oracles.three_conflicts import _three_conflicts_reference

__all__ = [
    "_set_embeddings_reference",
    "_three_conflicts_reference",
    "legacy_clustering",
    "oracle_pairwise",
    "oracle_set_embeddings",
]
