"""Pure-Python CCT embedding loop: the oracle for ``set_embeddings``.

:func:`repro.algorithms.cct.set_embeddings` must return a bit-identical
matrix on every instance and variant.
"""

from __future__ import annotations

import numpy as np

from repro.core.input_sets import OCTInstance
from repro.core.similarity import raw_similarity_from_sizes
from repro.core.variants import Variant


def _set_embeddings_reference(
    instance: OCTInstance, variant: Variant
) -> np.ndarray:
    """Pure-Python embedding loop: the differential oracle.

    Kept verbatim as the semantic reference the kernel path is tested
    against; only pairs that share items get a similarity entry, the
    rest stay 0, and the diagonal is pinned to 1.
    """
    sets = instance.sets
    n = len(sets)
    matrix = np.zeros((n, n), dtype=np.float64)
    index_of = {q.sid: i for i, q in enumerate(sets)}
    sizes = [len(q.items) for q in sets]

    # Sparse pairwise intersections through the item -> sets index.
    pair_inter: dict[tuple[int, int], int] = {}
    for _item, with_item in instance.sets_containing().items():
        ids = sorted(index_of[q.sid] for q in with_item)
        for a_pos, a in enumerate(ids):
            for b in ids[a_pos + 1 :]:
                pair_inter[(a, b)] = pair_inter.get((a, b), 0) + 1
    for (a, b), inter in pair_inter.items():
        sim = raw_similarity_from_sizes(
            variant.kind, sizes[a], sizes[b], inter
        )
        matrix[a, b] = sim
        matrix[b, a] = sim
    np.fill_diagonal(matrix, 1.0)
    return matrix


def oracle_set_embeddings(
    instance: OCTInstance, variant: Variant, *, use_cache: bool = False
) -> np.ndarray:
    """The oracle with ``set_embeddings``' signature, for patching into CCT."""
    return _set_embeddings_reference(instance, variant)
