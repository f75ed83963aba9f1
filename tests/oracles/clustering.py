"""Greedy global-minimum agglomeration: the oracle for the NN-chain engine.

The original CCT clustering loop with cached per-row minima (expected
O(n²), worst-case cubic). On tie-free inputs it yields the same merge
topology as :func:`repro.clustering.agglomerative_clustering`, with
heights equal up to floating-point tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.agglomerative import _lance_williams
from repro.clustering.dendrogram import Dendrogram, Merge
from repro.clustering.distance import distance_matrix


def legacy_clustering(
    vectors: np.ndarray, linkage: str = "average", metric: str = "euclidean"
) -> Dendrogram:
    """:func:`_cluster_greedy` over row vectors, for two or more rows."""
    x = np.asarray(vectors, dtype=np.float64)
    return _cluster_greedy(distance_matrix(x, metric), linkage)


def _cluster_greedy(dist: np.ndarray, linkage: str) -> Dendrogram:
    """Greedy global-minimum agglomeration (the legacy engine)."""
    n = dist.shape[0]
    inf = np.inf
    work = dist.copy()
    np.fill_diagonal(work, inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    node_of = np.arange(n)  # dendrogram node id currently held by each slot
    row_min = work.min(axis=1)
    row_arg = work.argmin(axis=1)

    merges: list[Merge] = []
    next_node = n
    for _step in range(n - 1):
        masked = np.where(active, row_min, inf)
        i = int(masked.argmin())
        j = int(row_arg[i])
        if not active[j] or work[i, j] != row_min[i]:
            # Stale cache: recompute this row properly.
            row = np.where(active, work[i], inf)
            row[i] = inf
            row_min[i] = row.min()
            row_arg[i] = int(row.argmin())
            j = int(row_arg[i])
        height = float(work[i, j])

        left, right = sorted((node_of[i], node_of[j]))
        merges.append(Merge(left=left, right=right, height=height, node_id=next_node))

        # Merge j into slot i via Lance–Williams; retire slot j.
        new_row = _lance_williams(linkage, work[i], work[j], int(sizes[i]), int(sizes[j]))
        work[i, :] = new_row
        work[:, i] = new_row
        work[i, i] = inf
        active[j] = False
        work[j, :] = inf
        work[:, j] = inf
        sizes[i] += sizes[j]
        node_of[i] = next_node
        next_node += 1

        # Refresh cached minima: row i fully, others only if stale.
        row = np.where(active, work[i], inf)
        row[i] = inf
        row_min[i] = row.min()
        row_arg[i] = int(row.argmin())
        for k in np.nonzero(active)[0]:
            if k == i:
                continue
            if row_arg[k] == j or row_arg[k] == i:
                krow = np.where(active, work[k], inf)
                krow[k] = inf
                row_min[k] = krow.min()
                row_arg[k] = int(krow.argmin())
            elif work[k, i] < row_min[k]:
                row_min[k] = work[k, i]
                row_arg[k] = i
    return Dendrogram(n_leaves=n, merges=merges)
