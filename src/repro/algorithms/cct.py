"""CCT — the Clustering-based Category Tree algorithm (paper Section 4).

CCT clusters the *input sets* (not the items) to derive the tree
structure: each set is embedded as the vector of its similarities to all
other sets (the "global context"), an agglomerative clustering over the
embeddings yields a dendrogram, the dendrogram becomes the tree skeleton
with one leaf category per input set, and the items are then rationed by
the same greedy assignment procedure as CTCR (Algorithm 2), followed by
condensing. Conflicts are never resolved explicitly — once a conflicting
set's items are spent, the greedy assignment simply stops prioritizing
the sets that can no longer be covered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.assignment import assign_duplicates, assign_safe_items
from repro.algorithms.base import BuildContext, TreeBuilder
from repro.algorithms.cct_cache import get_embedding_cache
from repro.algorithms.condense import (
    add_misc_category,
    remove_noncovered_items,
    remove_noncovering_categories,
)
from repro.clustering.agglomerative import agglomerative_clustering
from repro.clustering.dendrogram import Dendrogram
from repro.core import bitset
from repro.core.input_sets import OCTInstance
from repro.core.tree import CategoryTree
from repro.core.variants import Variant
from repro.observability import get_tracer


@dataclass(frozen=True)
class CCTConfig:
    """Tuning switches for CCT."""

    linkage: str = "average"
    metric: str = "euclidean"
    condense: bool = True
    # Ablation: replace the global-context embeddings with plain pairwise
    # dissimilarities (1 - S(q_i, q_j)) as the clustering distance.
    global_context: bool = True
    # Replay the pairwise intersection counts across builds on the same
    # instance (threshold sweeps).
    use_cache: bool = False


def set_embeddings(
    instance: OCTInstance,
    variant: Variant,
    *,
    use_cache: bool = False,
) -> np.ndarray:
    """The n x n similarity embeddings of Section 4.

    Entry ``[j, i]`` is the raw similarity of sets ``j`` and ``i`` under
    the variant's base measure; for Perfect-Recall the paper uses the
    average of precision and recall (which is symmetric across the pair):

    >>> from repro.core import Variant, make_instance
    >>> inst = make_instance([{"a", "b", "c"}, {"b", "c"}, {"x"}])
    >>> m = set_embeddings(inst, Variant.threshold_jaccard(0.5))
    >>> float(m[1, 0])            # row = set 1, column = set 0: |∩|/|∪|
    0.6666666666666666
    >>> bool(m[1, 0] == m[0, 1])  # raw similarity is symmetric
    True
    >>> float(m[2, 0])            # disjoint sets embed as 0
    0.0

    The expensive, variant-independent part — the pairwise intersection
    counts — comes from the packed-bitset kernel's output-sensitive
    ``intersecting_pairs`` enumeration. With ``use_cache`` the sparse
    ``(ii, jj, counts)`` triple is replayed across builds on the same
    instance (δ and even the similarity kind only enter the cheap
    derivation below), which is what makes Fig. 8g/8h-style threshold
    sweeps nearly free after the first point.
    """
    tracer = get_tracer()
    entry = key = None
    if use_cache:
        cache = get_embedding_cache()
        key = cache.key(instance)
        entry = cache.get(key)
        tracer.count("cct.cache_hits" if entry is not None else "cct.cache_misses")
    if entry is None:
        uni = bitset.BitsetUniverse.from_instance(instance)
        iu, ju, counts = uni.intersecting_pairs()
        entry = (uni.n_sets, uni.sizes, iu, ju, counts)
        if key is not None:
            cache.put(key, entry)
    n, sizes, iu, ju, counts = entry

    # Derive the variant's similarity matrix from the counts. Only
    # intersecting pairs get an entry (matching the reference loop);
    # the vectorized closed forms mirror raw_similarity_from_sizes
    # IEEE-op for IEEE-op, so entries are bit-identical.
    matrix = np.zeros((n, n), dtype=np.float64)
    if iu.size:
        values = bitset.raw_similarity_from_size_arrays(
            variant.kind, sizes[iu], sizes[ju], counts
        )
        matrix[iu, ju] = values
        matrix[ju, iu] = values
    np.fill_diagonal(matrix, 1.0)
    return matrix


class CCT(TreeBuilder):
    """Clustering-based category tree construction (Algorithm 3)."""

    name = "CCT"

    def __init__(self, config: CCTConfig | None = None) -> None:
        self.config = config or CCTConfig()

    def build(self, instance: OCTInstance, variant: Variant) -> CategoryTree:
        tree = CategoryTree()
        ctx = BuildContext(tree=tree, instance=instance, variant=variant)
        tracer = get_tracer()
        if len(instance) == 0:
            add_misc_category(tree, instance)
            return tree

        with tracer.span("cct.build"):
            with tracer.span("cct.embeddings"):
                similarities = set_embeddings(
                    instance, variant, use_cache=self.config.use_cache
                )
            with tracer.span("cct.clustering"):
                if self.config.global_context:
                    dendrogram = agglomerative_clustering(
                        similarities,
                        linkage=self.config.linkage,
                        metric=self.config.metric,
                    )
                else:
                    dendrogram = agglomerative_clustering(
                        similarities,
                        linkage=self.config.linkage,
                        precomputed=1.0 - similarities,
                    )
            with tracer.span("cct.skeleton"):
                self._skeleton_from_dendrogram(ctx, dendrogram)

            with tracer.span("cct.assign"):
                duplicates = assign_safe_items(ctx, instance.sets)
                if duplicates:
                    assign_duplicates(ctx, instance.sets, duplicates)
            if self.config.condense:
                with tracer.span("cct.condense"):
                    remove_noncovered_items(tree, instance, variant)
                    remove_noncovering_categories(tree, instance, variant)
            add_misc_category(tree, instance)
        return tree

    def _skeleton_from_dendrogram(
        self, ctx: BuildContext, dendrogram: Dendrogram
    ) -> None:
        """Materialize the dendrogram as the category-tree skeleton.

        The dendrogram root maps onto the tree root; every other internal
        node becomes an (initially empty) category and every dendrogram
        leaf becomes the dedicated leaf category of one input set.
        """
        sets = ctx.instance.sets
        child_map = dendrogram.children()
        stack = [(dendrogram.root_id, ctx.tree.root)]
        while stack:
            node_id, parent_cat = stack.pop()
            if node_id < dendrogram.n_leaves:
                q = sets[node_id]
                cat = ctx.tree.add_category(
                    items=(),
                    parent=parent_cat,
                    label=q.label or f"q{q.sid}",
                )
                cat.matched_sids = [q.sid]
                ctx.designated[q.sid] = cat
                ctx.target_sets[cat.cid] = q.items
                continue
            if node_id == dendrogram.root_id:
                cat = ctx.tree.root
            else:
                cat = ctx.tree.add_category(
                    items=(), parent=parent_cat, label=f"cluster{node_id}"
                )
            for child in child_map[node_id]:
                stack.append((child, cat))
