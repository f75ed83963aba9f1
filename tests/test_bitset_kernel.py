"""Differential tests: the bitset kernel vs the set-based similarity path.

Every batched result of :class:`repro.core.bitset.BitsetUniverse` — the
sparse ``intersecting_pairs`` enumeration behind CTCR's pairwise stage
and CCT's embeddings, and the row-vs-packed ``rowwise_intersections``
behind the assignment stage's cover scores — is checked entry by entry
against the scalar functions in :mod:`repro.core.similarity` on
randomized instances, plus the edge cases the score conventions pin
down (empty sets, singletons, disjoint and identical sets).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.core.bitset import BitsetUniverse, raw_similarity_from_size_arrays
from repro.core.similarity import (
    f1,
    jaccard,
    raw_similarity,
    variant_score,
    variant_score_from_sizes,
)
from repro.core.variants import SimilarityKind, Variant
from repro.utils import make_rng

DELTAS = [0.25, 0.5, 1.0]
VARIANT_MAKERS = [
    Variant.threshold_jaccard,
    Variant.cutoff_jaccard,
    Variant.threshold_f1,
    Variant.cutoff_f1,
    Variant.perfect_recall,
]


def random_families(seed, n_sets=24, n_items=60, max_size=12, empties=True):
    rng = make_rng(seed)
    universe = [f"i{k}" for k in range(n_items)]
    families = []
    for _ in range(n_sets):
        size = rng.randint(0 if empties else 1, max_size)
        families.append(frozenset(rng.sample(universe, size)))
    return families, universe


EDGE_FAMILIES = [
    frozenset(),
    frozenset(),  # two empties: jaccard/f1 = 1 by convention
    frozenset({"a"}),
    frozenset({"a"}),  # identical singletons
    frozenset({"b"}),  # disjoint from the above
    frozenset({"a", "b", "c"}),
    frozenset({"x", "y"}),  # disjoint from everything else
]


def brute_intersections(families):
    """``|a & b|`` for every ordered pair, by plain set intersection."""
    return np.array(
        [[len(a & b) for b in families] for a in families], dtype=np.int64
    )


def kernel_intersections(uni):
    """All pairwise intersection sizes, assembled from the sparse kernel.

    Pairs ``intersecting_pairs`` does not list share nothing; the
    diagonal is each set's own size.
    """
    inter = np.zeros((uni.n_sets, uni.n_sets), dtype=np.int64)
    ii, jj, counts = uni.intersecting_pairs()
    inter[ii, jj] = counts
    inter[jj, ii] = counts
    np.fill_diagonal(inter, uni.sizes)
    return inter


def kernel_similarities(families, kind):
    """The vectorized closed form over every (q, C) pair of ``families``."""
    uni = BitsetUniverse(families)
    return raw_similarity_from_size_arrays(
        kind, uni.sizes[:, None], uni.sizes[None, :], kernel_intersections(uni)
    )


def kernel_variant_scores(families, variant, deltas=None):
    """``variant_score_from_sizes`` over every (q, C) pair.

    The intersections are batched as the assignment stage batches its
    cover gaps: input-set rows against packed category rows, one
    ``rowwise_intersections`` pass.
    """
    uni = BitsetUniverse(families)
    n = len(families)
    rows = [i for i in range(n) for _ in range(n)]
    packed = uni.pack_many([c for _ in range(n) for c in families])
    inter = uni.rowwise_intersections(rows, packed).reshape(n, n)
    return [
        [
            variant_score_from_sizes(
                variant,
                len(q),
                len(c),
                int(inter[i, j]),
                variant.delta if deltas is None else deltas[i],
            )
            for j, c in enumerate(families)
        ]
        for i, q in enumerate(families)
    ]


class TestPairwiseScores:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrices_match_scalar_functions(self, seed):
        families, _ = random_families(seed)
        for kind in SimilarityKind:
            matrix = kernel_similarities(families, kind)
            for i, a in enumerate(families):
                for j, b in enumerate(families):
                    assert matrix[i, j] == raw_similarity(kind, a, b), (
                        kind,
                        i,
                        j,
                    )

    def test_edge_conventions(self):
        jac = kernel_similarities(EDGE_FAMILIES, SimilarityKind.JACCARD)
        f1s = kernel_similarities(EDGE_FAMILIES, SimilarityKind.F1)
        pr = kernel_similarities(EDGE_FAMILIES, SimilarityKind.PERFECT_RECALL)
        assert jac[0, 1] == 1.0 == jaccard(frozenset(), frozenset())
        assert f1s[0, 1] == 1.0 == f1(frozenset(), frozenset())
        assert pr[2, 0] == 0.0  # precision(q, empty) = 0, recall 0
        assert pr[0, 5] == 0.5  # recall(empty, C) = 1, precision 0
        assert jac[2, 3] == 1.0  # identical singletons
        assert jac[2, 4] == 0.0  # disjoint singletons
        assert jac[5, 6] == 0.0  # disjoint sets

    @pytest.mark.parametrize("maker", VARIANT_MAKERS, ids=lambda m: m.__name__)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_variant_scores_match(self, maker, delta):
        variant = maker(delta)
        for seed in (3, 4):
            families, _ = random_families(seed, n_sets=18)
            scores = kernel_variant_scores(families, variant)
            for i, q in enumerate(families):
                for j, c in enumerate(families):
                    assert scores[i][j] == variant_score(variant, q, c), (
                        i,
                        j,
                        delta,
                    )

    @pytest.mark.parametrize("maker", VARIANT_MAKERS, ids=lambda m: m.__name__)
    def test_variant_scores_edges(self, maker):
        for delta in DELTAS:
            variant = maker(delta)
            scores = kernel_variant_scores(EDGE_FAMILIES, variant)
            for i, q in enumerate(EDGE_FAMILIES):
                for j, c in enumerate(EDGE_FAMILIES):
                    assert scores[i][j] == variant_score(variant, q, c)

    def test_per_row_deltas(self):
        families, _ = random_families(5, n_sets=12)
        variant = Variant.cutoff_jaccard(0.5)
        deltas = [0.25 + 0.05 * i for i in range(len(families))]
        scores = kernel_variant_scores(families, variant, deltas=deltas)
        for i, q in enumerate(families):
            for j, c in enumerate(families):
                assert scores[i][j] == variant_score(
                    variant, q, c, delta=deltas[i]
                )


class TestIntersections:
    @pytest.mark.parametrize("seed", [0, 6])
    def test_sparse_matches_dense(self, seed):
        families, _ = random_families(seed)
        uni = BitsetUniverse(families)
        dense = brute_intersections(families)
        ii, jj, counts = uni.intersecting_pairs()
        assert np.all(ii < jj)
        assert np.array_equal(dense[ii, jj], counts)
        # Every intersecting upper-triangle pair must be listed.
        upper = np.triu(dense, k=1)
        assert counts.sum() == upper.sum()
        assert ii.size == np.count_nonzero(upper)

    def test_item_mask_restricts_counts(self):
        families, universe = random_families(7)
        uni = BitsetUniverse(families)
        keep = {item for item in universe if item.endswith(("1", "3", "5"))}
        mask = np.array([item in keep for item in uni.items])
        dense = brute_intersections([s & keep for s in families])
        ii, jj, counts = uni.intersecting_pairs(item_mask=mask)
        assert np.array_equal(dense[ii, jj], counts)
        assert counts.sum() == np.triu(dense, k=1).sum()

    def test_dense_diagonal_is_set_size(self):
        # Each packed row ANDed with itself pops back the set's size.
        families, _ = random_families(8)
        uni = BitsetUniverse(families)
        rows = list(range(len(families)))
        assert np.array_equal(
            uni.rowwise_intersections(rows, uni.matrix), uni.sizes
        )
        assert uni.sizes.tolist() == [len(s) for s in families]

    def test_pack_and_rowwise(self):
        families, universe = random_families(9, empties=False)
        uni = BitsetUniverse(families, universe=universe)
        probe = frozenset(universe[::3])
        packed = uni.pack(probe)
        sizes = uni.intersection_sizes(packed)
        for i, s in enumerate(families):
            assert sizes[i] == len(s & probe)
        probes = [frozenset(universe[k::4]) for k in range(4)]
        rows = [1, 3, 5, 7]
        many = uni.pack_many(probes)
        inter = uni.rowwise_intersections(rows, many)
        for k, (row, p) in enumerate(zip(rows, probes)):
            assert inter[k] == len(families[row] & p)

    def test_integer_universe_fast_path(self):
        # Integer item ids take the searchsorted mapping; results must
        # match a string-keyed (dict-mapped) rendering of the same sets.
        rng = make_rng(11)
        families = [
            frozenset(rng.sample(range(200), rng.randint(0, 15)))
            for _ in range(20)
        ]
        as_str = [frozenset(f"i{k:04d}" for k in s) for s in families]
        ints = kernel_intersections(BitsetUniverse(families))
        strs = kernel_intersections(BitsetUniverse(as_str))
        assert np.array_equal(ints, strs)
        assert np.array_equal(ints, brute_intersections(families))


@pytest.mark.slow
def test_benchmark_smoke():
    """The kernel benchmark's --smoke mode runs end to end."""
    root = Path(__file__).resolve().parents[1]
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from benchmarks.bench_bitset_kernel import run

    rows = run(smoke=True)
    assert rows, "smoke run produced no measurements"
