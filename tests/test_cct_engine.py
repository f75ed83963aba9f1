"""Differential tests for CCT's bitset embedding engine and sweep cache.

The kernel path mirrors the reference loop's scalar closed forms
IEEE-op for IEEE-op, so embeddings — and therefore whole CCT trees —
must be *bit-identical* to builds on the oracle's embeddings
(``tests/oracles``). The acceptance grid pins that: {oracle, kernel}
x {cache on/off} all return byte-identical trees on every similarity
variant.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

import repro.algorithms.cct as cct_module
from repro.algorithms import CCT, CCTConfig, clear_embedding_cache, set_embeddings
from repro.algorithms.cct_cache import EmbeddingCache, get_embedding_cache
from repro.core import Variant, score_tree
from repro.io import tree_to_dict
from repro.observability import Tracer, use_tracer

from tests.oracles import (
    _set_embeddings_reference,
    legacy_clustering,
    oracle_set_embeddings,
)
from tests.test_ctcr_equivalence import EQUIV_VARIANTS, random_instance


class TestEmbeddingEquivalence:
    """Reference loop vs kernel path: exact (bitwise) matrix equality."""

    @pytest.mark.parametrize("variant", EQUIV_VARIANTS, ids=lambda v: str(v))
    def test_random_instances(self, variant):
        for seed in range(5):
            instance = random_instance(seed)
            ref = _set_embeddings_reference(instance, variant)
            fast = set_embeddings(instance, variant)
            assert np.array_equal(ref, fast)

    def test_paper_examples(self, figure2_instance, example32_instance, all_variants):
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                ref = _set_embeddings_reference(instance, variant)
                fast = set_embeddings(instance, variant)
                assert np.array_equal(ref, fast)

    def test_empty_instance(self):
        from repro.core.input_sets import OCTInstance

        instance = OCTInstance([], universe=[])
        ref = _set_embeddings_reference(instance, Variant.exact())
        fast = set_embeddings(instance, Variant.exact())
        assert ref.shape == fast.shape == (0, 0)


class TestEmbeddingCache:
    """The sweep cache replays intersection counts, not similarity."""

    def setup_method(self):
        clear_embedding_cache()

    def teardown_method(self):
        clear_embedding_cache()

    def test_replay_is_identical(self):
        instance = random_instance(5)
        variant = Variant.threshold_jaccard(0.5)
        cold = set_embeddings(instance, variant, use_cache=True)
        warm = set_embeddings(instance, variant, use_cache=True)
        cache = get_embedding_cache()
        assert cache.misses == 1 and cache.hits == 1
        assert np.array_equal(cold, warm)

    def test_cross_variant_and_cross_delta_reuse(self):
        """Counts are variant-independent: one miss serves every δ and
        even every similarity kind on the same instance."""
        instance = random_instance(9)
        variants = [
            Variant.threshold_jaccard(0.5),
            Variant.threshold_jaccard(0.8),
            Variant.cutoff_f1(0.6),
            Variant.perfect_recall(0.7),
        ]
        for variant in variants:
            cached = set_embeddings(instance, variant, use_cache=True)
            fresh = set_embeddings(instance, variant, use_cache=False)
            assert np.array_equal(cached, fresh)
        cache = get_embedding_cache()
        assert cache.misses == 1
        assert cache.hits == len(variants) - 1

    def test_different_instances_do_not_collide(self):
        variant = Variant.exact()
        a = set_embeddings(random_instance(1), variant, use_cache=True)
        b = set_embeddings(random_instance(2), variant, use_cache=True)
        cache = get_embedding_cache()
        assert cache.misses == 2 and cache.hits == 0
        assert a.shape == b.shape and not np.array_equal(a, b)

    def test_fifo_eviction_bounds_entries(self):
        cache = EmbeddingCache(max_entries=2)
        empty = np.empty(0, dtype=np.int64)
        for seed in range(4):
            inst = random_instance(seed, n_sets=5, n_items=10)
            key = cache.key(inst)
            assert cache.get(key) is None
            cache.put(
                key, (5, np.ones(5, dtype=np.int64), empty, empty, empty)
            )
        assert len(cache) == 2

    def test_cached_arrays_are_read_only(self):
        instance = random_instance(4)
        set_embeddings(instance, Variant.exact(), use_cache=True)
        cache = get_embedding_cache()
        entry = cache.get(cache.key(instance))
        assert entry is not None
        n, *arrays = entry
        assert n == len(instance)
        assert all(not a.flags.writeable for a in arrays)

    def test_counters_surface_in_tracer(self):
        instance = random_instance(6)
        variant = Variant.threshold_jaccard(0.5)
        with use_tracer(Tracer()) as tracer:
            set_embeddings(instance, variant, use_cache=True)
            set_embeddings(instance, variant, use_cache=True)
        assert tracer.counters.get("cct.cache_misses") == 1
        assert tracer.counters.get("cct.cache_hits") == 1


def cct_fingerprint(instance, variant, oracle=False, **config):
    """CCT tree and scores; ``oracle`` builds on the oracle's embeddings."""
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr(cct_module, "set_embeddings", oracle_set_embeddings)
        tree = CCT(CCTConfig(**config)).build(instance, variant)
    report = score_tree(tree, instance, variant)
    return tree_to_dict(tree), report.normalized, report.total, tree.to_text()


class TestCCTEngineGrid:
    """Acceptance grid: every embedding-engine combination returns a
    byte-identical CCT tree on every similarity variant.

    The cache grid runs cold then warm, so replayed intersection counts
    are exercised, not just stored.
    """

    @pytest.mark.parametrize("variant", EQUIV_VARIANTS, ids=lambda v: str(v))
    def test_engine_grid(self, variant):
        clear_embedding_cache()
        instance = random_instance(21, n_sets=25)
        base = cct_fingerprint(instance, variant, oracle=True)
        for use_cache in (False, True):
            got = cct_fingerprint(instance, variant, use_cache=use_cache)
            assert got == base, f"cache={use_cache}"
        # Second cached pass replays from the now-warm cache.
        warm = cct_fingerprint(instance, variant, use_cache=True)
        assert warm == base
        clear_embedding_cache()

    def test_paper_examples_grid(
        self, figure2_instance, example32_instance, all_variants
    ):
        clear_embedding_cache()
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                base = cct_fingerprint(instance, variant, oracle=True)
                for use_cache in (False, True):
                    got = cct_fingerprint(
                        instance, variant, use_cache=use_cache
                    )
                    assert got == base
        clear_embedding_cache()

    @pytest.mark.slow
    def test_tiny_dataset_grid(self, tiny_dataset):
        from repro.pipeline import preprocess

        clear_embedding_cache()
        variant = Variant.threshold_jaccard(0.8)
        instance, _report = preprocess(tiny_dataset, variant)
        base = cct_fingerprint(instance, variant, oracle=True)
        for use_cache in (False, True):
            got = cct_fingerprint(instance, variant, use_cache=use_cache)
            assert got == base, f"cache={use_cache}"
        clear_embedding_cache()


class TestClusterEngineContract:
    """NN-chain vs the legacy clustering oracle inside the full CCT build.

    Merge orders differ on ties, so trees need not be byte-identical —
    but both engines must produce valid trees.
    """

    @pytest.mark.parametrize("variant", EQUIV_VARIANTS, ids=lambda v: str(v))
    def test_both_engines_build_valid_trees(self, variant, monkeypatch):
        instance = random_instance(13, n_sets=20)
        trees = [CCT().build(instance, variant)]
        monkeypatch.setattr(
            cct_module, "agglomerative_clustering", legacy_clustering
        )
        trees.append(CCT().build(instance, variant))
        for tree in trees:
            tree.validate(
                universe=instance.universe, bound=instance.bound
            )
