"""End-to-end equivalence of CTCR's bitset kernel and the set-based oracle.

The bitset kernel mirrors the scalar closed forms term for term, so
``compute_pairwise`` must agree exactly with the set-based oracle in
``tests/oracles`` — same pair classifications — and a CTCR build fed the
oracle's analysis through :class:`BuildReuse` must return the same tree
and scores as a from-scratch build, on every instance and variant. These
tests pin that contract.

The same differential harness pins the observability layer: tracing is
measurement only, so builds with tracing enabled must be bit-identical —
trees, scores, diagnostics — to builds with the null tracer, for both
algorithms, both pairwise sources, and serial or pooled MIS solves
(TestTracingEquivalence).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms import CCT, CTCR, CTCRConfig
from repro.algorithms.ctcr import BuildReuse
from repro.conflicts.two_conflicts import compute_pairwise
from repro.mis import MISConfig, clear_mis_cache
from repro.core import OCTInstance, Variant, make_instance, score_tree
from repro.core.input_sets import InputSet
from repro.io import tree_to_dict
from repro.observability import Tracer, use_tracer
from repro.utils import make_rng
from tests.oracles import oracle_pairwise


def random_instance(seed, n_sets=30, n_items=40) -> OCTInstance:
    """A randomized instance with weights, per-set thresholds, and a
    sprinkling of non-uniform item bounds."""
    rng = make_rng(seed)
    universe = [f"i{k}" for k in range(n_items)]
    sets = []
    for sid in range(n_sets):
        items = frozenset(rng.sample(universe, rng.randint(1, 10)))
        threshold = rng.choice([None, None, 0.4, 0.9])
        sets.append(
            InputSet(
                sid=sid,
                items=items,
                weight=rng.randint(1, 5),
                threshold=threshold,
            )
        )
    bounds = {item: 2 for item in rng.sample(universe, n_items // 5)}
    return OCTInstance(
        sets, universe=universe, item_bounds=bounds, default_bound=1
    )


EQUIV_VARIANTS = [
    Variant.exact(),
    Variant.threshold_jaccard(0.5),
    Variant.cutoff_jaccard(0.7),
    Variant.threshold_f1(0.6),
    Variant.cutoff_f1(0.5),
    Variant.perfect_recall(0.5),
    Variant.perfect_recall(1.0),
]


def assert_same_analysis(old, new):
    assert old.conflicts == new.conflicts
    assert old.must_together == new.must_together
    assert old.can_separately == new.can_separately
    assert old.intersections == new.intersections


class TestPairwiseEquivalence:
    @pytest.mark.parametrize(
        "variant", EQUIV_VARIANTS, ids=lambda v: str(v)
    )
    def test_random_instances(self, variant):
        for seed in range(5):
            instance = random_instance(seed)
            old = oracle_pairwise(instance, variant)
            new = compute_pairwise(instance, variant)
            assert_same_analysis(old, new)

    def test_uniform_bound_fast_path(self):
        # No per-item overrides: the kernel reuses full intersection
        # counts for the bound-1 shared counts.
        rng = make_rng(99)
        universe = [f"i{k}" for k in range(30)]
        sets = [
            InputSet(sid=s, items=frozenset(rng.sample(universe, 5)))
            for s in range(20)
        ]
        instance = OCTInstance(sets, universe=universe)
        variant = Variant.threshold_jaccard(0.6)
        assert_same_analysis(
            oracle_pairwise(instance, variant),
            compute_pairwise(instance, variant),
        )

    def test_paper_examples(self, figure2_instance, example32_instance, all_variants):
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                assert_same_analysis(
                    oracle_pairwise(instance, variant),
                    compute_pairwise(instance, variant),
                )


def oracle_reuse(instance, variant) -> BuildReuse:
    """Inject the set-based oracle's pairwise analysis into a CTCR build."""
    return BuildReuse(analysis=oracle_pairwise(instance, variant))


def build_fingerprint(instance, variant, oracle=False, **config):
    reuse = oracle_reuse(instance, variant) if oracle else None
    tree = CTCR(CTCRConfig(**config)).build(instance, variant, reuse=reuse)
    report = score_tree(tree, instance, variant)
    return tree_to_dict(tree), report.normalized, report.total, tree.to_text()


class TestTreeEquivalence:
    @pytest.mark.parametrize(
        "variant", EQUIV_VARIANTS, ids=lambda v: str(v)
    )
    def test_random_instance_trees_identical(self, variant):
        instance = random_instance(17, n_sets=25)
        off = build_fingerprint(instance, variant, oracle=True)
        on = build_fingerprint(instance, variant)
        assert off == on

    def test_paper_examples_trees_identical(
        self, figure2_instance, example32_instance, all_variants
    ):
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                off = build_fingerprint(instance, variant, oracle=True)
                on = build_fingerprint(instance, variant)
                assert off == on

    @pytest.mark.slow
    def test_tiny_dataset_trees_identical(self, tiny_dataset):
        from repro.pipeline import preprocess

        for variant in (
            Variant.threshold_jaccard(0.8),
            Variant.perfect_recall(0.6),
        ):
            instance, _report = preprocess(tiny_dataset, variant)
            off = build_fingerprint(instance, variant, oracle=True)
            on = build_fingerprint(instance, variant)
            assert off == on

    @pytest.mark.slow
    def test_n_jobs_parity(self, tiny_dataset):
        """Trees are identical for MIS n_jobs=1 vs 4, from either
        pairwise source."""
        from repro.pipeline import preprocess

        variant = Variant.threshold_jaccard(0.8)
        instance, _report = preprocess(tiny_dataset, variant)
        baseline = build_fingerprint(instance, variant, oracle=True)
        for oracle in (False, True):
            fanned = build_fingerprint(
                instance, variant, oracle=oracle, mis=MISConfig(n_jobs=4)
            )
            assert fanned == baseline


class TestMISEngineEquivalence:
    """The MIS engine's knobs must never change the tree.

    Acceptance grid for the kernelized engine: every similarity variant
    × {kernel, oracle pairwise} × {serial, pooled components} × cache on/off
    returns an identical tree and score. The cache grid runs first with
    a cold cache and again with a warm one, so replayed component
    solutions are exercised, not just stored.
    """

    @pytest.mark.parametrize(
        "variant", EQUIV_VARIANTS, ids=lambda v: str(v)
    )
    def test_cache_grid(self, variant):
        clear_mis_cache()
        instance = random_instance(37, n_sets=25)
        base = build_fingerprint(instance, variant)
        for oracle in (False, True):
            for use_cache in (False, True):
                got = build_fingerprint(
                    instance,
                    variant,
                    oracle=oracle,
                    mis=MISConfig(use_cache=use_cache),
                )
                assert got == base, f"oracle={oracle} cache={use_cache}"
        # Second pass hits the now-warm cache.
        warm = build_fingerprint(
            instance, variant, mis=MISConfig(use_cache=True)
        )
        assert warm == base
        clear_mis_cache()

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "variant",
        [Variant.perfect_recall(0.5), Variant.threshold_jaccard(0.5)],
        ids=lambda v: str(v),
    )
    def test_pooled_mis_grid(self, variant):
        """--mis-jobs 4 with and without the cache matches serial."""
        clear_mis_cache()
        instance = random_instance(43, n_sets=35)
        base = build_fingerprint(instance, variant, mis=MISConfig())
        for use_cache in (False, True):
            got = build_fingerprint(
                instance,
                variant,
                mis=MISConfig(n_jobs=4, use_cache=use_cache),
            )
            assert got == base, f"n_jobs=4 cache={use_cache}"
        clear_mis_cache()


def ctcr_fingerprint_with_diag(instance, variant, oracle=False, **config):
    """(tree, scores, diagnostics) — everything tracing must not change."""
    builder = CTCR(CTCRConfig(**config))
    reuse = oracle_reuse(instance, variant) if oracle else None
    tree = builder.build(instance, variant, reuse=reuse)
    report = score_tree(tree, instance, variant)
    return (
        tree_to_dict(tree),
        report.normalized,
        report.total,
        tree.to_text(),
        builder.last_diagnostics.as_dict(),
    )


class TestTracingEquivalence:
    """Tracing on vs. off is a no-op for every observable output."""

    @pytest.mark.parametrize(
        "variant", EQUIV_VARIANTS, ids=lambda v: str(v)
    )
    @pytest.mark.parametrize("oracle", [True, False], ids=["sets", "bitset"])
    @pytest.mark.parametrize("n_jobs", [1, 2], ids=["serial", "pool"])
    def test_ctcr_identical_under_tracing(self, variant, oracle, n_jobs):
        instance = random_instance(23, n_sets=25)
        config = dict(oracle=oracle, mis=MISConfig(n_jobs=n_jobs))
        off = ctcr_fingerprint_with_diag(instance, variant, **config)
        with use_tracer(Tracer()) as tracer:
            on = ctcr_fingerprint_with_diag(instance, variant, **config)
        assert on == off
        # The traced run actually collected something. An injected
        # analysis skips the counted pairwise stage, and the remaining
        # stages count only when there are conflicts to resolve.
        assert any(s.name == "ctcr.build" for s in tracer.spans.values())
        assert tracer.counters or oracle

    @pytest.mark.parametrize(
        "variant", EQUIV_VARIANTS, ids=lambda v: str(v)
    )
    def test_cct_identical_under_tracing(self, variant):
        instance = random_instance(29, n_sets=20)

        def fingerprint():
            tree = CCT().build(instance, variant)
            report = score_tree(tree, instance, variant)
            return tree_to_dict(tree), report.normalized, tree.to_text()

        off = fingerprint()
        with use_tracer(Tracer()) as tracer:
            on = fingerprint()
        assert on == off
        assert any(s.name == "cct.build" for s in tracer.spans.values())

    def test_paper_examples_identical_under_tracing(
        self, figure2_instance, example32_instance, all_variants
    ):
        for instance in (figure2_instance, example32_instance):
            for variant in all_variants:
                for oracle in (False, True):
                    off = ctcr_fingerprint_with_diag(
                        instance, variant, oracle=oracle
                    )
                    with use_tracer(Tracer()):
                        on = ctcr_fingerprint_with_diag(
                            instance, variant, oracle=oracle
                        )
                    assert on == off

    def test_pairwise_analysis_identical_under_tracing(self):
        variant = Variant.threshold_jaccard(0.5)
        for pairwise in (oracle_pairwise, compute_pairwise):
            instance = random_instance(31)
            off = pairwise(instance, variant)
            with use_tracer(Tracer()):
                on = pairwise(instance, variant)
            assert_same_analysis(off, on)
