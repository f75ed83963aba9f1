"""CTCR end-to-end tests on the paper's worked examples."""

import math

import pytest

from repro.algorithms import CTCR, CTCRConfig
from repro.core import Variant, make_instance, score_tree
from repro.mis import MISConfig


class TestExactVariant:
    def test_figure4_optimal_tree(self, figure2_instance):
        """Figure 4: for the Exact variant the optimum covers q1 and q2
        (weight 3 of 5) with C(q2) nested inside C(q1)."""
        builder = CTCR()
        tree = builder.build(figure2_instance, Variant.exact())
        tree.validate(universe=figure2_instance.universe)
        report = score_tree(tree, figure2_instance, Variant.exact())
        assert math.isclose(report.normalized, 3 / 5)
        assert report.per_set[0].covered and report.per_set[1].covered
        # The nested structure: C(q2) is a descendant of C(q1).
        c_q1 = tree.find(report.per_set[0].best_cid)
        c_q2 = tree.find(report.per_set[1].best_cid)
        assert c_q2 in list(c_q1.descendants())
        assert c_q1.items == figure2_instance.get(0).items
        assert c_q2.items == figure2_instance.get(1).items

    def test_diagnostics_match_figure4(self, figure2_instance):
        builder = CTCR()
        builder.build(figure2_instance, Variant.exact())
        diag = builder.last_diagnostics
        assert diag.num_two_conflicts == 3
        assert diag.num_three_conflicts == 0
        assert diag.selected == 2
        assert diag.selected_weight == 3.0

    def test_misc_category_collects_leftovers(self, figure2_instance):
        tree = CTCR().build(figure2_instance, Variant.exact())
        misc = [c for c in tree.categories() if c.label == "C_misc"]
        assert len(misc) == 1
        # f, g, h appear in no selected set.
        assert misc[0].items == {"f", "g", "h"}


class TestPerfectRecall:
    def test_figure2_t1_optimal(self, figure2_instance):
        """The paper's T1: PR with delta 0.8 covers q1, q2, q3 (score 4/5)."""
        variant = Variant.perfect_recall(0.8)
        tree = CTCR().build(figure2_instance, variant)
        tree.validate(universe=figure2_instance.universe)
        report = score_tree(tree, figure2_instance, variant)
        assert math.isclose(report.normalized, 4 / 5)
        covered = {sid for sid, e in report.per_set.items() if e.covered}
        assert covered == {0, 1, 2}

    def test_example32_drops_exactly_one_set(self, example32_instance):
        """The 3-conflict {q1,q2,q3} forces giving up one set; optimal
        drops the lightest."""
        variant = Variant.perfect_recall(0.61)
        builder = CTCR()
        tree = builder.build(example32_instance, variant)
        tree.validate(universe=example32_instance.universe)
        report = score_tree(tree, example32_instance, variant)
        weights = [q.weight for q in example32_instance]
        expected = (sum(weights) - min(weights)) / sum(weights)
        assert math.isclose(report.normalized, expected)
        assert builder.last_diagnostics.num_three_conflicts == 1


class TestGeneralVariants:
    @pytest.mark.parametrize(
        "variant, minimum",
        [
            (Variant.threshold_jaccard(0.6), 4 / 5),
            (Variant.threshold_f1(0.7), 4 / 5),
            (Variant.cutoff_jaccard(0.65), 0.7),
            (Variant.cutoff_f1(0.7), 0.65),
        ],
    )
    def test_figure2_scores(self, figure2_instance, variant, minimum):
        tree = CTCR().build(figure2_instance, variant)
        tree.validate(universe=figure2_instance.universe)
        report = score_tree(tree, figure2_instance, variant)
        assert report.normalized >= minimum - 1e-9

    def test_threshold_handled_as_cutoff_never_uncovers(self, figure2_instance):
        """Binary variants must not lose covers to over-optimization."""
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(figure2_instance, variant)
        report = score_tree(tree, figure2_instance, variant)
        assert report.covered_count >= 3


class TestConfigSwitches:
    def test_greedy_mis_config(self, figure2_instance):
        builder = CTCR(CTCRConfig(mis=MISConfig(exact=False)))
        tree = builder.build(figure2_instance, Variant.exact())
        tree.validate(universe=figure2_instance.universe)
        report = score_tree(tree, figure2_instance, Variant.exact())
        assert report.normalized > 0

    def test_three_conflicts_ablation(self, example32_instance):
        variant = Variant.perfect_recall(0.61)
        ablated = CTCR(CTCRConfig(use_three_conflicts=False))
        tree = ablated.build(example32_instance, variant)
        tree.validate(universe=example32_instance.universe)
        assert ablated.last_diagnostics.num_three_conflicts == 0
        # Without anticipating the triple the tree may cover fewer sets,
        # never more than the full algorithm on this instance.
        full_tree = CTCR().build(example32_instance, variant)
        full = score_tree(full_tree, example32_instance, variant)
        partial = score_tree(tree, example32_instance, variant)
        assert partial.normalized <= full.normalized + 1e-9

    def test_no_condense_keeps_score(self, figure2_instance):
        """Condensing may only increase the score (paper Section 3.2)."""
        for variant in (
            Variant.perfect_recall(0.8),
            Variant.threshold_jaccard(0.6),
        ):
            plain = CTCR(CTCRConfig(condense=False)).build(
                figure2_instance, variant
            )
            condensed = CTCR().build(figure2_instance, variant)
            s_plain = score_tree(plain, figure2_instance, variant).normalized
            s_cond = score_tree(condensed, figure2_instance, variant).normalized
            assert s_cond >= s_plain - 1e-9

    def test_parallel_jobs_give_same_tree_score(self, figure2_instance):
        variant = Variant.threshold_jaccard(0.6)
        s1 = score_tree(
            CTCR(CTCRConfig(mis=MISConfig(n_jobs=1))).build(
                figure2_instance, variant
            ),
            figure2_instance,
            variant,
        ).normalized
        s2 = score_tree(
            CTCR(CTCRConfig(mis=MISConfig(n_jobs=2))).build(
                figure2_instance, variant
            ),
            figure2_instance,
            variant,
        ).normalized
        assert math.isclose(s1, s2)


class TestItemBounds:
    def test_bound_two_lets_items_straddle_branches(self):
        """With bound 2 the memory-cards scenario needs no conflict: the
        shared items may live in both subtrees."""
        inst_b1 = make_instance(
            [set(range(8)), set(range(6, 14))], weights=[1.0, 1.0]
        )
        variant = Variant.perfect_recall(0.9)
        tree1 = CTCR().build(inst_b1, variant)
        r1 = score_tree(tree1, inst_b1, variant)

        inst_b2 = make_instance(
            [set(range(8)), set(range(6, 14))],
            weights=[1.0, 1.0],
            default_bound=2,
        )
        tree2 = CTCR().build(inst_b2, variant)
        tree2.validate(universe=inst_b2.universe, bound=inst_b2.bound)
        r2 = score_tree(tree2, inst_b2, variant)
        assert r1.normalized < 1.0
        assert math.isclose(r2.normalized, 1.0)
