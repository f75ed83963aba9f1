"""Tests for 2-conflict enumeration."""

from repro.conflicts import compute_pairwise, rank_sets
from repro.core import Variant, make_instance


class TestExactConflicts:
    def test_figure2_exact_conflicts(self, figure2_instance):
        """Figure 4: conflicts are exactly the intersecting non-nested pairs."""
        analysis = compute_pairwise(figure2_instance, Variant.exact())
        # sids: 0 = q1 {a..e}, 1 = q2 {a,b}, 2 = q3 {c,d,e,f}, 3 = q4 {a,b,f,g,h}
        assert analysis.is_conflict(0, 2)
        assert analysis.is_conflict(0, 3)
        assert analysis.is_conflict(2, 3)
        assert not analysis.is_conflict(0, 1)  # q2 subset of q1
        assert not analysis.is_conflict(1, 3)  # q2 subset of q4
        assert not analysis.is_conflict(1, 2)  # disjoint
        assert len(analysis.conflicts) == 3

    def test_exact_nested_is_must_together(self, figure2_instance):
        analysis = compute_pairwise(figure2_instance, Variant.exact())
        assert analysis.is_must_together(0, 1)
        assert analysis.is_must_together(1, 3)

    def test_disjoint_pairs_not_tracked(self):
        inst = make_instance([{"a"}, {"b"}, {"c"}])
        analysis = compute_pairwise(inst, Variant.exact())
        assert not analysis.conflicts
        assert not analysis.must_together
        assert not analysis.intersections


class TestPerfectRecallConflicts:
    def test_figure2_pr_conflicts(self, figure2_instance):
        analysis = compute_pairwise(
            figure2_instance, Variant.perfect_recall(0.8)
        )
        # q4 conflicts with q1 (5/8 < 0.8) and q3 (5/8 < 0.8).
        assert analysis.is_conflict(0, 3)
        assert analysis.is_conflict(2, 3)
        assert len(analysis.conflicts) == 2
        # q1-q2 (5/5), q1-q3 (5/6), q2-q4 (5/5) must be covered together.
        assert analysis.is_must_together(0, 1)
        assert analysis.is_must_together(0, 2)
        assert analysis.is_must_together(1, 3)

    def test_example32_must_pairs(self, example32_instance):
        analysis = compute_pairwise(
            example32_instance, Variant.perfect_recall(0.61)
        )
        assert analysis.is_must_together(0, 1)  # q1, q2
        assert analysis.is_must_together(1, 2)  # q2, q3
        assert not analysis.is_must_together(0, 2)  # both ways possible
        assert not analysis.conflicts


class TestGeneralBehaviour:
    def test_pair_keys_are_rank_ordered(self, figure2_instance):
        ranking = rank_sets(figure2_instance)
        analysis = compute_pairwise(figure2_instance, Variant.exact(), ranking)
        for upper, lower in (
            analysis.conflicts | analysis.must_together | analysis.can_separately
        ):
            assert ranking.rank_of[upper] < ranking.rank_of[lower]

    def test_classification_is_a_partition(self, figure2_instance):
        """Every intersecting pair lands in >= 1 class, conflicts exclusive."""
        for variant in (
            Variant.exact(),
            Variant.perfect_recall(0.7),
            Variant.threshold_jaccard(0.7),
            Variant.cutoff_f1(0.6),
        ):
            analysis = compute_pairwise(figure2_instance, variant)
            for pair in analysis.intersections:
                classes = sum(
                    (
                        pair in analysis.conflicts,
                        pair in analysis.must_together,
                        pair in analysis.can_separately,
                    )
                )
                assert classes >= 1
                if pair in analysis.conflicts:
                    assert classes == 1

    def test_intersections_counted(self, figure2_instance):
        analysis = compute_pairwise(figure2_instance, Variant.exact())
        key = analysis.key(0, 2)
        assert analysis.intersections[key] == 3  # {c, d, e}

    def test_low_threshold_dissolves_conflicts(self, figure2_instance):
        analysis = compute_pairwise(
            figure2_instance, Variant.threshold_jaccard(0.3)
        )
        assert not analysis.conflicts

    def test_per_set_threshold_respected(self):
        from repro.core import InputSet, OCTInstance

        # Identical geometry, but one pair member carries a loose
        # threshold, dissolving the conflict.
        strict = [
            InputSet(sid=0, items=frozenset(range(6))),
            InputSet(sid=1, items=frozenset(range(3, 9))),
        ]
        loose = [
            InputSet(sid=0, items=frozenset(range(6)), threshold=0.3),
            InputSet(sid=1, items=frozenset(range(3, 9))),
        ]
        v = Variant.threshold_jaccard(0.9)
        assert compute_pairwise(OCTInstance(strict), v).conflicts
        assert not compute_pairwise(OCTInstance(loose), v).conflicts

    def test_must_neighbors_adjacency(self, figure2_instance):
        analysis = compute_pairwise(
            figure2_instance, Variant.perfect_recall(0.8)
        )
        adj = analysis.must_neighbors()
        assert adj[0] == {1, 2}
        assert adj[1] == {0, 3}
