"""White-box tests for Algorithm 2's internals."""

import pytest

from repro.algorithms.assignment import (
    _available_for,
    _breaks_covered_ancestors,
    _cover_intersections,
    _cutoff_marginal_gain,
    _designated_by_cid,
    _match_branch,
    assign_duplicates,
    assign_safe_items,
)
from repro.algorithms.base import BuildContext
from repro.core import CategoryTree, Variant, make_instance
from repro.core.bitset import BitsetUniverse
from repro.utils import make_rng


def chain_context():
    """root -> C(q0) -> C(q1), with q2 on its own branch.

    q0 = {a, b, c, d}, q1 = {a, b}, q2 = {c, x}.
    """
    inst = make_instance(
        [{"a", "b", "c", "d"}, {"a", "b"}, {"c", "x"}],
        weights=[4.0, 2.0, 1.0],
    )
    tree = CategoryTree()
    ctx = BuildContext(
        tree=tree, instance=inst, variant=Variant.threshold_jaccard(0.5)
    )
    c0 = tree.add_category((), label="q0")
    c1 = tree.add_category((), parent=c0, label="q1")
    c2 = tree.add_category((), label="q2")
    for sid, cat in ((0, c0), (1, c1), (2, c2)):
        ctx.designated[sid] = cat
        ctx.target_sets[cat.cid] = inst.get(sid).items
    return ctx, inst, (c0, c1, c2)


class TestMatchBranch:
    def test_duplicate_targets_lowest_relevant_category(self):
        ctx, inst, (c0, c1, c2) = chain_context()
        rev = _designated_by_cid(ctx)
        gains = {0: 1.0, 1: 2.0, 2: 0.5}
        # 'a' belongs to q0 and q1 - on c0's branch the lowest relevant
        # category is c1 (a in q1), and both gains accumulate.
        gain, target = _match_branch(ctx, "a", c0, gains, rev)
        assert target is c1
        assert gain == 3.0

    def test_item_outside_lower_set_stops_at_anchor(self):
        ctx, inst, (c0, c1, c2) = chain_context()
        rev = _designated_by_cid(ctx)
        gains = {0: 1.0, 1: 2.0, 2: 0.5}
        # 'd' is only in q0: lowest relevant category on the branch is c0.
        gain, target = _match_branch(ctx, "d", c0, gains, rev)
        assert target is c0
        assert gain == 1.0


class TestAvailability:
    def test_consumed_bound_blocks_reuse(self):
        ctx, inst, (c0, c1, c2) = chain_context()
        duplicates = {"c"}
        ctx.tree.assign_item(c2, "c")
        ctx.record_assignment("c", c2)
        ctx.consume_bound("c")
        # 'c' lives on q2's branch now; it cannot also serve q0.
        assert _available_for(ctx, inst.get(0), duplicates) == []

    def test_slide_down_keeps_available(self):
        ctx, inst, (c0, c1, c2) = chain_context()
        duplicates = {"a"}
        ctx.tree.assign_item(c0, "a")
        ctx.record_assignment("a", c0)
        ctx.consume_bound("a")
        # 'a' is minimal at c0, an ancestor of c1: sliding down is free.
        assert _available_for(ctx, inst.get(1), duplicates) == ["a"]


class TestCoveredGuard:
    def test_breaking_addition_detected(self):
        ctx, inst, (c0, c1, c2) = chain_context()
        rev = _designated_by_cid(ctx)
        # Cover both q0 (at c0) and q1 (at c1) exactly.
        for item in ("a", "b"):
            ctx.tree.assign_item(c1, item)
        for item in ("c", "d"):
            ctx.tree.assign_item(c0, item)
        assert ctx.covers_with(inst.get(1), c1)
        assert ctx.covers_with(inst.get(0), c0)
        # One foreign item into c1: J(q1, c1) = 2/3 and, propagated,
        # J(q0, c0) = 4/5 — both stay above delta = 0.5.
        additions = [(f"z{i}", c1) for i in range(6)]
        assert not _breaks_covered_ancestors(ctx, additions[:1], rev)
        # Six foreign items drop J(q1, c1) to 2/8 < 0.5: detected.
        assert _breaks_covered_ancestors(ctx, additions, rev)

    def test_guard_sees_propagation_into_ancestors(self):
        ctx, inst, (c0, c1, c2) = chain_context()
        rev = _designated_by_cid(ctx)
        # Only the ancestor q0 is covered, marginally (J = 2/4 = 0.5).
        for item in ("a", "b"):
            ctx.tree.assign_item(c1, item)
        assert ctx.covers_with(inst.get(0), c0)
        # A single foreign item added deep at c1 propagates into c0 and
        # pushes q0's cover to 2/5 < 0.5: the guard must catch it.
        assert _breaks_covered_ancestors(ctx, [("z0", c1)], rev)


class TestMarginalGain:
    def test_gain_positive_for_helpful_item(self):
        ctx, inst, (c0, c1, c2) = chain_context()
        rev = _designated_by_cid(ctx)
        for item in ("a", "b", "c"):
            ctx.tree.assign_item(c0, item)
        # Adding 'd' to c0 lifts J(q0, c0) from 3/4 to 1.
        assert _cutoff_marginal_gain(ctx, "d", c0, rev) > 0

    def test_gain_negative_for_foreign_item(self):
        ctx, inst, (c0, c1, c2) = chain_context()
        rev = _designated_by_cid(ctx)
        for item in ("a", "b", "c", "d"):
            ctx.tree.assign_item(c0, item)
        assert _cutoff_marginal_gain(ctx, "zz", c0, rev) < 0


class TestEndToEndAssignment:
    def test_greedy_prioritizes_gain_factor(self):
        """The heavier, closer-to-covered set receives duplicates first."""
        inst = make_instance(
            [{"a", "b"}, {"a", "c", "d", "e"}],
            weights=[5.0, 1.0],
        )
        tree = CategoryTree()
        ctx = BuildContext(
            tree=tree, instance=inst, variant=Variant.threshold_jaccard(0.5)
        )
        for q in inst:
            cat = tree.add_category((), label=f"q{q.sid}")
            ctx.designated[q.sid] = cat
            ctx.target_sets[cat.cid] = q.items
        duplicates = assign_safe_items(ctx, inst.sets)
        assert duplicates == {"a"}
        assign_duplicates(ctx, inst.sets, duplicates)
        # q0 (weight 5, gap 1 after 'b') outranks q1; 'a' goes to C(q0).
        assert "a" in ctx.designated[0].items
        tree.validate(universe=inst.universe)


def random_tree_context(seed, n_sets=12, n_items=40, n_cats=10):
    """A random tree whose categories hold random items, with every
    input set designated to a random category."""
    rng = make_rng(seed)
    universe = [f"i{k}" for k in range(n_items)]
    inst = make_instance(
        [rng.sample(universe, rng.randint(1, 12)) for _ in range(n_sets)]
    )
    tree = CategoryTree()
    cats = []
    for k in range(n_cats):
        parent = rng.choice(cats) if cats and rng.random() < 0.7 else None
        cats.append(tree.add_category((), parent=parent, label=f"c{k}"))
    # Categories only ever hold items of the instance's universe.
    for item in sorted(inst.universe):
        if rng.random() < 0.6:
            tree.assign_item(rng.choice(cats), item)
    ctx = BuildContext(
        tree=tree,
        instance=inst,
        variant=Variant.threshold_jaccard(0.5),
        bitset=BitsetUniverse.from_instance(inst),
    )
    for q in inst.sets:
        ctx.designated[q.sid] = rng.choice(cats)
    return ctx, inst


class TestCoverIntersections:
    @pytest.mark.parametrize("seed", range(5))
    def test_batched_matches_per_set_intersections(self, seed):
        ctx, inst = random_tree_context(seed)
        pending = [q for q in inst.sets if q.sid % 3 != 1]
        expected = {
            q.sid: len(ctx.designated[q.sid].items & q.items) for q in pending
        }
        assert _cover_intersections(ctx, pending) == expected

    def test_no_kernel_or_nothing_pending(self):
        ctx, inst = random_tree_context(7)
        assert _cover_intersections(ctx, []) is None
        ctx.bitset = None
        assert _cover_intersections(ctx, list(inst.sets)) is None
