"""Determinism tests: identical inputs must yield identical trees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import CCT, CTCR, CTCRConfig
from repro.core import Variant, make_instance, score_tree
from repro.mis import MISConfig

instances = st.lists(
    st.tuples(
        st.sets(st.integers(0, 9), min_size=1, max_size=6),
        st.floats(min_value=0.1, max_value=5.0),
    ),
    min_size=1,
    max_size=6,
).map(
    lambda pairs: make_instance(
        [p[0] for p in pairs], weights=[p[1] for p in pairs]
    )
)

variants = st.sampled_from(
    [
        Variant.exact(),
        Variant.perfect_recall(0.6),
        Variant.threshold_jaccard(0.7),
        Variant.cutoff_f1(0.6),
    ]
)


class TestDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(instances, variants)
    def test_ctcr_repeatable(self, instance, variant):
        t1 = CTCR().build(instance, variant)
        t2 = CTCR().build(instance, variant)
        assert t1.to_text() == t2.to_text()

    @settings(max_examples=30, deadline=None)
    @given(instances, variants)
    def test_cct_repeatable(self, instance, variant):
        t1 = CCT().build(instance, variant)
        t2 = CCT().build(instance, variant)
        assert t1.to_text() == t2.to_text()

    @settings(max_examples=20, deadline=None)
    @given(instances, variants)
    def test_parallel_conflicts_same_score(self, instance, variant):
        s1 = score_tree(
            CTCR(CTCRConfig(mis=MISConfig(n_jobs=1))).build(instance, variant),
            instance,
            variant,
        ).total
        s2 = score_tree(
            CTCR(CTCRConfig(mis=MISConfig(n_jobs=2))).build(instance, variant),
            instance,
            variant,
        ).total
        assert abs(s1 - s2) < 1e-9


class TestDiagnostics:
    def test_c2_statistic_populated(self, figure2_instance):
        builder = CTCR()
        builder.build(figure2_instance, Variant.exact())
        diag = builder.last_diagnostics
        # degrees 2,0,2,2 with weights 2,1,1,1 over total weight 5:
        # (2*2 + 1*0 + 1*2 + 1*2) / 5 = 8/5.
        assert abs(diag.c2_weighted_avg - 8 / 5) < 1e-9

    def test_conflict_free_instance_has_zero_c2(self):
        inst = make_instance([{"a"}, {"b"}])
        builder = CTCR()
        builder.build(inst, Variant.exact())
        assert builder.last_diagnostics.c2_weighted_avg == 0.0
