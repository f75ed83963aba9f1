"""Set-based 2-conflict classification: the oracle for ``compute_pairwise``.

Intersecting pairs are counted through the per-item inverted index
(``OCTInstance.sets_containing``) and each pair is classified by the
scalar closed forms of :mod:`repro.conflicts.pairwise`, one Python call
per pair. :func:`repro.conflicts.two_conflicts.compute_pairwise` must
return an identical :class:`PairwiseAnalysis` on every instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.conflicts.pairwise import can_cover_separately, can_cover_together
from repro.conflicts.ranking import Ranking, rank_sets
from repro.conflicts.two_conflicts import PairwiseAnalysis
from repro.core.input_sets import InputSet, OCTInstance
from repro.core.variants import Variant


def _intersection_counts(
    instance: OCTInstance,
) -> dict[tuple[int, int], list[int]]:
    """``{(sid_a, sid_b): [shared, shared_with_bound_1]}`` for sid_a < sid_b."""
    counts: dict[tuple[int, int], list[int]] = {}
    for item, sets in instance.sets_containing().items():
        if len(sets) < 2:
            continue
        bound_one = instance.bound(item) == 1
        sids = sorted(q.sid for q in sets)
        for i, a in enumerate(sids):
            for b in sids[i + 1 :]:
                entry = counts.get((a, b))
                if entry is None:
                    entry = counts[(a, b)] = [0, 0]
                entry[0] += 1
                if bound_one:
                    entry[1] += 1
    return counts


@dataclass(frozen=True)
class _PairJob:
    """Classification job for one intersecting pair."""

    upper_sid: int
    lower_sid: int
    shared: int
    shared_bound1: int


def _classify_pair(
    variant: Variant,
    upper: InputSet,
    lower: InputSet,
    delta_upper: float,
    delta_lower: float,
    job: _PairJob,
) -> tuple[bool, bool]:
    """(can_separately, can_together) for one pair."""
    separately = can_cover_separately(
        variant, upper, lower, delta_upper, delta_lower,
        shared_bound1=job.shared_bound1,
    )
    together = can_cover_together(
        variant, upper, lower, delta_upper, delta_lower,
        intersection=job.shared,
    )
    return separately, together


def _classify_chunk(
    instance: OCTInstance, variant: Variant, jobs: list[_PairJob]
) -> list[tuple[bool, bool]]:
    results = []
    for job in jobs:
        upper = instance.get(job.upper_sid)
        lower = instance.get(job.lower_sid)
        delta_upper = instance.effective_threshold(upper, variant.delta)
        delta_lower = instance.effective_threshold(lower, variant.delta)
        results.append(
            _classify_pair(variant, upper, lower, delta_upper, delta_lower, job)
        )
    return results


def _compute_pairwise_sets(
    instance: OCTInstance,
    variant: Variant,
    ranking: Ranking,
) -> PairwiseAnalysis:
    """Reference path: per-item inverted index + scalar closed forms."""
    analysis = PairwiseAnalysis(ranking=ranking)
    jobs: list[_PairJob] = []
    for (a, b), (shared, shared_b1) in _intersection_counts(instance).items():
        upper_sid, lower_sid = analysis.key(a, b)
        jobs.append(_PairJob(upper_sid, lower_sid, shared, shared_b1))

    outcomes = _classify_chunk(instance, variant, jobs)

    for job, (separately, together) in zip(jobs, outcomes):
        pair = (job.upper_sid, job.lower_sid)
        analysis.intersections[pair] = job.shared
        if separately:
            analysis.can_separately.add(pair)
        if together and not separately:
            analysis.must_together.add(pair)
        if not separately and not together:
            analysis.conflicts.add(pair)
    return analysis


def oracle_pairwise(
    instance: OCTInstance, variant: Variant, ranking: Ranking | None = None
) -> PairwiseAnalysis:
    """The oracle with ``compute_pairwise``'s calling convention."""
    return _compute_pairwise_sets(
        instance, variant, ranking or rank_sets(instance)
    )
