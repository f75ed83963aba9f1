"""Nested-loop 3-conflict enumeration: the oracle for the bitset kernel.

:func:`repro.conflicts.three_conflicts.compute_three_conflicts` must
return exactly the triples this loop finds; it is also the pre-kernel
baseline that ``benchmarks/bench_mis_engine.py`` times.
"""

from __future__ import annotations

from repro.conflicts.three_conflicts import Triple
from repro.conflicts.two_conflicts import PairwiseAnalysis


def _three_conflicts_reference(analysis: PairwiseAnalysis) -> set[Triple]:
    """Pre-kernel nested-loop enumeration, kept as the differential oracle."""
    ranking = analysis.ranking
    adjacency = analysis.must_neighbors()
    conflicts: set[Triple] = set()
    for middle, neighbors in adjacency.items():
        if len(neighbors) < 2:
            continue
        ordered = sorted(neighbors, key=lambda sid: ranking.rank_of[sid])
        for i, first in enumerate(ordered):
            for third in ordered[i + 1 :]:
                # middle must not be the lowest-ranked (largest) of the three
                if ranking.rank_of[middle] < ranking.rank_of[first]:
                    continue
                if analysis.is_must_together(first, third):
                    continue
                if analysis.is_conflict(first, third):
                    continue
                triple = tuple(
                    sorted(
                        (first, middle, third),
                        key=lambda sid: ranking.rank_of[sid],
                    )
                )
                conflicts.add(triple)  # type: ignore[arg-type]
    return conflicts
