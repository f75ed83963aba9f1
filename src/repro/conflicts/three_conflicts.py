"""Enumeration of 3-conflicts (Algorithm 1, line 6; paper Section 3.2).

A triplet ``{q1, q2, q3}`` is a 3-conflict when ``{q1,q2}`` and
``{q2,q3}`` must each be covered together, ``q2`` is *not* the
lowest-ranked (largest) of the three — otherwise its category would
simply be an ancestor of both others' — and ``{q1,q3}`` is not itself a
must-together pair. If ``{q1,q3}`` is already a 2-conflict the triplet is
redundant and skipped: the 2-conflict alone forbids the co-selection.

Resolving 3-conflicts guarantees that any two categories placed on the
same branch correspond to sets that must be covered together, mirroring
the structural property the Exact variant enjoys by definition.

The enumeration runs on packed int bitsets (:mod:`repro.core.bitset`):
every set's must-together neighbourhood becomes one bitset row indexed
by rank, and the candidate "third" vertices for a ``(middle, first)``
seed are a single AND of the middle's adjacency row against a
higher-rank window minus the first's blocked row. The work is therefore
output-sensitive — pairs filtered by the must-together / 2-conflict
rules are masked out wholesale instead of being visited and rejected one
Python comparison at a time. ``tests/oracles/three_conflicts.py`` keeps
the original nested-loop formulation as the differential oracle (and the
pre-kernel baseline for ``benchmarks/bench_mis_engine.py``).
"""

from __future__ import annotations

from repro.conflicts.two_conflicts import PairwiseAnalysis
from repro.core.bitset import iter_bits
from repro.observability import get_tracer

Triple = tuple[int, int, int]


def compute_three_conflicts(analysis: PairwiseAnalysis) -> set[Triple]:
    """All 3-conflicts implied by the must-together relation.

    Returned triples are sorted by rank (best-ranked first) so each
    conflict has one canonical representation.
    """
    with get_tracer().span("conflicts.three"):
        return _compute_three_conflicts(analysis)


def _compute_three_conflicts(analysis: PairwiseAnalysis) -> set[Triple]:
    """Bitset kernel: intersect must-together adjacency rows per middle."""
    ranking = analysis.ranking
    conflicts: set[Triple] = set()
    if not analysis.must_together:
        get_tracer().count("conflicts.three_conflicts", 0)
        return conflicts

    # Bit position == rank index, so "ranked after X" is one mask window
    # and a triple's canonical (rank-sorted) order is its bit order.
    rank_of = ranking.rank_of
    pos_of = {q.sid: rank_of[q.sid] - 1 for q in ranking.ordered}
    sid_at = [q.sid for q in ranking.ordered]  # position -> sid

    # Must-together adjacency rows, plus per-vertex "blocked third" rows:
    # a (first, third) pair that is itself must-together or a 2-conflict
    # never forms a triple, so those bits are stripped before iterating.
    must_rows: dict[int, int] = {}
    blocked_rows: dict[int, int] = {}
    for upper, lower in analysis.must_together:
        up, lp = pos_of[upper], pos_of[lower]
        must_rows[up] = must_rows.get(up, 0) | (1 << lp)
        must_rows[lp] = must_rows.get(lp, 0) | (1 << up)
        blocked_rows[up] = blocked_rows.get(up, 0) | (1 << lp)
        blocked_rows[lp] = blocked_rows.get(lp, 0) | (1 << up)
    for upper, lower in analysis.conflicts:
        up, lp = pos_of[upper], pos_of[lower]
        blocked_rows[up] = blocked_rows.get(up, 0) | (1 << lp)
        blocked_rows[lp] = blocked_rows.get(lp, 0) | (1 << up)

    for m_pos, neighbors in must_rows.items():
        # ``first`` must rank strictly before the middle; thirds rank
        # after first, so a middle seeds pairs only below its position.
        firsts = neighbors & ((1 << m_pos) - 1)
        if not firsts:
            continue
        for f_pos in iter_bits(firsts):
            candidates = (
                neighbors
                & ~((1 << (f_pos + 1)) - 1)
                & ~blocked_rows.get(f_pos, 0)
            )
            # The middle's own bit is never in its adjacency row, so
            # every candidate is a genuine distinct third vertex.
            for t_pos in iter_bits(candidates):
                if m_pos < t_pos:
                    triple = (sid_at[f_pos], sid_at[m_pos], sid_at[t_pos])
                else:
                    triple = (sid_at[f_pos], sid_at[t_pos], sid_at[m_pos])
                conflicts.add(triple)
    get_tracer().count("conflicts.three_conflicts", len(conflicts))
    return conflicts
