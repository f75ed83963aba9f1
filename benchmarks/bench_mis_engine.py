"""Conflict-resolution engine: kernelized bitset MIS vs the pre-PR engine.

Two experiments, both written to ``benchmarks/BENCH_mis.json``:

1. **Stage speedup** (Figure 8f series, perfect-recall:0.6 — the variant
   whose dense must-together relation makes 3-conflict enumeration and
   the hypergraph MIS the dominant stage): the full conflict-resolution
   stage (triple enumeration + hypergraph build + MIS solve) under the
   current engine (bitset enumeration, hypergraph kernelization, greedy
   warm start, bitset branch-and-bound) against the pre-PR baseline
   (nested-loop enumeration, counter-based branch-and-bound, no
   reductions, shared declining budget) — inlined below verbatim so the
   comparison stays honest as the engine evolves. The largest instance
   must show at least a 3x speedup.

2. **Cache hit rate** (Figure 8g robustness protocol): a fine threshold
   sweep around the taxonomists' preferred delta = 0.8 on dataset C with
   the component memo-cache enabled. Fine grids mostly do not cross
   classification boundaries between adjacent deltas, so consecutive
   sweep points re-solve identical conflict components; the cache must
   serve more than half of all component solves.

``--tiny`` runs a seconds-scale version of both experiments (small
instances, coarse sweep, no thresholds asserted) so CI can keep the
harness from rotting.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(_ROOT))

from benchmarks.common import bench_report, write_bench_json
from benchmarks.conftest import instance_for
from repro.algorithms import CTCR, CTCRConfig
from repro.conflicts.ranking import rank_sets
from repro.conflicts.three_conflicts import compute_three_conflicts
from repro.conflicts.two_conflicts import compute_pairwise
from repro.core import Variant
from repro.evaluation import threshold_sweep
from repro.mis import MISConfig
from repro.mis.cache import clear_mis_cache, get_mis_cache
from repro.mis.exact import BudgetExceededError
from repro.mis.hypergraph_mis import (
    WeightedHypergraph,
    _subhypergraph,
    greedy_hypergraph_mis,
    solve_hypergraph_mis,
)
from tests.oracles import _three_conflicts_reference

STAGE_VARIANT = Variant.perfect_recall(0.6)

# (label, dataset, load kwargs, timing repetitions)
SERIES = [
    ("A", "A", {}, 3),
    ("B", "B", {}, 3),
    ("C", "C", {}, 3),
    ("D", "D", {}, 2),
    ("D-large", "D", {"scale": 0.02}, 1),
]
TINY_SERIES = SERIES[:2]
MIN_SPEEDUP_LARGEST = 3.0

# Figure 8g sweep: threshold Jaccard on C, fine grid around delta = 0.8.
SWEEP_BASE = Variant.threshold_jaccard(0.8)
SWEEP_DELTAS = [round(0.75 + 0.005 * i, 4) for i in range(31)]
TINY_SWEEP_DELTAS = [round(0.78 + 0.02 * i, 4) for i in range(5)]
MIN_CACHE_HIT_RATE = 0.5


# -- pre-PR engine, inlined as the fixed baseline --------------------------


class _LegacyHyperBranchAndBound:
    """The counter-based branch-and-bound this PR replaced (verbatim)."""

    def __init__(self, hg: WeightedHypergraph, node_budget: int) -> None:
        self.hg = hg
        self.node_budget = node_budget
        self.nodes_used = 0
        self.order = sorted(
            hg.vertices, key=lambda v: (-hg.weights[v], str(v))
        )
        self.suffix = [0.0] * (len(self.order) + 1)
        for i in range(len(self.order) - 1, -1, -1):
            self.suffix[i] = self.suffix[i + 1] + max(
                0.0, hg.weights[self.order[i]]
            )
        self.incidence = hg.incidence()
        self.chosen_count = [0] * len(hg.edges)
        self.excluded_count = [0] * len(hg.edges)
        self.best_weight = -1.0
        self.best_set: set = set()
        self.current: set = set()
        self.current_weight = 0.0

    def solve(self) -> set:
        self._recurse(0)
        return self.best_set

    def _recurse(self, index: int) -> None:
        self.nodes_used += 1
        if self.nodes_used > self.node_budget:
            raise BudgetExceededError(
                f"hypergraph MIS exceeded {self.node_budget} nodes"
            )
        if self.current_weight > self.best_weight:
            self.best_weight = self.current_weight
            self.best_set = set(self.current)
        if index == len(self.order):
            return
        if self.current_weight + self.suffix[index] <= self.best_weight:
            return
        v = self.order[index]

        violating = any(
            self.chosen_count[e] == len(self.hg.edges[e]) - 1
            and self.excluded_count[e] == 0
            for e in self.incidence[v]
        )
        if not violating:
            self.current.add(v)
            self.current_weight += self.hg.weights[v]
            for e in self.incidence[v]:
                self.chosen_count[e] += 1
            self._recurse(index + 1)
            self.current.remove(v)
            self.current_weight -= self.hg.weights[v]
            for e in self.incidence[v]:
                self.chosen_count[e] -= 1

        for e in self.incidence[v]:
            self.excluded_count[e] += 1
        self._recurse(index + 1)
        for e in self.incidence[v]:
            self.excluded_count[e] -= 1


def _legacy_solve_hypergraph_mis(
    hg: WeightedHypergraph,
    node_budget: int = 500_000,
    exact: bool = True,
    max_exact_component: int = 2000,
) -> set:
    """Pre-PR solve loop: no kernelization, shared declining budget."""
    needed_depth = len(hg.vertices) + 100
    if sys.getrecursionlimit() < needed_depth:
        sys.setrecursionlimit(needed_depth)
    solution: set = set()
    remaining = node_budget
    for component in sorted(hg.connected_components(), key=len):
        sub = _subhypergraph(hg, component)
        if not sub.edges:
            solution |= component
            continue
        attempt_exact = (
            exact and remaining > 0 and len(component) <= max_exact_component
        )
        if attempt_exact:
            solver = _LegacyHyperBranchAndBound(sub, remaining)
            try:
                solution |= solver.solve()
                remaining -= solver.nodes_used
                continue
            except BudgetExceededError:
                remaining = 0
        solution |= greedy_hypergraph_mis(sub)
    return solution


# -- experiment 1: conflict-resolution stage speedup -----------------------


def _build_hypergraph(instance, analysis, triples) -> WeightedHypergraph:
    return WeightedHypergraph(
        vertices=[q.sid for q in instance],
        weights={q.sid: q.weight for q in instance},
        edges=[frozenset(e) for e in analysis.conflicts]
        + [frozenset(e) for e in triples],
    )


def _time(fn, reps: int) -> float:
    # Best-of-reps: the minimum is the noise-robust estimator for
    # benchmarks (preemption and frequency scaling only add time).  The
    # differential guards in _stage_row already serve as the warmup.
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _stage_row(label: str, name: str, kwargs: dict, reps: int) -> dict:
    instance = instance_for(name, STAGE_VARIANT, **kwargs)
    ranking = rank_sets(instance)
    analysis = compute_pairwise(instance, STAGE_VARIANT, ranking)

    def legacy_stage() -> tuple[set, float]:
        triples = _three_conflicts_reference(analysis)
        hg = _build_hypergraph(instance, analysis, triples)
        selected = _legacy_solve_hypergraph_mis(hg)
        return selected, hg.weight_of(selected)

    def engine_stage() -> tuple[set, float]:
        triples = compute_three_conflicts(analysis)
        hg = _build_hypergraph(instance, analysis, triples)
        selected = solve_hypergraph_mis(hg)
        return selected, hg.weight_of(selected)

    # Differential guards before timing: identical triples, and the new
    # engine never selects less weight (the legacy engine may have
    # greedy-degraded after exhausting its shared budget).
    ref_triples = _three_conflicts_reference(analysis)
    new_triples = compute_three_conflicts(analysis)
    assert ref_triples == new_triples, f"triple enumeration differs on {label}"
    _, legacy_weight = legacy_stage()
    _, engine_weight = engine_stage()
    assert engine_weight >= legacy_weight - 1e-9, (
        f"engine lost weight on {label}: {engine_weight} < {legacy_weight}"
    )

    t_legacy = _time(legacy_stage, reps)
    t_engine = _time(engine_stage, reps)
    return {
        "instance": label,
        "sets": len(instance),
        "three_conflicts": len(new_triples),
        "legacy_s": round(t_legacy, 4),
        "engine_s": round(t_engine, 4),
        "speedup": round(t_legacy / t_engine, 2),
    }


# -- experiment 2: memo-cache hit rate on the Figure 8g sweep --------------


def _sweep_once(instance, deltas, use_cache: bool) -> float:
    clear_mis_cache()
    builder = CTCR(CTCRConfig(mis=MISConfig(use_cache=use_cache)))
    start = time.perf_counter()
    threshold_sweep(builder, instance, SWEEP_BASE, deltas)
    return time.perf_counter() - start


def _cache_experiment(deltas: list[float]) -> dict:
    instance = instance_for("C", SWEEP_BASE)
    seconds_off = _sweep_once(instance, deltas, use_cache=False)
    seconds_on = _sweep_once(instance, deltas, use_cache=True)
    cache = get_mis_cache()
    total = cache.hits + cache.misses
    return {
        "dataset": "C",
        "variant_family": "threshold-jaccard",
        "points": len(deltas),
        "delta_range": [deltas[0], deltas[-1]],
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": round(cache.hits / total, 4) if total else 0.0,
        "sweep_seconds_cache_off": round(seconds_off, 2),
        "sweep_seconds_cache_on": round(seconds_on, 2),
    }


def run(tiny: bool = False) -> dict:
    series = TINY_SERIES if tiny else SERIES
    rows = [
        _stage_row(label, name, kwargs, 1 if tiny else reps)
        for label, name, kwargs, reps in series
    ]
    sweep = _cache_experiment(TINY_SWEEP_DELTAS if tiny else SWEEP_DELTAS)

    bench_report(
        "MIS engine — conflict-resolution stage, pre-PR vs kernelized bitset",
        "stage >= 3x on the largest instance; sweep cache hit rate > 50%",
        [
            "instance", "sets", "3-conflicts",
            "legacy s", "engine s", "speedup",
        ],
        [
            [
                r["instance"], r["sets"], r["three_conflicts"],
                r["legacy_s"], r["engine_s"], r["speedup"],
            ]
            for r in rows
        ]
        + [
            [
                "8g sweep", f"{sweep['points']} pts",
                f"hit rate {sweep['hit_rate']:.0%}",
                sweep["sweep_seconds_cache_off"],
                sweep["sweep_seconds_cache_on"],
                "-",
            ]
        ],
    )

    payload = {
        "mode": "tiny" if tiny else "full",
        "stage_variant": "perfect-recall:0.6",
        "stage_rows": rows,
        "largest": {
            "instance": rows[-1]["instance"],
            "speedup": rows[-1]["speedup"],
            "min_required": MIN_SPEEDUP_LARGEST,
        },
        "cache_sweep": {**sweep, "min_required": MIN_CACHE_HIT_RATE},
    }
    # Tiny mode gets its own file so CI smoke runs never clobber the
    # committed full-mode numbers.
    write_bench_json("mis_tiny" if tiny else "mis", payload)

    if not tiny:
        assert rows[-1]["speedup"] >= MIN_SPEEDUP_LARGEST, (
            f"stage speedup {rows[-1]['speedup']}x on {rows[-1]['instance']} "
            f"below {MIN_SPEEDUP_LARGEST}x"
        )
        assert sweep["hit_rate"] > MIN_CACHE_HIT_RATE, (
            f"cache hit rate {sweep['hit_rate']:.0%} below "
            f"{MIN_CACHE_HIT_RATE:.0%}"
        )
    return payload


def test_mis_engine_speedup(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small instances, coarse sweep, no threshold assertions",
    )
    args = parser.parse_args(argv)
    run(tiny=args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
