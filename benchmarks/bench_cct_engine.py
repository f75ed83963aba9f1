"""CCT engine: bitset embeddings + NN-chain clustering vs the pre-PR path.

Three experiments, all written to ``benchmarks/BENCH_cct.json``:

1. **Embedding-stage speedup** (Figure 8f series, threshold-jaccard:0.8
   — the scalability protocol's variant): ``set_embeddings`` under the
   packed-bitset kernel (output-sensitive ``intersecting_pairs`` +
   vectorized similarity derivation) against the pre-kernel pure-Python
   double loop, the oracle kept verbatim in ``tests/oracles`` so the
   comparison stays honest as the engine evolves. The matrices are
   asserted bit-identical
   before timing, and the largest instance must show at least a 3x
   speedup.

2. **Clustering-engine comparison**: the nearest-neighbor-chain
   agglomeration against the legacy greedy global-minimum loop (the
   oracle in ``tests/oracles``) over the same embedding matrix (reported, not asserted — both are O(n²)
   *expected*; the chain's win is its worst-case guarantee and the
   absence of per-step global scans).

3. **Sweep cache hit rate** (Figure 8g/8h protocol): a fine threshold
   sweep around delta = 0.8 with the embedding cache enabled. The
   pairwise intersection counts are variant- and δ-independent, so
   every sweep point after the first replays them; the cache must
   serve more than half of all embedding builds.

``--tiny`` runs a seconds-scale version of all three (small instances,
coarse sweep, no thresholds asserted) so CI can keep the harness from
rotting.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:  # allow `python benchmarks/bench_...py`
    sys.path.insert(0, str(_ROOT))

import numpy as np

from benchmarks.common import bench_report, write_bench_json
from benchmarks.conftest import instance_for
from repro.algorithms import CCT, CCTConfig, clear_embedding_cache, set_embeddings
from repro.algorithms.cct_cache import get_embedding_cache
from repro.clustering import agglomerative_clustering
from repro.core import Variant
from repro.evaluation import threshold_sweep
from tests.oracles import _set_embeddings_reference, legacy_clustering

STAGE_VARIANT = Variant.threshold_jaccard(0.8)

# (label, dataset, load kwargs, timing repetitions)
SERIES = [
    ("A", "A", {}, 5),
    ("B", "B", {}, 5),
    ("C", "C", {}, 5),
    ("D", "D", {}, 3),
    ("D-large", "D", {"scale": 0.02}, 3),
]
TINY_SERIES = SERIES[:2]
MIN_SPEEDUP_LARGEST = 3.0

# Figure 8g/8h sweep: threshold Jaccard, fine grid around delta = 0.8.
SWEEP_BASE = Variant.threshold_jaccard(0.8)
SWEEP_DELTAS = [round(0.75 + 0.005 * i, 4) for i in range(31)]
TINY_SWEEP_DELTAS = [round(0.78 + 0.02 * i, 4) for i in range(5)]
MIN_CACHE_HIT_RATE = 0.5


def _time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- experiment 1: embedding-stage speedup ----------------------------------


def _stage_row(label: str, name: str, kwargs: dict, reps: int) -> dict:
    instance = instance_for(name, STAGE_VARIANT, **kwargs)

    def legacy_stage() -> np.ndarray:
        return _set_embeddings_reference(instance, STAGE_VARIANT)

    def engine_stage() -> np.ndarray:
        return set_embeddings(instance, STAGE_VARIANT)

    # Differential guard before timing: the engines must agree bit for
    # bit, otherwise the speedup compares different computations.
    assert np.array_equal(legacy_stage(), engine_stage()), (
        f"embedding engines disagree on {label}"
    )

    t_legacy = _time(legacy_stage, reps)
    t_engine = _time(engine_stage, reps)
    return {
        "instance": label,
        "sets": len(instance),
        "items": len(instance.universe),
        "legacy_s": round(t_legacy, 4),
        "engine_s": round(t_engine, 4),
        "speedup": round(t_legacy / t_engine, 2),
    }


# -- experiment 2: clustering engines over the same embeddings --------------


def _cluster_row(label: str, name: str, kwargs: dict, reps: int) -> dict:
    instance = instance_for(name, STAGE_VARIANT, **kwargs)
    embeddings = set_embeddings(instance, STAGE_VARIANT)

    chain = agglomerative_clustering(embeddings)
    greedy = legacy_clustering(embeddings)
    # Same merge topology (engines only reorder tied merges; the Figure
    # 8f instances are tie-free at this variant).
    chain_sets = sorted(
        tuple(chain.leaves_under(m.node_id)) for m in chain.merges
    )
    greedy_sets = sorted(
        tuple(greedy.leaves_under(m.node_id)) for m in greedy.merges
    )
    assert chain_sets == greedy_sets, f"cluster engines disagree on {label}"

    t_chain = _time(lambda: agglomerative_clustering(embeddings), reps)
    t_greedy = _time(
        lambda: legacy_clustering(embeddings), reps
    )
    return {
        "instance": label,
        "sets": len(instance),
        "legacy_s": round(t_greedy, 4),
        "nn_chain_s": round(t_chain, 4),
        "speedup": round(t_greedy / t_chain, 2),
    }


# -- experiment 3: embedding-cache hit rate on the sweep --------------------


def _sweep_once(instance, deltas, use_cache: bool) -> float:
    clear_embedding_cache()
    builder = CCT(CCTConfig(use_cache=use_cache))
    start = time.perf_counter()
    threshold_sweep(builder, instance, SWEEP_BASE, deltas)
    return time.perf_counter() - start


def _cache_experiment(dataset_name: str, deltas: list[float]) -> dict:
    instance = instance_for(dataset_name, SWEEP_BASE)
    seconds_off = _sweep_once(instance, deltas, use_cache=False)
    seconds_on = _sweep_once(instance, deltas, use_cache=True)
    cache = get_embedding_cache()
    total = cache.hits + cache.misses
    result = {
        "dataset": dataset_name,
        "variant_family": "threshold-jaccard",
        "points": len(deltas),
        "delta_range": [deltas[0], deltas[-1]],
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": round(cache.hits / total, 4) if total else 0.0,
        "sweep_seconds_cache_off": round(seconds_off, 2),
        "sweep_seconds_cache_on": round(seconds_on, 2),
    }
    clear_embedding_cache()
    return result


def run(tiny: bool = False) -> dict:
    series = TINY_SERIES if tiny else SERIES
    stage_rows = [
        _stage_row(label, name, kwargs, 1 if tiny else reps)
        for label, name, kwargs, reps in series
    ]
    cluster_rows = [
        _cluster_row(label, name, kwargs, 1 if tiny else reps)
        for label, name, kwargs, reps in series[-2:]
    ]
    sweep = _cache_experiment(
        "A" if tiny else "C", TINY_SWEEP_DELTAS if tiny else SWEEP_DELTAS
    )

    bench_report(
        "CCT engine — embedding stage, pure-Python loop vs bitset kernel",
        "embeddings >= 3x on the largest instance; sweep cache hit rate > 50%",
        ["instance", "sets", "items", "legacy s", "engine s", "speedup"],
        [
            [
                r["instance"], r["sets"], r["items"],
                r["legacy_s"], r["engine_s"], r["speedup"],
            ]
            for r in stage_rows
        ]
        + [
            [
                f"cluster {r['instance']}", r["sets"], "-",
                r["legacy_s"], r["nn_chain_s"], r["speedup"],
            ]
            for r in cluster_rows
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
        "stage_variant": "threshold-jaccard:0.8",
        "stage_rows": stage_rows,
        "cluster_rows": cluster_rows,
        "largest": {
            "instance": stage_rows[-1]["instance"],
            "speedup": stage_rows[-1]["speedup"],
            "min_required": MIN_SPEEDUP_LARGEST,
        },
        "cache_sweep": {**sweep, "min_required": MIN_CACHE_HIT_RATE},
    }
    # Tiny mode gets its own file so CI smoke runs never clobber the
    # committed full-mode numbers.
    write_bench_json("cct_tiny" if tiny else "cct", payload)

    if not tiny:
        assert stage_rows[-1]["speedup"] >= MIN_SPEEDUP_LARGEST, (
            f"embedding speedup {stage_rows[-1]['speedup']}x on "
            f"{stage_rows[-1]['instance']} below {MIN_SPEEDUP_LARGEST}x"
        )
        assert sweep["hit_rate"] > MIN_CACHE_HIT_RATE, (
            f"cache hit rate {sweep['hit_rate']:.0%} below "
            f"{MIN_CACHE_HIT_RATE:.0%}"
        )
    return payload


def test_cct_engine_speedup(benchmark):
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
