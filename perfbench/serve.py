"""The serving stage: start ``repro serve``, drive it, check every reply."""

from __future__ import annotations

import os
import time
from pathlib import Path

from common import median, nproc, pct
from loadgen import check_concurrency, closed_loop, get_json, open_ladder
from replay import Replayer
from server import ServerProcess
from streams import Pools, Stream

# The swap phase: back-to-back hot swaps, with reads beside them, at
# least SWAPS times and for at least SWAP_PHASE_S seconds.
SWAPS = 3
SWAP_PHASE_S = 1.0
SERVER_STARTS = 3  # set-up repetitions of the server start
OPS = (
    "best_category", "categorize", "categorize_batch", "categorize_query",
    "browse", "path", "search",
)


def _split(seconds: float) -> tuple[float, float, float]:
    """Warm-up, closed-loop and ladder shares of the serving time (the
    swap phase lasts as long as its swaps take)."""
    return 0.05 * seconds, 0.45 * seconds, 0.5 * seconds


def _check_generations(keepalive: list, fresh: list) -> list:
    """Samples whose X-Repro-Generation moved backwards.

    On one keep-alive connection generations never decrease, and a read
    sent after a swap reply never sees an older generation than the one
    that swap published.
    """
    swaps = [s for s in keepalive if s.kind == "swap" and s.ok]
    fresh_ids = {id(s) for s in fresh}
    bad = []
    last_on_conn: dict[int, int] = {}
    for s in sorted(keepalive, key=lambda s: s.sent) + fresh:
        if not s.ok:
            continue
        floor = max((w.generation for w in swaps if w.done <= s.sent), default=0)
        if id(s) in fresh_ids:
            previous = 0
        else:
            previous = last_on_conn.get(s.conn, 0)
            last_on_conn[s.conn] = s.generation
        if s.generation < max(floor, previous):
            bad.append(s)
    return bad


def serve_stage(workload, store_root: Path, snapshot_ids: list[str], seconds: float,
                seed: int, trace: bool, work: Path, server_factory=None) -> dict:
    """Serve the first snapshot under the workload's traffic; metrics,
    per-layer numbers (traced runs) and every failed check."""
    from repro.serving import SnapshotStore

    make_server = server_factory or ServerProcess
    store = SnapshotStore(store_root)
    store.activate(snapshot_ids[0])
    loaded = {sid: store.load(sid) for sid in dict.fromkeys(snapshot_ids)}
    common = set.intersection(
        *({cat.cid for cat in snap.tree.categories()} for snap in loaded.values())
    )
    stream = Stream(workload.mix, Pools(loaded[snapshot_ids[0]], seed, common), seed)
    del loaded
    conns = check_concurrency(min(2, nproc()))
    warm_s, closed_s, ladder_s = _split(seconds)
    swaps = snapshot_ids[1:] + snapshot_ids[:1]

    # Server start is part of set-up: every start is timed, and all but
    # the last are stopped again; the last one serves.
    starts = []
    for _ in range(SERVER_STARTS - 1):
        server = make_server(store_root, work / "server.log")
        try:
            starts.append(server.start())
        finally:
            server.stop()
    server = make_server(store_root, work / "server.log")
    try:
        starts.append(server.start())
        warm = closed_loop(server.port, stream, warm_s, conns)
        t0 = time.perf_counter()
        closed = closed_loop(server.port, stream, closed_s, conns)
        closed_wall = time.perf_counter() - t0
        swapping = closed_loop(
            server.port, stream, SWAP_PHASE_S, conns, swaps=swaps, min_swaps=SWAPS
        )
        # Server and client CPU are read over the ladder, which has no
        # swaps and enough requests for the 10 ms tick to vanish.
        server0, client0, t1 = server.cpu_s(), os.times(), time.perf_counter()
        climbs, rate_ok_rps = open_ladder(server.port, stream, ladder_s, conns)
        ladder_wall = time.perf_counter() - t1
        client1, server_cpu = os.times(), server.cpu_s() - server0
        _status, server_stats = get_json(server.port, "/stats")
        server_rss = server.rss_mb()
    finally:
        server.stop()

    swap_samples = [s for s in swapping if s.kind == "swap"]
    beside_swaps = [s for s in swapping if s.kind == "read"]
    rungs = [r for climb in climbs for r in climb]
    ladder = [s for r in rungs for s in r.samples]

    # Replay every reply in send order; a traced run also mirrors each
    # hot swap in-process to time HotSwapper.swap_from_store.
    replayer = Replayer(store_root)
    failures: list[str] = []
    engine_ms: dict[str, list[float]] = {op: [] for op in OPS}
    per_read: dict[int, tuple[float, float]] = {}
    closed_ids = {id(s) for s in closed}
    events = warm + closed + swapping + ladder
    for s in events:
        if s.kind == "swap":
            if not s.ok or s.snapshot != s.target:
                failures.append(f"swap to {s.target}: status {s.status} {s.error}")
            elif trace:
                replayer.swap(s.target)
            continue
        request = stream.requests[s.index]
        if not s.ok:
            failures.append(f"{request.target}: status {s.status} {s.error}")
            continue
        answer = replayer.answer(request, s.snapshot, s.body)
        if not answer.ok:
            failures.append(f"{request.target}: {answer.problem}")
        if id(s) in closed_ids:
            per_read[id(s)] = (answer.engine_s, answer.encode_s)
            engine_ms[request.op].append(answer.engine_s * 1e3)
    for s in _check_generations(warm + closed + swapping, ladder):
        failures.append(f"generation {s.generation} went backwards ({s.kind})")

    latencies = [s.latency_s * 1e3 for s in closed if s.ok]
    result = {
        "server_start_s": median(starts),
        "server_starts_s": starts,
        "conns": conns,
        "nproc": nproc(),
        "attempted": len(events),
        "failures": failures,
        "closed": {"seconds": closed_wall, "reads": len(closed)},
        "swapping": {
            "swaps_s": [s.latency_s for s in swap_samples],
            "reads_beside": len(beside_swaps),
        },
        "rate_ok_rps": rate_ok_rps,
        "swap_s": median(s.latency_s for s in swap_samples if s.ok),
        "ladder": [[r.to_dict() for r in climb] for climb in climbs],
        "metrics": {
            "rps": len(latencies) / closed_wall,
            "p50_ms": pct(latencies, 0.50),
            "p99_ms": pct(latencies, 0.99),
            "server_rss_mb": server_rss,
        },
        "cross_check": {
            "server_cache_hit_rate": server_stats["cache"]["hit_rate"],
            "server_engine_p50_ms": server_stats["latency"]["p50_ms"],
            "server_requests": server_stats["requests"],
        },
    }
    if not trace:
        return result

    engines = list(replayer.engines.values())
    hits = sum(e.stats()["cache"]["hits"] for e in engines)
    lookups = hits + sum(e.stats()["cache"]["misses"] for e in engines)
    engine_all = [e for e, _ in per_read.values()]
    encode_all = [c for _, c in per_read.values()]
    residual = [
        s.latency_s - per_read[id(s)][0] - per_read[id(s)][1]
        for s in closed
        if id(s) in per_read
    ]
    window = [
        s.latency_s * 1e3
        for s in beside_swaps
        if s.ok and any(s.sent < w.done and s.done > w.sent for w in swap_samples)
    ]
    passed = [s for r in rungs if r.passed for s in r.samples]
    client_cpu = (client1.user + client1.system) - (client0.user + client0.system)
    layers = {
        f"engine.{op}.{q}_ms": pct(engine_ms[op], p) if engine_ms[op] else 0.0
        for op in OPS
        for q, p in (("p50", 0.50), ("p99", 0.99))
    }
    layers.update({
        "rate_ok_rps": rate_ok_rps,
        "swap_s": result["swap_s"],
        "engine.cache_hit_rate": hits / lookups if lookups else 0.0,
        "engine.ops_per_s": len(engine_all) / sum(engine_all) if engine_all else 0.0,
        "http.encode_p50_ms": pct(encode_all, 0.5) * 1e3,
        "http.residual_p50_ms": pct(residual, 0.5) * 1e3,
        "http.residual_p99_ms": pct(residual, 0.99) * 1e3,
        "server.cpu_ms_per_req": server_cpu * 1e3 / max(len(ladder), 1),
        "hotswap.prepare_s": median(replayer.prepare_s),
        "hotswap.window_p99_ms": pct(window, 0.99),
        "loadgen.late_p99_ms": pct([s.sent - s.due for s in passed], 0.99) * 1e3,
        "loadgen.client_cpu_frac": client_cpu / ladder_wall,
    })
    result["layers"] = layers
    result["engine_p50_ms"] = pct(engine_all, 0.5) * 1e3
    result["cross_check"]["replay_cache_hit_rate"] = layers["engine.cache_hit_rate"]
    result["cross_check"]["replay_engine_p50_ms"] = result["engine_p50_ms"]
    return result
