"""In-process replay of the served request stream: the output oracle and
the engine/encode layers of the request path.

Each recorded reply is answered again by a ``ServingEngine`` built from
the snapshot the server said it used (``X-Repro-Snapshot``), with the
CLI's defaults, and the expected JSON body is rebuilt the way the HTTP
frontend builds it. The reply must be a 200 whose JSON equals it. The
time spent inside the engine call and in ``json.dumps`` of the answer
are the ``engine`` and ``encode`` layers; the rest of the client's
latency is the HTTP residual (socket, parse, dispatch, write).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

CACHE_SIZE = 4096  # `repro serve --cache-size` default


def expected_payload(engine, op: str, arg):
    """The JSON document the HTTP frontend replies with for one read."""
    if op == "categorize":
        return {"item": arg, "placements": engine.categorize_item(arg)}
    if op == "categorize_batch":
        items = list(arg)
        return {"items": items, "results": engine.categorize_items(items)}
    if op == "best_category":
        items = frozenset(arg)
        best = engine.best_category(items)
        return {
            "items": sorted(items),
            "covered": best is not None,
            "best": None
            if best is None
            else {
                "cid": best.cid,
                "label": best.label,
                "score": best.score,
                "precision": best.precision,
                "depth": best.depth,
            },
        }
    if op == "browse":
        return engine.browse(arg)
    if op == "path":
        return {"cid": arg, "path": engine.path_to_root(arg)}
    if op == "search":
        return {"q": arg, "hits": engine.find_categories(arg, 10)}
    if op == "categorize_query":
        return engine.categorize_query(arg)
    raise ValueError(f"unknown op {op!r}")


@dataclass
class Answer:
    engine_s: float
    encode_s: float
    ok: bool
    problem: str = ""


class Replayer:
    """One engine per snapshot id, loaded lazily from the store."""

    def __init__(self, store_root) -> None:
        from repro.serving import SnapshotStore

        self.store = SnapshotStore(store_root)
        self.engines: dict = {}
        self.prepare_s: list[float] = []

    def engine(self, snapshot_id: str):
        from repro.serving import ServingEngine

        engine = self.engines.get(snapshot_id)
        if engine is None:
            engine = ServingEngine.from_snapshot(
                self.store.load(snapshot_id), cache_size=CACHE_SIZE
            )
            self.engines[snapshot_id] = engine
        return engine

    def swap(self, snapshot_id: str) -> None:
        """Hot-swap that snapshot's engine to a fresh generation of it, as
        the server does on ``/admin/swap``, timing ``swap_from_store``."""
        from repro.serving import HotSwapper

        swapper = HotSwapper(self.engine(snapshot_id))
        t0 = time.perf_counter()
        swapper.swap_from_store(self.store, snapshot_id)
        self.prepare_s.append(time.perf_counter() - t0)

    def answer(self, request, snapshot_id: str, body: bytes) -> Answer:
        """Replay one read and compare it with the server's 200 reply."""
        engine = self.engine(snapshot_id)
        t0 = time.perf_counter()
        payload = expected_payload(engine, request.op, request.arg)
        t1 = time.perf_counter()
        encoded = json.dumps(payload).encode("utf-8")
        encode_s = time.perf_counter() - t1
        if encoded == body:
            return Answer(t1 - t0, encode_s, True)
        try:
            served = json.loads(body)
        except ValueError:
            return Answer(t1 - t0, encode_s, False, "reply is not JSON")
        if served != json.loads(encoded):
            return Answer(t1 - t0, encode_s, False, "reply differs from replay")
        return Answer(t1 - t0, encode_s, True)
