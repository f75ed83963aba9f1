"""Seeded request streams owned by the benchmark.

A stream is drawn from a published snapshot's items, input sets and
categories with a seeded RNG, so the same seed and snapshot give the
same request sequence. Popularity is Zipf-skewed everywhere.

* ``storefront``: small point reads over a hot working set that fits
  the server's LRU cache (best-category 45%, categorize 30%, browse 15%,
  path 5%, search 5%).
* ``catalog``: cache-hostile reads over the whole catalog (best-category
  on whole query sets, 64-item categorize-batch, free-text
  categorize-query, some browse and path).
"""

from __future__ import annotations

import random
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from urllib.parse import quote

MIXES = {
    "storefront": (
        ("best_category", 0.45),
        ("categorize", 0.30),
        ("browse", 0.15),
        ("path", 0.05),
        ("search", 0.05),
    ),
    "catalog": (
        ("best_category", 0.30),
        ("categorize_batch", 0.30),
        ("categorize_query", 0.20),
        ("browse", 0.10),
        ("path", 0.10),
    ),
}

# Storefront working set: hot items and the items quoted per
# best-category request.
HOT_ITEMS = 2000
POINT_QUERY_ITEMS = 8
BATCH_ITEMS = 64


@dataclass(frozen=True)
class Request:
    """One read: the engine op, its argument, and the URL that asks it."""

    op: str
    arg: object  # item | tuple of items | sorted tuple | cid | text
    target: str


class Zipf:
    """Draw ranks 0..n-1 with P(r) proportional to 1/(r+1)^s."""

    def __init__(self, n: int, s: float) -> None:
        self.cum = list(accumulate((r + 1) ** -s for r in range(n)))

    def draw(self, rng: random.Random) -> int:
        return min(
            bisect_left(self.cum, rng.random() * self.cum[-1]), len(self.cum) - 1
        )


def _tokens(text: str) -> list[str]:
    return [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]


class Pools:
    """What requests may refer to, read off one loaded snapshot.

    ``cids`` keeps only the categories every swap target also has, so a
    browse or path read never asks for a category that a hot swap removed.
    """

    def __init__(self, loaded, seed: int, common_cids: set) -> None:
        rng = random.Random(seed)
        instance, tree = loaded.instance, loaded.tree
        self.items = sorted(instance.universe, key=str)
        rng.shuffle(self.items)  # popularity rank of each item
        by_weight = sorted(instance, key=lambda q: (-q.weight, q.sid))
        self.sets = [sorted(q.items, key=str) for q in by_weight]
        self.set_labels = [q.label for q in by_weight]
        cids = sorted(common_cids)
        rng.shuffle(cids)
        self.cids = cids
        counts: dict[str, int] = {}
        for cat in tree.categories():
            for token in _tokens(cat.label or ""):
                counts[token] = counts.get(token, 0) + 1
        self.tokens = sorted(counts, key=lambda t: (-counts[t], t)) or ["item"]


class Stream:
    """An endless, thread-safe, seeded request sequence."""

    def __init__(self, mix: str, pools: Pools, seed: int) -> None:
        self.mix = mix
        self.pools = pools
        self._rng = random.Random(seed * 7919 + 17)
        self._lock = threading.Lock()
        self._next = 0
        self.requests: list[Request] = []
        ops = MIXES[mix]
        self._ops = [op for op, _w in ops]
        self._op_cum = list(accumulate(w for _op, w in ops))
        p = pools
        if mix == "storefront":
            self._items = Zipf(min(HOT_ITEMS, len(p.items)), 1.0)
            self._sets = Zipf(len(p.sets), 1.0)
            self._cids = Zipf(len(p.cids), 1.0)
        else:
            self._items = Zipf(len(p.items), 0.8)
            self._sets = Zipf(len(p.sets), 0.8)
            self._cids = Zipf(len(p.cids), 0.8)
        self._tokens = Zipf(len(p.tokens), 1.0)

    def next(self) -> tuple[int, Request]:
        with self._lock:
            index = self._next
            self._next += 1
            request = self._draw()
            self.requests.append(request)
        return index, request

    def _draw(self) -> Request:
        rng, p = self._rng, self.pools
        op = self._ops[bisect_left(self._op_cum, rng.random() * self._op_cum[-1])]
        if op == "best_category":
            items = p.sets[self._sets.draw(rng)]
            if self.mix == "storefront":
                items = items[:POINT_QUERY_ITEMS]
            return Request(
                op, tuple(items), "/best-category?items=" + _join(items)
            )
        if op == "categorize":
            item = p.items[self._items.draw(rng)]
            return Request(op, item, "/categorize?item=" + quote(str(item), safe=""))
        if op == "categorize_batch":
            batch: list = []
            seen = set()
            while len(batch) < min(BATCH_ITEMS, len(p.items)):
                item = p.items[self._items.draw(rng)]
                if item not in seen:
                    seen.add(item)
                    batch.append(item)
            return Request(
                op, tuple(batch), "/categorize-batch?items=" + _join(batch)
            )
        if op == "categorize_query":
            label = p.set_labels[self._sets.draw(rng)] or "item"
            extra = p.tokens[self._tokens.draw(rng)]
            text = " ".join(_tokens(label) + [extra])
            return Request(op, text, "/categorize-query?q=" + quote(text, safe=""))
        if op == "search":
            text = p.tokens[self._tokens.draw(rng)]
            return Request(op, text, "/search?q=" + quote(text, safe=""))
        cid = p.cids[self._cids.draw(rng)]
        if op == "browse":
            return Request(op, cid, f"/browse?cid={cid}")
        return Request("path", cid, f"/path?cid={cid}")


def _join(items) -> str:
    return ",".join(quote(str(i), safe="") for i in items)
