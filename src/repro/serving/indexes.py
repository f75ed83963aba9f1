"""Read-optimized per-snapshot index structures.

A :class:`SnapshotIndexes` is computed once when a snapshot is loaded
(off the request path — see :mod:`repro.serving.hotswap`) and answers
every read-side question without walking or mutating the tree:

* **item -> category postings** — for each item, the pre-order rows of
  the categories that contain it and the cids of the *minimal*
  (most-specific) ones, i.e. the item's branch/leaf placements;
* **label lookup** — a :class:`repro.search.SearchEngine` over category
  labels, so free-text navigation queries resolve to categories;
* **parent pointers** — root paths and ancestor tests walk
  ``parent_of``; the trees are shallow, so the walk is a handful of
  dict lookups.

``best_category`` counts a query's postings by pre-order row and sorts
only the touched rows, so its cost follows the query, not the tree.
Scoring reuses the scalar
:func:`repro.core.similarity.variant_score_from_sizes` on the
intersection counts, so it returns bit-identical scores to the offline
:func:`repro.core.scoring.score_tree` reference (the differential test
in ``tests/test_serving_engine.py`` pins this). Ties between equally
scoring categories break exactly like the offline scorer — higher
precision, then greater depth — with the lower cid as the final
deterministic tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.core.input_sets import OCTInstance
from repro.core.similarity import variant_score_from_sizes
from repro.core.tree import Category, CategoryTree
from repro.core.variants import Variant
from repro.search.engine import SearchEngine

Item = Hashable


class UnknownCategory(KeyError):
    """A cid that names no category of the serving tree.

    The HTTP layer maps exactly this error to 404; any other exception,
    a bare ``KeyError`` from a bug included, is a 500.
    """


@dataclass(frozen=True)
class BestCategory:
    """The winning category for one query, with its score breakdown."""

    cid: int
    label: str
    score: float
    precision: float
    depth: int


class BaseSnapshotIndexes:
    """The backend-independent half of the snapshot read API.

    Both the in-memory :class:`SnapshotIndexes` and the mmap-backed
    :class:`repro.serving.shm.MmapSnapshotIndexes` inherit the scoring
    loop and the path walk from here, so "bit-identical answers" is a
    structural property — the two backends literally run the same
    ``best_category`` code over their own ``intersection_counts`` /
    ``sizes`` / ``depths`` / ``parent_of`` / ``label_of`` primitives.
    """

    variant: Variant
    sizes: "object"  # cid -> |items| mapping (dict or flat-array view)
    depths: "object"  # cid -> depth mapping
    parent_of: "object"  # cid -> parent cid | None mapping

    def label_of(self, cid: int) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def intersection_counts(
        self, items: frozenset
    ) -> dict[int, int]:  # pragma: no cover - abstract
        raise NotImplementedError

    def path_to_root(self, cid: int) -> list[int]:
        """Root-to-``cid`` cid path, inclusive (no scan: O(answer))."""
        path = [cid]
        parent = self.parent_of[cid]
        while parent is not None:
            path.append(parent)
            parent = self.parent_of[parent]
        path.reverse()
        return path

    def is_ancestor(self, ancestor_cid: int, cid: int) -> bool:
        """Whether ``ancestor_cid`` lies on ``cid``'s root path (inclusive)."""
        return ancestor_cid in self.path_to_root(cid)

    def best_category(
        self,
        items: Iterable[Item],
        variant: Variant | None = None,
        delta: float | None = None,
    ) -> BestCategory | None:
        """The category scoring best against a query item set.

        Scoring follows the offline reference bit for bit: the scalar
        ``variant_score_from_sizes`` on each nonzero intersection, ties
        broken towards higher precision, then greater depth, then lower
        cid. Returns None when no category scores above zero (the query
        is not covered by this tree under the variant).
        """
        variant = variant if variant is not None else self.variant
        effective_delta = delta if delta is not None else variant.delta
        q = items if isinstance(items, frozenset) else frozenset(items)
        q_size = len(q)
        best: BestCategory | None = None
        for cid, common in self.intersection_counts(q).items():
            c_size = self.sizes[cid]
            score = variant_score_from_sizes(
                variant, q_size, c_size, common, effective_delta
            )
            if score <= 0.0:
                continue
            precision = common / c_size if c_size else 0.0
            depth = self.depths[cid]
            if best is None or (score, precision, depth, -cid) > (
                best.score, best.precision, best.depth, -best.cid
            ):
                best = BestCategory(
                    cid=cid,
                    label=self.label_of(cid),
                    score=score,
                    precision=precision,
                    depth=depth,
                )
        return best


class SnapshotIndexes(BaseSnapshotIndexes):
    """Immutable read-side indexes over one (tree, instance, variant)."""

    def __init__(
        self, tree: CategoryTree, instance: OCTInstance, variant: Variant
    ) -> None:
        self.variant = variant
        cats = list(tree.categories())  # pre-order, root first
        self.by_cid: dict[int, Category] = {c.cid: c for c in cats}
        self.root_cid = tree.root.cid
        self.sizes: dict[int, int] = {c.cid: len(c.items) for c in cats}
        self.depths: dict[int, int] = {c.cid: c.depth for c in cats}
        self.parent_of: dict[int, int | None] = {
            c.cid: (c.parent.cid if c.parent is not None else None)
            for c in cats
        }
        self.children_of: dict[int, tuple[int, ...]] = {
            c.cid: tuple(child.cid for child in c.children) for c in cats
        }
        self._cids = [c.cid for c in cats]

        # Item -> containing category rows (pre-order) and item ->
        # minimal (most-specific) category cids: the branch placements a
        # bound-k item occupies. One pass each, mirroring
        # tree.item_branch_counts.
        rows: dict[Item, list[int]] = {}
        minimal: dict[Item, list[int]] = {}
        for row, cat in enumerate(cats):
            covered_by_children: set[Item] = set()
            for child in cat.children:
                covered_by_children |= child.items
            for item in cat.items:
                rows.setdefault(item, []).append(row)
                if item not in covered_by_children:
                    minimal.setdefault(item, []).append(cat.cid)
        self.item_rows: dict[Item, tuple[int, ...]] = {
            item: tuple(r) for item, r in rows.items()
        }
        self.item_placements: dict[Item, tuple[int, ...]] = {
            item: tuple(cids) for item, cids in minimal.items()
        }

        # Label -> category lookup over the labeled categories.
        self.label_engine = SearchEngine()
        for cat in cats:
            if cat.label:
                self.label_engine.add_document(cat.cid, cat.label)

    # -- simple lookups ------------------------------------------------------

    @property
    def n_categories(self) -> int:
        return len(self.by_cid)

    def category(self, cid: int) -> Category:
        """The category for a cid; raises :class:`UnknownCategory`."""
        try:
            return self.by_cid[cid]
        except KeyError:
            raise UnknownCategory(cid) from None

    def label_of(self, cid: int) -> str:
        cat = self.by_cid[cid]
        return cat.label or f"C{cat.cid}"

    def placements(self, item: Item) -> tuple[int, ...]:
        """The most-specific categories containing an item (() when unknown)."""
        return self.item_placements.get(item, ())

    def postings(self, item: Item) -> tuple[int, ...]:
        """All categories containing an item, in pre-order."""
        cids = self._cids
        return tuple(cids[row] for row in self.item_rows.get(item, ()))

    def find_labels(self, query: str, top_k: int = 10):
        """Scored category hits for a free-text label query."""
        return self.label_engine.search(query, top_k=top_k)

    # -- query scoring -------------------------------------------------------

    def intersection_counts(self, items: frozenset) -> dict[int, int]:
        """``{cid: |q ∩ C|}`` for the nonzero categories, in pre-order."""
        counts: dict[int, int] = {}
        item_rows = self.item_rows
        for item in items:
            for row in item_rows.get(item, ()):
                counts[row] = counts.get(row, 0) + 1
        cids = self._cids
        return {cids[row]: counts[row] for row in sorted(counts)}
