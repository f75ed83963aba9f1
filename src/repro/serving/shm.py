"""Flat mmap-able snapshot layout for zero-copy multi-process serving.

One ``ThreadingHTTPServer`` process tops out when every read holds the
GIL; the multi-process tier (:mod:`repro.serving.supervisor`) instead
runs N workers that all ``mmap`` the *same* read-only flat snapshot
file, so the kernel shares one page-cache copy of the indexes across
every worker — no per-process deserialization, no per-process heap.

The layout is a single self-describing binary file per shard::

    magic "ROCT" | u32 flat_format_version | u64 header_len
    header JSON  (section table: name -> {offset, count, kind}, plus
                  variant spec, category/item/label counts, shard k-of-S)
    8-aligned little/native-endian sections (offsets relative to the
                  8-aligned end of the header)
    trailer "TROC" | u64 file_size

The trailer is written last and echoes the total file size, so a torn or
truncated write is detected structurally before any section is trusted
(the staged ``os.replace`` publish in :class:`~repro.serving.snapshot.
SnapshotStore` means readers should never see one, but crash-injection
tests do).

Sections (every array is read through a zero-copy ``memoryview.cast``
view; nothing is deserialized):

=====================  =====================================================
``cat_cids``           row -> cid, category pre-order (root first)
``cat_parent``         row -> parent row (-1 for the root)
``cat_depth``          row -> depth
``cat_size``           row -> ``|items|``
``cat_children``       child rows, ``cat_children_off[row] .. [row+1]``
``cat_labels``         utf-8 label blob, ``cat_label_off`` byte offsets
``cid_to_row``         cid -> row (-1 when the cid does not exist)
``item_keys``          canonical JSON item keys, sorted, ``item_off`` offsets
``item_post_var``      item -> containing category rows, delta-varint
                       (``item_post_voff`` byte offsets)
``item_place_var``     item -> minimal category rows, delta-varint
                       (``item_place_voff`` byte offsets)
``tok_blob``           sorted label-search tokens (``tok_off`` offsets)
``tok_df``             token -> document frequency
``tok_post``           token -> label doc rows (``tok_post_off``)
=====================  =====================================================

Row lists are strictly increasing, so they store as LEB128 varints of
their gaps (:func:`encode_postings`): about one byte per posting instead
of eight. Format version 3 keeps only these sections; files written by
older versions (v1 dense arrays, v2 dense plus Euler-tour/LCA sections)
are recompiled in place by :meth:`SnapshotStore.ensure_flat` on first
mmap read.

Sharding splits the *item* sections by ``crc32(item key) % shard_count``;
the category tree and label-search sections are replicated into every
shard, so any single shard answers ``browse``/``path``/``search`` alone
and :class:`MmapSnapshotIndexes` only fans out item lookups.
:meth:`MmapSnapshotIndexes.intersection_counts` sums the per-shard
integer counts, which is exact — sharded and unsharded answers are
identical, as the differential tests in ``tests/test_serving_shm.py``
assert against the in-memory :class:`~repro.serving.indexes.
SnapshotIndexes` for every read op.
"""

from __future__ import annotations

import json
import math
import mmap
import struct
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from repro.observability import get_tracer
from repro.search.analyzer import tokenize
from repro.search.engine import SearchHit
from repro.serving.indexes import (
    BaseSnapshotIndexes,
    SnapshotIndexes,
    UnknownCategory,
)
from repro.serving.snapshot import SnapshotError, variant_from_spec, variant_spec

Item = Hashable

FLAT_MAGIC = b"ROCT"
FLAT_FORMAT_VERSION = 3
_TRAILER_MAGIC = b"TROC"
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header byte length
_TRAILER = struct.Struct("<4sQ")  # trailer magic, total file size

# Section element kinds -> (memoryview cast format, element size).
_KINDS = {"i64": ("q", 8), "u64": ("Q", 8), "u8": ("B", 1), "i32": ("i", 4)}

# Logical section groups: byte accounting for `repro inspect-snapshot`
# and the benchmarks, and required-section validation (every group is
# in every file).
SECTION_GROUPS: dict[str, tuple[str, ...]] = {
    "tree": (
        "cat_cids", "cat_parent", "cat_depth", "cat_size",
        "cat_children_off", "cat_children", "cat_label_off", "cat_labels",
        "cid_to_row",
    ),
    "items": ("item_off", "item_keys"),
    "postings": (
        "item_post_voff", "item_post_var", "item_place_voff",
        "item_place_var",
    ),
    "tokens": ("tok_off", "tok_blob", "tok_df", "tok_post_off", "tok_post"),
}


# -- delta-compressed varint postings ----------------------------------------


def encode_postings(values: Iterable[int]) -> bytes:
    """LEB128 varints of the gaps of a strictly increasing sequence.

    The first gap is taken against -1, so any non-negative strictly
    increasing sequence (including one starting at 0) encodes with every
    gap >= 1. Raises ``ValueError`` on a non-increasing input — postings
    are pre-order row (or sorted item-code) lists, which are strictly
    increasing by construction.
    """
    out = bytearray()
    prev = -1
    for value in values:
        gap = value - prev
        if gap <= 0:
            raise ValueError(
                f"postings must be strictly increasing; {value} follows {prev}"
            )
        prev = value
        while gap >= 0x80:
            out.append((gap & 0x7F) | 0x80)
            gap >>= 7
        out.append(gap)
    return bytes(out)


def decode_postings(buf) -> list[int]:
    """Invert :func:`encode_postings` (accepts bytes or a u8 memoryview)."""
    out: list[int] = []
    prev = -1
    gap = 0
    shift = 0
    for byte in buf:
        gap |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            prev += gap
            out.append(prev)
            gap = 0
            shift = 0
    if shift:
        raise ValueError("truncated varint postings")
    return out


def concat_postings(lists: Sequence[Iterable[int]]) -> tuple[bytes, list[int]]:
    """Encode many postings lists into one blob plus byte offsets.

    Returns ``(blob, offsets)`` with ``len(lists) + 1`` offsets;
    list ``i`` decodes from ``blob[offsets[i]:offsets[i + 1]]``.
    """
    chunks = [encode_postings(values) for values in lists]
    offsets = [0]
    for chunk in chunks:
        offsets.append(offsets[-1] + len(chunk))
    return b"".join(chunks), offsets


def _align8(n: int) -> int:
    return (n + 7) & ~7


def encode_item(item: Item) -> bytes | None:
    """The canonical byte key of an item (None when not encodable).

    Canonical JSON is injective over the JSON-representable items the
    snapshot payloads allow, so lookups by key agree with lookups by
    value. Query items that cannot be encoded (arbitrary hashables)
    simply miss, exactly like an unknown item.
    """
    try:
        payload = json.dumps(
            item, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError):
        return None
    return payload.encode("utf-8")


def shard_of(key: bytes, shard_count: int) -> int:
    """The shard owning an item key (deterministic across processes)."""
    return zlib.crc32(key) % shard_count if shard_count > 1 else 0


# -- compiler ----------------------------------------------------------------


class _SectionWriter:
    """Accumulates 8-aligned sections and renders the final file bytes."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._table: dict[str, dict] = {}
        self._cursor = 0

    def add(self, name: str, kind: str, payload: bytes, count: int) -> None:
        self._table[name] = {
            "offset": self._cursor, "count": count, "kind": kind
        }
        padded = payload + b"\0" * (_align8(len(payload)) - len(payload))
        self._chunks.append(padded)
        self._cursor += len(padded)

    def add_i64(self, name: str, values: Sequence[int]) -> None:
        self.add(
            name, "i64", struct.pack(f"<{len(values)}q", *values), len(values)
        )

    def add_i32(self, name: str, values: Sequence[int]) -> None:
        self.add(
            name, "i32", struct.pack(f"<{len(values)}i", *values), len(values)
        )

    def add_blob(self, name: str, payload: bytes) -> None:
        self.add(name, "u8", payload, len(payload))

    def render(self, header: dict) -> bytes:
        header = dict(header)
        header["sections"] = self._table
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        prefix = _PREFIX.pack(FLAT_MAGIC, FLAT_FORMAT_VERSION, len(header_bytes))
        data_start = _align8(len(prefix) + len(header_bytes))
        pad = b"\0" * (data_start - len(prefix) - len(header_bytes))
        body = b"".join([prefix, header_bytes, pad, *self._chunks])
        return body + _TRAILER.pack(
            _TRAILER_MAGIC, len(body) + _TRAILER.size
        )


def _offsets(lengths: Sequence[int]) -> list[int]:
    """Prefix-sum offsets array: ``len(lengths) + 1`` entries from 0."""
    out = [0]
    for n in lengths:
        out.append(out[-1] + n)
    return out


def compile_flat_indexes(
    indexes: SnapshotIndexes, shards: int = 1
) -> list[bytes]:
    """Serialize in-memory snapshot indexes into flat shard files.

    Compiling *from* a built :class:`SnapshotIndexes` (rather than from
    the tree directly) guarantees the flat file encodes exactly what the
    in-memory read path would answer — the differential tests then pin
    the mmap reader to it.
    """
    if shards < 1:
        raise SnapshotError(f"shard count must be >= 1, got {shards}")
    tracer = get_tracer()
    with tracer.span("serving.compile_flat"):
        cids = list(indexes._cids)  # category pre-order, root first
        if any(cid < 0 for cid in cids):
            raise SnapshotError("flat snapshot layout requires cids >= 0")
        row_of = {cid: row for row, cid in enumerate(cids)}
        max_cid = max(cids) if cids else -1

        labels = []
        for cid in cids:
            cat = indexes.by_cid[cid]
            labels.append((cat.label or "").encode("utf-8"))
        label_offsets = _offsets([len(b) for b in labels])
        cid_to_row = [-1] * (max_cid + 1)
        for row, cid in enumerate(cids):
            cid_to_row[cid] = row

        # Token sections (replicated per shard): sorted token order makes
        # the per-token binary search possible; posting order within a
        # token is irrelevant to the (sorted) search results.
        tok_index = indexes.label_engine.index
        tokens = sorted(tok_index.postings)
        tok_blobs = [t.encode("utf-8") for t in tokens]
        tok_offsets = _offsets([len(b) for b in tok_blobs])
        tok_df = [len(tok_index.postings[t]) for t in tokens]
        tok_posts = [
            sorted(row_of[doc_id] for doc_id in tok_index.postings[t])
            for t in tokens
        ]
        tok_post_offsets = _offsets([len(p) for p in tok_posts])
        n_label_docs = len(tok_index.doc_lengths)

        # Items, partitioned by key shard and sorted by key within it.
        per_shard: list[list[tuple[bytes, Item]]] = [[] for _ in range(shards)]
        for item in indexes.item_rows:
            key = encode_item(item)
            if key is None:
                raise SnapshotError(
                    "flat snapshot layout requires JSON-representable "
                    f"items, got {type(item).__name__}: {item!r}"
                )
            per_shard[shard_of(key, shards)].append((key, item))
        universe_size = len(indexes.item_rows)

        files: list[bytes] = []
        for shard_index in range(shards):
            entries = sorted(per_shard[shard_index], key=lambda kv: kv[0])
            keys = [key for key, _ in entries]
            post_blob, post_voff = concat_postings(
                [indexes.item_rows[item] for _, item in entries]
            )
            place_blob, place_voff = concat_postings(
                [
                    [row_of[cid] for cid in indexes.placements(item)]
                    for _, item in entries
                ]
            )

            writer = _SectionWriter()
            writer.add_i64("cat_cids", cids)
            writer.add_i64(
                "cat_parent",
                [
                    row_of[p] if (p := indexes.parent_of[cid]) is not None
                    else -1
                    for cid in cids
                ],
            )
            writer.add_i64("cat_depth", [indexes.depths[cid] for cid in cids])
            writer.add_i64("cat_size", [indexes.sizes[cid] for cid in cids])
            children = [
                [row_of[child] for child in indexes.children_of[cid]]
                for cid in cids
            ]
            writer.add_i64("cat_children_off", _offsets(map(len, children)))
            writer.add_i64(
                "cat_children", [row for per in children for row in per]
            )
            writer.add_i64("cat_label_off", label_offsets)
            writer.add_blob("cat_labels", b"".join(labels))
            writer.add_i64("cid_to_row", cid_to_row)
            writer.add_i64("item_off", _offsets([len(k) for k in keys]))
            writer.add_blob("item_keys", b"".join(keys))
            writer.add_i32("item_post_voff", post_voff)
            writer.add_blob("item_post_var", post_blob)
            writer.add_i32("item_place_voff", place_voff)
            writer.add_blob("item_place_var", place_blob)
            writer.add_i64("tok_off", tok_offsets)
            writer.add_blob("tok_blob", b"".join(tok_blobs))
            writer.add_i64("tok_df", tok_df)
            writer.add_i64("tok_post_off", tok_post_offsets)
            writer.add_i64("tok_post", [r for per in tok_posts for r in per])

            files.append(
                writer.render(
                    {
                        "format": "repro-flat-snapshot",
                        "byteorder": sys.byteorder,
                        "variant": variant_spec(indexes.variant),
                        "root_cid": indexes.root_cid,
                        "n_categories": len(cids),
                        "max_cid": max_cid,
                        "universe_size": universe_size,
                        "n_label_docs": n_label_docs,
                        "shard_index": shard_index,
                        "shard_count": shards,
                        "n_shard_items": len(entries),
                    }
                )
            )
        tracer.count("serving.flat_bytes", sum(len(f) for f in files))
    return files


# -- reader ------------------------------------------------------------------


def flat_header(path: str | Path) -> tuple[int, dict]:
    """``(format_version, header dict)`` of a flat file, without mapping.

    Validates only the prefix (magic + header JSON); section payloads and
    the trailer are not touched, so this works on any version — it is
    how :meth:`SnapshotStore.ensure_flat` detects stale files that need
    an in-place recompile.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise SnapshotError(
                f"flat snapshot {path} is truncated "
                f"({len(prefix)} bytes is smaller than any valid file)"
            )
        magic, version, header_len = _PREFIX.unpack(prefix)
        if magic != FLAT_MAGIC:
            raise SnapshotError(
                f"{path} is not a flat snapshot "
                f"(bad magic {magic!r}, expected {FLAT_MAGIC!r})"
            )
        header_bytes = fh.read(header_len)
        if len(header_bytes) < header_len:
            raise SnapshotError(f"flat snapshot {path} header overruns the file")
        try:
            header = json.loads(header_bytes)
        except json.JSONDecodeError as exc:
            raise SnapshotError(
                f"flat snapshot {path} has a corrupt header"
            ) from exc
    return version, header


def flat_format_version(path: str | Path) -> int:
    """The on-disk format version of one flat shard file."""
    return flat_header(path)[0]


def describe_flat(path: str | Path) -> dict:
    """The section table of one flat shard, for ``repro inspect-snapshot``.

    Returns ``{"path", "format_version", "header", "file_bytes",
    "sections": [{"name", "group", "kind", "count", "bytes"}, ...]}``
    with sections in file-offset order. Works on any readable version —
    unknown sections land in group ``"?"``.
    """
    path = Path(path)
    version, header = flat_header(path)
    group_of = {
        name: group
        for group, names in SECTION_GROUPS.items()
        for name in names
    }
    sections = []
    for name, spec in sorted(
        header.get("sections", {}).items(), key=lambda kv: kv[1]["offset"]
    ):
        width = _KINDS.get(spec["kind"], (None, 1))[1]
        sections.append(
            {
                "name": name,
                "group": group_of.get(name, "?"),
                "kind": spec["kind"],
                "count": spec["count"],
                "bytes": spec["count"] * width,
            }
        )
    return {
        "path": str(path),
        "format_version": version,
        "header": {
            k: v for k, v in header.items() if k != "sections"
        },
        "file_bytes": path.stat().st_size,
        "sections": sections,
    }


@dataclass(frozen=True)
class FlatCategory:
    """A lightweight category view resolved from the flat layout."""

    cid: int
    label: str | None
    depth: int
    n_items: int


class _FlatShard:
    """One mapped shard file: validated header + zero-copy section views."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = open(self.path, "rb")
        try:
            size = self.path.stat().st_size
            if size < _PREFIX.size + _TRAILER.size:
                raise SnapshotError(
                    f"flat snapshot {self.path} is truncated "
                    f"({size} bytes is smaller than any valid file)"
                )
            self._mm = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except SnapshotError:
            self._file.close()
            raise
        except OSError as exc:
            self._file.close()
            raise SnapshotError(
                f"cannot map flat snapshot {self.path}: {exc}"
            ) from exc
        try:
            self.header = self._validate(size)
            view = memoryview(self._mm)
            data_start = _align8(_PREFIX.size + len(self._header_bytes))
            self._views: dict[str, memoryview] = {}
            for name, spec in self.header["sections"].items():
                fmt, width = _KINDS[spec["kind"]]
                lo = data_start + spec["offset"]
                hi = lo + spec["count"] * width
                if hi > size - _TRAILER.size:
                    raise SnapshotError(
                        f"flat snapshot {self.path}: section {name!r} "
                        "extends past the end of the file"
                    )
                self._views[name] = view[lo:hi].cast(fmt)
            for names in SECTION_GROUPS.values():
                for name in names:
                    if name not in self._views:
                        raise SnapshotError(
                            f"flat snapshot {self.path} is missing "
                            f"section {name!r}"
                        )
        except Exception:
            self.close()
            raise

    def _validate(self, size: int) -> dict:
        magic, version, header_len = _PREFIX.unpack(
            self._mm[: _PREFIX.size]
        )
        if magic != FLAT_MAGIC:
            raise SnapshotError(
                f"{self.path} is not a flat snapshot "
                f"(bad magic {magic!r}, expected {FLAT_MAGIC!r})"
            )
        if version > FLAT_FORMAT_VERSION:
            raise SnapshotError(
                f"flat snapshot format version {version} is newer than "
                f"supported version {FLAT_FORMAT_VERSION}; upgrade repro "
                "to read it"
            )
        if version != FLAT_FORMAT_VERSION:
            raise SnapshotError(
                f"unsupported flat snapshot format version {version!r} "
                f"(supported: {FLAT_FORMAT_VERSION}); recompile it with "
                "SnapshotStore.ensure_flat"
            )
        trailer = self._mm[size - _TRAILER.size:]
        t_magic, t_size = _TRAILER.unpack(trailer)
        if t_magic != _TRAILER_MAGIC or t_size != size:
            raise SnapshotError(
                f"flat snapshot {self.path} is torn or truncated "
                f"(trailer records {t_size} bytes, file has {size})"
            )
        if _PREFIX.size + header_len > size - _TRAILER.size:
            raise SnapshotError(
                f"flat snapshot {self.path} header overruns the file"
            )
        self._header_bytes = self._mm[_PREFIX.size: _PREFIX.size + header_len]
        try:
            header = json.loads(self._header_bytes)
        except json.JSONDecodeError as exc:
            raise SnapshotError(
                f"flat snapshot {self.path} has a corrupt header"
            ) from exc
        if header.get("byteorder") != sys.byteorder:
            raise SnapshotError(
                f"flat snapshot {self.path} was written on a "
                f"{header.get('byteorder')}-endian machine; this one is "
                f"{sys.byteorder}-endian"
            )
        return header

    # -- item lookup -------------------------------------------------------

    def find_item(self, key: bytes) -> int | None:
        """Binary search the sorted key blob; item code or None."""
        offsets, blob = self._views["item_off"], self._views["item_keys"]
        lo, hi = 0, len(offsets) - 1
        while lo < hi:
            mid = (lo + hi) >> 1
            probe = bytes(blob[offsets[mid]: offsets[mid + 1]])
            if probe < key:
                lo = mid + 1
            elif probe > key:
                hi = mid
            else:
                return mid
        return None

    def item_rows(self, section: str, code: int) -> Sequence[int]:
        """The ``item_post``/``item_place`` rows of one item code."""
        views = self._views
        voff, blob = views[section + "_voff"], views[section + "_var"]
        lo, hi = voff[code], voff[code + 1]
        if hi - lo == 1:
            # One posting with gap < 128 — a single byte holding
            # value + 1 (gaps are taken against -1). Placements lists
            # are overwhelmingly singletons, so skip the decoder loop.
            return (blob[lo] - 1,)
        return decode_postings(blob[lo:hi])

    def find_token(self, token: str) -> int | None:
        """Binary search the sorted token blob; token index or None."""
        key = token.encode("utf-8")
        offsets, blob = self._views["tok_off"], self._views["tok_blob"]
        lo, hi = 0, len(offsets) - 1
        while lo < hi:
            mid = (lo + hi) >> 1
            probe = bytes(blob[offsets[mid]: offsets[mid + 1]])
            if probe < key:
                lo = mid + 1
            elif probe > key:
                hi = mid
            else:
                return mid
        return None

    def close(self) -> None:
        # Closing the descriptor releases the fd immediately; the mapping
        # itself stays valid for any live views and is reclaimed with
        # them. Idempotent: a second close is a no-op.
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "_FlatShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _RowMapping:
    """cid-keyed read-only mapping over a per-row i64 section view."""

    __slots__ = ("_shard", "_view")

    def __init__(self, shard: _FlatShard, name: str) -> None:
        self._shard = shard
        self._view = shard._views[name]

    def _row(self, cid: int) -> int:
        cid_to_row = self._shard._views["cid_to_row"]
        if isinstance(cid, int) and 0 <= cid < len(cid_to_row):
            row = cid_to_row[cid]
            if row >= 0:
                return row
        raise UnknownCategory(cid)

    def __getitem__(self, cid: int) -> int:
        return self._view[self._row(cid)]

    def __contains__(self, cid) -> bool:
        try:
            self._row(cid)
        except (KeyError, TypeError):
            return False
        return True

    def __len__(self) -> int:
        return self._shard.header["n_categories"]

    def __iter__(self):
        return iter(self._shard._views["cat_cids"])


class _ParentMapping(_RowMapping):
    """cid -> parent cid (None at the root), resolved through rows."""

    def __getitem__(self, cid: int) -> int | None:
        parent_row = self._view[self._row(cid)]
        if parent_row < 0:
            return None
        return self._shard._views["cat_cids"][parent_row]


class _ChildrenMapping(_RowMapping):
    """cid -> tuple of child cids, in tree (pre-)order."""

    def __init__(self, shard: _FlatShard) -> None:
        super().__init__(shard, "cat_children_off")

    def __getitem__(self, cid: int) -> tuple[int, ...]:
        row = self._row(cid)
        children = self._shard._views["cat_children"]
        cat_cids = self._shard._views["cat_cids"]
        return tuple(
            cat_cids[child_row]
            for child_row in children[self._view[row]: self._view[row + 1]]
        )


class MmapSnapshotIndexes(BaseSnapshotIndexes):
    """The :class:`SnapshotIndexes` read API over mmap'ed flat shards.

    Answers are asserted byte-identical to the in-memory indexes (same
    integers, same IEEE floats — the scoring loop itself is shared via
    :class:`BaseSnapshotIndexes`). All per-category state is read through
    zero-copy views of the shared mapping; the only per-process memory is
    this object and the tiny header dicts.
    """

    def __init__(self, paths: Sequence[str | Path]) -> None:
        if not paths:
            raise SnapshotError("no flat snapshot shard files to map")
        shards = [_FlatShard(p) for p in paths]
        try:
            shards.sort(key=lambda s: s.header["shard_index"])
            first = shards[0].header
            expected = first["shard_count"]
            if len(shards) != expected or [
                s.header["shard_index"] for s in shards
            ] != list(range(expected)):
                raise SnapshotError(
                    f"expected {expected} flat shards, got "
                    f"{[s.header['shard_index'] for s in shards]}"
                )
            for shard in shards[1:]:
                for field in ("variant", "root_cid", "n_categories",
                              "universe_size", "shard_count"):
                    if shard.header[field] != first[field]:
                        raise SnapshotError(
                            f"flat shard {shard.path} disagrees with "
                            f"{shards[0].path} on {field!r}"
                        )
        except Exception:
            for shard in shards:
                shard.close()
            raise
        self._shards = shards
        self._tree_shard = shards[0]  # category/token sections: any shard
        self.variant = variant_from_spec(first["variant"])
        self.root_cid = int(first["root_cid"])
        self._n_categories = int(first["n_categories"])
        self._n_label_docs = int(first["n_label_docs"])
        self.sizes = _RowMapping(self._tree_shard, "cat_size")
        self.depths = _RowMapping(self._tree_shard, "cat_depth")
        self.parent_of = _ParentMapping(self._tree_shard, "cat_parent")
        self.children_of = _ChildrenMapping(self._tree_shard)

    # -- simple lookups ------------------------------------------------------

    @property
    def n_categories(self) -> int:
        return self._n_categories

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def _row(self, cid: int) -> int:
        return self.sizes._row(cid)

    def _raw_label(self, row: int) -> str:
        shard = self._tree_shard
        offsets = shard._views["cat_label_off"]
        return bytes(
            shard._views["cat_labels"][offsets[row]: offsets[row + 1]]
        ).decode("utf-8")

    def category(self, cid: int) -> FlatCategory:
        """The category view for a cid; raises :class:`UnknownCategory`."""
        row = self._row(cid)
        shard = self._tree_shard
        return FlatCategory(
            cid=cid,
            label=self._raw_label(row) or None,
            depth=shard._views["cat_depth"][row],
            n_items=shard._views["cat_size"][row],
        )

    def label_of(self, cid: int) -> str:
        return self._raw_label(self._row(cid)) or f"C{cid}"

    def _item_cids(self, item: Item, section: str) -> tuple[int, ...]:
        key = encode_item(item)
        if key is None:
            return ()
        shard = self._shards[shard_of(key, len(self._shards))]
        code = shard.find_item(key)
        if code is None:
            return ()
        cat_cids = shard._views["cat_cids"]
        return tuple(cat_cids[row] for row in shard.item_rows(section, code))

    def placements(self, item: Item) -> tuple[int, ...]:
        """The most-specific categories containing an item (pre-order)."""
        return self._item_cids(item, "item_place")

    def postings(self, item: Item) -> tuple[int, ...]:
        """All categories containing an item (pre-order)."""
        return self._item_cids(item, "item_post")

    # -- label search --------------------------------------------------------

    def _idf(self, df: int) -> float:
        # Identical arithmetic to repro.search.index.InvertedIndex.idf.
        return math.log(1.0 + self._n_label_docs / (1.0 + df))

    def find_labels(self, query: str, top_k: int | None = 10):
        """Scored label hits, replicating ``SearchEngine.search`` exactly.

        Same tokenization, same idf smoothing, same (sorted-token) weight
        accumulation order — so relevance floats match the in-memory
        engine bit for bit, in any process.
        """
        shard = self._tree_shard
        tokens = tokenize(query)
        if not tokens:
            return []
        weights: dict[str, float] = {}
        token_ids: dict[str, int | None] = {}
        for token in sorted(set(tokens)):
            ti = shard.find_token(token)
            token_ids[token] = ti
            df = shard._views["tok_df"][ti] if ti is not None else 0
            weights[token] = self._idf(df)
        best_possible = sum(weights.values())
        if best_possible <= 0:
            return []
        cat_cids = shard._views["cat_cids"]
        tok_post = shard._views["tok_post"]
        tok_post_off = shard._views["tok_post_off"]
        scores: dict[int, float] = {}
        for token, weight in weights.items():
            ti = token_ids[token]
            if ti is None:
                continue
            for i in range(tok_post_off[ti], tok_post_off[ti + 1]):
                doc_id = cat_cids[tok_post[i]]
                scores[doc_id] = scores.get(doc_id, 0.0) + weight
        hits = [
            SearchHit(doc_id=doc_id, relevance=score / best_possible)
            for doc_id, score in scores.items()
        ]
        hits.sort(key=lambda h: (-h.relevance, str(h.doc_id)))
        if top_k is not None:
            hits = hits[:top_k]
        return hits

    # -- query scoring -------------------------------------------------------

    def intersection_counts(self, items: frozenset) -> dict[int, int]:
        """``{cid: |q ∩ C|}`` for the nonzero categories, pre-order.

        Each item resolves in its owning shard and its varint row list
        is counted; per-row counts sum exactly across shards, and only
        the touched rows are sorted back into pre-order.
        """
        shards = self._shards
        n_shards = len(shards)
        counts: dict[int, int] = {}
        for item in items:
            key = encode_item(item)
            if key is None:
                continue
            shard = shards[shard_of(key, n_shards)]
            code = shard.find_item(key)
            if code is None:
                continue
            for row in shard.item_rows("item_post", code):
                counts[row] = counts.get(row, 0) + 1
        cat_cids = self._tree_shard._views["cat_cids"]
        return {cat_cids[row]: counts[row] for row in sorted(counts)}

    # `path_to_root` and `best_category` are inherited from
    # BaseSnapshotIndexes — literally the same code the in-memory
    # SnapshotIndexes runs.

    def close(self) -> None:
        """Release the shard file descriptors (mappings follow their views)."""
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "MmapSnapshotIndexes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def prepare_mmap_generation(store, snapshot_id: str | None = None):
    """Prepare (not publish) an mmap-backed generation from a store.

    The counterpart of :func:`repro.serving.engine.prepare_generation`
    for worker processes: no tree or instance is deserialized — the flat
    shard files are mapped read-only (compiled on demand for stores
    written before the flat layout existed) and the generation carries
    ``tree=None, instance=None``.
    """
    from repro.serving.engine import Generation

    if snapshot_id is None:
        snapshot_id = store.current_id()
        if snapshot_id is None:
            raise SnapshotError(f"no current snapshot in {store.root}")
    tracer = get_tracer()
    with tracer.span("serving.prepare_mmap"):
        paths = store.ensure_flat(snapshot_id)
        indexes = MmapSnapshotIndexes(paths)
    return Generation(
        tree=None,
        instance=None,
        variant=indexes.variant,
        indexes=indexes,
        snapshot_id=snapshot_id,
    )
