"""Differential tier for the compact flat layout (format v3).

The flat snapshot stores item postings and placements as delta-varint
row lists, and the mmap reader decodes them on every lookup. Its
answers must be *bit-identical* to the in-memory read path — same
integers, same IEEE-754 floats, same dict orders, same tie-breaks —
and both must agree with the tree itself. These tests pin that:

- oracle: ``SnapshotIndexes`` and the mmap reader against a brute-force
  oracle over the tree (counts in pre-order, minimal placements, root
  paths, ancestors);
- mmap: sharded and unsharded v3 files, compiled directly or written by
  ``SnapshotStore.save``, against the in-memory reference, on every
  variant, a real dataset and a ``repro.scale`` planted catalog with
  string item ids (also against offline ``score_tree``);
- layout and migration: the v3 header and section groups, and v1/v2
  files recompiled in place by ``SnapshotStore.ensure_flat`` at their
  existing shard count;
- engine/HTTP: batched ``categorize_items`` equals the per-item loop on
  both backends, including across a mid-run object→mmap hot swap.
"""

from __future__ import annotations

import json
import shutil
import struct
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.algorithms import CTCR
from repro.core import Variant, score_tree
from repro.serving import (
    SECTION_GROUPS,
    HotSwapper,
    MmapSnapshotIndexes,
    ServingEngine,
    SnapshotError,
    SnapshotStore,
    compile_flat_indexes,
    describe_flat,
    flat_file_name,
    flat_format_version,
    flat_header,
    make_server,
    prepare_mmap_generation,
    serve_in_background,
)
from repro.serving.indexes import SnapshotIndexes
from repro.serving.shm import _PREFIX, FLAT_MAGIC, _FlatShard
from tests.test_serving_shm import (
    assert_identical,
    build_labeled_tree,
    queries_for,
)

# A figure-2 snapshot store (2 shards) written by the format-v2
# compiler, which carried both the dense and the Euler-tour/varint
# section groups.
V2_STORE = Path(__file__).parent / "data" / "flat_v2_store"


def assert_matches_tree(indexes: SnapshotIndexes, tree, queries):
    """In-memory reads against brute force over the tree's categories."""
    cats = list(tree.categories())  # pre-order
    for query in queries:
        want = {
            c.cid: len(c.items & query) for c in cats if c.items & query
        }
        got = indexes.intersection_counts(frozenset(query))
        assert got == want
        assert list(got) == list(want)  # pre-order, not just equal
    for item in sorted(tree.root.items, key=str):
        containing = [c for c in cats if item in c.items]
        assert indexes.postings(item) == tuple(c.cid for c in containing)
        assert indexes.placements(item) == tuple(
            c.cid
            for c in containing
            if not any(item in child.items for child in c.children)
        )
    for cat in cats:
        assert indexes.path_to_root(cat.cid) == [
            c.cid for c in cat.path_from_root()
        ]


def make_indexes(instance, variant=None):
    variant = variant or Variant.threshold_jaccard(0.6)
    tree = build_labeled_tree(instance, variant)
    return SnapshotIndexes(tree, instance, variant)


def write_flat(tmp_path, indexes, shards=1):
    paths = []
    for shard_index, blob in enumerate(
        compile_flat_indexes(indexes, shards=shards)
    ):
        path = tmp_path / flat_file_name(shard_index, shards)
        path.write_bytes(blob)
        paths.append(path)
    return paths


class TestInMemoryReadPath:
    @pytest.mark.parametrize("backend", ["object", "mmap"])
    def test_figure2_all_variants(
        self, figure2_instance, all_variants, tmp_path, backend
    ):
        queries = queries_for(figure2_instance)
        for i, variant in enumerate(all_variants):
            tree = build_labeled_tree(figure2_instance, variant)
            indexes = SnapshotIndexes(tree, figure2_instance, variant)
            if backend == "object":
                assert_matches_tree(indexes, tree, queries)
                continue
            sub = tmp_path / f"v{i}"
            sub.mkdir()
            with MmapSnapshotIndexes(write_flat(sub, indexes, 2)) as mm:
                assert_matches_tree(mm, tree, queries)

    def test_tiny_dataset(self, tiny_dataset):
        from repro.pipeline import preprocess

        variant = Variant.threshold_jaccard(0.6)
        instance, _ = preprocess(tiny_dataset, variant)
        tree = build_labeled_tree(instance, variant)
        indexes = SnapshotIndexes(tree, instance, variant)
        assert_matches_tree(indexes, tree, queries_for(instance))

    def test_is_ancestor_matches_paths(self, figure2_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        mem = SnapshotIndexes(tree, figure2_instance, variant)
        with MmapSnapshotIndexes(write_flat(tmp_path, mem, 3)) as mm:
            for cat in tree.categories():
                path = cat.path_from_root()
                for other in tree.categories():
                    want = other in path
                    assert mem.is_ancestor(other.cid, cat.cid) == want
                    assert mm.is_ancestor(other.cid, cat.cid) == want


class TestMmapDifferential:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("source", ["compiled", "store"])
    def test_matches_reference(
        self, figure2_instance, all_variants, tmp_path, shards, source
    ):
        # "compiled": files straight from compile_flat_indexes;
        # "store": files written by SnapshotStore.save, checked against
        # indexes rebuilt from the reloaded tree and instance.
        for i, variant in enumerate(all_variants):
            sub = tmp_path / f"v{i}"
            sub.mkdir()
            if source == "compiled":
                mem = make_indexes(figure2_instance, variant)
                paths = write_flat(sub, mem, shards)
            else:
                tree = build_labeled_tree(figure2_instance, variant)
                store = SnapshotStore(sub)
                info = store.save(
                    tree, figure2_instance, variant, flat_shards=shards
                )
                loaded = store.load(info.snapshot_id)
                mem = SnapshotIndexes(
                    loaded.tree, loaded.instance, loaded.variant
                )
                paths = store.flat_paths(info.snapshot_id)
                assert len(paths) == shards
            with MmapSnapshotIndexes(paths) as mm:
                assert_identical(mem, mm, queries_for(figure2_instance))

    def test_tiny_dataset_succinct(self, tiny_dataset, tmp_path):
        from repro.pipeline import preprocess

        variant = Variant.threshold_jaccard(0.6)
        instance, _ = preprocess(tiny_dataset, variant)
        tree = build_labeled_tree(instance, variant)
        mem = SnapshotIndexes(tree, instance, variant)
        paths = write_flat(tmp_path, mem, shards=4)
        with MmapSnapshotIndexes(paths) as mm:
            assert_identical(mem, mm, queries_for(instance))

    @pytest.mark.parametrize("shards", [1, 3])
    def test_planted_catalog_string_items(self, tmp_path, shards):
        # A repro.scale planted taxonomy with item ids as strings, the
        # way an HTTP client sends them.
        from repro.core.input_sets import InputSet, OCTInstance
        from repro.scale.generator import ExtremeCatalog, scaled_spec

        catalog = ExtremeCatalog(scaled_spec(3000, 160, seed=0, zipf_s=0.0))
        instance = OCTInstance(
            [
                InputSet(
                    sid=q.sid,
                    items=frozenset(str(i) for i in q.items),
                    weight=q.weight,
                )
                for q in catalog.instance()
            ],
            universe=[str(i) for i in range(catalog.spec.n_items)],
        )
        tree = catalog.planted_tree()
        for cat in tree.categories():
            cat.items = {str(i) for i in cat.items}
        variant = Variant.threshold_jaccard(0.5)
        mem = SnapshotIndexes(tree, instance, variant)
        queries = queries_for(instance)
        assert_matches_tree(mem, tree, queries)
        report = score_tree(tree, instance, variant)
        with MmapSnapshotIndexes(write_flat(tmp_path, mem, shards)) as mm:
            assert_identical(mem, mm, queries)
            for q in instance:
                best = mm.best_category(q.items)
                entry = report.per_set[q.sid]
                if entry.covered:
                    assert (best.score, best.precision) == (
                        entry.score, entry.best_precision
                    )
                else:
                    assert best is None

    def test_compile_is_deterministic(self, figure2_instance):
        mem = make_indexes(figure2_instance)
        assert compile_flat_indexes(mem, shards=2) == (
            compile_flat_indexes(mem, shards=2)
        )


class TestFlatLayout:
    def test_missing_section_rejected(self, figure2_instance, tmp_path):
        mem = make_indexes(figure2_instance)
        path = write_flat(tmp_path, mem)[0]
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack_from("<Q", blob, 8)[0]
        header = blob[_PREFIX.size: _PREFIX.size + header_len]
        # Rename the section in place (same length keeps every offset).
        blob[_PREFIX.size: _PREFIX.size + header_len] = header.replace(
            b'"item_post_var"', b'"item_post_xxx"'
        )
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="missing section"):
            MmapSnapshotIndexes([path])

    def test_flat_header_and_version(self, figure2_instance, tmp_path):
        mem = make_indexes(figure2_instance)
        path = write_flat(tmp_path, mem)[0]
        assert flat_format_version(path) == 3
        version, header = flat_header(path)
        assert version == 3
        assert "reprs" not in header
        assert header["n_categories"] == mem.n_categories

    def test_describe_flat_sections(self, figure2_instance, tmp_path):
        mem = make_indexes(figure2_instance)
        path = write_flat(tmp_path, mem)[0]
        desc = describe_flat(path)
        assert desc["format_version"] == 3
        assert desc["file_bytes"] == path.stat().st_size
        groups = {s["name"]: s["group"] for s in desc["sections"]}
        assert groups == {
            name: group
            for group, names in SECTION_GROUPS.items()
            for name in names
        }
        assert groups["item_post_var"] == "postings"
        assert all(s["bytes"] >= 0 for s in desc["sections"])


class TestMigration:
    def _save(self, instance, tmp_path, **save_kwargs):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(instance, variant)
        store = SnapshotStore(tmp_path)
        info = store.save(tree, instance, variant, **save_kwargs)
        return store, info

    def _downgrade_version(self, path, version=1):
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack_from("<Q", blob, 8)[0]
        blob[:_PREFIX.size] = _PREFIX.pack(FLAT_MAGIC, version, header_len)
        path.write_bytes(bytes(blob))

    def test_stale_version_rejected_with_hint(
        self, figure2_instance, tmp_path
    ):
        store, info = self._save(figure2_instance, tmp_path)
        path = store.flat_paths(info.snapshot_id)[0]
        self._downgrade_version(path)
        with pytest.raises(SnapshotError, match="ensure_flat"):
            MmapSnapshotIndexes([path])

    def test_ensure_flat_recompiles_stale_version(
        self, figure2_instance, tmp_path
    ):
        store, info = self._save(
            figure2_instance, tmp_path, flat_shards=3
        )
        for path in store.flat_paths(info.snapshot_id):
            self._downgrade_version(path)
        paths = store.ensure_flat(info.snapshot_id)
        assert len(paths) == 3  # recompiled at the existing shard count
        for path in paths:
            assert flat_format_version(path) == 3
        loaded = store.load(info.snapshot_id)
        mem = SnapshotIndexes(loaded.tree, loaded.instance, loaded.variant)
        with MmapSnapshotIndexes(paths) as mm:
            assert_identical(mem, mm, queries_for(figure2_instance))

    def test_v2_store_recompiled_on_first_mmap_read(
        self, figure2_instance, tmp_path
    ):
        shutil.copytree(V2_STORE, tmp_path, dirs_exist_ok=True)
        store = SnapshotStore(tmp_path)
        snapshot_id = store.current_id()
        old = store.flat_paths(snapshot_id)
        assert len(old) == 2
        for path in old:
            version, header = flat_header(path)
            assert version == 2
            assert sorted(header["reprs"]) == ["flat", "succinct"]
        with pytest.raises(SnapshotError, match="ensure_flat"):
            MmapSnapshotIndexes(old)

        generation = prepare_mmap_generation(store)
        paths = store.flat_paths(snapshot_id)
        assert paths == old  # the same files, replaced in place
        for path in paths:
            version, header = flat_header(path)
            assert version == 3 and "reprs" not in header
        loaded = store.load(snapshot_id)
        mem = SnapshotIndexes(loaded.tree, loaded.instance, loaded.variant)
        with generation.indexes as mm:
            assert mm.shard_count == 2
            assert_identical(mem, mm, queries_for(figure2_instance))

    def test_ensure_flat_idempotent_when_fresh(
        self, figure2_instance, tmp_path
    ):
        store, info = self._save(figure2_instance, tmp_path)
        before = [
            (p, p.stat().st_mtime_ns)
            for p in store.flat_paths(info.snapshot_id)
        ]
        paths = store.ensure_flat(info.snapshot_id)
        assert [(p, p.stat().st_mtime_ns) for p in paths] == before


class TestFlatShardLifecycle:
    def test_context_manager_and_idempotent_close(
        self, figure2_instance, tmp_path
    ):
        mem = make_indexes(figure2_instance)
        path = write_flat(tmp_path, mem)[0]
        with _FlatShard(path) as shard:
            assert shard.header["n_categories"] == mem.n_categories
        shard.close()  # double close after __exit__: must be a no-op
        shard.close()

    def test_indexes_close_idempotent(self, figure2_instance, tmp_path):
        mem = make_indexes(figure2_instance)
        paths = write_flat(tmp_path, mem)
        mm = MmapSnapshotIndexes(paths)
        mm.close()
        mm.close()


class TestEngineBatched:
    def _store(self, instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(instance, variant)
        store = SnapshotStore(tmp_path)
        store.save(tree, instance, variant)
        return store

    @pytest.mark.parametrize("backend", ["object", "mmap"])
    def test_batch_equals_per_item_loop(
        self, figure2_instance, tmp_path, backend
    ):
        store = self._store(figure2_instance, tmp_path)
        engine = ServingEngine()
        HotSwapper(engine, backend=backend).swap_from_store(store)
        items = sorted(figure2_instance.universe, key=str)
        items.append("__unknown__")
        batch = engine.categorize_items(items)
        assert batch == [engine.categorize_item(item) for item in items]

    def test_batch_across_hot_swap(self, figure2_instance, tmp_path):
        # Mid-run object -> mmap swap: the generation bumps, the answers
        # do not.
        store = self._store(figure2_instance, tmp_path)
        engine = ServingEngine.from_snapshot(store.load())
        items = sorted(figure2_instance.universe, key=str)
        before = engine.categorize_items(items)
        generation_before = engine.generation
        HotSwapper(engine, backend="mmap").swap_from_store(store)
        assert engine.generation == generation_before + 1
        assert isinstance(engine.current.indexes, MmapSnapshotIndexes)
        assert engine.categorize_items(items) == before


class TestHTTPBatch:
    @pytest.fixture()
    def served(self, figure2_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(figure2_instance, variant)
        store = SnapshotStore(tmp_path)
        store.save(tree, figure2_instance, variant)
        engine = ServingEngine.from_snapshot(store.load())
        server = make_server(engine, store=store)
        serve_in_background(server)
        yield server, engine
        server.stop()

    def _get(self, server, path):
        url = f"http://127.0.0.1:{server.server_port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_categorize_batch(self, served):
        server, engine = served
        status, body = self._get(server, "/categorize-batch?items=a,b,c")
        assert status == 200
        assert body["items"] == ["a", "b", "c"]
        assert body["results"] == engine.categorize_items(["a", "b", "c"])
        for item, result in zip(body["items"], body["results"]):
            _, single = self._get(server, f"/categorize?item={item}")
            assert result == single["placements"]

    def test_categorize_batch_empty_is_400(self, served):
        server, _ = served
        status, body = self._get(server, "/categorize-batch?items=")
        assert status == 400
        status, body = self._get(server, "/categorize-batch")
        assert status == 400


class TestInspectSnapshotCLI:
    def test_store_root(self, figure2_instance, tmp_path, capsys):
        from repro.cli import main

        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        store = SnapshotStore(tmp_path)
        store.save(tree, figure2_instance, variant, flat_shards=2)
        rc = main(["inspect-snapshot", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "format v3, shard 1/2" in out and "shard 2/2" in out
        assert "item_post_var" in out and "postings" in out
        assert "reprs" not in out
        assert "group subtotals" in out

    def test_empty_store_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["inspect-snapshot", str(tmp_path)])
        assert rc == 2
        assert "no CURRENT snapshot" in capsys.readouterr().err
