"""Cross-process consistency tier, part 1: the flat mmap snapshot layout.

The multi-process serving design only works if the mmap'd flat layout is
*bit-identical* to the in-memory indexes — same integers, same IEEE-754
floats, same dict orders — because N worker processes answering the same
request must be indistinguishable. These tests pin that:

- differential: every read op of :class:`MmapSnapshotIndexes` equals
  :class:`SnapshotIndexes` on the paper examples, a real dataset, all
  variants, sharded and unsharded, over trees built by every builder
  intersection engine (``--bitset`` auto/off/on);
- crash injection: torn, truncated, wrong-magic, corrupt-header and
  future-version flat files are rejected structurally (never a wrong
  answer, never a leaked fd);
- property-based: random catalogs round-trip through compile + mmap.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import CTCR, CTCRConfig
from repro.core import Variant, make_instance
from repro.labeling import apply_label_suggestions, suggest_labels
from repro.serving import (
    FLAT_FORMAT_VERSION,
    MmapSnapshotIndexes,
    SnapshotError,
    SnapshotStore,
    compile_flat_indexes,
    flat_file_name,
    UnknownCategory,
    prepare_mmap_generation,
)
from repro.serving.indexes import SnapshotIndexes
from repro.serving.shm import FLAT_MAGIC, _PREFIX, encode_item, shard_of


def build_labeled_tree(instance, variant, use_bitset=None):
    tree = CTCR(CTCRConfig(use_bitset=use_bitset)).build(instance, variant)
    apply_label_suggestions(tree, suggest_labels(tree, instance, variant))
    return tree


def write_flat(tmp_path, indexes, shards=1):
    """Compile and write flat shard files; returns their paths."""
    paths = []
    for shard_index, blob in enumerate(
        compile_flat_indexes(indexes, shards=shards)
    ):
        path = tmp_path / flat_file_name(shard_index, shards)
        path.write_bytes(blob)
        paths.append(path)
    return paths


def assert_identical(mem: SnapshotIndexes, mm: MmapSnapshotIndexes, queries):
    """Every read op must agree exactly (values, floats, and dict order)."""
    assert mm.root_cid == mem.root_cid
    assert mm.n_categories == mem.n_categories
    assert mm.variant == mem.variant
    assert list(mm.sizes) == list(mem._cids)

    for cid in mem._cids:
        assert mm.sizes[cid] == mem.sizes[cid]
        assert mm.depths[cid] == mem.depths[cid]
        assert mm.parent_of[cid] == mem.parent_of[cid]
        assert mm.children_of[cid] == mem.children_of[cid]
        assert mm.label_of(cid) == mem.label_of(cid)
        assert mm.path_to_root(cid) == mem.path_to_root(cid)
        cat = mm.category(cid)
        assert cat.label == mem.by_cid[cid].label
        assert cat.depth == mem.depths[cid]
        assert cat.n_items == mem.sizes[cid]
    for backend in (mem, mm):
        with pytest.raises(UnknownCategory):
            backend.category(max(mem._cids) + 1)

    items = sorted(mem.item_rows, key=str)
    for item in items + ["__definitely_not_an_item__", ("un", "hashable")]:
        assert mm.placements(item) == mem.placements(item)
        assert mm.postings(item) == mem.postings(item)

    for query in queries:
        got = mm.intersection_counts(frozenset(query))
        want = mem.intersection_counts(frozenset(query))
        assert got == want
        assert list(got) == list(want)  # same (pre-)order, not just equal
        best_mm = mm.best_category(frozenset(query))
        best_mem = mem.best_category(frozenset(query))
        assert best_mm == best_mem  # exact float equality via dataclass eq

    for text in ["shirt", "black shirt", "nike", "category", "zzz missing"]:
        assert mm.find_labels(text) == mem.find_labels(text)
        assert mm.find_labels(text, top_k=2) == mem.find_labels(text, top_k=2)


def queries_for(instance):
    qs = [q.items for q in instance.sets]
    qs.append(frozenset(list(instance.universe)[:3]) | {"__unknown__"})
    qs.append(frozenset({"__only_unknown__"}))
    return qs


class TestDifferentialIdentity:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("use_bitset", [False, True])  # builder engine
    def test_figure2_all_variants(
        self, figure2_instance, all_variants, tmp_path, shards, use_bitset
    ):
        for i, variant in enumerate(all_variants):
            tree = build_labeled_tree(figure2_instance, variant, use_bitset)
            mem = SnapshotIndexes(tree, figure2_instance, variant)
            sub = tmp_path / f"v{i}"
            sub.mkdir()
            paths = write_flat(sub, mem, shards=shards)
            with MmapSnapshotIndexes(paths) as mm:
                assert mm.shard_count == shards
                assert_identical(mem, mm, queries_for(figure2_instance))

    def test_example32(self, example32_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(example32_instance, variant)
        mem = SnapshotIndexes(tree, example32_instance, variant)
        paths = write_flat(tmp_path, mem, shards=2)
        with MmapSnapshotIndexes(paths) as mm:
            assert_identical(mem, mm, queries_for(example32_instance))

    @pytest.mark.parametrize("use_bitset", [False, True, None])  # builder
    def test_tiny_dataset(self, tiny_dataset, tmp_path, use_bitset):
        from repro.pipeline import preprocess

        variant = Variant.threshold_jaccard(0.6)
        instance, _ = preprocess(tiny_dataset, variant)
        tree = build_labeled_tree(instance, variant, use_bitset)
        mem = SnapshotIndexes(tree, instance, variant)
        paths = write_flat(tmp_path, mem, shards=4)
        with MmapSnapshotIndexes(paths) as mm:
            assert_identical(mem, mm, queries_for(instance))

    def test_sharded_equals_unsharded(self, figure2_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        mem = SnapshotIndexes(tree, figure2_instance, variant)
        (tmp_path / "s1").mkdir()
        (tmp_path / "s5").mkdir()
        one = write_flat(tmp_path / "s1", mem, shards=1)
        many = write_flat(tmp_path / "s5", mem, shards=5)
        with MmapSnapshotIndexes(one) as a, MmapSnapshotIndexes(many) as b:
            for q in queries_for(figure2_instance):
                assert a.intersection_counts(frozenset(q)) == (
                    b.intersection_counts(frozenset(q))
                )
                assert a.best_category(frozenset(q)) == (
                    b.best_category(frozenset(q))
                )

    def test_compile_is_deterministic(self, figure2_instance):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        mem = SnapshotIndexes(tree, figure2_instance, variant)
        assert compile_flat_indexes(mem, shards=3) == (
            compile_flat_indexes(mem, shards=3)
        )


class TestStoreIntegration:
    def test_save_emits_flat_alongside_json(self, figure2_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        store = SnapshotStore(tmp_path)
        info = store.save(tree, figure2_instance, variant, flat_shards=2)
        paths = store.flat_paths(info.snapshot_id)
        assert [p.name for p in paths] == [
            flat_file_name(0, 2), flat_file_name(1, 2)
        ]

    def test_flat_matches_round_tripped_snapshot(
        self, figure2_instance, tmp_path
    ):
        # The flat file must agree with what a JSON reload serves (the
        # round-tripped tree), not with the pre-save in-memory tree.
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        store = SnapshotStore(tmp_path)
        info = store.save(tree, figure2_instance, variant)
        loaded = store.load(info.snapshot_id)
        mem = SnapshotIndexes(loaded.tree, loaded.instance, loaded.variant)
        with MmapSnapshotIndexes(store.flat_paths(info.snapshot_id)) as mm:
            assert_identical(mem, mm, queries_for(figure2_instance))

    def test_ensure_flat_compiles_for_old_snapshots(
        self, figure2_instance, tmp_path
    ):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        store = SnapshotStore(tmp_path)
        info = store.save(tree, figure2_instance, variant)
        for path in store.flat_paths(info.snapshot_id):
            path.unlink()  # simulate a snapshot from before the flat layout
        assert store.flat_paths(info.snapshot_id) == []
        paths = store.ensure_flat(info.snapshot_id, shards=2)
        assert len(paths) == 2
        assert store.ensure_flat(info.snapshot_id) == paths  # idempotent

    def test_ensure_flat_unknown_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(SnapshotError, match="no snapshot"):
            store.ensure_flat("snap-doesnotexist")

    def test_prepare_mmap_generation(self, figure2_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        store = SnapshotStore(tmp_path)
        info = store.save(tree, figure2_instance, variant)
        generation = prepare_mmap_generation(store)
        assert generation.snapshot_id == info.snapshot_id
        assert generation.tree is None and generation.instance is None
        assert isinstance(generation.indexes, MmapSnapshotIndexes)
        generation.indexes.close()

    def test_prepare_mmap_generation_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(SnapshotError, match="no current snapshot"):
            prepare_mmap_generation(store)


class TestCrashInjection:
    @pytest.fixture()
    def flat_path(self, figure2_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        mem = SnapshotIndexes(tree, figure2_instance, variant)
        return write_flat(tmp_path, mem)[0]

    def test_wrong_magic(self, flat_path):
        blob = bytearray(flat_path.read_bytes())
        blob[:4] = b"NOPE"
        flat_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="bad magic"):
            MmapSnapshotIndexes([flat_path])

    def test_truncated_tail(self, flat_path):
        blob = flat_path.read_bytes()
        flat_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError, match="torn or truncated"):
            MmapSnapshotIndexes([flat_path])

    def test_truncated_to_almost_nothing(self, flat_path):
        flat_path.write_bytes(flat_path.read_bytes()[:5])
        with pytest.raises(SnapshotError, match="truncated"):
            MmapSnapshotIndexes([flat_path])

    def test_torn_trailer(self, flat_path):
        # A partially-flushed write: right length, trailer never landed.
        blob = bytearray(flat_path.read_bytes())
        blob[-12:] = b"\0" * 12
        flat_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="torn or truncated"):
            MmapSnapshotIndexes([flat_path])

    def test_future_format_version(self, flat_path):
        blob = bytearray(flat_path.read_bytes())
        header_len = len(blob) - _PREFIX.size  # keep length field intact
        blob[:_PREFIX.size] = _PREFIX.pack(
            FLAT_MAGIC,
            FLAT_FORMAT_VERSION + 1,
            struct.unpack_from("<Q", blob, 8)[0],
        )
        flat_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="newer than supported"):
            MmapSnapshotIndexes([flat_path])

    def test_corrupt_header_json(self, flat_path):
        blob = bytearray(flat_path.read_bytes())
        blob[_PREFIX.size: _PREFIX.size + 8] = b"{broken!"
        flat_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="corrupt header"):
            MmapSnapshotIndexes([flat_path])

    def test_incomplete_shard_set(self, figure2_instance, tmp_path):
        variant = Variant.threshold_jaccard(0.6)
        tree = build_labeled_tree(figure2_instance, variant)
        mem = SnapshotIndexes(tree, figure2_instance, variant)
        paths = write_flat(tmp_path, mem, shards=3)
        with pytest.raises(SnapshotError, match="expected 3 flat shards"):
            MmapSnapshotIndexes(paths[:2])

    def test_empty_path_list(self):
        with pytest.raises(SnapshotError, match="no flat snapshot"):
            MmapSnapshotIndexes([])

    def test_rejected_files_leak_no_descriptors(self, flat_path):
        import resource

        blob = bytearray(flat_path.read_bytes())
        blob[:4] = b"NOPE"
        flat_path.write_bytes(bytes(blob))
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        # Far more attempts than any fd headroom: a leak would hit EMFILE.
        for _ in range(min(soft + 64, 4096)):
            with pytest.raises(SnapshotError):
                MmapSnapshotIndexes([flat_path])


class TestEncoding:
    def test_unencodable_item_fails_compile(self, tmp_path):
        instance = make_instance([{frozenset({"x"}), "a"}], weights=[1.0])
        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(instance, variant)
        mem = SnapshotIndexes(tree, instance, variant)
        with pytest.raises(SnapshotError, match="JSON-representable"):
            compile_flat_indexes(mem)

    def test_encode_item_canonical(self):
        assert encode_item("a") == b'"a"'
        assert encode_item(3) == b"3"
        assert encode_item(("a",)) == b'["a"]'  # tuples render as arrays
        assert encode_item(frozenset({"x"})) is None
        assert encode_item(float("nan")) is None

    def test_shard_of_stable(self):
        assert shard_of(b'"a"', 1) == 0
        assert 0 <= shard_of(b'"a"', 7) < 7
        assert shard_of(b'"a"', 7) == shard_of(b'"a"', 7)


# Random catalogs: JSON-representable items, a couple of variants.
_instances = st.lists(
    st.tuples(
        st.sets(
            st.one_of(st.integers(0, 12), st.sampled_from("abcdefgh")),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=0.1, max_value=5.0),
    ),
    min_size=1,
    max_size=6,
).map(
    lambda pairs: make_instance(
        [p[0] for p in pairs], weights=[p[1] for p in pairs]
    )
)

_variants = st.sampled_from(
    [
        Variant.exact(),
        Variant.perfect_recall(0.6),
        Variant.threshold_jaccard(0.6),
        Variant.cutoff_f1(0.7),
    ]
)


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(_instances, _variants, st.integers(1, 4))
    def test_random_catalogs_round_trip(
        self, tmp_path_factory, instance, variant, shards
    ):
        tree = CTCR().build(instance, variant)
        mem = SnapshotIndexes(tree, instance, variant)
        tmp_path = tmp_path_factory.mktemp("flat")
        paths = write_flat(tmp_path, mem, shards=shards)
        with MmapSnapshotIndexes(paths) as mm:
            assert_identical(mem, mm, [q.items for q in instance.sets])
