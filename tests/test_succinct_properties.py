"""Property tier for the compact flat layout (hypothesis).

The varint postings codec is checked against round-tripping, and
random catalogs check the whole mmap read path against the in-memory
one: batched categorize over the mapped flat files (1 or 3 shards)
equals the per-item loop over :class:`SnapshotIndexes`, and ancestor
tests agree with the tree's own parent links. The serving layers are
covered differentially on fixed catalogs in
``tests/test_serving_shm.py`` and ``tests/test_serving_succinct.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Variant, make_instance
from repro.serving import (
    Generation,
    MmapSnapshotIndexes,
    ServingEngine,
    compile_flat_indexes,
    decode_postings,
    encode_postings,
    flat_file_name,
)
from repro.serving.shm import concat_postings


class TestVarintProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**40), unique=True
        ).map(sorted)
    )
    def test_round_trip(self, values):
        assert decode_postings(encode_postings(values)) == values

    def test_empty_round_trip(self):
        assert encode_postings([]) == b""
        assert decode_postings(b"") == []

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_postings([3, 3])
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_postings([5, 2])

    def test_rejects_truncated(self):
        blob = encode_postings([0, 1000])
        with pytest.raises(ValueError, match="truncated"):
            decode_postings(blob[:-1])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=500), unique=True
            ).map(sorted),
            max_size=8,
        )
    )
    def test_concat_offsets_slice_back(self, lists):
        blob, offsets = concat_postings(lists)
        assert len(offsets) == len(lists) + 1
        assert offsets[-1] == len(blob)
        for i, values in enumerate(lists):
            assert decode_postings(blob[offsets[i]: offsets[i + 1]]) == values


# Random catalogs for the end-to-end property: batched categorize over
# the mmap backend equals the per-item loop over the in-memory one.
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


class TestBatchedCategorizeProperty:
    @settings(max_examples=30, deadline=None)
    @given(_instances, st.sampled_from([1, 3]))
    def test_batched_equals_per_item(self, tmp_path_factory, instance, shards):
        from repro.algorithms import CTCR

        variant = Variant.threshold_jaccard(0.6)
        tree = CTCR().build(instance, variant)
        memory = ServingEngine.from_tree(tree, instance, variant, cache_size=0)
        directory = tmp_path_factory.mktemp("flat")
        paths = []
        for shard_index, blob in enumerate(
            compile_flat_indexes(memory.current.indexes, shards=shards)
        ):
            paths.append(directory / flat_file_name(shard_index, shards))
            paths[-1].write_bytes(blob)
        with MmapSnapshotIndexes(paths) as mapped_indexes:
            mapped = ServingEngine(cache_size=0)
            mapped.publish(
                Generation(
                    tree=None,
                    instance=None,
                    variant=variant,
                    indexes=mapped_indexes,
                )
            )
            items = sorted(instance.universe, key=str) + ["__unknown__"]
            assert mapped.categorize_items(items) == [
                memory.categorize_item(item) for item in items
            ]
            for cat in tree.categories():
                ancestors = {c.cid for c in cat.path_from_root()}
                for other in tree.categories():
                    assert mapped_indexes.is_ancestor(other.cid, cat.cid) == (
                        other.cid in ancestors
                    )
