"""Tests for the utility helpers."""

import time

import pytest

from repro.utils import Timer, make_rng, parallel_map
from repro.utils.parallel import chunked, resolve_jobs
from repro.utils.rng import derive_rng


def double_chunk(chunk):
    return [x * 2 for x in chunk]


class TestParallel:
    def test_serial_map(self):
        assert parallel_map(double_chunk, [1, 2, 3]) == [2, 4, 6]

    def test_parallel_map_matches_serial(self):
        items = list(range(50))
        assert parallel_map(double_chunk, items, n_jobs=2) == [
            x * 2 for x in items
        ]

    def test_empty_input(self):
        assert parallel_map(double_chunk, []) == []

    def test_chunked_partitions(self):
        chunks = chunked(list(range(10)), 3)
        assert [x for c in chunks for x in c] == list(range(10))
        assert len(chunks) == 3

    def test_chunked_more_chunks_than_items(self):
        assert chunked([1, 2], 10) == [[1], [2]]

    def test_chunked_empty_sequence(self):
        assert chunked([], 4) == []

    def test_chunked_single_chunk(self):
        assert chunked([1, 2, 3], 1) == [[1, 2, 3]]

    def test_chunked_nonpositive_chunks_clamp_to_one(self):
        assert chunked([1, 2, 3], 0) == [[1, 2, 3]]

    def test_chunked_balanced_sizes(self):
        chunks = chunked(list(range(11)), 3)
        assert sorted(len(c) for c in chunks) == [3, 4, 4]

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(-1) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_resolve_jobs_all_cpus(self):
        import os

        assert resolve_jobs(-1) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestRng:
    def test_seeded_reproducible(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_none_is_fixed_default(self):
        assert make_rng(None).random() == make_rng(0).random()

    def test_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_derive_streams_independent(self):
        base = make_rng(3)
        a = derive_rng(base, "stream-a")
        base2 = make_rng(3)
        b = derive_rng(base2, "stream-b")
        assert a.random() != b.random()

    def test_derive_deterministic(self):
        a = derive_rng(make_rng(3), "s")
        b = derive_rng(make_rng(3), "s")
        assert a.random() == b.random()


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005
