"""Serving: snapshot-based query serving over built category trees.

The offline pipeline (CTCR/CCT) *builds* trees; this subsystem *serves*
them: versioned on-disk snapshots (:mod:`repro.serving.snapshot`),
read-optimized per-snapshot indexes (:mod:`repro.serving.indexes`), a
thread-safe query engine with an LRU result cache
(:mod:`repro.serving.engine`), atomic hot swaps of rebuilt trees
(:mod:`repro.serving.hotswap`), a zero-dependency HTTP/JSON frontend
(:mod:`repro.serving.http`, CLI: ``python -m repro serve``), a
deterministic closed-loop load generator
(:mod:`repro.serving.loadgen`, benchmark: ``benchmarks/bench_serving.py``),
a versioned flat binary snapshot layout with delta-varint postings,
mapped read-only across worker processes (:mod:`repro.serving.shm`), a
multi-process SO_REUSEPORT supervisor serving it
(:mod:`repro.serving.supervisor`, CLI: ``python -m repro serve
--workers N``), and staged free-text query categorization with
confidence-thresholded back-off up the hierarchy
(:mod:`repro.serving.querycat`, CLI: ``python -m repro
categorize-query``).

There is one read path per tier: a single process serves the in-memory
:class:`SnapshotIndexes`; ``--workers N`` processes serve the mmap'ed
:class:`MmapSnapshotIndexes`. Both inherit the same scoring and
path-walk code and return bit-identical answers.

Quickstart::

    from repro.serving import ServingEngine, SnapshotStore

    store = SnapshotStore("snapshots/")
    store.save(tree, instance, variant)           # content-addressed
    engine = ServingEngine.from_snapshot(store.load())
    engine.best_category({"p1", "p2"})            # scored best category
    engine.categorize_item("p1")                  # branch placements
    engine.browse()                               # root navigation page
"""

from repro.serving.engine import (
    Generation,
    ServingEngine,
    ServingError,
    prepare_generation,
)
from repro.serving.hotswap import HotSwapper
from repro.serving.http import ServingHTTPServer, make_server, serve_in_background
from repro.serving.indexes import (
    BaseSnapshotIndexes,
    BestCategory,
    SnapshotIndexes,
    UnknownCategory,
)
from repro.serving.loadgen import (
    DEFAULT_MIX,
    HttpLoadGenResult,
    LoadGenResult,
    Request,
    build_workload,
    request_path,
    run_http_loadgen,
    run_loadgen,
)
from repro.serving.querycat import (
    DEFAULT_CONFIDENCE_THRESHOLD,
    DEFAULT_TOP_K,
    categorize_query,
    record_query_counters,
)
from repro.serving.shm import (
    FLAT_FORMAT_VERSION,
    SECTION_GROUPS,
    MmapSnapshotIndexes,
    compile_flat_indexes,
    decode_postings,
    describe_flat,
    encode_postings,
    flat_format_version,
    flat_header,
    prepare_mmap_generation,
)
from repro.serving.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    LoadedSnapshot,
    SnapshotError,
    SnapshotInfo,
    SnapshotStore,
    flat_file_name,
    variant_from_spec,
    variant_spec,
)
from repro.serving.supervisor import ServingSupervisor, WorkerConfig

__all__ = [
    "BaseSnapshotIndexes",
    "BestCategory",
    "DEFAULT_CONFIDENCE_THRESHOLD",
    "DEFAULT_MIX",
    "DEFAULT_TOP_K",
    "FLAT_FORMAT_VERSION",
    "Generation",
    "HotSwapper",
    "HttpLoadGenResult",
    "LoadGenResult",
    "LoadedSnapshot",
    "MmapSnapshotIndexes",
    "Request",
    "SECTION_GROUPS",
    "SNAPSHOT_FORMAT_VERSION",
    "ServingEngine",
    "ServingError",
    "ServingHTTPServer",
    "ServingSupervisor",
    "SnapshotError",
    "SnapshotIndexes",
    "SnapshotInfo",
    "SnapshotStore",
    "UnknownCategory",
    "WorkerConfig",
    "build_workload",
    "categorize_query",
    "compile_flat_indexes",
    "decode_postings",
    "describe_flat",
    "encode_postings",
    "flat_file_name",
    "flat_format_version",
    "flat_header",
    "make_server",
    "prepare_generation",
    "prepare_mmap_generation",
    "record_query_counters",
    "request_path",
    "run_http_loadgen",
    "run_loadgen",
    "serve_in_background",
    "variant_from_spec",
    "variant_spec",
]
