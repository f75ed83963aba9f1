"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``build``     — build a tree for a synthetic dataset (or an instance
                  JSON) with a chosen algorithm/variant; optionally save
                  the tree as JSON.
* ``evaluate``  — score a saved tree against an instance.
* ``compare``   — run all five algorithms and print the score table.
* ``sweep``     — CTCR threshold sweep for one variant family.
* ``preprocess`` — run the Section 5.1 pipeline on a synthetic dataset
                  and export the resulting OCT instance as JSON.
* ``trends``    — report trending and fading queries in a dataset's log.
* ``serve``     — run the snapshot-based HTTP serving layer (build or
                  load a snapshot, answer categorize/browse/search
                  queries, hot-swap on demand).
* ``inspect-snapshot`` — print the flat binary snapshot's section table
                  (name, kind, count, bytes, % of total) per shard, with
                  per-group subtotals.
* ``categorize-query`` — map free-text queries onto the tree via the
                  staged decision procedure (exact label hit, token
                  overlap, confidence-thresholded back-off).
* ``analytics`` — offline serving analytics over run manifests: the
                  category-performance report (traffic share, coverage,
                  penetration) and the traffic-drift detector with its
                  rebuild recommendation.
* ``oct``       — alias for ``build`` (the paper's name for the problem).

Variants are spelled ``threshold-jaccard:0.8``, ``cutoff-f1:0.7``,
``perfect-recall:0.6``, or ``exact``.

Every command accepts the observability flags ``--trace`` (print the
span/counter tree after the run), ``--manifest PATH`` (write the
machine-readable run manifest JSON) and ``--profile PATH`` (dump
cProfile stats); see docs/operations.md.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.algorithms import CCT, CCTConfig, CTCR, CTCRConfig
from repro.algorithms.base import TreeBuilder
from repro.baselines import ExistingTree, ICQ, ICS
from repro.catalog import DATASET_SPECS, load_dataset
from repro.core import Variant, score_tree
from repro.evaluation import (
    delta_range,
    format_table,
    run_comparison,
    threshold_sweep,
)
from repro.catalog.trends import detect_trending_queries, fading_queries
from repro.io import dump_instance, dump_tree, load_instance, load_tree
from repro.mis.solver import MISConfig
from repro.observability import (
    RunManifest,
    Tracer,
    get_tracer,
    instance_fingerprint,
    use_tracer,
)
from repro.pipeline import preprocess


def parse_variant(spec: str) -> Variant:
    """Parse ``kind:delta`` variant specs (``exact`` has no delta)."""
    if spec == "exact":
        return Variant.exact()
    try:
        name, raw_delta = spec.split(":")
        delta = float(raw_delta)
    except ValueError as exc:
        raise SystemExit(
            f"bad variant {spec!r}; expected e.g. threshold-jaccard:0.8"
        ) from exc
    constructors = {
        "threshold-jaccard": Variant.threshold_jaccard,
        "cutoff-jaccard": Variant.cutoff_jaccard,
        "threshold-f1": Variant.threshold_f1,
        "cutoff-f1": Variant.cutoff_f1,
        "perfect-recall": Variant.perfect_recall,
    }
    if name not in constructors:
        raise SystemExit(
            f"unknown variant kind {name!r}; one of {sorted(constructors)}"
        )
    return constructors[name](delta)


def _load(args) -> tuple:
    """Resolve (instance, dataset-or-None) from CLI arguments."""
    variant = parse_variant(args.variant)
    if args.instance:
        instance, dataset = load_instance(args.instance), None
    else:
        dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        instance, _report = preprocess(dataset, variant)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.annotate("dataset.fingerprint", instance_fingerprint(instance))
    return instance, dataset, variant


def _jobs_arg(raw: str) -> int:
    """Validate --mis-jobs up front, before any dataset is loaded."""
    value = int(raw)
    if value != -1 and value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1, or -1 for all CPUs (got {value})"
        )
    return value


def _ctcr_config(args) -> CTCRConfig:
    """CTCR tuning from the common CLI flags (--mis-*)."""
    mis = MISConfig(
        n_jobs=getattr(args, "mis_jobs", 1),
        use_cache=getattr(args, "mis_cache", "on") == "on",
    )
    return CTCRConfig(mis=mis)


def _cct_config(args) -> CCTConfig:
    """CCT tuning from the common CLI flags (--cct-cache)."""
    return CCTConfig(use_cache=getattr(args, "cct_cache", "on") == "on")


def _builder(name: str, dataset, args=None) -> TreeBuilder:
    if name == "ctcr":
        return CTCR(_ctcr_config(args) if args is not None else None)
    if name == "cct":
        return CCT(_cct_config(args) if args is not None else None)
    if dataset is None:
        raise SystemExit(f"algorithm {name!r} needs a synthetic dataset")
    if name == "ic-s":
        return ICS(dataset.titles)
    if name == "ic-q":
        return ICQ()
    if name == "et":
        return ExistingTree(dataset.existing_tree)
    raise SystemExit(f"unknown algorithm {name!r}")


def _build_delta(args, instance, variant):
    """The ``--delta-from`` build path: reuse the store's carried state.

    Returns ``(tree, counters)``; ``counters`` is empty when the build
    fell back to (or bootstrapped with) a full build. The new snapshot
    and its build-state sidecar are saved into the store either way, so
    the next ``--delta-from`` run starts from this build.
    """
    from repro.incremental import (
        DeltaMismatchError,
        IncrementalBuilder,
        IncrementalStateStore,
    )
    from repro.serving import SnapshotStore

    store = SnapshotStore(args.delta_from)
    states = IncrementalStateStore(store.root)
    builder = IncrementalBuilder(_ctcr_config(args))
    current = store.current_id()
    state = states.load(current) if current else None
    counters: dict = {}
    if state is None:
        tree, new_state = builder.full_build(instance, variant)
        print(
            "no reusable state in store; ran a full build "
            f"({new_state.full_build_wall_s:.2f}s)"
        )
    else:
        try:
            result = builder.delta_build(state, instance, variant)
            tree, new_state, counters = (
                result.tree, result.state, result.counters,
            )
        except DeltaMismatchError as exc:
            get_tracer().count("incremental.fallbacks")
            print(f"delta state mismatch ({exc}); falling back to full build")
            tree, new_state = builder.full_build(instance, variant)
    info = store.save(tree, instance, variant)
    states.save(info.snapshot_id, new_state)
    print(f"snapshot {info.snapshot_id} saved to {store.root}")
    if counters:
        print(
            "delta build: "
            f"pairs reused/reclassified/added = "
            f"{counters['incremental.pairs_reused']:.0f}/"
            f"{counters['incremental.pairs_reclassified']:.0f}/"
            f"{counters['incremental.pairs_added']:.0f}, "
            f"components reused/resolved = "
            f"{counters['incremental.components_reused']:.0f}/"
            f"{counters['incremental.components_resolved']:.0f}, "
            f"wall {counters['incremental.delta_wall_s']:.2f}s "
            f"(last full build {counters['incremental.est_full_wall_s']:.2f}s)"
        )
    return tree


def cmd_build(args) -> int:
    instance, dataset, variant = _load(args)
    if getattr(args, "delta_from", None):
        if args.algorithm != "ctcr":
            raise SystemExit("--delta-from requires --algorithm ctcr")
        builder = _builder(args.algorithm, dataset, args)
        tree = _build_delta(args, instance, variant)
    else:
        builder = _builder(args.algorithm, dataset, args)
        tree = builder.build(instance, variant)
    tree.validate(universe=instance.universe, bound=instance.bound)
    report = score_tree(tree, instance, variant)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.annotate(
            "score",
            {
                "algorithm": builder.name,
                "normalized": report.normalized,
                "total": report.total,
                "covered": report.covered_count,
                "categories": len(tree),
            },
        )
    print(
        f"{builder.name}: score={report.normalized:.4f} "
        f"covered={report.covered_count}/{len(instance)} "
        f"categories={len(tree)}"
    )
    if args.output:
        dump_tree(tree, args.output)
        print(f"tree written to {args.output}")
    if args.show:
        print(tree.to_text())
    return 0


def cmd_evaluate(args) -> int:
    instance, _dataset, variant = _load(args)
    tree = load_tree(args.tree)
    report = score_tree(tree, instance, variant)
    print(
        f"score={report.normalized:.4f} "
        f"covered={report.covered_count}/{len(instance)}"
    )
    return 0


def cmd_compare(args) -> int:
    instance, dataset, variant = _load(args)
    names = ["ctcr", "cct", "ic-q", "ic-s", "et"] if dataset else ["ctcr", "cct"]
    builders = [_builder(n, dataset, args) for n in names]
    rows = run_comparison(builders, instance, variant)
    print(
        format_table(
            ["algorithm", "score", "covered", "categories", "seconds"],
            [
                [r.name, r.normalized_score, r.covered_count,
                 r.num_categories, round(r.seconds, 2)]
                for r in rows
            ],
        )
    )
    return 0


def cmd_sweep(args) -> int:
    instance, _dataset, variant = _load(args)
    deltas = delta_range(args.start, args.stop, args.step)
    points = threshold_sweep(CTCR(_ctcr_config(args)), instance, variant, deltas)
    print(
        format_table(
            ["delta", "score", "covered"],
            [[p.delta, p.normalized_score, p.covered_count] for p in points],
        )
    )
    return 0


def cmd_preprocess(args) -> int:
    variant = parse_variant(args.variant)
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    instance, report = preprocess(dataset, variant)
    print(
        f"{report.raw_queries} raw -> {report.after_cleaning} cleaned -> "
        f"{report.after_merging} candidate sets "
        f"(relevance threshold {report.relevance_threshold})"
    )
    dump_instance(instance, args.output)
    print(f"instance written to {args.output}")
    return 0


def cmd_serve(args) -> int:
    """Serve a category tree over HTTP (snapshot-backed, hot-swappable)."""
    from repro.labeling import apply_label_suggestions, suggest_labels
    from repro.serving import ServingEngine, SnapshotStore, make_server

    store = SnapshotStore(args.snapshot_dir) if args.snapshot_dir else None
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.workers > 1 and store is None:
        print(
            "error: --workers > 1 requires --snapshot-dir (worker "
            "processes coordinate through the store's CURRENT pointer)",
            file=sys.stderr,
        )
        return 2

    engine = None
    current = store.current_id() if store is not None else None
    if current is not None:
        info = store.info(current)
        print(
            f"loaded snapshot {info.snapshot_id} "
            f"(variant {info.variant}, score {info.score:.4f})"
        )
    else:
        instance, dataset, variant = _load(args)
        builder = _builder(args.algorithm, dataset, args)
        tree = builder.build(instance, variant)
        apply_label_suggestions(tree, suggest_labels(tree, instance, variant))
        if store is None:
            engine = ServingEngine.from_tree(
                tree, instance, variant, cache_size=args.cache_size
            )
        else:
            info = store.save(tree, instance, variant, flat_shards=args.shards)
            print(f"built and saved snapshot {info.snapshot_id}")

    # Worker processes map the snapshot themselves; only the in-process
    # tier deserializes it here.
    if args.workers > 1:
        return _serve_multi(args, store)
    if engine is None:
        engine = ServingEngine.from_snapshot(
            store.load(info.snapshot_id), cache_size=args.cache_size
        )
    server = make_server(
        engine, host=args.host, port=args.port,
        store=store, max_requests=args.max_requests,
    )
    return _serve_loop(server, engine)


def _serve_multi(args, store) -> int:
    """Run N SO_REUSEPORT worker processes on one mmap'd snapshot."""
    from repro.serving.supervisor import ServingSupervisor

    # Sharding is fixed at compile time; ensure the flat layout exists
    # with the requested shard count before the workers map it.
    paths = store.ensure_flat(store.current_id(), shards=args.shards)
    supervisor = ServingSupervisor(
        store,
        n_workers=args.workers,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        poll_interval=args.poll_interval,
        max_requests=args.max_requests,
    )
    supervisor.start()
    print(
        f"serving on {supervisor.base_url} with {args.workers} workers "
        f"(snapshot {store.current_id()}, {len(paths)} flat shard(s), "
        f"pids {supervisor.pids()})",
        flush=True,
    )
    try:
        if args.max_requests is not None:
            supervisor.join()
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        supervisor.stop()
    gauges = supervisor.gauges()
    print(
        f"stopped {args.workers} workers "
        f"({int(gauges['serving.workers.respawns'])} respawns)"
    )
    return 0


def _serve_loop(server, engine) -> int:
    """Announce the bound address and serve until shutdown/interrupt."""
    host, port = server.server_address[:2]
    print(
        f"serving on http://{host}:{port} "
        f"(generation {engine.generation}, snapshot "
        f"{engine.current.snapshot_id or '<in-memory>'})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()
    stats = engine.stats()
    print(
        f"served {stats['requests']} requests "
        f"(cache hit rate {stats['cache']['hit_rate']:.2f})"
    )
    return 0


def _query_engine(args):
    """Resolve a ServingEngine for offline query categorization.

    Mirrors ``cmd_serve``'s sourcing rules: serve the store's CURRENT
    snapshot when one exists, otherwise build from the dataset/instance
    flags (saving to the store when given).
    """
    from repro.labeling import apply_label_suggestions, suggest_labels
    from repro.serving import ServingEngine, SnapshotStore

    store = SnapshotStore(args.snapshot_dir) if args.snapshot_dir else None
    if store is not None and store.current_id() is not None:
        loaded = store.load()
        print(
            f"loaded snapshot {loaded.info.snapshot_id} "
            f"(variant {loaded.info.variant})"
        )
        return ServingEngine.from_snapshot(loaded)
    instance, dataset, variant = _load(args)
    builder = _builder(args.algorithm, dataset, args)
    tree = builder.build(instance, variant)
    apply_label_suggestions(tree, suggest_labels(tree, instance, variant))
    if store is not None:
        info = store.save(tree, instance, variant)
        print(f"built and saved snapshot {info.snapshot_id}")
        return ServingEngine.from_snapshot(store.load(info.snapshot_id))
    return ServingEngine.from_tree(tree, instance, variant)


def cmd_categorize_query(args) -> int:
    """Categorize free-text queries via the staged back-off procedure."""
    import json

    queries = list(args.query or [])
    if args.queries_file:
        with open(args.queries_file, encoding="utf-8") as f:
            queries.extend(line.strip() for line in f if line.strip())
    if not queries:
        print(
            "error: give at least one --query or a --queries-file",
            file=sys.stderr,
        )
        return 2
    engine = _query_engine(args)
    results = engine.categorize_queries(
        queries, threshold=args.confidence_threshold, top_k=args.top_k
    )
    if args.json:
        print(json.dumps(results, indent=2))
        return 0
    for result in results:
        if result["cid"] is None:
            print(f"{result['query']!r}: uncategorized ({result['stage']})")
            continue
        crumb = " > ".join(p["label"] for p in result["path"])
        print(
            f"{result['query']!r} -> {crumb} "
            f"[{result['stage']}, confidence {result['confidence']:.2f}]"
        )
    return 0


def cmd_analytics(args) -> int:
    """Offline serving analytics over recorded run manifests."""
    import json

    from repro.analytics import (
        category_performance,
        detect_traffic_drift,
        load_serving_counters,
    )
    from repro.serving import SnapshotStore
    from repro.serving.indexes import SnapshotIndexes

    store = SnapshotStore(args.snapshot_dir)
    if (args.snapshot or store.current_id()) is None:
        print(
            f"error: no CURRENT snapshot in {args.snapshot_dir}; "
            "pass --snapshot ID",
            file=sys.stderr,
        )
        return 2
    loaded = store.load(args.snapshot)
    indexes = SnapshotIndexes(loaded.tree, loaded.instance, loaded.variant)
    counters = load_serving_counters(args.manifests)

    if args.action == "report":
        report = category_performance(
            indexes,
            counters,
            instance=loaded.instance,
            min_share=args.min_traffic,
            top=args.top,
        )
        print(report.format_table())
        payload = report.to_dict()
    else:
        recommendation = detect_traffic_drift(
            indexes,
            loaded.instance,
            counters,
            relative_threshold=args.drift_threshold,
            min_share=args.min_traffic,
            rebuild_threshold=args.rebuild_threshold,
        )
        verdict = (
            "REBUILD RECOMMENDED"
            if recommendation.should_rebuild
            else "no rebuild needed"
        )
        print(f"{verdict}: {recommendation.reason}")
        for outlier in recommendation.drifted:
            print(
                f"  cid {outlier.key}: live {outlier.observed:.1%} vs "
                f"build {outlier.expected:.1%} ({outlier.ratio:.1f}x)"
            )
        payload = recommendation.to_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"JSON written to {args.output}")
    return 0


def cmd_inspect_snapshot(args) -> int:
    """Print the flat section table of a snapshot's shard files."""
    from pathlib import Path

    from repro.serving import SnapshotStore, describe_flat
    from repro.serving.shm import SECTION_GROUPS

    target = Path(args.dir)
    if (target / "manifest.json").exists():
        # A snapshot directory directly.
        paths = sorted(target.glob("indexes-*.flat"))
    else:
        store = SnapshotStore(target)
        snapshot_id = args.snapshot or store.current_id()
        if snapshot_id is None:
            print(
                f"error: no CURRENT snapshot in {target}; "
                "pass --snapshot ID",
                file=sys.stderr,
            )
            return 2
        paths = store.flat_paths(snapshot_id)
    if not paths:
        print(
            "error: no flat shard files found (backfill via "
            "SnapshotStore.ensure_flat)",
            file=sys.stderr,
        )
        return 2

    group_totals: dict[str, int] = {}
    grand_total = 0
    for path in paths:
        info = describe_flat(path)
        total = sum(s["bytes"] for s in info["sections"]) or 1
        header = info["header"]
        print(
            f"{path.name}: format v{info['format_version']}, "
            f"shard {header['shard_index'] + 1}/{header['shard_count']}, "
            f"{info['file_bytes']} bytes on disk"
        )
        print(
            format_table(
                ["section", "group", "kind", "count", "bytes", "%"],
                [
                    [
                        s["name"], s["group"], s["kind"], s["count"],
                        s["bytes"], round(100.0 * s["bytes"] / total, 1),
                    ]
                    for s in info["sections"]
                ],
            )
        )
        for s in info["sections"]:
            group_totals[s["group"]] = (
                group_totals.get(s["group"], 0) + s["bytes"]
            )
            grand_total += s["bytes"]

    print("group subtotals (all shards):")
    print(
        format_table(
            ["group", "bytes", "%"],
            [
                [g, b, round(100.0 * b / (grand_total or 1), 1)]
                for g, b in sorted(
                    group_totals.items(), key=lambda kv: -kv[1]
                )
            ],
        )
    )
    unknown = set(group_totals) - set(SECTION_GROUPS) - {"?"}
    if unknown:  # pragma: no cover - future formats
        print(f"note: unrecognized groups {sorted(unknown)}")
    return 0


def cmd_shape(args) -> int:
    """Shape a saved tree against an explicit serving budget."""
    import json as _json

    from repro.shaping import (
        CostModel,
        ShapingBudget,
        TreeShaper,
        calibrate_cost_model,
    )

    instance, _dataset, variant = _load(args)
    tree = load_tree(args.tree)
    budget = ShapingBudget(
        max_query_ns=args.max_query_ns,
        max_snapshot_bytes=args.max_snapshot_bytes,
        max_depth=args.max_depth,
        max_children=args.max_children,
    )
    if args.calibrate == "on":
        model = calibrate_cost_model(tree, instance, variant)
    else:
        model = CostModel()
    result = TreeShaper(instance, variant, model).shape(tree, budget)
    print(
        f"budget {'met' if result.met else 'NOT met'}: "
        f"query {result.cost_before.expected_query_ns:.0f} -> "
        f"{result.cost_after.expected_query_ns:.0f} ns, "
        f"snapshot {result.cost_before.snapshot_bytes} -> "
        f"{result.cost_after.snapshot_bytes} bytes"
    )
    print(
        f"categories {result.cost_before.n_categories} -> "
        f"{result.cost_after.n_categories} "
        f"(depth-capped {result.depth_capped}, width-pruned "
        f"{result.width_pruned}, hub splits {result.hub_splits})"
    )
    print(
        f"score {result.score_before:.4f} -> {result.score_after:.4f} "
        f"(gave up {result.quality_given_up:.4f})"
    )
    if args.output:
        dump_tree(result.tree, args.output)
        print(f"shaped tree written to {args.output}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            _json.dump(result.to_dict(), f, indent=2, sort_keys=True)
        print(f"shaping report written to {args.report}")
    return 0 if result.met else 1


def cmd_synthesize(args) -> int:
    """Generate an extreme-scale synthetic catalog deterministically."""
    from repro.scale import ExtremeCatalog, ScaleSpec

    spec = ScaleSpec(
        n_items=args.items,
        n_sets=args.sets,
        n_nodes=args.nodes,
        seed=args.seed,
        zipf_s=args.zipf,
        size_zipf_s=args.size_zipf,
        fanin_alpha=args.fanin_alpha,
        overlap=args.overlap,
        conflict_density=args.conflict_density,
        min_set_size=args.min_set_size,
        max_set_size=args.max_set_size,
    )
    catalog = ExtremeCatalog(spec)
    stats = catalog.stats()
    print(
        f"{stats['n_items']} items, {stats['n_sets']} sets, "
        f"{stats['n_nodes']} planted nodes ({stats['n_leaves']} leaves, "
        f"depth {stats['max_depth']}, max fan-out {stats['max_fanout']}), "
        f"seed {stats['seed']}"
    )
    if args.fingerprint:
        print(f"fingerprint {catalog.fingerprint()}")
    if args.output:
        dump_instance(catalog.instance(), args.output)
        print(f"instance written to {args.output}")
    if args.tree_output:
        dump_tree(catalog.planted_tree(), args.tree_output)
        print(f"planted tree written to {args.tree_output}")
    return 0


def cmd_trends(args) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    trending = detect_trending_queries(dataset.query_log, window=args.window)
    fading = fading_queries(dataset.query_log, window=args.window)
    print(f"trending queries (last {args.window} days):")
    for t in trending[:10]:
        lift = "new" if t.lift == float("inf") else f"{t.lift:.1f}x"
        print(f"  {t.text!r}: {t.recent_daily:.1f}/day ({lift})")
    if not trending:
        print("  (none)")
    print("fading queries:")
    for q in fading[:10]:
        print(f"  {q.text!r}")
    if not fading:
        print("  (none)")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automated category-tree construction (SIGMOD'22 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dataset",
            choices=sorted(DATASET_SPECS),
            default="A",
            help="synthetic dataset to generate (default: A)",
        )
        p.add_argument(
            "--instance",
            help="path to an instance JSON (overrides --dataset)",
        )
        p.add_argument("--scale", type=float, default=None,
                       help="scale relative to paper size (default: repro)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--variant",
            default="threshold-jaccard:0.8",
            help="e.g. threshold-jaccard:0.8, perfect-recall:0.6, exact",
        )
        p.add_argument(
            "--mis-jobs",
            type=_jobs_arg,
            default=1,
            help="worker processes for the hypergraph MIS stage: "
            "conflict components solve in parallel "
            "(-1 = all CPUs, default: 1)",
        )
        p.add_argument(
            "--mis-cache",
            choices=["on", "off"],
            default="on",
            help="memoize solved MIS components across builds in this "
            "process — threshold sweeps re-solve near-identical "
            "conflict structures per delta (default: on)",
        )
        p.add_argument(
            "--cct-cache",
            choices=["on", "off"],
            default="on",
            help="memoize CCT's pairwise intersection counts across "
            "builds in this process — threshold sweeps re-derive "
            "embeddings from cached counts per delta (default: on)",
        )
        p.add_argument(
            "--trace",
            action="store_true",
            help="collect per-stage spans/counters and print them "
            "after the run",
        )
        p.add_argument(
            "--manifest",
            metavar="PATH",
            help="write a machine-readable run manifest JSON here "
            "(implies tracing)",
        )
        p.add_argument(
            "--profile",
            metavar="PATH",
            help="dump cProfile stats of the run here (implies tracing)",
        )

    # "oct" is the paper's name for the problem; both spellings build one
    # tree with identical flags.
    for cmd_name, cmd_help in (
        ("build", "build one tree"),
        ("oct", "alias for build"),
    ):
        p_build = sub.add_parser(cmd_name, help=cmd_help)
        add_common(p_build)
        p_build.add_argument(
            "--algorithm",
            choices=["ctcr", "cct", "ic-s", "ic-q", "et"],
            default="ctcr",
        )
        p_build.add_argument("--output", help="write the tree JSON here")
        p_build.add_argument("--show", action="store_true",
                             help="print the tree structure")
        p_build.add_argument(
            "--delta-from",
            metavar="DIR",
            help="snapshot-store directory: delta-build against its "
            "CURRENT snapshot's saved state (full build when absent), "
            "then save the result back as a new snapshot (ctcr only)",
        )
        p_build.set_defaults(func=cmd_build)

    p_eval = sub.add_parser("evaluate", help="score a saved tree")
    add_common(p_eval)
    p_eval.add_argument("--tree", required=True, help="tree JSON path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="run all algorithms")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="CTCR threshold sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--start", type=float, default=0.5)
    p_sweep.add_argument("--stop", type=float, default=1.0)
    p_sweep.add_argument("--step", type=float, default=0.1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_prep = sub.add_parser(
        "preprocess", help="export a preprocessed instance JSON"
    )
    add_common(p_prep)
    p_prep.add_argument("--output", required=True, help="instance JSON path")
    p_prep.set_defaults(func=cmd_preprocess)

    p_trends = sub.add_parser("trends", help="trending/fading queries")
    add_common(p_trends)
    p_trends.add_argument("--window", type=int, default=14)
    p_trends.set_defaults(func=cmd_trends)

    p_serve = sub.add_parser(
        "serve", help="serve a tree over HTTP (snapshots + hot swap)"
    )
    add_common(p_serve)
    p_serve.add_argument(
        "--algorithm",
        choices=["ctcr", "cct", "ic-s", "ic-q", "et"],
        default="ctcr",
        help="builder used when no stored snapshot exists yet",
    )
    p_serve.add_argument(
        "--snapshot-dir",
        metavar="PATH",
        help="snapshot store directory: serve its CURRENT snapshot when "
        "one exists, otherwise build from the dataset/instance flags and "
        "save the result there (omit to serve a one-off in-memory build)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8077,
        help="TCP port (0 picks a free port; default: 8077)",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=4096,
        help="LRU result-cache capacity in entries (0 disables caching)",
    )
    p_serve.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="shut down after N requests (smoke tests and CI; "
        "default: serve forever)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="serve from N worker processes sharing the port via "
        "SO_REUSEPORT, each mmap-ing the snapshot's flat layout "
        "(requires --snapshot-dir; default: 1, in-process)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="split the flat snapshot's item data into N shard files "
        "(category tree replicated per shard; default: 1)",
    )
    p_serve.add_argument(
        "--poll-interval", type=float, default=0.25, metavar="SECONDS",
        help="how often workers poll the store's CURRENT pointer for "
        "hot swaps (default: 0.25)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_querycat = sub.add_parser(
        "categorize-query",
        help="map free-text queries onto the tree (staged back-off)",
    )
    add_common(p_querycat)
    p_querycat.add_argument(
        "--algorithm",
        choices=["ctcr", "cct", "ic-s", "ic-q", "et"],
        default="ctcr",
        help="builder used when no stored snapshot exists yet",
    )
    p_querycat.add_argument(
        "--snapshot-dir",
        metavar="PATH",
        help="snapshot store directory: categorize against its CURRENT "
        "snapshot when one exists, otherwise build from the dataset/"
        "instance flags and save the result there (omit for a one-off "
        "in-memory build)",
    )
    p_querycat.add_argument(
        "--query",
        action="append",
        metavar="TEXT",
        help="a query to categorize (repeatable)",
    )
    p_querycat.add_argument(
        "--queries-file",
        metavar="PATH",
        help="file with one query per line (combined with --query)",
    )
    p_querycat.add_argument(
        "--confidence-threshold",
        type=float,
        default=None,
        metavar="X",
        help="back off up the hierarchy below this stage confidence "
        "(default: 0.5)",
    )
    p_querycat.add_argument(
        "--top-k",
        type=int,
        default=None,
        metavar="N",
        help="label-search candidates feeding the overlap and back-off "
        "stages (default: 10)",
    )
    p_querycat.add_argument(
        "--json",
        action="store_true",
        help="print the full result JSON instead of one line per query",
    )
    p_querycat.set_defaults(func=cmd_categorize_query)

    p_analytics = sub.add_parser(
        "analytics",
        help="offline serving analytics: category report + drift detection",
    )
    add_common(p_analytics)
    p_analytics.add_argument(
        "action",
        choices=["report", "drift"],
        help="report: per-category traffic/coverage/penetration rollup; "
        "drift: compare live traffic against build-time weights and "
        "recommend a rebuild",
    )
    p_analytics.add_argument(
        "--manifests",
        action="append",
        required=True,
        metavar="PATH",
        help="run-manifest JSON file, or a directory of them "
        "(repeatable; counters sum across manifests)",
    )
    p_analytics.add_argument(
        "--snapshot-dir",
        required=True,
        metavar="PATH",
        help="snapshot store holding the tree the traffic was served from",
    )
    p_analytics.add_argument(
        "--snapshot",
        metavar="ID",
        help="analyze this snapshot id instead of CURRENT",
    )
    p_analytics.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="only the N heaviest report rows (default: all)",
    )
    p_analytics.add_argument(
        "--min-traffic",
        type=float,
        default=0.02,
        metavar="SHARE",
        help="ignore categories below this traffic share in report rows "
        "and drift outliers (default: 0.02)",
    )
    p_analytics.add_argument(
        "--drift-threshold",
        type=float,
        default=2.0,
        metavar="X",
        help="per-category relative divergence factor worth flagging "
        "(default: 2.0)",
    )
    p_analytics.add_argument(
        "--rebuild-threshold",
        type=float,
        default=0.25,
        metavar="TV",
        help="total-variation distance between live and build-time "
        "traffic shares that triggers a rebuild recommendation "
        "(default: 0.25)",
    )
    p_analytics.add_argument(
        "--output",
        metavar="PATH",
        help="also write the report/recommendation JSON here",
    )
    p_analytics.set_defaults(func=cmd_analytics)

    p_inspect = sub.add_parser(
        "inspect-snapshot",
        help="print a flat snapshot's section table (bytes per section)",
    )
    add_common(p_inspect)
    p_inspect.add_argument(
        "dir",
        help="a snapshot store root (inspects its CURRENT snapshot) or "
        "one snapshot directory",
    )
    p_inspect.add_argument(
        "--snapshot",
        metavar="ID",
        help="inspect this snapshot id instead of CURRENT (store roots "
        "only)",
    )
    p_inspect.set_defaults(func=cmd_inspect_snapshot)

    p_shape = sub.add_parser(
        "shape",
        help="reshape a saved tree to meet a serving latency/memory "
        "budget, reporting the score it gave up (exit 1 when the "
        "budget cannot be met)",
    )
    add_common(p_shape)
    p_shape.add_argument("--tree", required=True, help="tree JSON path")
    p_shape.add_argument(
        "--max-query-ns",
        type=float,
        default=None,
        help="expected per-query serving budget in nanoseconds under "
        "the cost model (default: unbounded)",
    )
    p_shape.add_argument(
        "--max-snapshot-bytes",
        type=int,
        default=None,
        help="snapshot size budget in bytes, measured with the "
        "varint postings codec (default: unbounded)",
    )
    p_shape.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="collapse subtrees below this depth (default: unbounded)",
    )
    p_shape.add_argument(
        "--max-children",
        type=int,
        default=None,
        help="split hub categories until no node has more children "
        "than this (default: unbounded)",
    )
    p_shape.add_argument(
        "--calibrate",
        choices=["on", "off"],
        default="off",
        help="fit the cost model by timing the serving read path on "
        "this tree and workload before shaping (default: off = "
        "built-in constants)",
    )
    p_shape.add_argument("--output", help="write the shaped tree JSON here")
    p_shape.add_argument(
        "--report", help="write the shaping result JSON here"
    )
    p_shape.set_defaults(func=cmd_shape)

    p_synth = sub.add_parser(
        "synthesize",
        help="generate an extreme-scale synthetic catalog (seeded, "
        "byte-reproducible across processes and Python versions)",
    )
    add_common(p_synth)
    p_synth.add_argument(
        "--items", type=int, default=100000,
        help="catalog item universe size (default: 100000)",
    )
    p_synth.add_argument(
        "--sets", type=int, default=2000,
        help="candidate category (input set) count (default: 2000)",
    )
    p_synth.add_argument(
        "--nodes", type=int, default=None,
        help="planted taxonomy node count (default: max(16, sets/4))",
    )
    p_synth.add_argument(
        "--zipf", type=float, default=1.05,
        help="Zipf exponent of the query-weight distribution "
        "(default: 1.05)",
    )
    p_synth.add_argument(
        "--size-zipf", type=float, default=1.1,
        help="Zipf exponent of the leaf item-quota distribution "
        "(default: 1.1)",
    )
    p_synth.add_argument(
        "--fanin-alpha", type=float, default=0.6,
        help="preferential-attachment copying probability driving the "
        "power-law category fan-in (default: 0.6)",
    )
    p_synth.add_argument(
        "--overlap", type=float, default=0.15,
        help="fraction of sets borrowing items from a sibling branch "
        "(default: 0.15)",
    )
    p_synth.add_argument(
        "--conflict-density", type=float, default=0.05,
        help="fraction of sets spanning two unrelated branches "
        "(default: 0.05)",
    )
    p_synth.add_argument(
        "--min-set-size", type=int, default=4,
        help="smallest candidate set (default: 4)",
    )
    p_synth.add_argument(
        "--max-set-size", type=int, default=64,
        help="largest candidate set before overlap/conflict unions "
        "(default: 64)",
    )
    p_synth.add_argument(
        "--fingerprint", action="store_true",
        help="print the dataset's streaming sha256 fingerprint",
    )
    p_synth.add_argument(
        "--output", help="write the materialized instance JSON here"
    )
    p_synth.add_argument(
        "--tree-output", help="write the planted taxonomy JSON here"
    )
    p_synth.set_defaults(func=cmd_synthesize)

    return parser


def _run_config(args) -> dict:
    """The manifest's record of what was asked for (flag values)."""
    skip = {"func", "trace", "manifest", "profile"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _run_observed(args) -> int:
    """Run one command under a tracer; report as the flags request."""
    import cProfile

    profiler = cProfile.Profile() if args.profile else None
    with use_tracer(Tracer()) as tracer:
        with tracer.span(f"cli.{args.command}"):
            if profiler is not None:
                profiler.enable()
            try:
                rc = args.func(args)
            finally:
                if profiler is not None:
                    profiler.disable()
    if profiler is not None:
        profiler.dump_stats(args.profile)
        print(f"profile written to {args.profile}", file=sys.stderr)
    if args.trace:
        print(tracer.format_tree(), file=sys.stderr)
    if args.manifest:
        manifest = RunManifest.collect(
            tracer, tool=f"repro {args.command}", config=_run_config(args)
        )
        manifest.save(args.manifest)
        print(f"manifest written to {args.manifest}", file=sys.stderr)
    return rc


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "trace", False) or getattr(args, "manifest", None) \
            or getattr(args, "profile", None):
        return _run_observed(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
