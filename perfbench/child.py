"""One build in a fresh process: catalog in hand -> tree published as CURRENT.

Usage (the benchmark runs this; it is not a user command)::

    python3 perfbench/child.py INPUTS.pkl STORE_DIR RESULT.json --trace 0|1
        [--pin SNAPSHOT_ID]

``INPUTS.pkl`` holds the generated inputs of one catalog (see
:func:`workloads.generate`); the benchmark wrote it, so unpickling it is
safe. The timed region is preprocess (query-log catalogs) -> CTCR.build
(or the planted tree) -> ``SnapshotStore.save`` with ``CURRENT``
activated. Peak RSS is read right after publishing; the output checks
run afterwards and count the build as failed when any of them fails.
With ``--trace 1`` a :class:`repro.observability.Tracer` is installed
for the build and its spans and counters are written to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pickle
import sys
import time
from pathlib import Path

from common import dir_bytes, require_program, vm_hwm_mb, write_json


def _shape(node: dict) -> tuple:
    """A tree payload without cids (a reload numbers categories afresh)."""
    return (
        node["label"],
        tuple(node["items"]),
        tuple(node["matched_sids"]),
        tuple(_shape(child) for child in node["children"]),
    )


def check_published(
    store, info, tree, instance, pin: str | None
) -> tuple[list[str], float]:
    """Output checks of one published build: failures, ``store.load`` seconds.

    * the built tree is valid for the instance's universe and bounds;
    * ``CURRENT`` names the snapshot, the files on disk digest to its id
      (a tampered file fails), and ``store.load()`` returns that id and
      the tree that was built;
    * an offline ``score_tree`` of the reloaded snapshot equals the
      score its manifest records;
    * for the default seed, the id equals the pinned one.
    """
    from repro.core import score_tree
    from repro.core.exceptions import ReproError
    from repro.io import tree_to_dict
    from repro.serving.snapshot import snapshot_digest

    failures = []
    try:
        tree.validate(instance.universe, instance.bound)
    except ReproError as exc:
        failures.append(f"tree.validate: {exc}")
    if store.current_id() != info.snapshot_id:
        failures.append(f"CURRENT is {store.current_id()}, not {info.snapshot_id}")
    t0 = time.perf_counter()
    try:
        loaded = store.load()
    except (ReproError, ValueError) as exc:
        return failures + [f"store.load: {exc}"], 0.0
    load_s = time.perf_counter() - t0
    directory = store.root / info.snapshot_id
    try:
        on_disk = snapshot_digest(
            json.loads((directory / "tree.json").read_text(encoding="utf-8")),
            json.loads((directory / "instance.json").read_text(encoding="utf-8")),
            loaded.variant,
        )
    except (OSError, ValueError) as exc:
        on_disk = f"unreadable ({exc})"
    if on_disk != info.snapshot_id:
        failures.append(f"snapshot files digest to {on_disk}, not {info.snapshot_id}")
    if loaded.info.snapshot_id != info.snapshot_id:
        failures.append(f"store.load() returned {loaded.info.snapshot_id}")
    if _shape(tree_to_dict(loaded.tree)["root"]) != _shape(tree_to_dict(tree)["root"]):
        failures.append("reloaded tree differs from the built tree")
    offline = score_tree(loaded.tree, loaded.instance, loaded.variant).normalized
    if offline != info.score:
        failures.append(f"offline score {offline!r} != manifest score {info.score!r}")
    if pin is not None and info.snapshot_id != pin:
        failures.append(f"snapshot {info.snapshot_id} != pinned {pin}")
    return failures, load_s


def build(payload: dict, store_dir: Path, trace: bool, pin: str | None) -> dict:
    from repro.algorithms.ctcr import CTCR
    from repro.observability import Tracer, use_tracer
    from repro.pipeline.preprocess import preprocess
    from repro.serving import SnapshotStore

    # SnapshotStore.save imports these lazily; load them before the clock
    # starts so that module loading is not timed as build work.
    import repro.serving.indexes  # noqa: F401
    import repro.serving.shm  # noqa: F401

    variant = payload["variant"]
    store = SnapshotStore(store_dir)
    tracer = Tracer() if trace else None
    scope = use_tracer(tracer) if trace else contextlib.nullcontext()
    with scope:
        t0 = time.perf_counter()
        if payload["kind"] == "querylog":
            instance, _report = preprocess(payload["dataset"], variant)
        else:
            instance = payload["instance"]
        t1 = time.perf_counter()
        if payload["kind"] == "planted":
            tree = payload["tree"]
        else:
            tree = CTCR().build(instance, variant)
        t2 = time.perf_counter()
        info = store.save(tree, instance, variant)
        t3 = time.perf_counter()
    peak_rss = vm_hwm_mb()
    steps = {"preprocess_s": t1 - t0, "build_tree_s": t2 - t1, "save_s": t3 - t2}
    failures, load_s = check_published(store, info, tree, instance, pin)
    result = {
        "build_s": t3 - t0,
        "steps": steps,
        "load_s": load_s,
        "peak_rss_mb": peak_rss,
        "snapshot_id": info.snapshot_id,
        "score": info.score,
        "n_categories": info.n_categories,
        "snapshot_bytes": dir_bytes(store.root / info.snapshot_id),
        "failures": failures,
    }
    if tracer is not None:
        result["spans"] = {p: s.to_dict() for p, s in tracer.spans.items()}
        result["counters"] = dict(tracer.counters)
        result["gauges"] = dict(tracer.gauges)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", type=Path)
    parser.add_argument("store", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", default=None)
    args = parser.parse_args(argv)
    require_program()
    with open(args.inputs, "rb") as f:
        payload = pickle.load(f)
    write_json(args.result, build(payload, args.store, bool(args.trace), args.pin))
    return 0


if __name__ == "__main__":
    sys.exit(main())
