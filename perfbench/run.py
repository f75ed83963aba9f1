"""The repository benchmark: build path and request path, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out RESULT.json]

Workloads (see ``workloads.py`` and ``glossary.json``): build-scale and
serve-storefront, the two BENCHMARK.json lists, plus build-querylog and
serve-catalog, which run on demand. A run generates its catalogs from
the seed (set-up), builds and publishes each in a fresh child process,
then serves the first from ``repro serve`` for ``--seconds``: a closed
loop, a phase of hot swaps with reads beside them, and open-loop rate
ladder climbs. Every output is checked. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. A traced run also prints the layer tables
whose rows add up to ``build_s`` and ``p50_ms``. ``--out`` writes the
whole result with its environment stamp. Exits non-zero, printing no
result, when the program is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    WORK_ROOT,
    BenchError,
    child_env,
    env_stamp,
    median,
    require_program,
    timed,
    write_json,
)
from workloads import WORKLOADS, generate

DEFAULT_SEED = 0  # the seed whose snapshot ids glossary.json pins
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _glossary() -> dict:
    return json.loads((BENCH_DIR / "glossary.json").read_text())


def run_child(inputs: Path, store: Path, result: Path, trace: bool, pin) -> dict:
    """One build in a fresh interpreter; its result (or its failure)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        str(inputs), str(store), str(result), "--trace", str(int(trace)),
    ]
    if pin:
        cmd += ["--pin", pin]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"build child failed: {' | '.join(tail)}")
    return json.loads(result.read_text())


def run(workload, seed: int, seconds: float, trace: bool, work: Path,
        server_factory=None) -> dict:
    """One run of a workload (see the module docstring); the full result."""
    from serve import serve_stage

    name = workload.name
    pins = _glossary()["pinned_snapshot_ids"].get(name, [])

    # Set-up: generate the catalogs; the first one several times.
    gen_s = []
    for _ in range(SETUP_REPEATS):
        seconds_k, payload = timed(generate, workload, workload.catalog_seed(seed, 0))
        gen_s.append(seconds_k)
    inputs = []
    for k in range(workload.builds):
        if k:
            payload = generate(workload, workload.catalog_seed(seed, k))
        path = work / f"inputs-{k}.pkl"
        with open(path, "wb") as f:
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
        inputs.append(path)
    del payload

    # Build and publish every catalog, each in its own process.
    store = work / "store"
    builds = []
    for k, path in enumerate(inputs):
        pin = pins[k] if seed == DEFAULT_SEED and k < len(pins) else None
        builds.append(run_child(path, store, work / f"build-{k}.json", False, pin))
    traced = None
    if trace:
        traced = run_child(
            inputs[0], work / "store-traced", work / "build-traced.json", True, None
        )

    serve = serve_stage(
        workload, store, [b["snapshot_id"] for b in builds], seconds, seed,
        trace, work, server_factory,
    )

    failures = [f for b in builds for f in b["failures"]]
    failed_builds = sum(1 for b in builds if b["failures"])
    if traced is not None and traced["failures"]:
        failed_builds += 1
        failures += traced["failures"]
    attempted = len(builds) + (traced is not None) + serve["attempted"]
    failed = failed_builds + len(serve["failures"])
    setup_gen = median(gen_s)
    build_s = median(b["build_s"] for b in builds)
    e2e = {
        "setup_s": setup_gen + serve["server_start_s"],
        "peak_rss_mb": max(b["peak_rss_mb"] for b in builds),
        "tree_score": median(b["score"] for b in builds),
        "snapshot_bytes": median(b["snapshot_bytes"] for b in builds),
        **serve["metrics"],
    }
    result = {
        "workload": name,
        "env": env_stamp(seed),
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": (failures + serve["failures"])[:50],
        "end_to_end": e2e,
        "build_s": build_s,
        "setup": {"generate_s": gen_s, "server_start_s": serve["server_start_s"]},
        "builds": builds,
        "serve": {k: v for k, v in serve.items() if k not in ("failures", "metrics")},
    }
    if traced is not None:
        result["per_layer"] = _per_layer(
            workload, gen_s, build_s, builds[0], traced, serve
        )
        result["traced_build"] = traced
    return result


def _per_layer(workload, gen_s, build_s: float, untraced: dict, traced: dict,
               serve: dict) -> dict:
    from layers import build_layer_metrics, build_rows, serve_rows

    generate_s = median(gen_s)
    metrics = {
        "build_s": build_s,
        "catalog.load_s": generate_s if workload.kind == "querylog" else 0.0,
        "scale.generate_s": generate_s if workload.kind != "querylog" else 0.0,
    }
    metrics.update(build_layer_metrics(traced))
    metrics.update(serve["layers"])
    metrics["unattributed_s"] = dict(build_rows(traced))["unattributed"]
    metrics["unattributed_ms"] = dict(serve_rows(serve))["unattributed"]
    metrics["trace_overhead_pct"] = (
        100.0 * (traced["build_s"] - untraced["build_s"]) / untraced["build_s"]
    )
    return metrics


def result_line(result: dict, spec: dict, trace: bool) -> dict:
    """The last stdout line: end-to-end or per-layer metrics with units."""
    group = spec["per_layer" if trace else "end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group
        },
    }


def _report(result: dict, spec: dict) -> list[str]:
    from layers import build_rows, format_table, serve_rows

    lines = [f"workload {result['workload']}  env {json.dumps(result['env'])}"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = {
        **result["end_to_end"],
        "build_s": result["build_s"],
        "swap_s": result["serve"]["swap_s"],
        "rate_ok_rps": result["serve"]["rate_ok_rps"],
    }
    for name, value in shown.items():
        lines.append(f"  {name:<16s} {value:14.4f} {units[name]}")
    lines.append(
        f"  operations: attempted {result['attempted']}, failed {result['failed']}"
    )
    for failure in result["failures"][:10]:
        lines.append(f"  FAILED: {failure}")
    if "per_layer" in result:
        traced = result["traced_build"]
        lines.append(
            format_table("build layers (traced build)", build_rows(traced),
                         traced["build_s"], "s")
        )
        serve = result["serve"]
        lines.append(
            format_table("request layers (closed-loop p50)",
                         serve_rows({**serve, "metrics": result["end_to_end"]}),
                         result["end_to_end"]["p50_ms"], "ms")
        )
        lines.append(f"  cross-check vs server /stats: {json.dumps(serve['cross_check'])}")
        lines.append(
            f"  trace_overhead_pct {result['per_layer']['trace_overhead_pct']:.2f}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    try:
        require_program()
        spec = _spec()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if args.out is not None:
        write_json(args.out, result)
    for line in _report(result, spec):
        print(line)
    print(json.dumps(result_line(result, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
