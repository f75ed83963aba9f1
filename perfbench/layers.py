"""Per-layer metrics and the closure tables of a traced run.

Build path: the traced build's wall time (``build_s`` of that build) is
split into the self times of the modules it calls, read from the
program's own ``Tracer`` spans plus the benchmark's outside timings of
``preprocess`` and ``SnapshotStore.save``; whatever no layer claims is
``unattributed_s``, so the rows add up to the build exactly.

Request path: the closed loop's client p50 is split into the engine
(in-process replay), the JSON encode and the HTTP residual, each at its
own p50; because medians do not add, the remainder is
``unattributed_ms``, and the rows add up to ``p50_ms`` exactly.
"""

from __future__ import annotations


def _span(build: dict, name: str) -> float:
    return sum(s["wall_s"] for s in build["spans"].values() if s["name"] == name)


def _count(build: dict, name: str) -> int:
    return int(build["counters"].get(name, 0))


def build_rows(build: dict) -> list[tuple[str, float]]:
    """(layer, self seconds) of one traced build, closed by unattributed."""
    rows = [
        ("repro.pipeline", build["steps"]["preprocess_s"]),
        ("repro.core.bitset", _span(build, "ctcr.pack")),
        (
            "repro.conflicts",
            _span(build, "ctcr.rank")
            + _span(build, "ctcr.two_conflicts")
            + _span(build, "ctcr.conflict_structure"),
        ),
        ("repro.mis", _span(build, "ctcr.mis")),
        (
            "repro.algorithms",
            sum(
                _span(build, f"ctcr.{stage}")
                for stage in ("skeleton", "assign", "intermediate", "condense")
            ),
        ),
        ("repro.serving.snapshot", build["steps"]["save_s"]),
    ]
    rows.append(("unattributed", build["build_s"] - sum(v for _, v in rows)))
    return rows


def serve_rows(serve: dict) -> list[tuple[str, float]]:
    """(layer, p50 ms) of the closed loop, closed by unattributed."""
    layers = serve["layers"]
    rows = [
        ("repro.serving.engine", serve["engine_p50_ms"]),
        ("http.encode", layers["http.encode_p50_ms"]),
        ("http.residual", layers["http.residual_p50_ms"]),
    ]
    rows.append(
        ("unattributed", serve["metrics"]["p50_ms"] - sum(v for _, v in rows))
    )
    return rows


def build_layer_metrics(traced: dict) -> dict[str, float]:
    pairs = _count(traced, "conflicts.pairs_enumerated")
    useful = _count(traced, "conflicts.two_conflicts") + _count(
        traced, "conflicts.must_together"
    )
    return {
        "pipeline.clean_s": _span(traced, "pipeline.clean"),
        "pipeline.result_sets_s": _span(traced, "pipeline.result_sets"),
        "pipeline.merge_s": _span(traced, "pipeline.merge"),
        "pipeline.queries_cleaned": _count(traced, "pipeline.queries_cleaned"),
        "pipeline.merged_sets": _count(traced, "pipeline.merged_sets"),
        "conflicts.pairwise_s": _span(traced, "conflicts.pairwise"),
        "conflicts.three_s": _span(traced, "conflicts.three"),
        "conflicts.pairs_enumerated": pairs,
        "conflicts.pair_yield": useful / pairs if pairs else 0.0,
        "mis.solve_s": _span(traced, "mis.solve"),
        "mis.components": _count(traced, "mis.components"),
        "mis.greedy_fallbacks": _count(traced, "mis.greedy_fallbacks"),
        "algorithms.skeleton_s": _span(traced, "ctcr.skeleton"),
        "algorithms.assign_s": _span(traced, "ctcr.assign"),
        "algorithms.intermediate_s": _span(traced, "ctcr.intermediate"),
        "algorithms.condense_s": _span(traced, "ctcr.condense"),
        "algorithms.intermediates_added": int(
            traced["gauges"].get("ctcr.diag.intermediates_added", 0)
        ),
        "bitset.words_touched": _count(traced, "bitset.words_touched"),
        "snapshot.save_s": traced["steps"]["save_s"],
        "snapshot.load_s": traced["load_s"],
    }


def format_table(title: str, rows: list[tuple[str, float]], total: float, unit: str) -> str:
    lines = [f"{title} (total {total:.4f} {unit}):"]
    for name, value in rows:
        share = value / total if total else 0.0
        lines.append(f"  {name:<26s} {value:12.4f} {unit:<3s} {share:7.1%}")
    lines.append(
        f"  {'sum of rows':<26s} {sum(v for _, v in rows):12.4f} {unit:<3s}"
    )
    return "\n".join(lines)
