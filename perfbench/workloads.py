"""The four workloads: what each generates from its seed, builds and serves.

build-scale and serve-storefront are the ones BENCHMARK.json lists;
build-querylog and serve-catalog run on demand (see glossary.json).

Every workload runs the same stages: generate its catalogs from the seed
(set-up), build and publish one snapshot per catalog, each in a fresh
child process, then serve the first snapshot from ``repro serve`` under
its traffic mix, with a phase of hot swaps that cycle through the
published snapshots.
The workloads differ in where the work lands.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "querylog" (pipeline + CTCR), "scale" (CTCR), "planted"
    delta: float  # the threshold-jaccard variant's delta
    builds: int  # catalogs built (and published) per run
    mix: str  # request stream, see streams.MIXES
    dataset: str = ""  # querylog: named dataset
    scale: float | None = None  # querylog: load_dataset scale (None = default size)
    n_items: int = 0  # scale/planted: catalog size
    n_sets: int = 0

    def catalog_seed(self, seed: int, k: int) -> int:
        """Seed of the k-th catalog of a run (k-th build)."""
        return seed * 16 + k


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "build-querylog", "querylog", 0.8,
            builds=1, mix="storefront", dataset="D",
        ),
        Workload(
            "build-scale", "scale", 0.1,
            builds=6, mix="storefront", n_items=5_000, n_sets=400,
        ),
        Workload(
            "serve-storefront", "querylog", 0.8,
            builds=3, mix="storefront", dataset="C",
        ),
        Workload(
            "serve-catalog", "planted", 0.1,
            builds=2, mix="catalog", n_items=100_000, n_sets=5_000,
        ),
    )
}


def variant_of(workload: Workload):
    from repro.core import Variant

    return Variant.threshold_jaccard(workload.delta)


def _stringify_instance(instance):
    """Serve-ready copy: item ids as strings, as an HTTP client sends them."""
    from repro.core.input_sets import InputSet, OCTInstance

    return OCTInstance(
        [
            InputSet(
                sid=q.sid,
                items=frozenset(str(i) for i in q.items),
                weight=q.weight,
                threshold=q.threshold,
                label=q.label,
                source=q.source,
            )
            for q in instance
        ],
        universe=[str(i) for i in instance.universe],
    )


def generate(workload: Workload, catalog_seed: int) -> dict:
    """The generated inputs of one build: what the child receives.

    ``querylog`` hands over the raw dataset (query log, catalog, search
    engine); ``scale`` an OCT instance; ``planted`` an instance plus the
    planted taxonomy tree it was sampled from.
    """
    payload = {"kind": workload.kind, "variant": variant_of(workload)}
    if workload.kind == "querylog":
        from repro.catalog import load_dataset

        payload["dataset"] = load_dataset(
            workload.dataset, scale=workload.scale, seed=catalog_seed
        )
        return payload
    from repro.scale.generator import ExtremeCatalog, scaled_spec

    # The planted serving catalog gets uniform query weights, so that its
    # tree score is the covered share of all its sets rather than of the
    # few head sets; its traffic is skewed by the request stream instead.
    knobs = {"zipf_s": 0.0} if workload.kind == "planted" else {}
    catalog = ExtremeCatalog(
        scaled_spec(workload.n_items, workload.n_sets, seed=catalog_seed, **knobs)
    )
    payload["instance"] = _stringify_instance(catalog.instance())
    if workload.kind == "planted":
        tree = catalog.planted_tree()
        for cat in tree.categories():
            cat.items = {str(i) for i in cat.items}
        payload["tree"] = tree
    return payload
