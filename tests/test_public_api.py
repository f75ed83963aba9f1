"""The public API surface: everything in __all__ must resolve."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.algorithms",
    "repro.baselines",
    "repro.catalog",
    "repro.clustering",
    "repro.conflicts",
    "repro.core",
    "repro.embeddings",
    "repro.evaluation",
    "repro.maintenance",
    "repro.mis",
    "repro.observability",
    "repro.pipeline",
    "repro.scale",
    "repro.search",
    "repro.serving",
    "repro.shaping",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted(package):
    module = importlib.import_module(package)
    assert list(module.__all__) == sorted(module.__all__), package


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_readme_quickstart_runs():
    """The README's quickstart snippet must stay executable."""
    from repro import CTCR, Variant, make_instance, score_tree

    instance = make_instance(
        [
            {"a", "b", "c", "d", "e"},
            {"a", "b"},
            {"c", "d", "e", "f"},
            {"a", "b", "f", "g", "h"},
        ],
        weights=[2.0, 1.0, 1.0, 1.0],
    )
    variant = Variant.perfect_recall(0.8)
    tree = CTCR().build(instance, variant)
    tree.validate(universe=instance.universe, bound=instance.bound)
    assert score_tree(tree, instance, variant).normalized == 0.8


def test_serving_has_one_read_path():
    """No representation or bitset switch is left on the serving surface."""
    import inspect

    import repro.serving as serving

    for gone in ("EulerTour", "TREE_REPRS", "BITSET_FANIN_THRESHOLD"):
        assert gone not in serving.__all__
    with pytest.raises(ImportError):
        importlib.import_module("repro.serving.succinct")
    assert issubclass(serving.UnknownCategory, KeyError)
    for api in (
        serving.SnapshotIndexes,
        serving.MmapSnapshotIndexes,
        serving.ServingEngine.from_snapshot,
        serving.ServingEngine.from_tree,
        serving.HotSwapper,
        serving.ServingSupervisor,
        serving.WorkerConfig,
        serving.make_server,
        serving.prepare_generation,
        serving.prepare_mmap_generation,
        serving.SnapshotStore.save,
        serving.SnapshotStore.ensure_flat,
        serving.compile_flat_indexes,
    ):
        params = inspect.signature(api).parameters
        assert "tree_repr" not in params and "use_bitset" not in params, api
