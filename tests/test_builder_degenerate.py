"""Builders on degenerate catalogs, against the oracles in ``tests/oracles``.

Every instance takes the packed-bitset kernel path, however small, so
the shapes that stress its edge cases — no sets, one set, identical,
disjoint, nested, one giant superset, one item shared by all, and every
pair overlapping with none nested — are each pinned under every
variant:

* ``compute_pairwise`` equals the set-based oracle;
* ``set_embeddings`` equals the embedding oracle bit for bit;
* CTCR and CCT return valid trees, identical to the trees built from
  the oracles' outputs, whose offline ``score_tree`` equals the score
  the builder reports;
* each build finishes within :data:`WALL_BOUND_S`.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.algorithms.cct as cct_module
from repro.algorithms import CCT, CTCR
from repro.algorithms.cct import set_embeddings
from repro.algorithms.ctcr import BuildReuse
from repro.conflicts.two_conflicts import compute_pairwise
from repro.core import OCTInstance, make_instance, score_tree
from repro.io import tree_to_dict
from tests.oracles import (
    _set_embeddings_reference,
    oracle_pairwise,
    oracle_set_embeddings,
)
from tests.test_ctcr_equivalence import EQUIV_VARIANTS, assert_same_analysis

# These catalogs have at most a few dozen sets; a build that needs
# seconds here is a termination or blow-up bug, not a slow host.
WALL_BOUND_S = 5.0

N_SETS = 12


def _maximal_conflict_density():
    # Set i holds one item per partner j: every pair shares exactly one
    # item, and no set contains another.
    return [
        {f"p{min(i, j)}_{max(i, j)}" for j in range(N_SETS) if j != i}
        for i in range(N_SETS)
    ]


CATALOGS = {
    "empty": lambda: OCTInstance([], universe=[]),
    "single_set": lambda: make_instance([{"a", "b", "c"}]),
    "all_identical": lambda: make_instance(
        [{"a", "b", "c", "d"}] * N_SETS, weights=range(1, N_SETS + 1)
    ),
    "pairwise_disjoint": lambda: make_instance(
        [{f"x{i}", f"y{i}"} for i in range(N_SETS)]
    ),
    "nested_chain": lambda: make_instance(
        [{f"i{k}" for k in range(size)} for size in range(1, N_SETS + 1)]
    ),
    "giant_superset": lambda: make_instance(
        [{f"i{k}" for k in range(3 * N_SETS)}]
        + [{f"i{3 * s}", f"i{3 * s + 1}", f"i{3 * s + 2}"} for s in range(N_SETS)]
    ),
    "one_shared_item": lambda: make_instance(
        [{"shared", f"a{i}", f"b{i}"} for i in range(N_SETS)]
    ),
    "maximal_conflict_density": lambda: make_instance(
        _maximal_conflict_density()
    ),
}

pytestmark = [
    pytest.mark.parametrize("variant", EQUIV_VARIANTS, ids=str),
    pytest.mark.parametrize("catalog", sorted(CATALOGS)),
]


def timed(build):
    start = time.perf_counter()
    result = build()
    elapsed = time.perf_counter() - start
    assert elapsed < WALL_BOUND_S, f"build took {elapsed:.2f} s"
    return result


def assert_valid_and_scored(builder, instance, variant):
    """Build under the wall bound; check invariants and the score."""
    tree, report = timed(lambda: builder.build_scored(instance, variant))
    tree.validate(universe=instance.universe, bound=instance.bound)
    offline = score_tree(tree, instance, variant)
    assert offline.total == report.total
    assert offline.normalized == report.normalized
    assert 0.0 <= report.normalized <= 1.0
    return tree, report


def test_pairwise_matches_oracle(catalog, variant):
    instance = CATALOGS[catalog]()
    assert_same_analysis(
        oracle_pairwise(instance, variant), compute_pairwise(instance, variant)
    )


def test_embeddings_match_oracle(catalog, variant):
    instance = CATALOGS[catalog]()
    ref = _set_embeddings_reference(instance, variant)
    fast = set_embeddings(instance, variant)
    assert ref.shape == fast.shape == (len(instance), len(instance))
    assert np.array_equal(ref, fast)


def test_ctcr_builds_valid_tree(catalog, variant):
    instance = CATALOGS[catalog]()
    tree, report = assert_valid_and_scored(CTCR(), instance, variant)
    reuse = BuildReuse(analysis=oracle_pairwise(instance, variant))
    oracle_tree = timed(
        lambda: CTCR().build(instance, variant, reuse=reuse)
    )
    assert tree_to_dict(oracle_tree) == tree_to_dict(tree)
    assert score_tree(oracle_tree, instance, variant).total == report.total


def test_cct_builds_valid_tree(catalog, variant, monkeypatch):
    instance = CATALOGS[catalog]()
    tree, report = assert_valid_and_scored(CCT(), instance, variant)
    monkeypatch.setattr(cct_module, "set_embeddings", oracle_set_embeddings)
    oracle_tree = timed(lambda: CCT().build(instance, variant))
    assert tree_to_dict(oracle_tree) == tree_to_dict(tree)
    assert score_tree(oracle_tree, instance, variant).total == report.total
