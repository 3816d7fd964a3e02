"""Tests for rank placement policies."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import (
    block_placement,
    ranks_on_node,
    round_robin_placement,
    validate_placement,
)


def test_block_placement_fills_in_order():
    assert block_placement(6, 3, 2) == [0, 0, 1, 1, 2, 2]


def test_block_placement_partial_last_node():
    assert block_placement(5, 3, 2) == [0, 0, 1, 1, 2]


def test_round_robin_placement_cycles():
    assert round_robin_placement(6, 3, 2) == [0, 1, 2, 0, 1, 2]


def test_placement_rejects_oversubscription():
    with pytest.raises(ValueError):
        block_placement(7, 3, 2)
    with pytest.raises(ValueError):
        round_robin_placement(0, 3, 2)


def test_ranks_on_node():
    placement = block_placement(6, 3, 2)
    assert ranks_on_node(placement, 1) == [2, 3]
    assert ranks_on_node(placement, 5) == []


def test_validate_placement_accepts_legal():
    validate_placement([0, 1, 0, 1], n_nodes=2, cores_per_node=2)


def test_validate_placement_rejects_bad_node():
    with pytest.raises(ValueError):
        validate_placement([0, 5], n_nodes=2, cores_per_node=2)


def test_validate_placement_rejects_oversubscribed():
    with pytest.raises(ValueError):
        validate_placement([0, 0, 0], n_nodes=2, cores_per_node=2)


def test_validate_placement_names_first_invalid_rank():
    with pytest.raises(ValueError) as err:
        validate_placement([0, 1, -1, 7, 1], n_nodes=2, cores_per_node=4)
    assert str(err.value) == "rank 2 placed on invalid node -1"
    with pytest.raises(ValueError) as err:
        validate_placement([0, 2, -1], n_nodes=2, cores_per_node=4)
    assert str(err.value) == "rank 1 placed on invalid node 2"


def test_validate_placement_names_first_oversubscribed_node():
    """Two oversubscribed nodes: the one appearing first in rank order is
    named, whatever its id and whichever node overflows first."""
    placement = [1, 3, 0, 3, 3, 1, 1, 3]
    with pytest.raises(ValueError) as err:
        validate_placement(placement, n_nodes=4, cores_per_node=2)
    assert str(err.value) == "node 1 oversubscribed: 3 ranks > 2 cores"
    with pytest.raises(ValueError) as err:
        validate_placement([2] + placement, n_nodes=4, cores_per_node=2)
    assert str(err.value) == "node 1 oversubscribed: 3 ranks > 2 cores"
    with pytest.raises(ValueError) as err:
        validate_placement([3] + placement, n_nodes=4, cores_per_node=3)
    assert str(err.value) == "node 3 oversubscribed: 5 ranks > 3 cores"


def test_validate_placement_invalid_node_reported_before_oversubscription():
    with pytest.raises(ValueError, match="rank 3 placed on invalid node 9"):
        validate_placement([0, 0, 0, 9], n_nodes=2, cores_per_node=1)


@given(
    n_nodes=st.integers(1, 20),
    cores=st.integers(1, 16),
    data=st.data(),
)
def test_placements_always_valid_property(n_nodes, cores, data):
    n_ranks = data.draw(st.integers(1, n_nodes * cores))
    for policy in (block_placement, round_robin_placement):
        placement = policy(n_ranks, n_nodes, cores)
        assert len(placement) == n_ranks
        validate_placement(placement, n_nodes, cores)


@given(n_nodes=st.integers(1, 10), cores=st.integers(1, 8))
def test_block_placement_is_monotone(n_nodes, cores):
    placement = block_placement(n_nodes * cores, n_nodes, cores)
    assert placement == sorted(placement)
    # block placement keeps whole nodes contiguous in rank order — the
    # property group division relies on
    for node in range(n_nodes):
        ranks = ranks_on_node(placement, node)
        assert ranks == list(range(min(ranks), max(ranks) + 1))
