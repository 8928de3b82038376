"""The pure-Python branch-and-bound search kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from simdom._kernels import pure
from simdom.generators import random_graph


def test_pure_kernel_small_cases():
    # single edge: the degree-1 rule takes the neighbour of vertex 0
    mask, nodes = pure.vc_search(2, [0b10, 0b01])
    assert mask == 0b10
    assert nodes >= 1
    # triangle: two vertices
    mask, _ = pure.vc_search(3, [0b110, 0b101, 0b011])
    assert bin(mask).count("1") == 2
    # empty graph
    mask, _ = pure.vc_search(3, [0, 0, 0])
    assert mask == 0


def test_pure_kernel_node_budget():
    masks = [0b111111 & ~(1 << i) for i in range(6)]  # K6
    with pytest.raises(RuntimeError):
        pure.vc_search(6, masks, 1)


def test_pure_kernel_search_is_pinned():
    # Cover and node count of the search as it stands; a change to the
    # search order, reductions or bound must update these on purpose.
    pinned = [
        # (n, m, seed, cover_mask, nodes)
        (12, 30, 1, 2421, 9),
        (16, 40, 2, 31224, 11),
        (20, 60, 3, 781784, 25),
        (24, 70, 4, 4127397, 15),
        (30, 90, 5, 662513517, 33),
    ]
    for n, m, seed, cover_mask, nodes in pinned:
        g = random_graph(n, m, seed=seed)
        assert pure.vc_search(n, g.adjacency_masks()) == (cover_mask, nodes)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=24),
    st.floats(min_value=0.0, max_value=0.6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_target_at_or_below_the_optimum_keeps_the_cover(n, density, seed, data):
    m = int(density * n * (n - 1) / 2)
    adj = random_graph(n, m, seed=seed).adjacency_masks()
    mask, nodes = pure.vc_search(n, adj)
    target = data.draw(st.integers(min_value=-1, max_value=mask.bit_count()))
    targeted_mask, targeted_nodes = pure.vc_search(n, adj, 0, target)
    assert targeted_mask == mask
    assert targeted_nodes <= nodes

