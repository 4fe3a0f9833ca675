"""Property tests for the batch ECMP hash kernel.

:func:`repro.net.ecmp.select_next_hop_indices` must make exactly the
decision :func:`repro.net.ecmp.select_next_hop_name` (the data plane's
own selector) makes, key by key, for any hop set and either scheme; and
the scale family's port table built with it must agree with the scalar
:func:`repro.experiments.scale_experiment.pod_of_port`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.experiments.config import ScaleConfig
from repro.experiments.scale_experiment import _pod_by_port_table, pod_of_port
from repro.net.addressing import CLIENT_PREFIX, VIP_PREFIX
from repro.net.ecmp import (
    HASH_SCHEMES,
    five_tuple_key,
    select_next_hop_indices,
    select_next_hop_name,
)
from repro.net.packet import FlowKey
from repro.net.tcp import EPHEMERAL_PORT_BASE

# Hop names are arbitrary strings (duplicates included) that UTF-8 can
# encode, which excludes lone surrogates.
hop_names = st.lists(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
    min_size=1,
    max_size=8,
)
schemes = st.sampled_from(HASH_SCHEMES)


def _window(src_offset, first_port, dst_offset, dst_port, length):
    """``length`` consecutive source ports of one (source, VIP) pair."""
    src = CLIENT_PREFIX.address_at(src_offset)
    dst = VIP_PREFIX.address_at(dst_offset)
    return [
        FlowKey(src, (first_port + step) % 65536, dst, dst_port)
        for step in range(length)
    ]


@given(
    hops=hop_names,
    scheme=schemes,
    src_offset=st.integers(min_value=1, max_value=2**16),
    first_port=st.integers(min_value=0, max_value=65535),
    dst_offset=st.integers(min_value=1, max_value=2**16),
    dst_port=st.integers(min_value=1, max_value=65535),
    length=st.integers(min_value=0, max_value=64),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_the_scalar_selector_for_every_key(
    hops, scheme, src_offset, first_port, dst_offset, dst_port, length
):
    keys = _window(src_offset, first_port, dst_offset, dst_port, length)
    picks = select_next_hop_indices(hops, map(five_tuple_key, keys), scheme)
    assert picks.dtype == np.int64
    assert picks.shape == (length,)
    for key, pick in zip(keys, picks):
        assert pick == hops.index(select_next_hop_name(hops, key, scheme))


@given(
    pods=st.integers(min_value=1, max_value=8),
    scheme=schemes,
    num_queries=st.integers(min_value=8, max_value=3_000),
    samples=st.lists(st.integers(min_value=0), min_size=1, max_size=20),
)
@settings(max_examples=40, deadline=None)
def test_port_table_matches_pod_of_port(pods, scheme, num_queries, samples):
    config = ScaleConfig(pods=pods, num_queries=num_queries, ecmp_hash=scheme)
    table = _pod_by_port_table(config)
    for sample in samples:
        offset = sample % table.size
        assert table[offset] == pod_of_port(config, EPHEMERAL_PORT_BASE + offset)


def test_kernel_rejects_what_the_scalar_selector_rejects():
    with pytest.raises(RoutingError, match="no next hops"):
        select_next_hop_indices([], [])
    with pytest.raises(RoutingError, match="hash scheme"):
        select_next_hop_indices(["a"], [], "crc32")
