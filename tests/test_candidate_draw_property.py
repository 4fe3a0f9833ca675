"""Property test: the random candidate draw is numpy's ``choice``, draw for draw.

:meth:`repro.core.candidate_selection.RandomCandidateSelector.select`
replays ``Generator.choice(n, size=k, replace=False)`` with scalar
``integers`` calls (Floyd's sampling, then a Fisher-Yates pass) and
falls back to ``choice`` itself where numpy switches algorithm
(``n > 10000 and k > n // 50``).  Either way it must pick the same
servers, in the same order, and leave the generator in the same state,
or every seeded run after the first SYN would diverge.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.candidate_selection import (
    RandomCandidateSelector,
    SingleRandomSelector,
)
from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey

FLOW = FlowKey(IPv6Address.parse("fd00:200::1"), 40000, IPv6Address.parse("fd00:300::1"), 80)

seeds = st.integers(min_value=0, max_value=2**63 - 1)
#: Pool sizes on both sides of numpy's 10000 switch-over.
pool_sizes = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=20_000),
    st.integers(min_value=10_001, max_value=20_000),
)


@st.composite
def pools_and_sizes(draw):
    n = draw(pool_sizes)
    k = draw(st.integers(min_value=1, max_value=min(n, 500)))
    return n, k


def reference(rng, n, k):
    return rng.choice(n, size=k, replace=False).tolist()


@given(seed=seeds, pool=pools_and_sizes())
@settings(max_examples=300, deadline=None)
# Both sides of numpy's algorithm switch at n = 20000 (n // 50 = 400).
@example(seed=5, pool=(20_000, 400))
@example(seed=5, pool=(20_000, 401))
@example(seed=5, pool=(1, 1))
def test_select_matches_generator_choice(seed, pool):
    n, k = pool
    rng = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    selector = RandomCandidateSelector(rng, num_candidates=k)
    assert selector.select(FLOW, range(n)) == reference(ref, n, k)
    assert rng.bit_generator.state == ref.bit_generator.state


@given(
    seed=seeds,
    calls=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=40)),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=150, deadline=None)
def test_selectors_sharing_a_stream_match_interleaved_choices(seed, calls):
    # Tier deployments build one selector per instance from one
    # generator; their draws interleave on the shared stream.
    rng = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    pair = RandomCandidateSelector(rng, num_candidates=2)
    single = SingleRandomSelector(rng)
    for use_pair, n in calls:
        selector = pair if use_pair and n >= 2 else single
        k = selector.num_candidates
        assert selector.select(FLOW, range(n)) == reference(ref, n, k)
    assert rng.bit_generator.state == ref.bit_generator.state
