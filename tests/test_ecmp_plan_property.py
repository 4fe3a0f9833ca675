"""Property test: the ECMP router's hash plan follows every membership change.

:class:`repro.net.ecmp.EcmpEdgeRouter` keeps a per-group hash plan (salt
prefixes and hop tuple) next to its flow memo.  Whatever sequence of
``add_next_hop``, ``remove_next_hop`` and cache invalidations runs
between lookups, ``next_hop_for`` must make the decision the pure
:func:`repro.net.ecmp.select_next_hop_name` makes over the current
member names, for both hash schemes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.net.addressing import IPv6Address
from repro.net.ecmp import HASH_SCHEMES, EcmpEdgeRouter, select_next_hop_name
from repro.net.packet import FlowKey
from repro.net.router import NetworkNode
from repro.sim.engine import Simulator

STEERING = IPv6Address.parse("fd00:400::1")
VIP = IPv6Address.parse("fd00:300::1")
CLIENT = IPv6Address.parse("fd00:200::1")

#: Member names, deliberately not in insertion order when sorted.
NAMES = ("lb-b", "lb-a", "lb-10", "lb-2", "édge", "z", "lb-a2", "0")

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(NAMES)),
        st.tuples(st.just("remove"), st.sampled_from(NAMES)),
        st.tuples(st.just("invalidate"), st.just(None)),
        # A small port range, so flows come back after a change and hit
        # (or must miss) the memo.
        st.tuples(st.just("lookup"), st.integers(min_value=0, max_value=11)),
    ),
    max_size=60,
)


@given(scheme=st.sampled_from(HASH_SCHEMES), ops=operations)
@settings(max_examples=120, deadline=None)
def test_lookups_track_the_current_membership(scheme, ops):
    simulator = Simulator(seed=0)
    router = EcmpEdgeRouter(simulator, "edge", STEERING, hash_scheme=scheme)
    members = set()
    for op, argument in ops:
        if op == "add":
            if argument in members:
                with pytest.raises(RoutingError):
                    router.add_next_hop(NetworkNode(simulator, argument))
            else:
                router.add_next_hop(NetworkNode(simulator, argument))
                members.add(argument)
        elif op == "remove":
            assert router.remove_next_hop(argument) is (argument in members)
            members.discard(argument)
        elif op == "invalidate":
            router.invalidate_next_hop_cache()
        else:
            flow = FlowKey(CLIENT, 40000 + argument, VIP, 80)
            if not members:
                with pytest.raises(RoutingError):
                    router.next_hop_for(flow)
                continue
            expected = select_next_hop_name(sorted(members), flow, scheme)
            assert router.next_hop_for(flow).name == expected
            # A repeat lookup is a memo hit and must agree too.
            assert router.next_hop_for(flow).name == expected
