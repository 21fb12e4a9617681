"""Bloom-differential harness: incremental refresh vs the rebuild-everything reference.

:meth:`ProbabilisticLocator.refresh_round` recomputes only the nodes
whose inputs moved, publishes each advertisement once as a shared value,
and probes filters with one mask per query.  The form it replaced, which
rebuilt every advertisement and copied it along every edge, lives in
``reference_bloom.py``.  Its contract is that nothing a query or the
byte ledger can observe changes.

A Hypothesis property draws small graphs and programs of ``add_object``,
``remove_object``, crash, revive, externally cleared ``neighbor_filters``,
penalties, ``refresh_round`` and ``converge``, and runs both locators over
one network.  After every step the advertisement bits, every node's
``neighbor_filters`` (bits and key order), ``stats_refresh_bytes`` and
``query()`` for every (node, GUID) pair are equal.  Every advertisement
the locator ever published still holds its publication bits at the end.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_bloom import ReferenceLocator
from repro.routing import ProbabilisticLocator
from repro.sim import Kernel, Network
from repro.util import GUID

GUIDS = tuple(GUID.hash_of(f"differential-{i}".encode()) for i in range(4))


@st.composite
def _graphs(draw):
    size = draw(st.integers(min_value=1, max_value=7))
    graph = nx.Graph()
    graph.add_nodes_from(range(size))
    if size > 1:
        pairs = st.tuples(
            st.integers(min_value=0, max_value=size - 1),
            st.integers(min_value=0, max_value=size - 1),
        ).filter(lambda pair: pair[0] != pair[1])
        for a, b in draw(st.lists(pairs, max_size=12)):
            graph.add_edge(a, b, latency_ms=draw(st.sampled_from([1.0, 5.0, 10.0])))
    return graph


_node = st.integers(min_value=0, max_value=6)
_guid = st.sampled_from(GUIDS)
_step = st.one_of(
    st.tuples(st.just("add"), _node, _guid),
    st.tuples(st.just("remove"), _node, _guid),
    st.tuples(st.just("down"), _node),
    st.tuples(st.just("up"), _node),
    st.tuples(st.just("clear"), _node),
    st.tuples(st.just("penalize"), _node, _node, st.sampled_from([0.5, 1.0, 2.0])),
    st.tuples(st.just("refresh")),
    st.tuples(st.just("converge")),
)


def _bits(ad):
    return tuple(level.bits for level in ad.levels)


def _apply(step, network, locators):
    kind, *args = step
    size = network.graph.number_of_nodes()
    if kind in ("add", "remove", "down", "up", "clear", "penalize"):
        args[0] %= size
    if kind == "add":
        for locator in locators:
            locator.add_object(*args)
    elif kind == "remove":
        for locator in locators:
            locator.remove_object(*args)
    elif kind in ("down", "up"):
        network.set_down(args[0], kind == "down")
    elif kind == "clear":
        for locator in locators:
            locator._nodes[args[0]].neighbor_filters.clear()
    elif kind == "penalize":
        node, neighbor, amount = args[0], args[1] % size, args[2]
        for locator in locators:
            locator.penalize(node, neighbor, amount)
    elif kind == "refresh":
        for locator in locators:
            locator.refresh_round()
    else:
        for locator in locators:
            locator.converge()


def _assert_equal(network, locator, reference):
    assert locator.stats_refresh_bytes == reference.stats_refresh_bytes
    for node in network.nodes():
        state, ref = locator._nodes[node], reference._nodes[node]
        assert _bits(state.advertisement) == _bits(ref.advertisement)
        assert list(state.neighbor_filters) == list(ref.neighbor_filters)
        for neighbor, ad in state.neighbor_filters.items():
            assert _bits(ad) == _bits(ref.neighbor_filters[neighbor])
        for guid in GUIDS:
            result = locator.query(node, guid)
            assert (
                result.found,
                result.location,
                result.path,
                result.latency_ms,
            ) == reference.query(node, guid)


@settings(max_examples=200, deadline=None)
@given(
    _graphs(),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([8, 16, 64]),
    st.integers(min_value=1, max_value=3),
    st.lists(_step, max_size=16),
)
def test_incremental_refresh_matches_reference(graph, depth, width, hashes, program):
    network = Network(Kernel(), graph)
    locator = ProbabilisticLocator(network, depth=depth, width=width, hashes=hashes)
    reference = ReferenceLocator(network, depth=depth, width=width, hashes=hashes)
    published = {}
    for step in program:
        _apply(step, network, (locator, reference))
        _assert_equal(network, locator, reference)
        for state in locator._nodes.values():
            for ad in (state.advertisement, *state.neighbor_filters.values()):
                published.setdefault(id(ad), (ad, _bits(ad)))
    for ad, bits in published.values():
        assert _bits(ad) == bits
