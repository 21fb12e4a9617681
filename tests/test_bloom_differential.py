"""Bloom-differential harness: incremental, deferred refresh vs the rebuild-everything reference.

:meth:`ProbabilisticLocator.refresh_round` recomputes only the nodes
whose inputs moved, publishes each advertisement once as a shared value,
and probes filters with one mask per query.  :meth:`~ProbabilisticLocator.converge`
charges its rounds at once and runs them at the next read of filter
state.  The form it replaced, which rebuilt every advertisement, copied
it along every edge and converged on the spot, lives in
``reference_bloom.py``.  Its contract is that nothing a query or the
byte ledger can observe changes.

Hypothesis draws small graphs and programs of ``add_object``,
``remove_object``, crash, revive, cleared ``neighbor_filters``,
penalties, ``refresh_round``, ``converge`` and reads, and runs both
locators over one network.  Two properties check them:

- every step: after each step the advertisement bits, every node's
  ``neighbor_filters`` (bits and key order), ``stats_refresh_bytes`` and
  ``query()`` for every (node, GUID) pair are equal, and every
  advertisement the locator ever published still holds its publication
  bits at the end;
- deferred converge: filter state is compared only at ``read`` steps and
  at the end, so the rounds of a pending converge cross content,
  liveness, clear and penalty steps before they run.  The byte ledger,
  which converge charges at once, is compared after every step.
"""

import networkx as nx
from hypothesis import example, given, settings
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
    st.tuples(st.just("read")),
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
            locator.clear_neighbor_filters(args[0])
    elif kind == "penalize":
        node, neighbor, amount = args[0], args[1] % size, args[2]
        for locator in locators:
            locator.penalize(node, neighbor, amount)
    elif kind == "refresh":
        for locator in locators:
            locator.refresh_round()
    elif kind == "converge":
        for locator in locators:
            locator.converge()


def _assert_equal(network, locator, reference):
    assert locator.stats_refresh_bytes == reference.stats_refresh_bytes
    for node in network.nodes():
        assert _bits(locator.advertisement(node)) == _bits(reference.advertisement(node))
        received = locator.neighbor_filters(node)
        expected = reference.neighbor_filters(node)
        assert list(received) == list(expected)
        for neighbor, ad in received.items():
            assert _bits(ad) == _bits(expected[neighbor])
        for guid in GUIDS:
            result = locator.query(node, guid)
            assert (
                result.found,
                result.location,
                result.path,
                result.latency_ms,
            ) == reference.query(node, guid)


def _record_published(network, locator, published):
    for node in network.nodes():
        for ad in (locator.advertisement(node), *locator.neighbor_filters(node).values()):
            published.setdefault(id(ad), (ad, _bits(ad)))


#: steps for the deferred property: converge and liveness changes each
#: make up about a third, so pending rounds often cross a liveness change
_deferred_step = st.one_of(
    _step, st.tuples(st.just("converge")), st.tuples(st.sampled_from(("down", "up")), _node)
)
#: a path 0 - 1 - 2, for the pinned examples
_PATH = nx.path_graph(3)
nx.set_edge_attributes(_PATH, 1.0, "latency_ms")

#: graph, depth, width, hashes
_shape = (
    _graphs(),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([8, 16, 64]),
    st.integers(min_value=1, max_value=3),
)


@settings(max_examples=200, deadline=None)
@given(*_shape, st.lists(_step, max_size=16))
def test_incremental_refresh_matches_reference(graph, depth, width, hashes, program):
    network = Network(Kernel(), graph)
    locator = ProbabilisticLocator(network, depth=depth, width=width, hashes=hashes)
    reference = ReferenceLocator(network, depth=depth, width=width, hashes=hashes)
    published = {}
    for step in program:
        _apply(step, network, (locator, reference))
        _assert_equal(network, locator, reference)
        _record_published(network, locator, published)
    for ad, bits in published.values():
        assert _bits(ad) == bits


@settings(max_examples=200, deadline=None)
@given(*_shape, st.lists(_deferred_step, max_size=16))
# content moves before the rounds run: they must use the bits at converge()
@example(_PATH, 2, 16, 1, [("converge",), ("add", 0, GUIDS[0])])
# liveness moves before the rounds run: they must use the links at converge()
@example(_PATH, 2, 16, 1, [("converge",), ("down", 1)])
# a converge at a new liveness epoch must not replace the pending one
@example(_PATH, 2, 16, 1, [("converge",), ("down", 1), ("converge",)])
def test_deferred_converge_matches_reference(graph, depth, width, hashes, program):
    network = Network(Kernel(), graph)
    locator = ProbabilisticLocator(network, depth=depth, width=width, hashes=hashes)
    reference = ReferenceLocator(network, depth=depth, width=width, hashes=hashes)
    for step in program:
        _apply(step, network, (locator, reference))
        assert locator.stats_refresh_bytes == reference.stats_refresh_bytes
        if step[0] == "read":
            _assert_equal(network, locator, reference)
    _assert_equal(network, locator, reference)
