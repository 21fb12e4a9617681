"""Delivery differential: typed mailboxes vs fan-out-and-filter.

``Network.subscribe(node, handler, types)`` lets the network skip the
handlers that would ignore a message.  Its contract is that nobody can
tell: every handler receives exactly the ``(time, payload)`` sequence it
would have received had the network handed every message to every
subscriber and each handler filtered by exact payload type itself -- the
delivery model before typing -- and the drop counter and the
flight-record stream are the same too.

The reference below is that model, run on the same ``Network`` class with
every subscription left untyped (a wildcard mailbox is one tuple per
node, fanned out in subscription order) and the type filter moved inside
the recording handler.  Hypothesis draws programs that interleave
``subscribe`` / ``unsubscribe`` / ``register`` / ``unregister`` with
sends, corrupted frames, crashes and partitions; directed cases pin the
rules DESIGN.md section 15 states.
"""

import dataclasses

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.faults.network import NO_FAULT, FaultDecision
from repro.sim.kernel import Kernel
from repro.sim.network import Corrupted, Network

NODES = 4
HANDLERS = 5


@dataclasses.dataclass(frozen=True)
class Alpha:
    n: int


@dataclasses.dataclass(frozen=True)
class Beta:
    n: int


@dataclasses.dataclass(frozen=True)
class Gamma(Alpha):
    """A subclass: matching is by exact class, so an ``Alpha`` subscriber
    must not see it."""


PAYLOADS = (Alpha, Beta, Gamma)


class _Stream:
    """A telemetry stand-in that keeps every call the network makes."""

    enabled = True

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.calls: list[tuple] = []

    def count(self, name, value=1, **labels):
        self.calls.append((self.kernel.now, "count", name, value, sorted(labels.items())))

    def observe(self, name, value, **labels):
        self.calls.append((self.kernel.now, "observe", name, value, sorted(labels.items())))

    def record(self, layer, kind, **fields):
        self.calls.append((self.kernel.now, "record", layer, kind, sorted(fields.items())))


class _CorruptNext:
    """Fault injector that garbles exactly the sends a program flags."""

    def __init__(self) -> None:
        self.armed = False

    def decide(self, src, dst, now):
        if self.armed:
            self.armed = False
            return FaultDecision(corrupt=True)
        return NO_FAULT


def _line_graph() -> nx.Graph:
    graph = nx.Graph()
    for i in range(NODES - 1):
        graph.add_edge(i, i + 1, latency_ms=7.0 + i)
    return graph


class Rig:
    """One network plus ``HANDLERS`` recording handlers.

    ``typed=False`` is the reference: subscriptions are made without
    types and the handler applies the filter the subscription declared.
    """

    def __init__(self, typed: bool) -> None:
        self.typed = typed
        self.kernel = Kernel()
        self.stream = _Stream(self.kernel)
        self.network = Network(self.kernel, _line_graph(), telemetry=self.stream)
        self.network.fault_injector = self.corruptor = _CorruptNext()
        self.received: list[list[tuple]] = [[] for _ in range(HANDLERS)]
        #: (node, handler index) -> the callable subscribed, so unsubscribe
        #: can name it again
        self.installed: dict[tuple[int, int], object] = {}

    def _handler(self, node: int, index: int, types):
        log = self.received[index]
        kernel = self.kernel
        if self.typed or types is None:

            def handler(message):
                log.append((kernel.now, node, message.payload))
        else:
            wanted = frozenset(types)

            def handler(message):
                if type(message.payload) in wanted:
                    log.append((kernel.now, node, message.payload))

        self.installed[(node, index)] = handler
        return handler

    def apply(self, op) -> None:
        kind = op[0]
        net = self.network
        if kind == "subscribe":
            _, node, index, types = op
            # a second subscribe of the same slot would orphan the first
            # callable from `installed`; drop it so both rigs stay in step
            self.apply(("unsubscribe", node, index))
            handler = self._handler(node, index, types)
            net.subscribe(node, handler, types if self.typed else None)
        elif kind == "register":
            _, node, index, types = op
            for key in [k for k in self.installed if k[0] == node]:
                del self.installed[key]
            handler = self._handler(node, index, types)
            net.register(node, handler, types if self.typed else None)
        elif kind == "unsubscribe":
            _, node, index = op
            handler = self.installed.pop((node, index), None)
            if handler is not None:
                net.unsubscribe(node, handler)
        elif kind == "unregister":
            _, node = op
            for key in [k for k in self.installed if k[0] == node]:
                del self.installed[key]
            net.unregister(node)
        elif kind == "send":
            _, src, dst, payload_cls, n, corrupt = op
            self.corruptor.armed = corrupt
            net.send(src, dst, payload_cls(n), 64, "phase", "test")
        elif kind == "down":
            _, node, down = op
            net.set_down(node, down)
        elif kind == "partition":
            _, cut = op
            net.add_partition(set(range(cut)), set(range(cut, NODES)))
        elif kind == "heal":
            net.heal_partitions()
        elif kind == "run":
            self.kernel.run(until=self.kernel.now + op[1])
        else:  # pragma: no cover - strategy and interpreter out of step
            raise AssertionError(op)

    def finish(self):
        self.network.heal_partitions()
        self.kernel.run()
        return self.received, self.network.stats_dropped, self.stream.calls


_node = st.integers(min_value=0, max_value=NODES - 1)
_index = st.integers(min_value=0, max_value=HANDLERS - 1)
_types = st.one_of(
    st.none(),
    st.lists(st.sampled_from(PAYLOADS + (Corrupted,)), max_size=3, unique=True).map(tuple),
)
# subscribe and the uncorrupted send are listed twice to weight them up
_op = st.one_of(
    st.tuples(st.just("subscribe"), _node, _index, _types),
    st.tuples(st.just("subscribe"), _node, _index, _types),
    st.tuples(st.just("register"), _node, _index, _types),
    st.tuples(st.just("unsubscribe"), _node, _index),
    st.tuples(st.just("unregister"), _node),
    st.tuples(
        st.just("send"), _node, _node, st.sampled_from(PAYLOADS),
        st.integers(min_value=0, max_value=9), st.booleans(),
    ),
    st.tuples(
        st.just("send"), _node, _node, st.sampled_from(PAYLOADS),
        st.integers(min_value=0, max_value=9), st.just(False),
    ),
    st.tuples(st.just("down"), _node, st.booleans()),
    st.tuples(st.just("partition"), st.integers(min_value=1, max_value=NODES - 1)),
    st.tuples(st.just("heal")),
    st.tuples(st.just("run"), st.sampled_from([0.5, 4.0, 9.0, 30.0])),
)


def run_program(typed: bool, ops):
    rig = Rig(typed)
    for op in ops:
        rig.apply(op)
    return rig.finish()


class TestDifferentialProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_op, min_size=1, max_size=50))
    def test_typed_delivery_equals_fan_out_and_filter(self, ops):
        received, dropped, stream = run_program(True, ops)
        ref_received, ref_dropped, ref_stream = run_program(False, ops)
        assert received == ref_received
        assert dropped == ref_dropped
        assert stream == ref_stream


def _rig_with(*subscriptions):
    """A typed rig with ``(node, index, types)`` subscriptions applied."""
    rig = Rig(typed=True)
    for node, index, types in subscriptions:
        rig.apply(("subscribe", node, index, types))
    return rig


class TestDirected:
    def test_two_handlers_for_one_type_keep_subscription_order(self):
        kernel = Kernel()
        network = Network(kernel, _line_graph())
        order: list[str] = []
        network.subscribe(1, lambda m: order.append("typed-first"), (Alpha,))
        network.subscribe(1, lambda m: order.append("wildcard"))
        network.subscribe(1, lambda m: order.append("typed-last"), (Alpha, Beta))
        network.send(0, 1, Alpha(0), 64)
        kernel.run()
        assert order == ["typed-first", "wildcard", "typed-last"]
        del order[:]
        network.send(0, 1, Beta(0), 64)
        kernel.run()
        assert order == ["wildcard", "typed-last"]

    def test_all_handlers_ignoring_a_type_is_not_a_drop(self):
        rig = _rig_with((1, 0, (Alpha,)), (1, 1, (Beta,)))
        rig.apply(("send", 0, 1, Gamma, 1, False))
        received, dropped, stream = rig.finish()
        assert received[0] == received[1] == []
        assert dropped == 0
        kinds = [call[3] for call in stream if call[1] == "record"]
        assert kinds == ["send", "deliver"]  # written before the (empty) fan-out

    def test_no_handler_of_any_type_is_an_unregistered_drop(self):
        rig = _rig_with((1, 0, (Alpha,)))
        rig.apply(("unsubscribe", 1, 0))
        rig.apply(("send", 0, 1, Alpha, 1, False))
        received, dropped, stream = rig.finish()
        assert received[0] == []
        assert dropped == 1
        assert any(
            call[1] == "record" and call[3] == "drop"
            and ("reason", "unregistered") in call[4]
            for call in stream
        )

    def test_matching_is_by_exact_class(self):
        rig = _rig_with((1, 0, (Alpha,)), (1, 1, (Gamma,)))
        rig.apply(("send", 0, 1, Gamma, 7, False))
        received, _, _ = rig.finish()
        assert received[0] == []
        assert [payload for _, _, payload in received[1]] == [Gamma(7)]

    def test_corrupted_frames_reach_only_wildcards_and_declared_takers(self):
        rig = _rig_with((1, 0, (Alpha,)), (1, 1, None), (1, 2, (Corrupted,)))
        rig.apply(("send", 0, 1, Alpha, 3, True))
        received, dropped, _ = rig.finish()
        assert received[0] == []
        assert [p for _, _, p in received[1]] == [Corrupted(Alpha(3))]
        assert [p for _, _, p in received[2]] == [Corrupted(Alpha(3))]
        assert dropped == 0

    def test_unsubscribe_between_send_and_delivery_takes_effect(self):
        rig = _rig_with((1, 0, (Alpha,)), (1, 1, (Alpha,)))
        rig.apply(("send", 0, 1, Alpha, 1, False))
        rig.apply(("run", 30.0))
        rig.apply(("send", 0, 1, Alpha, 2, False))  # in flight ...
        rig.apply(("unsubscribe", 1, 0))  # ... when handler 0 leaves
        received, dropped, _ = rig.finish()
        assert [p.n for _, _, p in received[0]] == [1]
        assert [p.n for _, _, p in received[1]] == [1, 2]
        assert dropped == 0

    def test_unsubscribe_during_fan_out_affects_only_later_deliveries(self):
        kernel = Kernel()
        network = Network(kernel, _line_graph())
        got: list[tuple[str, int]] = []

        def second(message):
            got.append(("second", message.payload.n))

        def first(message):
            got.append(("first", message.payload.n))
            network.unsubscribe(1, second)

        network.subscribe(1, first, (Alpha,))
        network.subscribe(1, second, (Alpha,))
        network.send(0, 1, Alpha(1), 64)
        network.send(0, 1, Alpha(2), 64)
        kernel.run()
        # the fan-out of message 1 was already decided when `first` ran
        assert got == [("first", 1), ("second", 1), ("first", 2)]

    def test_register_replaces_typed_and_untyped_handlers_alike(self):
        rig = _rig_with((1, 0, (Alpha,)), (1, 1, None))
        rig.apply(("register", 1, 2, (Beta,)))
        rig.apply(("send", 0, 1, Alpha, 1, False))
        rig.apply(("send", 0, 1, Beta, 2, False))
        received, dropped, _ = rig.finish()
        assert received[0] == received[1] == []
        assert [p for _, _, p in received[2]] == [Beta(2)]
        assert dropped == 0
