"""Network ledger differential: one count per message, folded on read.

``Network.send`` counts each message once, in the route-cache entry for
its ``(src, dst, subsystem, phase)``; the global totals,
:attr:`Network.link_stats` and :attr:`Network.phase_stats` are folds over
those entries.  The reference below is the accounting the folds replaced:
a wrapper around ``send`` that bumps the totals, the per-link cell and the
per-phase cell at the top of every call, before any loss check.

Hypothesis draws programs of sends (random endpoints, subsystem, phase
and size) interleaved with crashes and revivals, symmetric and one-way
partitions, fault rules that drop, duplicate and corrupt, and
registration changes that leave destinations with nobody listening.
After every ``run`` and at the end, the ledger's three views must equal
the recount key for key, in first-send order, and ``Network.drops`` must
equal the ``net/drop`` flight records tallied by reason.
"""

import random
from collections import Counter

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.faults.network import LinkFaultRule, NetworkFaultInjector
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.telemetry import Telemetry, TelemetryConfig

NODES = 5
SUBSYSTEMS = (None, "pbft", "dissemination")
PHASES = (None, "prepare", "push")


def _graph() -> nx.Graph:
    """A line 0-1-2-3-4 with a chord, so some pairs have two routes."""
    graph = nx.Graph()
    for i in range(NODES - 1):
        graph.add_edge(i, i + 1, latency_ms=5.0 + 3 * i)
    graph.add_edge(0, NODES - 1, latency_ms=40.0)
    return graph


class Recount:
    """The per-call accounting at the top of ``send``, kept beside the
    ledger by wrapping the bound method."""

    def __init__(self, network: Network) -> None:
        self.messages = 0
        self.bytes = 0
        self.links: dict[tuple[int, int], list[int]] = {}
        self.phases: dict[tuple[str, str], list[int]] = {}
        real_send = network.send

        def send(src, dst, payload, size_bytes, phase=None, subsystem=None):
            self.messages += 1
            self.bytes += size_bytes
            link = (src, dst) if src < dst else (dst, src)
            key = (
                subsystem if subsystem is not None else "other",
                phase if phase is not None else "other",
            )
            for table, cell in ((self.links, link), (self.phases, key)):
                counts = table.setdefault(cell, [0, 0])
                counts[0] += 1
                counts[1] += size_bytes
            real_send(src, dst, payload, size_bytes, phase, subsystem)

        network.send = send


class Rig:
    def __init__(self, seed: int) -> None:
        self.kernel = Kernel()
        self.telemetry = Telemetry(
            TelemetryConfig(enabled=True, flight_capacity=1 << 16),
            clock=lambda: self.kernel.now,
        )
        self.network = Network(self.kernel, _graph(), telemetry=self.telemetry)
        self.injector = NetworkFaultInjector(rng=random.Random(seed))
        self.network.fault_injector = self.injector
        self.recount = Recount(self.network)
        self.delivered = 0
        # the last node starts with nobody listening
        for node in range(NODES - 1):
            self.network.register(node, self._handle)

    def _handle(self, message) -> None:
        self.delivered += 1

    def apply(self, op) -> None:
        kind = op[0]
        net = self.network
        if kind == "send":
            _, src, dst, subsystem, phase, size = op
            net.send(src, dst, object(), size, phase, subsystem)
        elif kind == "down":
            _, node, down = op
            net.set_down(node, down)
        elif kind == "partition":
            _, cut = op
            net.add_partition(set(range(cut)), set(range(cut, NODES)))
        elif kind == "one-way":
            _, src_side, dst_side = op
            net.add_asymmetric_partition(set(src_side), set(dst_side))
        elif kind == "heal":
            net.heal_partitions()
        elif kind == "fault":
            _, src, dst, fault, probability = op
            self.injector.add_rule(LinkFaultRule(src=src, dst=dst, **{fault: probability}))
        elif kind == "clear-faults":
            self.injector.clear()
        elif kind == "register":
            net.register(op[1], self._handle)
        elif kind == "unregister":
            net.unregister(op[1])
        elif kind == "run":
            self.kernel.run(until=self.kernel.now + op[1])
            self.check()
        else:  # pragma: no cover - strategy and interpreter out of step
            raise AssertionError(op)

    def records(self, kind: str) -> list[dict]:
        return [
            dict(event.detail)
            for event in self.telemetry.flight.events(categories=["net"], kinds=[kind])
        ]

    def check(self) -> None:
        net, recount = self.network, self.recount
        assert net.stats_total_messages == recount.messages
        assert net.stats_total_bytes == recount.bytes
        assert [
            (key, [cell.messages, cell.bytes]) for key, cell in net.link_stats.items()
        ] == list(recount.links.items())
        assert [
            (key, [cell.messages, cell.bytes]) for key, cell in net.phase_stats.items()
        ] == list(recount.phases.items())
        report = net.phase_report()
        assert sum(
            cell["messages"] for phases in report.values() for cell in phases.values()
        ) == recount.messages
        for sub in {sub for sub, _ in recount.phases}:
            cells = [v for (s, _), v in recount.phases.items() if s == sub]
            assert net.phase_totals(sub) == (
                sum(c[0] for c in cells),
                sum(c[1] for c in cells),
            )
        tally = Counter(record["reason"] for record in self.records("drop"))
        assert net.drops == dict(tally)
        assert net.stats_dropped == sum(tally.values())

    def finish(self) -> None:
        self.network.heal_partitions()
        self.kernel.run()
        self.check()
        # every copy scheduled was delivered or dropped, exactly once
        copies = sum(int(record["copies"]) for record in self.records("duplicate"))
        assert self.delivered + self.network.stats_dropped == (
            self.recount.messages + copies
        )
        assert len(self.records("deliver")) == self.delivered


_node = st.integers(min_value=0, max_value=NODES - 1)
_maybe_node = st.one_of(st.none(), _node)
_side = st.frozensets(_node, min_size=1, max_size=NODES - 1).map(sorted)
_send = st.tuples(
    st.just("send"),
    _node,
    _node,
    st.sampled_from(SUBSYSTEMS),
    st.sampled_from(PHASES),
    st.integers(min_value=0, max_value=2_000),
)
# sends are listed five times to weight them up
_op = st.one_of(
    _send,
    _send,
    _send,
    _send,
    _send,
    st.tuples(st.just("down"), _node, st.booleans()),
    st.tuples(st.just("partition"), st.integers(min_value=1, max_value=NODES - 1)),
    st.tuples(st.just("one-way"), _side, _side),
    st.tuples(st.just("heal")),
    st.tuples(
        st.just("fault"),
        _maybe_node,
        _maybe_node,
        st.sampled_from(["drop", "duplicate", "corrupt"]),
        st.sampled_from([0.5, 1.0]),
    ),
    st.tuples(st.just("clear-faults")),
    st.tuples(st.just("register"), _node),
    st.tuples(st.just("unregister"), _node),
    st.tuples(st.just("run"), st.sampled_from([0.5, 6.0, 20.0, 60.0])),
)


class TestLedgerEqualsRecount:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16), st.lists(_op, min_size=20, max_size=100))
    def test_folds_equal_the_per_send_recount(self, seed, ops):
        rig = Rig(seed)
        for op in ops:
            rig.apply(op)
        rig.finish()


class TestDirected:
    def test_each_loss_has_one_reason(self):
        rig = Rig(seed=0)
        rig.apply(("send", 0, NODES - 1, "pbft", "prepare", 10))  # unregistered
        rig.apply(("down", 2, True))
        rig.apply(("send", 1, 2, "pbft", "prepare", 20))  # unreachable at send
        rig.apply(("run", 60.0))
        rig.apply(("send", 3, 1, None, None, 30))
        rig.apply(("down", 1, True))  # ... and at delivery
        rig.apply(("down", 2, False))
        rig.apply(("fault", 0, 3, "drop", 1.0))
        rig.apply(("send", 0, 3, "dissemination", "push", 40))  # fault
        rig.finish()
        assert rig.network.drops == {"unregistered": 1, "unreachable": 2, "fault": 1}
        assert rig.delivered == 0
        assert rig.network.stats_total_messages == 4
        assert rig.network.stats_total_bytes == 100
        assert rig.network.phase_stats[("other", "other")].bytes == 30

    def test_untagged_and_other_tagged_sends_share_one_phase_cell(self):
        rig = Rig(seed=0)
        rig.apply(("send", 0, 1, None, None, 5))
        rig.apply(("send", 0, 1, "other", "other", 7))
        rig.apply(("send", 1, 0, None, "other", 11))
        rig.finish()
        stats = rig.network.phase_stats
        assert list(stats) == [("other", "other")]
        assert (stats[("other", "other")].messages, stats[("other", "other")].bytes) == (3, 23)
        link = rig.network.link_stats[(0, 1)]
        assert (link.messages, link.bytes) == (3, 23)

    def test_a_duplicated_message_is_counted_once(self):
        rig = Rig(seed=0)
        rig.apply(("fault", 0, 1, "duplicate", 1.0))
        rig.apply(("send", 0, 1, "pbft", "commit", 100))
        rig.finish()
        assert rig.network.stats_total_messages == 1
        assert rig.delivered == 2
