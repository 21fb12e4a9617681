"""Routing-epoch exactness: a refresh that skips the walk changes nothing.

``PlaxtonMesh.route_to_root`` is a function of the mesh membership, the
neighbor tables and the network's down-set.  ``mesh.routing_epoch``
advances whenever one of them may have changed, and
``RoutingRepairer.republish`` reuses the route it stored when the epoch
has not moved since it walked it.  The contract: nobody can tell.  After
any sequence of crashes, revivals, evictions, suspicions, insertions and
rejoins, (un)publishes and refreshes, a deployment whose repairer reuses
routes is indistinguishable -- pointer stores (contents *and* key order),
counters, stored routes, metrics, spans and flight dump -- from a twin
whose repairer scrubs and re-walks every time, as it did before the
epoch existed.

Over-invalidation is allowed (an epoch may advance with no route
changed: the refresh just walks once more); under-invalidation is the
bug, so every way of changing a route's inputs is asserted to move the
epoch, and ``recovery/`` is asserted to have no way around the mesh's
mutators.
"""

import copy
import pathlib
import pickle
import random
import re

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.recovery import RoutingRepairer
from repro.routing import PlaxtonMesh, PlaxtonNode, RoutingError, SaltedRouter
from repro.sim import Kernel, Network
from repro.telemetry import Telemetry, TelemetryConfig
from repro.util.ids import GUID, GUID_BITS

GRAPH_NODES = 20
MESH_NODES = 15  # the rest wait outside for `insert`; members rejoin by it
GUIDS = 4


class _AlwaysWalk(RoutingRepairer):
    """The reference: forget the stamp, so every republish re-walks."""

    def republish(self, replica_node, object_guid):
        record = self._paths.get((replica_node, object_guid))
        if record is not None:
            self._paths[(replica_node, object_guid)] = (None, record[1])
        super().republish(replica_node, object_guid)


class Rig:
    def __init__(self, repairer_cls, seed: int = 0) -> None:
        rng = random.Random(seed)
        self.kernel = Kernel()
        graph = nx.connected_watts_strogatz_graph(GRAPH_NODES, 4, 0.3, seed=seed)
        for a, b in graph.edges():
            graph[a][b]["latency_ms"] = 5.0 + rng.randrange(20)
        self.telemetry = Telemetry(
            TelemetryConfig(enabled=True, flight_capacity=1 << 16),
            clock=lambda: self.kernel.now,
        )
        self.network = Network(self.kernel, graph)
        self.mesh = PlaxtonMesh(self.network, rng, telemetry=self.telemetry)
        self.mesh.populate(list(range(MESH_NODES)))
        self.router = SaltedRouter(self.mesh)
        self.repairer = repairer_cls(
            self.mesh, self.router, self.network, telemetry=self.telemetry
        )
        self.guids = [GUID(rng.getrandbits(GUID_BITS)) for _ in range(GUIDS)]
        self.outcomes: list[str] = []

    def apply(self, op) -> None:
        kind = op[0]
        try:
            if kind == "crash":
                self.network.set_down(op[1], True)
            elif kind == "revive":
                self.network.set_down(op[1], False)
            elif kind == "evict":
                self.repairer.evict(op[1])
            elif kind == "suspect":
                self.repairer.on_suspect(op[1])
            elif kind == "insert":
                self.mesh.insert_server(op[1])
            elif kind == "rebuild":
                self.mesh.build_tables()
            elif kind == "publish":
                guid = self.guids[op[2]]
                self.router.publish(op[1], guid)
                self.repairer.register(op[1], guid)
            elif kind == "forget":
                self.repairer.forget(op[1], self.guids[op[2]], scrub=op[3])
            elif kind == "unpublish":
                # a third party removes pointers the repairer still owns
                self.router.unpublish(op[1], self.guids[op[2]])
            elif kind == "republish":
                self.repairer.republish(op[1], self.guids[op[2]])
            elif kind == "refresh":
                self.repairer.refresh()
            else:  # pragma: no cover - strategy and interpreter out of step
                raise AssertionError(op)
            self.outcomes.append("ok")
        except (RoutingError, KeyError, ValueError) as exc:
            self.outcomes.append(type(exc).__name__)
        self.kernel.run(until=self.kernel.now + 1.0)  # timestamps advance per step

    def observe(self) -> dict:
        return {
            "outcomes": list(self.outcomes),
            "pointers": {
                nid: [(guid, sorted(where)) for guid, where in node.pointers.items()]
                for nid, node in self.mesh.nodes.items()
            },
            "publish_messages": self.mesh.stats_publish_messages,
            "republishes": self.repairer.stats_republishes,
            "evictions": self.repairer.stats_evictions,
            "routes": {
                key: [trace.path for trace in self.repairer._paths[key][1]]
                for key in self.repairer.publications()
            },
            "flight": self.telemetry.flight.render(),
        }


_member = st.integers(min_value=0, max_value=MESH_NODES - 1)
_anyone = st.integers(min_value=0, max_value=GRAPH_NODES - 1)
_guid = st.integers(min_value=0, max_value=GUIDS - 1)
_refresh = st.tuples(st.just("refresh"))
_op = st.one_of(
    st.tuples(st.just("crash"), _anyone),
    st.tuples(st.just("revive"), _anyone),
    st.tuples(st.just("evict"), _member),
    st.tuples(st.just("suspect"), _member),
    st.tuples(st.just("insert"), _anyone),
    st.tuples(st.just("rebuild")),
    st.tuples(st.just("publish"), _member, _guid),
    st.tuples(st.just("publish"), _anyone, _guid),
    st.tuples(st.just("forget"), _member, _guid, st.booleans()),
    st.tuples(st.just("unpublish"), _member, _guid),
    st.tuples(st.just("republish"), _member, _guid),
    _refresh,
)
# refresh() between the other steps, as the issue's sweep timer would
_program = st.lists(st.tuples(_op, st.booleans()), min_size=1, max_size=30).map(
    lambda steps: [
        op for step, then_refresh in steps
        for op in ((step, ("refresh",)) if then_refresh else (step,))
    ]
)


class TestTwinProperty:
    @settings(max_examples=150, deadline=None)
    @given(_program, st.integers(min_value=0, max_value=3))
    def test_reusing_routes_is_indistinguishable_from_rewalking(self, ops, seed):
        fast = Rig(RoutingRepairer, seed)
        twin = Rig(_AlwaysWalk, seed)
        # a few publications up front so short programs refresh something
        for op in [("publish", 0, 0), ("publish", 3, 1), ("publish", 7, 0)] + ops:
            fast.apply(op)
            twin.apply(op)
            assert fast.observe() == twin.observe(), op
        assert fast.telemetry.export(spans=True, flight=True) == twin.telemetry.export(
            spans=True, flight=True
        )


def _walk_counter(mesh):
    """Count ``route_to_root`` calls made through ``mesh`` from here on."""
    calls = [0]
    original = mesh.route_to_root

    def counted(start, target):
        calls[0] += 1
        return original(start, target)

    mesh.route_to_root = counted
    return calls


class TestDirected:
    def test_refresh_walks_only_after_the_epoch_moved(self):
        rig = Rig(RoutingRepairer)
        for replica, guid in ((0, 0), (3, 1), (7, 2)):
            rig.apply(("publish", replica, guid))
        walks = _walk_counter(rig.mesh)
        routes = 3 * rig.router.salts
        before = rig.mesh.stats_publish_messages

        rig.repairer.refresh()
        assert walks[0] == 0
        assert rig.repairer.stats_republishes == 3
        deposited = rig.mesh.stats_publish_messages - before
        assert deposited > 0  # the sweep still deposits and still counts

        rig.network.set_down(GRAPH_NODES - 1)  # outside the mesh: no route moves
        rig.repairer.refresh()
        assert walks[0] == routes  # over-invalidated, so walked once ...
        rig.repairer.refresh()
        assert walks[0] == routes  # ... and not again
        assert rig.mesh.stats_publish_messages - before == 3 * deposited

    def test_refresh_at_a_standing_epoch_deposits_in_place(self, monkeypatch):
        rig = Rig(RoutingRepairer)
        for replica, guid in ((0, 0), (3, 1), (7, 2)):
            rig.apply(("publish", replica, guid))
        walks = _walk_counter(rig.mesh)
        scrubs = [0]
        original = PlaxtonNode.remove_pointer

        def counted(node, object_guid, replica_node):
            scrubs[0] += 1
            original(node, object_guid, replica_node)

        monkeypatch.setattr(PlaxtonNode, "remove_pointer", counted)
        rig.repairer.refresh()
        assert (walks[0], scrubs[0]) == (0, 0)
        assert rig.repairer.stats_republishes == 3

    def test_refresh_in_place_restores_lost_pointers(self):
        rig = Rig(RoutingRepairer)
        for replica, guid in ((0, 0), (3, 1)):
            rig.apply(("publish", replica, guid))
        before = rig.observe()["pointers"]
        # one pointer store loses a key outright; a third party unpublishes
        # a publication the repairer still holds
        salted = rig.router.salted_guids(rig.guids[0])[0]
        _, routes = rig.repairer._paths[(0, rig.guids[0])]
        popped = routes[0].path[-1]
        rig.mesh.nodes[popped].pointers.pop(salted)
        rig.router.unpublish(3, rig.guids[1])
        assert rig.observe()["pointers"] != before
        epoch = rig.mesh.routing_epoch
        rig.repairer.refresh()
        assert rig.mesh.routing_epoch == epoch
        restored = rig.observe()["pointers"]
        for nid, entries in before.items():
            assert dict(restored[nid]) == dict(entries)
        assert 0 in rig.mesh.nodes[popped].pointers[salted]
        assert rig.router.locate(popped, rig.guids[1]).found

    def test_a_guid_hashes_as_its_value_tuple(self):
        rng = random.Random(7)
        values = [0, 2**GUID_BITS - 1] + [rng.getrandbits(GUID_BITS) for _ in range(50)]
        for value in values:
            guid = GUID(value)
            assert hash(guid) == hash((value,))
            for copied in (
                pickle.loads(pickle.dumps(guid)),
                copy.deepcopy(guid),
                copy.copy(guid),
                GUID.from_bytes(guid.to_bytes()),
            ):
                assert copied == guid
                assert hash(copied) == hash((value,))
            salted = guid.with_salt(1)
            assert hash(salted) == hash((salted.value,))

    def test_a_set_down_that_changes_nothing_may_bump_but_never_unbumps(self):
        rig = Rig(RoutingRepairer)
        before = rig.mesh.routing_epoch
        rig.network.set_down(4, False)  # already up
        assert rig.mesh.routing_epoch >= before
        rig.network.set_down(4, True)
        crashed = rig.mesh.routing_epoch
        assert crashed > before
        rig.network.set_down(4, True)  # already down
        assert rig.mesh.routing_epoch >= crashed

    def test_every_input_of_a_route_moves_the_epoch(self):
        rig = Rig(RoutingRepairer)
        mesh, network = rig.mesh, rig.network
        mutations = [
            lambda: network.set_down(2, True),
            lambda: network.set_down(2, False),
            lambda: mesh.drop_links(5),
            lambda: mesh.build_tables(),
            lambda: mesh.insert_server(MESH_NODES),
            lambda: mesh.add_server(MESH_NODES + 1),
            lambda: rig.repairer.evict(8),
            lambda: mesh.insert_server(8),  # the evicted node rejoins
        ]
        for mutate in mutations:
            before = mesh.routing_epoch
            mutate()
            assert mesh.routing_epoch > before

    def test_a_stale_stamp_is_what_makes_a_crash_on_the_path_heal(self):
        rig = Rig(RoutingRepairer)
        rig.apply(("publish", 0, 0))
        _, routes = rig.repairer._paths[(0, rig.guids[0])]
        on_path = sorted({n for trace in routes for n in trace.path} - {0})
        victim = on_path[-1]
        rig.network.set_down(victim)
        rig.repairer.refresh()  # no suspicion, no eviction: liveness alone
        _, healed = rig.repairer._paths[(0, rig.guids[0])]
        assert all(victim not in trace.path for trace in healed)

    def test_only_the_mesh_writes_neighbor_tables(self):
        src = pathlib.Path(repro.__file__).parent
        guarded = sorted((src / "recovery").glob("*.py"))
        assert len(guarded) > 3
        # tables, membership maps and the tables counter are the mesh's own
        reach_in = re.compile(r"\.table\b|\._by_guid\b|\._tables_epoch\b|\.nodes\.pop\(")
        offenders = [
            f"{path.name}:{number}: {line.strip()}"
            for path in guarded
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if reach_in.search(line)
        ]
        assert offenders == []
