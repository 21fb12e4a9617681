"""Tests for the utility-model accounting (Section 1.1)."""

import pytest

from repro.core import (
    DeploymentConfig,
    OceanStoreSystem,
    Tariff,
    UsageMeter,
    UtilityLedger,
    make_client,
)
from repro.sim import TopologyParams
from repro.util import GUID


def owner(i):
    return GUID.hash_of(f"owner-{i}".encode())


class TestUsageMeter:
    def test_records_accumulate(self):
        meter = UsageMeter()
        meter.record_storage(owner(1), server=5, byte_duration=100.0)
        meter.record_storage(owner(1), server=5, byte_duration=50.0)
        meter.record_transfer(owner(1), server=5, size_bytes=10.0)
        usage = meter.usage_for_owner(owner(1))
        assert usage.stored_bytes == 150.0
        assert usage.transferred_bytes == 10.0

    def test_per_server_rollup(self):
        meter = UsageMeter()
        meter.record_transfer(owner(1), server=5, size_bytes=10.0)
        meter.record_transfer(owner(2), server=5, size_bytes=20.0)
        meter.record_transfer(owner(1), server=6, size_bytes=99.0)
        assert meter.usage_on_server(5).transferred_bytes == 30.0

    def test_negative_rejected(self):
        meter = UsageMeter()
        with pytest.raises(ValueError):
            meter.record_storage(owner(1), 5, -1.0)
        with pytest.raises(ValueError):
            meter.record_transfer(owner(1), 5, -1.0)

    def test_reset(self):
        meter = UsageMeter()
        meter.record_transfer(owner(1), 5, 10.0)
        meter.reset()
        assert meter.usage_for_owner(owner(1)).transferred_bytes == 0.0


class TestUtilityLedger:
    def make_ledger(self):
        tariff = Tariff(
            storage_per_byte=0.01,
            transfer_per_byte=0.001,
            monthly_fee=10.0,
            dividend_rate=0.1,
        )
        ledger = UtilityLedger(tariff)
        ledger.register_consumer(owner(1), "oceanic")
        ledger.register_consumer(owner(2), "pacific")
        ledger.register_server(100, "oceanic")
        ledger.register_server(200, "pacific")
        ledger.register_server(300, "cafe")  # a hosting-only participant
        return ledger

    def test_consumer_statement(self):
        ledger = self.make_ledger()
        ledger.meter.record_storage(owner(1), 100, 1000.0)
        ledger.meter.record_transfer(owner(1), 200, 5000.0)
        statements = {s.owner: s for s in ledger.consumer_statements()}
        s1 = statements[owner(1)]
        assert s1.provider == "oceanic"
        assert s1.monthly_fee == 10.0
        assert s1.storage_charge == pytest.approx(10.0)
        assert s1.transfer_charge == pytest.approx(5.0)
        assert s1.total == pytest.approx(25.0)

    def test_inter_provider_settlement(self):
        ledger = self.make_ledger()
        # Owner 1 (oceanic customer) consumes on pacific's server.
        ledger.meter.record_transfer(owner(1), 200, 10_000.0)
        statements = {s.provider: s for s in ledger.provider_statements()}
        assert statements["pacific"].net_settlement > 0  # net seller
        assert statements["oceanic"].net_settlement < 0  # net buyer
        assert statements["pacific"].net_settlement == pytest.approx(
            -statements["oceanic"].net_settlement
        )

    def test_cafe_dividend(self):
        ledger = self.make_ledger()
        ledger.meter.record_transfer(owner(1), 300, 10_000.0)
        dividends = ledger.server_dividends()
        assert dividends[300] == pytest.approx(10_000.0 * 0.001 * 0.1)

    def test_close_period_resets(self):
        ledger = self.make_ledger()
        ledger.meter.record_transfer(owner(1), 100, 100.0)
        consumers, providers = ledger.close_period()
        assert consumers and providers
        assert ledger.meter.usage_for_owner(owner(1)).transferred_bytes == 0.0

    def test_unregistered_consumer(self):
        ledger = self.make_ledger()
        with pytest.raises(KeyError):
            ledger.provider_of_consumer(owner(99))


class TestSystemIntegration:
    def test_reads_and_archives_metered(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=170,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
                archival_k=4,
                archival_n=8,
            )
        )
        alice = make_client(system, "alice", seed=171)
        system.ledger.register_consumer(alice.principal.guid, "oceanic")
        for node in system.servers:
            system.ledger.register_server(node, "oceanic")
        obj = alice.create_object("billable")
        system.assign_owner(obj.guid, alice.principal.guid)
        alice.write(obj, b"metered content" * 10)
        for _ in range(3):
            alice.read(obj)
        usage = system.ledger.meter.usage_for_owner(alice.principal.guid)
        assert usage.stored_bytes > 0      # archival fragments metered
        assert usage.transferred_bytes > 0  # reads metered
        statements = system.ledger.consumer_statements()
        assert any(s.owner == alice.principal.guid and s.total > 10.0 for s in statements)

    def test_committed_read_bills_the_state_served(self):
        """A committed-only read from a secondary holding a tentative
        update bills the committed bytes it served, not the tentative
        state's."""
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=170,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
                secondaries_per_object=3,
            )
        )
        alice = make_client(system, "alice", seed=171)
        obj = alice.create_object("billable")
        system.assign_owner(obj.guid, alice.principal.guid)
        assert alice.write(obj, b"committed").committed
        system.settle()
        node = min(system.tiers[obj.guid].replicas)
        replica = system.tiers[obj.guid].replicas[node]
        pending = (
            alice.update_builder(obj)
            .append(b"tentative bytes " * 20)
            .build(alice.principal, obj.guid, 10**9)
        )
        replica.add_tentative(pending)
        assert replica.tentative_state().size_bytes != replica.committed_state.size_bytes
        meter = system.ledger.meter
        before = meter.usage_for_owner(alice.principal.guid).transferred_bytes
        served = system.read_state(
            obj.guid, allow_tentative=False, min_version=0, client_node=node
        )
        assert served is replica.committed_state
        billed = meter.usage_for_owner(alice.principal.guid).transferred_bytes - before
        assert billed == served.size_bytes
