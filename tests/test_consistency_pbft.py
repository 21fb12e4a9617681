"""Tests for the Byzantine-agreement primary tier and the cost model."""

import random
from dataclasses import replace

import networkx as nx
import pytest

from repro.consistency import (
    CostConstants,
    FaultMode,
    InnerRing,
    fit_cost_model,
    latency_estimate_ms,
    minimum_cost_bytes,
    normalized_cost,
    replicas_for_faults,
    update_cost_bytes,
)
from repro.crypto import make_principal
from repro.data import AppendBlock, TruePredicate, UpdateBranch, make_update
from repro.naming import object_guid
from repro.sim import Kernel, Network


def make_ring(m=1, extra_clients=1, seed=0, wan_latency=50.0):
    """A star-ish WAN: replicas + clients all pairwise reachable."""
    n = 3 * m + 1
    kernel = Kernel()
    graph = nx.complete_graph(n + extra_clients)
    nx.set_edge_attributes(graph, wan_latency, "latency_ms")
    network = Network(kernel, graph)
    rng = random.Random(seed)
    principals = [make_principal(f"replica-{i}", rng, bits=256) for i in range(n)]
    ring = InnerRing(kernel, network, list(range(n)), principals, m=m)
    clients = list(range(n, n + extra_clients))
    return kernel, network, ring, clients


@pytest.fixture(scope="module")
def author():
    return make_principal("author", random.Random(77), bits=256)


def make_simple_update(author, payload=b"data", ts=1.0, name="obj"):
    guid = object_guid(author.public_key, name)
    return make_update(
        author, guid, [UpdateBranch(TruePredicate(), (AppendBlock(payload),))], ts
    )


class TestCostModel:
    def test_replicas_for_faults(self):
        assert replicas_for_faults(1) == 4
        assert replicas_for_faults(4) == 13
        with pytest.raises(ValueError):
            replicas_for_faults(0)

    def test_equation_shape(self):
        c = CostConstants(c1=100, c2=100, c3=100)
        n = 13
        assert update_cost_bytes(1000, n, c) == 100 * 169 + 1100 * 13 + 100

    def test_normalized_cost_decreases_with_size(self):
        costs = [normalized_cost(u, 13) for u in (100, 1000, 10_000, 100_000)]
        assert costs == sorted(costs, reverse=True)

    def test_paper_figure6_anchors(self):
        # "for m=4 and n=13, the normalized cost approaches 1 for update
        # sizes around 100k bytes, but it approaches 2 at update sizes of
        # only around 4k bytes"
        assert normalized_cost(100_000, 13) < 1.15
        at_4k = normalized_cost(4_000, 13)
        assert 1.3 < at_4k < 2.2

    def test_larger_tier_costs_more(self):
        assert normalized_cost(4096, 13) > normalized_cost(4096, 7)

    def test_minimum_cost(self):
        assert minimum_cost_bytes(500, 7) == 3500

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            update_cost_bytes(0, 7)
        with pytest.raises(ValueError):
            update_cost_bytes(100, 1)

    def test_latency_estimate(self):
        assert latency_estimate_ms(100.0) == 600.0


class TestCostModelFit:
    def test_recovers_known_coefficients_from_synthetic_data(self):
        constants = CostConstants(c1=120.0, c2=90.0, c3=250.0)
        points = [
            (n, float(u), update_cost_bytes(float(u), n, constants))
            for n in (7, 10, 13, 16)
            for u in (1_000, 10_000, 100_000)
        ]
        fit = fit_cost_model(points)
        assert fit.c1 == pytest.approx(120.0, abs=1e-6)
        assert fit.c2 == pytest.approx(90.0, abs=1e-6)
        assert fit.c3 == pytest.approx(250.0, abs=1e-4)
        assert fit.max_rel_error < 1e-9
        assert fit.quadratic_ok

    def test_flags_non_quadratic_traffic(self):
        # Purely linear traffic: the n^2 coefficient fits to ~0 or below
        # and the deviation flag must trip via c1 <= 0.
        points = [
            (n, 1_000.0, 1_000.0 * n + 500.0 * n) for n in (7, 10, 13)
        ]
        fit = fit_cost_model(points)
        assert not fit.quadratic_ok or fit.c1 < 1.0

    def test_requires_three_ring_sizes(self):
        with pytest.raises(ValueError, match="3 distinct ring sizes"):
            fit_cost_model([(7, 1.0, 10.0), (7, 2.0, 20.0), (10, 1.0, 15.0)])

    def test_quadratic_share_grows_with_n(self):
        constants = CostConstants()
        points = [
            (n, 10_000.0, update_cost_bytes(10_000.0, n, constants))
            for n in (7, 10, 13)
        ]
        fit = fit_cost_model(points)
        assert fit.quadratic_share(13, 10_000.0) > fit.quadratic_share(
            7, 10_000.0
        )


class TestPBFTNormalCase:
    def test_single_update_commits_everywhere(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        executed = []
        ring.on_execute(lambda rep, seq, up: executed.append((rep.index, seq)))
        ring.submit(clients[0], make_simple_update(author))
        kernel.run(until=10_000.0)
        indices = {i for i, _ in executed}
        assert indices == {0, 1, 2, 3}
        assert all(seq == 0 for _, seq in executed)

    def test_certificate_assembles_and_verifies(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        certs = []
        ring.on_certificate(certs.append)
        update = make_simple_update(author)
        ring.submit(clients[0], update)
        kernel.run(until=10_000.0)
        assert len(certs) == 1
        cert = certs[0]
        assert [u.update_id for u in cert.updates] == [update.update_id]
        assert cert.verify(ring)

    def test_tampered_certificate_fails(self, author):
        from dataclasses import replace

        kernel, network, ring, clients = make_ring(m=1)
        certs = []
        ring.on_certificate(certs.append)
        ring.submit(clients[0], make_simple_update(author))
        kernel.run(until=10_000.0)
        cert = certs[0]
        bad = replace(cert, signatures=cert.signatures[:1])
        assert not bad.verify(ring)

    def test_updates_execute_in_same_order_on_all_replicas(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        per_replica: dict[int, list[bytes]] = {i: [] for i in range(4)}
        ring.on_execute(
            lambda rep, seq, up: per_replica[rep.index].append(up.update_id)
        )
        for i in range(5):
            ring.submit(clients[0], make_simple_update(author, payload=f"u{i}".encode(), ts=float(i)))
        kernel.run(until=60_000.0)
        orders = {tuple(v) for v in per_replica.values()}
        assert len(orders) == 1
        assert len(orders.pop()) == 5

    def test_unsigned_update_ignored(self, author):
        from dataclasses import replace

        kernel, network, ring, clients = make_ring(m=1)
        executed = []
        ring.on_execute(lambda rep, seq, up: executed.append(seq))
        genuine = make_simple_update(author)
        forged = replace(genuine, signature=b"\x00" * 32)
        ring.submit(clients[0], forged)
        kernel.run(until=10_000.0)
        assert executed == []

    def test_duplicate_submission_executes_once(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        executed = []
        ring.on_execute(lambda rep, seq, up: executed.append((rep.index, up.update_id)))
        update = make_simple_update(author)
        ring.submit(clients[0], update)
        kernel.run(until=10_000.0)
        count_before = len(executed)
        ring.submit(clients[0], update)
        kernel.run(until=20_000.0)
        assert len(executed) == count_before

    def test_bad_tier_size_rejected(self):
        kernel = Kernel()
        graph = nx.complete_graph(5)
        nx.set_edge_attributes(graph, 10.0, "latency_ms")
        network = Network(kernel, graph)
        rng = random.Random(0)
        principals = [make_principal(f"r{i}", rng, bits=256) for i in range(5)]
        with pytest.raises(ValueError):
            InnerRing(kernel, network, list(range(5)), principals, m=1)

    def test_commit_latency_under_a_second(self, author):
        # Section 4.4.5: six phases at ~100 ms -> < 1 s.  Our WAN edges
        # are 100 ms; client-visible certificate time stays under 1 s.
        kernel, network, ring, clients = make_ring(m=1, wan_latency=100.0)
        commit_times = []
        ring.on_certificate(lambda cert: commit_times.append(kernel.now))
        ring.submit(clients[0], make_simple_update(author))
        kernel.run(until=10_000.0)
        assert commit_times and commit_times[0] < 1000.0


class TestPBFTFaults:
    def test_tolerates_m_silent_replicas(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        ring.set_fault(2, FaultMode.SILENT)  # a non-leader backup
        executed = []
        ring.on_execute(lambda rep, seq, up: executed.append(rep.index))
        ring.submit(clients[0], make_simple_update(author))
        kernel.run(until=10_000.0)
        assert set(executed) == {0, 1, 3}

    def test_tolerates_m_equivocating_replicas(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        ring.set_fault(3, FaultMode.EQUIVOCATE)
        executed = []
        ring.on_execute(lambda rep, seq, up: executed.append(rep.index))
        ring.submit(clients[0], make_simple_update(author))
        kernel.run(until=10_000.0)
        assert {0, 1, 2}.issubset(set(executed))

    def test_stalls_beyond_m_faults(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        ring.set_fault(1, FaultMode.SILENT)
        ring.set_fault(2, FaultMode.SILENT)
        executed = []
        ring.on_execute(lambda rep, seq, up: executed.append(rep.index))
        ring.submit(clients[0], make_simple_update(author))
        kernel.run(until=30_000.0)
        assert executed == []  # safety: no quorum, no progress

    def test_view_change_on_leader_failure(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        ring.set_fault(0, FaultMode.SILENT)  # the view-0 leader
        executed = []
        ring.on_execute(lambda rep, seq, up: executed.append(rep.index))
        ring.submit(clients[0], make_simple_update(author))
        kernel.run(until=60_000.0)
        assert {1, 2, 3}.issubset(set(executed))
        assert all(r.view >= 1 for r in ring.replicas if r.fault_mode is FaultMode.HONEST)

    def test_faulty_count(self, author):
        _, _, ring, _ = make_ring(m=2)
        ring.set_fault(0, FaultMode.SILENT)
        ring.set_fault(3, FaultMode.EQUIVOCATE)
        assert ring.faulty_count() == 2


class TestMeasuredBandwidth:
    def test_measured_bytes_track_analytic_model(self, author):
        # The measured protocol bytes should land within a small factor of
        # the paper's equation (same n^2 / n structure, same constants).
        for m in (1, 2):
            n = 3 * m + 1
            kernel, network, ring, clients = make_ring(m=m)
            update = make_simple_update(author, payload=b"x" * 4096)
            before = network.stats_total_bytes
            ring.submit(clients[0], update)
            kernel.run(until=30_000.0)
            measured = network.stats_total_bytes - before
            predicted = update_cost_bytes(update.size_bytes(), n)
            assert 0.4 < measured / predicted < 3.0

    def test_larger_updates_amortize_overhead(self, author):
        kernel, network, ring, clients = make_ring(m=1)
        small = make_simple_update(author, payload=b"x" * 100, ts=1.0)
        before = network.stats_total_bytes
        ring.submit(clients[0], small)
        kernel.run(until=10_000.0)
        small_bytes = network.stats_total_bytes - before
        big = make_simple_update(author, payload=b"x" * 100_000, ts=2.0)
        before = network.stats_total_bytes
        ring.submit(clients[0], big)
        kernel.run(until=30_000.0)
        big_bytes = network.stats_total_bytes - before
        small_norm = small_bytes / minimum_cost_bytes(small.size_bytes(), 4)
        big_norm = big_bytes / minimum_cost_bytes(big.size_bytes(), 4)
        assert big_norm < small_norm
        assert big_norm < 2.0


class TestLaggardCatchUp:
    """State transfer for replicas that missed committed slots."""

    def _partitioned_laggard(self, author):
        """Commit one update while replica 3 is cut off; return the parts."""
        from repro.consistency.pbft import update_digest

        kernel, network, ring, clients = make_ring(m=1)
        update = make_simple_update(author)
        # Cut replica 3 off from its peers but not from the client: it
        # learns the request exists (arming its progress timer) yet
        # misses the entire agreement, so only state transfer can save it.
        network.add_partition({3}, {0, 1, 2})
        ring.submit(clients[0], update)
        kernel.run(until=60_000.0)
        laggard = ring.replicas[3]
        assert laggard.last_executed_seq == -1
        donor = ring.replicas[0]
        assert donor.executed_by_seq[0] == update_digest(update)
        return kernel, network, ring, update, donor, laggard

    def test_catch_up_over_healed_partition(self, author):
        kernel, network, ring, update, donor, laggard = self._partitioned_laggard(
            author
        )
        network.heal_partitions()
        kernel.run(until=120_000.0)
        assert laggard.last_executed_seq == 0
        assert update.update_id in laggard.executed_updates

    def _offer(self, laggard, certificate):
        from repro.consistency.pbft import CatchUpResponse

        laggard._on_catch_up_response(CatchUpResponse((certificate,), (), 0))

    def test_valid_certificate_adopted(self, author):
        kernel, network, ring, update, donor, laggard = self._partitioned_laggard(
            author
        )
        certificate = donor.certificates[0]
        assert certificate.verify(ring)
        self._offer(laggard, certificate)
        assert laggard.last_executed_seq == 0
        assert update.update_id in laggard.executed_updates
        # The adopted certificate is served on to later laggards.
        assert laggard.certificates[0] is certificate

    def test_certificate_below_quorum_rejected(self, author):
        kernel, network, ring, update, donor, laggard = self._partitioned_laggard(
            author
        )
        certificate = donor.certificates[0]
        short = replace(certificate, signatures=certificate.signatures[: ring.m + 1])
        self._offer(laggard, short)
        # m+1 valid signers are not 2m+1: a certificate needs a commit quorum
        assert laggard.last_executed_seq == -1

    def test_certificate_with_wrong_body_rejected(self, author):
        kernel, network, ring, update, donor, laggard = self._partitioned_laggard(
            author
        )
        forged_body = make_simple_update(author, payload=b"forged", ts=9.0)
        self._offer(laggard, replace(donor.certificates[0], updates=(forged_body,)))
        assert laggard.last_executed_seq == -1

    def test_certificate_with_forged_signatures_rejected(self, author):
        kernel, network, ring, update, donor, laggard = self._partitioned_laggard(
            author
        )
        forged = tuple((idx, b"not-a-signature") for idx in (0, 1, 2))
        self._offer(laggard, replace(donor.certificates[0], signatures=forged))
        assert laggard.last_executed_seq == -1

    def test_certificate_from_two_views_rejected(self, author):
        from repro.consistency.pbft import CommitCertificate

        kernel, network, ring, update, donor, laggard = self._partitioned_laggard(
            author
        )
        certificate = donor.certificates[0]
        assert certificate.view == 0
        # Two genuine view-0 commit signatures and one genuine signature
        # over the same slot in view 1: three valid shares, two views.
        view_0 = certificate.signatures[:2]
        signer = next(i for i in range(ring.n) if i not in dict(view_0))
        view_1 = (
            signer,
            ring.replicas[signer].principal.sign(
                CommitCertificate.signed_payload(1, 0, certificate.digest)
            ),
        )
        for view in (0, 1):
            mixed = replace(certificate, view=view, signatures=(*view_0, view_1))
            assert not mixed.verify(ring)
            self._offer(laggard, mixed)
        assert laggard.last_executed_seq == -1

    def test_pre_prepare_alone_arms_progress_timer(self, author):
        from repro.consistency.pbft import (
            CatchUpRequest,
            PBFTReplica,
            PrePrepare,
            update_digest,
        )

        kernel, network, ring, clients = make_ring(m=1)
        update = make_simple_update(author)
        replica = ring.replicas[2]  # non-leader that never saw the request
        catch_ups = []
        send = network.send

        def logged_send(src, dst, payload, size_bytes, **kw):
            if isinstance(payload, CatchUpRequest):
                catch_ups.append((kernel.now, src))
            send(src, dst, payload, size_bytes, **kw)

        network.send = logged_send
        replica.known_by_digest[update_digest(update)] = update
        replica._on_pre_prepare(PrePrepare(0, 0, update_digest(update)))
        kernel.run(until=PBFTReplica.VIEW_TIMEOUT_MS)
        # The pre-prepare alone started the timer: one timeout later the
        # replica asks each peer for the state it may have missed.
        assert catch_ups == [(PBFTReplica.VIEW_TIMEOUT_MS, replica.network_id)] * 3
