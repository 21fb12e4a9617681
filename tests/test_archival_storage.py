"""Tests for archival fragments, reliability math, placement, fetch, repair."""

import random

import networkx as nx
import pytest

from repro.archival import (
    AdministrativeDomain,
    ArchiveIndex,
    FragmentFetcher,
    FragmentPlacer,
    FragmentStore,
    PlacementError,
    ReedSolomonCode,
    RepairSweeper,
    TornadoCode,
    document_availability,
    encode_archival,
    erasure_availability,
    monte_carlo_availability,
    nines,
    reconstruct_archival,
    replication_availability,
    storage_overhead,
    verify_fragment,
)
from repro.sim import Kernel, Network


class TestArchivalFragments:
    def test_encode_reconstruct_round_trip(self):
        code = ReedSolomonCode(k=4, n=8)
        data = b"deep archival storage survives global disaster" * 10
        archival = encode_archival(data, code)
        root = archival.fragments[0].merkle_root
        assert reconstruct_archival(list(archival.fragments), code, root) == data

    def test_any_k_fragments_suffice(self):
        code = ReedSolomonCode(k=4, n=8)
        data = b"x" * 1000
        archival = encode_archival(data, code)
        root = archival.fragments[0].merkle_root
        subset = list(archival.fragments)[4:]  # parity only
        assert reconstruct_archival(subset, code, root) == data

    def test_fragments_self_verify(self):
        code = ReedSolomonCode(k=3, n=6)
        archival = encode_archival(b"verify me", code)
        assert all(f.verify() for f in archival.fragments)

    def test_corrupt_fragment_detected_and_excluded(self):
        from dataclasses import replace

        code = ReedSolomonCode(k=3, n=6)
        data = b"integrity matters" * 5
        archival = encode_archival(data, code)
        root = archival.fragments[0].merkle_root
        corrupted = replace(
            archival.fragments[0],
            payload=b"EVIL" + archival.fragments[0].payload[4:],
        )
        assert not corrupted.verify()
        mixed = [corrupted] + list(archival.fragments[1:])
        assert reconstruct_archival(mixed, code, root) == data

    def test_wrong_root_rejects_all(self):
        code = ReedSolomonCode(k=2, n=4)
        a = encode_archival(b"object a", code)
        b = encode_archival(b"object b", code)
        assert not verify_fragment(a.fragments[0], b.fragments[0].merkle_root)

    def test_archival_guid_deterministic(self):
        code = ReedSolomonCode(k=2, n=4)
        assert (
            encode_archival(b"same bytes", code).archival_guid
            == encode_archival(b"same bytes", code).archival_guid
        )

    def test_empty_data(self):
        code = ReedSolomonCode(k=2, n=4)
        archival = encode_archival(b"", code)
        root = archival.fragments[0].merkle_root
        assert reconstruct_archival(list(archival.fragments), code, root) == b""

    def test_tornado_archival(self):
        code = TornadoCode(k=8, n=24, seed=1)
        data = b"tornado codes are faster" * 20
        archival = encode_archival(data, code)
        root = archival.fragments[0].merkle_root
        assert reconstruct_archival(list(archival.fragments), code, root) == data


class TestReliabilityMath:
    def test_paper_replication_example(self):
        # One million machines, 10% down, 2 replicas: "two nines (0.99)".
        p = replication_availability(1_000_000, 100_000, replicas=2)
        assert p == pytest.approx(0.99, abs=0.0001)

    def test_paper_erasure_16_example(self):
        # Rate-1/2 into 16 fragments: "over five nines (0.999994)".
        p = erasure_availability(1_000_000, 100_000, fragments=16, rate=0.5)
        assert p > 0.99999
        assert p == pytest.approx(0.999994, abs=2e-6)

    def test_paper_factor_4000_example(self):
        # 32 fragments: "the reliability increases by another factor of 4000".
        n, m = 1_000_000, 100_000
        fail16 = 1 - erasure_availability(n, m, fragments=16, rate=0.5)
        fail32 = 1 - erasure_availability(n, m, fragments=32, rate=0.5)
        improvement = fail16 / fail32
        assert 1000 < improvement < 20_000

    def test_same_storage_cost(self):
        # The 16-fragment rate-1/2 code "consumes the same amount of
        # storage" as 2x replication.
        assert storage_overhead(16, 0.5) == 2.0

    def test_monotone_in_down_machines(self):
        ps = [
            document_availability(10_000, m, f=16, rf=8)
            for m in (100, 1000, 3000, 5000)
        ]
        assert ps == sorted(ps, reverse=True)

    def test_nines(self):
        assert nines(0.99) == pytest.approx(2.0)
        assert nines(0.999994) == pytest.approx(5.22, abs=0.01)

    def test_monte_carlo_matches_analytic(self):
        n, m, f, rf = 10_000, 1_000, 16, 8
        analytic = document_availability(n, m, f, rf)
        mc = monte_carlo_availability(n, m, f, rf, random.Random(0), trials=5000)
        assert mc.availability == pytest.approx(analytic, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            document_availability(10, 20, 5, 2)
        with pytest.raises(ValueError):
            document_availability(10, 1, 0, 0)
        with pytest.raises(ValueError):
            document_availability(10, 1, 5, 5)
        with pytest.raises(ValueError):
            erasure_availability(100, 10, 16, rate=1.5)
        with pytest.raises(ValueError):
            nines(1.5)


class TestPlacement:
    def make_domains(self):
        return [
            AdministrativeDomain("reliable-corp", list(range(0, 8)), reliability=0.99),
            AdministrativeDomain("mid-isp", list(range(8, 16)), reliability=0.9),
            AdministrativeDomain("flaky-cafe", list(range(16, 24)), reliability=0.6),
        ]

    def test_plan_covers_all_fragments(self):
        placer = FragmentPlacer(self.make_domains())
        plan = placer.plan(12)
        assert len(plan.assignments) == 12
        assert len(set(plan.servers())) == 12  # distinct servers

    def test_no_domain_exceeds_cap(self):
        placer = FragmentPlacer(self.make_domains())
        plan = placer.plan(12, max_fraction_per_domain=0.5)
        assert placer.worst_case_loss(plan) <= 6

    def test_reliable_domains_preferred(self):
        placer = FragmentPlacer(self.make_domains())
        plan = placer.plan(4, max_fraction_per_domain=1.0)
        domains = {placer.domain_of(s).name for s in plan.servers()}
        assert "reliable-corp" in domains

    def test_capacity_exceeded(self):
        placer = FragmentPlacer(self.make_domains())
        with pytest.raises(PlacementError):
            placer.plan(25)

    def test_cap_too_tight(self):
        placer = FragmentPlacer(self.make_domains())
        with pytest.raises(PlacementError):
            placer.plan(24, max_fraction_per_domain=0.1)

    def test_invalid_domains(self):
        with pytest.raises(PlacementError):
            FragmentPlacer([])
        with pytest.raises(PlacementError):
            AdministrativeDomain("x", [], reliability=0.9)
        with pytest.raises(PlacementError):
            AdministrativeDomain("x", [1], reliability=0.0)
        with pytest.raises(PlacementError):
            FragmentPlacer(
                [
                    AdministrativeDomain("dup", [1]),
                    AdministrativeDomain("dup", [2]),
                ]
            )


def make_fetch_world(n_servers=12, drop=0.0, seed=0):
    kernel = Kernel()
    graph = nx.complete_graph(n_servers + 1)
    nx.set_edge_attributes(graph, 30.0, "latency_ms")
    network = Network(kernel, graph)
    stores = {node: FragmentStore() for node in range(n_servers)}
    fetcher = FragmentFetcher(
        kernel, network, stores, random.Random(seed), drop_probability=drop
    )
    client = n_servers
    return kernel, network, stores, fetcher, client


class TestFragmentFetcher:
    def place(self, stores, archival):
        servers = sorted(stores)
        for i, fragment in enumerate(archival.fragments):
            stores[servers[i % len(servers)]].put(fragment)

    def test_fetch_reconstructs(self):
        kernel, network, stores, fetcher, client = make_fetch_world()
        code = ReedSolomonCode(k=4, n=8)
        data = b"fetch me from the wide area" * 8
        archival = encode_archival(data, code)
        self.place(stores, archival)
        result = fetcher.fetch(
            client,
            archival.archival_guid.to_bytes(),
            code,
            archival.fragments[0].merkle_root,
        )
        assert result.success and result.data == data

    def test_fetch_fails_when_too_few_holders(self):
        kernel, network, stores, fetcher, client = make_fetch_world()
        code = ReedSolomonCode(k=4, n=8)
        archival = encode_archival(b"scarce", code)
        servers = sorted(stores)
        for fragment in archival.fragments[:3]:  # fewer than k
            stores[servers[fragment.index]].put(fragment)
        result = fetcher.fetch(
            client,
            archival.archival_guid.to_bytes(),
            code,
            archival.fragments[0].merkle_root,
        )
        assert not result.success

    def test_drops_recovered_by_retry(self):
        kernel, network, stores, fetcher, client = make_fetch_world(drop=0.5, seed=3)
        code = ReedSolomonCode(k=4, n=8)
        data = b"lossy network" * 10
        archival = encode_archival(data, code)
        self.place(stores, archival)
        result = fetcher.fetch(
            client,
            archival.archival_guid.to_bytes(),
            code,
            archival.fragments[0].merkle_root,
            extra=2,
        )
        assert result.success and result.data == data
        assert result.requests_sent > 4  # retries happened

    def test_extra_requests_reduce_latency_under_drops(self):
        code = ReedSolomonCode(k=8, n=16)
        data = b"extra fragments help" * 20
        archival = encode_archival(data, code)
        elapsed = {}
        for extra in (0, 4):
            times = []
            for seed in range(8):
                kernel, network, stores, fetcher, client = make_fetch_world(
                    n_servers=16, drop=0.3, seed=seed
                )
                self.place(stores, archival)
                result = fetcher.fetch(
                    client,
                    archival.archival_guid.to_bytes(),
                    code,
                    archival.fragments[0].merkle_root,
                    extra=extra,
                )
                assert result.success
                times.append(result.elapsed_ms)
            elapsed[extra] = sum(times) / len(times)
        assert elapsed[4] <= elapsed[0]

    def test_corrupt_holders_rejected(self):
        kernel, network, stores, fetcher, client = make_fetch_world()
        code = ReedSolomonCode(k=4, n=8)
        data = b"byzantine holders" * 6
        archival = encode_archival(data, code)
        self.place(stores, archival)
        corrupt = set(sorted(stores)[:2])
        result = fetcher.fetch(
            client,
            archival.archival_guid.to_bytes(),
            code,
            archival.fragments[0].merkle_root,
            extra=4,
            corrupt_holders=corrupt,
        )
        assert result.success and result.data == data
        assert result.corrupt_rejected > 0

    def test_down_holders_skipped(self):
        kernel, network, stores, fetcher, client = make_fetch_world()
        code = ReedSolomonCode(k=4, n=8)
        data = b"dead servers" * 5
        archival = encode_archival(data, code)
        self.place(stores, archival)
        for node in sorted(stores)[:4]:
            network.set_down(node)
        result = fetcher.fetch(
            client,
            archival.archival_guid.to_bytes(),
            code,
            archival.fragments[0].merkle_root,
        )
        assert result.success

    def test_invalid_drop_probability(self):
        kernel, network, stores, _, client = make_fetch_world()
        with pytest.raises(ValueError):
            FragmentFetcher(kernel, network, stores, random.Random(0), drop_probability=1.0)


class TestRepairSweeper:
    def make_world(self):
        kernel = Kernel()
        graph = nx.complete_graph(10)
        nx.set_edge_attributes(graph, 10.0, "latency_ms")
        network = Network(kernel, graph)
        stores = {node: FragmentStore() for node in range(10)}
        return kernel, network, stores

    def test_healthy_object_untouched(self):
        kernel, network, stores = self.make_world()
        code = ReedSolomonCode(k=4, n=8)
        archival = encode_archival(b"healthy" * 10, code)
        for i, fragment in enumerate(archival.fragments):
            stores[i].put(fragment)
        index = ArchiveIndex()
        index.register(archival, code)
        sweeper = RepairSweeper(network, stores, index)
        reports = sweeper.sweep()
        assert len(reports) == 1
        assert not reports[0].repaired and not reports[0].lost

    def test_degraded_object_repaired(self):
        kernel, network, stores = self.make_world()
        code = ReedSolomonCode(k=4, n=8)
        data = b"repair me" * 10
        archival = encode_archival(data, code)
        for i, fragment in enumerate(archival.fragments):
            stores[i].put(fragment)
        # Lose three servers: 5/8 live < 0.75 threshold.
        for node in (0, 1, 2):
            network.set_down(node)
        index = ArchiveIndex()
        index.register(archival, code)
        sweeper = RepairSweeper(network, stores, index, min_live_fraction=0.75)
        reports = sweeper.sweep()
        assert reports[0].repaired
        # After repair, live distinct fragments are back at full strength.
        live = sweeper._live_fragments(archival.archival_guid.to_bytes())
        assert len(live) == 8

    def test_lost_object_reported(self):
        kernel, network, stores = self.make_world()
        code = ReedSolomonCode(k=4, n=8)
        archival = encode_archival(b"doomed" * 10, code)
        for i, fragment in enumerate(archival.fragments[:3]):  # < k survive
            stores[i].put(fragment)
        index = ArchiveIndex()
        index.register(archival, code)
        sweeper = RepairSweeper(network, stores, index)
        reports = sweeper.sweep()
        assert reports[0].lost

    def test_invalid_threshold(self):
        kernel, network, stores = self.make_world()
        with pytest.raises(ValueError):
            RepairSweeper(network, stores, ArchiveIndex(), min_live_fraction=0.0)


class TestRetainedBytes:
    """What an archive leaves behind in fragment stores, beyond its
    payloads: one shared Merkle tree and key, a small object per
    fragment and its store slot.  Per-fragment proof objects, step
    tuples, separate hash objects and per-put keys cost about 9.5 KiB
    per 8-of-16 archive of a 4 KiB state; the shared record about
    3.4 KiB on CPython 3.11.  The bound leaves room for other 3.10-3.12
    object layouts."""

    BOUND_BYTES_PER_ARCHIVE = 5 * 1024

    def test_archives_share_their_bookkeeping(self):
        import gc
        import sys
        import tracemalloc

        code = ReedSolomonCode(k=8, n=16)
        rng = random.Random(48)
        versions = [rng.randbytes(4096) for _ in range(64)]
        stores = [FragmentStore() for _ in range(code.n)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            payload_bytes = 0
            for data in versions:
                for fragment in encode_archival(data, code).fragments:
                    stores[fragment.index].put(fragment)
                    payload_bytes += sys.getsizeof(fragment.payload)
            del fragment
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_archive = (retained - payload_bytes) / len(versions)
        assert 0 < per_archive < self.BOUND_BYTES_PER_ARCHIVE
