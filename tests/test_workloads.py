"""Tests for the synthetic workload generators."""

import random
from collections import Counter

import pytest

from repro.core.workloads import (
    EmailWorkload,
    correlated_trace,
    diurnal_trace,
)


class TestCorrelatedTrace:
    def test_no_noise_is_pure_pattern(self):
        trace = correlated_trace(4, 10, 0.0, random.Random(0))
        assert len(trace) == 40
        assert len(set(trace)) == 4

    def test_noise_injects_extra_accesses(self):
        trace = correlated_trace(4, 100, 0.5, random.Random(0))
        assert len(trace) > 400
        assert len(set(trace)) > 4

    def test_validation(self):
        with pytest.raises(ValueError):
            correlated_trace(4, 10, 1.0, random.Random(0))


class TestDiurnalTrace:
    def test_alternates_sites(self):
        trace = diurnal_trace(3, 2, 5, random.Random(0))
        assert len(trace) == 2 * 2 * 5
        sites = [a.site for a in trace]
        assert sites[:5] == ["work"] * 5
        assert sites[5:10] == ["home"] * 5

    def test_times_monotone(self):
        trace = diurnal_trace(3, 3, 4, random.Random(0))
        times = [a.time_ms for a in trace]
        assert times == sorted(times)

    def test_cluster_membership(self):
        trace = diurnal_trace(2, 1, 10, random.Random(0))
        assert len({a.object_guid for a in trace}) <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_trace(0, 1, 1, random.Random(0))


class TestEmailWorkload:
    def test_mix_of_operations(self):
        workload = EmailWorkload(["a", "b"], "owner", random.Random(0))
        ops = workload.next_ops(200)
        kinds = Counter(op.kind for op in ops)
        assert kinds["deliver"] > kinds["read"] > kinds["move"] > 0

    def test_messages_unique(self):
        workload = EmailWorkload(["a"], "owner", random.Random(1))
        ops = [op for op in workload.next_ops(100) if op.kind == "deliver"]
        assert len({op.message for op in ops}) == len(ops)

    def test_senders_attributed(self):
        workload = EmailWorkload(["alice", "bob"], "owner", random.Random(2))
        delivers = [op for op in workload.next_ops(100) if op.kind == "deliver"]
        assert {op.actor for op in delivers} == {"alice", "bob"}

    def test_moves_target_archive(self):
        workload = EmailWorkload(["a"], "owner", random.Random(3))
        moves = [op for op in workload.next_ops(200) if op.kind == "move"]
        assert moves
        assert all(op.target_folder == "archive" for op in moves)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmailWorkload([], "owner", random.Random(0))
