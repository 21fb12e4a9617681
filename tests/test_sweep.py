"""Seed-parallel sweep layer: determinism across process counts."""

import pytest

from repro.sweep import merge_chaos_results, parse_seed_spec, sweep_chaos


class TestSeedSpec:
    def test_range(self):
        assert parse_seed_spec("0-3") == [0, 1, 2, 3]

    def test_list(self):
        assert parse_seed_spec("0,3,11") == [0, 3, 11]

    def test_single(self):
        assert parse_seed_spec("5") == [5]

    def test_mixed(self):
        assert parse_seed_spec("1-2,9") == [1, 2, 9]

    def test_descending_rejected(self):
        with pytest.raises(ValueError):
            parse_seed_spec("5-2")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_seed_spec("")


class TestChaosSweep:
    def test_inline_sweep_matches_pinned_digest(self):
        results = sweep_chaos(["pbft-delay"], [0], processes=1)
        assert len(results) == 1
        assert results[0]["passed"]
        assert results[0]["trace_digest"] == (
            "1b1bfb4d519d9b3442961dfc7fef3e52db7fbc96676b46128efcf355a9a75c60"
        )

    def test_multiprocess_digests_match_inline(self):
        """The headline determinism claim: sharding a sweep across
        worker processes changes nothing about any task's digest."""
        tasks = (["pbft-delay"], [0, 1])
        inline = sweep_chaos(*tasks, processes=1)
        parallel = sweep_chaos(*tasks, processes=2)
        assert inline == parallel

    def test_results_ordered_scenario_major(self):
        results = sweep_chaos(["pbft-delay", "pbft-silent"], [0], processes=1)
        assert [r["scenario"] for r in results] == ["pbft-delay", "pbft-silent"]

    def test_merge_reports_oracle_verdict(self):
        results = sweep_chaos(["pbft-delay"], [0], processes=1)
        merged = merge_chaos_results(results)
        assert merged["total"] == 1
        assert merged["passed"] == 1
        assert merged["all_passed"]
        assert merged["failed"] == []
        assert "pbft-delay:0" in merged["digests"]

