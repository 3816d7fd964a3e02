"""StatsCollector keeps plain numbers; finalize() folds exactly those."""

import pytest

from repro.core.metrics import StatsCollector
from repro.core.path import PathDecision


def _collector(n_ranks=4):
    c = StatsCollector("mcio", "write", n_ranks=n_ranks)
    c.mark_start(0.0)
    c.mark_end(1.0)
    return c


class TestFinalize:
    def test_finalize_reads_the_live_fields(self):
        c = _collector()
        c.record_bytes(1000)
        c.record_bytes(24)
        c.record_rounds(3)
        c.record_failover()
        c.record_failover(2)
        c.path = PathDecision("lockstep", ("vectorized:fault-schedule",))
        stats = c.finalize()
        assert c.total_bytes == stats.total_bytes == 1024
        assert c.rounds_total == stats.rounds_total == 3
        assert c.failovers == stats.failovers == 3
        assert stats.degraded_tier is None
        assert stats.path is c.path
        assert stats.execution_mode == "per-rank"
        assert "vectorized_refusal" not in stats.extra

    def test_buffer_and_overcommit_keep_the_peak(self):
        c = _collector()
        c.record_aggregator(2, 4096, paged=False, overcommit_bytes=128)
        c.record_aggregator(2, 1024, paged=False, overcommit_bytes=512)
        c.record_aggregator(2, 2048, paged=False, overcommit_bytes=0)
        c.record_aggregator(5, 10, paged=False)
        stats = c.finalize()
        assert stats.agg_buffer_bytes == {2: 4096, 5: 10}  # peak, not last
        assert stats.agg_overcommit_bytes == {2: 512, 5: 0}
        assert stats.aggregator_ranks == (2, 5)
        assert stats.n_aggregators == 2
        assert stats.agg_memory_peak == 4096

    def test_paged_rank_set(self):
        c = _collector()
        c.record_aggregator(1, 10, paged=True)
        c.record_aggregator(1, 20, paged=False)  # paging is sticky
        c.record_aggregator(3, 10, paged=True)
        c.record_aggregator(4, 10, paged=False)
        assert c.paged_aggregators == {1, 3}
        assert c.finalize().paged_aggregators == 2

    def test_split_shuffle_totals(self):
        c = _collector()
        c.record_shuffle(500, same_node=True)
        c.record_shuffle(300, same_node=False)
        c.record_shuffle(200, same_node=False)
        stats = c.finalize()
        assert stats.shuffle_intra_node_bytes == 500
        assert stats.shuffle_inter_node_bytes == 500

    def test_integer_exactness(self):
        """Sums stay exact Python ints (goldens compare bit for bit)."""
        c = _collector()
        c.record_bytes(2**60)
        c.record_bytes(1)
        c.record_shuffle(2**60, same_node=False)
        c.record_shuffle(1, same_node=False)
        stats = c.finalize()
        for value in (stats.total_bytes, stats.shuffle_inter_node_bytes):
            assert value == 2**60 + 1
            assert type(value) is int

    def test_registry_parameter_rejected(self):
        with pytest.raises(TypeError):
            StatsCollector("mcio", "write", n_ranks=2, registry=object())

    def test_finalize_needs_start_and_end(self):
        with pytest.raises(RuntimeError):
            StatsCollector("mcio", "write", n_ranks=2).finalize()
