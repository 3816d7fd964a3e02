"""Tests for the figure machinery and micro-scale figure runs."""

import pytest

from repro.cluster import ClusterSpec, NodeSpec, StorageSpec
from repro.core import MCIOConfig
from repro.experiments import figure6, figure7, figure8
from repro.experiments.figures import FigureConfig, FigureResult, run_figure
from repro.workloads import CollPerfWorkload, IORWorkload


def micro_spec(nodes=3):
    return ClusterSpec(
        nodes=nodes,
        node=NodeSpec(
            cores=4,
            memory_bytes=10**7,
            memory_bandwidth=1e8,
            memory_channels=2,
            nic_bandwidth=1e7,
            nic_latency=1e-6,
        ),
        storage=StorageSpec(
            servers=4, server_bandwidth=1e6, request_overhead=2e-3, stripe_size=512
        ),
        paging_penalty=16.0,
    )


def micro_figure():
    """A seconds-scale figure config exercising the whole pipeline."""
    return FigureConfig(
        figure_id="micro",
        description="micro coll_perf",
        spec=micro_spec(),
        workload=CollPerfWorkload(array_shape=(24, 24, 24), n_ranks=12, elem_size=8),
        buffer_sizes=(16384, 4096),
        sigma_bytes=20000,
        mcio=MCIOConfig(
            msg_group=40000, msg_ind=10000, mem_min=0, nah=2, min_buffer=256
        ),
        seed=2,
    )


class TestRunFigure:
    def test_produces_grid_and_tables(self):
        result = run_figure(micro_figure())
        assert len(result.points) == 2 * 2 * 2
        text = result.render()
        assert "write" in text and "read" in text
        assert "average improvement" in text

    def test_rows_sorted_by_buffer(self):
        result = run_figure(micro_figure())
        rows = result.rows("write")
        assert [r[0] for r in rows] == [16384, 4096]

    def test_check_shape_returns_list(self):
        result = run_figure(micro_figure())
        assert isinstance(result.check_shape(), list)

    def test_average_improvements_keys(self):
        result = run_figure(micro_figure())
        assert set(result.average_improvements()) == {"write", "read"}


class TestFigureConfigs:
    """The shipped configs must match the paper's run geometry."""

    def test_figure6_paper_geometry(self):
        cfg = figure6.paper_config()
        assert cfg.workload.array_shape == (2048, 2048, 2048)
        assert cfg.workload.n_ranks == 120
        assert cfg.spec.total_cores == 120
        assert max(cfg.buffer_sizes) == 128 * 2**20
        assert min(cfg.buffer_sizes) == 2 * 2**20
        assert cfg.sigma_bytes == 50 * 2**20  # the paper's sigma=50

    def test_figure7_paper_geometry(self):
        cfg = figure7.paper_config()
        assert cfg.workload.n_ranks == 120
        assert cfg.workload.bytes_per_rank == 32 * 2**20  # 32 MB/process

    def test_figure8_paper_geometry(self):
        cfg = figure8.paper_config()
        assert cfg.workload.n_ranks == 1080
        assert cfg.spec.nodes == 90
        assert cfg.workload.bytes_per_rank == 32 * 2**20

    def test_small_configs_have_same_rank_counts(self):
        assert figure6.small_config().workload.n_ranks == 120
        assert figure7.small_config().workload.n_ranks == 120
        assert figure8.small_config().workload.n_ranks == 1080

    def test_paper_stripe_is_1mib(self):
        for cfg in (figure6.paper_config(), figure7.paper_config(),
                    figure8.paper_config()):
            assert cfg.spec.storage.stripe_size == 2**20

    def test_configs_patterns_cover_expected_bytes(self):
        cfg = figure7.small_config()
        patterns = cfg.patterns()
        assert len(patterns) == 120
        assert sum(p.nbytes for p in patterns) == cfg.workload.total_bytes


@pytest.mark.slow
class TestFigure6SmallShape:
    """The actual (small-scale) Figure 6 run satisfies the paper's shape."""

    def test_shape(self):
        result = figure6.run()
        issues = result.check_shape()
        assert issues == [], "\n".join(issues)
        avgs = result.average_improvements()
        assert avgs["write"] > 15.0
        assert avgs["read"] > 15.0
