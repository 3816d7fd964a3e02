"""Integration tests: memory-conscious collective I/O end-to-end."""

import numpy as np
import pytest

from repro.core import (
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.core.request import AccessPattern
from repro.mpi import block_decompose_3d, subarray_view_3d, vector_view

from tests.helpers import make_stack, rank_payload


def serial_pattern(rank, width=500):
    return AccessPattern.contiguous(rank * width, width)


def interleaved_pattern(rank, n_ranks, xfer=64, blocks=6):
    return vector_view(offset=rank * xfer, count=blocks, block=xfer,
                       stride=n_ranks * xfer)


def mcio_cfg(**kw):
    defaults = dict(
        msg_group=4096,
        msg_ind=1024,
        mem_min=0,
        nah=2,
        cb_buffer_size=1024,
    )
    defaults.update(kw)
    return MCIOConfig(**defaults)


def roundtrip(stack, engine, make_pattern):
    n = stack.comm.size
    payloads = {}

    def writer(ctx):
        pattern = make_pattern(ctx.rank)
        payloads[ctx.rank] = rank_payload(ctx.rank, pattern.nbytes)
        yield from engine.write(ctx, pattern, payloads[ctx.rank].copy())

    stack.run_spmd(writer)

    def reader(ctx):
        data = yield from engine.read(ctx, make_pattern(ctx.rank))
        return data

    results = stack.run_spmd(reader)
    for r in range(n):
        assert (results[r] == payloads[r]).all(), f"rank {r} data corrupt"


class TestCorrectness:
    def test_serial_roundtrip(self):
        stack = make_stack(n_ranks=12, n_nodes=3)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, mcio_cfg())
        roundtrip(stack, engine, lambda r: serial_pattern(r))

    def test_interleaved_roundtrip(self):
        stack = make_stack(n_ranks=8, n_nodes=2)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg(msg_group=1024, msg_ind=512)
        )
        roundtrip(stack, engine, lambda r: interleaved_pattern(r, 8))

    def test_3d_subarray_roundtrip(self):
        stack = make_stack(n_ranks=8, n_nodes=2)
        g = (8, 8, 8)
        blocks = block_decompose_3d(g, 8)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg(msg_group=256, msg_ind=128)
        )
        roundtrip(
            stack, engine,
            lambda r: subarray_view_3d(g, blocks[r][1], blocks[r][0], elem_size=2),
        )

    def test_multi_round_roundtrip(self):
        stack = make_stack(n_ranks=6, n_nodes=3)
        # tight availability keeps buffers near the nominal 64 B, forcing
        # several rounds per domain (buffers cannot expand)
        stack.cluster.set_memory_availability([150, 150, 150])
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs,
            mcio_cfg(cb_buffer_size=64, msg_ind=512, msg_group=2048),
        )
        roundtrip(stack, engine, lambda r: serial_pattern(r, 300))
        assert engine.history[0].rounds_total > engine.history[0].n_aggregators

    def test_empty_and_nonempty_mix(self):
        stack = make_stack(n_ranks=4, n_nodes=2)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, mcio_cfg())
        payload = rank_payload(3, 200)

        def main(ctx):
            if ctx.rank == 3:
                yield from engine.write(ctx, AccessPattern.contiguous(0, 200),
                                        payload.copy())
            else:
                yield from engine.write(ctx, AccessPattern(()))

        stack.run_spmd(main)
        assert (stack.pfs.datastore.read(0, 200) == payload).all()


class TestPlanningBehaviour:
    def run_write(self, stack, engine, make_pattern):
        def writer(ctx):
            pattern = make_pattern(ctx.rank)
            yield from engine.write(ctx, pattern,
                                    rank_payload(ctx.rank, pattern.nbytes))

        stack.run_spmd(writer)
        return engine.history[-1]

    def test_groups_formed_for_serial_data(self):
        stack = make_stack(n_ranks=12, n_nodes=3)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs,
            mcio_cfg(msg_group=2000, msg_ind=1000),
        )
        stats = self.run_write(stack, engine, lambda r: serial_pattern(r, 500))
        # 12 ranks x 500 B = 6000 B over 3 nodes; msg_group 2000 -> 3 groups
        assert stats.n_groups == 3
        total_shuffle = stats.shuffle_intra_node_bytes + stats.shuffle_inter_node_bytes
        assert total_shuffle == 12 * 500

    def test_memory_aware_placement_avoids_starved_node(self):
        stack = make_stack(n_ranks=12, n_nodes=3)
        stack.cluster.set_memory_availability([50, 10**8, 10**8])
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs,
            mcio_cfg(msg_group=10**6, msg_ind=2048, cb_buffer_size=2048),
        )
        stats = self.run_write(stack, engine, lambda r: serial_pattern(r, 500))
        assert stats.paged_aggregators == 0
        # no aggregator lives on node 0 (ranks 0-3)
        assert all(r >= 4 for r in stats.aggregator_ranks)

    def test_baseline_pages_where_mcio_does_not(self):
        # storage fast enough that the paged aggregator's throttled
        # shuffle/assembly path is the bottleneck, and a paging penalty in
        # the realistic swap-vs-DRAM range (~30x)
        def run(strategy_factory):
            stack = make_stack(
                n_ranks=12, n_nodes=3,
                server_bandwidth=1e8, request_overhead=1e-5,
                paging_penalty=32.0,
            )
            stack.cluster.set_memory_availability([100, 10**8, 10**8])
            engine = strategy_factory(stack)
            return self.run_write(stack, engine,
                                  lambda r: serial_pattern(r, 5000))

        base = run(lambda s: TwoPhaseCollectiveIO(
            s.comm, s.pfs, TwoPhaseConfig(cb_buffer_size=20480)))
        mcio = run(lambda s: MemoryConsciousCollectiveIO(
            s.comm, s.pfs,
            mcio_cfg(msg_group=10**6, msg_ind=20480, cb_buffer_size=20480)))
        assert base.paged_aggregators > 0
        assert mcio.paged_aggregators == 0
        assert mcio.elapsed < base.elapsed

    def test_nah_respected(self):
        stack = make_stack(n_ranks=12, n_nodes=3)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs,
            mcio_cfg(msg_group=10**6, msg_ind=256, cb_buffer_size=256, nah=2),
        )
        stats = self.run_write(stack, engine, lambda r: serial_pattern(r, 500))
        per_node = {}
        for rank in stats.aggregator_ranks:
            node = stack.comm.node_id_of_rank(rank)
            per_node[node] = per_node.get(node, 0) + 1
        assert all(v <= 2 for v in per_node.values())

    def test_more_aggregators_than_baseline_when_memory_allows(self):
        """With small msg_ind, MCIO deploys N_ah aggregators per node."""
        stack = make_stack(n_ranks=12, n_nodes=3)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs,
            mcio_cfg(msg_group=10**6, msg_ind=512, cb_buffer_size=512, nah=2),
        )
        stats = self.run_write(stack, engine, lambda r: serial_pattern(r, 500))
        assert stats.n_aggregators > 3  # baseline would use exactly 3

    def test_total_starvation_falls_back_paged(self):
        stack = make_stack(n_ranks=6, n_nodes=3)
        stack.cluster.set_memory_availability([10, 10, 10])
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs,
            mcio_cfg(msg_group=512, msg_ind=512, cb_buffer_size=2048),
        )
        stats = self.run_write(stack, engine, lambda r: serial_pattern(r, 500))
        assert stats.paged_aggregators > 0  # graceful degradation

    def test_memory_variance_lower_than_baseline(self):
        """MCIO balances buffer memory across aggregator hosts."""
        def run(strategy_factory):
            stack = make_stack(n_ranks=12, n_nodes=3)
            engine = strategy_factory(stack)
            return self.run_write(stack, engine,
                                  lambda r: serial_pattern(r, 3000))

        base = run(lambda s: TwoPhaseCollectiveIO(
            s.comm, s.pfs, TwoPhaseConfig(cb_buffer_size=16384)))
        mcio = run(lambda s: MemoryConsciousCollectiveIO(
            s.comm, s.pfs,
            mcio_cfg(msg_group=12000, msg_ind=3000, cb_buffer_size=16384)))
        # baseline allocates the full fixed buffer everywhere; MCIO caps
        # buffers at the domain size -> lower peak commitment
        assert mcio.agg_memory_peak <= base.agg_memory_peak

    def test_deterministic(self):
        def run():
            stack = make_stack(n_ranks=12, n_nodes=3, seed=7)
            stack.cluster.sample_memory_availability(mean_bytes=2048,
                                                     sigma_bytes=1024)
            engine = MemoryConsciousCollectiveIO(
                stack.comm, stack.pfs,
                mcio_cfg(msg_group=4096, msg_ind=1024, cb_buffer_size=2048),
            )
            stats = self.run_write(stack, engine,
                                   lambda r: serial_pattern(r, 500))
            return (stats.elapsed, stats.aggregator_ranks,
                    stats.paged_aggregators)

        assert run() == run()

    def test_read_stats_recorded(self):
        stack = make_stack(n_ranks=6, n_nodes=3)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, mcio_cfg())

        def main(ctx):
            p = serial_pattern(ctx.rank, 200)
            yield from engine.write(ctx, p, rank_payload(ctx.rank, 200))
            yield from engine.read(ctx, p)

        stack.run_spmd(main)
        assert len(engine.history) == 2
        assert engine.history[1].op == "read"
        assert engine.history[1].total_bytes == 6 * 200
