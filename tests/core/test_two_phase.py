"""Integration tests: two-phase collective I/O end-to-end."""

import numpy as np
import pytest

from repro.core import TwoPhaseCollectiveIO, TwoPhaseConfig
from repro.core.request import AccessPattern
from repro.core.two_phase import default_aggregators
from repro.mpi import subarray_view_3d, vector_view, block_decompose_3d

from tests.helpers import make_stack, rank_payload


def serial_pattern(rank, width=500):
    return AccessPattern.contiguous(rank * width, width)


def interleaved_pattern(rank, n_ranks, xfer=64, blocks=6):
    return vector_view(offset=rank * xfer, count=blocks, block=xfer,
                       stride=n_ranks * xfer)


class TestDefaultAggregators:
    def test_one_per_node(self):
        placement = [0, 0, 1, 1, 2, 2]
        assert default_aggregators(placement) == [0, 2, 4]

    def test_cb_nodes_fewer(self):
        placement = [0, 0, 1, 1, 2, 2]
        assert default_aggregators(placement, cb_nodes=2) == [0, 2]

    def test_cb_nodes_more_round_robin(self):
        placement = [0, 0, 1, 1]
        assert default_aggregators(placement, cb_nodes=4) == [0, 2, 1, 3]

    def test_cb_nodes_invalid(self):
        with pytest.raises(ValueError):
            default_aggregators([0, 1], cb_nodes=0)


def roundtrip(stack, engine, make_pattern, nbytes_per_rank):
    """Write all ranks' payloads collectively, then read back and verify."""
    n = stack.comm.size
    payloads = [rank_payload(r, nbytes_per_rank) for r in range(n)]

    def writer(ctx):
        pattern = make_pattern(ctx.rank)
        yield from engine.write(ctx, pattern, payloads[ctx.rank].copy())
        return None

    stack.run_spmd(writer)

    def reader(ctx):
        pattern = make_pattern(ctx.rank)
        data = yield from engine.read(ctx, pattern)
        return data

    results = stack.run_spmd(reader)
    for r in range(n):
        assert (results[r] == payloads[r]).all(), f"rank {r} data corrupt"


class TestWriteReadCorrectness:
    def test_serial_roundtrip(self):
        stack = make_stack(n_ranks=12, n_nodes=3)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs,
                                      TwoPhaseConfig(cb_buffer_size=1024))
        roundtrip(stack, engine, lambda r: serial_pattern(r), 500)

    def test_serial_write_lands_at_right_offsets(self):
        stack = make_stack(n_ranks=6, n_nodes=3)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs,
                                      TwoPhaseConfig(cb_buffer_size=512))
        payloads = [rank_payload(r, 100) for r in range(6)]

        def writer(ctx):
            yield from engine.write(ctx, serial_pattern(ctx.rank, 100),
                                    payloads[ctx.rank].copy())

        stack.run_spmd(writer)
        for r in range(6):
            assert (stack.pfs.datastore.read(r * 100, 100) == payloads[r]).all()

    def test_interleaved_roundtrip(self):
        stack = make_stack(n_ranks=8, n_nodes=2)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs,
                                      TwoPhaseConfig(cb_buffer_size=512))
        n = stack.comm.size
        roundtrip(stack, engine,
                  lambda r: interleaved_pattern(r, n),
                  64 * 6)

    def test_3d_subarray_roundtrip(self):
        stack = make_stack(n_ranks=8, n_nodes=2)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs,
                                      TwoPhaseConfig(cb_buffer_size=1024))
        g = (8, 8, 8)
        blocks = block_decompose_3d(g, 8)

        def make_pattern(rank):
            starts, shape = blocks[rank]
            return subarray_view_3d(g, shape, starts, elem_size=2)

        roundtrip(stack, engine, make_pattern,
                  blocks[0][1][0] * blocks[0][1][1] * blocks[0][1][2] * 2)

    def test_small_buffer_multiple_rounds_still_correct(self):
        stack = make_stack(n_ranks=6, n_nodes=3)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs,
                                      TwoPhaseConfig(cb_buffer_size=64))
        roundtrip(stack, engine, lambda r: serial_pattern(r, 300), 300)
        stats = engine.history[0]
        assert stats.rounds_total > stats.n_aggregators  # forced multi-round

    def test_ranks_with_empty_patterns_participate(self):
        stack = make_stack(n_ranks=4, n_nodes=2)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs)
        payload = rank_payload(0, 200)

        def main(ctx):
            if ctx.rank == 0:
                pattern = AccessPattern.contiguous(0, 200)
                yield from engine.write(ctx, pattern, payload.copy())
            else:
                yield from engine.write(ctx, AccessPattern(()))

        stack.run_spmd(main)
        assert (stack.pfs.datastore.read(0, 200) == payload).all()

    def test_all_empty_patterns_noop(self):
        stack = make_stack(n_ranks=4, n_nodes=2)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs)

        def main(ctx):
            yield from engine.write(ctx, AccessPattern(()))

        stack.run_spmd(main)
        assert engine.history[0].total_bytes == 0

    def test_payload_size_mismatch_rejected(self):
        stack = make_stack(n_ranks=2, n_nodes=1)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs)

        def main(ctx):
            yield from engine.write(
                ctx, AccessPattern.contiguous(0, 100),
                np.zeros(5, dtype=np.uint8),
            )

        with pytest.raises(Exception):
            stack.run_spmd(main)


class TestStats:
    def run_write(self, stack, engine, width=500):
        def writer(ctx):
            yield from engine.write(ctx, serial_pattern(ctx.rank, width),
                                    rank_payload(ctx.rank, width))

        stack.run_spmd(writer)
        return engine.history[-1]

    def test_stats_basics(self):
        stack = make_stack(n_ranks=12, n_nodes=3)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs,
                                      TwoPhaseConfig(cb_buffer_size=2048))
        stats = self.run_write(stack, engine)
        assert stats.strategy == "two-phase"
        assert stats.op == "write"
        assert stats.total_bytes == 12 * 500
        assert stats.elapsed > 0
        assert stats.bandwidth > 0
        assert stats.n_aggregators == 3  # one per node
        assert stats.n_groups == 1

    def test_aggregators_are_first_rank_per_node(self):
        stack = make_stack(n_ranks=12, n_nodes=3, cores=4)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs)
        stats = self.run_write(stack, engine)
        assert stats.aggregator_ranks == (0, 4, 8)

    def test_buffer_bytes_reported(self):
        stack = make_stack(n_ranks=6, n_nodes=3)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs,
                                      TwoPhaseConfig(cb_buffer_size=777))
        stats = self.run_write(stack, engine)
        assert all(v == 777 for v in stats.agg_buffer_bytes.values())

    def test_paged_aggregators_detected_under_pressure(self):
        stack = make_stack(n_ranks=6, n_nodes=3)
        # node 0 has almost no memory available
        stack.cluster.set_memory_availability([100, 10**9, 10**9])
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs,
                                      TwoPhaseConfig(cb_buffer_size=4096))
        stats = self.run_write(stack, engine)
        assert stats.paged_aggregators == 1

    def test_shuffle_traffic_split(self):
        stack = make_stack(n_ranks=12, n_nodes=3)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs,
                                      TwoPhaseConfig(cb_buffer_size=4096))
        stats = self.run_write(stack, engine)
        total_shuffle = stats.shuffle_intra_node_bytes + stats.shuffle_inter_node_bytes
        assert total_shuffle == 12 * 500

    def test_consecutive_collectives(self):
        stack = make_stack(n_ranks=6, n_nodes=3)
        engine = TwoPhaseCollectiveIO(stack.comm, stack.pfs)

        def main(ctx):
            yield from engine.write(ctx, serial_pattern(ctx.rank, 100),
                                    rank_payload(ctx.rank, 100))
            yield from engine.write(ctx, serial_pattern(ctx.rank, 100),
                                    rank_payload(ctx.rank + 1, 100))

        stack.run_spmd(main)
        assert len(engine.history) == 2
        # second write overwrote the first
        assert (stack.pfs.datastore.read(0, 100) == rank_payload(1, 100)).all()


class TestPerformanceShape:
    def measure(self, cb_buffer_size, availability=None, n_ranks=12, n_nodes=3):
        stack = make_stack(n_ranks=n_ranks, n_nodes=n_nodes)
        if availability is not None:
            stack.cluster.set_memory_availability(availability)
        engine = TwoPhaseCollectiveIO(
            stack.comm, stack.pfs, TwoPhaseConfig(cb_buffer_size=cb_buffer_size)
        )

        def writer(ctx):
            yield from engine.write(ctx, serial_pattern(ctx.rank, 2000))

        stack.run_spmd(writer)
        return engine.history[0]

    def test_smaller_buffer_is_slower(self):
        fast = self.measure(cb_buffer_size=8192)
        slow = self.measure(cb_buffer_size=128)
        assert slow.bandwidth < fast.bandwidth
        assert slow.rounds_total > fast.rounds_total

    def test_memory_pressure_slows_the_collective(self):
        healthy = self.measure(cb_buffer_size=4096,
                               availability=[10**9] * 3)
        starved = self.measure(cb_buffer_size=4096,
                               availability=[10, 10, 10])
        assert starved.paged_aggregators == 3
        assert starved.elapsed > healthy.elapsed

    def test_deterministic_across_runs(self):
        a = self.measure(cb_buffer_size=1024)
        b = self.measure(cb_buffer_size=1024)
        assert a.elapsed == b.elapsed
        assert a.agg_buffer_bytes == b.agg_buffer_bytes
