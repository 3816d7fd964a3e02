"""Integration tests: FaultInjector against a live platform."""

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.pfs.server import ServerUnavailableError

from tests.helpers import make_stack


def make_injector(stack, events):
    return FaultInjector(
        stack.env, stack.cluster, stack.pfs, FaultSchedule(events)
    )


class TestWindowedFaults:
    def test_server_slowdown_applied_and_reverted(self):
        stack = make_stack()
        server = stack.pfs.servers[1]
        inj = make_injector(
            stack,
            [FaultEvent(time=1.0, kind="server_slowdown", target=1,
                        duration=2.0, magnitude=4.0)],
        )
        inj.start()
        stack.env.run(until=1.5)
        assert server.degradation == 4.0
        stack.env.run(until=3.5)
        assert server.degradation == 1.0
        assert inj.applied == {"server_slowdown": 1}
        assert inj.active == []

    def test_overlapping_slowdowns_compose(self):
        stack = make_stack()
        server = stack.pfs.servers[0]
        inj = make_injector(
            stack,
            [
                FaultEvent(time=1.0, kind="server_slowdown", target=0,
                           duration=4.0, magnitude=2.0),
                FaultEvent(time=2.0, kind="server_slowdown", target=0,
                           duration=1.0, magnitude=3.0),
            ],
        )
        inj.start()
        stack.env.run(until=2.5)
        assert server.degradation == pytest.approx(6.0)
        stack.env.run(until=3.5)
        assert server.degradation == pytest.approx(2.0)
        stack.env.run(until=5.5)
        assert server.degradation == pytest.approx(1.0)

    def test_server_outage_window(self):
        stack = make_stack()
        server = stack.pfs.servers[2]
        inj = make_injector(
            stack,
            [FaultEvent(time=1.0, kind="server_outage", target=2, duration=1.0)],
        )
        inj.start()
        stack.env.run(until=1.5)
        assert server.available is False
        stack.env.run(until=2.5)
        assert server.available is True

    def test_requests_rejected_during_outage(self):
        stack = make_stack()
        server = stack.pfs.servers[0]
        inj = make_injector(
            stack,
            [FaultEvent(time=0.0, kind="server_outage", target=0, duration=5.0)],
        )
        inj.start()
        failures = []

        def client(env):
            yield env.timeout(1.0)
            try:
                yield server.submit(1024, 1)
            except ServerUnavailableError as exc:
                failures.append(exc)

        stack.env.process(client(stack.env))
        stack.env.run()
        assert len(failures) == 1
        assert server.outage_rejections >= 1

    def test_memory_shock_applied_and_released(self):
        stack = make_stack()
        node = stack.cluster.nodes[1]
        base = node.memory.available
        inj = make_injector(
            stack,
            [FaultEvent(time=1.0, kind="memory_shock", target=1,
                        duration=2.0, magnitude=float(1 << 20))],
        )
        inj.start()
        stack.env.run(until=1.5)
        assert node.memory.available == base - (1 << 20)
        assert node.memory.shock_bytes == 1 << 20
        stack.env.run(until=3.5)
        assert node.memory.available == base
        assert node.memory.shock_bytes == 0

    def test_transient_node_failure_recovers(self):
        stack = make_stack()
        node = stack.cluster.nodes[0]
        inj = make_injector(
            stack,
            [FaultEvent(time=1.0, kind="node_failure", target=0,
                        duration=2.0, magnitude=8.0)],
        )
        inj.start()
        stack.env.run(until=1.5)
        assert (node.failed, node.failure_slowdown) == (True, 8.0)
        stack.env.run(until=3.5)
        assert (node.failed, node.failure_slowdown) == (False, 1.0)

    def test_overlapping_node_failures_recover_at_last_window(self):
        stack = make_stack()
        node = stack.cluster.nodes[0]
        inj = make_injector(
            stack,
            [
                FaultEvent(time=1.0, kind="node_failure", target=0,
                           duration=1.0, magnitude=8.0),
                FaultEvent(time=1.5, kind="node_failure", target=0,
                           duration=2.0, magnitude=8.0),
            ],
        )
        inj.start()
        stack.env.run(until=2.2)  # first window closed, second still open
        assert node.failed is True
        stack.env.run(until=4.0)
        assert node.failed is False


class TestPermanentAndStop:
    def test_permanent_node_failure_persists(self):
        stack = make_stack()
        node = stack.cluster.nodes[1]
        inj = make_injector(
            stack,
            [FaultEvent(time=0.5, kind="node_failure", target=1, magnitude=16.0)],
        )
        inj.start()
        stack.env.run(until=100.0)
        assert node.failed is True
        assert node.failure_slowdown == 16.0

    def test_stop_restores_active_windowed_faults(self):
        stack = make_stack()
        server = stack.pfs.servers[0]
        node = stack.cluster.nodes[0]
        base = node.memory.available
        inj = make_injector(
            stack,
            [
                FaultEvent(time=0.5, kind="server_outage", target=0,
                           duration=100.0),
                FaultEvent(time=0.5, kind="memory_shock", target=0,
                           duration=100.0, magnitude=float(1 << 20)),
            ],
        )
        inj.start()
        stack.env.run(until=1.0)
        assert server.available is False
        assert node.memory.available < base
        inj.stop()
        assert server.available is True
        assert node.memory.available == base
        assert inj.active == []

    def test_stop_halts_future_events(self):
        stack = make_stack()
        inj = make_injector(
            stack,
            [FaultEvent(time=50.0, kind="node_failure", target=0)],
        )
        inj.start()
        stack.env.run(until=1.0)
        inj.stop()
        stack.env.run()
        assert inj.applied == {}
        assert stack.cluster.nodes[0].failed is False

    def test_double_start_rejected(self):
        stack = make_stack()
        inj = make_injector(
            stack, [FaultEvent(time=1.0, kind="node_failure", target=0)]
        )
        inj.start()
        with pytest.raises(RuntimeError):
            inj.start()


class TestValidation:
    def test_bad_server_target_rejected(self):
        stack = make_stack(servers=2)
        with pytest.raises(ValueError):
            make_injector(
                stack,
                [FaultEvent(time=0.0, kind="server_outage", target=2,
                            duration=1.0)],
            )

    def test_bad_node_target_rejected(self):
        stack = make_stack(n_nodes=3)
        with pytest.raises(ValueError):
            make_injector(
                stack, [FaultEvent(time=0.0, kind="node_failure", target=3)]
            )

    def test_server_fault_requires_pfs(self):
        stack = make_stack()
        with pytest.raises(ValueError):
            FaultInjector(
                stack.env,
                stack.cluster,
                None,
                FaultSchedule(
                    [FaultEvent(time=0.0, kind="server_outage", target=0,
                                duration=1.0)]
                ),
            )
