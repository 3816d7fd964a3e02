"""Memory-pressure experiment: the poster's qualitative claims.

Beyond bandwidth, the paper claims MCIO "reduces aggregator memory
consumption and variance" and "restricts aggregation data traffic within
disjointed subgroups".  This experiment runs both strategies on the same
workload and memory landscape and reports:

* per-aggregator peak buffer memory (mean / max);
* the spread (std-dev) of buffer memory across aggregators;
* paged-aggregator counts;
* shuffle traffic split intra-node / inter-node;
* traffic containment, checked on MCIO's plan: the group regions are
  disjoint and every file domain lies inside its group's region, so
  every domain's senders are members of its group.

Run as a script::

    python -m repro.experiments.memory_pressure
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.cluster import MIB, ross13_testbed
from repro.core import (
    CollectiveStats,
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.core.engine import ExecutionPlan
from repro.core.group_division import AggregationGroup, divide_groups
from repro.workloads import CollPerfWorkload

from .harness import Platform, run_collective
from .report import format_table

__all__ = ["MemoryPressureResult", "containment_issues", "run", "main"]


def containment_issues(
    groups: Sequence[AggregationGroup], plan: ExecutionPlan
) -> list[str]:
    """Check that `plan` keeps shuffle traffic inside its groups.

    The group regions must be pairwise disjoint, and every domain's
    extent must lie inside the region of the group it names.  A domain's
    senders are then ranks with bytes in that region, i.e. members of
    the group.
    """
    issues = []
    regions = sorted((g.region.offset, g.region.end, g.group_id) for g in groups)
    for (_, end, a), (start, _, b) in zip(regions, regions[1:]):
        if start < end:
            issues.append(f"group regions {a} and {b} overlap")
    by_id = {g.group_id: g for g in groups}
    for did, domain in enumerate(plan.domains):
        group = by_id[domain.group_id]
        ext = domain.extent
        if ext.offset < group.region.offset or ext.end > group.region.end:
            issues.append(
                f"domain {did} [{ext.offset}, {ext.end}) leaves group "
                f"{group.group_id}'s region "
                f"[{group.region.offset}, {group.region.end})"
            )
    return issues


@dataclass
class MemoryPressureResult:
    """Paired stats of one memory-pressure run."""

    baseline: CollectiveStats
    mcio: CollectiveStats
    #: MCIO's aggregation groups and the plan it executed.
    groups: list[AggregationGroup]
    plan: ExecutionPlan

    def rows(self) -> list[tuple[str, str, str]]:
        """Metric rows for the report table."""
        b, m = self.baseline, self.mcio

        def mib(v: float) -> str:
            return f"{v / 2**20:.1f}"

        return [
            ("aggregators", str(b.n_aggregators), str(m.n_aggregators)),
            ("agg buffer mean (MiB)", mib(b.agg_memory_mean), mib(m.agg_memory_mean)),
            ("agg buffer peak (MiB)", mib(b.agg_memory_peak), mib(m.agg_memory_peak)),
            (
                "memory overcommit mean (MiB)",
                mib(b.overcommit_mean),
                mib(m.overcommit_mean),
            ),
            (
                "memory overcommit peak (MiB)",
                mib(b.overcommit_peak),
                mib(m.overcommit_peak),
            ),
            (
                "memory overcommit std (MiB)",
                mib(b.overcommit_std),
                mib(m.overcommit_std),
            ),
            ("paged aggregators", str(b.paged_aggregators), str(m.paged_aggregators)),
            (
                "intra-node shuffle (MiB)",
                mib(b.shuffle_intra_node_bytes),
                mib(m.shuffle_intra_node_bytes),
            ),
            (
                "inter-node shuffle (MiB)",
                mib(b.shuffle_inter_node_bytes),
                mib(m.shuffle_inter_node_bytes),
            ),
            ("groups", str(b.n_groups), str(m.n_groups)),
            (
                "write bandwidth (MiB/s)",
                f"{b.bandwidth_mib:.1f}",
                f"{m.bandwidth_mib:.1f}",
            ),
        ]

    def render(self) -> str:
        """The comparison table as text."""
        return format_table(
            ["metric", "two-phase", "MCIO"],
            self.rows(),
            title="Memory pressure and traffic containment (collective write)",
        )

    def check_claims(self) -> list[str]:
        """Validate the poster's qualitative claims; returns violations."""
        b, m = self.baseline, self.mcio
        issues = containment_issues(self.groups, self.plan)
        if m.paged_aggregators > b.paged_aggregators:
            issues.append("MCIO paged more aggregators than the baseline")
        if m.overcommit_mean > b.overcommit_mean:
            issues.append(
                "MCIO's mean memory overcommit exceeds the baseline's"
            )
        if m.overcommit_std > b.overcommit_std:
            issues.append(
                "MCIO's memory-overcommit variance exceeds the baseline's"
            )
        return issues


def run(
    buffer_mib: int = 16,
    sigma_mib: int = 50,
    seed: int = 0,
    mcio_config: Optional[MCIOConfig] = None,
) -> MemoryPressureResult:
    """Run the paired comparison on the coll_perf workload (1 GiB file)."""
    spec = ross13_testbed(nodes=10)
    workload = CollPerfWorkload(array_shape=(512, 512, 1024), n_ranks=120)
    patterns = workload.patterns()
    template = (
        mcio_config
        if mcio_config is not None
        else MCIOConfig(
            msg_group=384 * MIB, msg_ind=32 * MIB, mem_min=0, nah=2,
            min_buffer=1 * MIB,
        )
    )

    stats = {}
    for strategy in ("two-phase", "mcio"):
        platform = Platform.build(spec, workload.n_ranks, seed=seed)
        platform.cluster.sample_memory_availability(
            mean_bytes=buffer_mib * MIB, sigma_bytes=sigma_mib * MIB
        )
        if strategy == "two-phase":
            engine = TwoPhaseCollectiveIO(
                platform.comm, platform.pfs,
                TwoPhaseConfig(cb_buffer_size=buffer_mib * MIB),
            )
        else:
            engine = MemoryConsciousCollectiveIO(
                platform.comm, platform.pfs,
                replace(template, cb_buffer_size=buffer_mib * MIB),
            )
            # the plan the collective will execute: same views, same
            # memory snapshot (nothing is allocated before the run)
            plan = engine.plan(
                patterns,
                {n.node_id: n.memory.free_available for n in platform.cluster.nodes},
            )
            groups = divide_groups(
                patterns,
                platform.comm.placement_array,
                engine.config.msg_group,
                stripe_size=platform.pfs.layout.stripe_size,
            )
        stats[strategy] = run_collective(platform, engine, patterns, ops=("write",))[0]
    return MemoryPressureResult(
        baseline=stats["two-phase"], mcio=stats["mcio"], groups=groups, plan=plan
    )


def main() -> None:
    """CLI entry point; exits 1 when a claim check fails."""
    result = run()
    print(result.render())
    issues = result.check_claims()
    if issues:
        print("\nCLAIM VIOLATIONS:")
        for issue in issues:
            print(f"  - {issue}")
        sys.exit(1)
    print("\nclaim checks passed")


if __name__ == "__main__":
    main()
