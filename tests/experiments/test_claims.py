"""Tests for the memory-pressure and ablation experiments (slow-ish)."""

from dataclasses import replace

import pytest

from repro.core.engine import ExecutionPlan
from repro.core.request import Extent
from repro.experiments import ablation, memory_pressure
from repro.experiments.memory_pressure import containment_issues


@pytest.mark.slow
class TestMemoryPressure:
    def test_poster_claims_hold(self):
        result = memory_pressure.run(buffer_mib=16, seed=0)
        issues = result.check_claims()
        assert issues == [], "\n".join(issues)
        # the concrete claims, spelled out:
        assert containment_issues(result.groups, result.plan) == []
        assert len(result.groups) == result.mcio.n_groups > 1
        # the checked plan is the one the collective executed
        assert result.plan.aggregator_ranks == result.mcio.aggregator_ranks
        assert result.mcio.paged_aggregators == 0
        assert result.baseline.paged_aggregators > 0
        assert result.mcio.overcommit_mean < result.baseline.overcommit_mean
        assert result.mcio.overcommit_std < result.baseline.overcommit_std
        assert result.mcio.bandwidth > result.baseline.bandwidth

    def test_containment_check_catches_a_domain_across_a_group_boundary(self):
        result = memory_pressure.run(buffer_mib=16, seed=0)
        groups, plan = result.groups, result.plan
        # hand-built variant: stretch one domain of group 0 a byte past
        # its group's region, into group 1's
        did = max(
            i for i, d in enumerate(plan.domains) if d.group_id == 0
        )
        domain = plan.domains[did]
        boundary = groups[0].region.end
        moved = replace(
            domain,
            extent=Extent(domain.extent.offset, boundary + 1 - domain.extent.offset),
        )
        domains = list(plan.domains)
        domains[did] = moved
        bad = ExecutionPlan(tuple(domains), plan.senders, plan.n_groups)
        issues = containment_issues(groups, bad)
        assert len(issues) == 1 and f"domain {did}" in issues[0]
        # overlapping group regions are caught as well
        wide = [replace(groups[0], region=Extent(0, boundary + 1)), *groups[1:]]
        assert any("overlap" in i for i in containment_issues(wide, plan))

    def test_cli_exits_nonzero_on_a_violation(self, monkeypatch, capsys):
        result = memory_pressure.run(buffer_mib=16, seed=0)
        result.mcio = replace(
            result.mcio, paged_aggregators=result.baseline.paged_aggregators + 1
        )
        monkeypatch.setattr(memory_pressure, "run", lambda: result)
        with pytest.raises(SystemExit) as exc:
            memory_pressure.main()
        assert exc.value.code == 1
        assert "CLAIM VIOLATIONS" in capsys.readouterr().out

    def test_render(self):
        result = memory_pressure.run(buffer_mib=16, seed=0)
        text = result.render()
        assert "overcommit" in text
        assert "two-phase" in text and "MCIO" in text


@pytest.mark.slow
class TestAblation:
    def test_all_variants_run(self):
        result = ablation.run(buffer_mib=16, seed=0)
        assert set(result.variants) == set(ablation.VARIANTS)
        text = result.render()
        assert "memory-oblivious" in text

    def test_memory_awareness_is_the_load_bearing_mechanism(self):
        """Removing memory awareness must hurt most (the paper's thesis)."""
        result = ablation.run(buffer_mib=16, seed=0)
        full = result.variants["mcio (full)"].bandwidth
        oblivious = result.variants["memory-oblivious"].bandwidth
        assert oblivious < full
        assert result.variants["memory-oblivious"].paged_aggregators > 0
        assert result.variants["mcio (full)"].paged_aggregators == 0
