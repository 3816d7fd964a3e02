"""Tests for sweep-result JSON persistence."""

import json

import pytest

from repro.core.metrics import StatsCollector
from repro.experiments.harness import SweepPoint
from repro.experiments.persistence import (
    load_points,
    save_points,
    stats_from_dict,
    stats_to_dict,
)
from repro.experiments.report import sweep_rows


def make_stats(strategy="mcio", op="write"):
    c = StatsCollector(strategy, op, n_ranks=8)
    c.mark_start(0.0)
    c.mark_end(2.5)
    c.record_bytes(10_000)
    c.record_aggregator(0, 4096, paged=False, overcommit_bytes=0)
    c.record_aggregator(3, 8192, paged=True, overcommit_bytes=1024)
    c.record_shuffle(5000, same_node=True)
    c.record_shuffle(5000, same_node=False)
    c.record_rounds(7)
    c.n_groups = 2
    c.extra["note"] = "hello"
    return c.finalize()


def test_stats_roundtrip():
    original = make_stats()
    restored = stats_from_dict(stats_to_dict(original))
    assert restored == original


def test_retired_stats_keys_still_load():
    """Documents from older releases may carry counters of removed
    execution modes or of the retired plan cache; loading ignores them
    instead of failing."""
    original = make_stats()
    d = stats_to_dict(original)
    d["retired_mode_refusals"] = 1
    d.update(
        plan_cached=True,
        plan_cache_hits=2,
        plan_cache_misses=1,
        plan_cache_invalidations=1,
        planning_tree_queries=0,
    )
    assert stats_from_dict(d) == original


def test_retired_cross_group_counter_still_loads():
    """Documents written while stats carried the always-zero cross-group
    shuffle counter still load; the key is simply ignored."""
    retired = "shuffle_inter_group_bytes"
    original = make_stats()
    d = stats_to_dict(original)
    assert retired not in d
    d[retired] = 0
    restored = stats_from_dict(d)
    assert restored == original
    assert not hasattr(restored, retired)


def test_stats_dict_is_json_serializable():
    json.dumps(stats_to_dict(make_stats()))


def test_save_load_points(tmp_path):
    points = [
        SweepPoint(16 << 20, "two-phase", "write", make_stats("two-phase")),
        SweepPoint(16 << 20, "mcio", "write", make_stats("mcio")),
        SweepPoint(4 << 20, "two-phase", "read", make_stats("two-phase", "read")),
    ]
    path = tmp_path / "sweep.json"
    save_points(path, points, figure_id="Figure X", description="demo")
    restored, meta = load_points(path)
    assert meta == {"figure_id": "Figure X", "description": "demo"}
    assert len(restored) == 3
    assert restored[0].buffer_bytes == 16 << 20
    assert restored[0].stats == points[0].stats


def test_loaded_points_feed_report(tmp_path):
    points = [
        SweepPoint(8 << 20, "two-phase", "write", make_stats("two-phase")),
        SweepPoint(8 << 20, "mcio", "write", make_stats("mcio")),
    ]
    path = tmp_path / "s.json"
    save_points(path, points)
    restored, _ = load_points(path)
    rows = sweep_rows(restored, "write")
    assert len(rows) == 1


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError):
        load_points(path)


def test_extra_filtered_to_scalars():
    stats = make_stats()
    stats.extra["complex"] = object()
    d = stats_to_dict(stats)
    assert "complex" not in d["extra"]
    assert d["extra"]["note"] == "hello"


def test_figure_cli_json_flag(tmp_path, capsys):
    """End-to-end: a micro figure run saved via the CLI flag."""
    from repro.experiments.figures import figure_cli

    from tests.experiments.test_figures import micro_figure

    path = tmp_path / "fig.json"
    figure_cli(
        lambda seed: micro_figure(),
        lambda seed: micro_figure(),
        argv=["--scale", "small", "--json", str(path)],
    )
    out = capsys.readouterr().out
    assert "saved sweep points" in out
    points, meta = load_points(path)
    assert meta["figure_id"] == "micro"
    assert len(points) == 8
