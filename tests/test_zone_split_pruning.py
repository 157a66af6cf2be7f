"""Zone-aware split pruning: provably-empty blocks never become map tasks.

With ``zone_split_pruning`` on, :class:`~repro.hail.input_format.HailInputFormat` consults the
``Dir_rep`` zone synopses *before* building input splits and drops every block the planner
classifies as ``ZONE_MAP_SKIP`` — so the JobTracker schedules no map task for it at all, and
the per-task overhead is saved on top of the data bytes.  These tests pin the knob's gating
(requires ``zone_maps``), the counters, the scheduling effect, and result fidelity.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.hail import HailConfig, HailSystem
from repro.hail.predicate import Operator, Predicate
from repro.mapreduce.counters import Counters
from repro.workloads.query import Query

_PATH = "/prune/synthetic"
_ROWS_PER_BLOCK = 40
_NUM_RECORDS = 320  # 8 blocks


def _system(zone_maps: bool = True, split_pruning: bool = True) -> HailSystem:
    system = HailSystem(
        Cluster.homogeneous(3, seed=2),
        config=HailConfig(
            index_attributes=("f1",),
            functional_partition_size=1,
            zone_maps=zone_maps,
            zone_split_pruning=split_pruning,
        ),
        cost=CostModel(CostParameters(enable_variance=False, data_scale=50.0)),
    )
    # Sorted on f2 so per-block f2 zone ranges are disjoint: range predicates prune cleanly.
    records = sorted(
        SyntheticGenerator(seed=11).generate(_NUM_RECORDS),
        key=lambda record: record[SYNTHETIC_SCHEMA.index_of("f2")],
    )
    system.upload(_PATH, records, SYNTHETIC_SCHEMA, rows_per_block=_ROWS_PER_BLOCK)
    return system


def test_knob_requires_zone_maps():
    with pytest.raises(ValueError, match="zone_maps"):
        HailConfig(zone_split_pruning=True)
    config = HailConfig().with_zone_maps(True, split_pruning=True)
    assert config.zone_maps and config.zone_split_pruning


def test_impossible_predicate_schedules_zero_map_tasks():
    """A predicate no block can satisfy launches nothing: the whole file is pruned."""
    system = _system()
    query = Query(name="never", predicate=Predicate.comparison("f2", Operator.LT, -1), projection=None)
    result = system.run_query(query, _PATH)
    assert result.records == []
    assert result.job.num_map_tasks == 0
    counters = result.job.counters
    num_blocks = len(system.hdfs.namenode.file_blocks(_PATH))
    assert counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == num_blocks
    assert counters.value(Counters.ZONE_MAP_PRUNED_BYTES) > 0


def test_selective_range_prunes_most_splits_and_answers_exactly():
    """On f2-sorted data a narrow f2 range touches few blocks; the rest never get tasks."""
    pruning = _system(split_pruning=True)
    control = _system(split_pruning=False)
    query = Query(
        name="narrow",
        predicate=Predicate.comparison("f2", Operator.LT, VALUE_RANGE // 16),
        projection=None,
    )
    pruned = pruning.run_query(query, _PATH)
    unpruned = control.run_query(query, _PATH)
    assert pruned.sorted_records() == unpruned.sorted_records()
    assert pruned.records, "degenerate test: the range matched nothing"
    assert pruned.job.num_map_tasks < unpruned.job.num_map_tasks
    skipped = pruned.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS)
    num_blocks = len(pruning.hdfs.namenode.file_blocks(_PATH))
    assert pruned.job.num_map_tasks + skipped >= num_blocks  # every block accounted for


def test_pruning_off_schedules_every_block():
    system = _system(split_pruning=False)
    query = Query(name="never", predicate=Predicate.comparison("f2", Operator.LT, -1), projection=None)
    result = system.run_query(query, _PATH)
    assert result.records == []
    # Without split pruning the tasks still launch; zone maps skip inside the tasks instead.
    assert result.job.num_map_tasks > 0


def test_unfiltered_scans_are_never_pruned():
    """No predicate → no synopsis can prove anything → identical scheduling to control."""
    system = _system(split_pruning=True)
    result = system.run_query(Query(name="scan", predicate=None, projection=None), _PATH)
    assert len(result.records) == _NUM_RECORDS
    assert result.job.counters.value(Counters.ZONE_MAP_SKIPPED_BLOCKS) == 0


def test_concurrent_batch_of_fully_pruned_jobs_returns_empty_answers():
    """Every job of the batch has zero map tasks: the scheduler drains instead of stalling."""
    system = _system()
    never = Query(name="never", predicate=Predicate.comparison("f2", Operator.LT, -1), projection=None)
    jobconf = system._make_jobconf(never, _PATH, SYNTHETIC_SCHEMA)
    results = system.runner.run_concurrent([jobconf, jobconf])
    assert [result.records for result in results] == [[], []]
    for result in results:
        assert result.counters.value(Counters.LAUNCHED_MAP_TASKS) == 0


def test_concurrent_batch_mixing_pruned_and_real_jobs_answers_exactly():
    system = _system()
    never = Query(name="never", predicate=Predicate.comparison("f2", Operator.LT, -1), projection=None)
    narrow = Query(
        name="narrow",
        predicate=Predicate.comparison("f2", Operator.LT, VALUE_RANGE // 16),
        projection=None,
    )
    expected = system.run_query(narrow, _PATH).sorted_records()
    assert expected, "degenerate test: the range matched nothing"
    jobconfs = [system._make_jobconf(q, _PATH, SYNTHETIC_SCHEMA) for q in (never, narrow, never)]
    results = system.runner.run_concurrent(jobconfs)
    assert results[0].records == [] and results[2].records == []
    assert sorted(results[1].records) == expected
    assert results[0].counters.value(Counters.LAUNCHED_MAP_TASKS) == 0
    assert results[1].counters.value(Counters.LAUNCHED_MAP_TASKS) > 0
