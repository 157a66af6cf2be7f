"""Byte accounting: running per-datanode totals and memoized block sizes stay exact.

Every test drives one path that stores, replaces or deletes replicas and then checks the
disk-accounting invariant (:func:`disk_accounting.check_disk_accounting`): each datanode's
running ``used_bytes``, each node's disk usage and ``Hdfs.total_stored_bytes()`` equal a
recount made from the stored values themselves.
"""

from __future__ import annotations

import dataclasses

from disk_accounting import check_disk_accounting

from repro.api import Session
from repro.baselines import HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters, DiskPressurePolicy
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.engine.lifecycle import evict_under_pressure
from repro.hail import HailConfig, HailSystem
from repro.hail.hail_block import HailBlock
from repro.hail.predicate import Operator, Predicate
from repro.layouts.schema import Field
from repro.mapreduce.counters import Counters
from repro.workloads import bob_queries
from repro.workloads.bob import bob_logical_queries
from repro.workloads.query import Query

_PATH = "/accounting/synthetic"


def _cost() -> CostModel:
    return CostModel(CostParameters(enable_variance=False, data_scale=5000.0))


def _adaptive_system(num_nodes: int = 4, replication: int = 3, **overrides) -> HailSystem:
    config = HailConfig(
        index_attributes=(),
        replication=replication,
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        **overrides,
    )
    system = HailSystem(Cluster.homogeneous(num_nodes, seed=7), config=config, cost=_cost())
    system.upload(
        _PATH, SyntheticGenerator(seed=3).generate(800), SYNTHETIC_SCHEMA, rows_per_block=100
    )
    return system


def _query(attribute: str = "f1") -> Query:
    return Query(
        name=f"q-{attribute}",
        predicate=Predicate.comparison(attribute, Operator.LT, VALUE_RANGE // 10),
        projection=tuple(SYNTHETIC_SCHEMA.field_names[:9]),
        description="",
    )


# --------------------------------------------------------------------------- upload
def test_uploads_keep_source_bytes_and_accounting_exact():
    """Typed uploads report the records' text size; every upload leaves exact byte counts."""
    rows = UserVisitsGenerator(seed=9).generate(400)
    expected = sum(USERVISITS_SCHEMA.text_size(row) for row in rows)
    hail = HailSystem(
        Cluster.homogeneous(4, seed=5), index_attributes=["visitDate", "sourceIP", "adRevenue"]
    )
    hadoop = HadoopSystem(Cluster.homogeneous(4, seed=5), cost=_cost())
    for system in (hail, hadoop):
        report = system.upload("/typed", rows, USERVISITS_SCHEMA, rows_per_block=50)
        assert report.source_text_bytes == expected, system.name
        assert report.stored_bytes == check_disk_accounting(system.hdfs), system.name

    # A raw upload whose malformed lines HAIL keeps in the replicas' bad-record sections.
    lines = [USERVISITS_SCHEMA.format_record(row) for row in rows]
    lines[5] = "not|a|valid|row"
    lines[17] = "garbage"
    hail.upload("/raw", rows, USERVISITS_SCHEMA, rows_per_block=50, raw_lines=lines)
    assert any(
        datanode.replica(block_id).payload.bad_lines
        for datanode in hail.hdfs.datanodes.values()
        for block_id in datanode.block_ids()
    ), "degenerate test: no bad records reached a replica"
    check_disk_accounting(hail.hdfs)


# --------------------------------------------------------------------------- adaptive paths
def test_adaptive_commit_keeps_accounting_exact():
    system = _adaptive_system()
    before = check_disk_accounting(system.hdfs)
    result = system.run_query(_query(), _PATH)
    assert result.job.counters.value(Counters.ADAPTIVE_INDEXES_COMMITTED) > 0
    assert check_disk_accounting(system.hdfs) > before


def test_eviction_downgrade_keeps_accounting_exact():
    # Replication 1: every adaptive replica displaced the block's only plain copy, so the
    # eviction pass downgrades instead of deleting.
    system = _adaptive_system(num_nodes=2, replication=1)
    for _ in range(2):
        system.run_query(_query(), _PATH)
    check_disk_accounting(system.hdfs)
    storm = DiskPressurePolicy(capacity_bytes=1.0, high_watermark=0.9, low_watermark=0.5)
    evicted = evict_under_pressure(system.hdfs, storm)
    assert evicted and all(record.downgraded for record in evicted)
    check_disk_accounting(system.hdfs)


def test_placement_rereplication_keeps_accounting_exact():
    system = _adaptive_system(placement_balancer=True, placement_rebuilds_per_job=4)
    for _ in range(3):
        system.run_query(_query(), _PATH)
    footprints = system.hdfs.namenode.adaptive_bytes_by_node()
    system.cluster.kill_node(max(sorted(footprints), key=lambda node_id: footprints[node_id]))
    storm = DiskPressurePolicy(
        capacity_bytes=max(footprints.values()) * 0.4, high_watermark=0.5, low_watermark=0.4
    )
    assert evict_under_pressure(system.hdfs, storm)
    check_disk_accounting(system.hdfs)
    system.config = dataclasses.replace(system.config, adaptive_offer_rate=0.0)
    for _ in range(4):
        system.run_query(_query(), _PATH)
    assert sum(report.num_rebuilt for report in system.lifecycle.reports) > 0
    check_disk_accounting(system.hdfs)


def test_checkpoint_and_restore_keep_accounting_exact(tmp_path):
    config = (
        HailConfig.for_attributes((), functional_partition_size=1)
        .with_adaptive(True, offer_rate=1.0)
        .with_persistence("sqlite", directory=str(tmp_path))
    )
    rows = UserVisitsGenerator(seed=42).generate(300)
    session = Session.deploy(nodes=4, hail_config=config)
    session.upload("/uv", rows, USERVISITS_SCHEMA, rows_per_block=100)
    for query in bob_logical_queries()[:2]:
        session.run(query, path="/uv")
    session.checkpoint()
    stored = check_disk_accounting(session.system().hdfs)
    session.system().hdfs.persist.close()

    restored = Session.restore(config, nodes=4)
    assert check_disk_accounting(restored.system().hdfs) == stored
    restored.system().hdfs.persist.close()


# --------------------------------------------------------------------------- datanode
def test_storing_over_a_held_block_id_releases_the_old_replica():
    system = _adaptive_system()
    datanode = system.hdfs.datanode(0)
    block_id = datanode.block_ids()[0]
    old = datanode.replica(block_id)
    sorted_block = HailBlock.build(
        SYNTHETIC_SCHEMA, old.payload.pax.records(), "f2", partition_size=1
    )
    datanode.store_replica(dataclasses.replace(old, payload=sorted_block))
    assert datanode.replica(block_id).payload is sorted_block
    check_disk_accounting(system.hdfs)
    datanode.delete_replica(block_id)
    check_disk_accounting(system.hdfs)


# --------------------------------------------------------------------------- size walks
def test_repeated_query_walks_no_values_to_size_blocks(monkeypatch):
    """Block sizes are computed once per block: rerunning a query sizes nothing again."""
    hail = HailSystem(
        Cluster.homogeneous(4, seed=5), index_attributes=["visitDate", "sourceIP", "adRevenue"]
    )
    rows = UserVisitsGenerator(seed=9).generate(800)
    hail.upload("/uv", rows, USERVISITS_SCHEMA, rows_per_block=100)
    calls = []
    original = Field.binary_size

    def counting(self, value):
        calls.append(1)
        return original(self, value)

    monkeypatch.setattr(Field, "binary_size", counting)
    query = bob_queries()[0]
    first = hail.run_query(query, "/uv")
    calls.clear()
    second = hail.run_query(query, "/uv")
    assert second.sorted_records() == first.sorted_records()
    assert calls == []
